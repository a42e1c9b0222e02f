"""A seeded corpus of mutated problem files and what the front end makes of them.

Each entry mutates one source text: a sample in problems/ or the README
example, with its comment lines dropped.  A mutation deletes tokens,
inserts a token or a statement keyword, puts a non-ASCII digit in place of
an ASCII one or a rational, complex or transcendental scalar in place of
an integer, or duplicates a run of tokens.  The entry's outcome is what parsing and
lowering at 128 bits make of the text: the exception type and message
(which carries the position and the expected set), or the lowered
hyperplanes, multiplicities and numerator terms, each number printed to 24
significant digits.

tests/golden/dsl_corpus.json holds the texts with their recorded outcomes,
and test_dsl.py replays it.  Write a new recording with

    PYTHONPATH=src python tests/dsl_corpus.py > tests/golden/dsl_corpus.json
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from pathlib import Path

import mpmath

from residuum.dsl import STATEMENT_KEYWORDS, parse_problem
from residuum.symfun import working_precision

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "golden" / "dsl_corpus.json"
SEED = 0
SIZE = 300
DIGITS = 24

TOKENS = (
    "(", ")", ",", ";", "=", "+", "-", "*", "/", "^", "#", ".", "\n",
    "0", "1", "2", "1/2", "-1", "i", "pi", "exp", "exp(", "x", "y", "z",
    "_a", "é", "s1", "n1",
) + STATEMENT_KEYWORDS
NON_ASCII_DIGITS = ("²", "³", "½", "١", "٣", "𝟚")
SCALARS = (
    "1/3", "2/7", "-5/4", "(1+i)/2", "3/2*i", "(2-i)^2", "2^-3", "pi", "pi/4", "exp(1)",
)
_LEXEME = re.compile(r"\s+|\w+|.")


def sources() -> dict[str, str]:
    """The sample files and the README example, without comment lines."""
    texts = {p.name: p.read_text(encoding="utf-8") for p in (ROOT / "problems").glob("*.rsd")}
    readme = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(k for k, line in enumerate(readme) if line.startswith("    vars "))
    end = next(k for k in range(start, len(readme)) if not readme[k].startswith("    "))
    texts["README.md"] = "".join(line[4:] + "\n" for line in readme[start:end])
    return {
        name: "".join(
            line for line in text.splitlines(keepends=True) if not line.startswith("#")
        )
        for name, text in texts.items()
    }


def mutate(rng: random.Random, text: str) -> tuple[str, str]:
    kind = rng.choice(("delete", "insert", "digit", "duplicate", "number"))
    toks = _LEXEME.findall(text)
    k = rng.randrange(len(toks) + 1)
    if kind == "delete":
        del toks[k:k + rng.randint(1, 3)]
    elif kind == "insert":
        toks.insert(k, rng.choice(("", " ")) + rng.choice(TOKENS) + " ")
    elif kind == "duplicate":
        toks[k:k] = toks[k:k + rng.randint(1, 6)]
    else:
        spots = [j for j, tok in enumerate(toks) if tok.isdigit()] or [k]
        j = rng.choice(spots)
        toks[j:j + 1] = [rng.choice(NON_ASCII_DIGITS if kind == "digit" else SCALARS)]
    return kind, "".join(toks)


def entries(seed: int = SEED, size: int = SIZE) -> list[dict]:
    rng = random.Random(seed)
    texts = sources()
    names = sorted(texts)
    out = []
    for _ in range(size):
        source = rng.choice(names)
        text, kinds = texts[source], []
        for _ in range(rng.randint(1, 2)):
            kind, text = mutate(rng, text)
            kinds.append(kind)
        out.append({"source": source, "mutations": kinds, "text": text})
    return out


def _num(z) -> list[str]:
    z = mpmath.mpmathify(z)
    return [mpmath.nstr(z.real, DIGITS), mpmath.nstr(z.imag, DIGITS)]


def _term_text(term) -> str:
    parts = [_num(term.coeff), [(e, _num(v)) for e, v in term.poly.items()]]
    parts.append([_num(c) for c in term.expo.coeffs] + [_num(term.expo.const)])
    parts.append([([_num(c) for c in f.coeffs], _num(f.const), m) for f, m in term.denom])
    return json.dumps(parts)


def outcome(text: str) -> dict:
    """The exception, or the lowered data, of one problem text at 128 bits."""
    with working_precision(128):
        try:
            arr = parse_problem(text).arrangement()
        except Exception as exc:  # every failure is an outcome to record
            return {"error": f"{type(exc).__name__}: {exc}"}
        terms = "\n".join(_term_text(t) for t in arr.numerator.terms)
        return {
            "hyperplanes": [[list(h.f), _num(h.s)] for h in arr.hyperplanes],
            "multiplicities": list(arr.multiplicities),
            "numerator_terms": len(arr.numerator.terms),
            "numerator_sha256": hashlib.sha256(terms.encode()).hexdigest()[:16],
        }


def record(seed: int = SEED, size: int = SIZE) -> str:
    rows = [dict(entry, outcome=outcome(entry["text"])) for entry in entries(seed, size)]
    body = ",\n".join(json.dumps(row, ensure_ascii=False, sort_keys=True) for row in rows)
    return f'{{"seed": {seed}, "entries": [\n{body}\n]}}\n'


if __name__ == "__main__":
    sys.stdout.reconfigure(encoding="utf-8")
    sys.stdout.write(record())
