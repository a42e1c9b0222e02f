"""Problem-file parser: grammar, diagnostics, lowering, print round-trip."""

import copy
import json
import math
import pickle
import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf

from residuum.arrangement import Arrangement, Polyhedron, canonicalize_hyperplane
from residuum.dsl import (
    MAX_NESTING,
    Bin,
    ExpCall,
    Expr,
    Name,
    Neg,
    Num,
    ParseError,
    ProblemError,
    ProblemSpec,
    load_problem,
    parse_problem,
)
from residuum.cli import main
from residuum.exact_linalg import GaussianRational
from residuum.symfun import to_mpc, working_precision

import reference
from dsl_corpus import CORPUS, outcome

def random_spec(rng) -> ProblemSpec:
    """Draw a small random problem for parser round-trip checks."""
    nvars = rng.choice([1, 2, 3])
    variables = tuple(("x", "y", "z")[:nvars])
    while True:
        cone = tuple(
            tuple(
                Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
                for _ in range(nvars)
            )
            for _ in range(nvars)
        )
        try:
            Polyhedron.from_generators(cone)
            break
        except ValueError:
            continue
    n_params = rng.randint(0, 2)
    param_pool = ["s1", "n1", "a", "b"]
    rng.shuffle(param_pool)
    names = param_pool[:n_params]

    def tree(depth: int, atoms) -> Expr:
        kind = rng.randint(0, 6 if depth > 0 else 1)
        if kind <= 1:
            return atoms[rng.randint(0, len(atoms) - 1)]
        if kind == 2:
            return Neg(tree(depth - 1, atoms))
        if kind == 6:
            return ExpCall(tree(depth - 1, atoms))
        op = rng.choice(["+", "-", "*", "/", "^"])
        return Bin(op, tree(depth - 1, atoms), tree(depth - 1, atoms))

    # parameter values may not mention the integration variables
    scalar_atoms = [Num(rng.randint(0, 9)) for _ in range(3)] + [
        Name("i"),
        Name("pi"),
    ]
    parameters = []
    for pos_in_list, name in enumerate(names):
        pool = scalar_atoms + [Name(n) for n in names[:pos_in_list]]
        parameters.append((name, tree(2, pool)))
    parameters = tuple(parameters)
    atoms = (
        scalar_atoms
        + [Name(v) for v in variables]
        + [Name(n) for n in names]
    )
    numerator = tree(3, atoms) if rng.random() < 0.8 else None
    denominator = tuple(
        (tree(2, atoms), rng.choice([1, 1, 1, 2, 3]))
        for _ in range(rng.randint(1, 3))
    )
    return ProblemSpec(
        variables=variables,
        cone=cone,
        parameters=parameters,
        numerator=numerator,
        denominator=denominator,
    )


EXAMPLE = """\
vars x y;
cone (1,0) (-1,1);
param s1=1 n1=2;
num n1^(i*x - s1) * exp(2*pi*i*y);
den (x - i) (y - i) (x + y - 2*i)^2;
"""


def test_example_parses():
    spec = parse_problem(EXAMPLE)
    assert spec.variables == ("x", "y")
    assert spec.cone == ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1)))
    assert [n for n, _ in spec.parameters] == ["s1", "n1"]
    assert isinstance(spec.numerator, Bin)
    assert [m for _, m in spec.denominator] == [1, 1, 2]


def test_example_lowers():
    arr = parse_problem(EXAMPLE).arrangement()
    assert arr.dim == 2
    assert [h.f for h in arr.hyperplanes] == [(1, 0), (0, 1), (1, 1)]
    for h, expected_s in zip(arr.hyperplanes, (1, 1, 2)):
        assert abs(h.s - expected_s) < mpf("1e-30")
    assert arr.multiplicities == (1, 1, 2)


def test_statement_order_free():
    reordered = """\
den (x - i) (y - i) (x + y - 2*i)^2;
num n1^(i*x - s1) * exp(2*pi*i*y);
cone (1,0) (-1,1);
param s1=1 n1=2;
vars x y;
"""
    assert parse_problem(reordered) == parse_problem(EXAMPLE)


def test_comments_and_whitespace():
    text = """\
# three-plane example
vars x   y;   # integration variables
cone (1, 0)   (-1, 1);
den (x-i)(y-i);
"""
    spec = parse_problem(text)
    assert spec.variables == ("x", "y")
    assert len(spec.denominator) == 2


def test_numerator_defaults_to_one():
    spec = parse_problem("vars x; cone (1); den (x - i);")
    assert spec.numerator is None
    numer = spec.arrangement().numerator
    assert abs(numer.evaluate([mpf("0.37")]) - 1) < mpf("1e-30")


def test_missing_semicolon_reports_position():
    text = "vars x y\ncone (1,0) (0,1);\nden (x - i) (y - i);"
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert exc.value.line == 2
    assert exc.value.col == 1
    assert "';'" in exc.value.expected


def test_unknown_statement_lists_keywords():
    with pytest.raises(ParseError) as exc:
        parse_problem("vars x; foo (1);")
    assert exc.value.line == 1
    assert exc.value.col == 9
    assert set(exc.value.expected) == {"cone", "den", "num", "param", "vars"}


def test_expression_error_expected_set():
    with pytest.raises(ParseError) as exc:
        parse_problem("vars x; cone (1); num 2*; den (x - i);")
    assert exc.value.line == 1
    assert "integer" in exc.value.expected
    assert "name" in exc.value.expected


def test_stray_character():
    with pytest.raises(ParseError) as exc:
        parse_problem("vars x; cone (1); den (x - i); @")
    assert exc.value.col == 32


def test_duplicate_statement():
    with pytest.raises(ParseError, match="duplicate 'vars'"):
        parse_problem("vars x; vars y; cone (1); den (x - i);")


def test_duplicate_variable():
    with pytest.raises(ParseError, match="duplicate variable"):
        parse_problem("vars x x; cone (1); den (x - i);")


def test_reserved_names_rejected():
    with pytest.raises(ParseError, match="reserved"):
        parse_problem("vars pi; cone (1); den (pi - i);")
    with pytest.raises(ParseError, match="reserved"):
        parse_problem("vars x; cone (1); param exp=2; den (x - i);")


def test_missing_statements():
    with pytest.raises(ParseError, match="missing 'den'"):
        parse_problem("vars x; cone (1);")
    with pytest.raises(ParseError, match="missing 'cone'"):
        parse_problem("vars x; den (x - i);")
    with pytest.raises(ParseError, match="missing 'vars'"):
        parse_problem("cone (1); den (x - i);")


def test_cone_shape_errors():
    with pytest.raises(ProblemError, match="generators"):
        parse_problem("vars x y; cone (1,0); den (x - i) (y - i);")
    with pytest.raises(ProblemError, match="entries"):
        parse_problem("vars x y; cone (1,0) (1,0,2); den (x - i) (y - i);")
    with pytest.raises(ProblemError, match="dependent"):
        parse_problem("vars x y; cone (1,0) (2,0); den (x - i) (y - i);")


def test_fractional_cone_entries():
    spec = parse_problem("vars x y; cone (1,0) (-1/2,1); den (x - i) (y - i);")
    assert spec.cone[1][0] == Fraction(-1, 2)
    assert spec.polyhedron().det() == 1


def test_unbound_parameter_positions():
    with pytest.raises(ProblemError) as exc:
        parse_problem("vars x; cone (1); num n3*x; den (x - i);")
    assert "unbound parameter 'n3'" in str(exc.value)
    assert exc.value.line == 1
    assert exc.value.col == 23

    with pytest.raises(ProblemError, match="unbound parameter 'b'"):
        parse_problem("vars x; cone (1); param a=b; den (x - i);")
    with pytest.raises(ProblemError, match="integration variable"):
        parse_problem("vars x; cone (1); param a=2*x; den (x - i);")
    with pytest.raises(ProblemError, match="unbound parameter 'q'"):
        parse_problem("vars x; cone (1); den (x - q*i);")


def test_parameter_must_be_scalar():
    spec = parse_problem(
        "vars x; cone (1); param a=1+exp(2); den (x - a*i);"
    )
    arr = spec.arrangement()
    assert abs(arr.hyperplanes[0].s - (1 + mpmath.exp(2))) < mpf("1e-25")


def test_power_numerator_matches_direct():
    spec = parse_problem(
        "vars x y; cone (1,0) (0,1); param s1=1 s2=1;"
        "num 2^(i*x - s1)*3^(i*y - s2); den (x - i) (y - i);"
    )
    with mpmath.mp.workprec(160):
        numer = spec.arrangement().numerator
        pt = [mpf("0.3"), mpf("-0.7")]
        direct = mpmath.power(2, mpc(0, 1) * pt[0] - 1) * mpmath.power(
            3, mpc(0, 1) * pt[1] - 1
        )
        assert abs(numer.evaluate(pt) - direct) < mpf("1e-30")


def test_exp_numerator_matches_direct():
    spec = parse_problem(
        "vars x y; cone (1,0) (0,1);"
        "num exp(2*pi*i*(x + 2*y)); den (x - i) (y - i);"
    )
    with mpmath.mp.workprec(160):
        numer = spec.arrangement().numerator
        pt = [mpf("0.25"), mpf("0.125")]
        direct = mpmath.exp(2 * mpmath.pi * mpc(0, 1) * (pt[0] + 2 * pt[1]))
        assert abs(numer.evaluate(pt) - direct) < mpf("1e-30")


def test_parameter_chain_and_rationals():
    spec = parse_problem(
        "vars x; cone (1); param a=1/2 b=4*a;"
        "num exp(i*b*x); den (x - b*i);"
    )
    arr = spec.arrangement()
    assert abs(arr.hyperplanes[0].s - 2) < mpf("1e-30")
    val = arr.numerator.evaluate([mpf(3)])
    assert abs(val - mpmath.exp(mpc(0, 6))) < mpf("1e-30")


def test_coincident_factors_merge():
    arr = parse_problem(
        "vars x; cone (1); den (x - i) (2*x - 2*i);"
    ).arrangement()
    assert len(arr.hyperplanes) == 1
    assert arr.multiplicities == (2,)

    arr2 = parse_problem("vars x; cone (1); den (x - i)^3;").arrangement()
    assert arr2.multiplicities == (3,)


def test_non_affine_factor_rejected():
    with pytest.raises(ProblemError, match="not affine"):
        parse_problem("vars x y; cone (1,0) (0,1); den (x*y - i);").arrangement()
    with pytest.raises(ProblemError, match="not affine"):
        parse_problem("vars x; cone (1); den (exp(x) - i);").arrangement()
    with pytest.raises(ProblemError, match="constant"):
        parse_problem("vars x; cone (1); den (2 - i);").arrangement()


def test_real_hyperplane_rejected():
    with pytest.raises(ProblemError, match="real locus"):
        parse_problem("vars x; cone (1); den (x - 1);").arrangement()


def test_misaligned_complex_row_rejected():
    with pytest.raises(ProblemError, match="not parallel"):
        parse_problem(
            "vars x y; cone (1,0) (0,1); den ((1+i)*x + y - i) (y - i);"
        ).arrangement()


def test_irrational_coefficient_rejected():
    with pytest.raises(ProblemError, match="exact rationals"):
        parse_problem("vars x; cone (1); den (pi*x - i);").arrangement()


def test_irrational_offset_allowed():
    arr = parse_problem("vars x; cone (1); den (x - pi*i);").arrangement()
    assert abs(arr.hyperplanes[0].s - mpmath.pi) < mpf("1e-30")
    # exact coefficients stay exact when a form with a rounded constant
    # meets an exact one, as in (x - pi i) + y
    arr = parse_problem("vars x y; cone (1,0) (0,1); den (x - pi*i + 2*y);").arrangement()
    assert arr.hyperplanes[0].f == (1, 2)
    assert abs(arr.hyperplanes[0].s - mpmath.pi) < mpf("1e-30")


def test_complex_rational_row_canonicalizes():
    arr = parse_problem("vars x; cone (1); den (i*x - 1);").arrangement()
    h = arr.hyperplanes[0]
    assert h.f == (-1,)
    assert abs(h.s - 1) < mpf("1e-30")


def test_division_rules():
    spec = parse_problem("vars x; cone (1); num x/2; den (x - i);")
    assert abs(spec.arrangement().numerator.evaluate([mpf(3)]) - mpf("1.5")) < mpf(
        "1e-30"
    )
    with pytest.raises(ProblemError, match="division"):
        parse_problem("vars x; cone (1); num 2/x; den (x - i);").arrangement()
    with pytest.raises(ProblemError, match="zero"):
        parse_problem("vars x; cone (1); num x/(2 - 2); den (x - i);").arrangement()


def test_power_rules():
    spec = parse_problem("vars x y; cone (1,0) (0,1); num (x + y)^2; den (x - i) (y - i);")
    numer = spec.arrangement().numerator
    assert abs(numer.evaluate([mpf(2), mpf(3)]) - 25) < mpf("1e-28")

    scalar = parse_problem(
        "vars x; cone (1); num 2^pi; den (x - i);"
    ).arrangement()
    assert abs(scalar.numerator.evaluate([mpf(0)]) - mpmath.power(2, mpmath.pi)) < mpf(
        "1e-28"
    )

    with pytest.raises(ProblemError, match="negative power"):
        parse_problem("vars x; cone (1); num x^(-1); den (x - i);").arrangement()
    with pytest.raises(ProblemError, match="scalar base"):
        parse_problem(
            "vars x y; cone (1,0) (0,1); num (x + y)^x; den (x - i) (y - i);"
        ).arrangement()


def test_integer_powers_build_no_fraction(monkeypatch):
    """An integer exponent is read from its GaussianRational's integer
    parts: lowering ``num x^2 * y^3`` builds no Fraction (calls of
    ``Fraction.__new__``), and its numerator is x^2 y^3."""
    spec = parse_problem("vars x y; cone (1,0) (0,1); num x^2 * y^3; den (x - i) (y - i);")
    built = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    numer = spec.arrangement().numerator
    monkeypatch.undo()
    assert built == []
    assert abs(numer.evaluate([mpf(2), mpf(3)]) - 108) < mpf("1e-28")


def test_load_problem(tmp_path):
    path = tmp_path / "p.rsd"
    path.write_text(EXAMPLE)
    assert load_problem(str(path)) == parse_problem(EXAMPLE)


def test_error_message_format():
    try:
        parse_problem("vars x;\ncone 1;\nden (x - i);")
    except ParseError as exc:
        text = str(exc)
        assert text.startswith("line 2, column 6:")
        assert "expected" in text
    else:
        raise AssertionError("expected a parse error")


def test_pretty_roundtrip_example():
    spec = parse_problem(EXAMPLE)
    printed = spec.pretty()
    assert parse_problem(printed) == spec
    assert parse_problem(printed).pretty() == printed


def test_pretty_canonical_layout():
    printed = parse_problem(EXAMPLE).pretty()
    assert printed.splitlines()[0] == "vars x y;"
    assert printed.splitlines()[1] == "cone (1,0) (-1,1);"
    assert printed.splitlines()[4] == "den (x - i) (y - i) (x + y - 2*i)^2;"


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_pretty_roundtrip_random(seed):
    spec = random_spec(random.Random(seed))
    printed = spec.pretty()
    reparsed = parse_problem(printed)
    assert reparsed == spec
    assert reparsed.pretty() == printed


def test_ast_equality_ignores_positions():
    a = parse_problem("vars x; cone (1); num x + 1; den (x - i);")
    b = parse_problem("vars x; cone (1); num   x+1; den (x - i);")
    assert a == b
    assert a.numerator == Bin("+", Name("x"), Num(1))
    # on other lines and columns, every node compares and hashes alike
    a = parse_problem("vars x; cone (1); num -exp(x)^2 + 1/3; den (x - i);")
    b = parse_problem("vars x;\ncone (1);\n\nnum   -exp( x )^2+1 / 3;\nden (x - i);")
    assert a == b and hash(a) == hash(b)
    assert a.numerator.pos != b.numerator.pos
    assert a.numerator == Bin(
        "+", Neg(Bin("^", ExpCall(Name("x")), Num(2))), Bin("/", Num(1), Num(3))
    )
    assert parse_problem(
        "vars x; cone (1); num exp(x); den (x - i);"
    ).numerator == ExpCall(Name("x"))


# the first sizes at which parse_problem(...).arrangement() ended in a
# RecursionError before the nesting cap and the loops over long chains
_DEEP_NUMERATORS = {
    "parentheses": "(" * 198 + "x" + ")" * 198,
    "powers": "^".join(["1"] * 496),
    "unary minuses": "-" * 990 + "x",
}


@pytest.mark.parametrize("shape", sorted(_DEEP_NUMERATORS))
def test_nesting_past_the_cap_is_a_problem_error(tmp_path, capsys, shape):
    """Nesting deeper than MAX_NESTING is refused with the position of the
    first level too many, and the command line exits 2."""
    text = f"vars x; cone (1);\nnum {_DEEP_NUMERATORS[shape]}; den (x - i);\n"
    with pytest.raises(ProblemError) as exc:
        parse_problem(text)
    assert "nested deeper than 100 levels" in str(exc.value)
    assert exc.value.line == 2 and exc.value.col > 4
    path = tmp_path / "deep.rsd"
    path.write_text(text)
    assert main(["eval", str(path)]) == 2
    assert "nested deeper" in capsys.readouterr().err


def test_nesting_up_to_the_cap_lowers():
    """MAX_NESTING levels of parentheses, signs or powers still lower."""
    n = MAX_NESTING
    for numerator in [
        "(" * n + "x" + ")" * n,
        "-" * n + "x",
        "^".join(["1"] * (n + 1)),
        "-(" * (n // 2) + "x" + ")" * (n // 2),
    ]:
        spec = parse_problem(f"vars x; cone (1); num {numerator}; den (x - i);")
        spec.arrangement()
        assert parse_problem(spec.pretty()) == spec


def test_long_sums_and_products_lower():
    """A plain sum of 992 terms (the first that failed, in the name check)
    and a long product lower to the values of their short forms."""
    n = 992
    cases = [
        (" + ".join(["x"] * n), f"{n}*x"),
        (" - ".join(["x"] * n), f"{2 - n}*x"),
        ("*".join(["2"] * n) + "*x", f"2^{n}*x"),
        ("/".join(["x"] + ["2"] * n), f"x/2^{n}"),
    ]
    for long, short in cases:
        spec = parse_problem(f"vars x; cone (1); num {long}; den (x - i);")
        assert spec.pretty().count("\n") == 4
        want = parse_problem(f"vars x; cone (1); num {short}; den (x - i);")
        with working_precision(128):
            got = spec.arrangement().numerator.evaluate([mpc(3, 1)])
            assert got == want.arrangement().numerator.evaluate([mpc(3, 1)])


def test_long_sum_compares_hashes_and_prints():
    """A numerator of 2,000 terms: ``==``, ``hash`` and ``repr`` walk the
    tree's left spine without recursing."""
    text = "vars x; cone (1); num " + " + ".join(["x"] * 2000) + "; den (x - i);"
    a, b = parse_problem(text), parse_problem(text)
    assert a.numerator is not b.numerator
    assert a.numerator == b.numerator and a == b
    assert hash(a.numerator) == hash(b.numerator) and hash(a) == hash(b)
    shifted = parse_problem(text.replace("num x", "num  x"))
    assert shifted.numerator == a.numerator  # positions stay out of equality
    assert a.numerator != parse_problem(text.replace("+ x;", "- x;")).numerator
    # one child and no other field each: only their kinds tell them apart
    ends = [parse_problem(text.replace("+ x;", f"+ {t};")) for t in ("exp(x)", "-x")]
    assert ends[0].numerator != ends[1].numerator
    # the k-th x is at column 23 + 4k, and the + before it two columns left
    want = "Bin(op='+', lhs=" * 1999 + "Name(name='x', pos=(1, 23))" + "".join(
        f", rhs=Name(name='x', pos=(1, {23 + 4 * k})), pos=(1, {21 + 4 * k}))"
        for k in range(1, 2000)
    )
    assert repr(a.numerator) == want


def test_long_sum_pickles_and_copies():
    """A spec whose numerator is a sum of 2,000 terms survives ``pickle`` and
    ``copy.deepcopy``: a node reduces to its tree's flat preorder, rebuilt
    on an explicit stack, positions included."""
    text = "vars x; cone (1); num " + " + ".join(["x"] * 1999) + " - exp(-x); den (x - i);"
    spec = parse_problem(text)
    for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert copied == spec and copied.numerator is not spec.numerator
        assert repr(copied.numerator) == repr(spec.numerator)


def test_power_of_an_exact_scalar_is_exact_and_fast():
    """(3/2)^n is formed by repeated squaring and rounded once."""
    for n in (7, -7, 60_000):
        start = time.perf_counter()
        with working_precision(128):
            text = f"vars x; cone (1); num (3/2)^{n}; den (x - i);"
            coeff = parse_problem(text).arrangement().numerator.terms[0].coeff
            assert coeff == to_mpc(Fraction(3, 2) ** n)
        assert time.perf_counter() - start < 0.5
    z = GaussianRational(Fraction(1, 2), Fraction(-2, 3))
    assert z**5 == z * z * z * z * z
    assert z**-2 == GaussianRational.of(1) / (z * z)
    assert z**0 == GaussianRational.of(1)


def test_exact_power_size_cap():
    """An exact power past _MAX_EXACT_POWER_BITS is refused before it is
    computed; (3/2)^60000 above stays under the cap."""
    start = time.perf_counter()
    with pytest.raises(ProblemError, match="exact power exceeds"):
        parse_problem("vars x; cone (1); num 3^3^20; den (x - i);").arrangement()
    assert time.perf_counter() - start < 1.0


def _rational_text(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


@given(
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        min_size=2,
        max_size=4,
    ),
    st.sampled_from(["+", "*"]),
)
@settings(max_examples=200, deadline=None)
def test_numerator_coefficient_is_the_exact_value_rounded_once(values, op):
    """Exact scalar arithmetic is rounded once, where lowering hands it on."""
    exact = sum(values) if op == "+" else math.prod(values)
    expr = f" {op} ".join(_rational_text(v) for v in values)
    text = f"vars x; cone (1); num ({expr})*x; den (x - i);"
    with working_precision(128):
        terms = parse_problem(text).arrangement().numerator.terms
        coeffs = [c for t in terms for _, c in t.poly.items()]
        assert coeffs == ([to_mpc(exact)] if exact else [])


# Exponents are literals, so no power tower can grow.  "٣" is a decimal
# digit; "²", "³" and "½" are numeric characters that are not.
_SCALAR_ATOMS = ("1", "2", "3", "1/2", "٣", "i", "pi", "0")
_ATOMS = _SCALAR_ATOMS + ("x", "y", "a")
_EXPONENTS = ("0", "1", "2", "3", "-1", "(1/2)", "x", "(i*x)")


def _expr_texts(atoms, depth: int):
    atom = st.sampled_from(atoms)
    if depth == 0:
        return atom
    sub = _expr_texts(atoms, depth - 1)
    return st.one_of(
        atom,
        atom.map(lambda a: f"exp({a})"),
        sub.map(lambda e: f"-({e})"),
        st.tuples(sub, st.sampled_from(" + - * / ".split()), sub).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"
        ),
        st.tuples(sub, st.sampled_from(_EXPONENTS)).map(lambda t: f"({t[0]})^{t[1]}"),
    )


def _with_digit(text: str, digit: str | None, k: int) -> str:
    spots = [j for j, ch in enumerate(text) if ch in "0123456789"]
    if digit is None or not spots:
        return text
    j = spots[k % len(spots)]
    return text[:j] + digit + text[j + 1:]


_COEFF = _expr_texts(_SCALAR_ATOMS, 1)
_FACTOR = st.builds(
    "({})*x + ({})*y - ({})*i{}".format,
    _COEFF,
    _COEFF,
    _COEFF,
    st.one_of(st.just(""), _expr_texts(_ATOMS, 2).map(" + ({})".format)),
)
_FRONT_END_TEXTS = st.builds(
    _with_digit,
    st.builds(
        "vars x y;\ncone {};\n{}{}den {};\n".format,
        st.sampled_from(["(1,0) (0,1)", "(-1,1) (0,1)", "(1/2,0) (1,1)"]),
        st.one_of(st.just(""), _expr_texts(_SCALAR_ATOMS, 2).map("param a={};\n".format)),
        st.one_of(st.just(""), _expr_texts(_ATOMS, 3).map("num {};\n".format)),
        st.lists(
            st.tuples(_FACTOR, st.sampled_from(["", "^2", "^3"])).map(
                lambda t: f"({t[0]}){t[1]}"
            ),
            min_size=1,
            max_size=3,
        ).map(" ".join),
    ),
    st.sampled_from([None] * 6 + ["²", "³", "½"]),
    st.integers(0, 99),
).filter(lambda text: len(text) <= 400)


@given(_FRONT_END_TEXTS)
@example("vars x; cone (1); den (x - ²*i);\n")
@example("vars x; cone (²); den (x - i);\n")
@settings(max_examples=300, deadline=None)
def test_front_end_fails_only_with_problem_error(text):
    """Any text either lowers or is rejected as a ProblemError (exit 2)."""
    try:
        parse_problem(text).arrangement()
    except ProblemError:
        pass


def test_mutation_corpus_replays():
    """Every mutated text of tests/golden/dsl_corpus.json ends as recorded.

    The outcomes were recorded by tests/dsl_corpus.py; see its docstring.
    """
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    changed = [
        (entry["text"], entry["outcome"], got)
        for entry in corpus["entries"]
        if (got := outcome(entry["text"])) != entry["outcome"]
    ]
    assert not changed, changed[:3]


def test_scaled_denominator_factor_keeps_its_scale():
    """A den factor written c (f(v) - i s) divides the integrand by c: the
    integral of e^(i x) / (2 x - 2 i) is pi i / e, half that of
    e^(i x) / (x - i); a factor 2 x - 2 i in two variables halves the
    product's value; and x + i = -(-x - i) flips the sign of a simple pole's
    residue."""
    from residuum.residue_engine import evaluate_integral

    with working_precision(128):
        cases = [
            ("vars x; cone (1); num exp(i*x); den (2*x - 2*i);", mpmath.pi * 1j / mpmath.e),
            (
                "vars x y; cone (1,0) (0,1); num exp(i*(2*x)); den (2*x - 2*i) (y - i) (-y - i);",
                -(mpmath.pi**2) * mpmath.exp(-2) * 1j,
            ),
            ("vars x; cone (-1); num exp(-i*x); den (x + i);", -2 * mpmath.pi * 1j / mpmath.e),
        ]
        for text, want in cases:
            spec = parse_problem(text)
            value = evaluate_integral(spec.arrangement(), spec.polyhedron()).value
            assert abs(value - want) < mpf("1e-30"), text


def _lowered(lower, spec):
    """What ``lower`` makes of ``spec``: the arrangement's parts, the kinds
    of its s_j, or the ProblemError with its text and position."""
    try:
        arr = lower(spec)
    except ProblemError as exc:
        return type(exc), str(exc), exc.line, exc.col
    kinds = [type(h.s) for h in arr.hyperplanes]
    return arr.dim, arr.hyperplanes, kinds, arr.multiplicities, repr(arr.numerator.terms)


_EXACT_KINDS = (int, Fraction, GaussianRational)


def _exact_data(arr) -> bool:
    """Every s_j a GaussianRational, and every coefficient of the numerator's
    and the identity chart integrand's terms, polynomial ones included, an
    exact scalar."""
    terms = arr.numerator.terms + arr.integrand().terms
    return all(h.s.__class__ is GaussianRational for h in arr.hyperplanes) and all(
        isinstance(c, _EXACT_KINDS) for t in terms for c in (t.coeff, *t.poly._coeffs.values())
    )


def test_lowered_data_are_exact():
    """The five samples (three of them with pi or exp()), every corpus text
    that lowers and a hyperplane given an mpmath constant hold only exact
    values: pi, exp() and n^(...) enter at their binary values."""
    samples = sorted((Path(__file__).resolve().parents[1] / "problems").glob("*.rsd"))
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    lowered = 0
    with working_precision(128):
        for text in [path.read_text() for path in samples] + [e["text"] for e in corpus["entries"]]:
            try:
                arr = parse_problem(text).arrangement()
            except ProblemError:
                continue
            assert _exact_data(arr), text
            lowered += 1
        h = canonicalize_hyperplane([1], mpc(0, -1))
        assert h.s == GaussianRational.of(1)
        assert _exact_data(Arrangement.build(1, [h, h._replace(f=(-1,))]))
    assert lowered >= 45


def test_corpus_lowers_as_the_reference_route():
    """Every text of tests/golden/dsl_corpus.json that parses lowers to the
    arrangement, or fails with the error at the position, of the route that
    read each factor back as GaussianRationals (``reference``)."""
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    lowered = 0
    with working_precision(128):
        for entry in corpus["entries"]:
            try:
                spec = parse_problem(entry["text"])
            except ProblemError:
                continue
            got = _lowered(ProblemSpec.arrangement, spec)
            assert got == _lowered(reference.lowered_arrangement, spec), entry["text"]
            lowered += not isinstance(got[0], type)
    assert lowered >= 40


_RATIONAL = st.builds(
    lambda n, d: str(n) if d == 1 else f"{n}/{d}", st.integers(-4, 4), st.integers(1, 3)
)
_NONZERO = _RATIONAL.filter(lambda text: not text.startswith("0"))
_GAUSSIAN = st.builds("({} + ({})*i)".format, _NONZERO, _NONZERO)
_OFFSET = st.one_of(_NONZERO, _GAUSSIAN, st.sampled_from(["p", "p/2 + 1/3", "-p"]))
_MULT = st.sampled_from(["", "^2", "^3"])
# c (a x + b y - i s) with a real direction (a, b), so that the factor aligns
_SCALED_FACTOR = st.builds(
    "(({})*(({})*x + ({})*y - i*({}))){}".format,
    st.one_of(_NONZERO, _GAUSSIAN),
    _NONZERO,
    _RATIONAL,
    _OFFSET,
    _MULT,
)
# a x + b y + s with a Gaussian: often not alignable, on the real locus
# when s is real, constant when a = b = 0
_FREE_FACTOR = st.builds(
    "(({})*x + ({})*y + ({})){}".format,
    st.one_of(_RATIONAL, _GAUSSIAN),
    st.one_of(_RATIONAL, _GAUSSIAN),
    _OFFSET,
    _MULT,
)
_LOWERING_TEXTS = st.builds(
    "vars x y;\ncone (1,0) (0,1);\nparam p={};\nnum exp(i*x);\nden {};\n".format,
    st.sampled_from(["pi/4", "1/2", "2*pi - 1", "3"]),
    st.builds(
        "{}{}".format,
        st.lists(_SCALED_FACTOR, min_size=1, max_size=3).map(" ".join),
        st.one_of(st.just(""), _FREE_FACTOR.map(" {}".format)),
    ),
)


@given(_LOWERING_TEXTS)
# a negative rational lead and scale 3/2 squared, exact s
@example("vars x y;\ncone (1,0) (0,1);\nparam p=1/2;\nnum exp(i*x);\nden ((3/2)*((-2)*x + (4)*y - i*(1/3)))^2;\n")
# a Gaussian scale and pi in s through the parameter
@example("vars x y;\ncone (1,0) (0,1);\nparam p=pi/4;\nnum exp(i*x);\nden ((1 + (2)*i)*((1)*x + (0)*y - i*(p)))^3;\n")
# real and imaginary parts not parallel
@example("vars x y;\ncone (1,0) (0,1);\nparam p=3;\nnum exp(i*x);\nden ((1)*x + ((0 + (1)*i))*y + (1));\n")
# on the real locus, and a constant factor
@example("vars x y;\ncone (1,0) (0,1);\nparam p=3;\nnum exp(i*x);\nden ((1)*x + (0)*y + (1));\n")
@example("vars x y;\ncone (1,0) (0,1);\nparam p=3;\nnum exp(i*x);\nden (x - i) ((0)*x + (0)*y + (1));\n")
@settings(max_examples=150, deadline=None)
def test_den_factors_lower_as_the_reference_route(text):
    """Rational and Gaussian coefficients, negative leads, scales c != +-1
    with multiplicity, and pi in s through a parameter lower, on integers,
    to the arrangement of the GaussianRational route, c^-m included, or
    fail with its error at its position."""
    spec = parse_problem(text)
    with working_precision(128):
        assert _lowered(ProblemSpec.arrangement, spec) == _lowered(
            reference.lowered_arrangement, spec
        )
