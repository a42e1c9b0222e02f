"""Problem-file front end: parse a small text format into arrangement data.

A problem file lists the integration variables, the cone generators, optional
named parameters, a numerator, and the affine denominator factors:

    vars x y;
    cone (1,0) (-1,1);
    param s1=1 n1=2;
    num n1^(i*x - s1) * exp(2*pi*i*y);
    den (x - i) (y - i) (x + y - 2*i)^2;

Statements may appear in any order, each at most once; ``param`` and ``num``
are optional (the numerator defaults to 1).  Expressions are built from
integer literals, the constants ``i`` and ``pi``, ``exp(...)``, parameter
names, the variables, and the operators ``+ - * / ^``.  Cone entries are
plain rationals like ``-1/2``.

The parser reports every error with a line, a column, and the set of tokens
it would have accepted.  Lowering to an :class:`Arrangement` enforces the
semantic rules: denominator factors must be affine in the variables with
exact rational coefficients (rational multiples of 1 and i), and no polar
hyperplane may meet the real integration locus.

Scalar powers with non-integer exponents and ``base^affine`` numerators use
the principal branch of the logarithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Union

from mpmath import mp, mpc

import mpmath

from .arrangement import (
    Arrangement,
    Hyperplane,
    MeetsRealLocus,
    NotAlignable,
    Polyhedron,
    canonicalize_hyperplane,
)
from .exact_linalg import GaussianRational
from .symfun import AffineForm, ExpRationalFunction, Polynomial

STATEMENT_KEYWORDS = ("cone", "den", "num", "param", "vars")
RESERVED_NAMES = frozenset(STATEMENT_KEYWORDS) | {"exp", "i", "pi"}

_MAX_POLY_POWER = 32
_MAX_FUNC_POWER = 16


class ProblemError(Exception):
    """A problem file is malformed; carries the source position when known."""

    def __init__(self, message: str, line: int = 0, col: int = 0, expected=()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        super().__init__(str(self))

    def __str__(self) -> str:
        where = f"line {self.line}, column {self.col}: " if self.line else ""
        tail = ""
        if self.expected:
            tail = "; expected " + ", ".join(self.expected)
        return f"{where}{self.message}{tail}"


class ParseError(ProblemError):
    """Tokenization or grammar failure."""


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_PUNCT = "(),;=+-*/^"


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    k = 0
    n = len(text)
    while k < n:
        ch = text[k]
        if ch == "\n":
            line += 1
            col = 1
            k += 1
            continue
        if ch in " \t\r":
            k += 1
            col += 1
            continue
        if ch == "#":
            while k < n and text[k] != "\n":
                k += 1
            continue
        start_col = col
        if ch.isdigit():
            j = k
            while j < n and text[j].isdigit():
                j += 1
            if j < n and (text[j] == "." or text[j].isalpha()):
                raise ParseError(
                    f"malformed number starting at '{text[k:j + 1]}'",
                    line,
                    start_col,
                    ("integer",),
                )
            toks.append(Token("int", text[k:j], line, start_col))
            col += j - k
            k = j
            continue
        if ch.isalpha() or ch == "_":
            j = k
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[k:j], line, start_col))
            col += j - k
            k = j
            continue
        if ch in _PUNCT:
            toks.append(Token(ch, ch, line, start_col))
            k += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# expression trees

# Position fields never take part in equality, so a reparsed pretty-print
# compares equal to the original tree.


@dataclass(frozen=True)
class Num:
    value: int
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Name:
    name: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: "Expr"
    rhs: "Expr"
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ExpCall:
    arg: "Expr"
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


Expr = Union[Num, Name, Neg, Bin, ExpCall]

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3
_ATOM_PREC = 5


def _prec(node: Expr) -> int:
    if isinstance(node, Bin):
        return _BIN_PREC[node.op]
    if isinstance(node, Neg):
        return _NEG_PREC
    return _ATOM_PREC


def format_expr(node: Expr) -> str:
    """Canonical text: minimal parentheses, spaces around + and - only."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Name):
        return node.name
    if isinstance(node, ExpCall):
        return f"exp({format_expr(node.arg)})"
    if isinstance(node, Neg):
        inner = format_expr(node.operand)
        if _prec(node.operand) < _NEG_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    p = _BIN_PREC[node.op]
    left = format_expr(node.lhs)
    right = format_expr(node.rhs)
    if node.op == "^":
        # right-associative and binding tighter than unary minus
        if _prec(node.lhs) <= p:
            left = f"({left})"
        if _prec(node.rhs) < p:
            right = f"({right})"
        return f"{left}^{right}"
    if _prec(node.lhs) < p:
        left = f"({left})"
    if _prec(node.rhs) <= p:
        right = f"({right})"
    if node.op in "+-":
        return f"{left} {node.op} {right}"
    return f"{left}{node.op}{right}"


def _walk(node: Expr) -> Iterator[Expr]:
    yield node
    if isinstance(node, Neg):
        yield from _walk(node.operand)
    elif isinstance(node, Bin):
        yield from _walk(node.lhs)
        yield from _walk(node.rhs)
    elif isinstance(node, ExpCall):
        yield from _walk(node.arg)


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.k = 0

    def peek(self) -> Token:
        return self.toks[self.k]

    def advance(self) -> Token:
        tok = self.toks[self.k]
        if tok.kind != "eof":
            self.k += 1
        return tok

    def expect(self, kind: str, expected: tuple[str, ...]) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {_describe(tok)}", tok.line, tok.col, expected
            )
        return self.advance()

    # expressions

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in "+-":
            op = self.advance()
            node = Bin(op.kind, node, self.term(), (op.line, op.col))
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind in "*/":
            op = self.advance()
            node = Bin(op.kind, node, self.unary(), (op.line, op.col))
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return Neg(self.unary(), (tok.line, tok.col))
        if tok.kind == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.primary()
        if self.peek().kind == "^":
            op = self.advance()
            return Bin("^", base, self.unary(), (op.line, op.col))
        return base

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Num(int(tok.text), (tok.line, tok.col))
        if tok.kind == "ident":
            self.advance()
            if tok.text == "exp":
                self.expect("(", ("'('",))
                arg = self.expr()
                self.expect(")", ("')'",))
                return ExpCall(arg, (tok.line, tok.col))
            return Name(tok.text, (tok.line, tok.col))
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", ("')'",))
            return node
        raise ParseError(
            f"unexpected {_describe(tok)}",
            tok.line,
            tok.col,
            ("integer", "name", "'('", "'-'"),
        )

    # rationals inside cone vectors

    def rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        num = self.expect("int", ("integer",))
        den = 1
        if self.peek().kind == "/":
            self.advance()
            dtok = self.expect("int", ("integer",))
            den = int(dtok.text)
            if den == 0:
                raise ParseError("zero denominator", dtok.line, dtok.col)
        return Fraction(sign * int(num.text), den)

    def vector(self) -> tuple[Fraction, ...]:
        self.expect("(", ("'('",))
        entries = [self.rational()]
        while self.peek().kind == ",":
            self.advance()
            entries.append(self.rational())
        self.expect(")", ("','", "')'"))
        return tuple(entries)


def _describe(tok: Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    return f"'{tok.text}'"


# ---------------------------------------------------------------------------
# problem specification


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed problem file: variables, cone, bindings, numerator, denominator."""

    variables: tuple[str, ...]
    cone: tuple[tuple[Fraction, ...], ...]
    parameters: tuple[tuple[str, Expr], ...]
    numerator: Expr | None
    denominator: tuple[tuple[Expr, int], ...]

    @property
    def dim(self) -> int:
        return len(self.variables)

    def pretty(self) -> str:
        lines = [
            "vars " + " ".join(self.variables) + ";",
            "cone "
            + " ".join(
                "(" + ",".join(str(x) for x in v) + ")" for v in self.cone
            )
            + ";",
        ]
        if self.parameters:
            lines.append(
                "param "
                + " ".join(f"{n}={format_expr(e)}" for n, e in self.parameters)
                + ";"
            )
        if self.numerator is not None:
            lines.append(f"num {format_expr(self.numerator)};")
        parts = []
        for expr, mult in self.denominator:
            text = f"({format_expr(expr)})"
            if mult != 1:
                text += f"^{mult}"
            parts.append(text)
        lines.append("den " + " ".join(parts) + ";")
        return "\n".join(lines) + "\n"

    def polyhedron(self) -> Polyhedron:
        return Polyhedron.from_generators(self.cone)

    def arrangement(self) -> Arrangement:
        """Lower to exact hyperplane data and a numerator function."""
        env = self._environment()
        nvars = self.dim
        hyperplanes: list[Hyperplane] = []
        mults: list[int] = []
        for expr, mult in self.denominator:
            hyperplanes.append(_lower_factor(expr, env, nvars))
            mults.append(mult)
        if self.numerator is None:
            numer = ExpRationalFunction.from_parts(nvars)
        else:
            value = _eval(self.numerator, env, nvars)
            numer = _lift(value, nvars)
        return Arrangement.build(
            nvars, hyperplanes, numerator=numer, multiplicities=mults
        )

    def _environment(self) -> dict:
        env: dict[str, object] = {
            "i": _Scalar(GaussianRational(Fraction(0), Fraction(1)), mpc(0, 1)),
            "pi": _Scalar(None, mpc(+mp.pi)),
        }
        for k, name in enumerate(self.variables):
            env[name] = _affine_unit(self.dim, k)
        for name, expr in self.parameters:
            value = _eval(expr, env, self.dim)
            if not isinstance(value, _Scalar):
                raise ProblemError(
                    f"parameter '{name}' must be a scalar value",
                    *expr.pos,
                )
            env[name] = value
        return env


def parse_problem(text: str) -> ProblemSpec:
    parser = _Parser(_tokenize(text))
    seen: dict[str, Token] = {}
    variables: tuple[str, ...] = ()
    cone: list[tuple[Fraction, ...]] = []
    parameters: list[tuple[str, Expr]] = []
    numerator: Expr | None = None
    denominator: list[tuple[Expr, int]] = []

    while parser.peek().kind != "eof":
        head = parser.expect("ident", STATEMENT_KEYWORDS)
        if head.text not in STATEMENT_KEYWORDS:
            raise ParseError(
                f"unknown statement '{head.text}'",
                head.line,
                head.col,
                STATEMENT_KEYWORDS,
            )
        if head.text in seen:
            raise ParseError(
                f"duplicate '{head.text}' statement", head.line, head.col
            )
        seen[head.text] = head

        if head.text == "vars":
            names = []
            while (
                parser.peek().kind == "ident"
                and parser.peek().text not in STATEMENT_KEYWORDS
            ):
                tok = parser.advance()
                if tok.text in RESERVED_NAMES:
                    raise ParseError(
                        f"'{tok.text}' is reserved", tok.line, tok.col
                    )
                if tok.text in names:
                    raise ParseError(
                        f"duplicate variable '{tok.text}'", tok.line, tok.col
                    )
                names.append(tok.text)
            if not names:
                tok = parser.peek()
                raise ParseError(
                    f"unexpected {_describe(tok)}",
                    tok.line,
                    tok.col,
                    ("name",),
                )
            parser.expect(";", ("name", "';'"))
            variables = tuple(names)
        elif head.text == "cone":
            while parser.peek().kind == "(":
                cone.append(parser.vector())
            if not cone:
                tok = parser.peek()
                raise ParseError(
                    f"unexpected {_describe(tok)}", tok.line, tok.col, ("'('",)
                )
            parser.expect(";", ("'('", "';'"))
        elif head.text == "param":
            while (
                parser.peek().kind == "ident"
                and parser.peek().text not in STATEMENT_KEYWORDS
            ):
                name_tok = parser.advance()
                if name_tok.text in RESERVED_NAMES:
                    raise ParseError(
                        f"'{name_tok.text}' is reserved",
                        name_tok.line,
                        name_tok.col,
                    )
                if any(n == name_tok.text for n, _ in parameters):
                    raise ParseError(
                        f"duplicate parameter '{name_tok.text}'",
                        name_tok.line,
                        name_tok.col,
                    )
                parser.expect("=", ("'='",))
                parameters.append((name_tok.text, parser.expr()))
            if not parameters:
                tok = parser.peek()
                raise ParseError(
                    f"unexpected {_describe(tok)}", tok.line, tok.col, ("name",)
                )
            parser.expect(";", ("name", "';'"))
        elif head.text == "num":
            numerator = parser.expr()
            parser.expect(";", ("';'",))
        else:
            while parser.peek().kind == "(":
                parser.advance()
                expr = parser.expr()
                parser.expect(")", ("')'",))
                mult = 1
                if parser.peek().kind == "^":
                    parser.advance()
                    mtok = parser.expect("int", ("integer",))
                    mult = int(mtok.text)
                    if mult < 1:
                        raise ParseError(
                            "multiplicity must be positive", mtok.line, mtok.col
                        )
                denominator.append((expr, mult))
            if not denominator:
                tok = parser.peek()
                raise ParseError(
                    f"unexpected {_describe(tok)}", tok.line, tok.col, ("'('",)
                )
            parser.expect(";", ("'('", "';'"))

    for statement in ("vars", "cone", "den"):
        if statement not in seen:
            tok = parser.peek()
            raise ParseError(
                f"missing '{statement}' statement", tok.line, tok.col
            )

    spec = ProblemSpec(
        variables=variables,
        cone=tuple(cone),
        parameters=tuple(parameters),
        numerator=numerator,
        denominator=tuple(denominator),
    )
    _validate(spec, seen)
    return spec


def load_problem(path: str) -> ProblemSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _validate(spec: ProblemSpec, seen: dict[str, Token]) -> None:
    r = spec.dim
    cone_tok = seen["cone"]
    if len(spec.cone) != r:
        raise ProblemError(
            f"cone needs {r} generators (one per variable), got {len(spec.cone)}",
            cone_tok.line,
            cone_tok.col,
        )
    if any(len(v) != r for v in spec.cone):
        raise ProblemError(
            f"every cone generator needs {r} entries", cone_tok.line, cone_tok.col
        )
    try:
        Polyhedron.from_generators(spec.cone)
    except ValueError as exc:
        raise ProblemError(str(exc), cone_tok.line, cone_tok.col) from exc

    # static name resolution
    param_names = [n for n, _ in spec.parameters]
    for pos_in_list, (name, expr) in enumerate(spec.parameters):
        allowed = {"i", "pi"} | set(param_names[:pos_in_list])
        for node in _walk(expr):
            if isinstance(node, Name) and node.name not in allowed:
                if node.name in spec.variables:
                    raise ProblemError(
                        f"parameter '{name}' cannot reference "
                        f"integration variable '{node.name}'",
                        *node.pos,
                    )
                raise ProblemError(
                    f"unbound parameter '{node.name}'", *node.pos
                )
    allowed = {"i", "pi"} | set(param_names) | set(spec.variables)
    exprs = [e for e, _ in spec.denominator]
    if spec.numerator is not None:
        exprs.append(spec.numerator)
    for expr in exprs:
        for node in _walk(expr):
            if isinstance(node, Name) and node.name not in allowed:
                raise ProblemError(
                    f"unbound parameter '{node.name}'", *node.pos
                )


# ---------------------------------------------------------------------------
# expression values
#
# Scalars keep an exact Gaussian-rational shadow next to the working-precision
# approximation; the exact side survives +, -, *, / and integer powers and is
# what denominator lowering requires.  pi and exp() produce inexact scalars.


@dataclass(frozen=True)
class _Scalar:
    exact: GaussianRational | None
    approx: mpc


@dataclass(frozen=True)
class _Affine:
    coeffs: tuple[_Scalar, ...]
    const: _Scalar


def _scalar_int(n: int) -> _Scalar:
    return _Scalar(GaussianRational.of(n), mpc(n))


def _affine_unit(nvars: int, k: int) -> _Affine:
    coeffs = tuple(
        _scalar_int(1 if j == k else 0) for j in range(nvars)
    )
    return _Affine(coeffs, _scalar_int(0))


def _s_add(a: _Scalar, b: _Scalar) -> _Scalar:
    exact = None
    if a.exact is not None and b.exact is not None:
        exact = a.exact + b.exact
    return _Scalar(exact, a.approx + b.approx)


def _s_mul(a: _Scalar, b: _Scalar) -> _Scalar:
    exact = None
    if a.exact is not None and b.exact is not None:
        exact = a.exact * b.exact
    return _Scalar(exact, a.approx * b.approx)


def _s_neg(a: _Scalar) -> _Scalar:
    exact = None if a.exact is None else -a.exact
    return _Scalar(exact, -a.approx)


def _s_is_zero(a: _Scalar) -> bool:
    if a.exact is not None:
        return a.exact.is_zero
    return a.approx == 0


def _s_div(a: _Scalar, b: _Scalar) -> _Scalar:
    exact = None
    if a.exact is not None and b.exact is not None:
        exact = a.exact / b.exact
    return _Scalar(exact, a.approx / b.approx)


def _form(aff: _Affine) -> AffineForm:
    return AffineForm.make(
        [c.approx for c in aff.coeffs], aff.const.approx
    )


def _lift(value, nvars: int) -> ExpRationalFunction:
    if isinstance(value, _Scalar):
        return ExpRationalFunction.from_parts(nvars, coeff=value.approx)
    if isinstance(value, _Affine):
        return ExpRationalFunction.from_parts(
            nvars, poly=Polynomial.from_affine(_form(value))
        )
    return value


def _as_int(s: _Scalar) -> int | None:
    if s.exact is None:
        return None
    if s.exact.im != 0 or s.exact.re.denominator != 1:
        return None
    return int(s.exact.re)


def _eval(node: Expr, env: dict, nvars: int):
    if isinstance(node, Num):
        return _scalar_int(node.value)
    if isinstance(node, Name):
        try:
            return env[node.name]
        except KeyError:
            raise ProblemError(
                f"unbound parameter '{node.name}'", *node.pos
            ) from None
    if isinstance(node, Neg):
        return _v_neg(_eval(node.operand, env, nvars), nvars)
    if isinstance(node, ExpCall):
        return _v_exp(_eval(node.arg, env, nvars), nvars, node.pos)
    a = _eval(node.lhs, env, nvars)
    b = _eval(node.rhs, env, nvars)
    if node.op == "+":
        return _v_add(a, b, nvars)
    if node.op == "-":
        return _v_add(a, _v_neg(b, nvars), nvars)
    if node.op == "*":
        return _v_mul(a, b, nvars)
    if node.op == "/":
        return _v_div(a, b, nvars, node.pos)
    return _v_pow(a, b, nvars, node.pos)


def _v_neg(v, nvars: int):
    if isinstance(v, _Scalar):
        return _s_neg(v)
    if isinstance(v, _Affine):
        return _Affine(tuple(_s_neg(c) for c in v.coeffs), _s_neg(v.const))
    return v.neg()


def _v_add(a, b, nvars: int):
    if isinstance(a, _Scalar) and isinstance(b, _Scalar):
        return _s_add(a, b)
    if isinstance(a, _Scalar) and isinstance(b, _Affine):
        a, b = b, a
    if isinstance(a, _Affine) and isinstance(b, _Scalar):
        return _Affine(a.coeffs, _s_add(a.const, b))
    if isinstance(a, _Affine) and isinstance(b, _Affine):
        coeffs = tuple(_s_add(x, y) for x, y in zip(a.coeffs, b.coeffs))
        return _Affine(coeffs, _s_add(a.const, b.const))
    return _lift(a, nvars).add(_lift(b, nvars))


def _v_mul(a, b, nvars: int):
    if isinstance(a, _Scalar) and isinstance(b, _Scalar):
        return _s_mul(a, b)
    if isinstance(a, _Affine) and isinstance(b, _Scalar):
        a, b = b, a
    if isinstance(a, _Scalar) and isinstance(b, _Affine):
        coeffs = tuple(_s_mul(a, c) for c in b.coeffs)
        return _Affine(coeffs, _s_mul(a, b.const))
    if isinstance(a, _Scalar):
        return b.scale(a.approx)
    if isinstance(b, _Scalar):
        return a.scale(b.approx)
    return _lift(a, nvars).mul(_lift(b, nvars))


def _v_div(a, b, nvars: int, pos):
    if not isinstance(b, _Scalar):
        raise ProblemError(
            "division is only defined by scalar values "
            "(denominator factors belong in the den statement)",
            *pos,
        )
    if _s_is_zero(b):
        raise ProblemError("division by zero", *pos)
    if isinstance(a, _Scalar):
        return _s_div(a, b)
    if isinstance(a, _Affine):
        coeffs = tuple(_s_div(c, b) for c in a.coeffs)
        return _Affine(coeffs, _s_div(a.const, b))
    return a.scale(1 / b.approx)


def _v_exp(v, nvars: int, pos):
    if isinstance(v, _Scalar):
        return _Scalar(None, mpc(mpmath.exp(v.approx)))
    if isinstance(v, _Affine):
        return ExpRationalFunction.from_parts(nvars, expo=_form(v))
    raise ProblemError(
        "the argument of exp must be affine in the variables", *pos
    )


def _scalar_int_pow(base: _Scalar, n: int, pos) -> _Scalar:
    if n == 0:
        return _scalar_int(1)
    if _s_is_zero(base) and n < 0:
        raise ProblemError("zero raised to a negative power", *pos)
    exact = None
    if base.exact is not None:
        acc = GaussianRational.of(1)
        for _ in range(abs(n)):
            acc = acc * base.exact
        exact = acc if n > 0 else GaussianRational.of(1) / acc
    return _Scalar(exact, base.approx**n)


def _v_pow(a, b, nvars: int, pos):
    if isinstance(b, _Scalar):
        n = _as_int(b)
        if n is not None:
            if isinstance(a, _Scalar):
                return _scalar_int_pow(a, n, pos)
            if n < 0:
                raise ProblemError(
                    "negative power of a non-scalar expression", *pos
                )
            if n == 0:
                return _scalar_int(1)
            if isinstance(a, _Affine):
                if n == 1:
                    return a
                if n > _MAX_POLY_POWER:
                    raise ProblemError(f"power exceeds {_MAX_POLY_POWER}", *pos)
                p = Polynomial.from_affine(_form(a))
                acc = p
                for _ in range(n - 1):
                    acc = acc.mul(p)
                return ExpRationalFunction.from_parts(nvars, poly=acc)
            if n > _MAX_FUNC_POWER:
                raise ProblemError(f"power exceeds {_MAX_FUNC_POWER}", *pos)
            acc = a
            for _ in range(n - 1):
                acc = acc.mul(a)
            return acc
        if isinstance(a, _Scalar):
            if _s_is_zero(a):
                raise ProblemError("zero base with non-integer power", *pos)
            return _Scalar(None, mpc(a.approx**b.approx))
        raise ProblemError(
            "non-integer powers need a scalar base", *pos
        )
    if isinstance(b, _Affine):
        if not isinstance(a, _Scalar):
            raise ProblemError(
                "an affine exponent needs a scalar base", *pos
            )
        if _s_is_zero(a):
            raise ProblemError("zero base with an affine exponent", *pos)
        log_base = mpc(mpmath.log(a.approx))
        return ExpRationalFunction.from_parts(
            nvars, expo=_form(b).scale(log_base)
        )
    raise ProblemError("unsupported exponent expression", *pos)


def _lower_factor(expr: Expr, env: dict, nvars: int) -> Hyperplane:
    value = _eval(expr, env, nvars)
    if isinstance(value, _Scalar):
        raise ProblemError(
            "denominator factor is constant in the variables", *expr.pos
        )
    if not isinstance(value, _Affine):
        raise ProblemError(
            "denominator factor is not affine in the variables", *expr.pos
        )
    if all(_s_is_zero(c) for c in value.coeffs):
        raise ProblemError(
            "denominator factor is constant in the variables", *expr.pos
        )
    coeffs = []
    for c in value.coeffs:
        if c.exact is None:
            raise ProblemError(
                "denominator coefficients must be exact rationals "
                "(rational multiples of 1 and i; pi and exp are not allowed)",
                *expr.pos,
            )
        coeffs.append(c.exact)
    const = value.const.exact
    if const is None:
        const = value.const.approx
    try:
        return canonicalize_hyperplane(coeffs, const)
    except (NotAlignable, MeetsRealLocus, ValueError) as exc:
        raise ProblemError(str(exc), *expr.pos) from exc
