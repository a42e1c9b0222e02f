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

Every value is exact.  ``pi``, ``exp`` of a scalar, a scalar power with a
non-integer exponent and the logarithm of a ``base^affine`` base are each
rounded once, at working precision, where they occur, and taken at the
exact binary value of that rounding (``symfun.to_exact``); the arithmetic
after that is in Q(i).  A den factor whose variable coefficients involve
one of them is refused all the same, decided on the expression tree
(``_rounded_parts``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from mpmath import mp

import mpmath

from .arrangement import (
    Arrangement,
    Hyperplane,
    MeetsRealLocus,
    NotAlignable,
    Polyhedron,
    _canonical,
)
from .exact_linalg import GaussianRational, _ratio
from .symfun import (
    MAX_EXACT_BITS,
    AffineForm,
    ExpRationalFunction,
    Polynomial,
    UnrepresentableScalar,
    _form,
    to_exact,
    to_mpc,
)

STATEMENT_KEYWORDS = ("cone", "den", "num", "param", "vars")
RESERVED_NAMES = frozenset(STATEMENT_KEYWORDS) | {"exp", "i", "pi"}

# levels of parentheses (exp's too), unary signs and ^ that one expression
# may nest; each level costs the recursive-descent parser a few stack frames
MAX_NESTING = 100
_MAX_POLY_POWER = 32
_MAX_FUNC_POWER = 16
# an exact power is refused when |n| times the largest bit length of the
# base's numerators and denominators exceeds this, and a rounded value when
# its binary exponent does
_MAX_EXACT_POWER_BITS = MAX_EXACT_BITS


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


class Token(NamedTuple):
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
        if ch.isdecimal():
            j = k
            while j < n and text[j].isdecimal():
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
            while j < n and (
                text[j].isalpha() or text[j].isdecimal() or text[j] == "_"
            ):
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


class _Hash(int):
    __hash__ = int.__int__  # a child's hash in its parent's key, hashing as the child


class _Node:
    """An expression node: immutable, and equal to a node of its own kind
    whose fields other than ``pos`` are equal.  ``pos`` (line, column) only
    places error messages, so a reparsed pretty-print compares equal to the
    original tree.  A subclass lists its other fields in ``__slots__``; a
    node is built from them in that order, then ``pos``, (0, 0) if left out."""

    __slots__ = ("pos",)

    def __init_subclass__(cls):
        cls._set = getattr(cls, cls.__slots__[0]).__set__  # the first field's

    def __init__(self, value, pos=(0, 0)):  # a kind of one field; Bin has its own
        self._set(self, value)
        _pos(self, pos)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _preorder(self) -> list:
        """The tree in preorder (``_walk``), each node as its kind, its fields
        with None for a child, and ``pos``: flat, so that comparing and
        pickling a deep tree does not recurse."""
        return [
            (type(n), *[None if isinstance(x, _Node) else x for x in n._key()], n.pos)
            for n in _walk(self)
        ]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # equal exactly when the trees are, as each kind's arity is fixed
        return [n[:-1] for n in self._preorder()] == [n[:-1] for n in other._preorder()]

    def __hash__(self) -> int:
        """hash(self._key()), children first (``_walk`` reversed), as ``_Hash``es."""
        hashes: dict = {}
        for n in reversed(list(_walk(self))):
            key = [hashes[id(x)] if isinstance(x, _Node) else x for x in n._key()]
            hashes[id(n)] = _Hash(hash(tuple(key)))
        return int(hashes[id(self)])

    def __repr__(self) -> str:
        """Written from an explicit stack of texts and nodes, not by recursion."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if not isinstance(node, _Node):
                out.append(node)
                continue
            items = [f"{type(node).__name__}("]
            for n, name in enumerate((*node.__slots__, "pos")):
                x = getattr(node, name)
                items += [", " * (n > 0) + name + "=", x if isinstance(x, _Node) else repr(x)]
            stack += reversed([*items, ")"])
        return "".join(out)

    def __reduce__(self):
        return _rebuild, (self._preorder(),)


class Num(_Node):
    __slots__ = ("value",)


class Name(_Node):
    __slots__ = ("name",)


class Neg(_Node):
    __slots__ = ("operand",)


class Bin(_Node):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op, lhs, rhs, pos=(0, 0)):
        _Node.__init__(self, op, pos)
        _lhs(self, lhs)
        _rhs(self, rhs)


class ExpCall(_Node):
    __slots__ = ("arg",)


_pos, _lhs, _rhs = _Node.pos.__set__, Bin.lhs.__set__, Bin.rhs.__set__  # slot setters

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


def _chain(node: Bin) -> tuple[Expr, list[Bin]]:
    """The first operand of ``node`` and the operators applied to it in turn,
    innermost first: a left-deep chain of ``+ - * /`` nodes, or one ``^``.
    Looping over a chain keeps the recursion of ``format_expr`` and ``_eval``
    to the nesting depth, which the parser caps, however long a sum is."""
    spine = [node]
    while node.op != "^" and isinstance(node.lhs, Bin) and node.lhs.op != "^":
        node = node.lhs
        spine.append(node)
    spine.reverse()
    return node.lhs, spine


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
    inner, spine = _chain(node)
    text = format_expr(inner)
    for node in spine:
        p = _BIN_PREC[node.op]
        # ^ groups to the right (and binds tighter than unary minus), the
        # others to the left
        left_max, right_max = (p, p - 1) if node.op == "^" else (p - 1, p)
        if _prec(inner) <= left_max:
            text = f"({text})"
        right = format_expr(node.rhs)
        if _prec(node.rhs) <= right_max:
            right = f"({right})"
        op = f" {node.op} " if node.op in "+-" else node.op
        text = f"{text}{op}{right}"
        inner = node
    return text


def _walk(node: Expr) -> Iterator[Expr]:
    """Every node of the tree, in preorder."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, Bin):
            stack.append(node.rhs)
            stack.append(node.lhs)
        elif isinstance(node, ExpCall):
            stack.append(node.arg)


def _rebuild(preorder: list) -> Expr:
    """The tree of a ``_Node._preorder``, built children first on an explicit
    stack, where a node's first child is on top."""
    stack: list = []
    for kind, *fields, pos in reversed(preorder):
        stack.append(kind(*[stack.pop() if x is None else x for x in fields], pos))
    return stack.pop()


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.k = 0
        self.depth = 0  # the levels of nesting around the current token

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

    def nest(self, tok: Token) -> None:
        """Enter one more level of nesting at ``tok``; leave with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels", tok.line, tok.col
            )

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
        if tok.kind not in "+-":
            return self.power()
        self.advance()
        self.nest(tok)
        operand = self.unary()
        self.depth -= 1
        return Neg(operand, (tok.line, tok.col)) if tok.kind == "-" else operand

    def power(self) -> Expr:
        base = self.primary()
        if self.peek().kind == "^":
            op = self.advance()
            self.nest(op)
            exponent = self.unary()
            self.depth -= 1
            return Bin("^", base, exponent, (op.line, op.col))
        return base

    def group(self) -> Expr:
        """``(`` expr ``)``, one level deeper."""
        self.nest(self.expect("(", ("'('",)))
        node = self.expr()
        self.expect(")", ("')'",))
        self.depth -= 1
        return node

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Num(int(tok.text), (tok.line, tok.col))
        if tok.kind == "ident":
            self.advance()
            if tok.text == "exp":
                return ExpCall(self.group(), (tok.line, tok.col))
            return Name(tok.text, (tok.line, tok.col))
        if tok.kind == "(":
            return self.group()
        raise ParseError(
            f"unexpected {_describe(tok)}",
            tok.line,
            tok.col,
            ("integer", "name", "'('", "'-'"),
        )

    # rationals inside cone vectors

    def rational(self) -> int | Fraction:
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
        return _ratio(sign * int(num.text), den)

    def vector(self) -> tuple[int | Fraction, ...]:
        self.expect("(", ("'('",))
        entries = [self.rational()]
        while self.peek().kind == ",":
            self.advance()
            entries.append(self.rational())
        self.expect(")", ("','", "')'"))
        return tuple(entries)

    # list statements

    def items(self, kind: str, label: str, item) -> list:
        """keyword, item, {item}, ";": the rule of vars, param, cone and den.

        An item starts at a token of ``kind`` that is not a statement
        keyword; ``item`` parses one, given the items before it.
        """
        out: list = []
        while (
            self.peek().kind == kind and self.peek().text not in STATEMENT_KEYWORDS
        ):
            out.append(item(out))
        if not out:
            tok = self.peek()
            raise ParseError(
                f"unexpected {_describe(tok)}", tok.line, tok.col, (label,)
            )
        self.expect(";", (label, "';'"))
        return out

    def fresh_name(self, taken, what: str) -> str:
        tok = self.advance()
        if tok.text in RESERVED_NAMES:
            raise ParseError(f"'{tok.text}' is reserved", tok.line, tok.col)
        if tok.text in taken:
            raise ParseError(
                f"duplicate {what} '{tok.text}'", tok.line, tok.col
            )
        return tok.text

    def binding(self, before: list) -> tuple[str, Expr]:
        name = self.fresh_name([n for n, _ in before], "parameter")
        self.expect("=", ("'='",))
        return name, self.expr()

    def factor(self) -> tuple[Expr, int]:
        self.advance()
        expr = self.expr()
        self.expect(")", ("')'",))
        mult = 1
        if self.peek().kind == "^":
            self.advance()
            mtok = self.expect("int", ("integer",))
            mult = int(mtok.text)
            if mult < 1:
                raise ParseError(
                    "multiplicity must be positive", mtok.line, mtok.col
                )
        return expr, mult


def _describe(tok: Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    return f"'{tok.text}'"


# ---------------------------------------------------------------------------
# problem specification


class ProblemSpec(NamedTuple):
    """Parsed problem file: variables, cone, bindings, numerator, denominator."""

    variables: tuple[str, ...]
    cone: tuple[tuple[int | Fraction, ...], ...]
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
        """Lower to exact hyperplane data and a numerator function.  A factor
        written c (f(v) - i s), with (f, s) its canonical hyperplane, to the
        power m leaves c^-m in the numerator."""
        env = self._environment()
        nvars = self.dim
        hyperplanes: list[Hyperplane] = []
        mults: list[int] = []
        scale = _ONE
        # the parameters built from pi, exp(...) or a non-integer power
        rounded: set[str] = set()
        for name, expr in self.parameters:
            if _rounded_leaves(expr, rounded) and _rounded_parts(expr, env, nvars, rounded)[1]:
                rounded.add(name)
        for expr, mult in self.denominator:
            h, c = _lower_factor(expr, env, nvars, rounded)
            hyperplanes.append(h)
            mults.append(mult)
            if c != _ONE:
                scale /= c**mult
        if self.numerator is None:
            numer = ExpRationalFunction.from_parts(nvars)
        else:
            value = _eval(self.numerator, env, nvars)
            numer = _lift(value, nvars)
        if scale != _ONE:
            numer = numer.scale(scale)
        return Arrangement.build(
            nvars, hyperplanes, numerator=numer, multiplicities=mults
        )

    def _environment(self) -> dict:
        env: dict[str, object] = {"i": GaussianRational(0, 1)}
        for k, name in enumerate(self.variables):
            # z_k, with GaussianRational coefficients
            env[name] = _form([(int(j == k), 0) for j in range(self.dim)] + [(0, 0)], 1, True)
        for name, expr in self.parameters:
            value = _eval(expr, env, self.dim)
            if not _is_scalar(value):
                raise ProblemError(
                    f"parameter '{name}' must be a scalar value",
                    *expr.pos,
                )
            env[name] = value
        return env


def parse_problem(text: str) -> ProblemSpec:
    parser = _Parser(_tokenize(text))
    seen: dict[str, Token] = {}
    variables: list[str] = []
    cone: list[tuple[int | Fraction, ...]] = []
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
            variables = parser.items(
                "ident", "name", lambda names: parser.fresh_name(names, "variable")
            )
        elif head.text == "cone":
            cone = parser.items("(", "'('", lambda _: parser.vector())
        elif head.text == "param":
            parameters = parser.items("ident", "name", parser.binding)
        elif head.text == "num":
            numerator = parser.expr()
            parser.expect(";", ("';'",))
        else:
            denominator = parser.items("(", "'('", lambda _: parser.factor())

    for statement in ("vars", "cone", "den"):
        if statement not in seen:
            tok = parser.peek()
            raise ParseError(
                f"missing '{statement}' statement", tok.line, tok.col
            )

    spec = ProblemSpec(
        variables=tuple(variables),
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
# A value is a scalar (a GaussianRational), an AffineForm in the variables,
# or an ExpRationalFunction, all exact.  pi, exp of a scalar, a non-integer
# power and the logarithm of a base^affine base enter as the binary value
# of their rounding at working precision (``_binary``); pi is rounded only
# where the name occurs.

_ONE = GaussianRational.of(1)


def _is_scalar(v) -> bool:
    return v.__class__ is GaussianRational


def _binary(x, pos) -> GaussianRational:
    """A rounded value at its exact binary value (``to_exact``); a value
    that is not finite or whose exponent is past the cap is a ProblemError."""
    try:
        return to_exact(x)
    except UnrepresentableScalar as exc:
        raise ProblemError(str(exc), *pos) from None


def _lift(value, nvars: int) -> ExpRationalFunction:
    if _is_scalar(value):
        return ExpRationalFunction.from_parts(nvars, coeff=value)
    if isinstance(value, AffineForm):
        return ExpRationalFunction.from_parts(nvars, poly=Polynomial.from_affine(value))
    return value


def _as_int(s) -> int | None:
    if isinstance(s, GaussianRational) and not s._b and s._d == 1:
        return s._a
    return None


def _eval(node: Expr, env: dict, nvars: int):
    if isinstance(node, Num):
        return GaussianRational.of(node.value)
    if isinstance(node, Name):
        if node.name == "pi":
            return _binary(+mp.pi, node.pos)
        try:
            return env[node.name]
        except KeyError:
            raise ProblemError(
                f"unbound parameter '{node.name}'", *node.pos
            ) from None
    if isinstance(node, Neg):
        return _v_neg(_eval(node.operand, env, nvars))
    if isinstance(node, ExpCall):
        return _v_exp(_eval(node.arg, env, nvars), nvars, node.pos)
    inner, spine = _chain(node)
    a = _eval(inner, env, nvars)
    for node in spine:
        b = _eval(node.rhs, env, nvars)
        if node.op == "+":
            a = _v_add(a, b, nvars)
        elif node.op == "-":
            a = _v_add(a, _v_neg(b), nvars)
        elif node.op == "*":
            a = _v_mul(a, b, nvars)
        elif node.op == "/":
            a = _v_div(a, b, node.pos)
        else:
            a = _v_pow(a, b, nvars, node.pos)
    return a


def _v_neg(v):
    return -v if _is_scalar(v) else v.scale(-1)


def _v_add(a, b, nvars: int):
    if _is_scalar(a) and _is_scalar(b):
        return a + b
    if _is_scalar(a) and isinstance(b, AffineForm):
        a, b = b, a
    if isinstance(a, AffineForm) and _is_scalar(b):
        return a.shift(b)
    if isinstance(a, AffineForm) and isinstance(b, AffineForm):
        return a.add(b)
    return _lift(a, nvars).add(_lift(b, nvars))


def _v_mul(a, b, nvars: int):
    if _is_scalar(a) and _is_scalar(b):
        return a * b
    if _is_scalar(b):
        a, b = b, a
    if _is_scalar(a):
        return b.scale(a)
    return _lift(a, nvars).mul(_lift(b, nvars))


def _v_div(a, b, pos):
    if not _is_scalar(b):
        raise ProblemError(
            "division is only defined by scalar values "
            "(denominator factors belong in the den statement)",
            *pos,
        )
    if not b:
        raise ProblemError("division by zero", *pos)
    if isinstance(a, AffineForm):
        return AffineForm(tuple(c / b for c in a.coeffs), a.const / b)
    return a / b if _is_scalar(a) else a.scale(_ONE / b)


def _v_exp(v, nvars: int, pos):
    if _is_scalar(v):
        return _binary(mpmath.exp(to_mpc(v)), pos)
    if isinstance(v, AffineForm):
        return ExpRationalFunction.from_parts(nvars, expo=v)
    raise ProblemError(
        "the argument of exp must be affine in the variables", *pos
    )


def _v_pow(a, b, nvars: int, pos):
    if _is_scalar(b):
        n = _as_int(b)
        if n is not None:
            if n == 0:
                return _ONE
            if _is_scalar(a):
                if n < 0 and not a:
                    raise ProblemError("zero raised to a negative power", *pos)
                part = max(max(abs(x.numerator), x.denominator) for x in (a.re, a.im))
                if abs(n) * part.bit_length() > _MAX_EXACT_POWER_BITS:
                    raise ProblemError(f"exact power exceeds {_MAX_EXACT_POWER_BITS} bits", *pos)
                return a**n
            if n < 0:
                raise ProblemError(
                    "negative power of a non-scalar expression", *pos
                )
            if isinstance(a, AffineForm):
                if n == 1:
                    return a
                if n > _MAX_POLY_POWER:
                    raise ProblemError(f"power exceeds {_MAX_POLY_POWER}", *pos)
                p = Polynomial.from_affine(a)
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
        if _is_scalar(a):
            if not a:
                raise ProblemError("zero base with non-integer power", *pos)
            return _binary(to_mpc(a) ** to_mpc(b), pos)
        raise ProblemError(
            "non-integer powers need a scalar base", *pos
        )
    if isinstance(b, AffineForm):
        if not _is_scalar(a):
            raise ProblemError(
                "an affine exponent needs a scalar base", *pos
            )
        if not a:
            raise ProblemError("zero base with an affine exponent", *pos)
        expo = b.scale(_binary(mpmath.log(to_mpc(a)), pos))
        return ExpRationalFunction.from_parts(nvars, expo=expo)
    raise ProblemError("unsupported exponent expression", *pos)


def _lower_factor(expr: Expr, env: dict, nvars: int, rounded: set) -> tuple:
    """The canonical hyperplane (f, s) of a factor written c (f(v) - i s), and
    c, from its form's Gaussian-integer pairs (``arrangement._canonical``).
    ``rounded`` names the parameters built from rounded values."""
    value = _eval(expr, env, nvars)
    if isinstance(value, ExpRationalFunction):
        raise ProblemError("denominator factor is not affine in the variables", *expr.pos)
    if _is_scalar(value) or not any(map(any, value._v[:-1])):
        raise ProblemError("denominator factor is constant in the variables", *expr.pos)
    if _rounded_leaves(expr, rounded) and _rounded_parts(expr, env, nvars, rounded)[0]:
        raise ProblemError(
            "denominator coefficients must be exact rationals "
            "(rational multiples of 1 and i; pi and exp are not allowed)",
            *expr.pos,
        )
    try:
        return _canonical(value._v, value._den)
    except (NotAlignable, MeetsRealLocus, ValueError) as exc:
        raise ProblemError(str(exc), *expr.pos) from exc


def _rounded_leaves(expr: Expr, rounded: set) -> bool:
    """Whether ``expr`` mentions pi, exp(...), a power or a parameter of
    ``rounded``: the leaves whose values may be rounded.  Every den factor
    is scanned, so the scan keeps its own stack (``_walk`` is a generator)
    and stops at the first such leaf."""
    stack = [expr]
    while stack:
        n = stack.pop()
        kind = n.__class__
        if kind is Bin:
            if n.op == "^":
                return True
            stack += (n.lhs, n.rhs)
        elif kind is Name:
            if n.name == "pi" or n.name in rounded:
                return True
        elif kind is Neg:
            stack.append(n.operand)
        elif kind is ExpCall:
            return True
    return False


def _rounded_parts(expr: Expr, env: dict, nvars: int, rounded: set) -> tuple[bool, bool]:
    """(mixes, holds): whether a ``*`` or ``/`` of ``expr`` joins a side that
    holds a variable with a side that holds a rounded value, which gives a
    variable a rounded coefficient, and whether ``expr`` holds a rounded
    value: pi, exp(...), a power whose exponent is not an integer, or a
    parameter of ``rounded``.  Decided children first, on an explicit stack
    (``_walk`` reversed)."""
    holds: dict = {}  # id of a node -> (holds a variable, holds a rounded value)
    for n in reversed(list(_walk(expr))):
        if isinstance(n, Name):
            variable = env.get(n.name).__class__ is AffineForm
            holds[id(n)] = (variable, n.name == "pi" or n.name in rounded)
        elif isinstance(n, Num):
            holds[id(n)] = (False, False)
        elif isinstance(n, Neg):
            holds[id(n)] = holds[id(n.operand)]
        elif isinstance(n, ExpCall):
            holds[id(n)] = (holds[id(n.arg)][0], True)
        else:
            (var_a, rounded_a), (var_b, rounded_b) = holds[id(n.lhs)], holds[id(n.rhs)]
            if n.op in "*/" and (var_a and rounded_b or rounded_a and var_b):
                return True, True
            fractional = n.op == "^" and _as_int(_eval(n.rhs, env, nvars)) is None
            holds[id(n)] = (var_a or var_b, rounded_a or rounded_b or fractional)
    return False, holds[id(expr)][1]
