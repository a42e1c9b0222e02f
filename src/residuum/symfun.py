"""Symbolic rational-exponential functions in several complex variables.

The working class of integrands is finite sums of terms

    c * P(z) * exp(L(z)) / prod_i A_i(z)^{m_i}

with P a polynomial, L and each A_i affine.  The class is closed under the
three operations the residue engine needs: partial differentiation, affine
substitution, and taking the coefficient of (z_v - pole)^{-1} in one variable.

Every scalar is exact: an int, Fraction or GaussianRational.  A float,
complex or mpmath number is taken at its exact binary value (``to_exact``)
where data enter: ``AffineForm.make``, ``Polynomial``, ``Term.make`` and
``ExpRationalFunction.from_parts``.  So a constant that holds pi or exp() is
rounded once, at working precision, where a problem file is lowered, and
every operation after that stays in Q(i).  An affine form holds its entries
on Python ints (``AffineForm``).  A value is rounded again only where it is
evaluated or printed.

A residue at a pole of order n + 1 is read off truncated Taylor series in
t = z_v - pole rather than by differentiating n times: the t^n coefficient of
the product of the series of P, of exp(L) and of the non-vanishing factors.
Factors proportional at the pole form one denominator class, and a class's
factors fold into one series, prod_i (B_i + a_i t)^{-m_i} from its power
sums, so a step emits one term per choice of the classes' exponents, a
number polynomial in n.  Like terms (same exponent and the same denominator)
are merged, and a step that would produce more than MAX_RESIDUE_TERMS terms
raises TermBudgetExceeded.
A step sets z_v to the pole directly (``restrict``), without unit forms, and
computes each fact about a form once, in a memo that nothing outlives.

A step works in integers: a class's series comes from Newton's
recurrence on Gaussian-integer power sums over one common denominator, and
each emitted coefficient is carried along its path as an integer pair over
an integer and brought to normal form once.  A term whose polynomial is a
constant carries it in its coefficient, so it needs no Taylor chain, and
its terms share one unit polynomial per step.

Vanishing and proportionality of forms are decided by ``==`` and dict keys,
with no noise scale.  Evaluation substitutes the point, its coordinates at
their binary values, exactly (``compose``), so a point is on a pole only
when a factor vanishes there exactly.  Every value of no variables is
rounded once, at the ambient mpmath precision (``working_precision``), by
``rounded_sum``.
"""

from __future__ import annotations

import itertools
import math
import operator
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from mpmath import exp as mp_exp
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_float, from_rational, fzero

from .exact_linalg import GaussianRational, _gaussian, _normal

DEFAULT_PRECISION = 128

# the largest binary exponent, in magnitude, of a value taken exactly
MAX_EXACT_BITS = 1 << 20


class IdenticallyZeroDenominator(ValueError):
    """A denominator factor is the zero affine form."""


class PoleHit(ArithmeticError):
    """Evaluation was requested at a point exactly on a pole."""


class UnrepresentableScalar(ValueError):
    """A scalar is not finite, or its binary exponent exceeds MAX_EXACT_BITS."""


# Most terms one residue step may produce, counted before like terms merge:
# one per choice of the exponents of the step's denominator classes.
MAX_RESIDUE_TERMS = 200_000


class TermBudgetExceeded(Exception):
    """A residue step would produce more than MAX_RESIDUE_TERMS terms."""


@contextmanager
def working_precision(bits: int):
    with mp.workprec(bits):
        yield


_EXACT = frozenset((int, Fraction, GaussianRational))


def to_exact(x):
    """``x`` as an exact scalar: an int, Fraction or GaussianRational as it
    is, and a float, complex, mpf or mpc as the GaussianRational of its
    binary value, (-1)^sign mantissa 2^exponent per part, on integers.

    Raises UnrepresentableScalar when a part is not finite or its binary
    exponent exceeds MAX_EXACT_BITS in magnitude."""
    if x.__class__ in _EXACT or isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, (float, complex)):
        parts = (from_float(x.real), from_float(x.imag))
    elif isinstance(x, mpc):
        parts = x._mpc_
    elif isinstance(x, mpf):
        parts = (x._mpf_, fzero)
    else:
        raise TypeError(f"not a scalar: {x!r}")
    low = 0
    for part in parts:
        _, man, exp, bits = part
        if not man:
            if part != fzero:
                raise UnrepresentableScalar(f"scalar {x} is not finite")
            continue
        if max(exp + bits, -exp) > MAX_EXACT_BITS:
            raise UnrepresentableScalar(f"exact binary value exceeds {MAX_EXACT_BITS} bits")
        low = min(low, exp)
    a, b = [int(-man if sign else man) << (exp - low) if man else 0 for sign, man, exp, _ in parts]
    # mpmath keeps mantissas odd, so with low < 0 one of a and b is odd
    return _normal(a, b, 1 << -low)


def to_mpc(x) -> mpc:
    """Coerce exact and floating scalars to mpc at the ambient precision."""
    if isinstance(x, mpc):
        return x
    if isinstance(x, Fraction):
        return mp.make_mpc((from_rational(x.numerator, x.denominator, mp.prec, "n"), fzero))
    if isinstance(x, GaussianRational):
        return x._mpmath_(mp.prec, "n")
    return mpc(x)


class AffineForm:
    """a . z + c with its entries (coefficients, then constant) held as
    Gaussian integers (re, im) over one positive denominator, in normal form
    (gcd 1) like ``GaussianRational``, so its arithmetic, ``==`` and ``hash``
    are integer products and one gcd.  The read-only ``coeffs`` and ``const``
    read back as given, else as GaussianRationals, coefficients as Fractions
    in a form built from real ones.  A float or mpmath entry is taken at its
    binary value (``to_exact``).
    """

    __slots__ = ("_v", "_den", "_gauss", "_given", "_hash")

    def __new__(cls, coeffs: tuple, const):
        parts = [_parts(x) for x in (*coeffs, const)]
        if None in parts:
            return cls(tuple(map(to_exact, coeffs)), to_exact(const))
        d = math.lcm(*[e for _, _, e in parts])
        pairs = [(a, b) if e == d else (a * (d // e), b * (d // e)) for a, b, e in parts]
        gauss = any(x.__class__ is GaussianRational for x in coeffs)
        return _form(pairs, d, gauss, given=(tuple(coeffs), const))

    coeffs = property(lambda self: (self._given or self._read())[0])
    const = property(lambda self: (self._given or self._read())[1])

    def _read(self) -> tuple:
        """(coeffs, const) read from the entries, and kept."""
        v, d = self._v, self._den
        read = _gaussian if self._gauss else lambda a, _, d: Fraction(a, d)
        self._given = tuple(read(a, b, d) for a, b in v[:-1]), _gaussian(*v[-1], d)
        return self._given

    def __eq__(self, other):
        if other.__class__ is not AffineForm:
            return NotImplemented
        return self._den == other._den and self._v == other._v

    def __repr__(self) -> str:
        return f"AffineForm(coeffs={self.coeffs!r}, const={self.const!r})"

    def __reduce__(self):
        return AffineForm, (self.coeffs, self.const)

    @classmethod
    def make(cls, coeffs: Iterable, const=0) -> "AffineForm":
        return cls(tuple(coeffs), const)

    @classmethod
    def constant(cls, arity: int, value) -> "AffineForm":
        return cls((0,) * arity, value)

    @property
    def arity(self) -> int:
        return len(self._v) - 1

    def __hash__(self) -> int:  # each form keys the memo dicts of a step many times
        if self._hash is None:
            self._hash = hash((self._v, self._den))
        return self._hash

    def entry(self, j: int) -> mpc:
        """Entry j (the constant at j = arity) rounded, as ``to_mpc`` rounds it."""
        (a, b), d, prec = self._v[j], self._den, mp.prec
        return mp.make_mpc((from_rational(a, d, prec, "n"), from_rational(b, d, prec, "n")))

    def evaluate(self, point: Sequence) -> mpc:
        """The value at ``point``, substituted exactly and rounded once."""
        return self.compose(_constants(point)).entry(0)

    def is_zero(self) -> bool:
        return not any(a or b for a, b in self._v)

    def scale(self, factor) -> "AffineForm":
        factor = to_exact(factor)
        (x, y, e), gauss = _parts(factor), self._gauss or factor.__class__ is GaussianRational
        pairs = [(a * x - b * y, a * y + b * x) for a, b in self._v]
        return _form(pairs, self._den * e, gauss)

    def add(self, other: "AffineForm") -> "AffineForm":
        d, e = self._den, other._den
        pairs = [(a * e + c * d, b * e + s * d) for (a, b), (c, s) in zip(self._v, other._v)]
        return _form(pairs, d * e, self._gauss or other._gauss)

    def shift(self, value) -> "AffineForm":
        """self + value for a scalar: the value is added to the constant pair
        over the common denominator, and the coefficients' pairs are kept."""
        (x, y, e), d = _parts(to_exact(value)), self._den
        *pairs, (a, b) = self._v if e == 1 else [(a * e, b * e) for a, b in self._v]
        return _form([*pairs, (a + x * d, b + y * d)], d * e, self._gauss)

    def compose(self, forms: Sequence["AffineForm"]) -> "AffineForm":
        """Substitute z_i = forms[i](w); all forms share one new arity.

        Each entry of the result is c + sum_i a_i phi_i, summed in the order
        of i; a term with a_i zero is skipped.
        """
        if len(forms) != self.arity:
            raise ValueError("one form per variable required")
        coeffs = [0] * (forms[0].arity if forms else 0)
        const = self.const
        for a, phi in zip(self.coeffs, forms):
            if not a:
                continue
            coeffs = [c + x * a for c, x in zip(coeffs, phi.coeffs)]
            const = const + phi.const * a
        return AffineForm(tuple(coeffs), const)

    def restrict(self, var: int, pole: "AffineForm") -> "AffineForm":
        """Set z_var = pole (zero coefficient at ``var``); drop z_var.

        Entry j is c_j + p_j a and the constant c + p a, with a the
        coefficient of z_var: ``compose`` with the pole and unit forms,
        without the products that are exactly zero.
        """
        rest = self._v[:var] + self._v[var + 1 :]
        (u, w), e = self._v[var], pole._den
        if not (u or w):  # a == 0
            return _form(rest, self._den, self._gauss)
        # c_j / d + (p_j / e)(a / d) = (c_j e + p_j a) / (d e)
        terms = zip(rest, pole._v[:var] + pole._v[var + 1 :])
        pairs = [(c * e + x * u - y * w, s * e + x * w + y * u) for (c, s), (x, y) in terms]
        return _form(pairs, self._den * e, self._gauss or pole._gauss)

    def solve_for(self, var: int) -> "AffineForm":
        """On the zero locus, express z_var as an affine form of the others.

        The result has the same arity with a zero coefficient at ``var``.
        """
        ar, ai = self._v[var]
        if not (ar or ai):
            raise ZeroDivisionError(f"form does not involve variable {var}")
        # -c / a = -c conj(a) / |a|^2, with c and a over one denominator
        pairs = [(-(c * ar + s * ai), c * ai - s * ar) for c, s in self._v]
        pairs[var] = (0, 0)
        return _form(pairs, ar * ar + ai * ai, self._gauss)

    def drop_var(self, var: int) -> "AffineForm":
        """Remove a variable whose coefficient is zero."""
        if any(self._v[var]):
            raise ValueError(f"variable {var} still occurs")
        return _form(self._v[:var] + self._v[var + 1 :], self._den, self._gauss)

    def normalized(self):
        """Scale so the first nonzero entry is 1; returns (form, factor).

        ``factor`` is the original leading entry, a GaussianRational:
        self == result.scale(factor).  Proportional forms give equal results.
        """
        j = next((j for j, pair in enumerate(self._v) if any(pair)), None)
        if j is None:
            raise IdenticallyZeroDenominator("zero affine form")
        # c / lead = c conj(lead) / |lead|^2; a constant lead makes the
        # coefficients Gaussian
        ar, ai = self._v[j]
        pairs = [(c * ar + s * ai, s * ar - c * ai) for c, s in self._v]
        unit = _form(pairs, ar * ar + ai * ai, self._gauss or j == self.arity)
        return unit, _gaussian(ar, ai, self._den)


def _parts(x) -> tuple[int, int, int] | None:
    """(re, im, denominator) of an exact scalar in normal form, else None."""
    if x.__class__ is GaussianRational:
        return x._a, x._b, x._d
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    return None


def _form(v, den: int, gauss: bool = False, given=None) -> AffineForm:
    """The form of Gaussian integer pairs ``v`` over ``den`` > 0, put in
    normal form unless ``given``."""
    if den != 1 and given is None:  # given entries are in normal form
        g = math.gcd(den, *itertools.chain.from_iterable(v))
        if g != 1:
            v, den = [(a // g, b // g) for a, b in v], den // g
    f = object.__new__(AffineForm)
    f._v, f._den, f._gauss, f._given, f._hash = tuple(v), den, gauss, given, None
    return f


class Polynomial:
    """Sparse polynomial: exponent tuple -> coefficient, an int, Fraction or
    GaussianRational and never 0; a float or mpmath coefficient is taken at
    its binary value (``to_exact``).  Immutable by convention; all methods
    return new instances.  Iteration is in sorted exponent order for
    determinism.
    """

    __slots__ = ("arity", "_coeffs")

    def __init__(self, arity: int, coeffs: dict | None = None):
        self.arity = arity
        self._coeffs = {tuple(e): to_exact(v) for e, v in (coeffs or {}).items() if v}

    @classmethod
    def constant(cls, arity: int, value) -> "Polynomial":
        return _poly(arity, {(0,) * arity: to_exact(value)})

    @classmethod
    def from_affine(cls, form: AffineForm) -> "Polynomial":
        n = form.arity
        coeffs = {}
        for j, a in enumerate(form.coeffs):
            e = tuple(1 if k == j else 0 for k in range(n))
            coeffs[e] = a
        coeffs[(0,) * n] = coeffs.get((0,) * n, 0) + form.const
        return _poly(n, coeffs)

    def items(self):
        return sorted(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        return max((sum(e) for e in self._coeffs), default=0)

    def add(self, other: "Polynomial") -> "Polynomial":
        coeffs = dict(self._coeffs)
        for e, v in other._coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + v
        return _poly(self.arity, coeffs)

    def mul(self, other: "Polynomial") -> "Polynomial":
        coeffs: dict = {}
        for e1, v1 in self._coeffs.items():
            for e2, v2 in other._coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                coeffs[e] = coeffs.get(e, 0) + v1 * v2
        return _poly(self.arity, coeffs)

    def scale(self, factor) -> "Polynomial":
        return _poly(self.arity, {e: v * factor for e, v in self._coeffs.items()})

    def differentiate(self, var: int) -> "Polynomial":
        coeffs = {}
        for e, v in self._coeffs.items():
            if e[var] > 0:
                ne = tuple(x - 1 if j == var else x for j, x in enumerate(e))
                coeffs[ne] = coeffs.get(ne, 0) + v * e[var]
        return _poly(self.arity, coeffs)

    def restrict(self, var: int, pole: AffineForm) -> "Polynomial":
        """Set z_var = pole (zero coefficient at ``var``); drop z_var: the
        arithmetic of ``compose`` with the pole and unit forms, in its order,
        where a product by a unit form only moves exponents."""
        if not any(e[var] for e in self._coeffs):  # one dict, exponents moved
            return _poly(self.arity - 1, {e[:var] + e[var + 1 :]: v for e, v in self.items()})
        basis, acc = Polynomial.from_affine(pole.drop_var(var)), _poly(self.arity - 1, {})
        for e, v in self.items():
            mono = _poly(acc.arity, {e[:var] + e[var + 1 :]: v})
            for _ in range(e[var]):
                mono = mono.mul(basis)
            acc = acc.add(mono)
        return acc

    def compose(self, forms: Sequence[AffineForm]) -> "Polynomial":
        """Substitute z_i = forms[i](w) for every variable."""
        new_arity = forms[0].arity if forms else 0
        occurring = {i for e in self._coeffs for i, k in enumerate(e) if k}
        basis = {i: Polynomial.from_affine(forms[i]) for i in occurring}
        acc = _poly(new_arity, {})
        for e, v in self.items():
            mono = _poly(new_arity, {(0,) * new_arity: v})
            for i, k in enumerate(e):
                for _ in range(k):
                    mono = mono.mul(basis[i])
            acc = acc.add(mono)
        return acc

    def __repr__(self) -> str:
        return f"Polynomial({self.arity}, {self._coeffs!r})"


def _poly(arity: int, coeffs: dict) -> Polynomial:
    """The polynomial of exact ``coeffs`` keyed by exponent tuples, its zero
    coefficients dropped."""
    p = object.__new__(Polynomial)
    p.arity, p._coeffs = arity, {e: v for e, v in coeffs.items() if v}
    return p


class Term(NamedTuple):
    """One summand c * P * exp(L) / prod A_i^{m_i}; built via Term.make."""

    coeff: int | Fraction | GaussianRational
    poly: Polynomial
    expo: AffineForm
    denom: tuple  # tuple of (AffineForm, int)

    @classmethod
    def make(cls, coeff, poly: Polynomial, expo: AffineForm, denom: Iterable) -> "Term":
        """Normalize: monic denominator factors, proportional factors merged;
        a float or mpmath coefficient is taken at its binary value."""
        c = to_exact(coeff)
        merged: dict[AffineForm, int] = {}
        for form, mult in denom:
            if mult <= 0:
                raise ValueError("denominator multiplicities must be positive")
            unit, lead = form.normalized()
            c = c / lead**mult
            merged[unit] = merged.get(unit, 0) + mult
        items = list(merged.items())
        order = _form_order([unit for unit, _ in items])
        return cls(c, poly, expo, tuple(items[k] for k in order))

    @property
    def arity(self) -> int:
        return self.expo.arity

    def is_zero(self) -> bool:
        return not self.coeff or self.poly.is_zero()

    def scale(self, factor) -> "Term":
        return self._replace(coeff=self.coeff * factor)


def _form_order(forms: Sequence[AffineForm]) -> list[int]:
    """The indices of ``forms`` in the order of their entries, (re, im) of
    each, as integers over the lcm of the denominators, so no entry needs to
    fit a float."""
    lcm = math.lcm(*(f._den for f in forms))
    keys = [tuple(x * (lcm // f._den) for pair in f._v for x in pair) for f in forms]
    return sorted(range(len(forms)), key=keys.__getitem__)


class ExpRationalFunction:
    """Finite sum of Terms over a fixed arity."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Iterable[Term] = ()):
        self.arity = arity
        kept = []
        for t in terms:
            if t.arity != arity:
                raise ValueError("term arity mismatch")
            if not t.is_zero():
                kept.append(t)
        self.terms = tuple(kept)

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "ExpRationalFunction":
        return cls(arity)

    @classmethod
    def from_parts(
        cls,
        arity: int,
        coeff=1,
        poly: Polynomial | None = None,
        expo: AffineForm | None = None,
        denom: Iterable = (),
    ) -> "ExpRationalFunction":
        poly = poly if poly is not None else Polynomial.constant(arity, 1)
        expo = expo if expo is not None else AffineForm.constant(arity, 0)
        return cls(arity, [Term.make(coeff, poly, expo, denom)])

    # ---- ring operations ----------------------------------------------

    def add(self, other: "ExpRationalFunction") -> "ExpRationalFunction":
        if other.arity != self.arity:
            raise ValueError("arity mismatch")
        return ExpRationalFunction(self.arity, self.terms + other.terms)

    def scale(self, factor) -> "ExpRationalFunction":
        factor = to_exact(factor)
        return ExpRationalFunction(self.arity, [t.scale(factor) for t in self.terms])

    def mul(self, other: "ExpRationalFunction") -> "ExpRationalFunction":
        if other.arity != self.arity:
            raise ValueError("arity mismatch")
        out = []
        for a in self.terms:
            for b in other.terms:
                out.append(
                    Term.make(
                        a.coeff * b.coeff, a.poly.mul(b.poly), a.expo.add(b.expo), a.denom + b.denom
                    )
                )
        return ExpRationalFunction(self.arity, out)

    # ---- calculus ------------------------------------------------------

    def differentiate(self, var: int) -> "ExpRationalFunction":
        out = []
        for t in self.terms:
            dp = t.poly.differentiate(var)
            if not dp.is_zero():
                out.append(Term.make(t.coeff, dp, t.expo, t.denom))
            lv = t.expo.coeffs[var]
            if lv:
                out.append(Term.make(t.coeff * lv, t.poly, t.expo, t.denom))
            for i, (form, mult) in enumerate(t.denom):
                av = form.coeffs[var]
                if not av:
                    continue
                bumped = list(t.denom)
                bumped[i] = (form, mult + 1)
                out.append(Term.make(t.coeff * (-mult) * av, t.poly, t.expo, bumped))
        return ExpRationalFunction(self.arity, out)

    def compose(self, forms: Sequence[AffineForm]) -> "ExpRationalFunction":
        """Substitute z_i = forms[i](w) in every part of every term."""
        if len(forms) != self.arity:
            raise ValueError("one form per variable required")
        new_arity = forms[0].arity if forms else 0
        out = []
        for t in self.terms:
            denom = []
            coeff = t.coeff
            for form, mult in t.denom:
                sub = form.compose(forms)
                if sub.is_zero():
                    raise IdenticallyZeroDenominator(
                        "substitution kills a denominator factor"
                    )
                denom.append((sub, mult))
            out.append(
                Term.make(coeff, t.poly.compose(forms), t.expo.compose(forms), denom)
            )
        return ExpRationalFunction(new_arity, out)

    def compose_linear(self, matrix: Sequence[Sequence]) -> "ExpRationalFunction":
        """Substitute z = M w, rows of ``matrix`` giving each z_i in terms of w."""
        rows = [AffineForm.make(row) for row in matrix]
        if len(rows) != self.arity:
            raise ValueError("matrix must have one row per variable")
        return self.compose(rows)

    def residue_1d(self, var: int, pole: AffineForm) -> "ExpRationalFunction":
        """Coefficient of (z_var - pole)^{-1}, as a function of the other variables.

        ``pole`` is affine in the remaining variables (zero coefficient at
        ``var``).  Terms with no denominator factor vanishing along
        z_var = pole contribute nothing; a pole of order n + 1 contributes the
        t^n coefficient of ``_series_residue``.  Like terms of the result are
        merged.  Raises TermBudgetExceeded when the step would produce more
        than MAX_RESIDUE_TERMS terms.
        """
        if pole.arity != self.arity:
            raise ValueError("pole arity mismatch")
        memo = _PoleMemo(var, pole)
        out: list[Term] = []
        for t in self.terms:
            coeff, order, kept = t.coeff, 0, {}  # kept: class -> its factors (k, m)
            for form, mult in t.denom:
                k, a = memo.factor(form)
                if k is None:
                    # A = a (z_var - pole) exactly, so A^m contributes a^m
                    coeff = coeff / (a ** mult)
                    order += mult
                else:
                    kept[memo.classes[k]] = kept.get(memo.classes[k], ()) + ((k, mult),)
            if order == 0:
                continue
            expo, budget = memo.restrict(t.expo), MAX_RESIDUE_TERMS - len(out)
            out += _series_residue(coeff, t, var, order - 1, expo, kept, memo, budget)
        return ExpRationalFunction(self.arity - 1, _merge_like_terms(out))

    # ---- evaluation ------------------------------------------------------

    def evaluate(self, point: Sequence) -> mpc:
        """The value at ``point``, substituted exactly and rounded once
        (``rounded_sum``).  Raises PoleHit where a denominator factor
        vanishes exactly, and UnrepresentableScalar for a coordinate that
        ``to_exact`` refuses."""
        try:
            at = self.compose(_constants(point))
        except IdenticallyZeroDenominator:
            raise PoleHit("evaluation point is on a pole hyperplane") from None
        return rounded_sum([at])

    def is_zero(self) -> bool:
        return not self.terms

    def max_poly_degree(self) -> int:
        return max((t.poly.degree() for t in self.terms), default=0)

    def __repr__(self) -> str:
        return f"ExpRationalFunction(arity={self.arity}, terms={len(self.terms)})"


class _PoleMemo:
    """What one residue step at z_var = pole knows of each affine form.

    ``restrict`` gives a form at the pole, and ``slope`` a form's
    coefficient of z_var, a GaussianRational.
    ``factor`` splits a denominator form as A = B + a t at z_var = pole + t:
    (k, a) with k None when B vanishes, else the index of A in ``leads``,
    B's leading entry, ``slopes``, its a, and ``classes``, the index in
    ``units`` of B's monic form, which proportional restrictions share.
    ``orders`` is the sort order of each set of classes' units
    (``_form_order``).  Each is computed once per distinct form or set; a
    memo serves one ``residue_1d`` call and nothing outlives it.
    ``class_series``, the Taylor series of the kept factors of one class, is
    built on each call: a step seldom asks twice for the same one.  ``one``
    is the unit polynomial that the step's terms from a constant numerator
    share.
    """

    def __init__(self, var: int, pole: AffineForm):
        self.var = var
        self.pole = pole
        self.one = Polynomial.constant(pole.arity - 1, 1)
        self.units: list[AffineForm] = []
        self.leads: list = []
        self.slopes: list = []
        self.classes: list[int] = []
        self._restricted: dict = {}  # form -> its restriction
        self._factors: dict = {}  # denominator form -> (index or None, a)
        self._units: dict = {}  # monic unit -> index in units
        self.orders: dict = {}  # class indices -> _form_order of their units

    def restrict(self, form: AffineForm) -> AffineForm:
        base = self._restricted.get(form)
        if base is None:
            base = self._restricted[form] = form.restrict(self.var, self.pole)
        return base

    def slope(self, form: AffineForm) -> GaussianRational:
        return _gaussian(*form._v[self.var], form._den)

    def factor(self, form: AffineForm) -> tuple:
        got = self._factors.get(form)
        if got is None:
            base, k, a = form.restrict(self.var, self.pole), None, self.slope(form)
            if not base.is_zero():
                unit, lead = base.normalized()
                cls = self._units.setdefault(unit, len(self.units))
                if cls == len(self.units):
                    self.units.append(unit)
                k = len(self.leads)
                self.leads.append(lead)
                self.slopes.append(a)
                self.classes.append(cls)
            got = self._factors[form] = (k, a)
        return got

    def class_series(self, members: tuple, n: int) -> tuple:
        """((U, M + j), c_j), j = 0 .. n (j = 0 alone when n or every a is 0): the
        t^j coefficient c_j U^-(M + j) of prod (B_k + a_k t)^-m over the
        (k, m) of ``members``, kept factors of one class, M = sum m.  With
        B_k = lead_k U, U the class's monic unit, and x_k = -a_k / lead_k,
        the product is U^-M F(t / U) / prod lead_k^m, F = prod (1 - x_k u)^-m,
        whose logarithmic derivative gives j F_j = sum_{i=1..j} s_i F_{j-i}
        with the power sums s_i = sum m x_k^i; c_j = F_j / prod lead_k^m,
        run on Gaussian integers (``_gaussian_series``)."""
        parts = [(self.leads[k], self.slopes[k] if n else 0, m) for k, m in members]
        coeffs = _gaussian_series(parts, n)
        unit, degree = self.units[self.classes[members[0][0]]], sum(m for _, m in members)
        return tuple(((unit, degree + j), c) for j, c in enumerate(coeffs))


def _gaussian_series(parts: list, n: int) -> list:
    """c_0 .. c_n of ``_PoleMemo.class_series`` from its (lead, a, m)
    triples of GaussianRationals, c_0 alone when every a is 0, on Gaussian
    integer pairs.  With x_k = X_k / D over one denominator, the power sums
    S_i = sum m X_k^i and G_0 = 1, G_j = sum_{i=1..j} (j-1)!/(j-i)! S_i G_{j-i}
    give c_j = G_j / (j! D^j prod lead_k^m), one GaussianRational each."""
    la, lb, ld = 1, 0, 1  # prod lead^m = (la + lb i) / ld
    xs = []  # (m, re, im, den) of x = -a / lead
    for lead, a, m in parts:
        u, v, f = lead._a, lead._b, lead._d
        for _ in range(m):
            la, lb = la * u - lb * v, la * v + lb * u
        ld *= f**m
        if a:
            # with a = (p + q i) / e: -a / lead = -f (p + q i)(u - v i) / (e (u^2 + v^2))
            p, q, e = a._a, a._b, a._d
            x, y, e = -f * (p * u + q * v), f * (p * v - q * u), e * (u * u + v * v)
            g = math.gcd(x, y, e)
            xs.append((m, x // g, y // g, e // g))
    D = math.lcm(*(e for *_, e in xs)) if xs else 1
    ms = [m for m, *_ in xs]
    X = [(x * (D // e), y * (D // e)) for _, x, y, e in xs]
    sums, powers, G = [], X, [(1, 0)]
    for j in range(1, n + 1 if xs else 1):
        sums.append((sum(map(operator.mul, ms, [x for x, _ in powers])),
                     sum(map(operator.mul, ms, [y for _, y in powers]))))
        powers = [(x * u - y * v, x * v + y * u) for (x, y), (u, v) in zip(powers, X)]
        gr = gi = 0
        w = 1  # (j-1)! / (j-i)!
        for i, ((sr, si), (hr, hi)) in enumerate(zip(sums, reversed(G)), 1):
            gr += w * (sr * hr - si * hi)
            gi += w * (sr * hi + si * hr)
            w *= j - i
        G.append((gr, gi))
    # 1 / prod lead^m = ld (la - lb i) / (la^2 + lb^2)
    out, scale = [], la * la + lb * lb
    for j, (gr, gi) in enumerate(G):
        scale *= j * D if j else 1
        out.append(_gaussian(ld * (gr * la + gi * lb), ld * (gi * la - gr * lb), scale))
    return out


def _series_residue(
    coeff, term: Term, var: int, n: int, expo: AffineForm, kept: dict, memo: _PoleMemo, budget: int
) -> list[Term]:
    """The t^n coefficient of coeff * P * exp(L) / prod(kept) at z_var = pole + t.

    Every piece is a Taylor series in t truncated after t^n: P gives
    d^j P / j! at the pole, exp(L) gives exp(L at the pole) * l^j / j! with l
    the coefficient of z_var in L, and the kept factors of one class, those
    proportional at the pole, fold into one series in the class's monic
    unit (``_PoleMemo.class_series``).

    One term is emitted per choice of the classes' exponents j with a
    nonzero coefficient; its polynomial collects the polynomial and
    exponential parts of degree n - sum(j).  ``kept`` maps a class, in
    ``memo``, to its factors (k, m), k the index of B, A at the pole, and
    ``expo`` is L there.  Raises TermBudgetExceeded rather than emit more
    than ``budget`` terms.

    Each coefficient is carried along its path as a Gaussian integer pair
    over an integer and normalized once, as its term is emitted; a constant
    P goes into the coefficient, with no Taylor chain, and its terms share
    the step's unit polynomial (``memo.one``).
    """
    value = _constant_value(term.poly)
    if value is None:
        taylor = []
        p = term.poly
        for j in range(n + 1):
            if j:
                p = p.differentiate(var).scale(Fraction(1, j))
                if p.is_zero():
                    break
            taylor.append(p.restrict(var, memo.pole))
        lv, exp_series = memo.slope(term.expo), [1]
        for k in range(1, n + 1):
            exp_series.append(exp_series[-1] * lv / k)
        # rest[s]: the polynomial that multiplies the kept factors' t^s part
        rest = []
        for s in range(n + 1):
            acc = None
            for j, q in enumerate(taylor[: n - s + 1]):
                if exp_series[n - s - j]:
                    piece = q.scale(exp_series[n - s - j]) if n - s - j else q
                    acc = piece if acc is None else acc.add(piece)
            rest.append(acc if acc is not None and not acc.is_zero() else None)
    else:
        # rest[s]: the scalar P l^(n-s) / (n-s)!, as (re, im, den) unreduced
        (p, q), e = term.expo._v[var], term.expo._den
        (x, y, d), rest = _parts(value), []
        for k in range(n + 1):
            if k:
                x, y, d = x * p - y * q, x * q + y * p, d * e * k
            rest.append((x, y, d) if x or y else None)
        rest.reverse()

    series = [memo.class_series(members, n) for members in kept.values()]
    classes = tuple(kept)
    order = memo.orders.get(classes)
    if order is None:
        order = memo.orders[classes] = _form_order([memo.units[c] for c in classes])
    active = sum(len(s) > 1 for s in series)
    counts = (math.comb(s + active - 1, s) if active else int(s == 0) for s in range(n + 1))
    if sum(c for c, piece in zip(counts, rest) if piece is not None) > budget:
        raise TermBudgetExceeded(
            f"a residue step would produce more than {MAX_RESIDUE_TERMS} terms"
        )

    # depth first over the classes' exponents (j_0, j_1, ...) with sum <= n,
    # j_0 slowest, each coefficient built along its path from the root
    out: list[Term] = []
    stack = [(0, _parts(coeff), n, ())]
    while stack:
        i, (a, b, d), left, denom = stack.pop()
        if i == len(series):
            r = rest[n - left]
            if r is None:
                continue
            denom = tuple(map(denom.__getitem__, order))
            if value is not None:
                (x, y, e), r = r, memo.one
                a, b, d = a * x - b * y, a * y + b * x, d * e
            out.append(Term(_gaussian(a, b, d), r, expo, denom))
            continue
        for j in reversed(range(min(len(series[i]), left + 1))):
            factor, x = series[i][j]
            if x:
                c = (a * x._a - b * x._b, a * x._b + b * x._a, d * x._d)
                stack.append((i + 1, c, left - j, denom + (factor,)))
    return out


def _constant_value(poly: Polynomial):
    """The value of a constant polynomial, else None."""
    if len(poly._coeffs) == 1:
        ((e, v),) = poly._coeffs.items()
        if not any(e):
            return v
    return None


def _merge_like_terms(terms: Sequence[Term]) -> list[Term]:
    """Sum the terms with equal exponents and the same denominator units,
    compared by identity: a residue step's units are its memo's ``units``."""
    groups: dict = {}
    for t in terms:
        key = (t.expo, tuple((id(f), m) for f, m in t.denom))
        groups.setdefault(key, []).append(t)
    out = []
    for members in groups.values():
        first = members[0]
        if len(members) == 1:
            out.append(first)
            continue
        coeffs: dict = {}
        for t in members:
            for e, v in t.poly.items():
                coeffs[e] = coeffs.get(e, 0) + t.coeff * v
        out.append(Term(1, _poly(first.poly.arity, coeffs), first.expo, first.denom))
    return out


def constant_sum(funcs: Sequence["ExpRationalFunction"]) -> "ExpRationalFunction":
    """The sum of functions of arity 0 as sum_k c_k exp(lambda_k).

    Each term c P exp(lambda) / prod B^m, its P and every B constants, gives
    c P / prod B^m to the coefficient of its exponent lambda; the sum keeps
    the nonzero coefficients, one term per distinct lambda, in the order
    of first appearance.  The c_k and lambda_k are in Q(i), so by
    Lindemann-Weierstrass the sum is 0 exactly when it has no terms.
    """
    coeffs: dict = {}
    for f in funcs:
        for t in f.terms:
            c = t.coeff * sum(t.poly._coeffs.values())
            for form, mult in t.denom:
                c = c / _gaussian(*form._v[-1], form._den) ** mult
            coeffs[t.expo] = coeffs.get(t.expo, 0) + c
    one = Polynomial.constant(0, 1)
    return ExpRationalFunction(0, [Term(c, one, expo, ()) for expo, c in coeffs.items() if c])


def rounded_sum(funcs: Sequence["ExpRationalFunction"]) -> mpc:
    """The value of a sum of functions of arity 0: summed exactly
    (``constant_sum``) to sum_k c_k exp(lambda_k) and rounded once."""
    return sum((to_mpc(t.coeff) * mp_exp(t.expo.entry(0)) if any(t.expo._v[0])
                else to_mpc(t.coeff) for t in constant_sum(funcs).terms), mpc(0))


def _constants(point: Sequence) -> list[AffineForm]:
    """Each coordinate of ``point`` at its binary value, as a form of no
    variables."""
    return [AffineForm.constant(0, to_exact(z)) for z in point]
