"""Symbolic rational-exponential functions in several complex variables.

The working class of integrands is finite sums of terms

    c * P(z) * exp(L(z)) / prod_i A_i(z)^{m_i}

with P a polynomial, L and each A_i affine.  Coefficients, series and values
are mpmath complex numbers; a denominator form is exact (Fraction
coefficients, GaussianRational constant) when built from exact data, and
restricting, solving and normalizing keep it so.  The class is closed under
the three operations the residue engine needs: partial differentiation,
affine substitution (including linear changes of variables), and taking the
coefficient of (z_v - pole)^{-1} in one variable.

A residue at a pole of order n + 1 is read off truncated Taylor series in
t = z_v - pole rather than by differentiating n times: the t^n coefficient of
the product of the series of P, of exp(L) and of each non-vanishing factor
A_i^{-m_i}, which costs a number of terms polynomial in n.  Like terms (same
exponent bit for bit, same denominator) are merged, and a step that would
produce more than MAX_RESIDUE_TERMS terms raises TermBudgetExceeded.

A residue step computes each fact about an affine form once: one memo per
``residue_1d`` call holds each form's restriction to the pole
(``AffineForm.restrict``, which sets z_v to the pole directly instead of
composing with unit forms), whether each denominator form vanishes there,
the monic unit and rounded leading entry of each non-vanishing restriction,
one unit per class of proportional restrictions, and the Taylor series of
each kept factor at each multiplicity and order.  Every term reads them from
the memo, with the same arithmetic in the same order as computing them
afresh, so the result does not depend on it; nothing outlives the call.

Vanishing and proportionality of exact forms are decided by ``==`` and dict
keys; the noise floor (``is_negligible``, ``close_to``) decides only for
rounded forms, which arise when some s_j holds pi or exp().  Scalars live at
the ambient mpmath precision (``working_precision``); an exact input is
rounded once, where it meets mpc arithmetic.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from mpmath import exp as mp_exp
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_rational, fzero

from .exact_linalg import GaussianRational

DEFAULT_PRECISION = 128


class IdenticallyZeroDenominator(ValueError):
    """A denominator factor is the zero affine form."""


class PoleHit(ArithmeticError):
    """Evaluation was requested at (or numerically too near) a pole."""


# Most terms one residue step may produce, counted before like terms merge.
MAX_RESIDUE_TERMS = 200_000


class TermBudgetExceeded(Exception):
    """A residue step would produce more than MAX_RESIDUE_TERMS terms."""


@contextmanager
def working_precision(bits: int):
    with mp.workprec(bits):
        yield


def to_mpc(x) -> mpc:
    """Coerce exact and floating scalars to mpc at the ambient precision."""
    if isinstance(x, mpc):
        return x
    if isinstance(x, Fraction):
        return mp.make_mpc((from_rational(x.numerator, x.denominator, mp.prec, "n"), fzero))
    if isinstance(x, GaussianRational):
        return x._mpmath_(mp.prec, "n")
    return mpc(x)


def _noise_floor() -> mpf:
    """Magnitudes below this (relative to scale 1) are rounding residue.

    Half the ambient mantissa is far below any genuine quantity in this
    package and far above accumulated rounding error of short computations.
    """
    return _noise_floor_at(mp.prec)


@functools.cache
def _noise_floor_at(prec: int) -> mpf:
    # a power of two, exact at every precision: one value per precision
    return mpf(2) ** (-(prec // 2))


def is_negligible(x, scale=1) -> bool:
    """x == 0 when x is exact, else |x| within the noise floor of max(1, |scale|)."""
    if isinstance(x, (int, Fraction, GaussianRational)):
        return not x
    return abs(to_mpc(x)) <= _noise_floor() * max(mpf(1), abs(to_mpc(scale)))


class AffineForm:
    """a . z + c, exact (Fraction or GaussianRational entries; operations
    stay exact) or rounded to mpc (``make``) as a whole.  A problem file's
    affine values may mix the two until ``make`` rounds them.  Immutable:
    ``coeffs`` (a tuple) and ``const`` cannot be assigned."""

    __slots__ = ("coeffs", "const", "_hash")

    def __init__(self, coeffs: tuple, const: GaussianRational | mpc):
        _set_coeffs(self, coeffs)
        _set_const(self, const)
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not AffineForm:
            return NotImplemented
        return (self.coeffs, self.const) == (other.coeffs, other.const)

    def __repr__(self) -> str:
        return f"AffineForm(coeffs={self.coeffs!r}, const={self.const!r})"

    def __reduce__(self):
        return AffineForm, (self.coeffs, self.const)

    @classmethod
    def make(cls, coeffs: Iterable, const=0) -> "AffineForm":
        return cls(tuple(to_mpc(x) for x in coeffs), to_mpc(const))

    @classmethod
    def unit(cls, arity: int, index: int) -> "AffineForm":
        return cls.make([1 if j == index else 0 for j in range(arity)])

    @classmethod
    def constant(cls, arity: int, value) -> "AffineForm":
        return cls.make([0] * arity, value)

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def __hash__(self) -> int:  # each form keys the memo dicts of a step many times
        if self._hash is None:
            _set_hash(self, hash((self.coeffs, self.const)))
        return self._hash

    def evaluate(self, point: Sequence) -> mpc:
        acc = to_mpc(self.const)
        for a, z in zip(self.coeffs, point):
            acc = acc + a * to_mpc(z)
        return acc

    def max_abs(self) -> mpf:
        """The largest entry's magnitude, a noise-floor scale: exact entries
        are rounded first, so that none needs to fit a float."""
        return max(abs(to_mpc(c)) for c in (*self.coeffs, self.const))

    def is_zero(self) -> bool:
        if isinstance(self.const, mpc):
            return self.max_abs() <= _noise_floor()
        return not (self.const or any(self.coeffs))

    def scale(self, factor) -> "AffineForm":
        return AffineForm(tuple(c * factor for c in self.coeffs), self.const * factor)

    def add(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.const + other.const,
        )

    def compose(self, forms: Sequence["AffineForm"]) -> "AffineForm":
        """Substitute z_i = forms[i](w); all forms share one new arity.

        Each entry of the result is c + sum_i a_i phi_i, summed in the order
        of i; a term with a_i == 0 is skipped, since adding it is exact.
        """
        coeffs = [to_mpc(0)] * (forms[0].arity if forms else 0)
        const = self.const
        for a, phi in zip(self.coeffs, forms):
            if a == 0:
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
        a = self.coeffs[var]
        coeffs = self.coeffs[:var] + self.coeffs[var + 1 :]
        if a == 0:
            return AffineForm(coeffs, self.const)
        p = pole.coeffs[:var] + pole.coeffs[var + 1 :]
        return AffineForm(
            tuple(c + x * a for c, x in zip(coeffs, p)), self.const + pole.const * a
        )

    def solve_for(self, var: int) -> "AffineForm":
        """On the zero locus, express z_var as an affine form of the others.

        The result has the same arity with a zero coefficient at ``var``.
        """
        a = self.coeffs[var]
        if is_negligible(a, self.max_abs()):
            raise ZeroDivisionError(f"form does not involve variable {var}")
        coeffs = [(-c) / a for c in self.coeffs]
        coeffs[var] = 0 * a
        return AffineForm(tuple(coeffs), -self.const / a)

    def drop_var(self, var: int) -> "AffineForm":
        """Remove a variable whose coefficient is (numerically) zero."""
        if not is_negligible(self.coeffs[var], self.max_abs()):
            raise ValueError(f"variable {var} still occurs")
        return AffineForm(
            tuple(c for j, c in enumerate(self.coeffs) if j != var), self.const
        )

    def normalized(self):
        """Scale so the first significant entry is 1; returns (form, factor).

        ``factor`` is the original leading entry: self == result.scale(factor).
        Proportional exact forms give equal results.
        """
        entries = (*self.coeffs, self.const)
        if isinstance(self.const, mpc):
            floor = _noise_floor() * max(mpf(1), self.max_abs())
            entries = (x for x in entries if abs(x) > floor)
        lead = next((x for x in entries if x), None)
        if lead is None:
            raise IdenticallyZeroDenominator("zero affine form")
        return AffineForm(tuple(c / lead for c in self.coeffs), self.const / lead), lead

    def close_to(self, other: "AffineForm") -> bool:
        scale = max(self.max_abs(), other.max_abs(), mpf(1))
        diff = max(
            [abs(a - b) for a, b in zip(self.coeffs, other.coeffs)]
            + [abs(self.const - other.const)]
        )
        return diff <= _noise_floor() * scale


# the slots' own setters, which the guard above does not reach
_set_coeffs = AffineForm.coeffs.__set__
_set_const = AffineForm.const.__set__
_set_hash = AffineForm._hash.__set__


class Polynomial:
    """Sparse polynomial: exponent tuple -> mpc coefficient.

    Immutable by convention; all methods return new instances.  Iteration is
    in sorted exponent order for determinism.
    """

    __slots__ = ("arity", "_coeffs")

    def __init__(self, arity: int, coeffs: dict | None = None):
        self.arity = arity
        cleaned = {}
        if coeffs:
            scale = max((abs(v) for v in coeffs.values()), default=mpf(0))
            floor = _noise_floor() * scale
            for e, v in coeffs.items():
                if abs(v) > floor:
                    cleaned[tuple(e)] = to_mpc(v)
        self._coeffs = cleaned

    @classmethod
    def constant(cls, arity: int, value) -> "Polynomial":
        v = to_mpc(value)
        return cls(arity, {(0,) * arity: v} if v != 0 else {})

    @classmethod
    def from_affine(cls, form: AffineForm) -> "Polynomial":
        n = form.arity
        coeffs = {}
        for j, a in enumerate(form.coeffs):
            e = tuple(1 if k == j else 0 for k in range(n))
            coeffs[e] = a
        coeffs[(0,) * n] = coeffs.get((0,) * n, to_mpc(0)) + form.const
        return cls(n, coeffs)

    def items(self):
        return sorted(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        return max((sum(e) for e in self._coeffs), default=0)

    def add(self, other: "Polynomial") -> "Polynomial":
        coeffs = dict(self._coeffs)
        for e, v in other._coeffs.items():
            coeffs[e] = coeffs.get(e, to_mpc(0)) + v
        return Polynomial(self.arity, coeffs)

    def mul(self, other: "Polynomial") -> "Polynomial":
        coeffs: dict = {}
        for e1, v1 in self._coeffs.items():
            for e2, v2 in other._coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                coeffs[e] = coeffs.get(e, to_mpc(0)) + v1 * v2
        return Polynomial(self.arity, coeffs)

    def scale(self, factor) -> "Polynomial":
        f = to_mpc(factor)
        return Polynomial(self.arity, {e: v * f for e, v in self._coeffs.items()})

    def differentiate(self, var: int) -> "Polynomial":
        coeffs = {}
        for e, v in self._coeffs.items():
            if e[var] > 0:
                ne = tuple(x - 1 if j == var else x for j, x in enumerate(e))
                coeffs[ne] = coeffs.get(ne, to_mpc(0)) + v * e[var]
        return Polynomial(self.arity, coeffs)

    def evaluate(self, point: Sequence) -> mpc:
        pt = [to_mpc(z) for z in point]
        acc = to_mpc(0)
        for e, v in self.items():
            mono = v
            for z, k in zip(pt, e):
                for _ in range(k):
                    mono = mono * z
            acc = acc + mono
        return acc

    def compose(self, forms: Sequence[AffineForm]) -> "Polynomial":
        """Substitute z_i = forms[i](w) for every variable."""
        new_arity = forms[0].arity if forms else 0
        occurring = {i for e in self._coeffs for i, k in enumerate(e) if k}
        basis = {i: Polynomial.from_affine(forms[i]) for i in occurring}
        acc = Polynomial(new_arity)
        for e, v in self.items():
            mono = Polynomial.constant(new_arity, v)
            for i, k in enumerate(e):
                for _ in range(k):
                    mono = mono.mul(basis[i])
            acc = acc.add(mono)
        return acc

    def __repr__(self) -> str:
        return f"Polynomial({self.arity}, {self._coeffs!r})"


class Term(NamedTuple):
    """One summand c * P * exp(L) / prod A_i^{m_i}; built via Term.make."""

    coeff: mpc
    poly: Polynomial
    expo: AffineForm
    denom: tuple  # tuple of (AffineForm, int)

    @classmethod
    def make(cls, coeff, poly: Polynomial, expo: AffineForm, denom: Iterable) -> "Term":
        """Normalize: monic denominator factors, proportional factors merged."""
        c = to_mpc(coeff)
        merged: dict[AffineForm, int] = {}
        for form, mult in denom:
            if mult <= 0:
                raise ValueError("denominator multiplicities must be positive")
            unit, lead = form.normalized()
            c = c / (to_mpc(lead) ** mult)
            unit = _merge_unit(unit, merged)
            merged[unit] = merged.get(unit, 0) + mult
        items = sorted(merged.items(), key=lambda fm: _affine_sort_key(fm[0]))
        return cls(c, poly, expo, tuple(items))

    @property
    def arity(self) -> int:
        return self.expo.arity

    def is_zero(self) -> bool:
        return self.coeff == 0 or self.poly.is_zero()

    def scale(self, factor) -> "Term":
        return Term(self.coeff * to_mpc(factor), self.poly, self.expo, self.denom)


def _affine_sort_key(form: AffineForm):
    """A rounded form sorts by its entries as floats, an exact form by its
    exact entries, which need not fit a float."""
    entries = (*form.coeffs, form.const)
    if isinstance(form.const, mpc):
        return tuple((float(x.real), float(x.imag)) for x in entries)
    return tuple((x.real, x.imag) for x in entries)


def _merge_unit(unit: AffineForm, units) -> AffineForm:
    """The unit of ``units`` that ``unit`` merges with, else ``unit``: exact
    units merge when equal, a rounded one with the first unit close_to it."""
    if not isinstance(unit.const, mpc):
        return unit
    return next((u for u in units if u.close_to(unit)), unit)


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
        return ExpRationalFunction(self.arity, [t.scale(factor) for t in self.terms])

    def mul(self, other: "ExpRationalFunction") -> "ExpRationalFunction":
        if other.arity != self.arity:
            raise ValueError("arity mismatch")
        out = []
        for t1 in self.terms:
            for t2 in other.terms:
                out.append(
                    Term.make(
                        t1.coeff * t2.coeff,
                        t1.poly.mul(t2.poly),
                        t1.expo.add(t2.expo),
                        t1.denom + t2.denom,
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
            if lv != 0:
                out.append(Term.make(t.coeff * lv, t.poly, t.expo, t.denom))
            for i, (form, mult) in enumerate(t.denom):
                av = form.coeffs[var]
                if av == 0:
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
        subs = [
            memo.rounded.drop_var(var)
            if i == var
            else AffineForm.unit(self.arity - 1, i - (i > var))
            for i in range(self.arity)
        ]
        out: list[Term] = []
        for t in self.terms:
            coeff = t.coeff
            order = 0
            kept = []
            for form, mult in t.denom:
                k, a = memo.factor(form)
                if k is None:
                    # A = a (z_var - pole) exactly, so A^m contributes a^m
                    coeff = coeff / (a ** mult)
                    order += mult
                else:
                    kept.append((k, mult, a))
            if order == 0:
                continue
            out.extend(
                _series_residue(
                    coeff, t, var, order - 1, subs, memo.restrict(t.expo), kept,
                    memo, MAX_RESIDUE_TERMS - len(out),
                )
            )
        return ExpRationalFunction(self.arity - 1, _merge_like_terms(out))

    # ---- evaluation ------------------------------------------------------

    def evaluate(self, point: Sequence) -> mpc:
        if len(point) != self.arity:
            raise ValueError("point arity mismatch")
        pt = [to_mpc(z) for z in point]
        acc = to_mpc(0)
        for t in self.terms:
            den = to_mpc(1)
            for form, mult in t.denom:
                v = form.evaluate(pt)
                if is_negligible(v, form.max_abs()):
                    raise PoleHit("evaluation point is on a pole hyperplane")
                den = den * (v ** mult)
            acc = acc + t.coeff * t.poly.evaluate(pt) * mp_exp(t.expo.evaluate(pt)) / den
        return acc

    def is_zero(self) -> bool:
        return not self.terms

    def max_poly_degree(self) -> int:
        return max((t.poly.degree() for t in self.terms), default=0)

    def __repr__(self) -> str:
        return f"ExpRationalFunction(arity={self.arity}, terms={len(self.terms)})"


class _PoleMemo:
    """What one residue step at z_var = pole knows of each affine form.

    ``restrict`` gives an exponent form at ``rounded``, the pole rounded.
    ``factor`` splits a denominator form as A = B + a t at z_var = pole + t:
    (k, a) with a rounded, k None when B vanishes, else the index of A in
    ``leads``, B's rounded leading entry, and in ``classes``, the index in
    ``units`` of B's monic form, which proportional restrictions share
    (``_merge_unit``).  ``series`` is a kept factor's Taylor series at the
    pole.  Each is computed once per distinct form or series; a memo serves
    one ``residue_1d`` call and nothing outlives it.
    """

    def __init__(self, var: int, pole: AffineForm):
        self.var = var
        self.pole = pole
        self.rounded = AffineForm.make(pole.coeffs, pole.const)
        self.units: list[AffineForm] = []
        self.leads: list[mpc] = []
        self.classes: list[int] = []
        self._restricted: dict = {}  # form -> its restriction
        self._factors: dict = {}  # denominator form -> (index or None, a)
        self._units: dict = {}  # monic unit -> index in units
        self._series: dict = {}  # (index, m, n) -> (lead^m, series)

    def restrict(self, form: AffineForm) -> AffineForm:
        base = self._restricted.get(form)
        if base is None:
            base = self._restricted[form] = form.restrict(self.var, self.rounded)
        return base

    def factor(self, form: AffineForm) -> tuple:
        got = self._factors.get(form)
        if got is None:
            base, k = form.restrict(self.var, self.pole), None
            if not base.is_zero():
                unit, lead = base.normalized()
                cls = self._units.setdefault(_merge_unit(unit, self._units), len(self.units))
                if cls == len(self.units):
                    self.units.append(unit)
                k = len(self.leads)
                self.leads.append(to_mpc(lead))
                self.classes.append(cls)
            got = self._factors[form] = (k, to_mpc(form.coeffs[self.var]))
        return got

    def series(self, k: int, mult: int, a, n: int) -> tuple:
        """lead^mult and the series C(mult + j - 1, j) (-a)^j / lead^(mult + j),
        j = 1 .. n (empty when a = 0), of the kept factor (B + a t)^-mult
        with B = leads[k] * units[classes[k]]."""
        key = (k, mult, n)
        got = self._series.get(key)
        if got is None:
            got = self._series[key] = self._build_series(k, mult, a, n)
        return got

    def _build_series(self, k: int, mult: int, a, n: int) -> tuple:
        lead = self.leads[k]
        series = tuple(
            math.comb(mult + j - 1, j) * (-a) ** j / lead ** (mult + j)
            for j in range(1, n + 1 if a != 0 else 1)
        )
        return lead**mult, series


def _series_residue(
    coeff,
    term: Term,
    var: int,
    n: int,
    subs,
    expo: AffineForm,
    kept,
    memo: _PoleMemo,
    budget: int,
) -> list[Term]:
    """The t^n coefficient of coeff * P * exp(L) / prod(kept) at z_var = pole + t.

    Every piece is a Taylor series in t truncated after t^n: P gives
    d^j P / j! at the pole, exp(L) gives exp(L at the pole) * l^j / j! with l
    the coefficient of z_var in L, and a kept factor A = B + a t gives

        (B + a t)^{-m} = sum_j C(m + j - 1, j) (-a)^j t^j B^{-(m + j)}.

    One term is emitted per choice of the kept factors' exponents j; its
    polynomial collects the polynomial and exponential parts of degree
    n - sum(j).  ``kept`` lists (k, m, a) with k the index of B, A at the
    pole, in ``memo``; ``subs`` sets z_var to the pole and ``expo`` is L
    there.  Raises TermBudgetExceeded rather than emit more than ``budget``
    terms.
    """
    taylor = []
    p = term.poly
    for j in range(n + 1):
        if j:
            p = p.differentiate(var).scale(Fraction(1, j))
            if p.is_zero():
                break
        taylor.append(p.compose(subs))
    lv = term.expo.coeffs[var]
    exp_series = [to_mpc(1)]
    for k in range(1, n + 1):
        exp_series.append(exp_series[-1] * lv / k)
    # rest[s]: the polynomial that multiplies the kept factors' t^s part
    rest = []
    for s in range(n + 1):
        acc = None
        for j, q in enumerate(taylor[: n - s + 1]):
            k = n - s - j
            if k and lv == 0:
                continue
            piece = q if k == 0 else q.scale(exp_series[k])
            acc = piece if acc is None else acc.add(piece)
        rest.append(acc if acc is not None and not acc.is_zero() else None)

    # proportional kept factors share one monic unit, as in Term.make
    firsts: dict[int, int] = {}  # memo unit index -> this term's class
    factors = []
    for k, mult, a in kept:
        cls = firsts.setdefault(memo.classes[k], len(firsts))
        factors.append((cls, mult, *memo.series(k, mult, a, n)))
    units = [memo.units[u] for u in firsts]
    class_order = sorted(range(len(units)), key=lambda c: _affine_sort_key(units[c]))

    active = sum(1 for f in factors if f[3])
    count = sum(
        math.comb(s + active - 1, s) if active else int(s == 0)
        for s in range(n + 1)
        if rest[s] is not None
    )
    if count > budget:
        raise TermBudgetExceeded(
            f"a residue step would produce more than {MAX_RESIDUE_TERMS} terms"
        )

    # depth first over the exponents (j_0, j_1, ...) with sum <= n, j_0
    # slowest, each coefficient built along its path from the root
    out: list[Term] = []
    stack = [(0, coeff, n, ())]
    while stack:
        i, c, left, js = stack.pop()
        if i == len(factors):
            poly = rest[n - left]
            if poly is not None:
                degrees = [0] * len(units)
                for (cls, mult, _, _), j in zip(factors, js):
                    degrees[cls] += mult + j
                denom = tuple((units[cls], degrees[cls]) for cls in class_order)
                out.append(Term(c, poly, expo, denom))
            continue
        cls, mult, lead_power, series = factors[i]
        for j in reversed(range(min(len(series), left) + 1)):
            child = c / lead_power if j == 0 else c * series[j - 1]
            stack.append((i + 1, child, left - j, js + (j,)))
    return out


def _form_key(form: AffineForm) -> tuple:
    return tuple(x._mpc_ for x in form.coeffs) + (form.const._mpc_,)


def _merge_like_terms(terms: Sequence[Term]) -> list[Term]:
    """Sum the terms with bit-equal exponents and the same denominator units,
    compared by identity: a residue step's units are its memo's ``units``."""
    groups: dict = {}
    for t in terms:
        key = (_form_key(t.expo), tuple((id(f), m) for f, m in t.denom))
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
        poly = Polynomial(first.poly.arity, coeffs)
        out.append(Term(to_mpc(1), poly, first.expo, first.denom))
    return out
