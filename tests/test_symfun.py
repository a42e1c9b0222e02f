"""Symbolic function tests.

Derivatives are checked against central finite differences; one-variable
residues against direct numerical contour integrals (mpmath quad over an
explicit circle) and against the residue taken as an (order - 1)-th
derivative (``residue_by_differentiation``).  The oracles are independent of
the truncated-series code under test.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import mpmath
from mpmath import exp, mp, mpc, mpf, pi, quad
from mpmath.libmp import to_rational

from reference import (
    FractionForm,
    matrix,
    per_factor_residue,
    power_series,
    substitute_affine,
    unit_form,
)
from residuum import dsl, symfun
from residuum.exact_linalg import GaussianRational, determinant
from residuum.symfun import (
    AffineForm,
    ExpRationalFunction,
    IdenticallyZeroDenominator,
    PoleHit,
    Polynomial,
    Term,
    TermBudgetExceeded,
    _form_order,
    to_mpc,
    working_precision,
)

small_ints = st.integers(min_value=-4, max_value=4)


def build_test_function(arity, poly_coeffs, expo_coeffs, denom_offsets):
    """A tame rational-exponential function with poles off the real points.

    Denominator constants get imaginary part >= 1 so evaluation anywhere on
    the real locus stays well-conditioned.
    """
    poly = Polynomial(
        arity,
        {e: to_mpc(c) for e, c in poly_coeffs.items()},
    )
    expo = AffineForm.make([mpc(0, c) for c in expo_coeffs], 0)
    denom = []
    for coeffs, off in denom_offsets:
        denom.append(
            (AffineForm.make(coeffs, mpc(off, 1 + abs(off))), 1)
        )
    return ExpRationalFunction.from_parts(
        arity, coeff=1, poly=poly, expo=expo, denom=denom
    )


def contour_residue(f, center, radius=0.25):
    """(1/2 pi i) times the integral of f over a circle, via mpmath quad."""
    c = to_mpc(center)

    def g(theta):
        z = c + radius * exp(mpc(0, 1) * theta)
        return f(z) * mpc(0, 1) * radius * exp(mpc(0, 1) * theta)

    return quad(g, [0, 2 * pi]) / (2 * pi * mpc(0, 1))


def test_affine_solve_and_drop():
    form = AffineForm.make([2, -3, 1], mpc(1, 1))
    phi = form.solve_for(1)
    assert phi.coeffs[1] == 0
    # the identity a.z + c = 0 holds after substituting z_1 = phi
    pt = [mpc(0.3, 0.1), None, mpc(-1.2, 0.7)]
    pt[1] = phi.evaluate([pt[0], 0, pt[2]])
    assert abs(form.evaluate(pt)) < 1e-12
    dropped = phi.drop_var(1)
    assert dropped.arity == 2
    assert abs(dropped.evaluate([pt[0], pt[2]]) - pt[1]) < 1e-12


def test_evaluate_matches_hand_formula():
    # f = (3 + z0 z1) exp(i z0) / ((z0 + z1 + i)(z1 - 2i)^2)
    with working_precision(128):
        f = ExpRationalFunction.from_parts(
            2,
            coeff=1,
            poly=Polynomial(2, {(0, 0): to_mpc(3), (1, 1): to_mpc(1)}),
            expo=AffineForm.make([mpc(0, 1), 0], 0),
            denom=[
                (AffineForm.make([1, 1], mpc(0, 1)), 1),
                (AffineForm.make([0, 1], mpc(0, -2)), 2),
            ],
        )
        z0, z1 = mpc(0.5, 0.2), mpc(-1.1, 0.4)
        expect = (
            (3 + z0 * z1)
            * exp(mpc(0, 1) * z0)
            / ((z0 + z1 + mpc(0, 1)) * (z1 - mpc(0, 2)) ** 2)
        )
        assert abs(f.evaluate([z0, z1]) - expect) < mpf(10) ** -30


@given(
    st.dictionaries(
        st.tuples(small_ints.map(abs), small_ints.map(abs)).map(
            lambda e: (min(e[0], 2), min(e[1], 2))
        ),
        small_ints.filter(lambda x: x != 0),
        min_size=1,
        max_size=3,
    ),
    st.tuples(small_ints, small_ints),
    st.tuples(small_ints, small_ints),
)
@settings(max_examples=60, deadline=None)
def test_derivative_matches_finite_difference(poly_coeffs, expo_coeffs, pt):
    with working_precision(192):
        f = build_test_function(
            2,
            poly_coeffs,
            expo_coeffs,
            [([1, 1], 0), ([1, -1], 2)],
        )
        df = f.differentiate(0)
        h = mpf(10) ** -20
        z = [to_mpc(pt[0]) / 4, to_mpc(pt[1]) / 4]
        up = f.evaluate([z[0] + h, z[1]])
        dn = f.evaluate([z[0] - h, z[1]])
        numeric = (up - dn) / (2 * h)
        symbolic = df.evaluate(z)
        scale = max(mpf(1), abs(symbolic))
        assert abs(symbolic - numeric) < mpf(10) ** -15 * scale


@given(
    st.tuples(small_ints, small_ints),
    st.tuples(small_ints, small_ints, small_ints, small_ints),
)
@settings(max_examples=40, deadline=None)
def test_substitution_commutes_with_evaluation(expo_coeffs, raw):
    with working_precision(128):
        f = build_test_function(
            2,
            {(1, 0): to_mpc(1), (0, 2): to_mpc(raw[0])},
            expo_coeffs,
            [([1, 2], 1)],
        )
        # z0 := a z1 + b with exact data
        repl = AffineForm.make([0, raw[1]], mpc(raw[2], raw[3]))
        if raw[1:] == (-2, -1, -2):
            # a = -2, b = -1 - 2i turns the factor z0 + 2 z1 + 1 + 2i into 0
            with pytest.raises(IdenticallyZeroDenominator):
                substitute_affine(f, 0, repl)
            return
        g = substitute_affine(f, 0, repl)
        assert g.arity == 1
        t = mpf(raw[0]) / 3 + mpf(1) / 7
        z0 = repl.evaluate([0, t])
        assert abs(g.evaluate([t]) - f.evaluate([z0, t])) < mpf(10) ** -25


def test_simple_pole_residue():
    with working_precision(128):
        # exp(a z)/(z - w): residue exp(a w)
        a, w = mpc(0, 2), mpc("0.3", "0.7")
        f = ExpRationalFunction.from_parts(
            1,
            expo=AffineForm.make([a], 0),
            denom=[(AffineForm.make([1], -w), 1)],
        )
        res = f.residue_1d(0, AffineForm.constant(1, w))
        assert res.arity == 0
        assert abs(res.evaluate([]) - exp(a * w)) < mpf(10) ** -30


def test_multiple_pole_residues():
    with working_precision(128):
        a, w = mpc("0.5", "-0.25"), mpc(0, 1)
        base = [(AffineForm.make([1], -w), 2)]
        f = ExpRationalFunction.from_parts(1, expo=AffineForm.make([a], 0), denom=base)
        res = f.residue_1d(0, AffineForm.constant(1, w))
        assert abs(res.evaluate([]) - a * exp(a * w)) < mpf(10) ** -30

        f3 = ExpRationalFunction.from_parts(
            1, expo=AffineForm.make([a], 0), denom=[(AffineForm.make([1], -w), 3)]
        )
        res3 = f3.residue_1d(0, AffineForm.constant(1, w))
        assert abs(res3.evaluate([]) - a ** 2 / 2 * exp(a * w)) < mpf(10) ** -30


def test_residue_against_contour_oracle():
    with working_precision(128):
        # f = (1 + z^2) exp(i z) / ((z - w)^2 (z + 1 + i))
        w = mpc("0.4", "0.9")
        f = ExpRationalFunction.from_parts(
            1,
            poly=Polynomial(1, {(0,): to_mpc(1), (2,): to_mpc(1)}),
            expo=AffineForm.make([mpc(0, 1)], 0),
            denom=[
                (AffineForm.make([1], -w), 2),
                (AffineForm.make([1], mpc(1, 1)), 1),
            ],
        )
        res = f.residue_1d(0, AffineForm.constant(1, w)).evaluate([])
        oracle = contour_residue(lambda z: f.evaluate([z]), w, radius=0.3)
        assert abs(res - oracle) < mpf(10) ** -20


def test_residue_ignores_foreign_poles():
    with working_precision(128):
        w, u = mpc(0, 1), mpc(2, 1)
        f = ExpRationalFunction.from_parts(
            1,
            denom=[(AffineForm.make([1], -w), 1), (AffineForm.make([1], -u), 1)],
        )
        res = f.residue_1d(0, AffineForm.constant(1, w)).evaluate([])
        assert abs(res - 1 / (w - u)) < mpf(10) ** -30
        # no pole at an arbitrary regular point: residue is exactly zero
        none = f.residue_1d(0, AffineForm.constant(1, mpc(5, 5)))
        assert none.is_zero()


def test_two_variable_residue_is_function_of_rest():
    with working_precision(128):
        # 1/((z0 + z1 - 1)(z0 - z1)); residue in z0 on z0 = 1 - z1
        A = AffineForm.make([1, 1], -1)
        f = ExpRationalFunction.from_parts(
            2, denom=[(A, 1), (AffineForm.make([1, -1], 0), 1)]
        )
        res = f.residue_1d(0, A.solve_for(0))
        t = mpc("0.3", "0.2")
        assert abs(res.evaluate([t]) - 1 / (1 - 2 * t)) < mpf(10) ** -30


def test_proportional_denominators_merge():
    with working_precision(128):
        A = AffineForm.make([1], mpc(0, -1))
        doubled = A.scale(2)
        f = ExpRationalFunction.from_parts(1, denom=[(A, 1), (doubled, 1)])
        (term,) = f.terms
        assert len(term.denom) == 1
        assert term.denom[0][1] == 2
        z = mpc(3, 2)
        expect = 1 / ((z - mpc(0, 1)) * (2 * z - mpc(0, 2)))
        assert abs(f.evaluate([z]) - expect) < mpf(10) ** -30


def test_compose_linear():
    with working_precision(128):
        f = ExpRationalFunction.from_parts(
            2,
            expo=AffineForm.make([1, 0], 0),
            denom=[(AffineForm.make([1, 1], mpc(0, 1)), 1)],
        )
        g = f.compose_linear([[1, 1], [0, 1]])  # z0 = w0 + w1, z1 = w1
        w = [mpc("0.2", "0.1"), mpc("-0.4", "0.3")]
        assert abs(g.evaluate(w) - f.evaluate([w[0] + w[1], w[1]])) < mpf(10) ** -30


def compose_oracle(form, forms):
    """The general substitution loop: one scaled form added at a time."""
    acc = AffineForm.constant(forms[0].arity if forms else 0, form.const)
    for a, phi in zip(form.coeffs, forms):
        acc = acc.add(phi.scale(a))
    return acc


def restrict_oracle(form, var, pole):
    """z_var set to the pole and the other variables renumbered, by
    ``compose_oracle``."""
    n = form.arity
    subs = [
        pole.drop_var(var) if i == var else unit_form(n - 1, i - (i > var))
        for i in range(n)
    ]
    return compose_oracle(form, subs)


# exact zeros, Gaussian rationals (rounded at the ambient precision) and
# doubles from 1e-30 to 1e30 (exact; far apart they take mpmath's shortcut
# for sums beyond the precision)
raw_scalars = st.one_of(
    st.just(0),
    st.builds(
        GaussianRational,
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
    ),
    st.builds(
        complex,
        st.floats(-1e30, 1e30, allow_nan=False, allow_subnormal=False),
        st.floats(-1e30, 1e30, allow_nan=False, allow_subnormal=False),
    ),
)


def raw_forms(arity):
    return st.tuples(st.lists(raw_scalars, min_size=arity, max_size=arity), raw_scalars)


@st.composite
def compose_cases(draw):
    """(form, forms): arity 1-4 into arity 0-4."""
    arity, new_arity = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    forms = st.lists(raw_forms(new_arity), min_size=arity, max_size=arity)
    return draw(raw_forms(arity)), draw(forms)


@st.composite
def restrict_cases(draw):
    """(form, var, pole): the pole has arity of the form, zero at var."""
    arity = draw(st.integers(1, 4))
    var = draw(st.integers(0, arity - 1))
    coeffs, const = draw(raw_forms(arity))
    coeffs[var] = 0
    return draw(raw_forms(arity)), var, (coeffs, const)


@given(compose_cases(), st.sampled_from([53, 128]))
@settings(max_examples=150, deadline=None)
def test_compose_matches_oracle_bit_for_bit(case, prec):
    with working_precision(prec):
        form, forms = AffineForm.make(*case[0]), [AffineForm.make(*f) for f in case[1]]
        assert form.compose(forms) == compose_oracle(form, forms)


@given(restrict_cases(), st.sampled_from([53, 128]))
@settings(max_examples=150, deadline=None)
def test_restrict_matches_oracle_bit_for_bit(case, prec):
    """restrict(var, pole) is composing with the pole at var and unit forms."""
    with working_precision(prec):
        form, var, pole = AffineForm.make(*case[0]), case[1], AffineForm.make(*case[2])
        want = restrict_oracle(form, var, pole)
        assert form.restrict(var, pole) == want


def test_one_normalization_per_restricted_factor(monkeypatch):
    """A residue step normalizes each distinct denominator form at the pole
    once, not once for every term that carries it."""
    with working_precision(128):
        i = mpc(0, 1)
        denom = [
            (AffineForm.make([1, -1], -i), 3),
            (AffineForm.make([1, 1], 1), 1),
            (AffineForm.make([1, -2], 2), 2),
        ]
        f = ExpRationalFunction.zero(2)
        for k in range(4):
            f = f.add(
                ExpRationalFunction.from_parts(
                    2,
                    poly=Polynomial(2, {(0, k): to_mpc(1)}),
                    expo=AffineForm.make([k * i, 0], 0),
                    denom=denom,
                )
            )
        pole = denom[0][0].solve_for(0)
        at_pole = [
            restrict_oracle(form, 0, pole) for t in f.terms for form, _ in t.denom
        ]
        restricted = {form for form in at_pole if not form.is_zero()}
        calls = []
        original = AffineForm.normalized

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(AffineForm, "normalized", counted)
        res = f.residue_1d(0, pole)
    assert len(f.terms) == 4 and len(res.terms) > 4
    assert len(calls) == len(set(calls)) and set(calls) <= restricted


def test_one_series_per_denominator_class(monkeypatch):
    """A residue step folds the kept factors of a denominator class (those
    proportional at the pole) into one Taylor series, asked for once per
    term and class, not once per factor."""
    with working_precision(128):
        i = mpc(0, 1)
        denom = [
            (AffineForm.make([1, -1], -i), 3),
            (AffineForm.make([1, 1], 1), 1),
            (AffineForm.make([2, -1], 2), 2),
            (AffineForm.make([1, 3], 2 + i), 1),  # 2 (z0 + z1 + 1) at z0 = z1 + i
        ]
        f = ExpRationalFunction.zero(2)
        for k in range(4):
            f = f.add(
                ExpRationalFunction.from_parts(
                    2,
                    poly=Polynomial(2, {(0, k): to_mpc(1)}),
                    expo=AffineForm.make([k * i, 0], 0),
                    denom=denom,
                )
            )
        pole = denom[0][0].solve_for(0)
        uses, memos = [], []
        series = symfun._PoleMemo.class_series

        def counted(self, members, n):
            uses.append((tuple(self.classes[k] for k, _ in members), members, n))
            memos.append(self)
            return series(self, members, n)

        monkeypatch.setattr(symfun._PoleMemo, "class_series", counted)
        f.residue_1d(0, pole)
    assert len(f.terms) == 4 and len(uses) == 8 and len(set(map(id, memos))) == 1
    # two classes, one of them the second and fourth factors
    assert sorted(len(members) for _, members, _ in set(uses)) == [1, 2]


_small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_small_gaussians = st.builds(GaussianRational, _small_fractions, _small_fractions)


@st.composite
def _form_pairs(draw, arity: int, gauss: bool):
    """(AffineForm, FractionForm) of the same exact entries: rational or
    Gaussian coefficients, sometimes all zero, and a Gaussian constant."""
    entry = _small_gaussians if gauss else _small_fractions
    zeros = [GaussianRational.of(0) if gauss else Fraction(0)] * arity
    coeffs = tuple(draw(st.lists(entry, min_size=arity, max_size=arity) | st.just(zeros)))
    const = draw(_small_gaussians)
    return AffineForm(coeffs, const), FractionForm(coeffs, const)


def _same(form: AffineForm, ref: FractionForm) -> bool:
    """Equal entries of the same kinds, and equal to the form built from them."""
    return (form.coeffs, form.const) == ref and form == AffineForm(ref.coeffs, ref.const)


def _same_lead(lead, ref_lead) -> bool:
    exact = ref_lead if isinstance(ref_lead, GaussianRational) else GaussianRational.of(ref_lead)
    return lead == exact


def _check_against_reference(form: AffineForm, ref: FractionForm, data) -> None:
    """``restrict``, ``solve_for``, ``normalized``, ``compose`` and ``scale``
    of ``form`` against the Fraction arithmetic of ``ref``."""
    assert _same(form, ref)
    try:
        ref_unit, ref_lead = ref.normalized()
    except ZeroDivisionError:
        with pytest.raises(IdenticallyZeroDenominator):
            form.normalized()
    else:
        unit, lead = form.normalized()
        assert _same(unit, ref_unit) and _same_lead(lead, ref_lead)
        # a proportional form has an equal unit, of equal hash
        k = data.draw((_small_fractions | _small_gaussians).filter(bool))
        scaled = form.scale(k)
        assert _same(scaled, FractionForm(tuple(c * k for c in ref.coeffs), ref.const * k))
        assert scaled.normalized()[0] == unit and hash(scaled.normalized()[0]) == hash(unit)
    arity = form.arity
    if arity:
        var = data.draw(st.integers(0, arity - 1))
        pole_form, pole_ref = data.draw(_form_pairs(arity, data.draw(st.booleans())))
        try:
            ref_pole = pole_ref.solve_for(var)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                pole_form.solve_for(var)
        else:
            pole = pole_form.solve_for(var)
            assert _same(pole, ref_pole)
            assert _same(form.restrict(var, pole), ref.restrict(var, ref_pole))
    new_arity = data.draw(st.integers(0, 3))
    pairs = [data.draw(_form_pairs(new_arity, data.draw(st.booleans()))) for _ in range(arity)]
    composed = form.compose([f for f, _ in pairs])
    assert _same(composed, ref.compose([r for _, r in pairs]))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_integer_forms_match_fraction_reference(data):
    """Exact forms on Gaussian integers over one denominator give the rationals
    of the Fraction arithmetic they replace, of the same kinds (Fraction or
    GaussianRational coefficients), at every step; proportional forms have
    equal units of equal hash; and exact units sort in the exact order of
    their (re, im) entries.  Zero and negative leads, zero coefficients and
    constant-only forms (arity 0, or every coefficient 0) are drawn."""
    prec = data.draw(st.sampled_from([53, 128]))
    arity = data.draw(st.integers(0, 4))
    with working_precision(prec):
        form, ref = data.draw(_form_pairs(arity, data.draw(st.booleans())))
        _check_against_reference(form, ref, data)
        drawn = data.draw(st.lists(_form_pairs(arity, data.draw(st.booleans())), max_size=5))
        refs = [r for _, r in drawn]
        order = sorted(range(len(refs)), key=lambda k: refs[k].sort_key())
        assert _form_order([f for f, _ in drawn]) == order


def test_parser_forms_match_fraction_reference():
    """The Gaussian forms the parser builds for a denominator factor."""
    spec = dsl.parse_problem(
        "vars x y; cone (1,0) (0,1);"
        "den ((1+i)*x - (2/3)*y + 3 - i/2) (-(1/2)*x + (2-i)*y) (-x + (3/4)*y - 2 + 5*i);"
    )
    env = spec._environment()
    forms = [dsl._eval(expr, env, 2) for expr, _ in spec.denominator]
    assert all(c.__class__ is GaussianRational for f in forms for c in f.coeffs)
    refs = [FractionForm(f.coeffs, f.const) for f in forms]
    with working_precision(128):
        for k, (form, ref) in enumerate(zip(forms, refs)):
            pole_form, pole_ref = forms[k - 1], refs[k - 1]
            assert _same(form.normalized()[0], ref.normalized()[0])
            for var in range(2):
                pole, ref_pole = pole_form.solve_for(var), pole_ref.solve_for(var)
                assert _same(pole, ref_pole)
                assert _same(form.restrict(var, pole), ref.restrict(var, ref_pole))
        order = sorted(range(3), key=lambda k: refs[k].sort_key())
        assert _form_order(forms) == order


def test_zero_denominator_rejected():
    with working_precision(128):
        f = ExpRationalFunction.from_parts(
            2, denom=[(AffineForm.make([1, -1], 0), 1)]
        )
        with pytest.raises(IdenticallyZeroDenominator):
            substitute_affine(f, 0, AffineForm.make([0, 1], 0))
        with pytest.raises(IdenticallyZeroDenominator):
            ExpRationalFunction.from_parts(1, denom=[(AffineForm.make([0], 0), 1)])


def test_pole_hit_on_evaluation():
    with working_precision(128):
        f = ExpRationalFunction.from_parts(1, denom=[(AffineForm.make([1], -1), 1)])
        with pytest.raises(PoleHit):
            f.evaluate([1])


def test_pole_hit_exactly_on_a_pole():
    """A point exactly on x = 5y, its coordinates near 10^50: rounded at
    128 bits, x - 5y would miss the pole by far more than 2^-64, and
    substituted exactly it hits it."""
    f = ExpRationalFunction.from_parts(2, denom=[(AffineForm.make([1, -5], 0), 1)])
    y = Fraction(10**50, 3)
    with working_precision(128):
        assert abs(to_mpc(5 * y) - 5 * to_mpc(y)) > 1
        with pytest.raises(PoleHit):
            f.evaluate([5 * y, y])


def test_point_near_a_pole_gets_its_value():
    """1/(x - 1) at x = 1 + 2^-100, nearer the pole than 2^-(prec/2) at
    128 bits, is 2^100, substituted exactly and rounded once."""
    f = ExpRationalFunction.from_parts(1, denom=[(AffineForm.make([1], -1), 1)])
    with working_precision(512):
        want = 1 / (mpf(1) + mpf(2) ** -100 - 1)
    with working_precision(128):
        got = f.evaluate([mpf(1) + mpf(2) ** -100])
    assert abs(got - want) <= mpf("1e-25") * abs(want)


def test_differentiate_skips_a_zero_gaussian_slope(monkeypatch):
    """d/dy of exp(i x) / ((x - i)(y - i)), the exponent's y slope a
    GaussianRational 0, makes one term and builds no other: a zero slope
    is skipped whatever its type."""
    i = GaussianRational(0, 1)
    f = ExpRationalFunction.from_parts(
        2,
        expo=AffineForm((i, GaussianRational.of(0)), 0),
        denom=[(AffineForm.make([1, 0], -i), 1), (AffineForm.make([0, 1], -i), 1)],
    )
    calls, make = [], Term.make
    monkeypatch.setattr(Term, "make", lambda *args: calls.append(args) or make(*args))
    (term,) = f.differentiate(1).terms
    assert len(calls) == 1
    assert sorted(m for _, m in term.denom) == [1, 2]


def test_fraction_scalars_are_exact():
    with working_precision(128):
        f = ExpRationalFunction.from_parts(
            1, coeff=Fraction(1, 3), denom=[(AffineForm.make([3], mpc(0, 1)), 1)]
        )
        (term,) = f.terms
        # monic normalization moved the 3 into the coefficient: 1/3 / 3 = 1/9
        assert abs(term.coeff - mpf(1) / 9) < mpf(10) ** -35


def residue_by_differentiation(f, var, pole):
    """Coefficient of (z_var - pole)^{-1} as the (order - 1)-th derivative.

    Differentiates each term's regular part order - 1 times, substitutes the
    pole and divides by (order - 1)!; no like terms are merged.
    """
    insert = [pole if i == var else unit_form(f.arity, i) for i in range(f.arity)]
    result = ExpRationalFunction.zero(f.arity - 1)
    for t in f.terms:
        coeff = t.coeff
        order = 0
        kept = []
        for form, mult in t.denom:
            if form.compose(insert).is_zero():
                coeff = coeff / (form.coeffs[var] ** mult)
                order += mult
            else:
                kept.append((form, mult))
        if order == 0:
            continue
        g = ExpRationalFunction(f.arity, [Term.make(coeff, t.poly, t.expo, kept)])
        for _ in range(order - 1):
            g = g.differentiate(var)
        g = substitute_affine(g, var, pole).scale(
            Fraction(1, math.factorial(order - 1))
        )
        result = result.add(g)
    return result


def gaussian_ints():
    return st.builds(mpc, small_ints, small_ints)


@st.composite
def residue_cases(draw):
    """(f, var, pole, point): up to 3 variables, pole order <= 3, up to 3
    kept factors, polynomials of degree <= 2, z_var in every exponent."""
    arity = draw(st.integers(1, 3))
    var = draw(st.integers(0, arity - 1))
    pole = AffineForm.make(
        [0 if i == var else draw(small_ints) for i in range(arity)],
        draw(gaussian_ints()),
    )
    # vanishing factors a (z_var - pole), multiplicities summing to the order
    order = draw(st.integers(1, 3))
    denom = []
    while order:
        mult = draw(st.integers(1, order))
        order -= mult
        a = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        coeffs = [-a * c for c in pole.coeffs]
        coeffs[var] = a
        denom.append((AffineForm.make(coeffs, -a * pole.const), mult))
    vanishing = len(denom)
    for _ in range(draw(st.integers(0, 3))):
        coeffs = [draw(small_ints) for _ in range(arity)]
        const = mpc(draw(small_ints), 1 + abs(draw(small_ints)))
        denom.append((AffineForm.make(coeffs, const), draw(st.integers(1, 2))))
    monomials = [e for e in itertools.product(range(3), repeat=arity) if sum(e) <= 2]
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        poly = draw(
            st.dictionaries(
                st.sampled_from(monomials), gaussian_ints(), min_size=1, max_size=3
            )
        )
        expo = [mpc(0, draw(small_ints)) for _ in range(arity)]
        expo[var] = mpc(0, draw(st.sampled_from([-2, -1, 1, 2])))
        terms.append(
            Term.make(
                draw(gaussian_ints()),
                Polynomial(arity, poly),
                AffineForm.make(expo, 0),
                denom,
            )
        )
    point = [mpf(draw(small_ints)) / 3 for _ in range(arity)]
    point[var] = pole.evaluate(point)
    # the kept factors stay clear of the point, which lies on the pole
    assume(all(abs(form.evaluate(point)) > mpf(1) / 4 for form, _ in denom[vanishing:]))
    rest = point[:var] + point[var + 1 :]
    return ExpRationalFunction(arity, terms), var, pole, rest


@given(residue_cases())
@settings(max_examples=80, deadline=None)
def test_series_residue_matches_differentiation(case):
    with working_precision(128):
        f, var, pole, point = case
        got = f.residue_1d(var, pole).evaluate(point)
        want = residue_by_differentiation(f, var, pole).evaluate(point)
        assert abs(got - want) <= mpf("1e-25") * max(mpf(1), abs(want))


def five_factor_order_four_pole():
    """1 / ((z0 - z1 - i)^4 prod_{k=1..5} (z0 + k z1)) in z0."""
    pole_factor = AffineForm.make([1, -1], mpc(0, -1))
    denom = [(pole_factor, 4)]
    denom += [(AffineForm.make([1, k], 0), 1) for k in range(1, 6)]
    return ExpRationalFunction.from_parts(2, denom=denom), pole_factor.solve_for(0)


def test_series_residue_term_count():
    """Constant numerator, order-4 pole, 5 kept factors: C(7, 4) terms.

    Only exponent patterns (j_1..j_5) with sum 3 survive; differentiating
    three times instead gives 5^3 terms.
    """
    with working_precision(128):
        f, pole = five_factor_order_four_pole()
        res = f.residue_1d(0, pole)
        assert len(res.terms) == math.comb(7, 4) == 35
        slow = residue_by_differentiation(f, 0, pole)
        assert len(slow.terms) == 5**3
        t = [mpc("0.3", "0.1")]
        assert abs(res.evaluate(t) - slow.evaluate(t)) <= mpf("1e-25") * abs(
            slow.evaluate(t)
        )


def test_term_budget(monkeypatch):
    with working_precision(128):
        f, pole = five_factor_order_four_pole()
        monkeypatch.setattr(symfun, "MAX_RESIDUE_TERMS", 35)
        assert len(f.residue_1d(0, pole).terms) == 35
        monkeypatch.setattr(symfun, "MAX_RESIDUE_TERMS", 34)
        with pytest.raises(TermBudgetExceeded, match="more than 34 terms"):
            f.residue_1d(0, pole)


def test_like_terms_merge():
    """Terms that differ only in their polynomial leave one term."""
    with working_precision(128):
        w = mpc(0, 1)
        denom = [(AffineForm.make([1, 0], -w), 1), (AffineForm.make([1, 1], 2), 1)]
        f = ExpRationalFunction.from_parts(
            2, poly=Polynomial(2, {(1, 0): to_mpc(1)}), denom=denom
        ).add(ExpRationalFunction.from_parts(2, coeff=3, denom=denom))
        res = f.residue_1d(0, AffineForm.constant(2, w))
        # (z0 + 3) / (z0 + z1 + 2) at z0 = i
        assert len(res.terms) == 1
        z1 = mpc("0.5", "-0.25")
        assert abs(res.evaluate([z1]) - (w + 3) / (w + z1 + 2)) < mpf(10) ** -30


@st.composite
def _coincident_data(draw, extra=(0, 2), max_mult=3):
    """Hyperplanes f . z = i f . c through one point i c in 2 or 3
    variables, r plus ``extra`` of them, whose first r rows have nonzero
    leading minors (a soluble flag in the identity chart), multiplicities
    <= ``max_mult``, and a numerator coeff * exp(i w . z) with w = 0
    sometimes."""
    r = draw(st.integers(2, 3))
    c = draw(st.lists(st.integers(1, 2), min_size=r, max_size=r))
    row = st.tuples(*[st.integers(-2, 2)] * r).filter(
        lambda f: sum(a * b for a, b in zip(f, c)) > 0
    )
    rows = draw(st.lists(row, min_size=r + extra[0], max_size=r + extra[1], unique=True))
    assume(all(determinant(matrix([f[: k + 1] for f in rows[: k + 1]])) for k in range(r)))
    mult = draw(st.lists(st.integers(1, max_mult), min_size=len(rows), max_size=len(rows)))
    freq = draw(st.lists(st.integers(-1, 1), min_size=r, max_size=r) | st.just([0] * r))
    coeff = draw(_small_gaussians.filter(bool))
    s = [sum(a * b for a, b in zip(f, c)) for f in rows]
    return r, rows, s, mult, freq, coeff


def _coincident_residue(
    data, step=ExpRationalFunction.residue_1d, poly: Polynomial | None = None
) -> list:
    """The iterated residue along the first r hyperplanes, as the engine's
    chart steps take it: the function left after each ``step``.  The
    numerator is coeff * poly * exp(i w . z), poly 1 unless given."""
    r, rows, s, mult, freq, coeff = data
    forms = [AffineForm(f, GaussianRational(0, -v)) for f, v in zip(rows, s)]
    expo = AffineForm(tuple(GaussianRational(0, w) for w in freq), 0)
    func = ExpRationalFunction.from_parts(
        r, coeff=coeff, poly=poly, expo=expo, denom=zip(forms, mult)
    )
    poles, steps = [], []
    for form in forms[:r]:
        for pole in poles:
            form = form.restrict(0, pole)
        poles.append(form.solve_for(0))
        steps.append(step(steps[-1] if steps else func, 0, poles[-1]))
    return steps


# numerator polynomials in the first two variables: none (1), a constant,
# and polynomials in the variable of the first residue step
_NUMERATORS = [{}, {(0, 0): GaussianRational(2, -1)}, {(2, 0): 1}, {(2, 0): 1, (0, 1): 3}]


@given(_coincident_data(extra=(1, 5), max_mult=4), st.sampled_from(_NUMERATORS))
@settings(max_examples=40, deadline=None)
def test_folded_steps_match_per_factor_steps(data, poly):
    """On 3 to 8 hyperplanes through one point, multiplicities <= 4, each
    residue step that folds a denominator class into one series
    (``residue_1d``) leaves as many terms, after like terms merge, as the
    step that expands every kept factor on its own
    (``reference.per_factor_residue``), and the iterated residues are equal
    exactly: ``constant_sum`` of their difference has no term.  So it is
    with a constant numerator, which an exact step carries in its
    coefficients, and with a polynomial one such as x^2 exp(i y), which it
    expands in its Taylor chain."""
    r = data[0]
    numerator = Polynomial(r, {e + (0,) * (r - 2): v for e, v in poly.items()}) if poly else None
    folded = _coincident_residue(data, poly=numerator)
    expanded = _coincident_residue(data, step=per_factor_residue, poly=numerator)
    assert [len(f.terms) for f in folded] == [len(f.terms) for f in expanded]
    assert list(map(_exact_terms, folded)) == list(map(_exact_terms, expanded))
    assert symfun.constant_sum([folded[-1], expanded[-1].scale(-1)]).is_zero()


_series_slopes = _small_gaussians | st.just(GaussianRational(0))


@given(
    st.lists(
        st.tuples(_small_gaussians.filter(bool), _series_slopes, st.integers(1, 4)),
        min_size=1,
        max_size=5,
    ),
    st.integers(0, 12),
)
@settings(max_examples=100, deadline=None)
def test_integer_class_series_matches_power_sum_recurrence(parts, n):
    """The class series of a step (``_gaussian_series``, on Gaussian
    integers) equals, entry for entry, the power-sum recurrence in the
    GaussianRationals' own arithmetic (``reference.power_series``): for
    1-5 factors (lead, slope, m), leads with denominators, some slopes 0."""
    exact = symfun._gaussian_series(parts, n)
    assert exact == power_series(parts, n)
    assert len(exact) == (n + 1 if any(a for _, a, _ in parts) else 1)


def _exact_terms(f: ExpRationalFunction) -> dict:
    """An exact function's terms by exponent and denominator, each as its
    coefficient times its polynomial."""
    return {
        (t.expo, t.denom): {
            e: t.coeff * v for e, v in t.poly.items()
        }
        for t in f.terms
    }


@given(
    st.floats(allow_nan=False, allow_infinity=False)
    | st.complex_numbers(allow_nan=False, allow_infinity=False)
    | st.sampled_from([mpf("0.1"), mpc("1e-30", "-7.5"), mpf(2) ** 1000, +mp.pi]),
    st.sampled_from([53, 128, 256]),
)
@settings(max_examples=100, deadline=None)
def test_to_exact_takes_the_binary_value(x, prec):
    """``to_exact`` gives a float, complex, mpf or mpc as the GaussianRational
    of its binary value: the Fractions Python and mpmath read off it, and
    rounded back, the same bits at any precision."""
    with working_precision(prec):
        got = symfun.to_exact(x)
        z = mpmath.mpmathify(x)
        parts = (Fraction(*to_rational(part._mpf_)) for part in (z.real, z.imag))
        assert got == GaussianRational(*parts)
    with working_precision(max(prec, 1200)):
        assert to_mpc(got) == z


def test_to_exact_refuses_what_it_cannot_hold():
    """Exact scalars pass unchanged; a value that is not finite, or whose
    binary exponent is past MAX_EXACT_BITS either way, is refused."""
    for x in (3, Fraction(1, 3), GaussianRational(1, 2)):
        assert symfun.to_exact(x) is x
    with working_precision(128):
        big = mpf(2) ** (symfun.MAX_EXACT_BITS + 1)
        for x in (float("inf"), complex(0, float("nan")), big, 1 / big):
            with pytest.raises(symfun.UnrepresentableScalar):
                symfun.to_exact(x)
