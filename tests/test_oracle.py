"""Oracle tests: quadrature against closed forms, arc diagnostics, tori.

Reference values come from elementary calculus (arctangent, Jordan-lemma
integrals), from the worked closed forms shared with the engine tests,
and for the oscillatory line integral also from mpmath's independent
infinite-interval oscillatory quadrature.
"""

import itertools
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import exp, mpc, mpf, pi

from conftest import (
    CONE_UPPER,
    coincident_point_problem,
    cone,
    disguise,
    h_partials,
    single_pole_problem,
    three_plane_problem,
    three_plane_value,
)
from residuum import oracle
from residuum.arrangement import Arrangement, Flag, Polyhedron, canonicalize_hyperplane
from residuum.dsl import parse_problem
from residuum.exact_linalg import RationalMatrix, determinant, inverse
from residuum.oracle import (
    BudgetExceeded,
    ForeignPoleInsideTorus,
    NonDecaying,
    PoleOnArc,
    QuadratureReport,
    quad_integral,
    semicircle_check,
    torus_residue,
)
from residuum.residue_engine import evaluate_integral, iterated_residue
from residuum.symfun import (
    AffineForm,
    ExpRationalFunction,
    Polynomial,
    Term,
    working_precision,
)


def oscillatory_line_problem(c=1):
    """exp(icx) / (x^2 + 1) presented with the two aligned hyperplanes."""
    base = single_pole_problem()
    num = ExpRationalFunction.from_parts(
        1, coeff=-1, expo=AffineForm.make([mpc(0, c)], 0)
    )
    return Arrangement.build(1, base.hyperplanes, numerator=num)


def test_quad_arctangent_line():
    arr = single_pole_problem()
    report = quad_integral(arr)
    err = abs(report.estimate - pi)
    assert err < mpf("1e-10")
    assert err <= report.error_bound + report.tail_estimate + mpf("1e-14")
    assert report.nodes_per_axis <= 4096
    again = quad_integral(arr)
    assert again.estimate == report.estimate


def test_quad_oscillatory_line():
    arr = oscillatory_line_problem(1)
    report = quad_integral(arr)
    # closed form pi/e, checked against an independent quadrature too
    closed = pi / exp(1)
    with mpmath.workdps(30):
        ref = 2 * mpmath.quadosc(
            lambda x: mpmath.cos(x) / (x * x + 1),
            [0, mpmath.inf],
            period=2 * mpmath.pi,
        )
    assert abs(ref - closed) < mpf("1e-12")
    assert abs(report.estimate - closed) < mpf("1e-8")
    assert abs(report.estimate - closed) <= report.error_bound + report.tail_estimate


def test_quad_three_plane_values():
    for n1, n2 in ((2, 3), (5, 5)):
        arr = three_plane_problem(n1, n2)
        closed = three_plane_value(n1, n2)
        report = quad_integral(arr)
        diff = abs(report.estimate - closed)
        assert diff < mpf("1e-4") * max(mpf(1), abs(closed))
        assert diff <= report.error_bound + report.tail_estimate


def test_quad_coincident_point():
    arr = coincident_point_problem()
    dx, _ = h_partials()
    closed = (2 * pi * mpc(0, 1)) ** 2 * dx
    report = quad_integral(arr)
    assert abs(report.estimate - closed) / abs(closed) < mpf("1e-3")


def _product_problem(r):
    """prod_k 1/(x_k^2 + 1), each factor as (x_k - i)(-x_k - i): no
    oscillation, value pi^r."""
    hps = []
    for j in range(r):
        unit = [Fraction(int(k == j)) for k in range(r)]
        hps.append(canonicalize_hyperplane(unit, -mpc(0, 1)))
        hps.append(canonicalize_hyperplane([-u for u in unit], -mpc(0, 1)))
    num = ExpRationalFunction.from_parts(r, coeff=(-1) ** r)
    return Arrangement.build(r, hps, numerator=num)


def test_quad_three_variable_product():
    """The aligned product in three variables converges at box 5 on the
    3-axis tensor grid."""
    report = quad_integral(_product_problem(3), box=5.0)
    err = abs(report.estimate - pi**3)
    assert err < mpf("1e-12") * pi**3
    assert err <= report.error_bound


def test_quad_three_variable_budget_at_default_box():
    """At box 50 the tan map needs more nodes than the 256 per axis that the
    default budget allows in three variables: a clean BudgetExceeded."""
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="within 256 nodes per axis"):
        quad_integral(_product_problem(3))
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("r", [1, 2, 3])
def test_axis_cap_is_the_largest_admissible(r):
    """Nodes per axis: the largest n <= budget with n**r <= budget**2."""
    for budget in (1, 2, 7, 64, 255, 4096, 4097, 10**6):
        n = oracle._axis_cap(budget, r)
        assert n <= budget and n**r <= budget**2
        assert n == budget or (n + 1) ** r > budget**2
    assert oracle._axis_cap(4096, r) == (4096 if r < 3 else 256)


def _coincident_3d_problem():
    """Six simple planes through the point (2i, 2i, 2i), constant numerator:
    f_j(v) = i s_j with s_j = 2 (f_j1 + f_j2 + f_j3)."""
    rows = ((2, 2, -1), (-1, 2, 1), (2, 1, 1), (2, -1, 2), (1, 0, 1), (0, 1, 2))
    hps = [canonicalize_hyperplane(row, -mpc(0, 2 * sum(row))) for row in rows]
    return Arrangement.build(3, hps)


def test_quad_three_variable_coincident_point():
    """The oracle confirms the certified value of a three-variable problem
    at the default box, as verify would."""
    arr = _coincident_3d_problem()
    result = evaluate_integral(arr, cone((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert result.certificate.certified
    report = quad_integral(arr)
    tol = oracle.DEFAULT_TOL
    assert abs(result.value - report.estimate) <= tol * max(1, abs(result.value))


def _sheared_product_problem():
    """1/(((v1 + v2)^2 + 1)(v2^2 + 1)), value pi^2: a ridge along the
    diagonal of the v grid."""
    rows = ([1, 1], [-1, -1], [0, 1], [0, -1])
    return Arrangement.build(2, [canonicalize_hyperplane(f, -mpc(0, 1)) for f in rows])


def test_quad_sheared_product():
    """In v coordinates the tan-mapped sums of this product tend to 2 pi^2;
    in the hyperplanes' own coordinates it is a product of two lines."""
    report = quad_integral(_sheared_product_problem())
    assert abs(report.estimate - pi**2) < mpf("1e-9") * pi**2


@pytest.mark.parametrize(
    "problem",
    [
        lambda: three_plane_problem(2, 3),
        coincident_point_problem,
        _sheared_product_problem,
        _coincident_3d_problem,
    ],
    ids=["three_plane", "coincident_point", "sheared_product", "coincident_3d"],
)
def test_quad_invariant_under_disguise(problem):
    """A det-1 substitution and a renaming of the hyperplanes change neither
    the chosen chart nor the integrand in it, so neither the nodes nor the
    estimate."""
    arr = problem()
    report = quad_integral(arr)
    for seed in range(3):
        other = quad_integral(disguise(arr, seed))
        assert other.nodes_per_axis == report.nodes_per_axis
        assert abs(other.estimate - report.estimate) <= 1e-12 * abs(report.estimate)


def _brute_force_chart(arr):
    """_hyperplane_chart by exhaustion, its reference: a determinant, an
    inverse and a _chart_key for every ordered r-tuple of rows."""
    rows = [h.f_row() for h in arr.hyperplanes]
    charts = [RationalMatrix.from_rows(p) for p in itertools.permutations(rows, arr.dim)]
    dets = [abs(determinant(m)) for m in charts]
    top = max(dets, default=0)
    if top == 0:
        raise NonDecaying("the hyperplanes do not span the space")
    cands = [inverse(m) for m, d in zip(charts, dets) if d == top]
    cands = [Polyhedron(tuple(zip(*inv.entries))) for inv in cands]
    return min(cands, key=lambda chart: oracle._chart_key(arr, chart))


_CHART_PROBLEMS = {
    "three_plane": lambda: three_plane_problem(2, 3),
    "coincident_point": coincident_point_problem,
    "sheared_product": _sheared_product_problem,
    "coincident_3d": _coincident_3d_problem,
    "product_2": lambda: _product_problem(2),
    "product_3": lambda: _product_problem(3),
}


@pytest.mark.parametrize("problem", list(_CHART_PROBLEMS.values()), ids=list(_CHART_PROBLEMS))
def test_hyperplane_chart_matches_brute_force(problem):
    """One determinant and one inverse per set of r rows pick the same
    chart, to the exact inverse, as trying every ordering of every set."""
    arr = problem()
    for other in [arr] + [disguise(arr, seed) for seed in range(2)]:
        assert oracle._hyperplane_chart(other) == _brute_force_chart(other)


@st.composite
def _chart_arrangement(draw):
    """Up to 6 hyperplanes with small integer rows, often with tied |det|,
    and a numerator with a polynomial and an oscillating exponential."""
    r = draw(st.integers(1, 3))
    hps, mults = [], []
    for _ in range(draw(st.integers(r, 6))):
        row = [draw(st.integers(-2, 2)) for _ in range(r)]
        if not any(row):
            row[0] = 1
        s = mpc(draw(st.sampled_from([1, 2])), draw(st.sampled_from([0, 1])))
        hps.append(canonicalize_hyperplane(row, -mpc(0, 1) * s))
        mults.append(draw(st.integers(1, 2)))
    monomials = [e for e in np.ndindex(*(3,) * r) if sum(e) <= 2]
    poly = {
        e: mpc(draw(_small), draw(_small))
        for e in draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3))
    }
    expo = AffineForm.make([mpc(0, draw(_small)) for _ in range(r)], 0)
    num = ExpRationalFunction.from_parts(r, poly=Polynomial(r, poly), expo=expo)
    return Arrangement.build(r, hps, numerator=num, multiplicities=mults)


def _chart_or_error(chart, arr):
    try:
        return chart(arr)
    except NonDecaying:
        return NonDecaying


@given(_chart_arrangement())
@settings(max_examples=40, deadline=None)
def test_hyperplane_chart_matches_brute_force_on_draws(arr):
    assert _chart_or_error(oracle._hyperplane_chart, arr) == _chart_or_error(
        _brute_force_chart, arr
    )


def test_hyperplane_chart_one_determinant_per_row_set(monkeypatch):
    """At most C(R, r) exact determinants: one per set of r rows, not one
    per ordering (20 against 120 for six planes in three variables)."""
    real = oracle.determinant
    calls = []

    def counting(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(oracle, "determinant", counting)
    for problem in _CHART_PROBLEMS.values():
        arr = problem()
        calls.clear()
        oracle._hyperplane_chart(arr)
        assert 0 < len(calls) <= math.comb(len(arr.hyperplanes), arr.dim)


def test_shell_tail_bounds_dense_face_peak():
    """The mass bound past a 3-D box rests on the integrand's peak over the
    whole of each face.  Here that peak lies off the faces' diagonals: on
    the faces v2 = 2 and v3 = -2, at the other coordinates (0, -1) and
    (0, 1).  tail_estimate is at least the bound that the peak of a
    401 x 401 grid on every face gives, up to the 64-point grid's offset
    from the peak."""
    edge, decay = 2.0, 5

    def fn(p):
        return 1 / ((p[0] - 0.5j) * (p[1] - 1 - 0.5j) * (p[2] + 1 - 0.5j))

    side = np.linspace(-edge, edge, 401)
    a, b = (m.ravel() for m in np.meshgrid(side, side, indexing="ij"))
    peak = 0.0
    for j in range(3):
        for sign in (-1.0, 1.0):
            free = [a, b]
            free.insert(j, np.full(a.size, sign * edge))
            peak = max(peak, float(np.max(np.abs(fn(np.stack(free))))))
    bound = peak * 3 * 2.0**3 * edge**3 / (decay - 3)
    assert oracle._shell_tail(fn, 3, edge, decay) >= 0.99 * bound


def test_quad_rejects_nondecaying():
    thin = Arrangement.build(
        2,
        [
            canonicalize_hyperplane([Fraction(1), Fraction(0)], -mpc(0, 1)),
            canonicalize_hyperplane([Fraction(0), Fraction(1)], -mpc(0, 1)),
        ],
    )
    with pytest.raises(NonDecaying):
        quad_integral(thin)

    base = single_pole_problem()
    grower = Arrangement.build(
        1,
        base.hyperplanes,
        numerator=ExpRationalFunction.from_parts(
            1, coeff=-1, expo=AffineForm.make([1], 0)
        ),
    )
    with pytest.raises(NonDecaying):
        quad_integral(grower)


@pytest.mark.parametrize(
    "kwargs",
    [{"box": 0.0}, {"box": -5.0}, {"box": math.inf}, {"tol": 0.0},
     {"tol": -1.0}, {"tol": math.inf}, {"tol": math.nan}],
)
def test_quad_rejects_out_of_range_box_and_tol(kwargs):
    with pytest.raises(ValueError):
        quad_integral(single_pole_problem(), **kwargs)


def test_quad_budget_guard():
    arr = oscillatory_line_problem(200)
    with pytest.raises(BudgetExceeded):
        quad_integral(arr, node_budget=64)


def test_no_large_gauss_rule(monkeypatch):
    """Only the 12-point arc panels use Gauss-Legendre nodes; every full-line
    and windowed integral is a trapezoid sum."""
    import numpy

    real = numpy.polynomial.legendre.leggauss

    def small_only(deg):
        if deg > 12:
            raise AssertionError(f"leggauss({deg}) called")
        return real(deg)

    monkeypatch.setattr(numpy.polynomial.legendre, "leggauss", small_only)
    quad_integral(single_pole_problem())
    # past the default budget too: a degree no earlier call has asked for
    with pytest.raises(BudgetExceeded):
        quad_integral(single_pole_problem(), box=1e4, node_budget=8192)
    quad_integral(oscillatory_line_problem(1))
    quad_integral(three_plane_problem(2, 3), box=5.0)
    func = _one_var_function(
        denom=(
            (AffineForm.make([1], -mpc(0, 1)), 1),
            (AffineForm.make([1], mpc(0, 1)), 1),
        )
    )
    semicircle_check(func, (10, 100))


def _reference_closure(func):
    """The integrand evaluated one linear factor at a time, the differential
    reference for the blocked kernel: each form is a matrix product, each
    power a complex power, each factor a complex division, and every
    intermediate a full-size array."""
    specs = oracle._term_specs(func)

    def evaluate(points):
        n = points.shape[1]
        out = np.zeros(n, dtype=np.complex128)
        for coeff, poly, expo, expo_0, denom in specs:
            val = coeff
            if poly is not None:
                acc = np.zeros(n, dtype=np.complex128)
                for e, v in poly:
                    mono = np.full(n, v, dtype=np.complex128)
                    for j, p in enumerate(e):
                        if p:
                            mono = mono * points[j] ** p
                    acc += mono
                val = np.multiply(coeff, acc, out=acc)
            if expo is not None:
                phase = np.exp(expo @ points + expo_0)
                val = np.multiply(val, phase, out=phase)
            for row, const, mult in denom:
                lin = row @ points + const
                if mult > 1:
                    lin = lin**mult
                val = np.divide(val, lin, out=lin)
            out += val
        return out

    return evaluate


_small = st.integers(min_value=-3, max_value=3)
# block sizes: a few points, a few rows, the default, and more than any grid
_BLOCKS = [7, 100, 32_768, 1_000_000]


@st.composite
def _grid_case(draw, factors="any"):
    """An exp-rational function of r <= 3 variables, a tensor grid, a block
    size, and an imaginary shift for the pointwise evaluation.

    factors "any" draws 0-2 linear factors per term with free rows;
    "single" draws 1-3 whose rows have one nonzero entry each, and "mixed"
    draws 1-3 of either kind.
    """
    r = draw(st.integers(min_value=1, max_value=3))
    monomials = [e for e in np.ndindex(*(3,) * r) if sum(e) <= 2]
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        poly = {
            e: mpc(draw(_small), draw(_small))
            for e in draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3))
        }
        # purely imaginary exponent coefficients plus a constant
        expo = AffineForm.make(
            [mpc(0, draw(_small)) for _ in range(r)],
            mpc(draw(_small) / 4, draw(_small)),
        )
        denom = []
        low = 0 if factors == "any" else 1
        for _ in range(draw(st.integers(min_value=low, max_value=low + 2))):
            if factors == "single" or (factors == "mixed" and draw(st.booleans())):
                row = [0] * r
                row[draw(st.integers(0, r - 1))] = draw(_small.filter(bool))
            else:
                row = [draw(_small) for _ in range(r)]
                if not any(row):
                    row[0] = 1
            # an imaginary offset keeps every real point off the factor
            offset = mpc(draw(_small), draw(st.sampled_from([-2, -1, 1, 2])))
            denom.append((AffineForm.make(row, offset), draw(st.integers(1, 3))))
        terms.append(
            Term.make(mpc(draw(_small), 1), Polynomial(r, poly), expo, denom)
        )
    choices = [
        oracle._tan_axis(2.0, 24),
        oracle._window_axis(3.0, 30),
        oracle._window_axis(1.0, 17),
        oracle._tan_axis(5.0, 190),
    ]
    # three axes of 190 nodes would give the reference 7 million points
    axes = [draw(st.sampled_from(choices[: 3 if r == 3 else 4])) for _ in range(r)]
    block = draw(st.sampled_from(_BLOCKS))
    # imaginary parts up to 0.1 per coordinate move no factor's imaginary
    # part, at least 1 on real points, by more than 0.6
    shift = draw(st.sampled_from([0.0, 0.1]))
    return ExpRationalFunction(r, terms), axes, block, shift


def _grid_points(axes):
    """The tensor grid as (r, N) points, and the product weight of each."""
    mesh = np.meshgrid(*[nodes for nodes, _ in axes], indexing="ij")
    points = np.stack([m.ravel() for m in mesh]).astype(np.complex128)
    weights = np.ones(points.shape[1])
    for wm in np.meshgrid(*[w for _, w in axes], indexing="ij"):
        weights = weights * wm.ravel()
    return points, weights


def _reference_sum(func, points, weights):
    """The weighted sum through the reference, and the sum of |terms|."""
    total = complex(np.sum(_reference_closure(func)(points) * weights))
    scale = sum(
        float(np.sum(np.abs(
            _reference_closure(ExpRationalFunction(func.arity, [t]))(points) * weights
        )))
        for t in func.terms
    )
    return total, scale


@given(_grid_case())
@settings(max_examples=60, deadline=None)
def test_blocked_kernel_matches_reference(case):
    """The grid sum and the pointwise closure agree with the per-factor
    reference in any block size, whole or partial blocks alike."""
    func, axes, block, shift = case
    points, weights = _grid_points(axes)
    grid = oracle._tensor_sum(oracle._term_specs(func), axes, chunk_points=block)
    expect, scale = _reference_sum(func, points, weights)
    assert abs(grid - expect) <= 1e-12 * scale

    points = points + 1j * shift * np.sin(np.arange(points.size)).reshape(points.shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_BLOCK_POINTS", block)
        values = oracle.compile_numeric(func)(points)
    expect, scale = _reference_sum(func, points, weights)
    assert abs(complex(np.sum(values * weights)) - expect) <= 1e-12 * scale


@given(st.sampled_from(["single", "mixed"]).flatmap(_grid_case))
@settings(max_examples=60, deadline=None)
def test_folded_factors_match_reference(case):
    """Factors that depend on one axis are divided into that axis' vector,
    and a term with no other factor is summed as a product of 1-D sums; the
    grid sum still agrees with the per-factor reference."""
    func, axes, block, _ = case
    points, weights = _grid_points(axes)
    grid = oracle._tensor_sum(oracle._term_specs(func), axes, chunk_points=block)
    expect, scale = _reference_sum(func, points, weights)
    assert abs(grid - expect) <= 1e-12 * scale


def _counting_term_block(monkeypatch):
    """Patch _term_block to record, per call, the factor copies it divides."""
    real = oracle._term_block
    copies = []

    def counting(val, factor, groups, num, den, lin):
        copies.append(sum(c for group in groups for _, c in group))
        return real(val, factor, groups, num, den, lin)

    monkeypatch.setattr(oracle, "_term_block", counting)
    return copies


# a disguised draw: the chart's rows f_j F_B^-1 of the three chosen
# hyperplanes are exact unit vectors, but f_j times a normalized
# F_B^-1 is not
_DISGUISED_DRAW = (
    "vars v1 v2 v3; cone (1,0,0) (-1,1,0) (-1,1,1); "
    "den (v1 + 2*v2 - 2*v3 - 2*i) (-2*v1 - v2 - v3 - 2*i) (-v1 + v2 - 2*i) "
    "(2*v1 + 3*v2 + v3 - 1*i) (v1 + v2 + v3 - 4*i) (v1 - v3 - 1*i);"
)


def test_only_coupled_factors_stay_per_point(monkeypatch):
    """In the chosen hyperplanes' coordinates their own factors depend on
    one axis each, because the chart rows are exact: the r=3 product needs
    no per-point kernel at all, three_plane_problem keeps one factor per
    point, its third hyperplane, and each of a disguised draw's three chosen
    factors has one nonzero entry."""
    copies = _counting_term_block(monkeypatch)
    report = quad_integral(_product_problem(3), box=5.0)
    assert abs(report.estimate - pi**3) < mpf("1e-12") * pi**3
    assert copies == []

    arr = three_plane_problem(2, 3)
    func = arr.integrand_in(oracle._hyperplane_chart(arr))
    oracle._tensor_sum(oracle._term_specs(func), [oracle._window_axis(5.0, 300)] * 2)
    assert copies and set(copies) == {1}

    with working_precision(128):
        arr = parse_problem(_DISGUISED_DRAW).arrangement()
        func = arr.integrand_in(oracle._hyperplane_chart(arr))
    ((*_, denom),) = oracle._term_specs(func)
    assert sorted(np.count_nonzero(row) for row, _, _ in denom) == [1, 1, 1, 3, 3, 3]


def test_folded_factors_stay_in_float64_range(monkeypatch):
    """Two axes; axis 0 carries 8 factors of multiplicity 16 whose product
    is 1e-365 to 1e-352 on its nodes, so folding every copy into g_0 would
    take it past 2**960.  The copies that would do so stay per point, and
    the sum stays finite and matches the reference."""
    x0, w0 = oracle._tan_axis(1e-4, 16)
    offsets = [mpc(0, mpf("1e-3") * (1 + mpf(k) / 8)) for k in range(8)]
    denom = [(AffineForm.make([1, 0], -c), 16) for c in offsets]
    denom.append((AffineForm.make([0, 1], -mpc(0, 1)), 2))
    func = ExpRationalFunction.from_parts(2, coeff=mpf("1e-100"), denom=denom)
    axes = [(x0, w0), oracle._tan_axis(1.0, 24)]
    folded = np.log2(w0) - 16 * sum(np.log2(np.abs(x0 - complex(c))) for c in offsets)
    assert folded.max() > oracle._RANGE_EXP

    copies = _counting_term_block(monkeypatch)
    grid = oracle._tensor_sum(oracle._term_specs(func), axes)
    assert copies and all(0 < c < 8 * 16 for c in copies)
    assert math.isfinite(abs(grid))
    expect, scale = _reference_sum(func, *_grid_points(axes))
    assert math.isfinite(scale)
    assert abs(grid - expect) <= 1e-12 * scale


@pytest.mark.parametrize("case", ["overflow", "underflow"])
def test_factor_products_stay_in_float64_range(case):
    """A term may carry 8 linear factors of multiplicity 16, the DSL's cap
    on a power, whose full product leaves float64's range; the kernel's
    grouped products must not."""
    if case == "overflow":
        # |x| is 8.7e3 to 1.3e5 on the 16 outermost nodes: the product
        # reaches 1e650
        nodes, weights = oracle._tan_axis(50.0, 4096)
        outer = np.r_[0:8, 4088:4096]
        nodes, weights = nodes[outer], weights[outer]
        coeff = 1
        offsets = [mpc(0, k) for k in range(1, 9)]
    else:
        # |x| <= 1e-3 and every factor is 1e-3 to 2.2e-3 in size: the
        # product is 1e-365 to 1e-352, and the coefficient keeps the values
        # between 1e252 and 1e265
        nodes, weights = oracle._tan_axis(1e-4, 16)
        coeff = mpf("1e-100")
        offsets = [mpc(0, mpf("1e-3") * (1 + mpf(k) / 8)) for k in range(8)]
    func = ExpRationalFunction.from_parts(
        1, coeff=coeff, denom=[(AffineForm.make([1], -c), 16) for c in offsets]
    )
    ((_, _, _, _, denom),) = oracle._term_specs(func)
    assert [m for _, _, m in denom] == [16] * 8

    points = nodes[None, :].astype(np.complex128)
    expect = _reference_closure(func)(points)
    assert np.all(np.isfinite(expect))
    values = oracle.compile_numeric(func)(points)
    assert np.all(np.isfinite(values))
    assert np.all(np.abs(values - expect) <= 1e-12 * np.abs(expect))

    grid = oracle._tensor_sum(oracle._term_specs(func), [(nodes, weights)])
    assert math.isfinite(abs(grid))
    total = complex(np.sum(expect * weights))
    assert abs(grid - total) <= 1e-12 * float(np.sum(np.abs(expect * weights)))


def test_factor_groups_isolate_factors_that_may_vanish():
    """On a torus around a pole the pole's factor has no positive lower
    bound on the points' boxes, so each of its copies stands alone; the
    closure still matches the reference there."""
    func = ExpRationalFunction.from_parts(
        1,
        denom=[
            (AffineForm.make([1], -mpc(0, 1)), 3),
            (AffineForm.make([1], mpc(0, 2)), 2),
        ],
    )
    theta = 2.0 * np.pi * np.arange(64) / 64
    points = (1j + 0.1 * np.exp(1j * theta))[None, :]
    specs = oracle._term_specs(func)
    boxes = [oracle._box(x) for x in points]
    groups = oracle._factor_groups(specs[0][4], boxes)
    pole = next(i for i, (_, c, _) in enumerate(specs[0][4]) if c == -1j)
    assert [g for g in groups if any(i == pole for i, _ in g)] == [[(pole, 1)]] * 3
    values = oracle.compile_numeric(func)(points)
    expect = _reference_closure(func)(points)
    assert np.all(np.abs(values - expect) <= 1e-12 * np.abs(expect))


def test_grid_sums_skip_pointwise_closure(monkeypatch):
    """Sums on tensor grids never go through the pointwise closure:
    it sees only the shell-tail points, 64 on each face of the square."""
    real = oracle.compile_numeric
    seen = []

    def counting(func):
        evaluate = real(func)

        def counted(points):
            seen.append(points.shape[1])
            return evaluate(points)

        return counted

    monkeypatch.setattr(oracle, "compile_numeric", counting)
    quad_integral(three_plane_problem(2, 3))
    assert sum(seen) == 4 * 64
    seen.clear()
    report = quad_integral(_product_problem(2))
    assert abs(report.estimate - pi**2) < mpf("1e-6")
    assert seen == []


def test_grid_sums_are_bitwise_repeatable():
    """No BLAS routine takes part in a grid sum, so neither the run nor the
    thread count changes a digit, on two axes or three."""
    for arr in (three_plane_problem(2, 3), _product_problem(3)):
        first = quad_integral(arr, box=5.0)
        second = quad_integral(arr, box=5.0)
        assert first.estimate == second.estimate
        assert first == second


def test_torus_unit_residue():
    arr = Arrangement.build(
        1, [canonicalize_hyperplane([Fraction(1)], -mpc(0, 1))]
    )
    value = torus_residue(arr, (0,), eps=0.1)
    assert abs(value - 1) < mpf("1e-10")


def test_torus_matches_iterated():
    with working_precision(128):
        arr = three_plane_problem(2, 3)
        flag = Flag((0, 2))
        torus = torus_residue(arr, flag.indices)
        chart = iterated_residue(arr, flag, cone(*CONE_UPPER))
        assert abs(torus - chart) < mpf("1e-8") * abs(chart)


def test_torus_matches_iterated_fourth_order_poles():
    """(1 + xy) e^{i(x+2y)} / ((x-i)^4 (y-2i)^4 (x+y-6i)) at (i, 2i).

    Both flag hyperplanes have multiplicity 4, so each residue step expands
    to third order; H3 is a kept factor in both steps.
    """
    with working_precision(128):
        hps = [
            canonicalize_hyperplane([1, 0], mpc(0, -1)),
            canonicalize_hyperplane([0, 1], mpc(0, -2)),
            canonicalize_hyperplane([1, 1], mpc(0, -6)),
        ]
        num = ExpRationalFunction.from_parts(
            2,
            poly=Polynomial(2, {(0, 0): mpc(1), (1, 1): mpc(1)}),
            expo=AffineForm.make([mpc(0, 1), mpc(0, 2)], 0),
        )
        arr = Arrangement.build(2, hps, numerator=num, multiplicities=[4, 4, 1])
        chart = iterated_residue(arr, Flag((0, 1)), cone(*CONE_UPPER))
        torus = torus_residue(arr, (0, 1))
        assert abs(torus - chart) < mpf("1e-9") * abs(chart)


def test_torus_epsilon_independence():
    arr = three_plane_problem(2, 3)
    base = torus_residue(arr, (0, 2))
    for factor in (0.5, 0.25):
        other = torus_residue(arr, (0, 2), eps=[0.1 * factor, 0.1 * factor])
        assert abs(base - other) < mpf("1e-9")


def test_torus_node_doubling_stable():
    arr = three_plane_problem(2, 3)
    coarse = torus_residue(arr, (0, 2), nodes=256)
    fine = torus_residue(arr, (0, 2), nodes=512)
    assert abs(coarse - fine) < mpf("1e-10")


def test_torus_foreign_pole_guard():
    arr = three_plane_problem(2, 3)
    # H2 sits at distance 3 from the (H1, H3) terminal point
    with pytest.raises(ForeignPoleInsideTorus):
        torus_residue(arr, (0, 2), eps=[3.5, 3.5])


def _one_var_function(coeff=1, poly=None, expo=None, denom=()):
    return ExpRationalFunction.from_parts(
        1, coeff=coeff, poly=poly, expo=expo, denom=denom
    )


def test_semicircle_rational_decay():
    func = _one_var_function(
        denom=(
            (AffineForm.make([1], -mpc(0, 1)), 1),
            (AffineForm.make([1], mpc(0, 1)), 1),
        )
    )
    diag = semicircle_check(func, (10, 100, 1000))
    assert diag.trending_to_zero
    assert diag.magnitudes[0] > diag.magnitudes[1] > diag.magnitudes[2]


def test_semicircle_growth_mismatch():
    # second-stage integrand shape with the larger base in front:
    # exp(i ln(2/3) y) blows up on upper arcs
    func = _one_var_function(
        expo=AffineForm.make([mpc(0, 1) * mpmath.log(mpf(2) / 3)], 0),
        denom=(
            (AffineForm.make([1], -mpc(0, 2)), 1),
            (AffineForm.make([-1], -mpc(0, 1)), 1),
        ),
    )
    diag = semicircle_check(func, (10, 30, 90))
    # the arc integrals settle at a nonzero constant (the closing step
    # is invalid), while the integrand itself blows up pointwise
    assert not diag.trending_to_zero
    assert diag.magnitudes[-1] > 0.1
    assert diag.peak_magnitudes[-1] > 1e6 * diag.peak_magnitudes[0]


def test_semicircle_polynomial_numerator():
    func = _one_var_function(
        poly=Polynomial(1, {(1,): mpc(1)}),
        expo=AffineForm.make([mpc(0, 1)], 0),
        denom=(
            (AffineForm.make([1], -mpc(0, 3)), 2),
            (AffineForm.make([1], mpc(0, 5)), 2),
        ),
    )
    up = semicircle_check(func, (10, 30, 90), orientation="upper")
    down = semicircle_check(func, (10, 30, 90), orientation="lower")
    assert up.trending_to_zero
    assert not down.trending_to_zero
    assert down.peak_magnitudes[-1] > 1e6 * down.peak_magnitudes[0]


def test_semicircle_pole_perturbation():
    func = _one_var_function(
        denom=(
            (AffineForm.make([1], -mpc(0, 1)), 1),
            (AffineForm.make([1], mpc(0, 1)), 1),
        )
    )
    diag = semicircle_check(func, (1.0, 10.0))
    assert diag.sampled_radii[0] != 1.0
    assert math.isfinite(diag.magnitudes[0])

    trap = _one_var_function(
        denom=(
            (AffineForm.make([1], -mpc(0, 1)), 1),
            (AffineForm.make([1], -mpc(0, "1.07")), 1),
        )
    )
    with pytest.raises(PoleOnArc):
        semicircle_check(trap, (1.0,))


def test_semicircle_ignores_arcs_below_rounding_floor():
    """1/(z^2 + 1) + 1e-6 (e^{iz} - e^{-iz}): the second part integrates to
    exactly 0 over every arc, since sin is entire and odd, but its arc
    integrand reaches 1e35 at R = 90.  The R = 90 arc sum is float64 noise, far above the
    true 0.035; it sits below its rounding floor and is left out, so the
    decaying arcs at R = 10 and 30 decide."""
    decay = _one_var_function(
        denom=(
            (AffineForm.make([1], -mpc(0, 1)), 1),
            (AffineForm.make([1], mpc(0, 1)), 1),
        )
    )
    one = Polynomial(1, {(0,): mpc(1)})
    sine = [
        Term.make(mpc(sign * mpf("1e-6")), one, AffineForm.make([mpc(0, sign)], 0), ())
        for sign in (1, -1)
    ]
    func = ExpRationalFunction(1, list(decay.terms) + sine)
    diag = semicircle_check(func, (10, 30, 90))
    assert diag.magnitudes[1] < 0.5 * diag.magnitudes[0]
    assert diag.magnitudes[2] > 1e6 * diag.magnitudes[0]
    assert diag.trending_to_zero


def test_report_shape():
    report = quad_integral(single_pole_problem())
    assert isinstance(report, QuadratureReport)
    assert report.error_bound >= 0
    assert report.tail_estimate >= 0
    assert report.box_halfwidth > 0
