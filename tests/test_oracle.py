"""Oracle tests: quadrature against closed forms, arc diagnostics, tori.

Reference values come from elementary calculus (arctangent, Jordan-lemma
integrals), from the worked closed forms shared with the engine tests,
and for the oscillatory line integral also from mpmath's independent
infinite-interval oscillatory quadrature.
"""

import itertools
import math
import time
from array import array
from fractions import Fraction
from pathlib import Path

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
    plane,
    single_pole_problem,
    three_plane_problem,
    three_plane_value,
)
from reference import ForeignPoleInsideTorus, torus_residue
from residuum import oracle
from residuum.arrangement import (
    Arrangement,
    Flag,
    Polyhedron,
    canonicalize_hyperplane,
    flag_table,
    jacobian,
)
from residuum.dsl import parse_problem
from residuum.exact_linalg import RationalMatrix, determinant, inverse
from residuum.oracle import (
    BudgetExceeded,
    NonDecaying,
    PoleOnArc,
    QuadratureReport,
    quad_integral,
    semicircle_check,
)
from residuum.residue_engine import ChartResidues, evaluate_integral, iterated_residue
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


def _sheared_three_variable_product():
    """prod_k 1/(w_k^2 + 1) with w = A v, det A = 1: value pi^3, and in the
    hyperplanes' own coordinates no coupled factor."""
    hps = []
    for row in ([1, 1, 0], [0, 1, -1], [1, 1, 1]):
        hps.append(canonicalize_hyperplane(row, -mpc(0, 1)))
        hps.append(canonicalize_hyperplane([-x for x in row], -mpc(0, 1)))
    return Arrangement.build(3, hps, numerator=ExpRationalFunction.from_parts(3, coeff=-1))


def test_quad_sheared_three_variable_product_at_default_box():
    """A sum with no coupled factor costs r n evaluations per level, so its
    nodes per axis are capped at the node budget, not at 256: the sheared
    product converges at box 50."""
    report = quad_integral(_sheared_three_variable_product())
    assert report.nodes_per_axis > oracle._axis_cap(oracle.DEFAULT_NODE_BUDGET, 3)
    err = abs(report.estimate - pi**3)
    assert err < mpf("1e-12") * pi**3
    assert err <= report.error_bound


def test_quad_three_variable_budget_at_default_box():
    """Six simple planes through one point, coupled in any chart: the exact
    residue in w1 leaves a coupled 2-D remainder, which the tan map settles
    at box 50 to within the default tolerance of the certified value 0.  A
    budget of 128 nodes per axis is too small for it, and the oracle stops
    with a clean BudgetExceeded."""
    spec = parse_problem(
        "vars v1 v2 v3; cone (1,0,0) (0,1,0) (0,0,1);"
        "den (2*v2 + v3 - 5*i) (v1 + v3 - 3*i) (2*v2 - v3 - 3*i) (2*v1 - v2 - 2*i)"
        " (v1 + 2*v3 - 4*i) (-v1 + 2*v2 + v3 - 3*i);"
    )
    arr = spec.arrangement()
    result = evaluate_integral(arr, spec.polyhedron())
    assert result.certificate.certified and result.value == 0
    start = time.perf_counter()
    report = quad_integral(arr)
    assert report.peeled == 0
    assert abs(report.estimate) <= oracle.DEFAULT_TOL
    with pytest.raises(BudgetExceeded, match="within 128 nodes per axis"):
        quad_integral(arr, node_budget=128)
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



# Draws of ROADMAP item 1 that the r-D grid could not decide, as the
# benchmark's generators draw them (rows f_j of f_j . v = i s_j, the
# identity cone, a constant numerator): (r, rows, s, coefficient).  The
# certified generic r = 2 R = 4 draws of seeds 0-15 (seeds 0, 4-8, 13-15)
# and the certified generic r = 3 draws (R = 6 seeds 3, 4, 5, 7, 8; R = 7
# seed 2)...
_CERTIFIED_DRAWS = [
    (2, ((1, 1), (2, 1), (1, 0), (2, -1)), (2, 3, 2, 1), 3),
    (2, ((-1, 0), (-2, 1), (1, -1), (-2, -1)), (3, 3, 2, 1), 2),
    (2, ((-2, 1), (-1, -2), (0, 1), (-1, 1)), (1, 2, 1, 2), 2),
    (2, ((1, 0), (-1, 2), (0, 1), (-1, 1)), (1, 2, 3, 1), 2),
    (2, ((0, -1), (1, -2), (2, -1), (1, 1)), (1, 2, 1, 4), 1),
    (2, ((-1, 0), (1, -1), (-1, -2), (-2, -1)), (2, 2, 4, 1), 2),
    (2, ((-1, -1), (-1, 0), (-2, 1), (-1, 2)), (1, 3, 2, 1), 2),
    (2, ((2, -1), (1, 0), (1, 1), (1, -2)), (3, 2, 3, 3), 2),
    (2, ((-1, -2), (-1, -1), (-1, 0), (0, 1)), (3, 3, 4, 3), 2),
    (3, ((-1, 2, 1), (0, -1, -2), (-2, 2, -1), (0, 2, -1), (-1, 1, 0), (2, 0, 1)),
     (3, 4, 3, 4, 4, 1), 2),
    (3, ((2, 2, -1), (-2, 0, -1), (0, 1, -2), (-1, 1, 2), (-1, 1, 0), (-1, 0, 1)),
     (2, 3, 1, 3, 1, 4), 1),
    (3, ((2, 1, -2), (-1, 2, 0), (0, 1, 1), (-1, -2, -2), (1, 0, -1), (-1, 2, -1)),
     (4, 1, 2, 4, 3, 2), 1),
    (3, ((0, -1, 1), (-2, 2, -1), (-2, -2, 1), (1, -2, -1), (-2, 2, 1), (-1, 2, -2)),
     (4, 1, 2, 1, 2, 3), 2),
    (3, ((1, 2, -1), (2, -1, 2), (1, -1, -1), (2, 1, 2), (1, 0, 2), (0, 1, -1)),
     (2, 1, 3, 3, 4, 2), 2),
    (3, ((-1, -2, 2), (-1, 0, -1), (-1, -2, 1), (0, -1, -1), (-1, -1, -1), (2, -2, 1),
         (2, -2, -1)), (2, 1, 1, 3, 1, 3, 3), 2),
]
# ... and the non-oscillatory m = 1 coincident draws of seeds 0-11: six
# planes through i c, numerator 1, certified for seeds 0, 4, 5, 7, 8, 10, 11
_COINCIDENT_DRAWS = [
    (3, rows, s, 1)
    for rows, s in [
        (((0, 2, 1), (1, 0, 1), (0, 2, -1), (2, -1, 0), (1, 0, 2), (-1, 2, 1)), (5, 3, 3, 2, 4, 3)),
        (((-2, 1, 1), (1, 1, 2), (1, -1, 1), (-2, 1, 2), (1, 2, -1), (1, 2, 1)), (1, 6, 2, 3, 1, 5)),
        (((-1, 2, 2), (2, -1, 1), (-2, 1, 2), (1, 2, 2), (1, 2, 0), (2, 0, -1)), (3, 2, 1, 5, 3, 1)),
        (((-1, 0, 1), (0, 1, 2), (1, 2, 0), (2, 2, 1), (2, -1, 0), (-1, 0, 2)), (1, 5, 3, 6, 1, 3)),
        (((2, 2, -1), (-1, 1, 2), (-1, 1, 0), (-1, 2, -2), (2, 1, 2), (1, 1, -2)), (5, 3, 1, 1, 6, 1)),
        (((1, -1, 1), (1, 0, -1), (-1, 2, 2), (2, -1, -1), (1, 1, -1), (2, 1, 0)), (1, 1, 4, 1, 3, 6)),
        (((2, 1, 0), (1, -1, 1), (-1, 2, 2), (0, 1, 0), (1, -1, 2), (0, -1, 2)), (4, 1, 7, 2, 3, 2)),
        (((2, 2, 1), (2, -1, 0), (1, -1, 2), (2, 2, -1), (2, -1, 1), (2, 1, 0)), (8, 3, 5, 4, 5, 5)),
        (((2, 1, 2), (1, 0, 2), (1, 2, 2), (1, 0, 1), (-1, 2, 1), (2, 1, 1)), (8, 5, 9, 3, 5, 6)),
        (((0, 2, 1), (1, -1, 1), (-1, 2, 2), (1, 1, -1), (2, 1, 2), (-1, 0, 2)), (6, 2, 6, 2, 10, 2)),
        (((-1, 2, 0), (2, 1, 2), (1, 1, 1), (-1, 1, 2), (1, 1, -1), (1, 2, -2)), (3, 8, 5, 5, 1, 1)),
        (((2, 2, -1), (-1, 2, 1), (2, 1, 1), (2, -1, 2), (1, 0, 1), (0, 1, 2)), (6, 4, 8, 6, 4, 6)),
    ]
]


def test_peel_decides_the_draws_the_grid_could_not():
    """Every coupled draw above is integrated over one axis by residues,
    and its estimate is within the default tolerance of the engine's value:
    certified for the generic draws, certified or not for the coincident
    ones.  The 27 quadratures take well under 3 s together."""
    tol, spent = oracle.DEFAULT_TOL, 0.0
    with working_precision(128):
        for k, (r, rows, s, coeff) in enumerate(_CERTIFIED_DRAWS + _COINCIDENT_DRAWS):
            numerator = ExpRationalFunction.from_parts(r, coeff)
            arr = Arrangement.build(r, [plane(f, x) for f, x in zip(rows, s)], numerator)
            result = evaluate_integral(arr, cone(*np.eye(r, dtype=int).tolist()))
            assert result.certificate.certified or k >= len(_CERTIFIED_DRAWS)
            start = time.perf_counter()
            report = quad_integral(arr)
            spent += time.perf_counter() - start
            assert report.peeled is not None, rows
            assert abs(result.value - report.estimate) <= tol * max(1, abs(result.value)), rows
    assert spent < 3.0


def _function(arity, *terms):
    """The sum of terms given as (coeff, poly or None, expo or None, denom)."""
    return ExpRationalFunction(
        arity,
        [
            Term.make(
                c,
                p if p is not None else Polynomial.constant(arity, 1),
                e if e is not None else AffineForm.constant(arity, 0),
                d,
            )
            for c, p, e, d in terms
        ],
    )


def test_peel_refuses_where_the_closing_rule_does_not_hold():
    """_peel returns None, so that quad_integral takes the grid, for a pole
    on the real axis, a term without oscillation in w1 whose w1-degree gap
    is 1, an oscillating term with no factor in w1, and a remainder with a
    real zero; the same functions peel in w2 where the rule holds there."""
    i = mpc(0, 1)

    def form(a, b, c):
        return AffineForm.make([a, b], c)

    on_real_axis = _function(2, (1, None, None, [(form(1, 1, -1), 1), (form(1, 0, -i), 2)]))
    gap_one = _function(2, (1, None, None, [(form(1, 1, -2 * i), 1), (form(0, 1, -i), 2)]))
    no_factor = _function(
        2,
        (1, None, None, [(form(1, 0, -i), 2), (form(1, 1, -2 * i), 1)]),
        (1, None, AffineForm.make([i, 0], 0), [(form(0, 1, -i), 3)]),
    )
    # the residue at w1 = i leaves w2 (w2 - i)
    real_zero = _function(2, (1, None, None, [(form(1, 0, -i), 1), (form(1, 1, -i), 1),
                                               (form(0, 1, -i), 1)]))
    for func in (on_real_axis, gap_one, no_factor, real_zero):
        assert oracle._peel(func, 0) is None
    assert oracle._peel(gap_one, 1) is not None
    assert oracle._peel(real_zero, 1) is None


def test_grid_takes_what_no_axis_peels():
    """(x + y - 2i)^-2 (x - y - 2i)^-2 (x - i)^-1: in its chart each
    residue leaves a factor with a real zero, so quad_integral integrates
    it on the grid, as the stages without the peel do, to within the
    default tolerance of the certified value 0."""
    with working_precision(128):
        arr = Arrangement.build(
            2, [plane((1, 1), 2), plane((1, -1), 2), plane((1, 0), 1)], multiplicities=[2, 2, 1]
        )
        result = evaluate_integral(arr, cone((1, 0), (0, 1)))
    func = arr._pullback(*oracle._hyperplane_chart(arr))[0]
    assert oracle._peel(func, 0) is None and oracle._peel(func, 1) is None
    report = quad_integral(arr)
    assert report.peeled is None and report == _unpeeled(arr)
    assert result.certificate.certified and result.value == 0
    assert abs(report.estimate) <= oracle.DEFAULT_TOL


@pytest.mark.parametrize("name", ["coincident_point", "three_planes_left", "three_planes_upper"])
def test_peel_agrees_with_the_grid(name):
    """On the coupled two-variable samples the peel's estimate and the grid
    stage's, called without the peel, agree within the sum of their error
    bounds and the tolerance."""
    with working_precision(128):
        arr = parse_problem((_SAMPLES / f"{name}.rsd").read_text()).arrangement()
    peeled, grid = quad_integral(arr), _unpeeled(arr)
    assert peeled.peeled == 0 and grid.peeled is None
    slack = peeled.error_bound + grid.error_bound + oracle.DEFAULT_TOL
    assert abs(peeled.estimate - grid.estimate) <= slack


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
    inverse, a ``jacobian`` and a _chart_key for every ordered r-tuple of
    rows; the chart and its rows."""
    rows = [h.f for h in arr.hyperplanes]
    charts = [RationalMatrix(p) for p in itertools.permutations(rows, arr.dim)]
    dets = [abs(determinant(m)) for m in charts]
    top = max(dets, default=0)
    if top == 0:
        raise NonDecaying("the hyperplanes do not span the space")
    cands = [inverse(m) for m, d in zip(charts, dets) if d == top]
    cands = [Polyhedron(tuple(zip(*inv.entries))) for inv in cands]
    every = range(len(rows))
    cands = [(chart, jacobian(arr, every, chart)) for chart in cands]
    return min(cands, key=lambda cand: oracle._chart_key(arr, *cand))


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
    from the peak, whether the per-axis stage samples the faces (the
    function has no coupled factor) or the pointwise closure does; the
    two peaks agree to rounding."""
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

    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    consts = [mpc(0, -0.5), mpc(-1, -0.5), mpc(1, -0.5)]
    func = ExpRationalFunction.from_parts(
        3, denom=[(AffineForm.make(row, c), 1) for row, c in zip(rows, consts)]
    )
    specs = oracle._term_specs(func)
    assert not oracle._is_coupled(specs)
    faces = oracle._face_peak(func, specs, 3, edge)
    assert oracle._shell_tail(faces, 3, edge, decay) >= 0.99 * bound
    points = np.array(oracle._face_points(3, edge), dtype=complex)
    assert points.shape == (3, 6 * 64 * 64)
    closure = float(np.max(np.abs(oracle.compile_numeric(func)(points))))
    assert oracle._shell_tail(closure, 3, edge, decay) >= 0.99 * bound
    assert faces == pytest.approx(closure, rel=1e-15)


def test_oracle_constants_match_numpy():
    """The arc floor is 64 float64 epsilons; the window weight is the erfc
    of np.vectorize(math.erfc), bit for bit, and the window's nodes and
    the shell tail's face points are numpy's (np.arange, np.linspace)."""
    assert oracle._ARC_FLOOR == 64.0 * float(np.finfo(np.float64).eps)
    x_flat = 3.0
    x = np.linspace(-oracle._WINDOW_EDGE * x_flat, oracle._WINDOW_EDGE * x_flat, 1001)
    sigma = oracle._WINDOW_SIGMA * x_flat
    erfc = np.vectorize(math.erfc, otypes=[float])
    want = 0.5 * erfc((np.abs(x) - oracle._WINDOW_CENTER * x_flat) / (sigma * np.sqrt(2.0)))
    got = np.array(oracle._window_weight(x.tolist(), x_flat))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    n, edge = 37, oracle._WINDOW_EDGE * x_flat
    spacing = 2.0 * edge / n
    nodes = spacing * (np.arange(n) + 0.5) - edge
    center = oracle._WINDOW_CENTER * x_flat
    weights = spacing * (0.5 * erfc((np.abs(nodes) - center) / (sigma * np.sqrt(2.0))))
    got_nodes, got_weights = oracle._window_axis(x_flat, n)
    assert np.array(got_nodes).tobytes() == nodes.tobytes()
    assert np.array(got_weights).tobytes() == weights.tobytes()

    side = np.linspace(-edge, edge, 64)
    assert np.array(oracle._face_points(1, edge)).tolist() == [[-edge, edge]]
    faces = np.array(oracle._face_points(2, edge))
    want = np.concatenate(
        [np.insert(side[None, :], j, s * edge, axis=0) for j in (0, 1) for s in (-1.0, 1.0)],
        axis=1,
    )
    assert faces.tobytes() == want.tobytes()


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



def test_axis_vectors_share_equal_axes():
    """An axis with an earlier axis' node and weight vectors, exponent slope
    and folded factors, and no exponent constant on either, shares its
    vector: the vectors and the sums are those of a build from copies of
    the nodes, which shares nothing, bit for bit."""
    axes = oracle._axes(lambda n: oracle._tan_axis(50.0, n), [64, 64, 64])
    copies = [(array("d", x), array("d", w)) for x, w in axes]
    i = 1j
    specs = oracle._term_specs(_product_problem(3).integrand())
    # an exponent constant on axis 0 keeps it apart from axes 1 and 2
    unit = [tuple(complex(j == k) for j in range(3)) for k in range(3)]
    specs.append((0.5, None, (i, i, i), 0.25j, [(row, -i, 2) for row in unit]))
    for coeff, poly, expo, expo_0, denom in specs:
        built = [
            oracle._axis_vectors([x for x, _ in a], [w for _, w in a],
                                 [(min(x), max(x), 0.0, 0.0) for x, _ in a], expo, expo_0, denom)
            for a in (axes, copies)
        ]
        (g, left), (g_copies, left_copies) = built
        assert left == left_copies
        assert [list(v) for v in g] == [list(v) for v in g_copies]
        assert g[2] is g[1] and (g[1] is g[0]) == (not expo_0)
    assert oracle._tensor_sum(specs, axes) == oracle._tensor_sum(specs, copies)


def test_gauss_legendre_rule_matches_numpy():
    """The arc panels' 12-point rule, from Newton's method, is numpy's to a
    few units in the last place."""
    nodes, weights = oracle._gauss_legendre(oracle._PER_PANEL)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(oracle._PER_PANEL)
    assert np.allclose(nodes, ref_nodes, rtol=0, atol=4e-16)
    assert np.allclose(weights, ref_weights, rtol=0, atol=2e-15)


def _numpy_arc(func, radius):
    """One arc of semicircle_check at radius, as numpy computes it: the
    magnitude of the arc sum and the sum of its terms' magnitudes."""
    freq = max(abs(complex(t.expo.coeffs[0])) for t in func.terms)
    n = int(min(200_000, max(256, 8 * (1 + freq * radius))))
    panels = max(8, math.ceil(n / oracle._PER_PANEL))
    xg, wg = np.polynomial.legendre.leggauss(oracle._PER_PANEL)
    bounds = np.linspace(0.0, np.pi, panels + 1)
    half, centers = (bounds[1:] - bounds[:-1]) / 2.0, (bounds[1:] + bounds[:-1]) / 2.0
    theta = (centers[:, None] + half[:, None] * xg[None, :]).ravel()
    z = radius * np.exp(1j * theta)
    terms = oracle.compile_numeric(func)(z[None, :]) * (1j * z) * (half[:, None] * wg).ravel()
    return abs(np.sum(terms)), float(np.sum(np.abs(terms)))


def test_semicircle_matches_numpy_on_well_conditioned_arcs():
    """Without numpy, an arc's magnitude is numpy's to 1e-12 wherever the
    arc sum is not far below the sum of its terms' magnitudes; below that
    the summation order alone moves it."""
    i = mpc(0, 1)
    funcs = [
        _one_var_function(denom=((AffineForm.make([1], -i), 1), (AffineForm.make([1], i), 1))),
        _one_var_function(
            poly=Polynomial(1, {(1,): mpc(1)}),
            expo=AffineForm.make([i], 0),
            denom=((AffineForm.make([1], -3 * i), 2), (AffineForm.make([1], 5 * i), 2)),
        ),
        _one_var_function(
            expo=AffineForm.make([i * mpmath.log(mpf(2) / 3)], 0),
            denom=((AffineForm.make([1], -2 * i), 1), (AffineForm.make([-1], -i), 1)),
        ),
    ]
    compared = 0
    for func in funcs:
        radii = (10.0, 30.0, 90.0)
        diag = semicircle_check(func, radii)
        for radius, mag in zip(radii, diag.magnitudes):
            ref, spread = _numpy_arc(func, radius)
            if spread <= 1e3 * ref:
                assert abs(mag - ref) <= 1e-12 * ref
                compared += 1
    assert compared >= 6


def test_cancelling_arc_sum_does_not_depend_on_order(monkeypatch):
    """three_planes_upper's arc after H3 at R = 90 sums terms of total
    magnitude about 1.8e12 to about 0.18.  Each arc is summed by math.fsum,
    so its magnitude is the correctly rounded sum of its terms: taking
    every panel's nodes in reverse order gives the same bits at every
    radius, where a left-to-right sum moves the last one by about 3e-4."""
    spec = parse_problem((_SAMPLES / "three_planes_upper.rsd").read_text())
    with mpmath.workprec(128):
        arr, poly = spec.arrangement(), spec.polyhedron()
        func = ChartResidues(arr, poly, flag_table(arr, poly)).step((2,))[0]
    radii = (10.0, 30.0, 90.0)
    forward = semicircle_check(func, radii)
    rule = oracle._gauss_legendre
    monkeypatch.setattr(oracle, "_gauss_legendre", lambda n: [x[::-1] for x in rule(n)])
    backward = semicircle_check(func, radii)
    assert forward.magnitudes == backward.magnitudes
    assert forward.magnitudes[-1] < 1e-12 * forward.peak_magnitudes[-1]


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


@given(_grid_case(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_face_values_match_the_closure(case, seed):
    """The per-axis stage's pointwise values, on lists, are the closure's
    to rounding at any real points: the same operations in the same
    order."""
    func, _, _, _ = case
    rng = np.random.default_rng(seed)
    points = rng.uniform(-20.0, 20.0, (func.arity, 50))
    boxes = [oracle._box(x) for x in points]
    got = np.array(oracle._face_values(oracle._term_specs(func), points.tolist(), boxes))
    points = points.astype(np.complex128)
    want = oracle.compile_numeric(func)(points)
    scale = sum(
        np.abs(_reference_closure(ExpRationalFunction(func.arity, [t]))(points))
        for t in func.terms
    )
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def _numpy_separable_sum(specs, axes):
    """A tensor sum of terms whose factors each depend on one axis, in
    numpy as the grid stage computed it before the per-axis stage: the
    weights as complex128 arrays times np.exp of the exponent per axis,
    each factor copy divided in by numpy, and np.sum per axis."""
    xs = [np.array(nodes) for nodes, _ in axes]
    total = 0j
    for coeff, poly, expo, expo_0, denom in specs:
        g = [np.array(weights).astype(np.complex128) for _, weights in axes]
        if expo is not None:
            g[0] *= np.exp(expo[0] * xs[0] + expo_0)
            for k in range(1, len(xs)):
                g[k] *= np.exp(expo[k] * xs[k])
        for row, const, mult in denom:
            ((k,),) = np.nonzero(row)
            for _ in range(mult):
                g[k] = g[k] / (row[k] * xs[k] + const)
        total += coeff * sum(
            v * math.prod(complex(np.sum(x**p * g_k)) for x, p, g_k in zip(xs, e, g))
            for e, v in poly or [((0,) * len(xs), 1.0)]
        )
    return total


def _mpmath_separable_sum(specs, axes):
    """The same tensor sum at 30 digits, from the same float64 nodes,
    weights and term data, and the sum of the magnitudes of its terms.  The
    exponent a x + c is the float64 value both stages exponentiate: its
    rounding, up to |a x| 2**-53 of a term, belongs to the data, not to the
    sum, and |a x| reaches 1,800 on these axes."""
    total, scale = mpc(0), mpf(0)
    with mpmath.workdps(30):
        for coeff, poly, expo, expo_0, denom in specs:
            g = []
            for k, (nodes, weights) in enumerate(axes):
                vec = []
                for x, w in zip(nodes, weights):
                    val = mpf(w)
                    if expo is not None:
                        val *= exp(mpc(expo[k] * x + (expo_0 if k == 0 else 0j)))
                    for row, const, mult in denom:
                        if row[k]:
                            val /= (mpc(row[k]) * x + mpc(const)) ** mult
                    vec.append(val)
                g.append(vec)
            for e, v in poly or [((0,) * len(axes), 1.0)]:
                parts = [
                    [mpf(x) ** p * y for x, y in zip(nodes, vec)]
                    for (nodes, _), p, vec in zip(axes, e, g)
                ]
                total += mpc(coeff) * mpc(v) * math.prod(mpmath.fsum(part) for part in parts)
                scale += abs(mpc(coeff) * mpc(v)) * math.prod(
                    mpmath.fsum(map(abs, part)) for part in parts
                )
        return complex(total), float(scale)


@given(_grid_case("single"))
@settings(max_examples=60, deadline=None)
def test_separable_sums_match_numpy_and_mpmath(case):
    """A term whose factors each depend on one axis is summed in the
    per-axis stage, in plain Python floats, at 17 to 190 nodes per axis:
    within 1e-13 of the sum of its terms' magnitudes of numpy's sum, and of
    a 30-digit sum over the same nodes and weights."""
    func, axes, _, _ = case
    specs = oracle._term_specs(func)
    got = oracle._tensor_sum(specs, axes)
    exact, scale = _mpmath_separable_sum(specs, axes)
    assert abs(got - _numpy_separable_sum(specs, axes)) <= 1e-13 * scale
    assert abs(got - exact) <= 1e-13 * scale


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
    func = arr._pullback(*oracle._hyperplane_chart(arr))[0]
    oracle._tensor_sum(oracle._term_specs(func), [oracle._window_axis(5.0, 300)] * 2)
    assert copies and set(copies) == {1}

    with working_precision(128):
        arr = parse_problem(_DISGUISED_DRAW).arrangement()
        func = arr._pullback(*oracle._hyperplane_chart(arr))[0]
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
    x0, w0 = np.array(x0), np.array(w0)
    folded = np.log2(w0) - 16 * sum(np.log2(np.abs(x0 - complex(c))) for c in offsets)
    assert folded.max() > oracle._RANGE_EXP

    copies = _counting_term_block(monkeypatch)
    grid = oracle._tensor_sum(oracle._term_specs(func), axes)
    assert copies and all(0 < c < 8 * 16 for c in copies)
    assert math.isfinite(abs(grid))
    expect, scale = _reference_sum(func, *_grid_points(axes))
    assert math.isfinite(scale)
    assert abs(grid - expect) <= 1e-12 * scale


def test_folded_vectors_stay_in_float64_range():
    """The copies that fold are bounded by the folded vector's range as well
    as by their product's: with weights near 2**568 the factors of
    test_folded_factors_stay_in_float64_range fold fewer copies than the 96
    their product admits, every |g_0| stays below 2**960, and the sum
    matches the reference."""
    x0, w0 = oracle._tan_axis(1e-4, 16)
    w0 = array("d", [w * 2.0**577 for w in w0])
    offsets = [mpc(0, mpf("1e-3") * (1 + mpf(k) / 8)) for k in range(8)]
    func = ExpRationalFunction.from_parts(
        1, coeff=mpf("1e-300"), denom=[(AffineForm.make([1], -c), 16) for c in offsets]
    )
    ((_, _, expo, expo_0, denom),) = specs = oracle._term_specs(func)
    boxes = [(min(x0), max(x0), 0.0, 0.0)]
    (g_0,), left = oracle._axis_vectors([x0], [w0], boxes, expo, expo_0, denom)
    assert 8 * 16 - 96 < sum(m for *_, m in left) < 8 * 16
    assert max(map(abs, g_0)) <= 2.0**oracle._RANGE_EXP
    grid = oracle._tensor_sum(specs, [(x0, w0)])
    expect, scale = _reference_sum(func, *_grid_points([(x0, w0)]))
    assert abs(grid - expect) <= 1e-12 * scale


@pytest.mark.parametrize("case", ["overflow", "underflow"])
def test_factor_products_stay_in_float64_range(case):
    """A term may carry 8 linear factors of multiplicity 16, the DSL's cap
    on a power, whose full product leaves float64's range; the kernel's
    grouped products must not."""
    if case == "overflow":
        # |x| is 8.7e3 to 1.3e5 on the 16 outermost nodes: the product
        # reaches 1e650
        nodes, weights = map(np.array, oracle._tan_axis(50.0, 4096))
        outer = np.r_[0:8, 4088:4096]
        nodes, weights = nodes[outer], weights[outer]
        coeff = 1
        offsets = [mpc(0, k) for k in range(1, 9)]
    else:
        # |x| <= 1e-3 and every factor is 1e-3 to 2.2e-3 in size: the
        # product is 1e-365 to 1e-352, and the coefficient keeps the values
        # between 1e252 and 1e265
        nodes, weights = map(np.array, oracle._tan_axis(1e-4, 16))
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

    grid = oracle._tensor_sum(oracle._term_specs(func), [(nodes.tolist(), weights.tolist())])
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


# the benchmark's r=2 product with omega = (1, 2) under the shear w = A v,
# A = ((1, 3), (0, 1)): its value is pi^2 / e^3
SHEARED_PRODUCT = (
    "vars x y; cone (1,0) (-3,1); num exp(i*x + 5*i*y); "
    "den (x + 3*y - i) (-x - 3*y - i) (y - i) (-y - i);"
)


def _unpeeled(arr, box=oracle.DEFAULT_BOX, tol=oracle.DEFAULT_TOL):
    """quad_integral without the peel: the per-axis or grid stage on the
    chart integrand itself."""
    func = arr._pullback(*oracle._hyperplane_chart(arr))[0]
    return oracle._quadrature(func, box, tol, oracle.DEFAULT_NODE_BUDGET)


def test_grid_sums_skip_pointwise_closure(monkeypatch):
    """Sums on tensor grids never go through the pointwise closure: it sees
    only the shell-tail points of a function with a coupled factor, 64 on
    each face of the square, here in the grid stage called without the
    peel.  A separable function's faces are sampled in
    the per-axis stage instead, 4 * 64 points at r = 2 and one per face at
    r = 1, and its sums take no block kernel."""
    real = oracle.compile_numeric
    seen = []

    def counting(func):
        evaluate = real(func)

        def counted(points):
            seen.append(points.shape[1])
            return evaluate(points)

        return counted

    monkeypatch.setattr(oracle, "compile_numeric", counting)
    real_faces = oracle._face_values
    faces = []

    def counting_faces(specs, points, boxes):
        faces.append(len(points[0]))
        return real_faces(specs, points, boxes)

    monkeypatch.setattr(oracle, "_face_values", counting_faces)
    copies = _counting_term_block(monkeypatch)
    _unpeeled(three_plane_problem(2, 3))
    assert sum(seen) == 4 * 64 and faces == []
    seen.clear()
    report = quad_integral(_product_problem(2))
    assert abs(report.estimate - pi**2) < mpf("1e-6")
    assert seen == [] and faces == []
    copies.clear()
    with working_precision(128):
        arr = parse_problem(SHEARED_PRODUCT).arrangement()
    report = quad_integral(arr)
    assert abs(report.estimate - pi**2 * exp(-3)) < mpf("1e-6")
    assert seen == [] and faces == [4 * 64] and copies == []
    quad_integral(oscillatory_line_problem(1))
    assert seen == [] and faces == [4 * 64, 2] and copies == []


# The benchmark's verify round at seed 1: its 20 closed-form products as
# (r, m, omega, nodes per axis, problem text), the integral of
# e^(i omega . w) / prod_k ((-w_k - i)(w_k - i))^m in coordinates v,
# w = A v, and the samples with their integrals and nodes per axis.
# three_planes_upper integrates three_planes_left's function over another
# cone: residuum does not certify its value, but the integral is the same.
_VERIFY_PRODUCTS = [
    (1, 1, (0,), 1024, "vars v1; cone (1); den (-v1 - 1*i) (v1 - 1*i);"),
    (1, 1, (1,), 3680, "vars v1; cone (1); num 1*exp(i*(v1)); den (-v1 - 1*i) (v1 - 1*i);"),
    (1, 1, (2,), 3852, "vars v1; cone (1); num 1*exp(i*(2*v1)); den (-v1 - 1*i) (v1 - 1*i);"),
    (1, 1, (3,), 4028, "vars v1; cone (1); num 1*exp(i*(3*v1)); den (v1 - 1*i) (-v1 - 1*i);"),
    (1, 1, (4,), 2102, "vars v1; cone (1); num 1*exp(i*(4*v1)); den (-v1 - 1*i) (v1 - 1*i);"),
    (1, 2, (1,), 3680, "vars v1; cone (1); num 1*exp(i*(v1)); den (-v1 - 1*i)^2 (v1 - 1*i)^2;"),
    (1, 2, (2,), 3852, "vars v1; cone (1); num 1*exp(i*(2*v1)); den (v1 - 1*i)^2 (-v1 - 1*i)^2;"),
    (1, 2, (3,), 4028, "vars v1; cone (1); num 1*exp(i*(3*v1)); den (-v1 - 1*i)^2 (v1 - 1*i)^2;"),
    (1, 2, (4,), 2102, "vars v1; cone (1); num 1*exp(i*(4*v1)); den (v1 - 1*i)^2 (-v1 - 1*i)^2;"),
    (1, 3, (1,), 3680, "vars v1; cone (1); num 1*exp(i*(v1)); den (v1 - 1*i)^3 (-v1 - 1*i)^3;"),
    (1, 3, (2,), 3852, "vars v1; cone (1); num 1*exp(i*(2*v1)); den (v1 - 1*i)^3 (-v1 - 1*i)^3;"),
    (1, 3, (3,), 4028, "vars v1; cone (1); num 1*exp(i*(3*v1)); den (-v1 - 1*i)^3 (v1 - 1*i)^3;"),
    (1, 3, (4,), 4096, "vars v1; cone (1); num 1*exp(i*(4*v1)); den (-v1 - 1*i)^3 (v1 - 1*i)^3;"),
    (1, 3, (5,), 4096, "vars v1; cone (1); num 1*exp(i*(5*v1)); den (-v1 - 1*i)^3 (v1 - 1*i)^3;"),
    (2, 1, (0, 0), 1024,
     "vars v1 v2; cone (1,0) (-1,1); "
     "den (v1 + v2 - 1*i) (-v1 - v2 - 1*i) (-v2 - 1*i) (v2 - 1*i);"),
    (2, 1, (1, 2), 3852,
     "vars v1 v2; cone (-1,1) (1,0); num 1*exp(i*(2*v1 + 3*v2)); "
     "den (v2 - 1*i) (v1 + v2 - 1*i) (-v1 - v2 - 1*i) (-v2 - 1*i);"),
    (2, 2, (0, 0), 1024,
     "vars v1 v2; cone (0,1) (1,-1); "
     "den (v1 - 1*i)^2 (-v1 - 1*i)^2 (v1 + v2 - 1*i)^2 (-v1 - v2 - 1*i)^2;"),
    (2, 2, (0, 0), 1024,
     "vars v1 v2; cone (-1,1) (1,0); "
     "den (-v1 - v2 - 1*i)^2 (v2 - 1*i)^2 (v1 + v2 - 1*i)^2 (-v2 - 1*i)^2;"),
    (3, 1, (0, 0, 0), 1024,
     "vars v1 v2 v3; cone (1,1,-1) (1,0,0) (0,-1,2); "
     "den (-v1 + 2*v2 + v3 - 1*i) (v1 - 2*v2 - v3 - 1*i) (-v2 - v3 - 1*i) "
     "(-2*v2 - v3 - 1*i) (v2 + v3 - 1*i) (2*v2 + v3 - 1*i);"),
    (3, 1, (0, 0, 0), 1024,
     "vars v1 v2 v3; cone (1,0,3) (1,0,2) (0,1,0); "
     "den (-2*v1 + v3 - 1*i) (-3*v1 + v3 - 1*i) (v2 - 1*i) "
     "(2*v1 - v3 - 1*i) (3*v1 - v3 - 1*i) (-v2 - 1*i);"),
]
_VERIFY_SAMPLES = {
    "arctangent": (lambda: pi, 1024),
    "coincident_point": (lambda: mpc(0, -8) * pi**3 * exp(-6 * pi), 2302),
    "double_pole": (lambda: -2 * pi / exp(1), 3680),
    "three_planes_left": (lambda: mpc(0, -4) * pi**2 / 81, 3576),
    "three_planes_upper": (lambda: mpc(0, -4) * pi**2 / 81, 3576),
}
_SAMPLES = Path(__file__).resolve().parents[1] / "problems"


def _product_integral(r, m, omegas):
    """(-1)^(r m) prod_k of int e^(i a w) / (w^2 + 1)^m dw over the line,
    a = omega_k, which is
    pi e^-|a| / (4^(m-1) (m-1)!) sum_{k<m} (2m-2-k)! (2|a|)^k / (k! (m-1-k)!)."""
    fact = mpmath.factorial
    out = mpf(-1) ** (r * m)
    for a in map(abs, omegas):
        acc = sum(
            fact(2 * m - 2 - k) * (2 * a) ** k / (fact(k) * fact(m - 1 - k)) for k in range(m)
        )
        out *= pi * exp(-a) / (4 ** (m - 1) * fact(m - 1)) * acc
    return out


def test_verify_round_keeps_its_node_schedule():
    """On the benchmark's verify problems the oracle's sums, however they
    round, settle at the node counts recorded for them and within the
    default tolerance of the exact integral."""
    cases = [
        (text, _product_integral(r, m, omegas), nodes)
        for r, m, omegas, nodes, text in _VERIFY_PRODUCTS
    ] + [
        ((_SAMPLES / f"{name}.rsd").read_text(), value(), nodes)
        for name, (value, nodes) in _VERIFY_SAMPLES.items()
    ]
    for text, value, nodes in cases:
        with working_precision(128):
            report = quad_integral(parse_problem(text).arrangement())
        assert report.nodes_per_axis == nodes, text
        assert abs(report.estimate - value) <= oracle.DEFAULT_TOL * max(1, abs(value)), text


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
    # the lower arcs of z -> func(z) are the upper arcs of w -> func(-w)
    mirrored = _one_var_function(
        poly=Polynomial(1, {(1,): mpc(-1)}),
        expo=AffineForm.make([mpc(0, -1)], 0),
        denom=(
            (AffineForm.make([1], mpc(0, 3)), 2),
            (AffineForm.make([1], -mpc(0, 5)), 2),
        ),
    )
    up = semicircle_check(func, (10, 30, 90))
    down = semicircle_check(mirrored, (10, 30, 90))
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
