"""Engine tests: iterated residues, integral evaluation, and regroupings.

Two independent oracles sit at the top.  tiny_torus integrates the form
over the torus cycle |g_j| = eps around a simple terminal point (classical,
chart-free value); direct_flag_value evaluates the simple-transverse-flag
residue formula in the chart without the residue machinery.  A third,
conftest.trace_residue, gives Grothendieck residues of grouped divisors by
the trace formula.  A fourth needs no quadrature: every cone in which the
value is certified gives the same value.
"""

import importlib.util
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import exp, factorial, mp, mpc, mpf, pi

from conftest import (
    CONE_LEFT,
    CONE_RIGHT,
    CONE_UPPER,
    CONE_WIDE,
    coincident_point_problem,
    cone,
    h_partials,
    plane,
    power_numerator,
    single_pole_problem,
    three_plane_problem,
    three_plane_value,
    trace_residue,
    z_star,
)
from reference import defining_form
from residuum import arrangement
from residuum.arrangement import (
    Arrangement,
    Flag,
    InsolubleFlag,
    Polyhedron,
    canonicalize_hyperplane,
    enumerate_flags,
    flag_classes,
    flag_table,
    jacobian,
    pole_location,
    terminal_classes,
)
from residuum.dsl import parse_problem
from residuum.exact_linalg import (
    GaussianRational,
    RationalMatrix,
    _gauss_jordan,
    determinant,
    inverse,
    minor_profile,
)
from residuum.residue_engine import (
    Certificate,
    Convergence,
    DivisorGrouping,
    EmptyStableSet,
    ChartResidues,
    _class_functions,
    _soluble_chart,
    _verdicts,
    canonical_grouping,
    canonical_grouping_points,
    convergence_heuristic,
    evaluate_integral,
    grothendieck_residue,
    iterated_residue,
    points_of_grouping,
)
from residuum.symfun import (
    AffineForm,
    ExpRationalFunction,
    Polynomial,
    Term,
    constant_sum,
    rounded_sum,
    to_mpc,
    working_precision,
)

TWO_PI_I = lambda: 2 * pi * mpc(0, 1)


def tiny_torus(arr, indices, eps_scale=mpf("0.1"), nodes=64):
    """Classical residue at the collection's terminal point by quadrature.

    Valid only when the point is simple: no foreign hyperplane may pass
    near it (the cycle must stay clear).
    """
    flag = Flag(tuple(indices))
    m = pole_location(arr, flag)
    a = RationalMatrix(tuple(arr.hyperplanes[i].f for i in indices))
    a_inv = inverse(a)
    det_a_inv = to_mpc(determinant(a_inv))
    foreign = [
        abs(defining_form(arr.hyperplanes[k]).evaluate(m))
        for k in range(len(arr.hyperplanes))
        if k not in indices
    ]
    eps = eps_scale * (min(foreign) if foreign else mpf(1))
    func = arr.integrand()
    r = len(indices)
    total = mpc(0)
    grid = [2 * pi * k / nodes for k in range(nodes)]

    def walk(level, phases):
        nonlocal total
        if level == r:
            disc = [eps * exp(mpc(0, 1) * t) for t in phases]
            offset = [
                sum(to_mpc(a_inv[i, j]) * disc[j] for j in range(r))
                for i in range(r)
            ]
            point = [m[i] + offset[i] for i in range(r)]
            jac = det_a_inv
            for d in disc:
                jac *= mpc(0, 1) * d
            total += func.evaluate(point) * jac
            return
        for t in grid:
            walk(level + 1, phases + [t])

    walk(0, [])
    # each axis: step 2*pi/nodes and a (2*pi*i)^-1 Cauchy factor
    return total / (mpc(0, 1) * nodes) ** r


def direct_flag_value(arr, flag, poly):
    """Simple transverse flag residue by direct evaluation in the chart."""
    j = jacobian(arr, flag.indices, poly)
    m = poly.basis_matrix()
    rows = [[to_mpc(m[i, k]) for k in range(m.cols)] for i in range(m.rows)]
    from residuum.exact_linalg import solve_linear

    rhs = [mpc(0, 1) * arr.hyperplanes[i].s for i in flag.indices]
    w = solve_linear(j, rhs)
    numer = arr.numerator.compose_linear(rows).evaluate(w) * abs(
        to_mpc(poly.det())
    )
    denom = to_mpc(determinant(j))
    chart_rows = [
        [to_mpc(c) for c in jacobian(arr, (k,), poly).row(0)]
        for k in range(len(arr.hyperplanes))
    ]
    for k in range(len(arr.hyperplanes)):
        if k in flag.indices:
            continue
        value = sum(chart_rows[k][t] * w[t] for t in range(len(w)))
        value = value - mpc(0, 1) * arr.hyperplanes[k].s
        denom *= value ** arr.multiplicities[k]
    return numer / denom


def test_one_dimensional_arctangent():
    with working_precision(128):
        result = evaluate_integral(single_pole_problem(), cone((1,)))
        assert abs(result.value - pi) < mpf("1e-30")
        assert result.certificate.all_compatible
        assert result.certificate.convergence is Convergence.BOUNDED_NUMERATOR
        assert result.certificate.certified

        result3 = evaluate_integral(single_pole_problem(s=3), cone((1,)))
        assert abs(result3.value - pi / 3) < mpf("1e-30")


def test_three_plane_flag_residues():
    with working_precision(128):
        arr = three_plane_problem(2, 3)
        total = mpf(3)
        left = iterated_residue(arr, Flag((0, 2)), cone(*CONE_LEFT))
        expected = mpc(0, 1) * mpf(3) ** (-total) / total
        assert abs(left - expected) < mpf("1e-30")

        right = iterated_residue(arr, Flag((1, 2)), cone(*CONE_RIGHT))
        expected = mpc(0, 1) * mpf(2) ** (-total) / total
        assert abs(right - expected) < mpf("1e-30")


def test_three_plane_flag_residues_complex_parameters():
    with working_precision(128):
        s = (mpc(1, "0.25"), mpc("0.5", "-0.125"), mpc(2))
        arr = three_plane_problem(2, 3, s)
        total = sum(s, mpc(0))
        left = iterated_residue(arr, Flag((0, 2)), cone(*CONE_LEFT))
        expected = mpc(0, 1) * exp(-total * mp.log(3)) / total
        assert abs(left - expected) / abs(expected) < mpf("1e-30")


def test_three_plane_evaluation():
    with working_precision(128):
        for n1, n2, conegen in (
            (2, 3, CONE_LEFT),
            (3, 2, CONE_RIGHT),
            (5, 5, CONE_LEFT),
        ):
            arr = three_plane_problem(n1, n2)
            result = evaluate_integral(arr, cone(*conegen))
            expected = three_plane_value(n1, n2)
            assert abs(result.value - expected) / abs(expected) < mpf("1e-30")
            assert result.certificate.all_compatible
            assert result.certificate.certified
            assert len(result.flag_contributions) == 1


def test_three_plane_incompatible_chart_gives_zero():
    with working_precision(128):
        arr = three_plane_problem(2, 3)
        result = evaluate_integral(arr, cone(*CONE_UPPER))
        assert result.value == mpc(0)
        assert not result.certificate.all_compatible
        assert not result.certificate.certified
        assert result.flag_contributions == {}
        assert any("(H3,H1)" in w for w in result.certificate.warnings)
        assert any("outside the polyhedron" in w for w in result.certificate.warnings)


def test_coincident_point_contributions():
    with working_precision(128):
        arr = coincident_point_problem()
        poly = cone(*CONE_WIDE)
        dx, dy = h_partials()
        first = iterated_residue(arr, Flag((0, 1)), poly)
        second = iterated_residue(arr, Flag((2, 1)), poly)
        assert abs(first - dy) / abs(dy) < mpf("1e-28")
        assert abs(second - (dx - dy)) / abs(dx) < mpf("1e-28")

        result = evaluate_integral(arr, poly)
        expected = TWO_PI_I() ** 2 * dx
        assert abs(result.value - expected) / abs(expected) < mpf("1e-28")
        assert result.certificate.certified
        got = sorted(result.flag_contributions.items(), key=lambda kv: kv[0].indices)
        assert [f.indices for f, _ in got] == [(0, 1), (2, 1)]


def test_flag_class_members_share_residue():
    with working_precision(128):
        arr = coincident_point_problem()
        poly = cone(*CONE_WIDE)
        a = iterated_residue(arr, Flag((0, 1)), poly)
        b = iterated_residue(arr, Flag((0, 2)), poly)
        assert abs(a - b) < mpf("1e-28")


def test_iterated_residue_raises_on_insoluble():
    with working_precision(128):
        arr = coincident_point_problem()
        with pytest.raises(InsolubleFlag):
            iterated_residue(arr, Flag((1, 2)), cone(*CONE_UPPER))


def _random_square_arrangement(rng, dim):
    """dim hyperplanes with random integer forms and rational s, plus chart."""
    hps = []
    for _ in range(dim):
        while True:
            f = [rng.randint(-3, 3) for _ in range(dim)]
            if any(f):
                break
        s_val = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        hps.append(plane(f, s_val))
    arr = Arrangement.build(dim, hps)
    return arr


def test_truncation_matches_bruhat_cell():
    with working_precision(128):
        rng = random.Random(20260816)
        checked_zero = checked_nonzero = 0
        for dim in (2, 3):
            poly = cone(*[tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)])
            trials = 0
            while trials < 60:
                arr = _random_square_arrangement(rng, dim)
                if len(arr.hyperplanes) != dim:
                    continue
                trials += 1
                flag = Flag(tuple(range(dim)))
                profile = minor_profile(jacobian(arr, flag.indices, poly))
                try:
                    value = iterated_residue(arr, flag, poly)
                except InsolubleFlag:
                    value = mpc(0)
                if profile.in_bruhat_cell:
                    checked_nonzero += 1
                    assert abs(value) > mpf("1e-12")
                else:
                    checked_zero += 1
                    assert value == mpc(0)
        assert checked_zero > 5 and checked_nonzero > 40


def test_iterated_residue_matches_torus_oracle():
    with working_precision(128):
        arr = three_plane_problem(2, 3)

        # chart determinant -1: chart value is minus the classical one
        engine = iterated_residue(arr, Flag((0, 2)), cone(*CONE_LEFT))
        classical = tiny_torus(arr, (0, 2))
        assert abs(engine + classical) / abs(engine) < mpf("1e-12")

        # chart determinant +1: the two agree
        engine = iterated_residue(arr, Flag((1, 2)), cone(*CONE_RIGHT))
        classical = tiny_torus(arr, (1, 2))
        assert abs(engine - classical) / abs(engine) < mpf("1e-12")


def test_iterated_residue_matches_direct_evaluation():
    with working_precision(128):
        arr = three_plane_problem(2, 3)
        for conegen, indices in ((CONE_LEFT, (0, 2)), (CONE_RIGHT, (1, 2))):
            poly = cone(*conegen)
            flag = Flag(indices)
            direct = direct_flag_value(arr, flag, poly)
            engine = iterated_residue(arr, flag, poly)
            assert abs(direct - engine) / abs(engine) < mpf("1e-30")

        rng = random.Random(7)
        done = 0
        while done < 12:
            arr = _random_square_arrangement(rng, 2)
            extra = plane((1, 1), rng.randint(1, 5))
            try:
                arr = Arrangement.build(2, list(arr.hyperplanes) + [extra])
            except ValueError:
                continue
            if len(arr.hyperplanes) != 3:
                continue
            poly = cone(*CONE_UPPER)
            for flag in enumerate_flags(arr, 2):
                profile = minor_profile(jacobian(arr, flag.indices, poly))
                if not profile.in_bruhat_cell:
                    continue
                point = pole_location(arr, flag)
                clear = all(
                    abs(defining_form(arr.hyperplanes[k]).evaluate(point)) > mpf("0.05")
                    for k in range(3)
                    if k not in flag.indices
                )
                if not clear:
                    continue
                direct = direct_flag_value(arr, flag, poly)
                engine = iterated_residue(arr, flag, poly)
                scale = max(mpf(1), abs(engine))
                assert abs(direct - engine) / scale < mpf("1e-25")
                done += 1


def test_sampled_expansion_matches_stable_sum():
    """Unstable flags arising at one parameter value cancel in the sum."""
    with working_precision(128):
        rng = random.Random(11)
        arr0 = three_plane_problem(2, 3)
        poly = cone(*CONE_LEFT)
        base = evaluate_integral(arr0, poly)
        stable_sum_base = sum(base.flag_contributions.values(), mpc(0))
        for _ in range(6):
            s = tuple(
                mpc(rng.uniform(0.2, 3), rng.uniform(-1, 1)) for _ in range(3)
            )
            arr = three_plane_problem(2, 3, s)
            picked = []
            degenerate = False
            for flag in enumerate_flags(arr, 2):
                try:
                    res = z_star(arr, flag, poly)
                except InsolubleFlag:
                    continue
                if res.boundary:
                    degenerate = True
                    break
                if res.arises:
                    picked.append(flag)
            if degenerate:
                continue
            sampled = sum(
                (
                    iterated_residue(arr, cls[0], poly)
                    for cls in flag_classes(arr, picked)
                ),
                mpc(0),
            )
            stable_sum = sum(
                evaluate_integral(arr, poly).flag_contributions.values(), mpc(0)
            )
            assert abs(sampled - stable_sum) < mpf("1e-25") * max(
                mpf(1), abs(stable_sum)
            )


def test_grothendieck_groupings_at_coincident_point():
    with working_precision(128):
        arr = coincident_point_problem()
        poly = cone(*CONE_WIDE)
        dx, dy = h_partials()
        m = (mpc(0, 1), mpc(0, 1))

        value = grothendieck_residue(arr, DivisorGrouping.of({2, 0}, {1}), m, poly)
        assert abs(value - dx) / abs(dx) < mpf("1e-25")

        value = grothendieck_residue(arr, DivisorGrouping.of({2, 1}, {0}), m, poly)
        assert abs(value + dy) / abs(dy) < mpf("1e-25")

        # the remaining grouping engages two flags soluble only in a chart
        # built for them; its value is the antisymmetric combination
        grouping = DivisorGrouping.of({0, 1}, {2})
        value = grothendieck_residue(arr, grouping, m, poly)
        expected = dy - dx
        assert abs(value - expected) / abs(expected) < mpf("1e-25")
        table = flag_table(arr, poly)
        assert grothendieck_residue(arr, grouping, m, poly, table) == value

        # groupings sum residues of the same form over cycles around one
        # point yet disagree; here dy - dx happens to equal dx since the
        # exponent is 2*pi*i*(x + 2y), so only the -dy grouping separates
        assert abs(dx - (-dy)) > mpf("1e-10")


# (f, s) of seven hyperplanes f(v) = i s in three variables
SEVEN_PLANES = (
    ((2, -1, 1), 3),
    ((2, -1, 0), 1),
    ((1, 2, 2), 3),
    ((2, 1, 0), 4),
    ((2, 1, 2), 4),
    ((2, 0, -1), 3),
    ((-1, -1, 2), 4),
)
IDENTITY_3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# a negatively oriented cone, and a sheared one
SWAPPED_3 = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
SHEARED_3 = ((1, 1, 0), (0, 1, 0), (0, -1, 1))


def _seven_plane_problem():
    hps = [canonicalize_hyperplane(f, -mpc(0, s)) for f, s in SEVEN_PLANES]
    numerator = ExpRationalFunction.from_parts(3, coeff=3)
    return Arrangement.build(3, hps, numerator=numerator)


def test_grothendieck_residue_in_a_built_chart():
    """Only (H2,H1,H4) arrives at (1.25i, 1.5i, 2i).  H2 and H1 agree on
    the cone's first two generators, so p_2 = 0 in the cone's chart.  The
    point is simple, so its residue is 3 / (det F_flag * prod of the other
    g_j at the point)."""
    with working_precision(128):
        arr = _seven_plane_problem()
        poly = cone(*IDENTITY_3)
        grouping = DivisorGrouping.of({1, 2, 6}, {0, 4, 5}, {3})
        point = [mpc(0, "1.25"), mpc(0, "1.5"), mpc(0, 2)]
        flag = Flag((1, 0, 3))
        assert not minor_profile(jacobian(arr, flag.indices, poly)).in_bruhat_cell
        f_flag = RationalMatrix(tuple(arr.hyperplanes[i].f for i in flag.indices))
        others = mpc(1)
        for j, h in enumerate(arr.hyperplanes):
            if j not in flag.indices:
                others *= defining_form(h).evaluate(point)
        expected = 3 / (to_mpc(determinant(f_flag)) * others)
        assert abs(expected - mpf(-2) / 385) < mpf("1e-35")
        value = grothendieck_residue(arr, grouping, point, poly)
        assert abs(value - expected) < mpf("1e-30")


def _check_soluble_charts(arr, poly, grouping) -> int:
    """Every point's chart: each arriving class soluble in it, the cone's
    orientation, and the cone itself when the table finds the classes
    soluble there.  Returns how many points needed a built chart."""
    profiles = {e.flag: e.profile for e in flag_table(arr, poly)}
    built = 0
    for _, flags in points_of_grouping(arr, grouping):
        reps = [cls[0] for cls in flag_classes(arr, flags)]
        chart = _soluble_chart(arr, reps, poly, profiles)
        for rep in reps:
            assert minor_profile(jacobian(arr, rep.indices, chart)).in_bruhat_cell
        assert (chart.det() > 0) == (poly.det() > 0)
        if all(profiles[rep].in_bruhat_cell for rep in reps):
            assert chart is poly
        else:
            built += 1
    return built


@given(
    st.lists(st.integers(0, 2), min_size=7, max_size=7),
    st.sampled_from([IDENTITY_3, SWAPPED_3, SHEARED_3]),
)
@example([1, 0, 0, 2, 1, 1, 0], IDENTITY_3)
# the moment-curve chart has the opposite orientation to the cone's here
@example([0, 0, 0, 0, 1, 0, 2], SWAPPED_3)
@settings(max_examples=30, deadline=None)
def test_soluble_chart_on_seven_planes(groups, generators):
    assume(set(groups) == {0, 1, 2})
    grouping = DivisorGrouping.of(
        *({i for i, g in enumerate(groups) if g == k} for k in range(3))
    )
    with working_precision(128):
        _check_soluble_charts(_seven_plane_problem(), cone(*generators), grouping)


def test_soluble_chart_at_coincident_point():
    with working_precision(128):
        arr = coincident_point_problem()
        grouping = DivisorGrouping.of({0, 1}, {2})
        assert _check_soluble_charts(arr, cone(*CONE_WIDE), grouping) == 1


def _load_script(name):
    """The module ``scripts/<name>.py``, loaded without running its main."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grouping_survey_builds_one_flag_table(monkeypatch, capsys):
    """The survey asks for every grouping's residues against one table;
    ``canonical_grouping`` builds the only other one."""
    survey = _load_script("grouping_survey")
    original = arrangement.flag_table
    tables = []

    def counted(*args):
        tables.append(args)
        return original(*args)

    residuum = [m for name, m in sys.modules.items() if name.startswith("residuum")]
    for module in [*residuum, survey]:
        if vars(module).get("flag_table") is original:
            monkeypatch.setattr(module, "flag_table", counted)
    with working_precision(mp.prec):
        survey.main()
    assert len(tables) == 2
    assert "canonical grouping: (H1H3,H2)" in capsys.readouterr().out


def _asymmetric_problem():
    """exp(2 pi i (3x + 5y)) over the coincident-point hyperplanes, with
    partial_x h and partial_y h at (i, i); here partial_y h - partial_x h
    differs from partial_x h."""
    from residuum.symfun import AffineForm

    numerator = ExpRationalFunction.from_parts(
        2,
        expo=AffineForm.make([2 * pi * mpc(0, 3), 2 * pi * mpc(0, 5)], 0),
    )
    hps = [
        canonicalize_hyperplane([1, 0], -mpc(0, 1)),
        canonicalize_hyperplane([0, 1], -mpc(0, 1)),
        canonicalize_hyperplane([1, 1], -mpc(0, 2)),
    ]
    arr = Arrangement.build(2, hps, numerator=numerator)
    h_at = exp(mpc(0, 1) * 2 * pi * (3 * mpc(0, 1) + 5 * mpc(0, 1)))
    return arr, mpc(0, 1) * 2 * pi * 3 * h_at, mpc(0, 1) * 2 * pi * 5 * h_at


def test_grouping_asymmetric_numerator():
    """Terminal-point residues distinguish the three groupings sharply."""
    with working_precision(128):
        arr, dx, dy = _asymmetric_problem()
        poly = cone(*CONE_WIDE)
        m = (mpc(0, 1), mpc(0, 1))
        pairs = (
            (DivisorGrouping.of({2, 0}, {1}), dx),
            (DivisorGrouping.of({2, 1}, {0}), -dy),
            (DivisorGrouping.of({0, 1}, {2}), dy - dx),
        )
        for grouping, expected in pairs:
            value = grothendieck_residue(arr, grouping, m, poly)
            assert abs(value - expected) / abs(expected) < mpf("1e-25")


def test_trace_formula_oracle():
    """trace_residue against closed forms: first the two groupings whose
    values nobody disputes, then all three on a numerator for which
    partial_y h - partial_x h and partial_x h differ."""
    m = (mpc(0, 1), mpc(0, 1))
    with working_precision(128):
        arr = coincident_point_problem()
        dx, dy = h_partials()
        for groups, expected in ((({0, 2}, {1}), dx), (({1, 2}, {0}), -dy)):
            value = trace_residue(arr, groups, m)
            assert abs(value - expected) / abs(expected) < mpf("1e-20")

        arr, dx, dy = _asymmetric_problem()
        assert abs((dy - dx) - dx) > mpf("0.1") * abs(dx)
        pairs = (
            (({0, 2}, {1}), dx),
            (({1, 2}, {0}), -dy),
            (({0, 1}, {2}), dy - dx),
        )
        for groups, expected in pairs:
            value = trace_residue(arr, groups, m)
            assert abs(value - expected) / abs(expected) < mpf("1e-20")


def test_canonical_grouping_values():
    with working_precision(128):
        arr = coincident_point_problem()
        grouping = canonical_grouping(arr, cone(*CONE_WIDE))
        assert grouping.groups == (frozenset({0, 2}), frozenset({1}))
        assert grouping.label(arr) == "(H1H3,H2)"

        arr1 = three_plane_problem(2, 3)
        grouping = canonical_grouping(arr1, cone(*CONE_LEFT))
        assert grouping.groups == (frozenset({0}), frozenset({2}))

        points = points_of_grouping(arr1, grouping)
        assert len(points) == 1
        assert [f.indices for f in points[0][1]] == [(0, 2)]


def test_canonical_grouping_empty():
    with working_precision(128):
        arr = Arrangement.build(
            1, [canonicalize_hyperplane([-1], mpc(0, -1))]
        )
        with pytest.raises(EmptyStableSet):
            canonical_grouping(arr, cone((1,)))


def test_convergence_verdicts():
    with working_precision(128):
        arr23 = three_plane_problem(2, 3)
        assert (
            convergence_heuristic(arr23, cone(*CONE_LEFT))
            is Convergence.BOUNDED_NUMERATOR
        )
        # growing numerator on the cone: no certificate
        arr32 = three_plane_problem(3, 2)
        assert convergence_heuristic(arr32, cone(*CONE_LEFT)) is Convergence.UNKNOWN
        # incompatible chart: no certificate either
        assert convergence_heuristic(arr23, cone(*CONE_UPPER)) is Convergence.UNKNOWN

        arr2 = coincident_point_problem()
        assert (
            convergence_heuristic(arr2, cone(*CONE_WIDE))
            is Convergence.BOUNDED_NUMERATOR
        )

        # total denominator degree equal to the dimension: nothing applies
        arr_eq = Arrangement.build(
            1, [canonicalize_hyperplane([-1], mpc(0, -1))]
        )
        assert convergence_heuristic(arr_eq, cone((1,))) is Convergence.UNKNOWN

        # polynomial numerator dominated by the denominator degree
        from residuum.symfun import Polynomial

        linear = ExpRationalFunction.from_parts(
            1, poly=Polynomial(1, {(1,): mpc(1)})
        )
        hps = [
            canonicalize_hyperplane([1], mpc(0, -1)),
            canonicalize_hyperplane([-1], mpc(0, -1)),
            canonicalize_hyperplane([1], mpc(0, -2)),
            canonicalize_hyperplane([-1], mpc(0, -3)),
        ]
        arr_poly = Arrangement.build(1, hps, numerator=linear)
        assert convergence_heuristic(arr_poly, cone((1,))) is Convergence.DECAY


def test_scaling_generators_keeps_value():
    with working_precision(128):
        arr = three_plane_problem(2, 3)
        base = evaluate_integral(arr, cone(*CONE_LEFT)).value
        factors = (Fraction(7, 2), Fraction(1, 3))
        scaled_poly = cone(
            *[[c * x for x in g] for c, g in zip(factors, CONE_LEFT)]
        )
        scaled = evaluate_integral(arr, scaled_poly).value
        assert abs(base - scaled) / abs(base) < mpf("1e-30")


def test_permutation_probe():
    probe_of = _load_script("random_probe").permutation_stability_probe
    with working_precision(128):
        arr = three_plane_problem(2, 3)
        probe = probe_of(arr, cone(*CONE_LEFT))
        assert [f.indices for f in probe.collections] == [(0, 2)]
        assert probe.conjecture_holds

        probe = probe_of(single_pole_problem(), cone((1,)))
        assert probe.conjecture_holds


# Two problems of the benchmark's coincident pool (pool 1 and pool 2, #2 of
# their multiplicity patterns) whose value is 0: six hyperplanes f . v = i s
# through one point, their multiplicities, and the numerator exp(i w . v),
# on the positive orthant.  Rounded residue steps gave -4.45e-41 and
# -4.0e-40 at 128 bits.
ZERO_VALUED = [
    pytest.param(
        [(2, 1, 1), (1, 1, 2), (-1, 2, -1), (1, 0, 0), (2, -1, 2), (1, -2, 2)],
        [6, 7, 1, 1, 4, 1],
        [3, 2, 2, 1, 1, 1],
        (0, 0, 1),
        id="pool-1",
    ),
    pytest.param(
        [(2, 1, -1), (1, 2, -1), (2, 2, 1), (1, -1, 2), (1, 1, 2), (-2, 2, 1)],
        [4, 4, 10, 4, 8, 2],
        [1] * 6,
        (1, -1, 0),
        id="pool-2",
    ),
]


@pytest.mark.parametrize("rows, s, mult, freq", ZERO_VALUED)
def test_exact_data_give_exact_zero(rows, s, mult, freq):
    """On exact data the flags' residues are summed exactly, so a value
    that is 0 is exactly 0, though every contribution is not; the grouped
    residue at the one terminal point is exactly 0 too."""
    expo = AffineForm(tuple(GaussianRational(0, w) for w in freq), 0)
    numerator = ExpRationalFunction.from_parts(3, expo=expo)
    arr = Arrangement.build(
        3, [plane(f, v) for f, v in zip(rows, s)], numerator=numerator, multiplicities=mult
    )
    poly = cone((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with working_precision(128):
        result = evaluate_integral(arr, poly)
        _, points = canonical_grouping_points(arr, poly)
    assert result.value == 0
    assert len(result.flag_contributions) == 4
    assert all(result.flag_contributions.values())
    assert result.certificate == Certificate(False, Convergence.UNKNOWN, ())
    assert [res for _, _, res in points] == [0]


def _shear(rng: random.Random, r: int, steps: int) -> list:
    """A random integer matrix of determinant 1: the identity with ``steps``
    random column operations (column j += +-column i)."""
    a = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(steps if r > 1 else 0):
        i, j = rng.sample(range(r), 2)
        c = rng.choice((-1, 1))
        for row in a:
            row[j] += c * row[i]
    return a


def _product_value(m: int, omegas) -> mpf:
    """(-1)^(r m) prod_k I_m(om_k), I_m(om) = int e^(i om w) / (w^2 + 1)^m dw
    = pi e^-|om| / (4^(m-1) (m-1)!) sum_k (2m-2-k)! (2|om|)^k / (k! (m-1-k)!)."""
    out = mpf(-1) ** (len(omegas) * m)
    for om in map(abs, omegas):
        acc = sum(
            factorial(2 * m - 2 - k) * mpf(2 * om) ** k
            / (factorial(k) * factorial(m - 1 - k))
            for k in range(m)
        )
        out *= pi * exp(-om) / (4 ** (m - 1) * factorial(m - 1)) * acc
    return out


def _closed_form_problem(rows, s, mult, freq, generators):
    """The arrangement of the hyperplanes rows[k] . v = i s[k] with
    numerator exp(i freq . v), and the cone of ``generators``."""
    r = len(generators)
    expo = AffineForm(tuple(GaussianRational(0, w) for w in freq), 0)
    numerator = ExpRationalFunction.from_parts(r, expo=expo)
    hyperplanes = [plane(f, v) for f, v in zip(rows, s)]
    arr = Arrangement.build(r, hyperplanes, numerator=numerator, multiplicities=mult)
    return arr, cone(*generators)


@pytest.mark.parametrize("r", range(1, 7))
def test_sheared_products_match_their_closed_form(r):
    """prod_k 1 / ((w_k - i)^m (-w_k - i)^m) e^(i om . w) with w = A v, A a
    random shear, its 2r hyperplanes in random order, m <= 3 (<= 2 at
    r >= 5): in the cone spanned by the columns of A^-1, each negated where
    om_k < 0, the value is certified and within 1e-30 relative of
    ``_product_value``; in the cone of the unnegated columns, where that
    differs, it is not certified."""
    rng = random.Random(f"sheared product {r}")
    for m in range(1, (3 if r < 5 else 2) + 1):
        a = _shear(rng, r, rng.randint(0, 2 * r))
        a_inv = inverse(RationalMatrix(tuple(map(tuple, a))))
        omegas = [rng.randint(-3, 3) for _ in range(r)]
        rows = [row for f in a for row in (f, [-x for x in f])]
        order = rng.sample(range(2 * r), 2 * r)
        freq = [sum(om * a[k][j] for k, om in enumerate(omegas)) for j in range(r)]
        for flip in (True, False):
            generators = [
                [(-1 if flip and omegas[j] < 0 else 1) * a_inv[i, j] for i in range(r)]
                for j in range(r)
            ]
            arr, poly = _closed_form_problem(
                [rows[k] for k in order], [1] * (2 * r), [m] * (2 * r), freq, generators
            )
            result = evaluate_integral(arr, poly)
            if flip:
                with working_precision(128):
                    want = _product_value(m, omegas)
                    assert abs(result.value - want) <= mpf("1e-30") * abs(want)
                assert result.certificate.certified
            elif min(omegas) < 0:
                assert not result.certificate.certified


def test_simplicial_draws_match_their_closed_form():
    """R = r hyperplanes F v = i s, r <= 4, primitive integer rows, with
    numerator exp(i om . v), om = F^T c and each c_j = +-1 or +-2, in the
    cone of the columns of F^-1, each negated where c_j < 0: the value is
    (2 pi i)^r / |det F| prod_j e^(-c_j s_j), and 0 when some c_j < 0,
    within 1e-30 of (2 pi)^r / |det F| prod_j e^(-|c_j| s_j), and it is not
    certified, since the integral converges only conditionally."""
    rng = random.Random("simplicial")
    for _ in range(24):
        r = rng.randint(1, 4)
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
            f = RationalMatrix(tuple(map(tuple, rows)))
            if all(math.gcd(*row) == 1 for row in rows) and determinant(f):
                break
        f_inv, det_f = inverse(f), abs(determinant(f))
        c = [rng.choice((-2, -1, 1, 2)) for _ in range(r)]
        s = [rng.randint(1, 4) for _ in range(r)]
        freq = [sum(rows[j][k] * c[j] for j in range(r)) for k in range(r)]
        generators = [[(1 if c[j] > 0 else -1) * f_inv[i, j] for i in range(r)] for j in range(r)]
        arr, poly = _closed_form_problem(rows, s, [1] * r, freq, generators)
        result = evaluate_integral(arr, poly)
        with working_precision(128):
            want = TWO_PI_I() ** r / det_f * exp(-sum(x * y for x, y in zip(c, s)))
            scale = (2 * pi) ** r / det_f * exp(-sum(abs(x) * y for x, y in zip(c, s)))
            assert abs(result.value - (want if min(c) > 0 else 0)) <= mpf("1e-30") * scale
        assert not result.certificate.certified


@st.composite
def coincident_draws(draw):
    """Four to six hyperplanes f . v = i s in three variables, at least
    three of them through one point P = d + i c (small integers, c > 0), so
    s = f . c - i f . d with f . c > 0, and the others shifted off it by
    adding 1 or 2 to s; multiplicities 1 to 3, numerator exp(i om . v), and
    the identity cone."""
    c = draw(st.lists(st.integers(1, 2), min_size=3, max_size=3))
    d = draw(st.lists(st.integers(-1, 1), min_size=3, max_size=3))
    dot = lambda f, x: sum(a * b for a, b in zip(f, x))
    row = st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(
        lambda f: math.gcd(*f) == 1 and dot(f, c) > 0
    )
    rows = draw(st.lists(row, min_size=4, max_size=6, unique_by=tuple))
    assume(determinant(RationalMatrix(tuple(map(tuple, rows[:3])))) != 0)
    off = len(rows) - draw(st.integers(3, len(rows)))
    shifts = [0] * (len(rows) - off) + draw(st.lists(st.integers(1, 2), min_size=off, max_size=off))
    s = [GaussianRational(dot(f, c) + k, -dot(f, d)) for f, k in zip(rows, shifts)]
    mult = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    freq = draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
    return _closed_form_problem(rows, s, mult, freq, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


@given(coincident_draws())
@settings(max_examples=20, deadline=None)
def test_contributions_are_exact_sums_rounded_once(case):
    """Each flag's contribution is its residue summed exactly
    (``constant_sum``) and rounded once: at 128 bits the value of that sum,
    bit for bit, not the sum of its terms' rounded values; and within 2^-124
    of its magnitude (16 units in the last place, as the exponential and
    the product are rounded too) of the sum's value at 256 bits, exactly 0
    where that is."""
    arr, poly = case
    residues = ChartResidues(arr, poly)
    with working_precision(128):
        result = evaluate_integral(arr, poly)
        sums = {flag: constant_sum([residues.function(flag)]) for flag in result.flag_contributions}
        assert result.flag_contributions == {flag: f.evaluate(()) for flag, f in sums.items()}
    with working_precision(256):
        for flag, value in result.flag_contributions.items():
            want = sums[flag].evaluate(())
            assert abs(value - want) <= abs(want) * mpf(2) ** -124


_gaussians = st.builds(
    lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3),
)


@st.composite
def crossing_draws(draw):
    """R <= 8 hyperplanes f . v = i s in r <= 4 variables: integer rows
    (entries in -2..2, not all 0) and s Gaussian rationals with Re s != 0.
    Generic ones take multiplicities 1 to 3 (on the first r rows at most 1);
    central ones all pass through one Gaussian-rational point P,
    s = -i f . P, and coincident ones have more than r of them (three or
    more) through P and the rest generic; both take multiplicities 1
    (drawn three times as often), 2 or 3.  A numerator that is a
    constant, a polynomial of degree <= 2, or a sum of 1 to 3 terms
    c exp(lambda) with lambda Gaussian affine; and a unimodular cone, the
    columns of an integer shear, the first scaled by 1, -1, 1/2 or -3/2."""
    r = draw(st.integers(1, 4))
    big_r = draw(st.integers(r, 8))
    row = st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any)
    layout = draw(st.sampled_from(["generic", "central", "coincident"]))
    if layout == "generic":
        rows = draw(st.lists(row, min_size=big_r, max_size=big_r))
        s = draw(st.lists(_gaussians.filter(lambda x: x.re), min_size=big_r, max_size=big_r))
        mult = [1] * r + draw(st.lists(st.integers(1, 3), min_size=big_r - r, max_size=big_r - r))
    else:
        points = st.lists(_gaussians, min_size=r, max_size=r)
        point = draw(points.filter(lambda p: any(x.im for x in p)))
        dot = lambda f: sum((x * c for x, c in zip(point, f)), GaussianRational(0))
        on = big_r if layout == "central" else draw(st.integers(min(max(3, r + 1), big_r), big_r))
        rows = draw(st.lists(row.filter(lambda f: dot(f).im), min_size=on, max_size=on))
        s = [GaussianRational(dot(f).im, -dot(f).re) for f in rows]
        rows += draw(st.lists(row, min_size=big_r - on, max_size=big_r - on))
        s += draw(st.lists(_gaussians.filter(lambda x: x.re), min_size=big_r - on, max_size=big_r - on))
        mult = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3]), min_size=big_r, max_size=big_r))
    kind = draw(st.sampled_from(["constant", "polynomial", "exp"]))
    monomial = st.lists(st.integers(0, 2), min_size=r, max_size=r).filter(lambda e: sum(e) <= 2)
    terms = []
    for _ in range(draw(st.integers(1, 3)) if kind == "exp" else 1):
        poly = Polynomial.constant(r, 1)
        if kind == "polynomial":
            coeffs = st.dictionaries(monomial.map(tuple), _gaussians, min_size=1, max_size=4)
            poly = Polynomial(r, draw(coeffs))
        expo = AffineForm.constant(r, 0)
        if kind == "exp":
            slopes = draw(st.lists(_gaussians, min_size=r, max_size=r))
            expo = AffineForm(tuple(slopes), draw(_gaussians))
        terms.append(Term.make(draw(_gaussians.filter(bool)), poly, expo, ()))
    numerator = ExpRationalFunction(r, terms)
    assume(not numerator.is_zero())
    shear = [[int(i == j) for j in range(r)] for i in range(r)]
    shears = st.tuples(st.integers(0, r - 1), st.integers(0, r - 1), st.sampled_from([-1, 1]))
    for i, j, c in draw(st.lists(shears, max_size=6)):
        if i != j:
            for row in shear:
                row[j] += c * row[i]
    gens = [list(col) for col in zip(*shear)]
    scale = draw(st.sampled_from([1, -1, Fraction(1, 2), Fraction(-3, 2)]))
    gens[0] = [scale * x for x in gens[0]]
    hyperplanes = [plane(f, x) for f, x in zip(rows, s)]
    arr = Arrangement.build(r, hyperplanes, numerator=numerator, multiplicities=mult)
    return arr, cone(*gens)


@given(crossing_draws())
@settings(max_examples=100, deadline=None)
def test_crossing_matches_the_steps(case):
    """Where the closed form (``ChartResidues.closed_form``) applies on
    exact data (at a simple normal crossing, at a point on every
    hyperplane, where it has no term, or on the line of a class whose
    first r - 1 planes are simple poles, by one residue in s) it gives the
    steps' residue: the same ``constant_sum`` terms, coefficient and
    exponent, in the same order, and, at 128 and 256 bits, a rounded
    contribution (``rounded_sum``) bit for bit that of the steps' exact sum
    evaluated (``evaluate(())``).  Up to eight classes per draw are
    compared, those on a line first; a class whose first flag is insoluble
    in the cone's chart against its steps in ``_soluble_chart``'s chart."""
    arr, poly = case
    table = flag_table(arr, poly)
    verdicts = _verdicts(table)
    closed, steps = ChartResidues(arr, poly, table), ChartResidues(arr, poly)
    classes = [
        cls for cls in terminal_classes(arr, list(map(Flag, table.indices)))
        if closed.closed_form(cls) is not None
    ]
    assume(classes)
    # on a line: more than the first flag's own r planes pass through p
    classes.sort(key=lambda cls: len(cls.incidence) == arr.dim)
    for cls in classes[:8]:
        rep = cls.flags[0]
        chart = _soluble_chart(arr, [rep], poly, verdicts)
        func = (steps if chart is poly else ChartResidues(arr, chart)).function(rep)
        got, want = constant_sum([closed.closed_form(cls)]), constant_sum([func])
        assert [(t.coeff, t.expo) for t in got.terms] == [
            (t.coeff, t.expo) for t in want.terms
        ]
        for bits in (128, 256):
            with working_precision(bits):
                value = rounded_sum([closed.closed_form(cls)])
                assert value._mpc_ == want.evaluate(())._mpc_
                assert value._mpc_ == rounded_sum([func])._mpc_


@pytest.mark.parametrize(
    "den",
    [
        "(v1 - i) (v2 - i) (v1 + v2 - 2*i) (v3 - i)",
        "(v1 - i)^2 (v2 - i) (v3 - i) (v1 + v2 + v3 - 3*i)",
    ],
    ids=["three_planes_through_a_line", "double_pole_first"],
)
def test_line_closed_form_declines(den):
    """r = 3, numerator exp(i v3), every plane through p = (i, i, i).  The
    class led by (H1, H2) declines (None) when a third plane holds its line
    v1 = v2 = i, or when H1 is a double pole, and takes its steps."""
    spec = parse_problem(
        f"vars v1 v2 v3;\ncone (1,0,0) (0,1,0) (0,0,1);\nnum exp(i*v3);\nden {den};\n"
    )
    arr, poly = spec.arrangement(), spec.polyhedron()
    table = flag_table(arr, poly)
    closed, steps = ChartResidues(arr, poly, table), ChartResidues(arr, poly)
    (cls,) = [
        cls for cls in terminal_classes(arr, list(map(Flag, table.indices)))
        if cls.flags[0].indices[:2] == (0, 1)
    ]
    assert len(cls.incidence) == len(arr.hyperplanes) == 4
    assert closed.closed_form(cls) is None
    got = constant_sum(_class_functions(arr, [cls], closed)[0])
    want = constant_sum([steps.function(cls.flags[0])])
    assert [(t.coeff, t.expo) for t in got.terms] == [(t.coeff, t.expo) for t in want.terms]


@pytest.mark.parametrize(
    "num, zero",
    [("1", True), ("v1 + 1", True), ("v1*v2 + v1", False), ("v2^2", False), ("exp(i*v1)", False)],
)
def test_central_closed_form_needs_low_degree_and_no_slope(num, zero):
    """Three lines through p = (i, 2i) in r = 2, the first a double pole, so
    D = sum m_j - r = 2.  Below degree D, with no exponent slope, each
    class's closed form is the empty function and its steps give exact 0.
    At degree D, or with exp(i v1), the class led by the double pole
    declines (None) and the steps give a nonzero residue for some class;
    the other class, led by the simple v2 - 2i, takes its residue in s on
    the line v2 = 2i, which the other two lines cross at p, and gives its
    steps' terms."""
    spec = parse_problem(
        f"vars v1 v2;\ncone (1,0) (0,1);\nnum {num};\n"
        "den (v1 - i)^2 (v2 - 2*i) (v1 + v2 - 3*i);\n"
    )
    arr, poly = spec.arrangement(), spec.polyhedron()
    table = flag_table(arr, poly)
    verdicts = dict(zip(table.indices, table.verdicts))
    closed, steps = ChartResidues(arr, poly, table), ChartResidues(arr, poly)
    classes = [
        cls for cls in terminal_classes(arr, list(map(Flag, table.indices)))
        if verdicts[cls.flags[0].indices].in_bruhat_cell
    ]
    assert len(classes) == 2 and all(len(cls.incidence) == 3 for cls in classes)
    values = [constant_sum([steps.function(cls.flags[0])]) for cls in classes]
    if zero:
        assert all(closed.closed_form(cls).is_zero() for cls in classes)
        assert all(value.is_zero() for value in values)
    else:
        double, simple = sorted(classes, key=lambda cls: -arr.multiplicities[cls.flags[0].indices[0]])
        assert arr.multiplicities[double.flags[0].indices[0]] == 2
        assert closed.closed_form(double) is None
        got = constant_sum([closed.closed_form(simple)])
        want = values[classes.index(simple)]
        assert [(t.coeff, t.expo) for t in got.terms] == [(t.coeff, t.expo) for t in want.terms]
        assert not all(value.is_zero() for value in values)


# rays of three complete toric surfaces, as the rows of f_j(v) = i s_j
FANS = {
    "P2": [(1, 0), (0, 1), (-1, -1)],
    "P1xP1": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "F1": [(1, 0), (0, 1), (-1, 1), (0, -1)],
}


def _spanning_rows(rng: random.Random, r: int, big_r: int) -> list:
    """``big_r`` primitive integer rows, entries in -2..2 but the last,
    every r of them independent and summing to a multiple of 0: no real
    direction has every f_j(u) >= 0, so the value need not vanish."""
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(big_r - 1)]
        last = [-sum(col) for col in zip(*rows)]
        if any(last):
            rows.append([x // math.gcd(*last) for x in last])
        if len(rows) == big_r and all(math.gcd(*row) == 1 for row in rows) and all(
            determinant(RationalMatrix(tuple(map(tuple, sub))))
            for sub in itertools.combinations(rows, r)
        ):
            return rows


def _cones(rng: random.Random, rows: list, r: int, adjugates: bool) -> list:
    """Twenty positively oriented cones: random ones, entries in -3..3; or,
    with ``adjugates``, for each r independent rows the columns of their
    adjugate and their negatives, the first negated where the orientation
    needs it (where F_S v = w, a cone of +-e_k in w)."""
    if adjugates:
        cones = []
        for sub in itertools.combinations(rows, r):
            if not determinant(RationalMatrix(tuple(map(tuple, sub)))):
                continue
            adj, _ = _gauss_jordan(sub)
            cones += [[[sign * x for x in col] for col in zip(*adj)] for sign in (1, -1)]
    else:
        cones = [[[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)] for _ in range(20)]
    oriented = []
    for gens in cones:
        det = determinant(RationalMatrix(tuple(map(tuple, gens))))
        if det:
            oriented.append(gens if det > 0 else [[-x for x in gens[0]], *gens[1:]])
    return oriented


CONE_CASES = [*FANS, "generic 0", "generic 1"]


@pytest.mark.parametrize(
    "case",
    [*CONE_CASES, "generic r=4 0", "generic r=4 1", *(f"{c} exp" for c in CONE_CASES),
     "generic r=4 0 exp", "generic r=4 1 exp"],
)
def test_certified_values_do_not_depend_on_the_cone(case):
    """The value is an integral over R^r and a cone only picks the contour,
    so every cone in which ``eval`` is certified gives it: over at most 30
    cones (``_cones``), the certified values agree to 1e-30 of (2 pi)^r
    times the sum of |contributions|, and none is 0 (a stable class ends
    inside a certified cone, so an inside test turned around would give 0
    in every one).  The fans take s_j = 1 + (j mod 3) and random cones; the
    generic draws are five rows in three variables, or six in four
    (``_spanning_rows``), with s_j in 1..3; and these, and the fans in an
    ``exp`` case, take the cones of their row r-sets' adjugates.  The
    numerator is 1, with at least two certified cones; in an ``exp`` case
    it is exp(-i f_j . v) for each row f_j in turn, each compared where it
    has two certified cones, and at least one has.  In the r = 4 and
    ``exp`` cases the first hyperplane has multiplicity 2, so a sum mixes
    the closed form of simple crossings with the steps of the others."""
    rng = random.Random(f"cone independence {case}")
    name = case.removesuffix(" exp")
    if name in FANS:
        rows = FANS[name]
        s = [1 + j % 3 for j in range(len(rows))]
    else:
        r = 4 if "r=4" in name else 3
        rows = _spanning_rows(rng, r, r + 2)
        s = [rng.randint(1, 3) for _ in rows]
    r = len(rows[0])
    mult = [1 + (case not in CONE_CASES)] + [1] * (len(rows) - 1)
    cones = _cones(rng, rows, r, name not in FANS or name != case)
    compared = 0
    for freq in [[-x for x in f] for f in rows] if name != case else [[0] * r]:
        certified = []
        for gens in cones:
            arr, poly = _closed_form_problem(rows, s, mult, freq, gens)
            with working_precision(128):
                result = evaluate_integral(arr, poly)
            if result.certificate.certified:
                size = sum(abs(v) for v in result.flag_contributions.values())
                certified.append((result.value, (2 * pi) ** r * size))
        if len(certified) < 2:
            continue
        compared += 1
        (first, first_size), *rest = certified
        assert first != 0
        for value, size in rest:
            assert abs(value - first) <= mpf("1e-30") * max(size, first_size)
    assert compared


_PI_OFFSETS = ("1", "2", "3/2", "pi", "pi/2", "2*pi/3")


@st.composite
def _transcendental_texts(draw):
    """A problem in r <= 3 variables with pi in some s_j, multiplicities 1
    and 2, and pi, exp(c) and n^(affine) in its numerator.  Its first rows are the unit rows, so
    that in the identity cone some flag is stable."""
    r = draw(st.integers(1, 3))
    names = [f"v{k + 1}" for k in range(r)]
    row = st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any)
    units = [[int(i == j) for j in range(r)] for i in range(r)]
    rows = units + draw(st.lists(row, min_size=1, max_size=2))

    def linear(coeffs):
        return " + ".join(f"({a})*{v}" for a, v in zip(coeffs, names))

    offsets = ["pi"] + [draw(st.sampled_from(_PI_OFFSETS)) for _ in rows[1:]]
    mults = [draw(st.sampled_from(["", "^2"])) for _ in rows]
    den = " ".join(f"({linear(f)} - ({s})*i){m}" for f, s, m in zip(rows, offsets, mults))
    base = draw(st.sampled_from(["2", "3", "(1/2)"]))
    c = draw(st.sampled_from(["1/2", "-1", "i", "pi"]))
    slope = draw(st.lists(st.integers(-1, 1), min_size=r, max_size=r))
    num = f"pi*exp({c})*{base}^(i*({linear(slope)}))"
    cone = " ".join("(" + ",".join(str(int(i == j)) for j in range(r)) + ")" for i in range(r))
    return f"vars {' '.join(names)};\ncone {cone};\nnum {num};\nden {den};\n"


@given(_transcendental_texts())
@settings(max_examples=30, deadline=None)
def test_transcendental_data_agree_across_precisions(text):
    """pi, exp(c) and n^(affine) enter as the binary values of their
    roundings, and everything after that is exact, so eval's value at 256
    bits agrees with that at 512 bits to 1e-70 of the contributions' size."""
    spec = parse_problem(text)
    values = []
    for bits in (256, 512):
        with working_precision(bits):
            result = evaluate_integral(spec.arrangement(), spec.polyhedron())
            scale = max([mpf(1)] + [abs(x) for x in result.flag_contributions.values()])
            values.append(result.value)
    with working_precision(512):
        assert abs(values[0] - values[1]) <= mpf("1e-70") * scale * (2 * pi) ** spec.dim
