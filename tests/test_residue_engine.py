"""Engine tests: iterated residues, integral evaluation, and regroupings.

Two independent oracles sit at the top.  tiny_torus integrates the form
over the torus cycle |g_j| = eps around a simple terminal point (classical,
chart-free value); direct_flag_value evaluates the simple-transverse-flag
residue formula in the chart without the residue machinery.  A third,
conftest.trace_residue, gives Grothendieck residues of grouped divisors by
the trace formula.
"""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import exp, mp, mpc, mpf, pi

from conftest import (
    CONE_LEFT,
    CONE_RIGHT,
    CONE_UPPER,
    CONE_WIDE,
    coincident_point_problem,
    cone,
    h_partials,
    power_numerator,
    single_pole_problem,
    three_plane_problem,
    three_plane_value,
    trace_residue,
    z_star,
)
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
)
from residuum.exact_linalg import RationalMatrix, determinant, inverse, minor_profile
from residuum.residue_engine import (
    Certificate,
    Convergence,
    DivisorGrouping,
    EmptyStableSet,
    _soluble_chart,
    canonical_grouping,
    convergence_heuristic,
    evaluate_integral,
    grothendieck_residue,
    iterated_residue,
    points_of_grouping,
    truncated_iterated_residue,
)
from residuum.symfun import ExpRationalFunction, to_mpc, working_precision

TWO_PI_I = lambda: 2 * pi * mpc(0, 1)


def tiny_torus(arr, indices, eps_scale=mpf("0.1"), nodes=64):
    """Classical residue at the collection's terminal point by quadrature.

    Valid only when the point is simple: no foreign hyperplane may pass
    near it (the cycle must stay clear).
    """
    flag = Flag(tuple(indices))
    m = pole_location(arr, flag)
    rows = [arr.hyperplanes[i].f_row() for i in indices]
    a = RationalMatrix.from_rows(rows)
    a_inv = inverse(a)
    det_a_inv = to_mpc(determinant(a_inv))
    foreign = [
        abs(arr.hyperplanes[k].defining_form().evaluate(m))
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
        a = truncated_iterated_residue(arr, Flag((0, 1)), poly)
        b = truncated_iterated_residue(arr, Flag((0, 2)), poly)
        assert abs(a - b) < mpf("1e-28")


def test_iterated_residue_raises_on_insoluble():
    with working_precision(128):
        arr = coincident_point_problem()
        with pytest.raises(InsolubleFlag):
            iterated_residue(arr, Flag((1, 2)), cone(*CONE_UPPER))
        assert truncated_iterated_residue(arr, Flag((1, 2)), cone(*CONE_UPPER)) == mpc(0)


def _random_square_arrangement(rng, dim):
    """dim hyperplanes with random integer forms and rational s, plus chart."""
    hps = []
    for _ in range(dim):
        while True:
            f = [rng.randint(-3, 3) for _ in range(dim)]
            if any(f):
                break
        s_val = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        hps.append(canonicalize_hyperplane(f, -mpc(0, 1) * to_mpc(s_val)))
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
                value = truncated_iterated_residue(arr, flag, poly)
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
            extra = canonicalize_hyperplane(
                [1, 1], -mpc(0, 1) * to_mpc(Fraction(rng.randint(1, 5)))
            )
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
                    abs(arr.hyperplanes[k].defining_form().evaluate(point)) > mpf("0.05")
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
                    truncated_iterated_residue(arr, cls[0], poly)
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
        f_flag = RationalMatrix.from_rows(
            [arr.hyperplanes[i].f_row() for i in flag.indices]
        )
        others = mpc(1)
        for j, h in enumerate(arr.hyperplanes):
            if j not in flag.indices:
                others *= h.defining_form().evaluate(point)
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
