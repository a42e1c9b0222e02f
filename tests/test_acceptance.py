"""Acceptance suite: the worked examples end to end plus randomized properties.

One criterion per test so a verbose run reports one pass/fail line each:

1. classification table of the three-plane problem across three cones
2. three-plane integral values and quadrature cross-check through the CLI
3. failure mode of the three-plane problem on an incompatible cone
4. coincident-point problem: value, flag contributions, divisor groupings
5. one-dimensional arctangent integral by residues and by quadrature
6. truncation law for iterated residues on random rational flags
7. unstable-sum vanishing on random all-compatible arrangements
8. verdict and value invariance under positive rescaling
9. torus-cycle quadrature against iterated residues
10. the paper's theorem and its converse on generic r = 2 draws
"""

import json
import random
import textwrap
from fractions import Fraction
from time import perf_counter

from mpmath import mpc, mpf, pi

from conftest import (
    CONE_WIDE,
    coincident_point_problem,
    cone,
    h_partials,
    plane,
    single_pole_problem,
    three_plane_problem,
    three_plane_value,
    z_star,
)
from reference import ForeignPoleInsideTorus, matrix, torus_residue
from residuum.arrangement import (
    Arrangement,
    Flag,
    InsolubleFlag,
    Polyhedron,
    compatibility_audit,
    enumerate_flags,
    jacobian,
    stable_flags,
)
from residuum.cli import main as cli_main
from residuum.exact_linalg import GaussianRational, minor_profile
from residuum.oracle import DEFAULT_TOL, quad_integral
from residuum.residue_engine import (
    DivisorGrouping,
    canonical_grouping,
    evaluate_integral,
    grothendieck_residue,
    iterated_residue,
)
from residuum.symfun import AffineForm, ExpRationalFunction, working_precision

THREE_PLANE_RSD = """\
vars x y;
cone {cone};
param n1={n1} n2={n2} s1=1 s2=1 s3=1;
num n1^(i*x - s1) * n2^(i*y - s2);
den (-x - s1*i) (-y - s2*i) (x + y - s3*i);
"""


def _rel(value, reference) -> float:
    return float(abs(value - reference) / max(1, abs(reference)))


def _val(d) -> mpc:
    return mpc(mpf(d["re"]), mpf(d["im"]))


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def _json_cli(capsys, *argv):
    code = cli_main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def _std_cone(r: int) -> Polyhedron:
    return Polyhedron.from_generators(
        [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    )


def _independent_rows(rng: random.Random, count: int) -> list:
    """count pairwise non-parallel nonzero integer rows in the plane."""
    rows: list = []
    while len(rows) < count:
        row = (rng.randint(-2, 2), rng.randint(-2, 2))
        if row == (0, 0):
            continue
        if any(row[0] * o[1] - row[1] * o[0] == 0 for o in rows):
            continue
        rows.append(row)
    return rows


def _build(rows, s_values, numerator=None) -> Arrangement:
    hps = [plane(row, s) for row, s in zip(rows, s_values)]
    return Arrangement.build(len(rows[0]), hps, numerator=numerator)


# The three-plane problem has six ordered pairs of distinct hyperplanes.
# Verdicts (stable, compatible) per pair and per cone; exact arithmetic.
_VERDICTS_UPPER = {
    (0, 1): (False, True),
    (0, 2): (False, True),
    (1, 0): (False, True),
    (1, 2): (False, True),
    (2, 0): (True, False),
    (2, 1): (False, True),
}
_VERDICTS_LEFT = {
    (0, 1): (False, True),
    (0, 2): (True, True),
    (1, 0): (False, True),
    (1, 2): (False, True),
    (2, 0): (False, True),
    (2, 1): (False, True),
}
_VERDICTS_RIGHT = {
    (0, 1): (False, True),
    (0, 2): (False, True),
    (1, 0): (False, True),
    (1, 2): (True, True),
    (2, 0): (False, True),
    (2, 1): (False, True),
}


def test_criterion_1():
    """Three-plane classification: all 36 verdicts across the three cones."""
    start = perf_counter()
    with working_precision(128):
        arr = three_plane_problem(2, 3)
        tables = (
            (((1, 0), (0, 1)), _VERDICTS_UPPER),
            (((-1, 1), (0, 1)), _VERDICTS_LEFT),
            (((1, -1), (1, 0)), _VERDICTS_RIGHT),
        )
        checked = 0
        for generators, expected in tables:
            poly = cone(*generators)
            flags = enumerate_flags(arr, 2)
            assert len(flags) == 6
            for flag in flags:
                prof = minor_profile(jacobian(arr, flag.indices, poly))
                assert (prof.stable, prof.compatible) == expected[flag.indices], (
                    f"flag {flag.label()} on cone {generators}"
                )
                checked += 2
        assert checked == 36
    assert perf_counter() - start < 1.0


def test_criterion_2(tmp_path, capsys):
    """Three-plane values match (2 pi i)^2 i max(n1,n2)^-3 / 3, and quadrature."""
    cases = (
        (2, 3, "(-1,1) (0,1)"),
        (3, 2, "(1,-1) (1,0)"),
        (5, 5, "(-1,1) (0,1)"),
    )
    for n1, n2, cone_text in cases:
        start = perf_counter()
        path = _write(
            tmp_path,
            f"three_{n1}_{n2}.rsd",
            THREE_PLANE_RSD.format(n1=n1, n2=n2, cone=cone_text),
        )
        code, report = _json_cli(
            capsys, "verify", path, "--tol", "1e-4", "--json"
        )
        assert code == 0
        expected = three_plane_value(n1, n2)
        assert _rel(_val(report["value"]), expected) <= 1e-10
        assert report["certificate"]["certified"] is True
        assert report["oracle"]["within_tolerance"] is True
        assert float(mpf(report["oracle"]["difference"])) <= 1e-4
        assert perf_counter() - start < 30.0


def test_criterion_3(tmp_path, capsys):
    """On the upper-quadrant cone the lone stable pair (H3,H1) is incompatible:
    the audit names it with q(1,2) = 1, eval returns an uncertified zero, and
    direct quadrature shows the integral itself is far from zero."""
    start = perf_counter()
    path = _write(
        tmp_path,
        "three_upper.rsd",
        THREE_PLANE_RSD.format(n1=2, n2=3, cone="(1,0) (0,1)"),
    )

    code, report = _json_cli(capsys, "analyze", path, "--json")
    assert code == 1
    assert report["violations"] == [
        {"flag": "(H3,H1)", "positive_q": {"(1,2)": "1"}}
    ]

    code, report = _json_cli(capsys, "eval", path, "--json")
    assert code == 1
    assert _val(report["value"]) == mpc(0)
    assert report["certificate"]["certified"] is False

    code = cli_main(["eval", path])
    text = capsys.readouterr().out
    assert code == 1
    assert "NOT CERTIFIED" in text
    assert any("(H3,H1) excluded" in line for line in text.splitlines())

    code, report = _json_cli(capsys, "verify", path, "--json")
    assert code == 1
    assert abs(_val(report["oracle"]["estimate"])) > 0.1
    assert perf_counter() - start < 30.0


def test_criterion_4():
    """Coincident-point problem: value (2 pi i)^2 partial_x h(i,i), the two
    flag contributions, the canonical grouping (H1H3,H2), and the residues of
    the three manual groupings at (i,i)."""
    start = perf_counter()
    with working_precision(128):
        arr = coincident_point_problem()
        poly = cone(*CONE_WIDE)
        dx, dy = h_partials()
        two_pi_i = 2 * pi * mpc(0, 1)

        result = evaluate_integral(arr, poly)
        assert _rel(result.value, two_pi_i ** 2 * dx) <= 1e-10

        contributions = {
            flag.indices: value
            for flag, value in result.flag_contributions.items()
        }
        assert set(contributions) == {(0, 1), (2, 1)}
        assert _rel(contributions[(0, 1)], dy) <= 1e-10
        assert _rel(contributions[(2, 1)], dx - dy) <= 1e-10

        grouping = canonical_grouping(arr, poly)
        assert grouping.groups == (frozenset({0, 2}), frozenset({1}))
        assert grouping.label(arr) == "(H1H3,H2)"

        point = (mpc(0, 1), mpc(0, 1))
        g1 = grothendieck_residue(arr, DivisorGrouping.of({2, 0}, {1}), point, poly)
        g2 = grothendieck_residue(arr, DivisorGrouping.of({2, 1}, {0}), point, poly)
        g3 = grothendieck_residue(arr, DivisorGrouping.of({0, 1}, {2}), point, poly)
        assert _rel(g1, dx) <= 1e-10
        assert _rel(g2, -dy) <= 1e-10
        assert perf_counter() - start < 5.0
        # Grouping (H1H2,H3): with u = x - i, v = y - i the divisor map is
        # F = (uv, u + v), det J_F = v - u, and the preimages of (w1, w2)
        # are (t1, t2) and (t2, t1) for the roots of t^2 - w2 t + w1.  The
        # trace formula (Griffiths & Harris, ch. 5) gives
        # lim [h(t1, t2) - h(t2, t1)] / (t2 - t1) = partial_y h - partial_x h,
        # which conftest.trace_residue confirms numerically
        # (test_residue_engine.test_trace_formula_oracle).  For this h it
        # equals partial_x h.
        assert _rel(g3, dy - dx) <= 1e-10, (
            f"grouping (H1H2,H3) residue {g3} != partial_y h - partial_x h "
            f"{dy - dx}"
        )


def test_criterion_5():
    """One-dimensional sanity: the arctangent integral equals pi both ways."""
    start = perf_counter()
    with working_precision(128):
        arr = single_pole_problem()
        result = evaluate_integral(arr, cone((1,)))
        assert abs(result.value - pi) <= 1e-10
        report = quad_integral(arr, box=5.0, tol=1e-10)
        assert abs(report.estimate - pi) <= 1e-10
    assert perf_counter() - start < 1.0


def test_criterion_6():
    """Truncation law: the truncated iterated residue vanishes exactly when a
    leading principal minor of the chart Jacobian does."""
    rng = random.Random(1006)
    with working_precision(128):
        for r in (2, 3):
            poly = _std_cone(r)
            flag = Flag(tuple(range(r)))
            vanished = survived = 0
            while vanished + survived < 500:
                rows = []
                while len(rows) < r:
                    row = tuple(rng.randint(-2, 2) for _ in range(r))
                    if any(c != 0 for c in row):
                        rows.append(row)
                s_values = [
                    Fraction(rng.randint(1, 4), rng.randint(1, 3))
                    for _ in range(r)
                ]
                arr = _build(rows, s_values)
                if len(arr.hyperplanes) < r:
                    continue
                prof = minor_profile(jacobian(arr, flag.indices, poly))
                try:
                    value = iterated_residue(arr, flag, poly)
                except InsolubleFlag:
                    value = mpc(0)
                if any(p == 0 for p in prof.p):
                    assert value == mpc(0), rows
                    vanished += 1
                else:
                    assert value != mpc(0), rows
                    survived += 1
            assert vanished >= 50 and survived >= 50


def test_criterion_7():
    """Unstable-sum vanishing: summing truncated residues over the soluble
    ordered pairs whose sequential poles all lie in the upper half-plane
    reproduces the sum over stable pairs alone."""
    rng = random.Random(1007)
    poly = _std_cone(2)
    with working_precision(128):
        arrangements = 0
        while arrangements < 20:
            count = rng.choice([3, 4])
            rows = _independent_rows(rng, count)
            coeffs = [rng.randint(0, 2), rng.randint(0, 2)]
            numerator = ExpRationalFunction.from_parts(
                2, expo=AffineForm.make([mpc(0, 1) * c for c in coeffs], 0)
            )
            base = _build(rows, [Fraction(1)] * count, numerator)
            if not compatibility_audit(base, poly).all_compatible:
                continue
            arrangements += 1
            draws = 0
            while draws < 20:
                s_values = [
                    mpc(rng.uniform(0.4, 2.0), rng.uniform(-0.8, 0.8))
                    for _ in range(count)
                ]
                arr = _build(rows, s_values, numerator)
                selected = mpc(0)
                clean = True
                for a in range(count):
                    for b in range(count):
                        if a == b:
                            continue
                        flag = Flag((a, b))
                        try:
                            zres = z_star(arr, flag, poly)
                        except InsolubleFlag:
                            continue
                        if zres.boundary:
                            clean = False
                            break
                        if zres.arises:
                            selected += iterated_residue(arr, flag, poly)
                    if not clean:
                        break
                if not clean:
                    continue
                draws += 1
                stable_sum = sum(
                    (
                        iterated_residue(arr, flag, poly)
                        for flag in stable_flags(arr, poly)
                    ),
                    mpc(0),
                )
                mismatch = abs(selected - stable_sum)
                scale = max(1, abs(selected), abs(stable_sum))
                assert float(mismatch / scale) <= 1e-8, (rows, s_values)


def test_criterion_8():
    """Positive rescalings change nothing: minor verdicts are invariant under
    positive diagonal left-scaling, and the evaluated integral is invariant
    under positive rescaling of the cone generators."""
    rng = random.Random(1008)
    with working_precision(128):
        for _ in range(200):
            size = rng.choice([2, 3])
            rows = [
                [
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            scales = [
                Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(size)
            ]
            plain = minor_profile(matrix(rows))
            scaled = minor_profile(
                matrix(
                    [[d * value for value in row] for d, row in zip(scales, rows)]
                )
            )
            assert scaled.in_bruhat_cell == plain.in_bruhat_cell
            assert scaled.stable == plain.stable
            assert scaled.compatible == plain.compatible

        problems = (
            (three_plane_problem(2, 3), ((-1, 1), (0, 1))),
            (coincident_point_problem(), CONE_WIDE),
        )
        for arr, generators in problems:
            base = evaluate_integral(arr, cone(*generators)).value
            for _ in range(5):
                factors = [
                    Fraction(rng.randint(1, 7), rng.randint(1, 3))
                    for _ in generators
                ]
                rescaled = Polyhedron.from_generators(
                    [
                        [f * component for component in vector]
                        for f, vector in zip(factors, generators)
                    ]
                )
                value = evaluate_integral(arr, rescaled).value
                assert float(abs(value - base)) <= 1e-8 * max(1, abs(base))


def test_criterion_9():
    """Torus-cycle quadrature around a transverse point agrees with the
    iterated residue and does not depend on the torus radii."""
    rng = random.Random(1009)
    poly = _std_cone(2)
    with working_precision(128):
        done = 0
        while done < 10:
            count = rng.choice([2, 3])
            rows = _independent_rows(rng, count)
            s_values = [
                Fraction(rng.randint(1, 3), rng.randint(1, 2))
                for _ in range(count)
            ]
            arr = _build(rows, s_values)
            indices = (0, 1)
            if not minor_profile(jacobian(arr, indices, poly)).in_bruhat_cell:
                continue
            try:
                torus_a = torus_residue(arr, indices, eps=0.01)
                torus_b = torus_residue(arr, indices, eps=[0.017, 0.013])
            except ForeignPoleInsideTorus:
                continue
            iterated = iterated_residue(arr, Flag(indices), poly)
            assert float(abs(torus_a - iterated)) <= 1e-8 * max(1, abs(iterated))
            assert float(abs(torus_a - torus_b)) <= 1e-9 * max(1, abs(torus_a))
            done += 1


# (R, seed, rows, s, coefficient) of the generic r = 2 draws (R rows in
# general position, f . v = i s, numerator the coefficient, identity cone)
# of seeds 0-11 at R = 5 and 1, 3, 9 at R = 4
GENERIC_R2 = [
    (5, 0, ((1, 1), (2, 1), (1, 0), (2, -1), (0, -1)), (1, 3, 2, 3, 1), 3),
    (5, 1, ((-1, 2), (-2, 1), (1, 1), (1, -1), (1, 2)), (1, 4, 3, 2, 1), 2),
    (5, 2, ((2, -1), (1, 0), (1, 2), (1, 1), (2, 1)), (4, 2, 3, 2, 3), 2),
    (5, 3, ((1, 2), (2, 1), (1, -1), (-1, -1), (-1, 2)), (1, 3, 1, 3, 4), 3),
    (5, 4, ((-1, 0), (-2, 1), (1, -1), (-2, -1), (-1, -2)), (3, 2, 1, 3, 3), 1),
    (5, 5, ((-2, -1), (1, 0), (-1, 1), (-1, -2), (-1, 2)), (4, 2, 2, 1, 1), 1),
    (5, 6, ((1, 0), (-1, 2), (0, 1), (-1, 1), (-2, -1)), (3, 1, 4, 3, 1), 2),
    (5, 7, ((0, -1), (1, -2), (2, -1), (1, 1), (-2, -1)), (1, 4, 1, 1, 2), 3),
    (5, 8, ((-1, 0), (1, -1), (-1, -2), (-2, -1), (-1, 2)), (2, 4, 1, 4, 4), 2),
    (5, 9, ((-1, -1), (-1, -2), (-2, -1), (-2, 1), (1, -2)), (3, 2, 4, 3, 3), 1),
    (5, 10, ((1, 1), (-1, 1), (1, 0), (-1, -2), (2, 1)), (3, 1, 2, 3, 1), 2),
    (5, 11, ((1, -1), (2, 1), (2, -1), (-1, 0), (-1, 2)), (2, 2, 2, 2, 4), 2),
    (4, 1, ((-1, 2), (-2, 1), (1, 1), (1, -1)), (1, 4, 1, 4), 2),
    (4, 3, ((-1, -1), (1, 2), (2, 1), (1, -1)), (2, 2, 4, 1), 3),
    (4, 9, ((1, 2), (-1, -1), (2, 1), (1, -1)), (4, 4, 2, 2), 1),
]


def test_theorem_and_converse_on_generic_draws():
    """The paper's theorem: every certified draw of ``GENERIC_R2`` is
    confirmed by quadrature, its value within the oracle's tolerance
    (``verify``'s test).  Its converse: for every uncertified draw, some
    numerator of 1, exp(i v_k) and exp(2i v_k) gives a value that differs
    from quadrature's estimate by more than 1e4 times its error bound.
    Every class ends at a simple normal crossing, so each value is the
    closed form of ``ChartResidues.closed_form``."""
    poly = _std_cone(2)
    numerators = [ExpRationalFunction.from_parts(2)] + [
        ExpRationalFunction.from_parts(
            2, expo=AffineForm(tuple(GaussianRational(0, w * (j == k)) for j in range(2)), 0)
        )
        for k in range(2)
        for w in (1, 2)
    ]
    certified = 0
    with working_precision(128):
        for _, _, rows, s, coeff in GENERIC_R2:
            hyperplanes = [plane(f, x) for f, x in zip(rows, s)]
            arr = Arrangement.build(2, hyperplanes, ExpRationalFunction.from_parts(2, coeff))
            result = evaluate_integral(arr, poly)
            if result.certificate.certified:
                certified += 1
                diff = abs(result.value - quad_integral(arr).estimate)
                assert diff <= DEFAULT_TOL * max(1, abs(result.value))
                continue
            for numerator in numerators:
                arr = Arrangement.build(2, hyperplanes, numerator)
                quad = quad_integral(arr)
                if abs(evaluate_integral(arr, poly).value - quad.estimate) > 1e4 * quad.error_bound:
                    break
            else:
                raise AssertionError(f"no numerator refutes uncertified draw {rows}")
    assert certified == 7
