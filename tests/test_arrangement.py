"""Hyperplane canonicalization, Jacobians, flags, and sequential pole values."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf

from conftest import (
    CONE_LEFT,
    CONE_RIGHT,
    CONE_UPPER,
    CONE_WIDE,
    coincident_point_problem,
    cone,
    three_plane_problem,
    z_star,
)
import reference
from reference import matrix, pairwise_flag_classes, same_flag
from residuum.arrangement import (
    Arrangement,
    Flag,
    Hyperplane,
    InsolubleFlag,
    MeetsRealLocus,
    NotAlignable,
    Polyhedron,
    canonicalize_hyperplane,
    compatibility_audit,
    enumerate_flags,
    flag_classes,
    flag_table,
    jacobian,
    pole_location,
    stable_flags,
    terminal_classes,
)
from residuum.exact_linalg import (
    GaussianRational,
    _gauss_jordan,
    inverse,
    minor_profile,
    rank,
)
from residuum.residue_engine import _position
from residuum.symfun import AffineForm, to_mpc, working_precision


def test_canonicalize_goldens():
    # -x - i  ->  f = (-1), s = 1
    h = canonicalize_hyperplane([-1], mpc(0, -1))
    assert h.f == (-1,) and abs(h.s - 1) < 1e-12

    # x + y - 2i  ->  f = (1, 1), s = 2
    h = canonicalize_hyperplane([1, 1], mpc(0, -2))
    assert h.f == (1, 1) and abs(h.s - 2) < 1e-12

    # i(-x - i) = -ix + 1: unit complex rescaling canonicalizes identically
    h = canonicalize_hyperplane(
        [GaussianRational(Fraction(0), Fraction(-1))], 1
    )
    assert h.f == (-1,) and abs(h.s - 1) < 1e-12


def test_canonicalize_idempotent_and_primitive():
    h = canonicalize_hyperplane([Fraction(2, 3), Fraction(-4, 3)], mpc(1, -5))
    assert h.f in ((1, -2), (-1, 2))
    again = canonicalize_hyperplane(list(h.f), -mpc(0, 1) * h.s)
    assert again.f == h.f
    assert abs(again.s - h.s) < 1e-12


exact_scalars = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


@given(
    st.lists(st.integers(-5, 5), min_size=2, max_size=3).filter(
        lambda v: any(x != 0 for x in v)
    ),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 3)),
    exact_scalars.filter(lambda z: not z.is_zero),
)
@settings(max_examples=80, deadline=None)
def test_canonicalize_invariant_under_complex_rescaling(f, s_re, lam):
    """Multiplying the defining equation by any nonzero scalar is invisible."""
    base = canonicalize_hyperplane(f, GaussianRational(Fraction(0), -s_re))
    scaled_coeffs = [lam * GaussianRational.of(x) for x in f]
    scaled_const = lam * GaussianRational(Fraction(0), -s_re)
    other = canonicalize_hyperplane(scaled_coeffs, scaled_const)
    assert other.f == base.f
    assert abs(other.s - base.s) < 1e-12


def test_canonicalize_errors():
    with pytest.raises(NotAlignable):
        canonicalize_hyperplane(
            [GaussianRational.of(1), GaussianRational(Fraction(0), Fraction(1))],
            mpc(0, -1),
        )
    with pytest.raises(MeetsRealLocus):
        canonicalize_hyperplane([1, 0], 0)
    with pytest.raises(MeetsRealLocus):
        canonicalize_hyperplane([1], Fraction(3))  # x + 3 = 0 is real
    with pytest.raises(ValueError):
        canonicalize_hyperplane([0, 0], mpc(0, -1))


_exact_coefficients = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
    exact_scalars,
    st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)),
)
_constants = st.one_of(
    _exact_coefficients,
    st.builds(
        lambda k, z: k * mpmath.pi * z, st.integers(-2, 2), st.sampled_from([1, -1j, 1 - 1j])
    ),
)


@st.composite
def _linear_parts(draw) -> list:
    """Exact coefficient lists, half of them a rational vector times one
    nonzero scalar, so that they align."""
    if draw(st.booleans()):
        return draw(st.lists(_exact_coefficients, max_size=4))
    lam = draw(exact_scalars.filter(bool))
    real = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
    return [lam * x for x in draw(st.lists(real, max_size=4))]


def _canonical_or_error(canonicalize, coeffs, constant):
    try:
        return canonicalize(coeffs, constant)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@given(_linear_parts(), _constants)
@example([0, Fraction(0)], 1)  # a zero linear part
@example([], 1)
@example([1, 0], 0)  # on the real locus
@example([1, 1j], mpc(0, -1))  # real and imaginary parts not parallel
@example([Fraction(2, 3), -2], mpmath.pi * mpc(0, -1))  # an inexact constant
@example([GaussianRational(Fraction(1, 2), Fraction(-1, 3)) * n for n in (3, 0, -6)], 1j)
@example([1.5], 1)  # a float is not exact data
@settings(max_examples=150, deadline=None)
def test_canonicalize_matches_fraction_reference(coeffs, constant):
    """On Gaussian integers ``canonicalize_hyperplane`` gives the Hyperplane,
    or raises the error, of the Fraction arithmetic it replaced: rational,
    Gaussian and negative coefficients, a zero linear part, parts that are
    not parallel, hyperplanes that meet the real locus, inexact constants."""
    with mpmath.workprec(128):
        got = _canonical_or_error(canonicalize_hyperplane, coeffs, constant)
        want = _canonical_or_error(reference.canonicalize_hyperplane, coeffs, constant)
    assert got == want
    if isinstance(want, Hyperplane):
        assert type(got.s) is type(want.s)


def test_polyhedron_inverse_relation():
    poly = cone((1, 0), (-1, 1))
    m = poly.basis_matrix()
    z = inverse(poly.basis_matrix())
    prod = reference.matmul(z, m)
    assert prod == matrix([[1, 0], [0, 1]])
    assert poly.det() == 1


def test_jacobian_goldens():
    arr3 = three_plane_problem(2, 3)
    # standard cone, collection (H3, H1)
    j = jacobian(arr3, [2, 0], cone(*CONE_UPPER))
    assert j == matrix([[1, 1], [-1, 0]])

    arr2 = coincident_point_problem()
    # wide cone, collection (H1, H2)
    j = jacobian(arr2, [0, 1], cone(*CONE_WIDE))
    assert j == matrix([[1, -1], [0, 1]])
    j = jacobian(arr2, [0, 2], cone(*CONE_WIDE))
    assert j == matrix([[1, -1], [1, 0]])
    j = jacobian(arr2, [2, 1], cone(*CONE_WIDE))
    assert j == matrix([[1, 0], [0, 1]])

    # standard cone: Jacobian rows are the raw f-rows
    j = jacobian(arr2, [2, 0], cone(*CONE_UPPER))
    assert j == matrix([[1, 1], [1, 0]])


def test_jacobian_generator_permutation_permutes_columns():
    arr = three_plane_problem(2, 3)
    j_a = jacobian(arr, [2, 0], cone((1, 0), (0, 1)))
    j_b = jacobian(arr, [2, 0], cone((0, 1), (1, 0)))
    assert j_b == matrix(
        [(row[1], row[0]) for row in j_a.entries]
    )


def test_enumerate_flags_counts():
    arr = three_plane_problem(2, 3)
    assert len(enumerate_flags(arr, 2)) == 6
    assert len(enumerate_flags(arr, 1)) == 3

    # parallel pair drops rank: only flags through distinct directions remain
    from residuum.symfun import ExpRationalFunction

    parallel = Arrangement.build(
        2,
        [
            canonicalize_hyperplane([1, 0], mpc(0, -1)),
            canonicalize_hyperplane([2, 0], mpc(0, -3)),
            canonicalize_hyperplane([0, 1], mpc(0, -1)),
        ],
    )
    assert len(parallel.hyperplanes) == 3
    deep = enumerate_flags(parallel, 2)
    assert all(
        set(g.indices) != {0, 1} for g in deep
    )
    assert len(deep) == 4

    four = Arrangement.build(
        2,
        [
            canonicalize_hyperplane([1, 0], mpc(0, -1)),
            canonicalize_hyperplane([0, 1], mpc(0, -1)),
            canonicalize_hyperplane([1, 1], mpc(0, -2)),
            canonicalize_hyperplane([1, -1], mpc(0, -1)),
        ],
    )
    assert len(enumerate_flags(four, 2)) == 12


FLAG_ORDER = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_classification_table():
    """Six flags against three cones: 36 exact verdicts."""
    arr = three_plane_problem(2, 3)
    expected = {
        "A": {
            "stable": [(2, 0)],
            "compatible_no": [(2, 0)],
        },
        "B": {
            "stable": [(0, 2)],
            "compatible_no": [],
        },
        "C": {
            "stable": [(1, 2)],
            "compatible_no": [],
        },
    }
    cones = {"A": cone(*CONE_UPPER), "B": cone(*CONE_LEFT), "C": cone(*CONE_RIGHT)}
    for name, poly in cones.items():
        for idx in FLAG_ORDER:
            prof = minor_profile(jacobian(arr, idx, poly))
            assert prof.stable == (idx in expected[name]["stable"]), (name, idx)
            assert prof.compatible == (
                idx not in expected[name]["compatible_no"]
            ), (name, idx)


def test_stable_flags_and_audit():
    arr = three_plane_problem(2, 3)
    assert [g.indices for g in stable_flags(arr, cone(*CONE_UPPER))] == [(2, 0)]
    assert [g.indices for g in stable_flags(arr, cone(*CONE_LEFT))] == [(0, 2)]
    assert [g.indices for g in stable_flags(arr, cone(*CONE_RIGHT))] == [(1, 2)]

    report = compatibility_audit(arr, cone(*CONE_UPPER))
    assert not report.all_compatible
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.flag.indices == (2, 0)
    assert dict(v.positive_q) == {(1, 2): Fraction(1)}

    assert compatibility_audit(arr, cone(*CONE_LEFT)).all_compatible
    assert compatibility_audit(arr, cone(*CONE_RIGHT)).all_compatible


def test_audit_single_hyperplane_trivial():
    from residuum.symfun import ExpRationalFunction

    arr = Arrangement.build(
        1, [canonicalize_hyperplane([-1], mpc(0, -1))]
    )
    report = compatibility_audit(arr, cone((1,)))
    assert report.all_compatible and report.flags_checked == 1


def test_coincident_point_stable_collections():
    arr = coincident_point_problem()
    poly = cone(*CONE_WIDE)
    got = [g.indices for g in stable_flags(arr, poly)]
    # (H1,H3) has r12 = 1 > 0, so exactly two collections are stable
    assert got == [(0, 1), (2, 1)]
    assert compatibility_audit(arr, poly).all_compatible


def test_pole_locations():
    arr2 = coincident_point_problem()
    pt = pole_location(arr2, Flag((0, 1)))
    assert abs(pt[0] - mpc(0, 1)) < 1e-12 and abs(pt[1] - mpc(0, 1)) < 1e-12

    s1, s2, s3 = 1, 2, 3
    arr = three_plane_problem(2, 3, (s1, s2, s3))
    pt = pole_location(arr, Flag((1, 2)))
    assert abs(pt[0] - mpc(0, s2 + s3)) < 1e-12
    assert abs(pt[1] - mpc(0, -s2)) < 1e-12
    # reordering the collection keeps the terminal point
    pt2 = pole_location(arr, Flag((2, 1)))
    assert abs(pt[0] - pt2[0]) < 1e-12 and abs(pt[1] - pt2[1]) < 1e-12

    one = Arrangement.build(1, [canonicalize_hyperplane([-1], mpc(0, -1))])
    assert abs(pole_location(one, Flag((0,)))[0] - mpc(0, -1)) < 1e-12


def _two_plane_problem(s1, s2):
    """Hyperplanes x = is1 and x + y = is2 inside a larger real form."""
    hps = [
        canonicalize_hyperplane([1, 0], -mpc(0, 1) * to_mpc(s1)),
        canonicalize_hyperplane([1, 1], -mpc(0, 1) * to_mpc(s2)),
    ]
    return Arrangement.build(2, hps)


def test_z_star_two_plane_golden():
    with working_precision(128):
        arr = _two_plane_problem(1, 2)
        res = z_star(arr, Flag((0, 1)), cone(*CONE_UPPER))
        # J = [[1,0],[1,1]]: z1* = is1, z2* = i(s2 - s1)
        assert abs(res.values[0] - mpc(0, 1)) < 1e-12
        assert abs(res.values[1] - mpc(0, 1)) < 1e-12
        assert res.arises and not res.boundary

        res = z_star(_two_plane_problem(2, 1), Flag((0, 1)), cone(*CONE_UPPER))
        assert abs(res.values[1] - mpc(0, -1)) < 1e-12
        assert not res.arises

        res = z_star(_two_plane_problem(1, 1), Flag((0, 1)), cone(*CONE_UPPER))
        assert res.boundary and not res.arises


def test_z_star_diagonal_arrangement():
    hps = [
        canonicalize_hyperplane([1, 0], mpc(0, -1)),
        canonicalize_hyperplane([0, 1], mpc(0, -2)),
    ]
    arr = Arrangement.build(2, hps)
    res = z_star(arr, Flag((0, 1)), cone(*CONE_UPPER))
    assert abs(res.values[0] - mpc(0, 1)) < 1e-12
    assert abs(res.values[1] - mpc(0, 2)) < 1e-12
    assert res.arises


def test_z_star_insoluble():
    arr = coincident_point_problem()
    # (H2, H3) under the standard cone: p1 = 0
    with pytest.raises(InsolubleFlag):
        z_star(arr, Flag((1, 2)), cone(*CONE_UPPER))


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_im_z_star_independent_of_x(x):
    arr = three_plane_problem(2, 3, (1, mpc(2, "0.5"), 3))
    poly = cone(*CONE_LEFT)
    base = z_star(arr, Flag((0, 2)), poly)
    moved = z_star(arr, Flag((0, 2)), poly, x=x)
    for a, b in zip(base.values, moved.values):
        assert abs(a.imag - b.imag) < 1e-10
    assert base.arises == moved.arises


def test_stability_matches_sampled_arising():
    """Stable collections arise for every s; unstable ones fail for some s."""
    import random

    rng = random.Random(7)
    arr0 = three_plane_problem(2, 3)
    poly = cone(*CONE_LEFT)
    for g in enumerate_flags(arr0, 2):
        prof = minor_profile(jacobian(arr0, g.indices, poly))
        always = True
        for _ in range(200):
            s = [mpc(rng.uniform(0.05, 4), rng.uniform(-2, 2)) for _ in range(3)]
            arr = three_plane_problem(2, 3, tuple(s))
            try:
                if not z_star(arr, g, poly).arises:
                    always = False
                    break
            except InsolubleFlag:
                always = False
                break
        assert always == prof.stable, g.indices


small_rows = st.lists(st.integers(-3, 3), min_size=3, max_size=3)


def _same(arr, a, b) -> bool:
    """Whether ``flag_classes`` puts two complete flags in one class; the
    pairwise reference must agree."""
    one = len(flag_classes(arr, [Flag(a), Flag(b)])) == 1
    assert one == same_flag(arr, Flag(a), Flag(b)) == same_flag(arr, Flag(b), Flag(a))
    return one


@given(
    small_rows,
    small_rows,
    small_rows,
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
)
@example((0, 0, 1), (3, 0, 0), (0, 1, 0), (1, 1), (1, 2))
@settings(max_examples=60, deadline=None)
def test_same_flag_equal_and_unequal_spans(f1, f2, f3, c, s):
    """(H1,H2,H5) and (H1,H,H5) agree exactly when H lies on the span of H1
    and H2 and through their intersection: exact s are compared by ==, by
    ``flag_classes`` and by the pairwise reference alike, both ways round."""
    assume(rank(matrix([f1, f2, f3])) == 3)
    combo = [c[0] * a + c[1] * b for a, b in zip(f1, f2)]
    offset = c[0] * s[0] + c[1] * s[1]
    hps = [
        canonicalize_hyperplane(f1, -1j * s[0]),
        canonicalize_hyperplane(f2, -1j * s[1]),
        # on the span of H1 and H2, through their intersection
        canonicalize_hyperplane(combo, -1j * offset),
        # on the span, but shifted off the intersection
        canonicalize_hyperplane(combo, -1j * (offset + 1)),
        # off the span
        canonicalize_hyperplane([x + y for x, y in zip(combo, f3)], -1j * offset),
    ]
    arr = Arrangement.build(3, hps)
    assert len(arr.hyperplanes) == 5
    assert _same(arr, (0, 1, 4), (0, 2, 4))
    assert not _same(arr, (0, 1, 4), (0, 3, 4))
    assert not _same(arr, (0, 1, 4), (0, 4, 1))
    assert not _same(arr, (0, 1, 4), (1, 0, 4))


def test_flag_identity_does_not_depend_on_the_lowering_precision():
    """s stays exact from ``canonicalize_hyperplane`` on, so hyperplanes
    built at 53 bits and classed at 128 meet where exact arithmetic says:
    (H1,H2,H4) and (H1,H3,H4) end at (i, i/3, i), which all four pass
    through, and are one class.  Two hyperplanes with equal exact s merge
    whatever precision each was built at."""
    with working_precision(53):
        hps = [
            canonicalize_hyperplane([0, 0, 1], -1j),
            canonicalize_hyperplane([0, 3, 0], -1j),
            canonicalize_hyperplane([0, 3, 1], -2j),
            canonicalize_hyperplane([1, 0, 0], -1j),
        ]
        arr = Arrangement.build(3, hps)
    flags = [Flag((0, 1, 3)), Flag((0, 2, 3))]
    with working_precision(128):
        classes = terminal_classes(arr, flags)
        again = canonicalize_hyperplane([0, 3, 0], -1j)
    assert [(c.incidence, c.flags) for c in classes] == [(frozenset(range(4)), flags)]
    merged = Arrangement.build(3, [hps[1], again])
    assert merged.hyperplanes == (hps[1],) and merged.multiplicities == (2,)


def test_same_flag_classes():
    arr = coincident_point_problem()
    assert _same(arr, (0, 1), (0, 2))
    assert _same(arr, (2, 1), (2, 0))
    assert not _same(arr, (0, 1), (2, 1))
    classes = flag_classes(arr, enumerate_flags(arr, 2))
    assert len(classes) == 3

    arr3 = three_plane_problem(2, 3)
    # generic arrangement: every ordered pair is its own flag
    assert len(flag_classes(arr3, enumerate_flags(arr3, 2))) == 6


@st.composite
def incident_arrangements(draw):
    """r <= 3 hyperplanes in general position plus up to three more: through
    their common point, through the flat of the first two (a line when
    r = 3), parallel to one of them, or free.  One offset may be pi."""
    r = draw(st.integers(2, 3))
    row = st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any)
    base = draw(st.lists(row, min_size=r, max_size=r))
    assume(rank(matrix(base)) == r)
    # offset k is q_k + pi_k pi
    offsets = [(Fraction(draw(st.integers(1, 4))), 0) for _ in range(r)]
    pi_at = draw(st.none() | st.integers(0, r - 1))
    if pi_at is not None:
        offsets[pi_at] = (Fraction(0), 1)
    hyperplanes = list(zip(base, offsets))
    coeff = st.integers(-2, 2)
    kinds = st.sampled_from(["point", "line", "parallel", "free"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        if kind == "free":
            hyperplanes.append((draw(row), (Fraction(draw(st.integers(1, 4))), 0)))
            continue
        if kind == "parallel":
            f, (q, p) = hyperplanes[draw(st.integers(0, r - 1))]
            hyperplanes.append((f, (q + draw(st.integers(1, 3)), p)))
            continue
        cs = draw(st.lists(coeff, min_size=r, max_size=r))
        if kind == "line":
            cs[2:] = [0] * (r - 2)
        f = [sum(c * g[j] for c, (g, _) in zip(cs, hyperplanes)) for j in range(r)]
        q = sum(c * o[0] for c, (_, o) in zip(cs, hyperplanes))
        p = sum(c * o[1] for c, (_, o) in zip(cs, hyperplanes))
        if any(f) and (q or p):
            hyperplanes.append((f, (q, p)))
    hps = []
    for f, (q, p) in hyperplanes:
        # the constant -i s of f(v) - i s
        constant = mpc(0, -(q + p * mpmath.pi)) if p else GaussianRational(Fraction(0), -q)
        try:
            hps.append(canonicalize_hyperplane(f, constant))
        except MeetsRealLocus:
            pass
    return Arrangement.build(r, hps)


@given(incident_arrangements())
@settings(max_examples=40, deadline=None)
def test_flag_classes_match_pairwise_rule(arr):
    """Keying each complete flag once by the incidence of its terminal point
    and its exact prefix spans gives the classes, in order, of the pairwise
    rule on every flag of the table."""
    eye = [[int(i == j) for j in range(arr.dim)] for i in range(arr.dim)]
    flags = [e.flag for e in flag_table(arr, Polyhedron.from_generators(eye))]
    assert flag_classes(arr, flags) == pairwise_flag_classes(arr, flags)


@st.composite
def classing_cases(draw):
    """An arrangement and a cone for the terminal-point layer.

    r <= 3 hyperplanes in general position plus up to four more: through
    their common point, through the flat of the first two, parallel to one
    of them, or free.  Offsets s are Gaussian rationals q + b i with q > 0,
    and one in three arrangements has one offset pi instead, which rounds
    the points on its hyperplane.  The cone's generators are rational;
    three times in four, when a random flag's terminal point p is exact, the
    last generator is chosen so that Im z = M^-1 Im p is a vector c of small
    integers, so that p lies on a face of the cone when some c_k = 0.
    """
    r = draw(st.sampled_from([3, 2, 3, 1]))
    row = st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any)
    small = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    positive = st.builds(Fraction, st.integers(1, 4), st.integers(1, 3))
    offset = st.builds(GaussianRational, positive, small)
    base = draw(st.lists(row, min_size=r, max_size=r))
    assume(rank(matrix(base)) == r)
    hyperplanes = [(f, draw(offset)) for f in base]
    for kind in draw(st.lists(st.sampled_from(["point", "line", "parallel", "free"]), max_size=4)):
        if kind == "free":
            hyperplanes.append((draw(row), draw(offset)))
        elif kind == "parallel":
            f, s = hyperplanes[draw(st.integers(0, r - 1))]
            hyperplanes.append((f, s + draw(st.integers(1, 3))))
        else:
            cs = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
            if kind == "line":
                cs[2:] = [0] * (r - 2)
            f = [sum(c * g[j] for c, (g, _) in zip(cs, hyperplanes)) for j in range(r)]
            shift = sum((c * s for c, (_, s) in zip(cs, hyperplanes)), GaussianRational())
            if any(f):
                hyperplanes.append((f, shift))
    pi_at = draw(st.sampled_from(range(3 * len(hyperplanes))))  # past the end: no pi
    hps = []
    for n, (f, s) in enumerate(hyperplanes):
        # the constant -i s of f(v) - i s
        constant = mpc(0, -mpmath.pi) if n == pi_at else GaussianRational(0, -1) * s
        try:
            hps.append(canonicalize_hyperplane(f, constant))
        except MeetsRealLocus:
            pass
    arr = Arrangement.build(r, hps)
    assume(rank(matrix([h.f for h in arr.hyperplanes])) == r)
    gens = [draw(st.lists(small, min_size=r, max_size=r)) for _ in range(r)]
    flags = enumerate_flags(arr, r)
    point = pole_location(arr, draw(st.sampled_from(flags)))
    if all(isinstance(x, GaussianRational) for x in point) and draw(st.sampled_from([1, 1, 1, 0])):
        c = draw(st.lists(st.integers(-1, 1), min_size=r - 1, max_size=r - 1))
        c.append(draw(st.sampled_from([1, -1, 2])))
        # Im p = sum_k c_k v_k, so Im z = M^-1 Im p = c
        rest = [sum(ck * g[j] for ck, g in zip(c[:-1], gens)) for j in range(r)]
        gens[-1] = [(x.im - y) / c[-1] for x, y in zip(point, rest)]
    assume(reference.fraction_gauss_jordan(gens)[2] != 0)
    return arr, Polyhedron.from_generators(gens)


@given(classing_cases())
@settings(max_examples=80, deadline=None)
def test_terminal_classes_and_positions_match_fraction_reference(case):
    """``terminal_classes`` gives the reference's classes, points and
    incidences on every flag of the table, and ``_position`` each point's
    place in the cone, solved with Fraction inverses."""
    arr, poly = case
    with working_precision(128):
        flags = [e.flag for e in flag_table(arr, poly)]
        classes = terminal_classes(arr, flags)
        assert classes == reference.fraction_terminal_classes(arr, flags)
        cone = _gauss_jordan(poly.basis_matrix().entries)
        for cls in classes:
            assert _position(cone, cls.point) == reference.fraction_position(poly, cls.point)


def test_chart_factor_keeps_exact_zero():
    """Row (3, -1, 1) of F on the chart (1,0,-1), (1,1,-2), (0,0,1) is
    exactly (2, 0, 1), so its factor in the chart is (1, 0, 1/2) . z - i/2
    with an exact 0 in the middle, not the rounding residue of composing a
    form that was normalized before."""
    with working_precision(128):
        hps = [Hyperplane(f, mpc(1)) for f in ((3, -1, 1), (1, 0, 0), (0, 1, 0))]
        arr = Arrangement.build(3, hps)
        poly = Polyhedron.from_generators([(1, 0, -1), (1, 1, -2), (0, 0, 1)])
        assert jacobian(arr, [0], poly).row(0) == (2, 0, 1)
        (term,) = arr.integrand_in(poly).terms
        (form,) = [f for f, _ in term.denom if f.coeffs[2] != 0]
        assert form.coeffs[1] == 0
        assert form.coeffs == (1, 0, mpf(0.5)) and form.const == mpc(0, -0.5)


@st.composite
def _sheared_arrangement(draw):
    """Small integer rows and a unimodular integer chart: the identity after
    at most three shears, each adding k times one column to another."""
    r = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=r, max_size=r).filter(any),
            min_size=r,
            max_size=5,
        )
    )
    hps = [
        canonicalize_hyperplane(row, mpc(0, -draw(st.sampled_from([1, 2]))))
        for row in rows
    ]
    cols = [[int(i == j) for i in range(r)] for j in range(r)]
    for _ in range(draw(st.integers(0, 3)) if r > 1 else 0):
        src, dst = draw(st.permutations(range(r)))[:2]
        k = draw(st.sampled_from([-2, -1, 1, 2]))
        cols[dst] = [a + k * b for a, b in zip(cols[dst], cols[src])]
    return Arrangement.build(r, hps), Polyhedron.from_generators(cols)


@given(_sheared_arrangement())
@settings(max_examples=60, deadline=None)
def test_chart_factors_are_exact_rows(case):
    """Each factor of the chart integrand is row j of the exact F M over its
    first nonzero entry, F M taken in Fractions (``reference.fraction_chart``)."""
    arr, poly = case
    expected = set()
    for row in reference.fraction_chart(arr, range(len(arr.hyperplanes)), poly).entries:
        lead = next(x for x in row if x)
        expected.add(tuple(x / lead for x in row))
    (term,) = arr.integrand_in(poly).terms
    assert {form.coeffs for form, _ in term.denom} == expected


def test_one_normalization_per_chart_factor(monkeypatch):
    """Building the chart integrand of R hyperplanes with a one-term
    numerator normalizes each factor once: R calls, not one per pass."""
    with working_precision(128):
        arr = coincident_point_problem()
        poly = cone(*CONE_WIDE)
        calls = []
        original = AffineForm.normalized

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(AffineForm, "normalized", counted)
        func = arr.integrand_in(poly)
    assert len(arr.numerator.terms) == 1 and len(func.terms) == 1
    assert len(calls) == len(arr.hyperplanes)
