"""Exact linear algebra tests.

The determinant oracle is naive cofactor expansion, independent of the Bareiss
code under test.  The minor oracle computes each p/q/r minor of a flag's own
Jacobian by a fresh Bareiss determinant, independent of the Laplace expansions
of the minor store that every profile is read from.  Verdict invariances (positive row scaling)
are checked with hypothesis against randomly generated rational matrices.
"""

import copy
import math
import operator
import pickle
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import mpmath
from mpmath import mpc, mpf

import reference
from reference import matrix, row_combinations, submatrix
from residuum.arrangement import (
    MAX_REPORTED_VIOLATIONS,
    Arrangement,
    AuditReport,
    Flag,
    FlagEntry,
    FlagTable,
    Hyperplane,
    Polyhedron,
    Violation,
    compatibility_audit,
    flag_table,
    jacobian,
    stable_flags,
)
from residuum.exact_linalg import (
    GaussianRational,
    MinorProfile,
    RationalMatrix,
    determinant,
    inverse,
    minor_profile,
    minor_store,
    rank,
    row_echelon,
    set_layout,
    solve_linear,
)
from residuum.symfun import AffineForm, to_mpc, working_precision


def cofactor_det(rows: list[list[Fraction]]) -> Fraction:
    """Independent determinant oracle, O(n!)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        sign = Fraction(-1) ** j
        total += sign * rows[0][j] * cofactor_det(minor)
    return total


def leading_principal_minor(mat: RationalMatrix, k: int) -> Fraction:
    """p_k: determinant of the top-left k-by-k block.  p_0 = 1."""
    if k < 0 or k > min(mat.rows, mat.cols):
        raise ValueError(f"leading principal minor order {k} out of range")
    if k == 0:
        return Fraction(1)
    idx = range(k)
    return determinant(submatrix(mat, idx, idx))


def q_minor(mat: RationalMatrix, k: int, l: int) -> Fraction:
    """q_{k,l}: rows 1..k against columns 1..k-1 and column l (1-based, l > k)."""
    if not (1 <= k < l <= mat.cols) or k > mat.rows:
        raise ValueError(f"q minor ({k},{l}) out of range")
    cols = list(range(k - 1)) + [l - 1]
    return determinant(submatrix(mat, range(k), cols))


def r_minor(mat: RationalMatrix, j: int, k: int) -> Fraction:
    """r_{j,k}: rows 1..k with row j removed, columns 1..k-1 (1-based, j < k)."""
    if not (1 <= j < k <= mat.rows) or k - 1 > mat.cols:
        raise ValueError(f"r minor ({j},{k}) out of range")
    rows = [i for i in range(k) if i != j - 1]
    return determinant(submatrix(mat, rows, range(k - 1)))


def oracle_profile(mat: RationalMatrix) -> MinorProfile:
    """The profile from one determinant per minor, verdicts by definition."""
    k, r = mat.rows, mat.cols
    p = tuple(leading_principal_minor(mat, i) for i in range(1, k + 1))
    q = tuple(
        ((j, l), q_minor(mat, j, l)) for j in range(1, k + 1) for l in range(j + 1, r + 1)
    )
    rm = tuple(
        ((j, l), r_minor(mat, j, l)) for j in range(1, k + 1) for l in range(j + 1, k + 1)
    )
    stable = all(x > 0 for x in p) and all((-1) ** (l - j) * v >= 0 for (j, l), v in rm)
    return MinorProfile(
        p=p,
        q=q,
        r_minors=rm,
        stable=stable,
        compatible=not stable or all(v <= 0 for _, v in q),
        in_bruhat_cell=all(x != 0 for x in p),
    )


fracs = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)


def square_matrices(max_n: int = 5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(fracs, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def wide_matrices():
    return st.tuples(
        st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3)
    ).flatmap(
        lambda kr: st.lists(
            st.lists(fracs, min_size=kr[0] + kr[1], max_size=kr[0] + kr[1]),
            min_size=kr[0],
            max_size=kr[0],
        )
    )


def low_rank_matrices():
    """Rectangular n-by-c products of n-by-b and b-by-c factors: rank <= b."""
    return st.tuples(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
    ).flatmap(
        lambda dims: st.tuples(
            st.lists(
                st.lists(fracs, min_size=dims[2], max_size=dims[2]),
                min_size=dims[0],
                max_size=dims[0],
            ),
            st.lists(
                st.lists(fracs, min_size=dims[1], max_size=dims[1]),
                min_size=dims[2],
                max_size=dims[2],
            ),
        ).map(
            lambda ab: [
                [sum(x * y for x, y in zip(row, col)) for col in zip(*ab[1])]
                for row in ab[0]
            ]
        )
    )


def _kernel_entries(kind: str):
    """int, Fraction (integral ones too) or mixed matrix entries."""
    ints = st.integers(-4, 4)
    fractions = st.builds(Fraction, ints, st.integers(1, 3))
    return {"int": ints, "fraction": fractions, "mixed": st.one_of(ints, fractions)}[kind]


@st.composite
def kernel_matrices(draw):
    """(rows, other rows) of at most 4 rows and 4 columns, square half the
    time, drawn from a small pool with a zero row, so rows repeat and
    vanish; the other rows are the rows reordered, with an integer
    combination of them or a pool row added, so they often span the same
    space and sometimes not."""
    kind = draw(st.sampled_from(["int", "fraction", "mixed"]))
    n = draw(st.integers(1, 4))
    width = draw(st.one_of(st.just(n), st.integers(1, 4)))
    entry = _kernel_entries(kind)
    pool = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=n))
    pool.append([Fraction(0) if kind == "fraction" else 0] * width)
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    other = draw(st.permutations(rows))
    if draw(st.booleans()):
        cs = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        other.append([sum(c * row[j] for c, row in zip(cs, rows)) for j in range(width)])
    else:
        other.append(draw(st.sampled_from(pool)))
    return rows, other


def _as_given(x, value) -> bool:
    """x equals value, and is an int exactly when value is integral."""
    return x == value and (type(x) is int) == (value.denominator == 1)


@given(kernel_matrices())
@settings(max_examples=300, deadline=None)
def test_integer_kernel_matches_fraction_references(pair):
    """determinant, rank, inverse, solve_linear and row_echelon on int,
    Fraction and mixed rows against Gauss-Jordan in Fractions: equal values,
    every integral result an int, and row echelon keys, primitive integer
    rows with positive pivots, equal exactly when the spans are."""
    rows, other = pair
    mat = matrix(rows)
    assert all(x is y for got, row in zip(mat.entries, rows) for x, y in zip(got, row))
    reduced, pivots, det = reference.fraction_gauss_jordan(rows)
    assert rank(mat) == len(pivots)
    echelon = row_echelon(mat)
    assert len(echelon) == len(reduced)
    for key, row, col in zip(echelon, reduced, pivots):
        assert all(type(x) is int for x in key)
        assert math.gcd(*key) == 1 and key[col] > 0
        assert [Fraction(x, key[col]) for x in key] == list(row)
    same_span = reference.fraction_gauss_jordan(other)[0] == reduced
    assert (row_echelon(matrix(other)) == echelon) == same_span
    if len(rows) != len(rows[0]):
        return
    assert _as_given(determinant(mat), det)
    if det == 0:
        with pytest.raises(ValueError):
            inverse(mat)
        return
    want = reference.fraction_inverse(rows)
    got = inverse(mat).entries
    assert all(_as_given(x, y) for a, b in zip(got, want) for x, y in zip(a, b))
    rhs = [Fraction(i - 1, 2) for i in range(len(rows))]
    assert solve_linear(mat, rhs) == [sum(b * c for b, c in zip(rhs, row)) for row in want]


def minor_rank(rows: list[list[Fraction]]) -> int:
    """Independent rank oracle: the order of the largest nonzero minor."""
    n, c = len(rows), len(rows[0])
    for k in range(min(n, c), 0, -1):
        for ri in combinations(range(n), k):
            for ci in combinations(range(c), k):
                if cofactor_det([[rows[i][j] for j in ci] for i in ri]) != 0:
                    return k
    return 0


@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_bareiss_matches_cofactor_oracle(rows):
    mat = matrix(rows)
    assert determinant(mat) == cofactor_det(rows)


def test_determinant_known_values():
    assert determinant(matrix([[2]])) == 2
    assert determinant(matrix([[1, 2], [3, 4]])) == -2
    assert determinant(
        matrix([[Fraction(1, 2), 1], [1, Fraction(1, 2)]])
    ) == Fraction(-3, 4)
    # zero pivot forces the internal row swap
    assert determinant(matrix([[0, 1], [1, 0]])) == -1


def test_minor_conventions_on_2x2():
    # [[a, b], [c, d]]: p1 = a, p2 = ad - bc, q12 = b, r12 = c
    m = matrix([[5, 7], [11, 13]])
    assert leading_principal_minor(m, 0) == 1
    assert leading_principal_minor(m, 1) == 5
    assert leading_principal_minor(m, 2) == 5 * 13 - 7 * 11
    assert q_minor(m, 1, 2) == 7
    assert r_minor(m, 1, 2) == 11


def test_profile_golden_matrices():
    # [[1, 1], [-1, 0]]: stable (r12 = -1, sign ok) but q12 = 1 > 0.
    prof = minor_profile(matrix([[1, 1], [-1, 0]]))
    assert prof.p == (1, 1)
    assert dict(prof.q)[(1, 2)] == 1
    assert dict(prof.r_minors)[(1, 2)] == -1
    assert prof.stable and not prof.compatible and prof.in_bruhat_cell

    # [[1, 0], [1, 1]]: r12 = 1 violates the alternating sign rule.
    prof = minor_profile(matrix([[1, 0], [1, 1]]))
    assert dict(prof.r_minors)[(1, 2)] == 1
    assert not prof.stable
    assert prof.compatible  # unstable collections are compatible by definition

    # [[1, -1], [-1, 2]]: stable and compatible.
    prof = minor_profile(matrix([[1, -1], [-1, 2]]))
    assert prof.p == (1, 1)
    assert prof.stable and prof.compatible

    # [[1, -1], [0, 1]] and the identity: stable and compatible.
    for rows in ([[1, -1], [0, 1]], [[1, 0], [0, 1]]):
        prof = minor_profile(matrix(rows))
        assert prof.stable and prof.compatible

    # [[0, 1], [1, 0]]: p1 = 0, outside the open Bruhat cell, not stable.
    prof = minor_profile(matrix([[0, 1], [1, 0]]))
    assert not prof.in_bruhat_cell and not prof.stable


def test_profile_wide_matrix_q_range():
    # one row, three columns: q minors are just the later entries
    prof = minor_profile(matrix([[2, -3, 5]]))
    assert prof.p == (2,)
    assert dict(prof.q) == {(1, 2): -3, (1, 3): 5}
    assert prof.r_minors == ()
    assert prof.stable
    assert not prof.compatible  # q13 = 5 > 0


@given(wide_matrices())
@settings(max_examples=120, deadline=None)
def test_minor_profile_matches_oracle(rows):
    """Fractional entries: the store's per-row scales divide out exactly."""
    mat = matrix(rows)
    assert minor_profile(mat) == oracle_profile(mat)


@st.composite
def pooled_rows(draw):
    """R-by-r matrices, r <= 4, whose rows come from a pool of at most three:
    rows repeat, minors vanish, and entries are negative or fractional."""
    r = draw(st.integers(min_value=1, max_value=4))
    entry = st.builds(
        Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=4)
    )
    pool = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=r + 2))


@given(pooled_rows())
@example([[Fraction(1, 2), Fraction(-2, 3)], [Fraction(1, 2), Fraction(-2, 3)], [0, Fraction(3, 4)]])
@settings(max_examples=100, deadline=None)
def test_minor_store_matches_determinants(rows):
    """The store holds, flat, det and -det of C[S; (0..k-2, c)] once for each
    ascending k-subset S of the rows, k <= r, and each column c >= k - 1: by
    k, then S in ``combinations`` order, then c."""
    mat = matrix(rows)
    big_r, r = mat.rows, mat.cols
    want = []
    for k in range(1, min(big_r, r) + 1):
        for subset in combinations(range(big_r), k):
            for c in range(k - 1, r):
                det = determinant(submatrix(mat, subset, (*range(k - 1), c)))
                want += [det, -det]
    store = minor_store(mat)
    assert store == want
    assert [type(x) for x in store] == [type(x) for x in want]


@st.composite
def arrangements(draw):
    """Small integer rows in r <= 4 variables, some repeated, and a cone.

    Repeated rows are parallel hyperplanes (distinct s keeps them apart);
    entries in -1..1 often make a leading principal minor vanish.
    """
    r = draw(st.integers(min_value=1, max_value=4))
    entries = st.integers(min_value=-1, max_value=1)
    row = st.lists(entries, min_size=r, max_size=r).filter(any)
    rows = draw(st.lists(row, min_size=r, max_size=r + 1))
    rows += draw(st.lists(st.sampled_from(rows), max_size=1))
    gens = draw(
        st.lists(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=r, max_size=r),
            min_size=r,
            max_size=r,
        ).filter(lambda g: determinant(matrix(g)) != 0)
    )
    return rows, gens


@given(arrangements())
# H2 parallel to H1; flags starting with H3 have p1 = 0
@example(([[1, 0], [1, 0], [0, 1]], [[1, 0], [0, 1]]))
# H5 parallel to H2; (H1,H2,...) has p2 = 0 while (H2,H1,...) has p1 = 0
@example(
    (
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    )
)
# r = 4: r_{1,4} is read at prefix 4, after r_{2,3}, and listed before it
@example(
    (
        [[1, 1, 0, -1], [0, 1, 1, 1], [1, -1, 1, 0], [-1, 0, 1, 1], [1, 1, 1, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    )
)
# f3 = f1 + f2: dependent but pairwise independent, so p_3 = 0 on {H1,H2,H3}
@example(([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [1, 0, 1]]))
# rational generators: F M has fractional rows, so each row's scale divides
@example(
    (
        [[1, 2, 0], [0, 1, -1], [1, 0, 1], [2, -1, 1]],
        [
            [Fraction(1, 2), Fraction(-1, 3), 0],
            [Fraction(2, 3), 1, Fraction(1, 5)],
            [0, Fraction(-3, 4), Fraction(5, 7)],
        ],
    )
)
@settings(max_examples=40, deadline=None)
def test_flag_table_matches_minor_oracle(data):
    """One minor store of the chart matrix gives every flag's oracle profile."""
    rows, gens = data
    r = len(gens)
    hps = [Hyperplane(tuple(f), mpc(i + 1)) for i, f in enumerate(rows)]
    arr = Arrangement.build(r, hps)
    poly = Polyhedron.from_generators(gens)
    table = flag_table(arr, poly)
    assert [e.flag.indices for e in table] == [
        c
        for c in permutations(range(len(rows)), r)
        if rank(matrix([rows[i] for i in c])) == r
    ]
    for e in table:
        jac = jacobian(arr, e.flag.indices, poly)
        assert e.jacobian == jac
        assert e.profile == oracle_profile(jac)


@st.composite
def pooled_arrangements(draw):
    """r <= 4 rows drawn from a pool, so rows repeat and minors vanish, over
    rational generators, so the chart rows are fractional."""
    r = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(st.integers(min_value=-1, max_value=1), min_size=r, max_size=r)
    pool = draw(st.lists(row.filter(any), min_size=1, max_size=r + 1))
    rows = draw(st.lists(st.sampled_from(pool), min_size=r, max_size=r + 2))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    gens = draw(
        st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r).filter(
            lambda g: determinant(matrix(g)) != 0
        )
    )
    return rows, gens


@given(pooled_arrangements())
# r = 1: one flag per hyperplane, no q or r minors
@example(([[1], [-1], [1]], [[Fraction(-2, 3)]]))
# R = r: exactly one independent row set, all of its 3! orderings kept
@example(([[1, 1, 0], [0, -1, 1], [1, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
# repeated rows and zero minors, over rational generators
@example(
    (
        [[1, 0, -1], [1, 0, -1], [0, 1, 0], [1, 1, -1]],
        [[Fraction(1, 2), 0, 0], [0, Fraction(-1, 3), 1], [1, 0, Fraction(3, 4)]],
    )
)
@settings(max_examples=60, deadline=None)
def test_flag_table_matches_per_flag_reads(data):
    """Reading each independent row set's orderings through one layout gives
    every flag, in ``itertools.permutations`` order, the profile that a
    read of that flag alone from the same minor store gives."""
    rows, gens = data
    r = len(gens)
    hps = [Hyperplane(tuple(f), mpc(i + 1)) for i, f in enumerate(rows)]
    arr = Arrangement.build(r, hps)
    poly = Polyhedron.from_generators(gens)
    chart = jacobian(arr, range(len(rows)), poly)
    store = reference.keyed_store(chart)
    want = [
        (flag, reference.read_profile(store, flag, r))
        for flag in permutations(range(len(rows)), r)
        if store[tuple(sorted(flag)), r - 1][0]
    ]
    table = flag_table(arr, poly)
    assert len(table) == len(want)
    for e, (flag, profile) in zip(table, want):
        assert e.flag.indices == flag
        assert e.jacobian.entries == tuple(chart.entries[i] for i in flag)
        assert e.profile == profile


@given(pooled_arrangements())
@example(([[1], [-1], [1]], [[Fraction(-2, 3)]]))
@example(([[1, 1, 0], [0, -1, 1], [1, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
@example(
    (
        [[1, 0, -1], [1, 0, -1], [0, 1, 0], [1, 1, -1]],
        [[Fraction(1, 2), 0, 0], [0, Fraction(-1, 3), 1], [1, 0, Fraction(3, 4)]],
    )
)
# two stable incompatible flags, so the audit reads two entries
@example(([[-1, -1], [-1, 0], [-1, 1], [1, 1]], [[1, 0], [0, 1]]))
@settings(max_examples=60, deadline=None)
def test_flag_table_agrees_with_itself(data):
    """A flag table read four ways gives one answer: each place's verdicts
    are its entry's profile's; its entries, built where read, are those of
    per-flag reads of the Fraction chart F M; the stable flags and the audit
    are filters of its entries; and it equals, prints, pickles and copies
    as the tuple of its entries."""
    rows, gens = data
    r = len(gens)
    hps = [Hyperplane(tuple(f), mpc(i + 1)) for i, f in enumerate(rows)]
    arr = Arrangement.build(r, hps)
    poly = Polyhedron.from_generators(gens)
    table = flag_table(arr, poly)
    for n, verdicts in enumerate(table.verdicts):
        assert verdicts == table[n].profile[3:]
    chart = reference.fraction_chart(arr, range(len(rows)), poly)
    assert table.chart == chart
    assert all(
        type(x) is (int if y.denominator == 1 else Fraction)
        for row, want in zip(table.chart.entries, chart.entries)
        for x, y in zip(row, want)
    )
    store = reference.keyed_store(chart)
    entries = [
        FlagEntry(
            Flag(flag),
            RationalMatrix(tuple(chart.entries[i] for i in flag)),
            reference.read_profile(store, flag, r),
        )
        for flag in permutations(range(len(rows)), r)
        if store[tuple(sorted(flag)), r - 1][0]
    ]
    assert list(table) == entries
    assert stable_flags(arr, poly, table) == [e.flag for e in entries if e.profile.stable]
    violations = [
        Violation(e.flag, tuple((key, x) for key, x in e.profile.q if x > 0))
        for e in entries
        if e.profile.stable and not e.profile.compatible
    ]
    assert compatibility_audit(arr, poly, table) == AuditReport(
        all_compatible=not violations,
        violations=tuple(violations[:MAX_REPORTED_VIOLATIONS]),
        flags_checked=len(entries),
        truncated=len(violations) > MAX_REPORTED_VIOLATIONS,
    )
    assert table == tuple(entries) and tuple(entries) == table
    assert repr(table) == repr(tuple(table))
    for twin in (pickle.loads(pickle.dumps(table)), copy.copy(table), copy.deepcopy(table)):
        assert type(twin) is FlagTable
        assert twin == table and twin.verdicts == table.verdicts


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda k: st.integers(min_value=k + 1, max_value=5).flatmap(
            lambda width: st.lists(
                st.lists(fracs, min_size=width, max_size=width), min_size=k, max_size=k
            )
        )
    )
)
@example([[0, Fraction(1, 2), -1]])
@example([[1, 0, 0, 2], [1, 0, 0, 2]])
@settings(max_examples=60, deadline=None)
def test_minor_profile_of_a_wide_matrix_matches_per_flag_read(rows):
    """k < width: the q minors run past the last row, as the oracle's do."""
    mat = matrix(rows)
    want = reference.read_profile(reference.keyed_store(mat), range(mat.rows), mat.cols)
    assert minor_profile(mat) == want


@st.composite
def integer_charts(draw):
    """R <= 9 rows in r <= 4 variables, drawn from a pool of small integer rows
    and each taken as it is, negated or doubled, so that rows repeat, lie
    parallel and leave minors zero, over a cone of integer or Fraction
    generators, so that the chart F M has Fraction entries."""
    r = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(st.integers(min_value=-1, max_value=1), min_size=r, max_size=r)
    pool = draw(st.lists(row.filter(any), min_size=1, max_size=r + 2))
    scaled = st.builds(
        lambda f, c: [c * x for x in f], st.sampled_from(pool), st.sampled_from([1, -1, 2])
    )
    rows = draw(st.lists(scaled, min_size=1, max_size=9))
    entry = st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))
    gens = draw(
        st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r).filter(
            lambda g: determinant(matrix(g)) != 0
        )
    )
    return rows, gens


@given(integer_charts())
# fewer rows than variables: no row set, an empty table
@example(([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
# repeated, negated and doubled rows over a rational cone
@example(
    (
        [[1, 0, -1], [1, 0, -1], [-1, 0, 1], [0, 2, 0], [1, 1, -1], [2, 0, -2]],
        [[Fraction(1, 2), 0, 0], [0, Fraction(-1, 3), 1], [1, 0, Fraction(3, 4)]],
    )
)
# R = 9, r = 4: 126 row sets
@example(
    (
        [
            [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0],
            [0, 1, -1, 0], [1, 0, 1, -1], [-1, 1, 1, 1], [2, 0, 0, 0],
        ],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, Fraction(1, 2), 0], [1, 0, 0, Fraction(-2, 3)]],
    )
)
@settings(max_examples=40, deadline=None)
def test_flag_table_matches_keyed_reference(data):
    """The flat minor store, read through one getter per row set with its
    signs read once per table, gives the flag table, field by field, and the
    profiles that the dict store read key by key gives."""
    rows, gens = data
    r = len(gens)
    arr = Arrangement.build(r, [Hyperplane(tuple(f), mpc(i + 1)) for i, f in enumerate(rows)])
    poly = Polyhedron.from_generators(gens)
    table, want = flag_table(arr, poly), reference.keyed_flag_table(arr, poly)
    assert table.chart == want.chart
    assert table.row_sets == want.row_sets
    assert [type(x) for _, m, _ in table.row_sets for x in m] == [
        type(x) for _, m, _ in want.row_sets for x in m
    ]
    assert table.indices == want.indices
    assert table.verdicts == want.verdicts
    assert table.sources == want.sources
    chart = table.chart.entries
    for k in range(1, min(len(chart), r) + 1):
        for picked in (chart[:k], chart[-k:][::-1]):
            mat = RationalMatrix(tuple(picked))
            assert minor_profile(mat) == reference.keyed_minor_profile(mat)


def test_set_layout_cache_is_bounded():
    """The per-shape row-set layouts are kept in a small LRU cache: a sweep
    over more shapes than it holds leaves it at its size."""
    maxsize = set_layout.cache_info().maxsize
    assert maxsize is not None and maxsize <= 16
    for count in range(1, maxsize + 4):
        assert len(set_layout(count, 2)) == math.comb(count, min(count, 2))
    assert set_layout.cache_info().currsize == maxsize


@given(wide_matrices(), st.lists(fracs, min_size=4, max_size=4))
@settings(max_examples=120, deadline=None)
def test_positive_row_scaling_preserves_verdicts(rows, raw_factors):
    """Multiplying rows by positive scalars never changes any verdict."""
    mat = matrix(rows)
    factors = [abs(f) + Fraction(1, 7) for f in raw_factors[: mat.rows]]
    scaled = matrix(
        [[c * x for x in row] for c, row in zip(factors, mat.entries)]
    )
    a, b = minor_profile(mat), minor_profile(scaled)
    assert a.stable == b.stable
    assert a.compatible == b.compatible
    assert a.in_bruhat_cell == b.in_bruhat_cell


@given(square_matrices(4))
@settings(max_examples=100, deadline=None)
def test_bruhat_cell_is_unpivoted_lu(rows):
    """All leading principal minors nonzero iff LU works with no row swap."""
    mat = matrix(rows)
    n = mat.rows
    in_cell = all(leading_principal_minor(mat, k) != 0 for k in range(1, n + 1))

    m = [list(r) for r in rows]
    lu_ok = True
    for col in range(n):
        if m[col][col] == 0:
            lu_ok = False
            break
        for i in range(col + 1, n):
            c = m[i][col] / m[col][col]
            m[i] = [a - c * p for a, p in zip(m[i], m[col])]
    assert in_cell == lu_ok


@given(st.one_of(square_matrices(4), low_rank_matrices()), st.data())
@settings(max_examples=160, deadline=None)
def test_inverse_and_solve(rows, data):
    mat = matrix(rows)
    assert rank(mat) == minor_rank(rows)

    # targets: combinations of the rows, some pushed off their span
    coeffs = data.draw(
        st.lists(st.lists(fracs, min_size=mat.rows, max_size=mat.rows), max_size=3)
    )
    def combine(cs):
        return [sum(c * mat[i, j] for i, c in enumerate(cs)) for j in range(mat.cols)]

    targets = [combine(cs) for cs in coeffs]
    for t in targets:
        if data.draw(st.booleans()):
            t[data.draw(st.integers(0, mat.cols - 1))] += 1
    target_mat = matrix(targets)
    combos = row_combinations(mat, target_mat)
    stacked = matrix(rows + targets)
    spans = rank(mat) == mat.rows and rank(stacked) == mat.rows
    assert (combos is not None) == spans
    for cs, t in zip(combos or (), targets):
        assert combine(cs) == t
    # the reduced row echelon forms agree exactly when the targets add no rank
    echelon = row_echelon(mat)
    assert len(echelon) == rank(mat)
    assert (row_echelon(stacked) == echelon) == (rank(stacked) == rank(mat))

    n = mat.rows
    if n != mat.cols:
        with pytest.raises(ValueError):
            inverse(mat)
        return
    if determinant(mat) == 0:
        assert rank(mat) < n
        with pytest.raises(ValueError):
            inverse(mat)
        with pytest.raises(ValueError):
            solve_linear(mat, [1] * n)
        return
    assert rank(mat) == n
    inv = inverse(mat)
    prod = reference.matmul(mat, inv)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    assert prod == matrix(ident)
    rhs = [Fraction(i + 1, 3) for i in range(n)]
    x = solve_linear(mat, rhs)
    for i in range(n):
        assert sum(mat[i, j] * x[j] for j in range(n)) == rhs[i]


def test_solve_with_complex_rhs():
    mat = matrix([[2, 1], [1, 3]])
    rhs = [1 + 2j, 3 - 1j]
    x = solve_linear(mat, rhs)
    for i in range(2):
        got = sum(complex(mat[i, j]) * x[j] for j in range(2))
        assert abs(got - rhs[i]) < 1e-12


big_fractions = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30))


@given(
    st.sampled_from([53, 128, 200]),
    st.builds(GaussianRational, big_fractions, big_fractions),
    st.builds(GaussianRational, big_fractions, big_fractions),
    st.integers(-60, 60),
)
@settings(max_examples=300, deadline=None)
def test_gaussian_rational_meets_mpc_as_its_rounding(prec, g, w, e):
    """A GaussianRational g meeting an mpc z acts as to_mpc(g): + - * / give
    the bits of the rounded operand in either order, and the exact i times z
    gives mpc(0, 1) * z.  The front end and the chart forms mix the two kinds
    of scalar on this alone; should mpmath change how it converts g, this
    fails instead of the goldens drifting."""
    i = GaussianRational(Fraction(0), Fraction(1))
    with working_precision(prec):
        z = to_mpc(w) * mpmath.exp(mpf(e) / 7)  # a full mantissa
        r = to_mpc(g)
        pairs = [(g + z, r + z), (z + g, z + r), (g - z, r - z), (z - g, z - r)]
        pairs += [(g * z, r * z), (z * g, z * r), (i * z, mpc(0, 1) * z)]
        pairs += [(z * i, mpc(0, 1) * z)]
        if z:
            pairs.append((g / z, r / z))
        if g:
            pairs.append((z / g, z / r))
        for got, want in pairs:
            assert isinstance(got, mpc)
            assert (got.real, got.imag) == (want.real, want.imag)


def test_gaussian_rational_arithmetic():
    i = GaussianRational(Fraction(0), Fraction(1))
    assert i * i == GaussianRational.of(-1)
    z = GaussianRational(Fraction(3), Fraction(-4))
    assert z * z.conjugate() == GaussianRational.of(25)
    assert (z / z) == GaussianRational.of(1)
    assert complex(z) == 3 - 4j
    assert z * i == GaussianRational(Fraction(4), Fraction(3))
    assert GaussianRational.of(Fraction(1, 2)).is_real
    with pytest.raises(ZeroDivisionError):
        z / GaussianRational()


_ints = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))
# numerator and denominator of either sign, zero included
_fractions = st.builds(Fraction, _ints, _ints.filter(bool))
# (kind, value): a GaussianRational's value is its (re, im)
_operands = st.one_of(
    st.tuples(st.just("gaussian"), st.tuples(_fractions, _fractions)),
    st.tuples(st.just("int"), _ints),
    st.tuples(st.just("fraction"), _fractions),
)


def _build(cls, operand):
    kind, value = operand
    return cls(*value) if kind == "gaussian" else value


def _outcome(op, *args):
    """The result as (re, im) and whether it equals the same value built
    afresh, or a plain value, or the exception's type."""
    try:
        got = op(*args)
    except (ZeroDivisionError, TypeError) as exc:
        return type(exc)
    if isinstance(got, (GaussianRational, reference.GaussianRational)):
        return "gaussian", got.re, got.im, got == type(got)(got.re, got.im)
    return got


@given(_operands, _operands, st.integers(-5, 5))
@settings(max_examples=500, deadline=None)
def test_gaussian_rational_matches_its_fraction_pair_reference(x, y, n):
    """The three-int GaussianRational gives the values, exceptions and reprs
    of the two-Fraction reference: + - * / in both orders with ints and
    Fractions, negation, integer powers, ==, bool, re and im; equal values
    built from their parts hash equal."""
    new = [_build(GaussianRational, x), _build(GaussianRational, y)]
    old = [_build(reference.GaussianRational, x), _build(reference.GaussianRational, y)]
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert _outcome(op, *new) == _outcome(op, *old)
    assert (new[0] == new[1]) == (old[0] == old[1])
    for a, b in zip(new, old):
        if not isinstance(a, GaussianRational):
            continue
        for op in (operator.neg, bool, repr, lambda z: z**n, lambda z: z == 2):
            assert _outcome(op, a) == _outcome(op, b)
        assert (a.re, a.im, a.real, a.imag) == (b.re, b.im, b.real, b.imag)
        assert hash(a) == hash(GaussianRational(a.re, a.im))
        assert all(type(part) is Fraction for part in (a.re, a.im, a.real, a.imag))


@given(
    st.tuples(_fractions, _fractions),
    st.sampled_from([53, 128, 200]),
    st.sampled_from(["n", "f", "c", "d", "u"]),
)
@settings(max_examples=300, deadline=None)
def test_gaussian_rational_rounds_as_its_reference(parts, prec, rounding):
    """``_mpmath_`` rounds a / d and b / d to the reference's bits."""
    got = GaussianRational(*parts)._mpmath_(prec, rounding)
    want = reference.GaussianRational(*parts)._mpmath_(prec, rounding)
    assert got._mpc_ == want._mpc_


def test_exact_values_are_immutable():
    """Assigning a field raises AttributeError, and a copy is equal."""
    form = AffineForm((Fraction(1), Fraction(-2)), GaussianRational(1, 2))
    values = [
        (GaussianRational(Fraction(1, 2), 3), ["re", "im"]),
        (form, ["coeffs", "const"]),
        (Flag((0, 2, 1)), ["indices"]),
        (minor_profile(matrix([[1, 2], [3, 4]])), ["p", "stable"]),
    ]
    for value, fields in values:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        assert copy.deepcopy(value) == value
