"""Exact rational linear algebra: matrices over Q, determinantal minors, and
the sign tests built from them.

Everything here is exact.  A matrix entry is an ``int`` or a
``fractions.Fraction``, kept as given: ints stay ints, and every result that
is integral (a determinant, an inverse's entry, a minor) is an ``int``,
through one ``_ratio``.  ``_integer_rows`` is the one place that clears
denominators, row by row; one fraction-free Bareiss elimination on Python
ints (``_bareiss``) then serves every elimination: ``determinant`` reads
its last pivot, ``rank`` counts its pivots, ``_gauss_jordan`` carries
integer right-hand sides through its Gauss-Jordan form (an identity block
for ``inverse``, which ``solve_linear`` applies; the exact terminal points
of ``arrangement``), and ``row_echelon`` keys a span by its Gauss-Jordan
rows made primitive integer rows with a positive pivot.  No floating point
ever enters a sign decision.

Three families of minors of a k-by-r matrix J = (a_ij) drive the rest of the
package:

* ``p_k``: the k-th leading principal minor (``p_0 = 1`` by convention),
* ``q_{k,l}``: rows 1..k against columns 1..k-1 plus column l, for l > k,
* ``r_{j,k}``: rows 1..k with row j removed, against columns 1..k-1, j < k.

For a 2x2 matrix [[a, b], [c, d]] these are p1 = a, p2 = ad - bc, q12 = b,
r12 = c.  ``minor_profile`` packages all of them together with the derived
verdicts (stable / compatible / in the open Bruhat cell).

When J is a selection of rows of a matrix C, each of these minors is C's
minor on the same rows in ascending order, against columns 1..k-1 plus one
column, times the sign of the permutation that sorts them.  ``minor_store``
computes every such minor of C once, by Laplace expansion over the minors
one row smaller, into one flat list; a set of rows reads its minors, or
their signs, by one getter of the shape's ``set_layout``.  Through one
``profile_layout`` per (rows, width), ``set_verdicts`` decides every
ordering's verdicts from the signs, ``read_ordering`` reads one ordering's
profile and ``row_layout`` its table row.
``arrangement.flag_table`` reads every independent row set of the chart
matrix so; ``minor_profile`` J's own.  ``RationalMatrix``, ``Verdicts`` and
``MinorProfile`` are NamedTuples.

``GaussianRational`` is the exact complex scalar of hyperplane constants,
terminal points and exact chart forms: (a + b i) / d on three Python ints
in normal form (d > 0, gcd(a, b, d) = 1), so that each operation is a few
integer products and one gcd, and equal values hold equal ints.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple, Sequence


def _exact(x) -> int | Fraction:
    """x as a matrix entry: an int or Fraction as given, a float exactly."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _ratio(n: int, d: int) -> int | Fraction:
    """n / d for d != 0: an int when d divides n, else a Fraction."""
    return n // d if n % d == 0 else Fraction(n, d)


class RationalMatrix(NamedTuple):
    """Immutable matrix over Q, stored as a tuple of row tuples of ints and
    Fractions."""

    entries: tuple[tuple[int | Fraction, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, pos: tuple[int, int]) -> int | Fraction:
        i, j = pos
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int | Fraction, ...]:
        return self.entries[i]


def _integer_rows(
    rows: Sequence[Sequence[int | Fraction]],
) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, and those lcms."""
    scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
    return [
        [x.numerator * (d // x.denominator) for x in row]
        for row, d in zip(rows, scales)
    ], scales


def _bareiss(
    m: list[list[int]], width: int, reduce: bool = False
) -> tuple[list[int], int]:
    """Fraction-free elimination of integer rows, in place (Bareiss 1968).

    Pivots are sought left to right in the first ``width`` columns; later
    columns are carried along as right-hand sides.  Every entry stays an
    integer minor of the input, so each division is exact.  Rows below a pivot
    are cleared; with ``reduce`` the rows above it are too (Gauss-Jordan), and
    then every pivot row holds the last pivot on its pivot column.  Returns the
    pivot columns in row order and the sign of the row permutation; the last
    pivot of a nonsingular square matrix is its determinant times that sign.
    """
    n = len(m)
    pivots: list[int] = []
    sign = 1
    prev = 1
    for col in range(width):
        row = len(pivots)
        if row == n:
            break
        piv = next((i for i in range(row, n) if m[i][col]), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            sign = -sign
        prow = m[row]
        p = prow[col]
        for i in range(n) if reduce else range(row + 1, n):
            if i == row:
                continue
            mi = m[i]
            c = mi[col]
            # left of col, the rows below the pivot row hold only zeros
            s = 0 if i < row else col
            mi[s:] = [(a * p - c * b) // prev for a, b in zip(mi[s:], prow[s:])]
        prev = p
        pivots.append(col)
    return pivots, sign


def determinant(mat: RationalMatrix) -> int | Fraction:
    """Exact determinant, an int when integral; denominators are cleared row
    by row first."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    if mat.rows == 0:
        return 1
    m, scales = _integer_rows(mat.entries)
    pivots, sign = _bareiss(m, mat.cols)
    if len(pivots) < mat.rows:
        return 0
    return _ratio(sign * m[-1][-1], math.prod(scales))


class Verdicts(NamedTuple):
    """The sign verdicts of a matrix's minors (``MinorProfile``).

    ``stable``  means every p_k > 0 and (-1)^(l-j) r_{j,l} >= 0 for all j < l.
    ``compatible`` means: not stable, or every stored q_{j,l} <= 0.
    ``in_bruhat_cell`` means every p_k != 0; equivalently the matrix admits an
    LU factorization with nonsingular U and no row pivoting.
    """

    stable: bool
    compatible: bool
    in_bruhat_cell: bool


# every verdict triple, built once: a flag table holds one per flag
_VERDICTS = {v: Verdicts(*v) for v in itertools.product((False, True), repeat=3)}


class MinorProfile(NamedTuple):
    """All minors of the three families, plus the derived ``Verdicts``."""

    p: tuple[int | Fraction, ...]
    q: tuple[tuple[tuple[int, int], int | Fraction], ...]
    r_minors: tuple[tuple[tuple[int, int], int | Fraction], ...]
    stable: bool
    compatible: bool
    in_bruhat_cell: bool


def minor_store(mat: RationalMatrix) -> list:
    """Every minor det C[S; (1..k-1, c)] of C = mat, for an ascending row
    tuple S of size k <= r and a column c >= k, as det, -det in one flat
    list by k, S in ``combinations`` order and c (``_store_keys``).

    C's rows are cleared to integers once, and each minor is its Laplace
    expansion along column c over the head minors det C[T; 1..k-1] of the
    (k-1)-subsets T of S: k integer products, no division and no pivot.
    """
    m, scales = _integer_rows(mat.entries)
    width = mat.cols
    store: list = []
    heads = {(): 1}
    for k in range(1, min(mat.rows, width) + 1):
        for rows in itertools.combinations(range(mat.rows), k):
            # the cofactors of the last column of C[rows; (1..k-1, c)]
            cofactors = [
                (-1) ** (k - 1 - i) * heads[rows[:i] + rows[i + 1 :]] for i in range(k)
            ]
            scale = math.prod([scales[i] for i in rows])
            for c in range(k - 1, width):
                det = sum([a * m[i][c] for a, i in zip(cofactors, rows)])
                if c == k - 1:
                    heads[rows] = det
                x = det if scale == 1 else _ratio(det, scale)
                store += (x, -x)
    return store


def _store_keys(rows: Sequence[int], width: int) -> list:
    """The 0-based (S, c) of the pairs of a ``width``-column ``minor_store``
    whose S lies in the ascending ``rows``, in store order."""
    sets = [itertools.combinations(rows, k) for k in range(1, min(len(rows), width) + 1)]
    return [(s, c) for s in itertools.chain(*sets) for c in range(len(s) - 1, width)]


def _getter(idx: Sequence[int]):
    """``itemgetter(*idx)``, returning a tuple for one or no index too."""
    return itemgetter(*idx) if len(idx) > 1 else lambda seq: tuple([seq[i] for i in idx])


@functools.lru_cache(maxsize=8)
def set_layout(count: int, width: int) -> tuple:
    """Per k-subset S of C's count rows, k = min(count, width), in ``combinations``
    order, the getter of S's minors in ``profile_layout``'s order from C's
    ``minor_store`` or its signs.  Few shapes are kept: near the cap one holds 16,000."""
    place = {key: (2 * n, 2 * n + 1) for n, key in enumerate(_store_keys(range(count), width))}
    return tuple(
        itemgetter(*[j for key in _store_keys(rows, width) for j in place[key]])
        for rows in itertools.combinations(range(count), min(count, width))
    )


@functools.cache
def profile_layout(k: int, width: int) -> tuple:
    """Where each ordering of k rows of a ``width``-column matrix reads its
    minors from the rows' minors in the store order of k rows alone
    (``set_layout``): minor n as items 2n and 2n + 1.  A minor of an
    ordering's first m rows is the item of those rows in ascending order
    chosen by the parity of the sort; dropping the prefix's j-th row, i-th in
    ascending order, adds j - 1 + i.  Returns the distinct (q key, item) and
    (r key, item) pairs and, per ordering of range(k) in ``permutations``
    order (which ``row_layout`` and a ``FlagTable``'s row sets follow),
    getters of its rows, p items, q and r pairs."""
    slot = {key: 2 * n for n, key in enumerate(_store_keys(range(k), width))}
    q_pairs: dict = {}  # (key, item) -> its place among the distinct pairs
    r_pairs: dict = {}
    readings = []
    for order in itertools.permutations(range(k)):
        prefixes = []  # (ascending rows, parity of the sort) of each prefix
        for m in range(1, k + 1):
            inversions = sum(a > b for a, b in itertools.combinations(order[:m], 2))
            prefixes.append((tuple(sorted(order[:m])), inversions & 1))
        q = [
            q_pairs.setdefault(((m, l), slot[key, l - 1] + odd), len(q_pairs))
            for m, (key, odd) in enumerate(prefixes, 1)
            for l in range(m + 1, width + 1)
        ]
        r = []
        for j, row in enumerate(order, 1):
            for l, (key, odd) in enumerate(prefixes[j:], j + 1):
                i = key.index(row)
                item = slot[key[:i] + key[i + 1 :], l - 2] + (odd ^ (j - 1 + i) & 1)
                r.append(r_pairs.setdefault(((j, l), item), len(r_pairs)))
        p = [slot[key, m] + odd for m, (key, odd) in enumerate(prefixes)]
        readings.append(tuple(map(_getter, (order, p, q, r))))
    return tuple(q_pairs), tuple(r_pairs), tuple(readings)


def set_verdicts(signs: Sequence[int], k: int, width: int) -> list:
    """The ``Verdicts`` of each ordering of k rows of C, in ``profile_layout``
    order, from a number of each sign of the rows' minors (``set_layout``)."""
    q_pairs, r_pairs, readings = profile_layout(k, width)
    q_signs = [signs[n] for _, n in q_pairs]
    r_signs = [signs[n ^ (l - j) & 1] for (j, l), n in r_pairs]  # (-1)^(l-j) r_jl
    verdicts = []
    for _, p, q, r in readings:
        p_signs = p(signs)
        stable = min(p_signs, default=1) > 0 and min(r(r_signs), default=0) >= 0
        compatible = not stable or max(q(q_signs), default=0) <= 0
        verdicts.append(_VERDICTS[stable, compatible, all(p_signs)])
    return verdicts


def read_ordering(minors: Sequence, k: int, width: int, n: int, verdicts: Verdicts) -> MinorProfile:
    """The profile of ordering n of k rows of C, in ``profile_layout`` order,
    read from the rows' minors (``set_layout``), with its ``verdicts``."""
    q_pairs, r_pairs, readings = profile_layout(k, width)
    _, p, q, r = readings[n]
    q = tuple([(key, minors[i]) for key, i in q(q_pairs)])
    r = tuple([(key, minors[i]) for key, i in r(r_pairs)])
    return MinorProfile(p(minors), q, r, *verdicts)


@functools.cache
def row_layout(k: int, width: int) -> tuple:
    """Per ordering of k rows, in ``profile_layout`` order, the positions of
    its rows among the ascending k, and of its table row's minors in the
    rows' minors (``set_layout``): p, then q and r, each in ``json.dumps``'s
    order of "(j,l)" ("(1,10)" first)."""
    q_pairs, r_pairs, readings = profile_layout(k, width)
    n = range(2 * len(_store_keys(range(k), width)))
    text = lambda pair: "(%d,%d)" % pair[0]
    layout = []
    for o, p, q, r in readings:
        q, r = sorted(q(q_pairs), key=text), sorted(r(r_pairs), key=text)
        layout.append((o(range(k)), (*p(n), *(i for _, i in q + r))))
    return tuple(layout)


def minor_profile(mat: RationalMatrix) -> MinorProfile:
    """Every minor of the three families of J = mat.

    J has k <= r rows.  q minors range over 1 <= j <= k, j < l <= r (columns
    may exceed the row count); r minors range over 1 <= j < l <= k.  The
    verdicts use exactly these index sets.  J's rows are read in order, the
    first of their orderings, from J's own ``minor_store``, J's one row set.
    """
    k, width = mat.rows, mat.cols
    if k > width:
        raise ValueError("more rows than columns; transpose the data")
    minors = minor_store(mat)
    verdicts = set_verdicts([x.numerator for x in minors], k, width)
    return read_ordering(minors, k, width, 0, verdicts[0])


def rank(mat: RationalMatrix) -> int:
    """Rank: the number of pivots of the elimination."""
    return len(_bareiss(_integer_rows(mat.entries)[0], mat.cols)[0])


def _gauss_jordan(
    rows: Sequence[Sequence[int | Fraction]], columns: Sequence[Sequence[int]] | None = None
) -> tuple[list[list[int]], int]:
    """(N, d) with A^-1 B = N / d, N integer and d > 0, for the ``rows`` of
    a nonsingular square rational A and integer right-hand sides B
    (``columns``, one row of B per row of A; the identity when None).  With
    D clearing A's row denominators, one fraction-free Gauss-Jordan of
    [D A | D B] (``_bareiss``) leaves +-det(D A) on every pivot."""
    n = len(rows)
    if columns is None:
        columns = [[int(i == j) for j in range(n)] for i in range(n)]
    m, scales = _integer_rows(rows)
    m = [[*f, *(s * x for x in b)] for f, s, b in zip(m, scales, columns)]
    if len(_bareiss(m, n, reduce=True)[0]) < n:
        raise ValueError("singular matrix")
    d = m[0][0]
    return [row[n:] if d > 0 else [-x for x in row[n:]] for row in m], abs(d)


def inverse(mat: RationalMatrix) -> RationalMatrix:
    """Exact inverse, its integral entries ints (``_gauss_jordan``)."""
    if mat.rows != mat.cols:
        raise ValueError("inverse of a non-square matrix")
    rows, d = _gauss_jordan(mat.entries)
    return RationalMatrix(tuple(tuple(_ratio(x, d) for x in row) for row in rows))


def solve_linear(mat: RationalMatrix, rhs: Sequence) -> list:
    """Solve mat @ x = rhs where mat is exact rational and invertible.

    The right-hand side may hold arbitrary scalars (complex, mpmath): x is the
    exact inverse applied to it, so only exact entries decide pivots.
    """
    if len(rhs) != mat.rows:
        raise ValueError("square system required")
    return [
        sum(b * c for b, c in zip(rhs, row)) for row in inverse(mat).entries
    ]


def row_echelon(mat: RationalMatrix) -> tuple[tuple[int, ...], ...]:
    """The nonzero rows of mat's reduced row echelon form, each scaled to a
    primitive integer row with a positive pivot: two matrices give the same
    tuple exactly when their rows span the same space."""
    m, _ = _integer_rows(mat.entries)
    pivots, _ = _bareiss(m, mat.cols, reduce=True)
    scales = [math.gcd(*row) if row[col] > 0 else -math.gcd(*row) for row, col in zip(m, pivots)]
    return tuple(tuple(x // g for x in row) for row, g in zip(m, scales))


class GaussianRational:
    """Exact complex number (a + b i) / d, held as three Python ints in normal
    form: d > 0 and gcd(a, b, d) = 1, so that equal values hold equal ints.
    Exact with int and Fraction, rounded (``_mpmath_``) when mixed with
    mpmath's numbers.  ``re`` and ``im`` are Fractions; like a Fraction it
    equals only its own kind, so ``GaussianRational.of(2) != 2``."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        # re and im are in lowest terms, so the three ints are coprime
        ((self._a, self._b),), (self._d,) = _integer_rows([(_exact(re), _exact(im))])

    @classmethod
    def of(cls, x: int | Fraction) -> "GaussianRational":
        x = _exact(x)
        return _normal(x.numerator, 0, x.denominator)

    re = property(lambda self: Fraction(self._a, self._d))
    im = property(lambda self: Fraction(self._b, self._d))
    real = property(re.fget)
    imag = property(im.fget)
    is_zero = property(lambda self: not self)
    is_real = property(lambda self: self._b == 0)

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __eq__(self, o):
        if o.__class__ is not GaussianRational:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self) -> int:  # equals only its own kind, in normal form
        return hash((self._a, self._b, self._d))

    def __add__(self, o):
        a, b, d = self._a, self._b, self._d
        if o.__class__ is GaussianRational:
            e = o._d
            if d == e:
                return _gaussian(a + o._a, b + o._b, d)
            return _gaussian(a * e + o._a * d, b * e + o._b * d, d * e)
        if isinstance(o, int):
            # gcd(a + o d, b, d) = gcd(a, b, d) = 1
            return _normal(a + o * d, b, d)
        if isinstance(o, Fraction):
            n, e = o.numerator, o.denominator
            return _gaussian(a * e + n * d, b * e, d * e)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        a, b = self._a, self._b
        if o.__class__ is GaussianRational:
            c, e = o._a, o._b
            return _gaussian(a * c - b * e, a * e + b * c, self._d * o._d)
        if isinstance(o, int):
            return _gaussian(a * o, b * o, self._d)
        if isinstance(o, Fraction):
            n = o.numerator
            return _gaussian(a * n, b * n, self._d * o.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        a, b, d = self._a, self._b, self._d
        if o.__class__ is GaussianRational:
            # (a + b i) / d * e / (c + f i) = e (a + b i)(c - f i) / (d (c^2 + f^2))
            c, f, e = o._a, o._b, o._d
            n = c * c + f * f
            if not n:
                raise ZeroDivisionError("division by zero")
            return _gaussian(e * (a * c + b * f), e * (b * c - a * f), d * n)
        if isinstance(o, int):
            n, e = o, 1
        elif isinstance(o, Fraction):
            n, e = o.numerator, o.denominator
        else:
            return NotImplemented
        if not n:
            raise ZeroDivisionError("division by zero")
        return _gaussian(a * e, b * e, d * n)

    def __rtruediv__(self, o):
        return GaussianRational.of(o) / self

    def __pow__(self, n: int) -> "GaussianRational":
        """Integer power: the Gaussian integer a + b i to the |n| by repeated
        squaring, over d^|n|, brought to normal form once."""
        x, y, k = self._a, self._b, abs(n)
        a, b = 1, 0
        while k:
            if k & 1:
                a, b = a * x - b * y, a * y + b * x
            k >>= 1
            if k:
                x, y = x * x - y * y, 2 * x * y
        power = _gaussian(a, b, self._d ** abs(n))
        return power if n >= 0 else 1 / power

    def __neg__(self) -> "GaussianRational":
        return _normal(-self._a, -self._b, self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __abs__(self) -> float:  # a float magnitude, not a decision
        return math.hypot(self._a / self._d, self._b / self._d)

    def conjugate(self) -> "GaussianRational":
        return _normal(self._a, -self._b, self._d)

    def __complex__(self) -> complex:
        return complex(self._a / self._d) + 1j * complex(self._b / self._d)

    def _mpmath_(self, prec: int, rounding: str):
        """The value rounded at ``prec`` bits, for mpmath's arithmetic: each
        part a / d and b / d is rounded once, as its Fraction would be."""
        from mpmath import mp
        from mpmath.libmp import from_rational

        a, b, d = self._a, self._b, self._d
        return mp.make_mpc(
            (from_rational(a, d, prec, rounding), from_rational(b, d, prec, rounding))
        )


_new = object.__new__


def _normal(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i) / d for ints already in normal form."""
    z = _new(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


def _gaussian(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i) / d for d != 0, brought to normal form by one gcd."""
    g = math.gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _normal(a, b, d)
