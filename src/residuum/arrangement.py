"""Hyperplanes, polyhedra, and flags.

A polar hyperplane is presented canonically as H = {f(v) = is} with f a
primitive coprime-integer vector and s a GaussianRational with Re s > 0
(such H never meets the real locus), found on Gaussian integers
(``_canonical``); a constant given as a float or mpmath number is taken at
its binary value (``symfun.to_exact``).  A polyhedron is an
ordered rational basis (v_1, ..., v_r) spanning a cone; its coordinates z
are the dual basis.  The Jacobian of an ordered
hyperplane collection with respect to a polyhedron has entries f_j(v_k), and
its exact minor profile decides solubility, stability, and compatibility.
The integrand has one pullback to the chart v = M z, ``Arrangement.pullback``:
factor j is (row j of the exact F M) . z - i s_j, exact throughout.
``flag_table`` decides every complete flag's verdicts once per (arrangement,
polyhedron) pair; the audit, the stable flags, the engine and the reports
all read that one table.  Each flag's Jacobian is its rows of the chart
matrix C (all hyperplanes against the generators, ints where integral), so
each of its minors is a signed minor of C, read from one flat ``minor_store``
of C through the shape's ``set_layout``, and a flag is kept when its p_r is
nonzero, which is when its f-rows are independent.  A flag's Jacobian and
minors are read into a ``FlagEntry`` only where something reads that entry:
a reported violation, a text report.

``terminal_classes`` keys each flag once by the hyperplanes through its
terminal point (``incidence``) and, where more than r meet, the exact spans
of its prefixes; the evaluator and the grouping read it.  A point is one
fraction-free solve on integers (``pole_location``) and its hyperplanes an
integer test, so which hyperplanes meet where is decided exactly.

The z_k-star values are the sequential pole positions of the coordinate-wise
residue iteration: with p_0 = 1,

    z_k* = p_k^{-1} ( i (s_k p_{k-1} + sum_{j<k} (-1)^{k-j} s_j r_{jk})
                      - sum_{l>k} x_l q_{kl} ).

Since the q-minors and the x-samples are real, Im z_k* does not depend on x;
a flag contributes to the expansion exactly when every Im z_k* > 0.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from operator import mul
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .exact_linalg import (
    GaussianRational,
    _exact,
    _gauss_jordan,
    _gaussian,
    _integer_rows,
    _ratio,
    MinorProfile,
    RationalMatrix,
    determinant,
    minor_store,
    profile_layout,
    rank,
    read_ordering,
    row_echelon,
    set_layout,
    set_verdicts,
)
from .symfun import (
    AffineForm,
    ExpRationalFunction,
    Term,
    to_exact,
)


class NotAlignable(ValueError):
    """The linear part cannot be scaled to a real form (Re and Im not parallel)."""


class MeetsRealLocus(ValueError):
    """The hyperplane intersects the real integration locus (Re s = 0)."""


class InsolubleFlag(Exception):
    """A leading principal minor of the linearized flag vanishes."""


_I = GaussianRational(0, 1)


def _gaussian_of(x) -> GaussianRational:
    """A scalar as a GaussianRational, a float or mpmath one at its binary value."""
    x = to_exact(x)
    return x if x.__class__ is GaussianRational else GaussianRational.of(x)


def _exact_scalar(x):
    """x as an exact scalar, a complex as its GaussianRational."""
    if isinstance(x, complex):
        x = to_exact(x)
    if not isinstance(x, (int, Fraction, GaussianRational)):
        raise TypeError(f"hyperplane linear parts must be exact rational data, got {x!r}")
    return x


class Hyperplane(NamedTuple):
    """H = {v : f(v) = i s} with f primitive integers and Re s > 0."""

    f: tuple[int, ...]
    s: GaussianRational

    @property
    def dim(self) -> int:
        return len(self.f)

    def same_locus(self, other: "Hyperplane") -> bool:
        return self.f == other.f and self.s == other.s


def canonicalize_hyperplane(linear_coeffs: Sequence, constant) -> Hyperplane:
    """Rescale the affine function <a, v> + b to the canonical (f, s) data.

    The zero set {<a,v> + b = 0} is rewritten as {f(v) = is} with f a
    primitive coprime-integer vector and Re s > 0.  The linear part must be
    exact (ints, Fractions, exact complex rationals); the constant may be any
    complex scalar, a float or mpmath one taken at its binary value
    (``to_exact``).  The entries are split once, as an ``AffineForm``'s."""
    linear = tuple(map(_exact_scalar, linear_coeffs))
    form = AffineForm(linear, to_exact(constant))
    return _canonical(form._v, form._den)[0]


def _canonical(v: Sequence, den: int) -> tuple[Hyperplane, GaussianRational]:
    """The canonical hyperplane of <a, v> + b = 0 and c with <a, v> + b = c (f(v) - i s),
    from the Gaussian-integer pairs ``v`` of a's entries and b over ``den`` > 0.  For
    a's first nonzero pair (x, y), c = g (x + y i) / (den (x^2 + y^2)), g the gcd of
    the real a (x - y i), and s = i b / c."""
    z = v[:-1]
    x, y = next((pair for pair in z if any(pair)), (0, 0))
    if not (x or y):
        raise ValueError("linear part is zero; not a hyperplane")
    # z_j times the conjugate of the lead: (a + b i)(x - y i)
    if any(b * x != a * y for a, b in z):
        raise NotAlignable("real and imaginary parts of the linear coefficients are not parallel")
    u = [a * x + b * y for a, b in z]
    g = math.gcd(*u)
    p, q = v[-1]  # b = (p + q i) / den: s = i (p + q i)(x - y i) / g
    s = _gaussian(p * y - q * x, p * x + q * y, g)
    if not s._a:
        raise MeetsRealLocus("hyperplane meets the real locus (Re s = 0)")
    sign = 1 if s._a > 0 else -1
    c = _gaussian(sign * g * x, sign * g * y, den * (x * x + y * y))
    return Hyperplane(tuple([sign * n // g for n in u]), s if sign > 0 else -s), c


class Polyhedron:
    """Cone data: ordered rational generators v_1..v_r (the dual basis to z),
    each entry an int or a Fraction as given.

    A slotted class rather than a NamedTuple, so that it equals only a
    Polyhedron: a ``RationalMatrix`` also holds one tuple of rows.
    Immutable: ``generators`` cannot be assigned."""

    __slots__ = ("generators",)

    def __init__(self, generators: tuple[tuple[int | Fraction, ...], ...]):
        _set_generators(self, generators)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Polyhedron:
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.generators,))

    def __repr__(self) -> str:
        return f"Polyhedron(generators={self.generators!r})"

    def __reduce__(self):
        return Polyhedron, (self.generators,)

    @classmethod
    def from_generators(cls, vectors: Iterable[Iterable]) -> "Polyhedron":
        gens = tuple(tuple(map(_exact, v)) for v in vectors)
        r = len(gens)
        if any(len(v) != r for v in gens):
            raise ValueError("need r generators of length r")
        if determinant(cls._basis_matrix_of(gens)) == 0:
            raise ValueError("generators are linearly dependent")
        return cls(gens)

    @staticmethod
    def _basis_matrix_of(gens) -> RationalMatrix:
        return RationalMatrix(tuple(zip(*gens)))

    @property
    def dim(self) -> int:
        return len(self.generators)

    def basis_matrix(self) -> RationalMatrix:
        """M with columns v_1..v_r, so v = M z."""
        return self._basis_matrix_of(self.generators)

    def det(self) -> int | Fraction:
        return determinant(self.basis_matrix())


_set_generators = Polyhedron.generators.__set__


class Flag(NamedTuple):
    """Ordered tuple of hyperplane indices; cuts H_1 > H_1^H_2 > ...

    ``len(flag)`` counts the indices, not the tuple's one field, so a new
    flag is built with ``Flag(indices)``: ``_replace`` checks that length."""

    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)

    def label(self) -> str:
        return "(" + ",".join(f"H{i + 1}" for i in self.indices) + ")"


class Arrangement(NamedTuple):
    """Dimension, polar hyperplanes with multiplicities, and the numerator."""

    dim: int
    hyperplanes: tuple[Hyperplane, ...]
    multiplicities: tuple[int, ...]
    numerator: ExpRationalFunction

    @classmethod
    def build(
        cls,
        dim: int,
        hyperplanes: Iterable[Hyperplane],
        numerator: ExpRationalFunction | None = None,
        multiplicities: Iterable[int] | None = None,
    ) -> "Arrangement":
        """Merge coincident hyperplanes into multiplicities; each s is taken
        as a GaussianRational, a float or mpmath one at its binary value."""
        hps: list[Hyperplane] = []
        mults: list[int] = []
        supplied = list(multiplicities) if multiplicities is not None else None
        for pos, h in enumerate(hyperplanes):
            if len(h.f) != dim:
                raise ValueError("hyperplane dimension mismatch")
            if h.s.__class__ is not GaussianRational:
                h = h._replace(s=_gaussian_of(h.s))
            m = supplied[pos] if supplied is not None else 1
            for i, existing in enumerate(hps):
                if existing.same_locus(h):
                    mults[i] += m
                    break
            else:
                hps.append(h)
                mults.append(m)
        if not hps:
            raise ValueError("need at least one hyperplane")
        num = (
            numerator
            if numerator is not None
            else ExpRationalFunction.from_parts(dim)
        )
        if num.arity != dim:
            raise ValueError("numerator arity mismatch")
        return cls(dim, tuple(hps), tuple(mults), num)

    @property
    def total_denominator_degree(self) -> int:
        return sum(self.multiplicities)

    def integrand(self) -> ExpRationalFunction:
        """G(v) = numerator / prod (f_j(v) - i s_j)^{m_j}: the identity chart."""
        eye = [[int(i == j) for j in range(self.dim)] for i in range(self.dim)]
        return self.integrand_in(Polyhedron.from_generators(eye))

    def integrand_in(self, poly: Polyhedron) -> ExpRationalFunction:
        """The function F with int_{R^r} G dv = int_{R^r} F dz: F = |det M| G(Mz)."""
        return self.pullback(poly)[0]

    def pullback(self, poly: Polyhedron) -> tuple[ExpRationalFunction, dict]:
        """The integrand F in the chart v = M z and {j: form j}: form j is
        (row j of the exact F M of ``jacobian``) . z - i s_j.  Each numerator
        term, composed with M, takes |det M| and every form, and is
        normalized by one ``Term.make``."""
        return self._pullback(poly, jacobian(self, range(len(self.hyperplanes)), poly))

    def _pullback(self, poly: Polyhedron, rows: RationalMatrix) -> tuple:
        """``pullback`` from the chart matrix F M, as a flag table holds it."""
        consts = [_I * -h.s for h in self.hyperplanes]
        forms = {j: AffineForm(row, c) for j, (row, c) in enumerate(zip(rows.entries, consts))}
        factors = list(zip(forms.values(), self.multiplicities))
        subs = [AffineForm(row, 0) for row in poly.basis_matrix().entries]
        weight = abs(poly.det())
        terms = [
            Term.make(
                t.coeff * weight,
                t.poly.compose(subs),
                t.expo.compose(subs),
                [(form.compose(subs), m) for form, m in t.denom] + factors,
            )
            for t in self.numerator.terms
        ]
        return ExpRationalFunction(self.dim, terms), forms


def jacobian(
    arr: Arrangement, indices: Sequence[int], poly: Polyhedron
) -> RationalMatrix:
    """Rows f_j of the chosen hyperplanes evaluated on the cone generators
    (``_products``)."""
    if not indices:
        raise ValueError("empty hyperplane collection")
    return RationalMatrix(_products([arr.hyperplanes[i].f for i in indices], poly.generators))


def _products(rows: Sequence[Sequence[int]], columns: Sequence[Sequence]) -> tuple:
    """The integer rows times the exact columns: f . v is an integer product
    with v over its denominator d, an int when it is integral."""
    cols, scales = _integer_rows(columns)
    return tuple(
        tuple([_ratio(sum([a * b for a, b in zip(f, v)]), d) for v, d in zip(cols, scales)])
        for f in rows
    )


def enumerate_flags(arr: Arrangement, depth: int) -> list[Flag]:
    """All ordered depth-tuples of distinct hyperplanes with full-rank f-rows,
    in ``itertools.permutations`` order; each row set is ranked once."""
    if not (1 <= depth <= arr.dim):
        raise ValueError("depth out of range")
    f_rows = [h.f for h in arr.hyperplanes]
    out = []
    for combo in itertools.combinations(range(len(f_rows)), depth):
        if rank(RationalMatrix(tuple(f_rows[i] for i in combo))) == depth:
            out.extend(itertools.permutations(combo))
    return [Flag(combo) for combo in sorted(out)]


class FlagEntry(NamedTuple):
    """One complete flag with its chart Jacobian and minor profile."""

    flag: Flag
    jacobian: RationalMatrix
    profile: MinorProfile


MAX_TABLE_FLAGS = 100_000


class TableTooLarge(Exception):
    """A flag table would hold more than MAX_TABLE_FLAGS flags."""


class FlagTable(Sequence):
    """``flag_table``'s entries, each built when read (nothing is cached):
    ``chart`` C = F M, ``row_sets`` (per kept row set S: S, its minors in
    ``set_layout`` order, the places of its orderings in ``profile_layout`` order),
    and per place n its flag's ``indices`` and ``verdicts``, which the engine
    reads, and its ``sources``: s r! + o when it holds ordering o of row set
    s.  Equal to, and printed as, the tuple of its entries; unhashable."""

    __slots__ = ("chart", "row_sets", "indices", "verdicts", "sources")

    def __init__(self, chart, row_sets, indices, verdicts, sources):
        self.chart, self.row_sets, self.indices, self.verdicts = chart, row_sets, indices, verdicts
        self.sources = sources

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, n):
        if isinstance(n, slice):
            return tuple(map(self.__getitem__, range(len(self))[n]))
        r = self.chart.cols
        readings = profile_layout(r, r)[2]
        s, o = divmod(self.sources[n], len(readings))
        rows, minors, _ = self.row_sets[s]
        jac = RationalMatrix(readings[o][0]([self.chart.entries[i] for i in rows]))
        profile = read_ordering(minors, r, r, o, self.verdicts[n])
        return FlagEntry(Flag(self.indices[n]), jac, profile)

    def top_minor(self, flag: Flag) -> int | Fraction:
        """The p_r of a flag of the table, read from its row set's minors."""
        readings = profile_layout(self.chart.cols, self.chart.cols)[2]
        s, o = divmod(self.sources[bisect_left(self.indices, flag.indices)], len(readings))
        return readings[o][1](self.row_sets[s][1])[-1]

    def __eq__(self, other):
        if isinstance(other, (FlagTable, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(tuple(self))


def flag_table(arr: Arrangement, poly: Polyhedron) -> FlagTable:
    """Every complete flag, in enumeration order, with its verdicts; its
    Jacobian and profile are read where an entry is.

    The one place the pair's minors are computed, in one ``minor_store`` of
    the chart matrix C = F M; build the table once per call and hand it to
    whatever reads the verdicts.  The store's signs are read once; a set S
    of r rows reads its minors and their signs by one getter (``set_layout``)
    and its r! orderings' verdicts from the signs (``set_verdicts``).  S is
    kept when its p_r, at the store's end, is nonzero: M is nonsingular,
    so p_r = +-det C[S] vanishes exactly when the f-rows F[S] are dependent.
    A table of more than ``MAX_TABLE_FLAGS`` flags raises ``TableTooLarge``
    before the store is built: when the C(R, r) r-subsets could hold that
    many, they are counted by determinant until more than the cap's share,
    MAX_TABLE_FLAGS // r!, are independent.
    """
    chart = jacobian(arr, range(len(arr.hyperplanes)), poly)
    r, cap = arr.dim, MAX_TABLE_FLAGS // math.factorial(arr.dim)
    dets = map(determinant, map(RationalMatrix, itertools.combinations(chart.entries, r)))
    # the determinant of a (cap + 1)-th independent r-subset, when there is one
    if math.comb(chart.rows, r) > cap and next(itertools.islice(filter(None, dets), cap, None), 0):
        raise TableTooLarge(
            f"more than {cap} independent row sets of {r}! flags each exceed "
            f"the flag table cap of {MAX_TABLE_FLAGS}"
        )
    store = minor_store(chart)
    signs = [x.numerator for x in store]
    tops = signs[len(signs) - 2 * math.comb(chart.rows, r) :: 2]  # the r-subsets' p_r
    sets = zip(itertools.combinations(range(chart.rows), r), set_layout(chart.rows, r))
    kept = list(itertools.compress(sets, tops))
    orders = [order for order, *_ in profile_layout(r, r)[2]]
    flags = [order(rows) for rows, _ in kept for order in orders]
    verdicts = [v for _, get in kept for v in set_verdicts(get(signs), r, r)]
    ranked = sorted(range(len(flags)), key=flags.__getitem__)
    place, f = sorted(range(len(flags)), key=ranked.__getitem__), len(orders)
    row_sets = tuple(
        (rows, get(store), place[s * f : s * f + f]) for s, (rows, get) in enumerate(kept)
    )
    indices, verdicts = [flags[n] for n in ranked], [verdicts[n] for n in ranked]
    return FlagTable(chart, row_sets, indices, verdicts, ranked)


def stable_flags(
    arr: Arrangement, poly: Polyhedron, table: FlagTable | None = None
) -> list[Flag]:
    """Complete ordered collections whose Jacobian is stable."""
    if table is None:
        table = flag_table(arr, poly)
    return [Flag(i) for i, v in zip(table.indices, table.verdicts) if v.stable]


class Violation(NamedTuple):
    """A stable ordered collection with a positive q-minor."""

    flag: Flag
    positive_q: tuple[tuple[tuple[int, int], int | Fraction], ...]


class AuditReport(NamedTuple):
    all_compatible: bool
    violations: tuple[Violation, ...]
    flags_checked: int
    truncated: bool = False


MAX_REPORTED_VIOLATIONS = 100


def compatibility_audit(
    arr: Arrangement, poly: Polyhedron, table: FlagTable | None = None
) -> AuditReport:
    """Check every complete ordered collection for stable-but-incompatible,
    from the table's verdicts; only a reported violation's entry is read."""
    if table is None:
        table = flag_table(arr, poly)
    violations: list[Violation] = []
    truncated = False
    for n, v in enumerate(table.verdicts):
        if v.stable and not v.compatible:
            if len(violations) < MAX_REPORTED_VIOLATIONS:
                e = table[n]
                positive = tuple((pos, val) for pos, val in e.profile.q if val > 0)
                violations.append(Violation(e.flag, positive))
            else:
                truncated = True
    return AuditReport(
        all_compatible=not violations and not truncated,
        violations=tuple(violations),
        flags_checked=len(table),
        truncated=truncated,
    )


def pole_location(arr: Arrangement, flag: Flag) -> list:
    """Terminal point z_gamma in v-coordinates: solve f_j(v) = i s_j for the
    flag's hyperplanes S.  With i s_j = c_j / L, Gaussian-integer pairs c_j
    over one denominator L, one fraction-free Gauss-Jordan of [F_S | c_S]
    gives the point q / (p L)."""
    if len(flag) != arr.dim:
        raise ValueError("terminal point requires a complete flag")
    hps = [arr.hyperplanes[i] for i in flag.indices]
    den = math.lcm(*[h.s._d for h in hps])
    # i (a + b i) / d = (-b + a i) / d
    pairs = [(-h.s._b * (den // h.s._d), h.s._a * (den // h.s._d)) for h in hps]
    q, p = _gauss_jordan([h.f for h in hps], pairs)
    return [_gaussian(a, b, p * den) for a, b in q]


def incidence(arr: Arrangement, point) -> frozenset[int]:
    """The hyperplanes through ``point``: H_j when f_j . p = i s_j.  For a
    point p = (x + y i) / e of GaussianRationals and s_j = (a + b i) / d
    that is a test on integers, d f_j . x = -b e and d f_j . y = a e; a
    float or mpmath coordinate is taken at its binary value."""
    point = [x if x.__class__ is GaussianRational else _gaussian_of(x) for x in point]
    e = math.lcm(*[x._d for x in point])
    re, im = [x._a * (e // x._d) for x in point], [x._b * (e // x._d) for x in point]
    through = []
    for j, h in enumerate(arr.hyperplanes):
        s, d = h.s, h.s._d
        if d * sum(map(mul, h.f, re)) == -s._b * e and d * sum(map(mul, h.f, im)) == s._a * e:
            through.append(j)
    return frozenset(through)


class FlagClass(NamedTuple):
    """Complete flags cutting out one flag, its point, and the hyperplanes through it."""

    point: list[GaussianRational]
    incidence: frozenset[int]
    flags: list[Flag]


def terminal_classes(arr: Arrangement, flags: Sequence[Flag]) -> list[FlagClass]:
    """Group complete flags into classes cutting out the same flag, in the
    order of their first flags, each class in ``Flag.indices`` order.

    Two complete flags cut out the same flag exactly when they end at the
    same point and, for every k, their first k rows span the same space:
    level k is that point plus the kernel of those rows.  A flag's key is
    the ``incidence`` of its point and its prefixes' ``row_echelon`` rows;
    where only its own r hyperplanes meet, it is its own class (independent
    rows never share every prefix span) and no span is computed.  A point
    is solved once per set of hyperplanes, and a set through a point already
    solved where more than r meet takes that point: its hyperplanes meet in
    one point, and that one lies on all of them.
    """
    points: dict[frozenset, tuple] = {}  # set of hyperplanes -> (point, incidence)
    # hyperplane -> (point, incidence) of each point on it where more than r
    # hyperplanes meet; where r meet, no other set ends there
    shared: dict[int, list] = {}
    classes: dict[tuple, FlagClass] = {}

    @functools.cache
    def span(prefix: frozenset) -> tuple:
        return row_echelon(RationalMatrix(tuple(arr.hyperplanes[i].f for i in prefix)))

    for flag in sorted(flags, key=lambda f: f.indices):
        whole = frozenset(flag.indices)
        if whole not in points:
            known = next((p for p in shared.get(flag.indices[0], ()) if whole <= p[1]), None)
            if known is None:
                point = pole_location(arr, flag)
                known = (point, incidence(arr, point))
                if len(known[1]) > arr.dim:
                    for j in known[1]:
                        shared.setdefault(j, []).append(known)
            points[whole] = known
        point, through = points[whole]
        if len(through) == arr.dim:
            key = (through, flag.indices)
        else:
            key = (through, *(span(frozenset(flag.indices[:k])) for k in range(1, arr.dim)))
        classes.setdefault(key, FlagClass(point, through, [])).flags.append(flag)
    return list(classes.values())


def flag_classes(arr: Arrangement, flags: Sequence[Flag]) -> list[list[Flag]]:
    """The flags of each ``terminal_classes`` class."""
    return [cls.flags for cls in terminal_classes(arr, flags)]
