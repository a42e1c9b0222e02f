"""Iterated residue evaluation and Grothendieck regrouping.

The integral of a rational-exponential form over the real locus is expanded,
coordinate by coordinate in a polyhedron's chart, into one-variable residues.
Each complete flag of polar hyperplanes either contributes its iterated
residue or is truncated to zero when the linearized flag leaves the open
Bruhat cell (some leading principal minor vanishes).

Sign convention: the chart integrand is the measure pullback, carrying
|det M| for the generator matrix M.  With this normalization the expansion
reproduces the real integral directly:

    integral over R^r  =  (2 pi i)^r  sum over contributing flags.

The classical (chart-free) residue of the form differs from the chart value
by sign(det M); torus-cycle quadrature in the oracle recovers the classical
value, so the two paths agree exactly on positively oriented charts.

Per-flag facts come from one place: verdicts and a grouping's collections
from ``arrangement.flag_table``; flag classes and their points
from ``arrangement.terminal_classes``; chart forms, residue steps and the
closed forms (``closed_form``) from ``ChartResidues``,
whose forms and steps the CLI's arc diagnostics read too.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

from mpmath import mpc, pi

from .arrangement import (
    Arrangement,
    AuditReport,
    Flag,
    FlagClass,
    FlagTable,
    InsolubleFlag,
    Polyhedron,
    _products,
    compatibility_audit,
    enumerate_flags,
    flag_table,
    incidence,
    jacobian,
    stable_flags,
    terminal_classes,
)
from .exact_linalg import (
    RationalMatrix,
    _bareiss,
    _gauss_jordan,
    _gaussian,
    _integer_rows,
    determinant,
    minor_profile,
)
from .symfun import (
    DEFAULT_PRECISION,
    ExpRationalFunction,
    Polynomial,
    Term,
    _constant_value,
    _form,
    _parts,
    constant_sum,
    rounded_sum,
    working_precision,
)


class EmptyStableSet(Exception):
    """No ordered hyperplane collection is stable for the polyhedron."""


class Convergence(Enum):
    BOUNDED_NUMERATOR = "BoundedNumeratorRule"
    DECAY = "DecayRule"
    UNKNOWN = "Unknown"


class EngineOptions(NamedTuple):
    precision: int = DEFAULT_PRECISION


class Certificate(NamedTuple):
    all_compatible: bool
    convergence: Convergence
    warnings: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.all_compatible and self.convergence is not Convergence.UNKNOWN


class ResidueResult(NamedTuple):
    value: mpc
    flag_contributions: dict
    certificate: Certificate
    flag_table: FlagTable


class DivisorGrouping(NamedTuple):
    """Ordered partition-like regrouping (D_1, ..., D_r) of polar divisors."""

    groups: tuple[frozenset, ...]

    @classmethod
    def of(cls, *index_groups) -> "DivisorGrouping":
        groups = tuple(frozenset(g) for g in index_groups)
        if any(not g for g in groups):
            raise ValueError("every divisor group must be nonempty")
        return cls(groups)

    def label(self, arr: Arrangement) -> str:
        parts = []
        for g in self.groups:
            parts.append("".join(f"H{i + 1}" for i in sorted(g)))
        return "(" + ",".join(parts) + ")"


class ChartResidues:
    """Iterated residues of one arrangement in one chart, shared by flag prefix.

    ``pullback`` is the integrand and the hyperplanes' defining forms in the
    chart, built from the exact chart rows F M (``Arrangement.pullback``), a
    flag table's ``chart`` when the caller holds one.
    The function left after taking residues along the first hyperplanes of
    a flag depends only on that prefix, and is computed once, on first use,
    so flags that share a prefix share the work.  A step restricts its
    hyperplane's form through the poles of the steps before it
    (``AffineForm.restrict``), solves it for the pole, and takes the residue
    in the first free variable with ``residue_1d``, which restricts,
    classifies and normalizes each distinct denominator form once (its
    per-step memo).  An instance serves one engine call; nothing outlives it.
    """

    def __init__(self, arr: Arrangement, poly: Polyhedron, table: FlagTable | None = None):
        self.arr = arr
        self.poly = poly
        self._table = table
        self._chart = None if table is None else table.chart
        # prefix -> (residue function, the poles of its steps)
        self._steps: dict[tuple[int, ...], tuple] = {}
        # |det M| where ``closed_form`` takes a residue on a flag's line (a
        # flag table, and no numerator term with a denominator), and whether
        # it takes a point on every hyperplane as 0
        num = arr.numerator
        plain = not any(t.denom for t in num.terms)
        self._weight = abs(poly.det()) if table is not None and plain else None
        central = plain and num.max_poly_degree() < arr.total_denominator_degree - arr.dim
        self._central = central and not any(any(ab) for t in num.terms for ab in t.expo._v[:-1])

    @functools.cached_property
    def pullback(self) -> tuple:
        """(integrand, {hyperplane index: defining form}) in this chart."""
        arr = self.arr
        chart = self._chart or jacobian(arr, range(len(arr.hyperplanes)), self.poly)
        return arr._pullback(self.poly, chart)

    def step(self, prefix: tuple[int, ...]):
        """(function, poles) left after residues along ``prefix``: pole k is
        z_1 of step k, in the variables free after step k - 1."""
        if not prefix:
            return self.pullback[0], ()
        step = self._steps.get(prefix)
        if step is None:
            func, poles = self.step(prefix[:-1])
            form = self.pullback[1][prefix[-1]]
            for pole in poles:
                form = form.restrict(0, pole)
            pole = form.solve_for(0)
            step = self._steps[prefix] = (func.residue_1d(0, pole), (*poles, pole))
        return step

    def function(self, flag: Flag) -> ExpRationalFunction:
        """Iterated residue along a flag soluble in this chart, as a function
        of no variables; ``evaluate(())`` gives its value."""
        return self.step(flag.indices)[0]

    def closed_form(self, cls: FlagClass) -> ExpRationalFunction | None:
        """The iterated residue of ``cls`` in closed form, else None.  Where
        its point p lies on every hyperplane, it is 0 when the
        numerator P has no exponent slope and degree < D = sum_j m_j - r: in
        v = p + w the denominator prod (f_j . w)^m_j is homogeneous, each step
        raises a homogeneous degree by 1 in one variable fewer, so P's part of
        degree e ends as a constant of degree e - D, 0 unless e = D (the
        homogeneity behind Brion and Vergne's vanishing of the Jeffrey-Kirwan
        residue off degree -r).  Else, with a flag table, no numerator term
        with a denominator and simple poles sigma_1 .. sigma_(r-1) in the
        first flag sigma, those steps only restrict to the line
        L = {v = p + s ray / q} (f_sigma_i . ray = 0 for i < r, q = f_sigma_r . ray)
        and divide by p_(r-1).  So where no other hyperplane through p holds
        L, the residue is |det M| / p_r times the sum over numerator terms of
        Res_(s=0) c_t P_t(v) e^(lambda_t(v)) / prod_(k not in sigma_(<r)) (f_k . v - i s_k)^m_k,
        with p_r from the flag table: at a pole of order n = 1 (only r simple
        hyperplanes S meet at p) it is c_t P_t(p) e^(lambda_t(p)) over
        prod_(k not in S) (f_k . p - i s_k)^m_k, one term per numerator term
        in its order, as the steps keep them, and above 1 one ``residue_1d``
        in s.  Both are built on Gaussian-integer pairs over p's common
        denominator e, ray (F_sigma's last-row cofactors, up to sign) from one
        fraction-free Gauss-Jordan of [F_sigma | e_r]."""
        arr, through, weight = self.arr, cls.incidence, self._weight
        if self._central and len(through) == len(arr.hyperplanes):
            return ExpRationalFunction(0)
        flag, hps, mults = cls.flags[0].indices, arr.hyperplanes, arr.multiplicities
        if weight is None or any(mults[j] != 1 for j in flag[:-1]):
            return None
        top = self._table.top_minor(cls.flags[0])
        # (u + v i) / w = p_r / |det M| times, for n > 1, prod_(k in rest) (f_k . ray / q)^m_k,
        # and for n = 1 prod_(k not through p) (f_k . p - i s_k)^m_k
        u, v, w = top.numerator * weight.denominator, 0, top.denominator * weight.numerator
        rest = through.difference(flag[:-1])
        n, q, denom = sum(mults[j] for j in rest), 1, ()
        if n > 1:  # Gauss-Jordan leaves +-det F_sigma F_sigma^-1 e_r in the last column
            rows = [[*hps[j].f, int(j == flag[-1])] for j in flag]
            _bareiss(rows, arr.dim, reduce=True)
            ray = [row[-1] if rows[0][0] > 0 else -row[-1] for row in rows]
            slopes = {j: sum(map(operator.mul, h.f, ray)) for j, h in enumerate(hps)}  # f_k . ray
            if not all(slopes[j] for j in rest):
                return None  # L lies on another hyperplane
            q, denom = slopes[flag[-1]], [(_form([(1, 0), (0, 0)], 1), n)]  # s^n
            for j in rest:
                u, w = u * slopes[j] ** mults[j], w * q ** mults[j]
        e = math.lcm(*[x._d for x in cls.point])
        p = [(x._a * (e // x._d), x._b * (e // x._d)) for x in cls.point]
        for j, (h, m) in enumerate(zip(hps, mults)):
            if j not in through:  # f . p - i (a + b i) / d = (x + y i) / (d e)
                a, b, d = h.s._a, h.s._b, h.s._d
                x = d * sum([f * re for f, (re, _) in zip(h.f, p)]) + b * e
                y = d * sum([f * im for f, (_, im) in zip(h.f, p)]) - a * e
                if n > 1:  # the factor f . v - i s at v = p + s ray / q
                    denom.append((_form([(slopes[j] * d * e, 0), (x * q, y * q)], d * e * q), m))
                for _ in range(m if n == 1 else 0):
                    u, v, w = u * x - v * y, u * y + v * x, w * d * e
        one, terms, denom = Polynomial.constant(0 if n == 1 else 1, 1), [], tuple(denom)
        for t in arr.numerator.terms:
            moves = n > 1 and _constant_value(t.poly) is None  # P varies along L
            a, b, d = 0, 0, 1  # P(p) = (a + b i) / d (1 where P moves), then c P(p)
            for powers, c in [((), 1)] if moves else t.poly._coeffs.items():
                x, y, f = _parts(c)
                for (re, im), k in zip(p, powers):
                    for _ in range(k):
                        x, y, f = x * re - y * im, x * im + y * re, f * e
                a, b, d = a * f + x * d, b * f + y * d, d * f
            x, y, f = _parts(t.coeff)
            a, b, d = x * a - y * b, x * b + y * a, f * d
            coeff = _gaussian(w * (a * u + b * v), w * (b * u - a * v), d * (u * u + v * v))
            *lam, (x, y) = t.expo._v  # lambda(p) = (x + y i) / (den e), lambda . ray / (den q)
            x = sum([c * re - s * im for (c, s), (re, im) in zip(lam, p)]) + x * e
            y = sum([c * im + s * re for (c, s), (re, im) in zip(lam, p)]) + y * e
            slope = [tuple(e * sum(map(operator.mul, c, ray)) for c in zip(*lam))] if n > 1 else []
            expo = _form([*slope, (x * q, y * q)], t.expo._den * e * q, t.expo._gauss)
            poly = one
            if moves:  # P(p + s ray / q)
                line = [_form([(a * e, 0), (re * q, im * q)], e * q) for a, (re, im) in zip(ray, p)]
                poly = t.poly.compose(line)
            terms.append(Term(coeff, poly, expo, denom))
        func = ExpRationalFunction(0 if n == 1 else 1, terms)
        return func if n == 1 else func.residue_1d(0, _form([(0, 0), (0, 0)], 1))


def iterated_residue(arr: Arrangement, flag: Flag, poly: Polyhedron) -> mpc:
    profile = minor_profile(jacobian(arr, flag.indices, poly))
    if not profile.in_bruhat_cell:
        raise InsolubleFlag(
            f"flag {flag.label()} has a vanishing leading principal minor"
        )
    return rounded_sum([ChartResidues(arr, poly).function(flag)])


def _position(cone: tuple, point):
    """(inside, boundary) for a terminal point: its chart coordinates are
    z = M^-1 p = N p / d for ``cone`` = (N, d), the ``_gauss_jordan`` of
    the cone's basis M, and the polyhedron is the closed region Im z_k >= 0.
    Im z_k has the sign of the integer N_k . (L Im p), L the point's common
    denominator."""
    rows, _ = cone
    den = math.lcm(*[x._d for x in point])
    ims = [sum([a * x._b * (den // x._d) for a, x in zip(row, point)]) for row in rows]
    return min(ims) >= 0, not all(ims)


def _bounded_on_cone(func: ExpRationalFunction, poly: Polyhedron) -> bool:
    """Every exponential factor is non-increasing along i * (each generator):
    Re (i lambda . g) = -Im lambda . g, whose sign is that of the integer
    -Im (L lambda) . (e g) for the exponent's denominator L and the
    generator's e."""
    gens, _ = _integer_rows(poly.generators)
    for term in func.terms:
        if term.denom:
            return False
        slopes = [b for _, b in term.expo._v[:-1]]
        if any(sum(map(operator.mul, slopes, gen)) < 0 for gen in gens):
            return False
    return True


def convergence_heuristic(
    arr: Arrangement, poly: Polyhedron, audit: AuditReport | None = None
) -> Convergence:
    """Syntactic sufficient conditions for the expansion to converge.

    ``audit``, the pair's compatibility audit, is run here when not given.
    """
    if not (audit or compatibility_audit(arr, poly)).all_compatible:
        return Convergence.UNKNOWN
    numerator = arr.numerator
    total_degree = arr.total_denominator_degree
    if not _bounded_on_cone(numerator, poly):
        return Convergence.UNKNOWN
    degree = numerator.max_poly_degree()
    if total_degree > arr.dim and degree == 0:
        return Convergence.BOUNDED_NUMERATOR
    # simplicial cones always admit a positive linear form (sum of the dual
    # coordinates), so the decay clause reduces to absolute convergence
    if degree < total_degree - arr.dim:
        return Convergence.DECAY
    return Convergence.UNKNOWN


def evaluate_integral(
    arr: Arrangement, poly: Polyhedron, options: EngineOptions | None = None
) -> ResidueResult:
    """(2 pi i)^r times the sum of residues over contributing flag classes.

    A stable flag class contributes when its terminal point lies in the
    closed polyhedron; a stable class with terminal point outside can only
    occur when the compatibility audit fails, and is excluded with a warning
    (on such charts the expansion picks up poles the polyhedron does not
    contain, and the formula carries no guarantee).
    """
    opts = options or EngineOptions()
    with working_precision(opts.precision):
        table = flag_table(arr, poly)
        audit = compatibility_audit(arr, poly, table)
        verdict = convergence_heuristic(arr, poly, audit)
        warnings: list[str] = []
        cone = _gauss_jordan(poly.basis_matrix().entries)
        inside_classes = []
        for cls in terminal_classes(arr, stable_flags(arr, poly, table)):
            rep = cls.flags[0]
            inside, boundary = _position(cone, cls.point)
            if boundary:
                warnings.append(
                    f"terminal point of {rep.label()} lies on the polyhedron "
                    "boundary; contribution kept but degenerate"
                )
            if not inside:
                warnings.append(
                    f"stable flag {rep.label()} excluded: terminal point "
                    "outside the polyhedron"
                )
                continue
            inside_classes.append(cls)
        # stable flags lie in the open Bruhat cell (every p_k > 0)
        funcs, _ = _class_functions(arr, inside_classes, ChartResidues(arr, poly, table))
        contributions = {cls.flags[0]: rounded_sum([f]) for cls, f in zip(inside_classes, funcs)}
        total = rounded_sum(funcs)
        scale = (2 * pi * mpc(0, 1)) ** arr.dim
        certificate = Certificate(
            all_compatible=audit.all_compatible,
            convergence=verdict,
            warnings=tuple(warnings),
        )
        return ResidueResult(
            value=scale * total,
            flag_contributions=contributions,
            certificate=certificate,
            flag_table=table,
        )


def _collections(arr: Arrangement, flags, grouping: DivisorGrouping) -> list[Flag]:
    """The complete flags, of ``flags``, whose k-th hyperplane lies in D_k."""
    if len(grouping.groups) != arr.dim:
        raise ValueError("grouping must have one divisor per dimension")
    groups = grouping.groups
    return [f for f in flags if all(i in g for i, g in zip(f.indices, groups))]


def _points(classes: list[FlagClass]) -> list[tuple[list, list[Flag], list[FlagClass]]]:
    """(point, arriving flags, classes) per terminal point: the classes
    grouped by the hyperplanes through their points."""
    points: dict[frozenset, list[FlagClass]] = {}
    for cls in classes:
        points.setdefault(cls.incidence, []).append(cls)
    return [
        (at[0].point, sorted((f for c in at for f in c.flags), key=lambda f: f.indices), at)
        for at in points.values()
    ]


def points_of_grouping(arr: Arrangement, grouping: DivisorGrouping):
    """Terminal points of the grouping with the flags arriving at each, as a
    list of (point, flag list)."""
    collections = _collections(arr, enumerate_flags(arr, arr.dim), grouping)
    classes = terminal_classes(arr, collections)
    return [(point, flags) for point, flags, _ in _points(classes)]


def _verdicts(table: FlagTable) -> dict:
    """{flag: its ``Verdicts``} of the table's flags."""
    return dict(zip(map(Flag, table.indices), table.verdicts))


def _soluble_chart(
    arr: Arrangement, reps: Sequence[Flag], poly: Polyhedron, verdicts: dict
) -> Polyhedron:
    """A chart N in which every flag of ``reps`` is soluble, built column
    by column; ``poly`` itself when the table's ``verdicts`` already say so.

    The leading minor p_k of F N depends on the first k rows of a flag's
    rows F and the first k columns of N.  Column k is the polyhedron's k-th
    generator when that keeps every p_k nonzero, and otherwise the first
    moment-curve point (1, t, ..., t^(r-1)), t = 0, 1, 2, ..., that does.
    Once p_(k-1) != 0, p_k is a nonzero linear function of column k, so on
    the moment curve a nonzero polynomial in t of degree at most r - 1:
    each column takes at most (r - 1) #reps + 1 tries.  Negating the last
    column, when needed, gives N the polyhedron's orientation and changes
    only the sign of p_r.
    """
    if all(verdicts[rep].in_bruhat_cell for rep in reps):
        return poly
    r = arr.dim
    flag_rows = [[arr.hyperplanes[i].f for i in rep.indices] for rep in reps]

    def leading_minor(f_rows, cols) -> int | Fraction:
        return determinant(RationalMatrix(_products(f_rows, cols)))

    cols: list[tuple] = []
    for k in range(r):
        moment_curve = (tuple(t**e for e in range(r)) for t in itertools.count())
        cols.append(
            next(
                col
                for col in itertools.chain([poly.generators[k]], moment_curve)
                if all(leading_minor(f[: k + 1], (*cols, col)) for f in flag_rows)
            )
        )
    chart = Polyhedron.from_generators(cols)
    if (chart.det() > 0) != (poly.det() > 0):
        chart = Polyhedron.from_generators([*cols[:-1], tuple(-x for x in cols[-1])])
    return chart


def _class_functions(
    arr: Arrangement, classes: list[FlagClass], residues: ChartResidues,
    verdicts: dict | None = None,
) -> tuple[list[ExpRationalFunction], bool]:
    """The iterated residues of ``classes``, each its first flag's, as
    functions of no variables (``rounded_sum`` sums them), and whether every
    one was taken in the polyhedron's chart.

    A class takes its closed form where it has one
    (``ChartResidues.closed_form``).  The others take their first flags'
    steps in the polyhedron's chart, with the shared ``residues``, unless the
    flag table's ``verdicts`` find one of those flags insoluble there; then
    they take them in the chart ``_soluble_chart`` builds for them.  That
    chart has the polyhedron's orientation, so its values need no sign
    change.  Without ``verdicts`` every flag is soluble in the polyhedron's
    chart, as a stable one is.
    """
    funcs = [residues.closed_form(cls) for cls in classes]
    reps = [cls.flags[0] for cls, func in zip(classes, funcs) if func is None]
    chart = residues.poly
    if verdicts is not None:
        chart = _soluble_chart(arr, reps, residues.poly, verdicts)
        if chart is not residues.poly:
            residues = ChartResidues(arr, chart)
    steps = map(residues.function, reps)
    return [next(steps) if func is None else func for func in funcs], chart is residues.poly


def grothendieck_residue(
    arr: Arrangement,
    grouping: DivisorGrouping,
    point,
    poly: Polyhedron,
    table: FlagTable | None = None,
) -> mpc:
    """Residue of the form at one terminal point of a divisor grouping.

    Sums the iterated residues of the grouping's flag classes whose points
    have the point's ``incidence``, in the polyhedron's chart when the pair's
    flag table finds every class soluble there and otherwise in one chart
    built for them with the same orientation (see ``_class_functions``);
    every point has a value.  A caller asking for several points or
    groupings builds the table once and passes it.
    """
    if table is None:
        table = flag_table(arr, poly)
    verdicts = _verdicts(table)
    through = incidence(arr, point)
    classes = terminal_classes(arr, _collections(arr, verdicts, grouping))
    at_point = [cls for cls in classes if cls.incidence == through]
    if not at_point:
        raise ValueError("no flag of the grouping terminates at the point")
    residues = ChartResidues(arr, poly, table)
    return rounded_sum(_class_functions(arr, at_point, residues, verdicts)[0])


def canonical_grouping_points(arr: Arrangement, poly: Polyhedron):
    """The canonical grouping, and (point, arriving flags, residue) per point.

    Unions the k-th members of all stable collections into divisor D_k.  The
    grouping's collections are the flag table's flags with H_k in D_k, classed
    once; every stable flag is one, so the stable classes are the stable
    members of those classes.  Both take ``eval``'s per-class values
    (``_class_functions``), and a stable class whose first flag is its
    grouping class's, at a point taken in the polyhedron's chart, takes that
    class's value.  The defining identity (sum of Grothendieck residues over
    the grouping's terminal points = sum of stable-class residues) is
    decided exactly (``constant_sum``).
    """
    table = flag_table(arr, poly)
    stable = stable_flags(arr, poly, table)
    if not stable:
        raise EmptyStableSet("no stable ordered collection for this polyhedron")
    grouping = DivisorGrouping(
        tuple(frozenset(flag.indices[k] for flag in stable) for k in range(arr.dim))
    )

    verdicts = _verdicts(table)
    classes = terminal_classes(arr, _collections(arr, verdicts, grouping))
    residues = ChartResidues(arr, poly, table)
    points, point_funcs, charted = [], [], {}  # charted: id of a class -> its function
    for point, flags, at in _points(classes):
        funcs, kept = _class_functions(arr, at, residues, verdicts)
        points.append((point, flags, rounded_sum(funcs)))
        point_funcs += funcs
        if kept:
            charted.update(zip(map(id, at), funcs))
    # a class's stable members, in their order, are a stable class
    members = [(s, cls) for cls in classes if (s := [f for f in cls.flags if verdicts[f].stable])]
    flag_funcs = [
        charted[id(cls)] if s[0] == cls.flags[0] and id(cls) in charted
        else _class_functions(arr, [cls._replace(flags=s)], residues)[0][0]
        for s, cls in sorted(members)
    ]
    if constant_sum(point_funcs + [f.scale(-1) for f in flag_funcs]).terms:
        flag_sum, point_sum = rounded_sum(flag_funcs), rounded_sum(point_funcs)
        raise ArithmeticError(
            "grouping identity failed: grouped residues "
            f"{point_sum} != stable flag sum {flag_sum}"
        )
    return grouping, points


def canonical_grouping(arr: Arrangement, poly: Polyhedron) -> DivisorGrouping:
    """The grouping of ``canonical_grouping_points``, without its points."""
    return canonical_grouping_points(arr, poly)[0]
