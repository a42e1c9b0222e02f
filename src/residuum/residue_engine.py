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

Per-flag facts come from one place: Jacobians, profiles and a grouping's
collections from ``arrangement.flag_table``; chart forms and residue steps
from ``ChartResidues``, which the CLI's arc diagnostics read too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from mpmath import mpc, mpf, pi

from .arrangement import (
    Arrangement,
    AuditReport,
    Flag,
    FlagEntry,
    InsolubleFlag,
    Polyhedron,
    compatibility_audit,
    enumerate_flags,
    flag_classes,
    flag_table,
    jacobian,
    pole_location,
    stable_flags,
)
from .exact_linalg import RationalMatrix, determinant, minor_profile, solve_linear
from .symfun import (
    DEFAULT_PRECISION,
    ExpRationalFunction,
    is_negligible,
    to_mpc,
    working_precision,
)


class EmptyStableSet(Exception):
    """No ordered hyperplane collection is stable for the polyhedron."""


class Convergence(Enum):
    BOUNDED_NUMERATOR = "BoundedNumeratorRule"
    DECAY = "DecayRule"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class EngineOptions:
    precision: int = DEFAULT_PRECISION


@dataclass(frozen=True)
class Certificate:
    all_compatible: bool
    convergence: Convergence
    warnings: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.all_compatible and self.convergence is not Convergence.UNKNOWN


@dataclass(frozen=True)
class ResidueResult:
    value: mpc
    flag_contributions: dict
    certificate: Certificate
    flag_table: tuple


@dataclass(frozen=True)
class DivisorGrouping:
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

    The function left after taking residues along the first hyperplanes of a
    flag, and every other hyperplane's form in the variables still free,
    depend only on that prefix; for the empty prefix both come from the exact
    chart rows F M (``Arrangement.pullback``).  Each is computed once, on
    first use, so flags that share a prefix share the work.  A step takes the
    residue in the first free variable with ``residue_1d``, which restricts,
    classifies and normalizes each distinct denominator form once (its
    per-step memo), and writes every other hyperplane's form at the pole
    with ``AffineForm.restrict``.  An instance serves one engine call;
    nothing outlives it.
    """

    def __init__(self, arr: Arrangement, poly: Polyhedron):
        self.arr = arr
        self.poly = poly
        # prefix -> (residue function, {hyperplane index: defining form})
        self._steps: dict[tuple[int, ...], tuple] = {}

    def step(self, prefix: tuple[int, ...]):
        """(function, {hyperplane index: defining form}) left after residues
        along ``prefix``; the empty prefix gives ``Arrangement.pullback``."""
        step = self._steps.get(prefix)
        if step is None:
            if not prefix:
                step = self.arr.pullback(self.poly)
            else:
                func, forms = self.step(prefix[:-1])
                pole = forms[prefix[-1]].solve_for(0)
                step = (
                    func.residue_1d(0, pole),
                    {
                        idx: form.restrict(0, pole)
                        for idx, form in forms.items()
                        if idx != prefix[-1]
                    },
                )
            self._steps[prefix] = step
        return step

    def value(self, flag: Flag) -> mpc:
        """Iterated residue along a flag soluble in this chart."""
        return self.step(flag.indices)[0].evaluate(())


def iterated_residue(arr: Arrangement, flag: Flag, poly: Polyhedron) -> mpc:
    profile = minor_profile(jacobian(arr, flag.indices, poly))
    if not profile.in_bruhat_cell:
        raise InsolubleFlag(
            f"flag {flag.label()} has a vanishing leading principal minor"
        )
    return ChartResidues(arr, poly).value(flag)


def truncated_iterated_residue(
    arr: Arrangement, flag: Flag, poly: Polyhedron
) -> mpc:
    """Iterated residue along the flag, or 0 outside the open Bruhat cell."""
    try:
        return iterated_residue(arr, flag, poly)
    except InsolubleFlag:
        return mpc(0)


def terminal_point_position(arr: Arrangement, entry: FlagEntry):
    """(inside, boundary) for a flag table entry's terminal point.

    The point's chart coordinates solve J z = i s, J the entry's Jacobian;
    the polyhedron is the closed region Im z_k >= 0.
    """
    rhs = [to_mpc(arr.hyperplanes[i].s) * mpc(0, 1) for i in entry.flag.indices]
    z = solve_linear(entry.jacobian, rhs)
    scale = max([mpf(1)] + [abs(c) for c in z])
    on_face = [is_negligible(c.imag, scale) for c in z]
    inside = all(edge or c.imag > 0 for c, edge in zip(z, on_face))
    return inside, any(on_face)


def _bounded_on_cone(func: ExpRationalFunction, poly: Polyhedron) -> bool:
    """Every exponential factor is non-increasing along i * (each generator)."""
    gens = poly.generators
    for term in func.terms:
        if term.denom:
            return False
        for gen in gens:
            growth = sum(
                (to_mpc(c) * mpc(0, 1) * to_mpc(g) for c, g in zip(term.expo.coeffs, gen)),
                mpc(0),
            )
            if growth.real > 0 and not is_negligible(growth.real):
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
        classes = flag_classes(arr, stable_flags(arr, poly, table))
        entries = {e.flag: e for e in table}
        residues = ChartResidues(arr, poly)
        contributions: dict[Flag, mpc] = {}
        total = mpc(0)
        for cls in classes:
            rep = cls[0]
            inside, boundary = terminal_point_position(arr, entries[rep])
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
            # stable flags lie in the open Bruhat cell (every p_k > 0)
            value = residues.value(rep)
            contributions[rep] = value
            total += value
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


def _clusters(arr: Arrangement, collections) -> list[tuple[list, list[Flag]]]:
    """Each collection's terminal point, solved once; points that agree
    within working precision are merged."""
    clusters: list[tuple[list, list[Flag]]] = []
    for flag in collections:
        point = pole_location(arr, flag)
        scale = max([mpf(1)] + [abs(c) for c in point])
        for existing, members in clusters:
            if all(is_negligible(a - b, scale) for a, b in zip(existing, point)):
                members.append(flag)
                break
        else:
            clusters.append((point, [flag]))
    return clusters


def points_of_grouping(arr: Arrangement, grouping: DivisorGrouping):
    """Terminal points of the grouping with the flags arriving at each.

    Returns a list of (point, flag list); points are merged when they agree
    within working precision.
    """
    flags = enumerate_flags(arr, arr.dim)
    return _clusters(arr, _collections(arr, flags, grouping))


def _soluble_chart(
    arr: Arrangement, reps: Sequence[Flag], poly: Polyhedron, profiles: dict
) -> Polyhedron:
    """A chart N in which every flag of ``reps`` is soluble, built column
    by column; ``poly`` itself when the table's ``profiles`` already say so.

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
    if all(profiles[rep].in_bruhat_cell for rep in reps):
        return poly
    r = arr.dim
    flag_rows = [[arr.hyperplanes[i].f_row() for i in rep.indices] for rep in reps]

    def leading_minor(f_rows, cols) -> Fraction:
        return determinant(
            RationalMatrix.from_rows(f_rows).matmul(RationalMatrix.from_rows(zip(*cols)))
        )

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


def _point_residue(
    arr: Arrangement, flags: list[Flag], profiles: dict, residues: ChartResidues
) -> mpc:
    """Residue at one terminal point: the iterated residues of the classes
    of ``flags``, the grouping's flags arriving there.

    They are taken in the polyhedron's chart, with the shared ``residues``,
    when the flag table's ``profiles`` find every class soluble there, and
    otherwise in the chart ``_soluble_chart`` builds for them.  That chart
    has the polyhedron's orientation, so its values need no sign change.
    """
    reps = [cls[0] for cls in flag_classes(arr, flags)]
    chart = _soluble_chart(arr, reps, residues.poly, profiles)
    if chart is not residues.poly:
        residues = ChartResidues(arr, chart)
    return sum((residues.value(rep) for rep in reps), mpc(0))


def grothendieck_residue(
    arr: Arrangement,
    grouping: DivisorGrouping,
    point,
    poly: Polyhedron,
    table: Sequence[FlagEntry] | None = None,
) -> mpc:
    """Residue of the form at one terminal point of a divisor grouping.

    Sums the iterated residues of the grouping's flags arriving at the
    point, one per flag class, in the polyhedron's chart when the pair's
    flag table finds every class soluble there and otherwise in one chart
    built for them with the same orientation (see ``_point_residue``);
    every point has a value.  A caller asking for several points or
    groupings builds the table once and passes it.
    """
    if table is None:
        table = flag_table(arr, poly)
    profiles = {e.flag: e.profile for e in table}
    point = [to_mpc(c) for c in point]
    scale = max([mpf(1)] + [abs(c) for c in point])
    at_point = []
    for flag in _collections(arr, profiles, grouping):
        terminal = pole_location(arr, flag)
        if all(is_negligible(a - b, scale) for a, b in zip(terminal, point)):
            at_point.append(flag)
    if not at_point:
        raise ValueError("no flag of the grouping terminates at the point")
    return _point_residue(arr, at_point, profiles, ChartResidues(arr, poly))


def canonical_grouping_points(arr: Arrangement, poly: Polyhedron):
    """The canonical grouping, and (point, arriving flags, residue) per point.

    Unions the k-th members of all stable collections into divisor D_k.  The
    grouping's collections are the flag table's flags with H_k in D_k; each
    terminal point is solved once.  The defining identity (sum of
    Grothendieck residues over the grouping's terminal points = sum of
    stable-flag residues) is checked numerically.
    """
    table = flag_table(arr, poly)
    stable = stable_flags(arr, poly, table)
    if not stable:
        raise EmptyStableSet("no stable ordered collection for this polyhedron")
    grouping = DivisorGrouping(
        tuple(frozenset(flag.indices[k] for flag in stable) for k in range(arr.dim))
    )

    profiles = {e.flag: e.profile for e in table}
    residues = ChartResidues(arr, poly)
    flag_sum = sum(
        (residues.value(cls[0]) for cls in flag_classes(arr, stable)),
        mpc(0),
    )
    points = [
        (point, flags, _point_residue(arr, flags, profiles, residues))
        for point, flags in _clusters(arr, _collections(arr, profiles, grouping))
    ]
    point_sum = sum((res for _, _, res in points), mpc(0))
    mismatch = abs(point_sum - flag_sum)
    scale = max(mpf(1), abs(point_sum), abs(flag_sum))
    if not is_negligible(mismatch, scale):
        raise ArithmeticError(
            "grouping identity failed: grouped residues "
            f"{point_sum} != stable flag sum {flag_sum}"
        )
    return grouping, points


def canonical_grouping(arr: Arrangement, poly: Polyhedron) -> DivisorGrouping:
    """The grouping of ``canonical_grouping_points``, without its points."""
    return canonical_grouping_points(arr, poly)[0]
