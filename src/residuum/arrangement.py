"""Hyperplanes, polyhedra, and flags.

A polar hyperplane is presented canonically as H = {f(v) = is} with f a
primitive coprime-integer vector and Re s > 0 (such H never meets the real
locus).  A polyhedron is an ordered rational basis (v_1, ..., v_r) spanning a
cone; its coordinates z are the dual basis.  The Jacobian of an ordered
hyperplane collection with respect to a polyhedron has entries f_j(v_k), and
its exact minor profile decides solubility, stability, and compatibility.
``flag_table`` computes every complete flag's Jacobian and profile once per
(arrangement, polyhedron) pair; the audit, the stable flags, the engine and
the reports all read that one table.  Each flag's Jacobian is its rows of
the chart matrix C (all hyperplanes against the generators), so each of its
minors is a signed subset determinant of C, computed once per table.  The
table walks the flags as a prefix tree: a flag's level-k minors depend on
its first k hyperplanes only, so each level is computed once per prefix, and
a flag is kept when its p_r is nonzero, which is when its f-rows are
independent.

The z_k-star values are the sequential pole positions of the coordinate-wise
residue iteration: with p_0 = 1,

    z_k* = p_k^{-1} ( i (s_k p_{k-1} + sum_{j<k} (-1)^{k-j} s_j r_{jk})
                      - sum_{l>k} x_l q_{kl} ).

Since the q-minors and the x-samples are real, Im z_k* does not depend on x;
a flag contributes to the expansion exactly when every Im z_k* > 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from mpmath import mpc

from .exact_linalg import (
    GaussianRational,
    MinorProfile,
    RationalMatrix,
    determinant,
    fold_levels,
    minor_level,
    rank,
    row_combinations,
    solve_linear,
    subset_determinant,
)
from .symfun import (
    AffineForm,
    ExpRationalFunction,
    is_negligible,
    to_mpc,
)


class NotAlignable(ValueError):
    """The linear part cannot be scaled to a real form (Re and Im not parallel)."""


class MeetsRealLocus(ValueError):
    """The hyperplane intersects the real integration locus (Re s = 0)."""


class InsolubleFlag(Exception):
    """A leading principal minor of the linearized flag vanishes."""


def _exact_scalar(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational.of(x)
    if isinstance(x, complex):
        re, im = Fraction(x.real), Fraction(x.imag)
        return GaussianRational(re, im)
    raise TypeError(
        f"hyperplane linear parts must be exact rational data, got {x!r}"
    )


@dataclass(frozen=True)
class Hyperplane:
    """H = {v : f(v) = i s} with f primitive integers and Re s > 0."""

    f: tuple[int, ...]
    s: mpc

    @property
    def dim(self) -> int:
        return len(self.f)

    def defining_form(self) -> AffineForm:
        """g = f(v) - i s, the affine function cutting out H."""
        return AffineForm.make(self.f, -to_mpc(self.s) * mpc(0, 1))

    def f_row(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c) for c in self.f)

    def same_locus(self, other: "Hyperplane") -> bool:
        return self.f == other.f and is_negligible(
            to_mpc(self.s) - to_mpc(other.s), abs(to_mpc(self.s))
        )


def canonicalize_hyperplane(linear_coeffs: Sequence, constant) -> Hyperplane:
    """Rescale the affine function <a, v> + b to the canonical (f, s) data.

    The zero set {<a,v> + b = 0} is rewritten as {f(v) = is} with f a
    primitive coprime-integer vector and Re s > 0.  The linear part must be
    exact (ints, Fractions, exact complex rationals); the constant may be any
    complex scalar.
    """
    a = [_exact_scalar(x) for x in linear_coeffs]
    if all(x.is_zero for x in a):
        raise ValueError("linear part is zero; not a hyperplane")
    lead = next(x for x in a if not x.is_zero)
    lam = lead.conjugate()
    scaled = [lam * x for x in a]
    if any(not x.is_real for x in scaled):
        raise NotAlignable(
            "real and imaginary parts of the linear coefficients are not parallel"
        )
    u = [x.re for x in scaled]
    # positive rational scale to a primitive coprime-integer vector
    den_lcm = math.lcm(*(x.denominator for x in u))
    ints = [int(x * den_lcm) for x in u]
    g = math.gcd(*(abs(n) for n in ints))
    ints = [n // g for n in ints]
    mu = Fraction(den_lcm, g)
    # f(v) = i s with i s = -mu * lam * b, so s = i * mu * lam * b
    lam_total = GaussianRational(lam.re * mu, lam.im * mu)
    try:
        b = _exact_scalar(constant)
        s_exact = (b * lam_total).times_i()
        re_sign = 1 if s_exact.re > 0 else (-1 if s_exact.re < 0 else 0)
        s = to_mpc(s_exact)
    except TypeError:
        s = to_mpc(constant) * to_mpc(lam_total) * mpc(0, 1)
        if is_negligible(s.real, abs(s)):
            re_sign = 0
        else:
            re_sign = 1 if s.real > 0 else -1
    if re_sign == 0:
        raise MeetsRealLocus("hyperplane meets the real locus (Re s = 0)")
    if re_sign < 0:
        ints = [-n for n in ints]
        s = -s
    return Hyperplane(f=tuple(ints), s=s)


@dataclass(frozen=True)
class Polyhedron:
    """Cone data: ordered rational generators v_1..v_r (the dual basis to z)."""

    generators: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_generators(cls, vectors: Iterable[Iterable]) -> "Polyhedron":
        gens = tuple(tuple(Fraction(x) for x in v) for v in vectors)
        r = len(gens)
        if any(len(v) != r for v in gens):
            raise ValueError("need r generators of length r")
        if determinant(cls._basis_matrix_of(gens)) == 0:
            raise ValueError("generators are linearly dependent")
        return cls(gens)

    @staticmethod
    def _basis_matrix_of(gens) -> RationalMatrix:
        r = len(gens)
        return RationalMatrix.from_rows(
            [[gens[j][i] for j in range(r)] for i in range(r)]
        )

    @property
    def dim(self) -> int:
        return len(self.generators)

    def basis_matrix(self) -> RationalMatrix:
        """M with columns v_1..v_r, so v = M z."""
        return self._basis_matrix_of(self.generators)

    def det(self) -> Fraction:
        return determinant(self.basis_matrix())


@dataclass(frozen=True)
class Flag:
    """Ordered tuple of hyperplane indices; cuts H_1 > H_1^H_2 > ..."""

    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)

    def label(self) -> str:
        return "(" + ",".join(f"H{i + 1}" for i in self.indices) + ")"


@dataclass(frozen=True)
class Arrangement:
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
        """Merge coincident hyperplanes into multiplicities."""
        hps: list[Hyperplane] = []
        mults: list[int] = []
        supplied = list(multiplicities) if multiplicities is not None else None
        for pos, h in enumerate(hyperplanes):
            if len(h.f) != dim:
                raise ValueError("hyperplane dimension mismatch")
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
        """G(v) = numerator / prod (f_j(v) - i s_j)^{m_j} in v-coordinates."""
        denom = [
            (h.defining_form(), m)
            for h, m in zip(self.hyperplanes, self.multiplicities)
        ]
        return self.numerator.mul(
            ExpRationalFunction.from_parts(self.dim, denom=denom)
        )

    def integrand_in(self, poly: Polyhedron) -> ExpRationalFunction:
        """The function F with int_{R^r} G dv = int_{R^r} F dz: F = |det M| G(Mz)."""
        m = poly.basis_matrix()
        composed = self.integrand().compose_linear(
            [[row_entry for row_entry in row] for row in m.entries]
        )
        return composed.scale(abs(poly.det()))


def jacobian(
    arr: Arrangement, indices: Sequence[int], poly: Polyhedron
) -> RationalMatrix:
    """Rows f_j of the chosen hyperplanes evaluated on the cone generators."""
    if not indices:
        raise ValueError("empty hyperplane collection")
    f_rows = RationalMatrix.from_rows(
        [arr.hyperplanes[i].f_row() for i in indices]
    )
    return f_rows.matmul(poly.basis_matrix())


def enumerate_flags(arr: Arrangement, depth: int) -> list[Flag]:
    """All ordered depth-tuples of distinct hyperplanes with full-rank f-rows,
    in ``itertools.permutations`` order; each row set is ranked once."""
    if not (1 <= depth <= arr.dim):
        raise ValueError("depth out of range")
    f_rows = [h.f_row() for h in arr.hyperplanes]
    out = []
    for combo in itertools.combinations(range(len(f_rows)), depth):
        if rank(RationalMatrix.from_rows([f_rows[i] for i in combo])) == depth:
            out.extend(itertools.permutations(combo))
    return [Flag(combo) for combo in sorted(out)]


@dataclass(frozen=True)
class FlagEntry:
    """One complete flag with its chart Jacobian and minor profile."""

    flag: Flag
    jacobian: RationalMatrix
    profile: MinorProfile


def flag_table(arr: Arrangement, poly: Polyhedron) -> tuple[FlagEntry, ...]:
    """Every complete flag, in enumeration order, with its Jacobian and profile.

    The one place the pair's minor profiles are computed; build it once per
    call and hand it to whatever reads the verdicts.  Flags are walked as a
    prefix tree, depth first with the unused hyperplanes in ascending order
    (``itertools.permutations`` order).  A flag's level k minors depend on
    its first k rows only, so each level is computed once per prefix, and
    only for prefixes of flags that are kept; all levels share one dict of
    the chart matrix's subset determinants.  A flag is kept when p_r != 0:
    C = F M with M nonsingular, so p_r = +-det C[S] vanishes exactly when the
    f-rows F[S] are dependent.
    """
    chart = jacobian(arr, range(len(arr.hyperplanes)), poly)
    r = arr.dim
    cols = tuple(range(r))
    dets: dict = {}
    # the levels 1..r-1 of the last kept flag, ``last``
    path: list = []
    last: tuple[int, ...] = ()
    table = []
    for flag in itertools.permutations(range(len(arr.hyperplanes)), r):
        if not subset_determinant(chart, tuple(sorted(flag)), cols, dets):
            continue
        shared = 0
        while shared < len(path) and flag[shared] == last[shared]:
            shared += 1
        del path[shared:]
        path.extend(minor_level(chart, flag[:k], dets) for k in range(shared + 1, r))
        last = flag
        table.append(
            FlagEntry(
                Flag(flag),
                RationalMatrix(tuple(chart.entries[i] for i in flag)),
                fold_levels([*path, minor_level(chart, flag, dets)]),
            )
        )
    return tuple(table)


def stable_flags(
    arr: Arrangement, poly: Polyhedron, table: Sequence[FlagEntry] | None = None
) -> list[Flag]:
    """Complete ordered collections whose Jacobian is stable."""
    if table is None:
        table = flag_table(arr, poly)
    return [e.flag for e in table if e.profile.stable]


@dataclass(frozen=True)
class Violation:
    """A stable ordered collection with a positive q-minor."""

    flag: Flag
    positive_q: tuple[tuple[tuple[int, int], Fraction], ...]


@dataclass(frozen=True)
class AuditReport:
    all_compatible: bool
    violations: tuple[Violation, ...]
    flags_checked: int
    truncated: bool = False


MAX_REPORTED_VIOLATIONS = 100


def compatibility_audit(
    arr: Arrangement, poly: Polyhedron, table: Sequence[FlagEntry] | None = None
) -> AuditReport:
    """Check every complete ordered collection for stable-but-incompatible."""
    if table is None:
        table = flag_table(arr, poly)
    violations: list[Violation] = []
    truncated = False
    for e in table:
        prof = e.profile
        if prof.stable and not prof.compatible:
            if len(violations) < MAX_REPORTED_VIOLATIONS:
                positive = tuple(
                    (pos, val) for pos, val in prof.q if val > 0
                )
                violations.append(Violation(e.flag, positive))
            else:
                truncated = True
    return AuditReport(
        all_compatible=not violations and not truncated,
        violations=tuple(violations),
        flags_checked=len(table),
        truncated=truncated,
    )


def pole_location(arr: Arrangement, flag: Flag) -> list[mpc]:
    """Terminal point z_gamma in v-coordinates: solve f_j(v) = i s_j."""
    if len(flag) != arr.dim:
        raise ValueError("terminal point requires a complete flag")
    f_rows = RationalMatrix.from_rows(
        [arr.hyperplanes[i].f_row() for i in flag.indices]
    )
    rhs = [to_mpc(arr.hyperplanes[i].s) * mpc(0, 1) for i in flag.indices]
    return solve_linear(f_rows, rhs)


def same_flag(arr: Arrangement, a: Flag, b: Flag) -> bool:
    """Whether two ordered collections cut out the same chain of subspaces.

    Level by level: the first k linear forms of ``a`` must be independent and
    span those of ``b`` exactly, and the affine offsets must be consistent
    (each equation of ``b``'s prefix is implied by ``a``'s).
    """
    if len(a) != len(b):
        return False

    def f_rows(indices) -> RationalMatrix:
        return RationalMatrix.from_rows(
            [arr.hyperplanes[i].f_row() for i in indices]
        )

    for k in range(1, len(a) + 1):
        combos = row_combinations(f_rows(a.indices[:k]), f_rows(b.indices[:k]))
        if combos is None:
            return False
        for idx, coeffs in zip(b.indices[:k], combos):
            implied = sum(
                (
                    to_mpc(c) * to_mpc(arr.hyperplanes[j].s)
                    for c, j in zip(coeffs, a.indices[:k])
                ),
                start=to_mpc(0),
            )
            target = to_mpc(arr.hyperplanes[idx].s)
            if not is_negligible(implied - target, abs(target)):
                return False
    return True


def flag_classes(arr: Arrangement, flags: Sequence[Flag]) -> list[list[Flag]]:
    """Group ordered collections into classes cutting out the same flag."""
    classes: list[list[Flag]] = []
    for g in sorted(flags, key=lambda f: f.indices):
        for cls in classes:
            if same_flag(arr, cls[0], g):
                cls.append(g)
                break
        else:
            classes.append([g])
    return classes
