"""Reference implementations the suite checks the engine against.

* ``same_flag`` and ``pairwise_flag_classes``: flag identity decided pair by
  pair.  For each k, the first k rows of one collection must be independent
  and span those of the other (``row_combinations``), and the offsets those
  combinations imply must match the other's exactly.
  ``arrangement.flag_classes`` keys each flag once instead; the suite checks
  the two agree.
* ``torus_residue``: the residue at a terminal point as a float64 average
  over the torus |g_j| = eps_j around it, independent of flags and charts.
* ``per_factor_residue``: a residue step that expands every kept factor's
  Taylor series on its own and emits one term per choice of the factors'
  exponents; ``ExpRationalFunction.residue_1d`` folds the factors
  proportional at the pole into one series per class first, and the suite
  checks the two agree exactly, with the same terms after merging.
* ``power_series``: a class series of ``_PoleMemo.class_series`` by the
  power-sum recurrence in the GaussianRationals' own arithmetic;
  ``symfun._gaussian_series`` runs it on Gaussian integer pairs over one
  denominator instead, and the suite checks the two agree entry for entry.
* ``substitute_affine``: an exp-rational function with one variable set to
  an affine form in the others, by ``ExpRationalFunction.compose`` with
  ``unit_form``s.
* ``defining_form``: the affine function g = f(v) - i s cutting out a
  hyperplane.
* ``stability_rows`` and ``stability_lines``: the stability table as one
  dict per flag, for ``json.dumps``, and as text lines; ``Report.to_json``
  and ``Report.to_text`` write it straight from the flag table instead.
* ``GaussianRational``: an exact complex rational as a frozen dataclass of
  two Fractions; ``exact_linalg.GaussianRational`` holds three ints
  instead, and the suite checks the two agree operation by operation.
* ``FractionForm``: an exact affine form as ``symfun.AffineForm`` held one
  before its integer representation, Fraction or GaussianRational entries,
  with that arithmetic for ``restrict``, ``solve_for``, ``normalized``,
  ``compose`` and the sort order of denominator units; the suite checks
  the integer forms against it.
* ``canonicalize_hyperplane``: the canonical (f, s) of a hyperplane in
  ``GaussianRational`` and ``Fraction`` arithmetic, a float or mpmath
  constant taken at its binary value through ``Fraction`` (``binary_value``);
  ``arrangement``'s clears the denominators once and works on Gaussian
  integers instead, and reads the binary value off the mantissas
  (``symfun.to_exact``), and the suite checks the two agree, errors included.
* ``lowered_arrangement``: ``ProblemSpec.arrangement`` with each den
  factor's value read back as GaussianRational coefficients and constant,
  canonicalized by ``canonicalize_hyperplane`` and scaled by the quotient
  of two GaussianRationals, and the rule on rounded coefficients decided by
  the kind each subexpression would have if pi, exp(...) and non-integer
  powers were rounded values (``rounded_kind``); ``dsl`` lowers a factor
  from its form's own Gaussian-integer pairs and decides the rule by which
  sides of a product hold variables and rounded leaves instead, and the
  suite checks the two agree, errors and their positions included.
* ``keyed_store``: the minors of ``exact_linalg.minor_store`` as a dict
  keyed (rows, column), each pair computed by ``determinant``;
  ``minor_store`` lays them out in one flat list by Laplace expansion
  instead, and the suite checks the list against the dict.
* ``read_profile``: one flag's minor profile read from a ``keyed_store``
  on its own, its prefixes sorted and its verdicts decided by Fraction
  comparisons; ``exact_linalg.set_verdicts`` and ``read_ordering`` read the
  orderings of a row set through one cached layout instead, and the suite
  checks the two agree flag by flag.
* ``keyed_flag_table`` and ``keyed_minor_profile``: the flag table and a
  matrix's profile read row set by row set from a ``keyed_store``, each
  set's keys listed (``subset_keys``) and looked up one by one
  (``set_minors``), and its verdicts decided from the numerators of the
  result (``set_verdicts``); ``arrangement.flag_table`` and
  ``exact_linalg.minor_profile`` read the flat store through one getter
  per row set and its signs once per table instead, and the suite checks
  that they agree field by field.
* ``fraction_gauss_jordan`` and ``fraction_inverse``: Gauss-Jordan
  elimination in Fractions, each pivot row scaled to a leading 1, with the
  determinant as the product of the pivots; ``exact_linalg`` eliminates
  integer rows fraction-free instead (Bareiss), and the suite checks its
  determinant, rank, inverse, solutions and row echelon keys against these.
* ``matrix`` and ``submatrix``: a ``RationalMatrix`` from rows, and one
  on chosen rows and columns of another; the package builds its matrices
  from tuples of rows itself.
* ``fraction_chart``: the chart matrix F M as a product of Fraction
  matrices (``matmul``); ``arrangement.jacobian`` takes integer dot products
  over each generator's denominator instead, ints where the entries are
  integral.
* ``fraction_terminal_classes``, ``fraction_incidence`` and
  ``fraction_position``: flag classes keyed by each set's terminal point,
  solved by the Fraction inverse of its f-rows, the hyperplanes through
  that point by GaussianRational sums f_j . p - i s_j and the Fraction row
  echelon form of every prefix, and a point's place in the cone from the
  Fraction inverse of its basis; ``arrangement.terminal_classes``,
  ``arrangement.incidence`` and ``residue_engine._position`` decide these
  on integers instead, and the suite checks that they agree.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import mpmath
from mpmath import mpc
from mpmath.libmp import to_rational

from residuum import dsl, exact_linalg, symfun
from residuum.arrangement import (
    Arrangement,
    Flag,
    FlagClass,
    FlagTable,
    Hyperplane,
    MeetsRealLocus,
    NotAlignable,
    pole_location,
)
from residuum.exact_linalg import (
    MinorProfile,
    RationalMatrix,
    _bareiss,
    _integer_rows,
    determinant,
    inverse,
)
from residuum.oracle import compile_numeric
from residuum.symfun import AffineForm, ExpRationalFunction, Term

DEFAULT_TORUS_NODES = 256


def keyed_store(mat: RationalMatrix) -> dict:
    """Every minor det C[S; (1..k-1, c)] of C = mat, for an ascending row
    tuple S of size k <= r and a 0-based column c >= k - 1, as the pair
    (det, -det) keyed (S, c), by ``determinant``."""
    big_r, width = mat.rows, mat.cols
    store = {}
    for k in range(1, min(big_r, width) + 1):
        for rows in itertools.combinations(range(big_r), k):
            for c in range(k - 1, width):
                det = determinant(submatrix(mat, rows, (*range(k - 1), c)))
                store[rows, c] = (det, -det)
    return store


def subset_keys(rows, width: int) -> list:
    """The ``keyed_store`` keys of the subsets of the ascending ``rows``."""
    subsets = (s for m in range(1, len(rows) + 1) for s in itertools.combinations(rows, m))
    return [(s, c) for s in subsets for c in range(len(s) - 1, width)]


def set_minors(store: dict, rows, width: int) -> list:
    """The store pairs of the subsets of ``rows``, flat in ``subset_keys`` order."""
    return [x for key in subset_keys(rows, width) for x in store[key]]


def set_verdicts(minors: list, k: int, width: int) -> list:
    """The ``Verdicts`` of each ordering of k rows of C, in ``profile_layout``
    order, from the signs of the rows' ``set_minors`` (``width`` columns)."""
    q_pairs, r_pairs, readings = exact_linalg.profile_layout(k, width)
    numerators = [x.numerator for x in minors]
    q_signs = [numerators[n] for _, n in q_pairs]
    r_signs = [numerators[n ^ (l - j) & 1] for (j, l), n in r_pairs]  # (-1)^(l-j) r_jl
    verdicts = []
    for _, p, q, r in readings:
        p_signs = p(numerators)
        stable = min(p_signs, default=1) > 0 and min(r(r_signs), default=0) >= 0
        compatible = not stable or max(q(q_signs), default=0) <= 0
        verdicts.append(exact_linalg.Verdicts(stable, compatible, all(p_signs)))
    return verdicts


def keyed_flag_table(arr: Arrangement, poly) -> FlagTable:
    """``arrangement.flag_table`` read from a ``keyed_store`` of the chart
    matrix C = F M: a set S of r rows is kept when its p_r is nonzero, its
    minors are looked up key by key (``set_minors``, as a tuple) and its r!
    orderings' verdicts decided from their numerators (``set_verdicts``)."""
    r, big_r = arr.dim, len(arr.hyperplanes)
    chart = fraction_chart(arr, range(big_r), poly)
    store = keyed_store(chart)
    kept = [rows for rows in itertools.combinations(range(big_r), r) if store[rows, r - 1][0]]
    orders = [order for order, *_ in exact_linalg.profile_layout(r, r)[2]]
    minors = [set_minors(store, rows, r) for rows in kept]
    flags = [order(rows) for rows in kept for order in orders]
    verdicts = [v for m in minors for v in set_verdicts(m, r, r)]
    ranked = sorted(range(len(flags)), key=flags.__getitem__)
    place, f = sorted(range(len(flags)), key=ranked.__getitem__), len(orders)
    row_sets = tuple(
        (rows, tuple(m), place[s * f : s * f + f]) for s, (rows, m) in enumerate(zip(kept, minors))
    )
    indices, verdicts = [flags[n] for n in ranked], [verdicts[n] for n in ranked]
    return FlagTable(chart, row_sets, indices, verdicts, ranked)


def keyed_minor_profile(mat: RationalMatrix) -> MinorProfile:
    """``exact_linalg.minor_profile`` read from a ``keyed_store`` of J = mat."""
    k, width = mat.rows, mat.cols
    minors = set_minors(keyed_store(mat), range(k), width)
    return exact_linalg.read_ordering(minors, k, width, 0, set_verdicts(minors, k, width)[0])


def read_profile(store: dict, rows, width: int) -> MinorProfile:
    """The profile of J = C[rows], for distinct rows of C in any order, read
    from the ``keyed_store`` of C, which has ``width`` columns.

    A minor of J on its first k rows is C's minor on those rows in ascending
    order, taken from the pair by the parity of the sort.  Dropping the
    prefix's j-th row, i-th in ascending order, adds j - 1 + i to that parity.
    """
    prefixes = []  # (ascending rows, parity of the sort) of each prefix
    ascending: list[int] = []
    odd = 0
    for k, row in enumerate(rows):
        pos = bisect.bisect(ascending, row)
        ascending.insert(pos, row)
        odd ^= (k - pos) & 1  # k - pos earlier rows are larger than this one
        prefixes.append((tuple(ascending), odd))

    p = tuple([store[key, k][odd] for k, (key, odd) in enumerate(prefixes)])
    q = tuple([
        ((k, l), store[key, l - 1][odd])
        for k, (key, odd) in enumerate(prefixes, 1)
        for l in range(k + 1, width + 1)
    ])
    r_minors = []
    for j, row in enumerate(rows, 1):
        for l, (key, odd) in enumerate(prefixes[j:], j + 1):
            i = key.index(row)
            drop = store[key[:i] + key[i + 1 :], l - 2][odd ^ ((j - 1 + i) & 1)]
            r_minors.append(((j, l), drop))
    stable = all(x > 0 for x in p) and all(
        val <= 0 if (l - j) % 2 else val >= 0 for (j, l), val in r_minors
    )
    compatible = (not stable) or all(val <= 0 for _, val in q)
    return MinorProfile(p, q, tuple(r_minors), stable, compatible, 0 not in p)


def fraction_gauss_jordan(rows) -> tuple[list[tuple[Fraction, ...]], list[int], Fraction]:
    """The reduced row echelon form of ``rows`` in Fractions: its nonzero
    rows, each with a leading 1, their pivot columns, and the determinant,
    the signed product of the pivots (0 when the rows are dependent)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    det = Fraction(1)
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        piv = next((i for i in range(top, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != top:
            m[top], m[piv] = m[piv], m[top]
            det = -det
        det *= m[top][col]
        m[top] = [x / m[top][col] for x in m[top]]
        for i, row in enumerate(m):
            if i != top and row[col]:
                m[i] = [a - row[col] * b for a, b in zip(row, m[top])]
        pivots.append(col)
    if len(pivots) < len(m):
        det = Fraction(0)
    return [tuple(row) for row in m[: len(pivots)]], pivots, det


def fraction_inverse(rows) -> tuple[tuple[Fraction, ...], ...]:
    """The inverse of the nonsingular square ``rows``: [A | I] reduced to
    [I | A^-1] by ``fraction_gauss_jordan``."""
    n = len(rows)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    reduced, _, _ = fraction_gauss_jordan([[*row, *e] for row, e in zip(rows, eye)])
    return tuple(row[n:] for row in reduced)


def matrix(rows) -> RationalMatrix:
    """``rows`` as a ``RationalMatrix``: ints and Fractions as given, a float
    as its exact Fraction."""
    return RationalMatrix(tuple(tuple(map(exact_linalg._exact, row)) for row in rows))


def submatrix(mat: RationalMatrix, rows, cols) -> RationalMatrix:
    """The entries of ``mat`` on ``rows`` and ``cols``, in the order given."""
    return RationalMatrix(tuple(tuple(mat.entries[i][j] for j in cols) for i in rows))


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """The product a b, entry by entry a sum of products."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    cols = list(zip(*b.entries))
    return RationalMatrix(
        tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.entries)
    )


def fraction_chart(arr: Arrangement, indices, poly) -> RationalMatrix:
    """The rows f_j, j in ``indices``, times the cone's basis matrix M, in
    Fractions."""
    f_rows = RationalMatrix(
        tuple(tuple(Fraction(c) for c in arr.hyperplanes[i].f) for i in indices)
    )
    basis = poly.basis_matrix().entries
    return matmul(f_rows, RationalMatrix(tuple(tuple(map(Fraction, row)) for row in basis)))


def fraction_terminal_classes(arr: Arrangement, flags) -> list[FlagClass]:
    """The flags' classes, in the order of their first flags, keyed by the
    ``fraction_incidence`` of the terminal point and the reduced row echelon
    form of each prefix's f-rows (``fraction_gauss_jordan``).  Each set of
    hyperplanes is solved once, the ``fraction_inverse`` of its f-rows
    applied to i s_j, unless a point already solved exactly lies on all of
    its hyperplanes; then it takes that point."""
    i = exact_linalg.GaussianRational(Fraction(0), Fraction(1))
    points: dict = {}
    exact: list = []
    classes: dict = {}
    for flag in sorted(flags, key=lambda f: f.indices):
        hps = [arr.hyperplanes[j] for j in flag.indices]
        whole = frozenset(flag.indices)
        if whole not in points:
            known = next((p for p in exact if whole <= p[1]), None)
            if known is None:
                rhs = [i * h.s for h in hps]
                inv = fraction_inverse([h.f for h in hps])
                point = [sum(b * c for b, c in zip(rhs, row)) for row in inv]
                known = (point, fraction_incidence(arr, point))
                if all(isinstance(x, exact_linalg.GaussianRational) for x in point):
                    exact.append(known)
            points[whole] = known
        point, through = points[whole]
        spans = [fraction_gauss_jordan([h.f for h in hps[:k]])[0] for k in range(1, len(hps))]
        key = (through, *map(tuple, spans))
        classes.setdefault(key, FlagClass(point, through, [])).flags.append(flag)
    return list(classes.values())


def fraction_incidence(arr: Arrangement, point) -> frozenset[int]:
    """The hyperplanes H_j through ``point``: f_j . p - i s_j summed in
    GaussianRationals, exactly 0."""
    i = exact_linalg.GaussianRational(Fraction(0), Fraction(1))
    return frozenset(
        j
        for j, h in enumerate(arr.hyperplanes)
        if not sum(c * x for c, x in zip(h.f, point)) - i * h.s
    )


def fraction_position(poly, point) -> tuple[bool, bool]:
    """(inside, boundary) of a terminal point p: z = M^-1 p by the
    ``fraction_inverse`` of the cone's basis M, inside when every Im z_k >= 0,
    on the boundary when one is 0."""
    inv = fraction_inverse(poly.basis_matrix().entries)
    ims = [sum(b * c for b, c in zip(point, row)).im for row in inv]
    return all(y >= 0 for y in ims), not all(ims)


def _exact_scalar(x) -> exact_linalg.GaussianRational:
    if isinstance(x, complex):
        return binary_value(x)
    if isinstance(x, (int, Fraction, exact_linalg.GaussianRational)):
        return exact_linalg.GaussianRational() + x
    raise TypeError(
        f"hyperplane linear parts must be exact rational data, got {x!r}"
    )


def binary_value(x) -> exact_linalg.GaussianRational:
    """A float, complex, mpf or mpc as the GaussianRational of its binary
    value, each part a Fraction: Python's of a float, mpmath's of a part."""
    if isinstance(x, (float, complex)):
        return exact_linalg.GaussianRational(Fraction(x.real), Fraction(x.imag))
    z = mpmath.mpmathify(x)
    return exact_linalg.GaussianRational(
        *(Fraction(*to_rational(part._mpf_)) for part in (z.real, z.imag))
    )


def canonicalize_hyperplane(linear_coeffs, constant) -> Hyperplane:
    """{<a, v> + b = 0} as {f(v) = i s}, f primitive integers and Re s > 0:
    the linear part times the conjugate of its lead, then the positive
    rational scale mu to a primitive integer vector, with Fractions."""
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
    den_lcm = math.lcm(*(x.denominator for x in u))
    ints = [int(x * den_lcm) for x in u]
    g = math.gcd(*(abs(n) for n in ints))
    ints = [n // g for n in ints]
    mu = Fraction(den_lcm, g)
    # f(v) = i s with i s = -mu * lam * b, so s = i * mu * lam * b
    lam_total = exact_linalg.GaussianRational(lam.re * mu, lam.im * mu)
    exact = isinstance(constant, (int, Fraction, exact_linalg.GaussianRational))
    i = exact_linalg.GaussianRational(Fraction(0), Fraction(1))
    s = (_exact_scalar(constant) if exact else binary_value(constant)) * lam_total * i
    if s.real == 0:
        raise MeetsRealLocus("hyperplane meets the real locus (Re s = 0)")
    if s.real < 0:
        ints = [-n for n in ints]
        s = -s
    return Hyperplane(f=tuple(ints), s=s)


def lowered_arrangement(spec) -> Arrangement:
    """``spec.arrangement()``: each den factor written c (f(v) - i s) is the
    canonical hyperplane of its value's ``coeffs`` and ``const``, and c the
    quotient of its first nonzero coefficient by f's; c^-m is left in the
    numerator.  A factor whose ``rounded_kind`` is a rounded form is
    refused."""
    env, nvars = spec._environment(), spec.dim
    one = exact_linalg.GaussianRational.of(1)
    hyperplanes, scale = [], one
    kinds = {name: "form" for name in spec.variables}
    for name, expr in spec.parameters:
        kinds[name] = rounded_kind(expr, kinds, env, nvars)
    for expr, mult in spec.denominator:
        value = dsl._eval(expr, env, nvars)
        if isinstance(value, ExpRationalFunction):
            raise dsl.ProblemError("denominator factor is not affine in the variables", *expr.pos)
        if dsl._is_scalar(value) or not any(value.coeffs):
            raise dsl.ProblemError("denominator factor is constant in the variables", *expr.pos)
        if rounded_kind(expr, kinds, env, nvars) == "rounded form":
            raise dsl.ProblemError(
                "denominator coefficients must be exact rationals "
                "(rational multiples of 1 and i; pi and exp are not allowed)",
                *expr.pos,
            )
        try:
            h = canonicalize_hyperplane(value.coeffs, value.const)
        except (NotAlignable, MeetsRealLocus, ValueError) as exc:
            raise dsl.ProblemError(str(exc), *expr.pos) from exc
        j = next(j for j, f in enumerate(h.f) if f)
        c = value.coeffs[j] / h.f[j]
        hyperplanes.append(h)
        if c != one:
            scale /= c**mult
    if spec.numerator is None:
        numerator = ExpRationalFunction.from_parts(nvars)
    else:
        numerator = dsl._lift(dsl._eval(spec.numerator, env, nvars), nvars)
    if scale != one:
        numerator = numerator.scale(scale)
    mults = [m for _, m in spec.denominator]
    return Arrangement.build(nvars, hyperplanes, numerator=numerator, multiplicities=mults)


def rounded_kind(expr, kinds: dict, env: dict, nvars: int) -> str:
    """The kind of an expression's value were pi, exp(...) and non-integer
    powers rounded values: "exact" or "rounded" for a scalar, "form" for an
    affine form with exact coefficients and "rounded form" for one that a
    rounded scalar multiplied or divided.  ``kinds`` holds the variables'
    and parameters' kinds; an expression whose value is not affine has some
    kind, which no one reads."""
    if isinstance(expr, dsl.Num):
        return "exact"
    if isinstance(expr, dsl.Name):
        return "rounded" if expr.name == "pi" else kinds.get(expr.name, "exact")
    if isinstance(expr, dsl.Neg):
        return rounded_kind(expr.operand, kinds, env, nvars)
    if isinstance(expr, dsl.ExpCall):
        return "rounded"
    a, b = (rounded_kind(x, kinds, env, nvars) for x in (expr.lhs, expr.rhs))
    forms = [k for k in (a, b) if k.endswith("form")]
    if expr.op in "+-":
        return ("rounded form" if "rounded form" in forms else "form") if forms else max(a, b)
    if expr.op in "*/":
        if not forms:
            return max(a, b)
        return "rounded form" if "rounded" in (a, b) or "rounded form" in forms else "form"
    if dsl._as_int(dsl._eval(expr.rhs, env, nvars)) is None:
        return "rounded"
    return a


def defining_form(h: Hyperplane) -> AffineForm:
    """g = f(v) - i s, the affine function cutting out H."""
    return AffineForm(h.f, -h.s * exact_linalg.GaussianRational(0, 1))


class ForeignPoleInsideTorus(Exception):
    """A hyperplane outside the chosen collection meets the torus."""


def row_combinations(
    basis: RationalMatrix, targets: RationalMatrix
) -> list[list[Fraction]] | None:
    """Coefficients c with c . basis = t for each target row t.

    None when the basis rows are dependent or a target lies outside their
    span.  Eliminates the transposed system [basis^T | targets^T].
    """
    k = basis.rows
    m, _ = _integer_rows(list(zip(*basis.entries, *targets.entries)))
    if len(_bareiss(m, k, reduce=True)[0]) < k or any(
        any(row[k:]) for row in m[k:]
    ):
        return None
    return [
        [Fraction(m[j][k + t], m[j][j]) for j in range(k)]
        for t in range(targets.rows)
    ]


def same_flag(arr: Arrangement, a: Flag, b: Flag) -> bool:
    """Whether two ordered collections cut out the same chain of subspaces.

    Level by level: the first k linear forms of ``a`` must be independent and
    span those of ``b`` exactly, and the affine offsets must be consistent
    (each equation of ``b``'s prefix is implied by ``a``'s), exactly.
    """
    if len(a) != len(b):
        return False

    def f_rows(indices) -> RationalMatrix:
        return RationalMatrix(tuple(arr.hyperplanes[i].f for i in indices))

    for k in range(1, len(a) + 1):
        combos = row_combinations(f_rows(a.indices[:k]), f_rows(b.indices[:k]))
        if combos is None:
            return False
        for idx, coeffs in zip(b.indices[:k], combos):
            implied = sum(c * arr.hyperplanes[j].s for c, j in zip(coeffs, a.indices[:k]))
            if implied != arr.hyperplanes[idx].s:
                return False
    return True


def pairwise_flag_classes(arr: Arrangement, flags) -> list[list[Flag]]:
    """Classes by ``same_flag`` against each class's first flag."""
    classes: list[list[Flag]] = []
    for g in sorted(flags, key=lambda f: f.indices):
        for cls in classes:
            if same_flag(arr, cls[0], g):
                cls.append(g)
                break
        else:
            classes.append([g])
    return classes


def torus_residue(
    arr: Arrangement,
    indices,
    eps=None,
    nodes: int = DEFAULT_TORUS_NODES,
) -> mpc:
    """Residue over the torus cycle |g_j| = eps_j around a terminal point.

    Oriented by the natural angle parametrization, normalized so the unit
    example dz/(z - i) gives exactly 1.
    """
    indices = tuple(indices)
    r = arr.dim
    if len(indices) != r:
        raise ValueError("need exactly one hyperplane per variable")
    a = RationalMatrix(tuple(arr.hyperplanes[i].f for i in indices))
    if determinant(a) == 0:
        raise ValueError("chosen hyperplanes are not transverse")
    m = pole_location(arr, Flag(indices))
    a_inv = inverse(a)
    foreign = []
    for k, h in enumerate(arr.hyperplanes):
        if k in indices:
            continue
        g = complex(defining_form(h).evaluate(m))
        norm = math.sqrt(sum(float(c) ** 2 for c in h.f))
        foreign.append((k, abs(g) / norm))
    if eps is None:
        base = 0.1 * min((d for _, d in foreign), default=1.0)
        eps_vec = [base] * r
    elif np.isscalar(eps):
        eps_vec = [float(eps)] * r
    else:
        eps_vec = [float(e) for e in eps]
        if len(eps_vec) != r:
            raise ValueError("need one radius per variable")
    bad = [k for k, d in foreign if d <= max(eps_vec)]
    if bad:
        raise ForeignPoleInsideTorus(
            f"hyperplane H{bad[0] + 1} is closer to the terminal point "
            "than the torus radius"
        )
    fn = compile_numeric(arr.integrand())
    ainv_np = np.array(
        [[complex(a_inv[i, j]) for j in range(r)] for i in range(r)]
    )
    det_ainv = complex(determinant(a_inv))
    m_np = np.array([complex(z) for z in m])
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    mesh = np.meshgrid(*([theta] * r), indexing="ij")
    phases = np.stack([g.ravel() for g in mesh])
    disc = np.exp(1j * phases)
    for j in range(r):
        disc[j] *= eps_vec[j]
    pts = m_np[:, None] + ainv_np @ disc
    # the cycle must stay clear of every foreign factor
    for k, _ in foreign:
        h = arr.hyperplanes[k]
        row = np.array([complex(c) for c in h.f])
        const = complex(defining_form(h).const)
        vals = row @ pts + const
        if float(np.min(np.abs(vals))) < 1e-9 * (1.0 + float(np.max(np.abs(vals)))):
            raise ForeignPoleInsideTorus(
                f"torus passes through hyperplane H{k + 1}"
            )
    integrand = fn(pts)
    for j in range(r):
        integrand = integrand * disc[j]
    return mpc(det_ainv * complex(np.mean(integrand)))


def unit_form(arity: int, index: int) -> AffineForm:
    """z_index as a form of ``arity`` variables."""
    return AffineForm.make([int(j == index) for j in range(arity)])


def substitute_affine(
    func: ExpRationalFunction, var: int, repl: AffineForm
) -> ExpRationalFunction:
    """Set z_var = repl(z_others) in ``func``; the result loses that variable.

    ``repl`` has the same arity as ``func`` with a zero coefficient at ``var``.
    """
    if repl.arity != func.arity:
        raise ValueError("replacement arity mismatch")
    if repl.coeffs[var]:
        raise ValueError("replacement must not involve the variable it defines")
    forms = []
    for i in range(func.arity):
        if i == var:
            forms.append(repl.drop_var(var))
        else:
            new_index = i if i < var else i - 1
            forms.append(unit_form(func.arity - 1, new_index))
    return func.compose(forms)


def per_factor_residue(
    func: ExpRationalFunction, var: int, pole: AffineForm
) -> ExpRationalFunction:
    """``func.residue_1d(var, pole)`` with each kept factor A = B + a t
    expanded on its own, as

        (B + a t)^{-m} = sum_j C(m + j - 1, j) (-a)^j t^j B^{-(m + j)},

    and one term emitted per choice of the kept factors' exponents j, the
    degrees of proportional factors added on their shared unit.  Shares
    ``residue_1d``'s memo of forms and its merge of like terms; no term cap.
    """
    memo = symfun._PoleMemo(var, pole)
    out: list[Term] = []
    for t in func.terms:
        coeff, order, kept = t.coeff, 0, []
        for form, mult in t.denom:
            k, a = memo.factor(form)
            if k is None:
                coeff, order = coeff / a**mult, order + mult
            else:
                kept.append((k, mult, a))
        if order:
            expo = memo.restrict(t.expo)
            out += _per_factor_terms(coeff, t, var, order - 1, expo, kept, memo)
    return ExpRationalFunction(func.arity - 1, symfun._merge_like_terms(out))


def _per_factor_terms(
    coeff, term: Term, var: int, n: int, expo: AffineForm, kept, memo
) -> list:
    """The t^n coefficient of coeff * P * exp(L) / prod(kept), one term per
    exponent vector of the kept factors (k, m, a)."""
    taylor, p = [], term.poly
    for j in range(n + 1):
        if j:
            p = p.differentiate(var).scale(Fraction(1, j))
            if p.is_zero():
                break
        taylor.append(p.restrict(var, memo.pole))
    lv, exp_series = exact_linalg._gaussian(*term.expo._v[var], term.expo._den), [1]
    for k in range(1, n + 1):
        exp_series.append(exp_series[-1] * lv / k)
    rest = []  # rest[s]: the polynomial multiplying the kept factors' t^s part
    for s in range(n + 1):
        pieces = [
            q if n - s == j else q.scale(exp_series[n - s - j])
            for j, q in enumerate(taylor[: n - s + 1])
            if n - s == j or lv
        ]
        acc = pieces[0] if pieces else None
        for piece in pieces[1:]:
            acc = acc.add(piece)
        rest.append(acc if acc is not None and not acc.is_zero() else None)
    firsts: dict = {}  # memo unit index -> this term's class
    factors = []
    for k, m, a in kept:
        lead = memo.leads[k]
        series = [
            math.comb(m + j - 1, j) * (-a) ** j / lead ** (m + j)
            for j in range(1, n + 1 if a else 1)
        ]
        factors.append((firsts.setdefault(memo.classes[k], len(firsts)), m, lead**m, series))
    units = [memo.units[u] for u in firsts]
    class_order = symfun._form_order(units)
    out = []
    stack = [(0, coeff, n, ())]
    while stack:
        i, c, left, js = stack.pop()
        if i == len(factors):
            if rest[n - left] is not None:
                degrees = [0] * len(units)
                for (cls, m, _, _), j in zip(factors, js):
                    degrees[cls] += m + j
                denom = tuple((units[cls], degrees[cls]) for cls in class_order)
                out.append(Term(c, rest[n - left], expo, denom))
            continue
        _, _, lead_power, series = factors[i]
        for j in reversed(range(min(len(series), left) + 1)):
            child = c / lead_power if j == 0 else c * series[j - 1]
            stack.append((i + 1, child, left - j, js + (j,)))
    return out


def power_series(parts: list, n: int) -> list:
    """c_0 .. c_n of ``_PoleMemo.class_series`` from its (lead, a, m)
    triples, by the power-sum recurrence in the scalars' own arithmetic;
    c_0 alone when every a is 0."""
    lead_power, ms, xs = 1, [], []
    for lead, a, m in parts:
        lead_power *= lead**m
        if a:
            ms.append(m)
            xs.append(-a / lead)
    F, powers, sums = [1 / lead_power], xs, []
    for j in range(1, n + 1 if xs else 1):
        sums.append(sum(map(operator.mul, ms, powers)))
        powers = list(map(operator.mul, powers, xs))
        F.append(sum(map(operator.mul, sums, reversed(F))) / j)
    return F


def stability_rows(table, with_jacobian: bool) -> tuple:
    """One dict per ``FlagEntry``: the stability table as ``json.dumps``
    serializes it in a report."""
    rows = []
    for entry in table:
        prof = entry.profile
        row = {
            "flag": entry.flag.label(),
            "stable": prof.stable,
            "compatible": prof.compatible,
            "in_bruhat_cell": prof.in_bruhat_cell,
            "p": [str(x) for x in prof.p],
            "q": {f"({j},{l})": str(v) for (j, l), v in prof.q},
            "r": {f"({j},{l})": str(v) for (j, l), v in prof.r_minors},
        }
        if with_jacobian:
            row["jacobian"] = [[str(x) for x in r] for r in entry.jacobian.entries]
        rows.append(row)
    return tuple(rows)


def stability_lines(rows) -> list[str]:
    """The stability table of a text report, from ``stability_rows``."""
    lines = ["", f"{'flag':<12}{'stable':<9}{'compatible':<12}p-minors"]
    for row in rows:
        pm = ", ".join(row["p"])
        lines.append(
            f"{row['flag']:<12}"
            f"{'yes' if row['stable'] else 'no':<9}"
            f"{'yes' if row['compatible'] else 'no':<12}{pm}"
        )
    return lines


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts: exact
    with int and Fraction, rounded (``_mpmath_``) when mixed with mpmath's."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, x: int | Fraction) -> "GaussianRational":
        return cls(Fraction(x), Fraction(0))

    def __add__(self, o):
        if isinstance(o, (int, Fraction)):
            return GaussianRational(self.re + o, self.im)
        if not isinstance(o, GaussianRational):
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        if isinstance(o, (int, Fraction)):
            return GaussianRational(self.re * o, self.im * o)
        if not isinstance(o, GaussianRational):
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, (int, Fraction)):
            return GaussianRational(self.re / o, self.im / o)
        if not isinstance(o, GaussianRational):
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero")
        return self * GaussianRational(o.re / n, -o.im / n)

    def __rtruediv__(self, o):
        return GaussianRational.of(o) / self

    def __pow__(self, n: int) -> "GaussianRational":
        """Integer power by repeated squaring."""
        acc, square, k = GaussianRational.of(1), self, abs(n)
        while k:
            if k & 1:
                acc = acc * square
            k >>= 1
            if k:
                square = square * square
        return acc if n >= 0 else GaussianRational.of(1) / acc

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __abs__(self) -> float:
        return math.hypot(self.re, self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    real = property(lambda self: self.re)
    imag = property(lambda self: self.im)
    is_zero = property(lambda self: not self)
    is_real = property(lambda self: self.im == 0)

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def _mpmath_(self, prec: int, rounding: str):
        """The value rounded at ``prec`` bits, for mpmath's arithmetic."""
        from mpmath import mp
        from mpmath.libmp import from_rational

        parts = (self.re, self.im)
        return mp.make_mpc(
            tuple(from_rational(x.numerator, x.denominator, prec, rounding) for x in parts)
        )


class FractionForm(NamedTuple):
    """a . z + c with Fraction or GaussianRational coefficients and a
    GaussianRational constant (``exact_linalg``'s), by arithmetic on those
    values: the exact ``AffineForm`` kernel before its entries moved to
    Gaussian integers over one denominator."""

    coeffs: tuple
    const: object

    def restrict(self, var: int, pole: "FractionForm") -> "FractionForm":
        a = self.coeffs[var]
        coeffs = self.coeffs[:var] + self.coeffs[var + 1 :]
        if a == 0:
            return FractionForm(coeffs, self.const)
        p = pole.coeffs[:var] + pole.coeffs[var + 1 :]
        return FractionForm(
            tuple(c + x * a for c, x in zip(coeffs, p)), self.const + pole.const * a
        )

    def solve_for(self, var: int) -> "FractionForm":
        a = self.coeffs[var]
        if not a:
            raise ZeroDivisionError(f"form does not involve variable {var}")
        coeffs = [(-c) / a for c in self.coeffs]
        coeffs[var] = 0 * a
        return FractionForm(tuple(coeffs), -self.const / a)

    def normalized(self) -> tuple["FractionForm", object]:
        lead = next((x for x in (*self.coeffs, self.const) if x), None)
        if lead is None:
            raise ZeroDivisionError("zero affine form")
        return FractionForm(tuple(c / lead for c in self.coeffs), self.const / lead), lead

    def compose(self, forms) -> "FractionForm":
        coeffs = [0] * (len(forms[0].coeffs) if forms else 0)
        const = self.const
        for a, phi in zip(self.coeffs, forms):
            if not a:
                continue
            coeffs = [c + x * a for c, x in zip(coeffs, phi.coeffs)]
            const = const + phi.const * a
        return FractionForm(tuple(coeffs), const)

    def sort_key(self) -> tuple:
        """Exact entries as (re, im) pairs of Fractions, which need not fit
        a float."""
        return tuple((x.real, x.imag) for x in (*self.coeffs, self.const))
