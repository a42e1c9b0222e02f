"""Numerical verification layer: full-space quadrature, semicircle arc
diagnostics, and torus-cycle residues.

Everything here runs in float64 numpy, independent of the exact residue
machinery; the only shared ingredient is the symbolic function container.
Its terms are read once into one float64 spec per term (_term_specs), from
which two evaluators are built: _tensor_sum for sums over tensor grids and
the pointwise closure of compile_numeric for everything else (the
shell-tail faces, tori and arcs).

quad_integral integrates in hyperplane coordinates w = F_B v, F_B holding
the rows f_j of r hyperplanes with the largest |det F_B|: the trapezoid rule
converges geometrically only where the integrand is smooth along the grid
axes, and the poles lie on the hyperplanes.  A det-1 substitution v = U u
changes neither det F_B nor any row f_j F_B^-1, so the integrand in w,
Arrangement.integrand_in of the chart F_B^-1, and every node and sum, does
not depend on how the problem is written.  Box lengths are lengths in w.

In r <= 3 variables one rule serves every integral: the trapezoid
(midpoint) sum on a uniform tensor grid, under one of two maps.

* no oscillation: x = box * tan(u) per axis, midpoint rule in u on
  (-pi/2, pi/2).  The map covers the whole space, so nothing is
  truncated.  1/x = cot(u)/box is analytic through u = +-pi/2, so in each
  u the mapped rational integrand is analytic and pi-periodic; where a
  factor couples the axes it can be singular at the corners of the
  square, and convergence there is slower.  The midpoint rule never
  evaluates u = +-pi/2, where the mapped integrand is nonzero when the
  decay degree is 2;
* oscillatory exponentials: the integrand times a smooth erfc window on
  [-2.75X, 2.75X].  The base window X = box is refined from spacing
  2 pi / (f + _ALIAS) on each axis of frequency f; windows at 2X and 4X,
  while the node budget admits them, are summed once at its coarser
  spacing.  The window suppresses oscillatory truncation error
  superalgebraically, so the remaining tail is a clean power series in
  1/X that Richardson extrapolation across the windows removes.

Both maps share one refinement loop (_refine): node counts double per
axis, capped at the largest n with n**r <= node_budget**2 (node_budget
itself for r <= 2, 256 of the default 4096 for r = 3), and a sum is
accepted when it agrees with the previous level's.  The reported error is
that difference.  On a function that is periodic and analytic in a strip,
or analytic and rapidly decaying on the line, the trapezoid error falls
geometrically with the number of nodes (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56, 2014), so the
finer sum is far more accurate than the difference says.

tail_estimate deliberately ignores oscillatory cancellation: it bounds
the raw mass beyond the last window from the decay degree, so it is
conservative but always an upper bound.

One kernel, _term_block, evaluates a term on a block of about 32,768
points, for the grid sums and the closure alike, in buffers that stay in
L2 cache.  On a tensor grid each term's exponential and weights are one
vector per axis, and so is each linear factor that depends on one axis,
while the vector stays in range: the chosen hyperplanes' own do, since
their rows in w are built from the exact f_j F_B^-1, unit vectors;
a term with no other factor is a product of 1-D sums.  Only the
polynomial and the other factors are done per point, multiplied in groups
whose products provably stay within float64's range (_factor_groups),
and the numerator is divided once per group.  No BLAS routine takes
part, so repeated sums are bitwise equal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mpc

from .arrangement import Arrangement, Flag, Polyhedron, jacobian, pole_location
from .exact_linalg import RationalMatrix, determinant, inverse
from .symfun import ExpRationalFunction

DEFAULT_BOX = 50.0
DEFAULT_TOL = 1e-6
DEFAULT_NODE_BUDGET = 4096
DEFAULT_TORUS_NODES = 256
# Gauss-Legendre points per panel of the semicircle arc rule
_PER_PANEL = 12
# An arc sum below _ARC_FLOOR * sum |vals * wts|, 64 float64 epsilons of
# the sum of its terms' magnitudes, is rounding noise.
_ARC_FLOOR = 64.0 * float(np.finfo(np.float64).eps)


class NonDecaying(Exception):
    """Integrand does not decay fast enough for absolute convergence."""


class BudgetExceeded(Exception):
    """Node budget exhausted before the refinement stabilized."""


class PoleOnArc(Exception):
    """A denominator factor vanishes on the sampled arc."""


class ForeignPoleInsideTorus(Exception):
    """A hyperplane outside the chosen collection meets the torus."""


@dataclass(frozen=True)
class QuadratureReport:
    estimate: mpc
    error_bound: float
    box_halfwidth: float
    nodes_per_axis: int
    tail_estimate: float


@dataclass(frozen=True)
class SemicircleDiagnostic:
    """Arc-integral magnitudes per radius plus the pointwise peak.

    magnitudes follow the integral (oscillation may cancel pointwise
    growth down to a constant); peak_magnitudes expose the raw growth
    of the integrand along the arc.
    """

    radii: tuple
    magnitudes: tuple
    peak_magnitudes: tuple
    trending_to_zero: bool
    sampled_radii: tuple


def _term_specs(func: ExpRationalFunction):
    """The float64 data of each term, shared by both evaluators.

    One (coeff, poly, expo, expo_0, denom) tuple per term.  poly lists
    (exponents, value) monomials, or is None when the polynomial is a
    single constant, which is then folded into coeff.  expo holds the
    exponent's per-axis coefficients and expo_0 its constant, or both are
    None when the term has no exponential.  denom lists (row, const, mult)
    per linear factor, in the term's order.
    """
    specs = []
    for t in func.terms:
        poly = [(tuple(e), complex(v)) for e, v in t.poly.items()]
        if not poly:
            continue
        coeff = complex(t.coeff)
        if len(poly) == 1 and not any(poly[0][0]):
            coeff *= poly[0][1]
            poly = None
        expo = np.array([complex(a) for a in t.expo.coeffs], dtype=complex)
        expo_0 = complex(t.expo.const)
        if not (expo.any() or expo_0 != 0):
            expo = expo_0 = None
        denom = [
            (np.array([complex(a) for a in f.coeffs], dtype=complex),
             complex(f.const), m)
            for f, m in t.denom
        ]
        specs.append((coeff, poly, expo, expo_0, denom))
    return specs


# Points per block of the integrand kernel.  Its three complex buffers then
# take 1.5 MB together and stay in L2 cache: on a 2-vCPU Xeon VM (2 MB of
# L2 per core), the quadrature of the sheared r=2 product with omega=(1,2)
# took 0.50, 0.47, 0.57 and 0.80 s at 8,192, 32,768, 131,072 and 600,000.
_BLOCK_POINTS = 32_768
# Every partial product of a group of linear factors stays within
# 2**-_RANGE_EXP .. 2**_RANGE_EXP, well inside float64's normal range
# (2**-1022 .. 2**1024).
_RANGE_EXP = 960


def _box(values):
    """Per-axis node bounds: the rectangle in C that holds the values."""
    re, im = np.real(values), np.imag(values)
    return float(re.min()), float(re.max()), float(im.min()), float(im.max())


def _form_bounds(row, const, boxes):
    """Lower and upper bounds of |row . z + const| over z_k in boxes[k]."""
    re_lo = re_hi = const.real
    im_lo = im_hi = const.imag
    for a, (xr_lo, xr_hi, xi_lo, xi_hi) in zip(row, boxes):
        # a z is linear in (Re z, Im z), so its extremes lie at the corners
        corners = [a * complex(x, y) for x in (xr_lo, xr_hi) for y in (xi_lo, xi_hi)]
        re_lo += min(c.real for c in corners)
        re_hi += max(c.real for c in corners)
        im_lo += min(c.imag for c in corners)
        im_hi += max(c.imag for c in corners)
    lower = math.hypot(max(re_lo, -re_hi, 0.0), max(im_lo, -im_hi, 0.0))
    upper = math.hypot(max(-re_lo, re_hi), max(-im_lo, im_hi))
    return lower, upper


def _factor_groups(denom, boxes):
    """Split a term's linear factors into groups whose products stay in range.

    A factor of multiplicity m counts as m copies, taken in the term's
    order.  A copy joins the current group while the sums of log2 of the
    copies' lower and upper bounds on the boxes stay within +-_RANGE_EXP,
    so no partial product of a group can overflow or underflow; a factor
    whose lower bound is 0 stands alone, one copy per group.  Each group is
    a list of (factor index, copies) runs.
    """
    groups, runs = [], []
    top = bottom = 0.0
    for i, (row, const, mult) in enumerate(denom):
        lower, upper = _form_bounds(row, const, boxes)
        up = math.log2(upper) if upper > 0 else -math.inf
        down = math.log2(lower) if lower > 0 else -math.inf
        for _ in range(mult):
            if runs and not (top + up <= _RANGE_EXP and bottom + down >= -_RANGE_EXP):
                groups.append(runs)
                runs, top, bottom = [], 0.0, 0.0
            top += up
            bottom += down
            if runs and runs[-1][0] == i:
                runs[-1] = (i, runs[-1][1] + 1)
            else:
                runs.append((i, 1))
    if runs:
        groups.append(runs)
    return groups


def _term_block(val, factor, groups, num, den, lin):
    """One term's values on one block of points: val over its linear factors.

    val is the numerator on the block, a scalar or an array.  factor(i,
    out) returns linear factor i on the block, written into the buffer out
    or held elsewhere.  The factors of each group of _factor_groups are
    multiplied into den, a power by repeated multiplication, and val is
    divided once per group.  num, den and lin are buffers of the block's
    shape; the values are returned in num.
    """
    for group in groups:
        prod = None
        for i, copies in group:
            # a run that opens its group alone is built in den; otherwise
            # the factor goes to lin and the product to den
            base = factor(i, den if prod is None and copies == 1 else lin)
            for _ in range(copies):
                prod = base if prod is None else np.multiply(prod, base, out=den)
        val = np.divide(val, prod, out=num)
    if val is not num:
        np.copyto(num, val)
    return num


def compile_numeric(func: ExpRationalFunction):
    """Compile a symbolic function into a closure on (arity, N) arrays."""
    specs = _term_specs(func)

    def evaluate(points):
        n = points.shape[1]
        boxes = [_box(x) for x in points]
        plans = [
            (coeff, poly, expo, expo_0, denom, _factor_groups(denom, boxes))
            for coeff, poly, expo, expo_0, denom in specs
        ]
        out = np.zeros(n, dtype=np.complex128)
        size = min(n, _BLOCK_POINTS)
        bufs = [np.empty(size, dtype=np.complex128) for _ in range(4)]
        for start in range(0, n, _BLOCK_POINTS):
            p = points[:, start:start + _BLOCK_POINTS]
            num, den, lin, tmp = (buf[:p.shape[1]] for buf in bufs)
            for coeff, poly, expo, expo_0, denom, groups in plans:
                val = coeff
                for k, (e, v) in enumerate(poly or ()):
                    mono = _monomial(coeff * v, e, p, lin if k else num, tmp)
                    val = mono if k == 0 else np.add(val, mono, out=num)
                if expo is not None:
                    phase = np.exp(_linear(expo, expo_0, p, lin, tmp), out=lin)
                    val = np.multiply(val, phase, out=num)

                def factor(i, into):
                    row, const, _ = denom[i]
                    return _linear(row, const, p, into, tmp)

                out[start:start + _BLOCK_POINTS] += _term_block(
                    val, factor, groups, num, den, lin
                )
        return out

    return evaluate


def _monomial(coeff, exponents, p, out, tmp):
    """coeff * prod_j p_j ** e_j on a block of points, into out."""
    out.fill(coeff)
    for j, k in enumerate(exponents):
        if k:
            np.multiply(out, np.power(p[j], k, out=tmp), out=out)
    return out


def _linear(row, const, p, out, tmp):
    """row . p + const on a block of points, one axis at a time, into out."""
    out.fill(const)
    for j, a in enumerate(row):
        if a != 0:
            np.add(out, p[j] if a == 1 else np.multiply(p[j], a, out=tmp), out=out)
    return out


def _tensor_sum(specs, axes, chunk_points=_BLOCK_POINTS):
    """Weighted sum of the integrand over the tensor grid of 1 to 3 axes.

    Per term, the weights and the exponential fold into per-axis vectors
    g_k = w_k exp(a_k x_k), with exp(c) on axis 0, and each copy of a
    linear factor that depends on axis k alone is divided into g_k unless
    some |g_k| would leave 2**+-_RANGE_EXP.  A term with no factor left
    sums to coeff * sum_monomials v * prod_k sum_j x_kj**e_k g_kj; in the
    others, monomials and the remaining linear forms are outer products
    and sums of per-axis vectors, by broadcasting.
    _term_block evaluates the term in blocks of axis-0 rows, of shape
    (rows, n_1, n_2) and about chunk_points points, and einsum contracts
    each block with g_{r-1}, ..., g_0 in turn: 2-3 ns per point on a 2-vCPU
    Xeon VM, against 5-10 for one einsum over all r vectors.  Its default
    optimize=False calls no BLAS routine, so the sum does not depend on the
    thread count.
    """
    xs = [nodes for nodes, _ in axes]
    r = len(xs)
    rest = tuple(len(x) for x in xs[1:])
    rows = max(1, min(len(xs[0]), chunk_points // math.prod(rest)))
    bufs = [np.empty((rows,) + rest, dtype=np.complex128) for _ in range(3)]
    boxes = [_box(x) for x in xs]

    def spread(parts):
        # axis k's vector along dimension k of a block
        return [p.reshape((-1,) + (1,) * (r - 1 - k)) for k, p in enumerate(parts)]

    def outer(op, parts, sl, out):
        # axis-0 rows sl of the outer op of spread vectors; only the last
        # step is block-sized, and it goes to out
        acc = parts[0][sl]
        for k in range(1, r):
            acc = op(acc, parts[k], out=out if k == r - 1 else None)
        return acc

    total = 0.0 + 0.0j
    for coeff, poly, expo, expo_0, denom in specs:
        g = [weights.astype(np.complex128) for _, weights in axes]
        if expo is not None:
            g[0] *= np.exp(expo[0] * xs[0] + expo_0)
            for k in range(1, r):
                g[k] *= np.exp(expo[k] * xs[k])
        coupled = []
        for row, const, mult in denom:
            (on,) = np.nonzero(row)
            while len(on) == 1 and mult:
                k = on[0]
                folded = g[k] / (row[k] * xs[k] + const)
                mag = np.abs(folded)
                if not (mag.min() >= 2.0**-_RANGE_EXP and mag.max() <= 2.0**_RANGE_EXP):
                    break
                g[k], mult = folded, mult - 1
            if mult:
                coupled.append((row, const, mult))
        if not coupled:
            total += coeff * sum(
                v * math.prod(complex(np.sum(x**p * g_k)) for x, p, g_k in zip(xs, e, g))
                for e, v in poly or [((0,) * r, 1.0)]
            )
            continue
        monos = [
            spread([coeff * v * xs[0] ** e[0]] + [x**p for x, p in zip(xs[1:], e[1:])])
            for e, v in poly or ()
        ]
        forms = [
            spread([row[0] * xs[0] + const] + [a * x for a, x in zip(row[1:], xs[1:])])
            for row, const, _ in coupled
        ]
        groups = _factor_groups(coupled, boxes)
        for start in range(0, len(xs[0]), rows):
            sl = slice(start, start + rows)
            num, den, lin = (buf[: len(xs[0][sl])] for buf in bufs)
            val = coeff
            for k, parts in enumerate(monos):
                mono = outer(np.multiply, parts, sl, lin if k else num)
                val = mono if k == 0 else np.add(val, mono, out=num)
            val = _term_block(
                val, lambda i, into: outer(np.add, forms[i], sl, into), groups, num, den, lin
            )
            for g_k in reversed([g[0][sl]] + g[1:]):
                val = np.einsum("...j,j->...", val, g_k)
            total += complex(val)
    return total


def _rounded(z):
    """z to 9 significant digits, so that the rounding of a change of
    coordinates cannot reorder two keys whose exact values agree."""
    z = complex(z)
    return float(f"{z.real:.8e}"), float(f"{z.imag:.8e}")


def _chart_key(arr: Arrangement, chart: Polyhedron):
    """The integrand in w = F_B v, given the chart v = F_B^-1 w: each
    hyperplane's exact row f_j F_B^-1 with its s and multiplicity, as a
    multiset, and the numerator composed with F_B^-1."""
    rows = jacobian(arr, range(len(arr.hyperplanes)), chart)
    s = [_rounded(h.s) for h in arr.hyperplanes]
    planes = sorted(zip(rows.entries, s, arr.multiplicities))
    numerator = sorted(
        ([_rounded(a) for a in t.expo.coeffs], _rounded(t.expo.const),
         _rounded(t.coeff), sorted((e, _rounded(v)) for e, v in t.poly.items()))
        for t in arr.numerator.compose_linear(chart.basis_matrix().entries).terms
    )
    return planes, numerator


def _permuted_key(key, p):
    """_chart_key of the chart whose coordinate k is coordinate p[k]."""
    planes, numerator = key
    return (
        sorted((tuple(row[k] for k in p), s, m) for row, s, m in planes),
        sorted(
            ([a[k] for k in p], a_0, c, sorted((tuple(e[k] for k in p), v) for e, v in poly))
            for a, a_0, c, poly in numerator
        ),
    )


def _hyperplane_chart(arr: Arrangement) -> Polyhedron:
    """The chart v = F_B^-1 w, for the rows F_B of r hyperplanes, in some
    order, with the largest |det F_B|; ties go to the smallest _chart_key,
    which no det-1 substitution or renaming of the hyperplanes changes, then
    to the first indices.  Each set of r rows takes one determinant and one
    inverse: reordering the rows permutes the generators, F_B^-1's columns."""
    rows = [h.f_row() for h in arr.hyperplanes]
    sets = list(itertools.combinations(range(len(rows)), arr.dim))
    mats = [RationalMatrix.from_rows(rows[i] for i in s) for s in sets]
    dets = [abs(determinant(m)) for m in mats]
    top = max(dets, default=0)
    if top == 0:
        raise NonDecaying("the hyperplanes do not span the space")
    ranked = []
    for s, m, d in zip(sets, mats, dets):
        if d == top:
            chart = Polyhedron(tuple(zip(*inverse(m).entries)))
            key = _chart_key(arr, chart)
            for p in itertools.permutations(range(arr.dim)):
                ranked.append((_permuted_key(key, p), [s[k] for k in p], chart, p))
    *_, chart, perm = min(ranked, key=lambda c: c[:2])
    return Polyhedron(tuple(chart.generators[k] for k in perm))


def _decay_profile(func: ExpRationalFunction):
    """Per-axis oscillation frequencies and the worst decay degree."""
    r = func.arity
    freqs = [0.0] * r
    for t in func.terms:
        for j, a in enumerate(t.expo.coeffs):
            a = complex(a)
            if abs(a.real) > 1e-12 * (1.0 + abs(a)):
                raise NonDecaying(f"numerator grows exponentially along axis {j + 1}")
            freqs[j] = max(freqs[j], abs(a.imag))
    worst = min(sum(m for _, m in t.denom) - t.poly.degree() for t in func.terms)
    if worst < r + 1:
        raise NonDecaying(
            f"decay degree {worst} is below the integrable threshold {r + 1}"
        )
    return freqs, worst


def _axis_cap(budget: int, r: int) -> int:
    """Nodes per axis: the largest n <= budget with n**r <= budget**2."""
    n = min(budget, round(budget ** (2 / r)))
    return n if n**r <= budget**2 else n - 1


def _tan_axis(scale: float, n: int):
    """Midpoint rule in u on (-pi/2, pi/2) for x = scale * tan(u)."""
    u = np.pi * ((np.arange(n) + 0.5) / n - 0.5)
    nodes = scale * np.tan(u)
    weights = scale * (np.pi / n) / np.cos(u) ** 2
    return nodes, weights


# Gaussian-tailed window: roll-off centered at 1.5X with sigma = X/4, so
# an oscillation of frequency w is truncated with weight exp(-(w X/4)^2/2)
# while the smooth tail error stays a power series in 1/X.
_WINDOW_EDGE = 2.75
_WINDOW_CENTER = 1.5
_WINDOW_SIGMA = 0.25
_erfc = np.vectorize(math.erfc, otypes=[float])
# Spacing d = 2 pi / (f + _ALIAS) on an axis of frequency f puts the first
# alias of the sum at frequency _ALIAS past the integrand's own, where the
# transform of a factor analytic in a strip of half-width a is down to
# exp(-a * _ALIAS): 2e-9 for poles at unit distance, so that the first two
# levels already agree to the default tolerance.  At the default box and
# budget the 2X window then fits for f up to 26.
_ALIAS = 20.0


def _window_weight(x, x_flat):
    sigma = _WINDOW_SIGMA * x_flat
    return 0.5 * _erfc((np.abs(x) - _WINDOW_CENTER * x_flat) / (sigma * np.sqrt(2.0)))


def _window_axis(x_flat: float, n: int):
    """n equally spaced midpoints of [-2.75X, 2.75X] with a Gaussian cutoff."""
    edge = _WINDOW_EDGE * x_flat
    spacing = 2.0 * edge / n
    nodes = spacing * (np.arange(n) + 0.5) - edge
    return nodes, spacing * _window_weight(nodes, x_flat)


def _refine(total, counts, budget, limit):
    """Sums at node counts doubling per axis, capped at budget.

    total maps per-axis node counts to a sum.  Stops once a sum is within
    limit * max(1, |sum|) of the previous level's, or when every axis is
    at the budget.  Returns the last two levels as (counts, sum) pairs,
    coarser first, and whether they agree.
    """
    coarse = None
    while True:
        val = total(counts)
        if coarse is not None and abs(val - coarse[1]) <= limit * max(1.0, abs(val)):
            return coarse, (counts, val), True
        if all(n >= budget for n in counts):
            return coarse, (counts, val), False
        coarse = (counts, val)
        counts = [min(2 * n, budget) for n in counts]


def _tan_map_quad(specs, r, box, tol, budget):
    coarse, (counts, val), ok = _refine(
        lambda counts: _tensor_sum(specs, [_tan_axis(box, n) for n in counts]),
        [min(64, budget)] * r, budget, tol,
    )
    if not ok:
        raise BudgetExceeded(
            f"mapped quadrature did not stabilize within {budget} nodes per axis"
        )
    return QuadratureReport(
        estimate=mpc(val),
        error_bound=float(abs(val - coarse[1])),
        box_halfwidth=float(box),
        nodes_per_axis=max(counts),
        tail_estimate=0.0,
    )


def _shell_tail(fn, r, edge, decay):
    """Conservative mass bound past the box from the decay degree and the
    integrand's peak on each face, sampled at 64 points per free axis."""
    side = np.linspace(-edge, edge, 64)
    mesh = np.meshgrid(*[side] * max(r - 1, 1), indexing="ij")
    free = np.stack([m.ravel() for m in mesh])[: r - 1]
    faces = [np.insert(free, j, sign * edge, axis=0) for j in range(r) for sign in (-1.0, 1.0)]
    pts = np.concatenate(faces, axis=1).astype(np.complex128)
    peak = float(np.max(np.abs(fn(pts))))
    return peak * r * (2.0**r) * edge**r / (decay - r)


def _windowed_quad(func, r, freqs, decay, box, tol, budget):
    specs = _term_specs(func)

    def window_sum(x_flat, counts):
        return _tensor_sum(specs, [_window_axis(x_flat, n) for n in counts])

    length = 2.0 * _WINDOW_EDGE * box
    start = [math.ceil(length * (f + _ALIAS) / (2.0 * np.pi)) for f in freqs]
    if max(start) >= budget:
        raise BudgetExceeded(
            f"the base window needs {max(start)} nodes per axis to resolve "
            f"the oscillation; the budget allows {budget}"
        )
    (counts, base), (fine_counts, fine), ok = _refine(
        lambda counts: window_sum(box, counts), start, budget, tol / 4.0
    )
    vals = [base]
    x_last = box
    nodes_used = max(fine_counts)
    # The aliasing error of a sum at spacing d is the integrand's transform
    # near 2 pi / d - f, smoothed by the window's transform, whose width
    # 4 / X is small beside it.  So wider windows at the base window's
    # coarser spacing carry the aliasing error of its coarser sum, and
    # fine - base removes it from all of them at once.  An unresolved base
    # window gets no wider ones: they would poison the extrapolation.
    for k in (1, 2):
        wider = [n * 2**k for n in counts]
        if not ok or max(wider) > budget:
            break
        vals.append(window_sum(box * 2.0**k, wider))
        x_last = box * 2.0**k
        nodes_used = max(nodes_used, max(wider))
    if len(vals) == 3:
        est = (8.0 * vals[2] - 6.0 * vals[1] + vals[0]) / 3.0
        check = 2.0 * vals[2] - vals[1]
        extrap_err = abs(est - check)
    elif len(vals) == 2:
        est = 2.0 * vals[1] - vals[0]
        extrap_err = abs(est - vals[1])
    else:
        est = vals[0]
        extrap_err = 0.0
    tail = _shell_tail(compile_numeric(func), r, _WINDOW_EDGE * x_last, decay)
    return QuadratureReport(
        estimate=mpc(est + (fine - base)),
        error_bound=float(extrap_err + abs(fine - base)),
        box_halfwidth=float(_WINDOW_EDGE * x_last),
        nodes_per_axis=nodes_used,
        tail_estimate=float(tail),
    )


def quad_integral(
    arr: Arrangement,
    box: float = DEFAULT_BOX,
    tol: float = DEFAULT_TOL,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> QuadratureReport:
    """Direct quadrature of the integral over the whole space, in the
    coordinates of _hyperplane_chart; box is a length in them."""
    for name, value in (("box", box), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    r = arr.dim
    if r > 3:
        raise ValueError("quadrature supports at most three variables")
    if arr.numerator.is_zero():
        return QuadratureReport(mpc(0), 0.0, float(box), 0, 0.0)
    func = arr.integrand_in(_hyperplane_chart(arr))
    freqs, decay = _decay_profile(func)
    budget = _axis_cap(node_budget, r)
    if all(f == 0.0 for f in freqs):
        return _tan_map_quad(_term_specs(func), r, box, tol, budget)
    return _windowed_quad(func, r, freqs, decay, box, tol, budget)


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
    rows = [arr.hyperplanes[i].f_row() for i in indices]
    a = RationalMatrix.from_rows(rows)
    if determinant(a) == 0:
        raise ValueError("chosen hyperplanes are not transverse")
    m = pole_location(arr, Flag(indices))
    a_inv = inverse(a)
    foreign = []
    for k, h in enumerate(arr.hyperplanes):
        if k in indices:
            continue
        g = complex(h.defining_form().evaluate(m))
        norm = math.sqrt(sum(float(c) ** 2 for c in h.f_row()))
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
        row = np.array([complex(c) for c in h.f_row()])
        const = complex(h.defining_form().const)
        vals = row @ pts + const
        if float(np.min(np.abs(vals))) < 1e-9 * (1.0 + float(np.max(np.abs(vals)))):
            raise ForeignPoleInsideTorus(
                f"torus passes through hyperplane H{k + 1}"
            )
    integrand = fn(pts)
    for j in range(r):
        integrand = integrand * disc[j]
    return mpc(det_ainv * complex(np.mean(integrand)))


def semicircle_check(
    func: ExpRationalFunction,
    radii,
    orientation: str = "upper",
) -> SemicircleDiagnostic:
    """Arc integrals over centered semicircles, one magnitude per radius.

    Supports the contour-closing diagnostic: decay of the magnitudes
    backs the residue expansion, growth flags divergence.  A radius whose
    arc sum is below its rounding floor takes no part in that verdict.
    """
    if func.arity != 1:
        raise ValueError("semicircle diagnostics are one-variable only")
    if orientation not in ("upper", "lower"):
        raise ValueError("orientation must be 'upper' or 'lower'")
    fn = compile_numeric(func)
    forms = []
    freq = 0.0
    for t in func.terms:
        freq = max(freq, abs(complex(t.expo.coeffs[0])))
        for f, _ in t.denom:
            forms.append((complex(f.coeffs[0]), complex(f.const)))
    lo, hi = (0.0, np.pi) if orientation == "upper" else (np.pi, 2.0 * np.pi)
    xg, wg = np.polynomial.legendre.leggauss(_PER_PANEL)
    sampled = []
    mags = []
    peaks = []
    floors = []
    for radius in radii:
        r_eff = float(radius)
        for attempt in (0, 1):
            n = int(min(200_000, max(256, 8 * (1 + freq * r_eff))))
            panels = max(8, int(math.ceil(n / _PER_PANEL)))
            bounds = np.linspace(lo, hi, panels + 1)
            half = (bounds[1:] - bounds[:-1]) / 2.0
            centers = (bounds[1:] + bounds[:-1]) / 2.0
            theta = (centers[:, None] + half[:, None] * xg[None, :]).ravel()
            wts = (half[:, None] * wg[None, :]).ravel()
            z = r_eff * np.exp(1j * theta)
            spacing = r_eff * (hi - lo) / (panels * _PER_PANEL)
            hit = False
            for a, c in forms:
                if a == 0:
                    continue
                dist = float(np.min(np.abs(a * z + c))) / abs(a)
                if dist < 3.0 * spacing:
                    hit = True
                    break
            if hit:
                if attempt == 0:
                    r_eff *= 1.07
                    continue
                raise PoleOnArc(
                    f"a pole sits on the arc near radius {radius}"
                )
            with np.errstate(over="ignore", invalid="ignore"):
                vals = fn(z[None, :]) * (1j * z)
                est = complex(np.sum(vals * wts))
                peak = float(np.max(np.abs(vals)))
                floor = _ARC_FLOOR * float(np.sum(np.abs(vals * wts)))
            break
        sampled.append(r_eff)
        mags.append(
            float(abs(est)) if math.isfinite(abs(est)) else math.inf
        )
        peaks.append(peak if math.isfinite(peak) else math.inf)
        floors.append(floor)
    # a radius whose arc sum is below its rounding floor says nothing
    kept = [g for g, f in zip(mags, floors) if not g < f]
    trending = (
        all(math.isfinite(g) for g in mags)
        and len(kept) >= 2
        and kept[-1] < 0.5 * kept[0]
        and kept[-1] <= min(kept) * (1.0 + 1e-9)
    )
    return SemicircleDiagnostic(
        radii=tuple(float(x) for x in radii),
        magnitudes=tuple(mags),
        peak_magnitudes=tuple(peaks),
        trending_to_zero=trending,
        sampled_radii=tuple(sampled),
    )

