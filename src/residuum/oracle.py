"""Numerical verification layer: full-space quadrature and semicircle arc
diagnostics.

The oracle is independent of the exact residue machinery: it shares the
symbolic function container and its one-variable residue, and uses no
flag, stability, cone or chart search.  A function with a coupled factor (a
linear factor whose row has two or more nonzero entries) in r >= 2
variables first goes to the peel (_peel): its integral over one axis, the
first that the closing rule admits, is 2 pi i times a sum of exact
residues, and the remaining r - 1 variables go on as below.  A function's
terms are read once into float64 data, one spec per term (_term_specs), and
the work falls in two stages.

* The per-axis stage, in plain Python floats: each axis' nodes and weights
  (_tan_axis, _window_axis) and, per term of a tensor sum, one vector per
  axis (_axis_vectors), with the exponential and every linear factor that
  depends on that axis alone folded in.  A term with no factor left sums
  to a product of 1-D sums.  A function with no coupled factor is also
  sampled on the shell-tail faces here (_face_values), and so are the arcs
  of semicircle_check.
* The grid stage, in numpy: the block kernel _term_block for a term's
  remaining factors on a tensor grid (_grid_stage), and the pointwise
  closure of compile_numeric for the shell-tail faces of a function with a
  coupled factor.

numpy is imported on entering the grid stage, never at module level.  So
importing this module, and residuum with it, loads none of it; neither do
analyze, eval and grouping, nor a verify in two variables that the peel
takes, nor one whose chart integrand has no coupled factor.  The per-axis
stage is plain Python float and complex arithmetic, chained through map
over builtins so that no Python code runs per node.  It does not round as
numpy does: Python divides without numpy's reciprocal and the builtin sum
adds left to right, so a sum, or a face value, may differ from numpy's in
its last bits.  A value that leaves float64's range in either stage raises
OutOfFloatRange.

quad_integral integrates in hyperplane coordinates w = F_B v, F_B holding
the rows f_j of r hyperplanes with the largest |det F_B|: the trapezoid rule
converges geometrically only where the integrand is smooth along the grid
axes, and the poles lie on the hyperplanes.  A det-1 substitution v = U u
changes neither det F_B nor any row f_j F_B^-1, so the integrand in w,
Arrangement.integrand_in of the chart F_B^-1, and every node and sum, does
not depend on how the problem is written.  Box lengths are lengths in w.
In these coordinates the chosen hyperplanes' own factors depend on one
axis each, since their rows f_j F_B^-1 are exact unit vectors: a product
of one-variable factors has no coupled factor however it is written.  The
peel tries the axes in the chart's order, which is canonical too.

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
itself for r <= 2, 256 of the default 4096 for r = 3) when a factor is
coupled, and at node_budget when none is, since a level then costs r n
evaluations, not n**r; a sum is accepted when it agrees with the previous
level's.  The reported error is that difference.  On a function that is
periodic and analytic in a strip, or analytic and rapidly decaying on the
line, the trapezoid error falls geometrically with the number of nodes
(Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Review 56, 2014), so the finer sum is far more accurate than the
difference says.

tail_estimate deliberately ignores oscillatory cancellation: it bounds
the raw mass beyond the last window from the decay degree, so it is
conservative but always an upper bound.

One kernel, _term_block, evaluates a term on a block of about 32,768
points, for the grid sums and the closure alike, in buffers that stay in
L2 cache; _face_values repeats its operations in its order, on lists.  On
a tensor grid only the polynomial and the factors left per point are done
per point, multiplied in groups whose products provably stay within
float64's range (_factor_groups), and the numerator is divided once per
group.  No BLAS routine takes part, so repeated sums are bitwise equal.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from array import array
from operator import add, mul, truediv
from typing import NamedTuple

from mpmath import mpc

from .arrangement import Arrangement, Polyhedron, jacobian
from .exact_linalg import RationalMatrix, _getter, determinant, inverse
from .symfun import ExpRationalFunction

DEFAULT_BOX = 50.0
DEFAULT_TOL = 1e-6
DEFAULT_NODE_BUDGET = 4096
# Gauss-Legendre points per panel of the semicircle arc rule
_PER_PANEL = 12
# An arc sum below _ARC_FLOOR * sum |vals * wts|, 64 float64 epsilons of
# the sum of its terms' magnitudes, is rounding noise.
_ARC_FLOOR = 64.0 * sys.float_info.epsilon


class NonDecaying(Exception):
    """Integrand does not decay fast enough for absolute convergence."""


class BudgetExceeded(Exception):
    """Node budget exhausted before the refinement stabilized."""


class OutOfFloatRange(Exception):
    """A value of the integrand or of a quadrature sum leaves float64's range."""


class PoleOnArc(Exception):
    """A denominator factor vanishes on the sampled arc."""


class QuadratureReport(NamedTuple):
    estimate: mpc
    error_bound: float
    box_halfwidth: float
    nodes_per_axis: int
    tail_estimate: float
    peeled: int | None = None  # the axis _peel integrated by residues


class SemicircleDiagnostic(NamedTuple):
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
    """The float64 data of each term, shared by both stages.

    One (coeff, poly, expo, expo_0, denom) tuple per term, of Python
    complex numbers.  poly lists (exponents, value) monomials, or is None
    when the polynomial is a single constant, which is then folded into
    coeff.  expo holds the exponent's per-axis coefficients, a tuple, and
    expo_0 its constant, or both are None when the term has no
    exponential.  denom lists (row, const, mult) per linear factor, in the
    term's order, with row a tuple.
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
        expo = tuple(complex(a) for a in t.expo.coeffs)
        expo_0 = complex(t.expo.const)
        if not (any(expo) or expo_0 != 0):
            expo = expo_0 = None
        denom = [(tuple(complex(a) for a in f.coeffs), complex(f.const), m) for f, m in t.denom]
        specs.append((coeff, poly, expo, expo_0, denom))
    return specs


def _is_coupled(specs) -> bool:
    """Whether a term has a coupled factor, a row of two or more nonzero entries."""
    return any(sum(map(bool, row)) > 1 for *_, denom in specs for row, _, _ in denom)


# Points per block of the integrand kernel.  Its three complex buffers then
# take 1.5 MB together and stay in L2 cache: on a 2-vCPU Xeon VM (2 MB of
# L2 per core), the quadrature of the sheared r=2 product with omega=(1,2),
# its four factors per point, took 0.50, 0.47, 0.57 and 0.80 s at 8,192,
# 32,768, 131,072 and 600,000.
_BLOCK_POINTS = 32_768
# Every partial product of a group of linear factors, and every entry of
# a folded per-axis vector, stays within 2**-_RANGE_EXP .. 2**_RANGE_EXP,
# well inside float64's normal range (2**-1022 .. 2**1024).
_RANGE_EXP = 960
_LN2 = math.log(2.0)


# ---- the per-axis stage: plain Python floats ---------------------------------------


# The per-axis stage keeps nodes, weights and other float vectors in
# array("d"), 8 bytes an entry against 32 for a list of floats: the grid
# stage's peak memory then holds no more of them than numpy's arrays did.


def _tan_axis(scale: float, n: int):
    """Midpoint rule in u on (-pi/2, pi/2) for x = scale * tan(u)."""
    u = [math.pi * ((k + 0.5) / n - 0.5) for k in range(n)]
    nodes = array("d", [scale * math.tan(x) for x in u])
    weights = array("d", [scale * (math.pi / n) / (c * c) for c in map(math.cos, u)])
    return nodes, weights


# Gaussian-tailed window: roll-off centered at 1.5X with sigma = X/4, so
# an oscillation of frequency w is truncated with weight exp(-(w X/4)^2/2)
# while the smooth tail error stays a power series in 1/X.
_WINDOW_EDGE = 2.75
_WINDOW_CENTER = 1.5
_WINDOW_SIGMA = 0.25
# Spacing d = 2 pi / (f + _ALIAS) on an axis of frequency f puts the first
# alias of the sum at frequency _ALIAS past the integrand's own, where the
# transform of a factor analytic in a strip of half-width a is down to
# exp(-a * _ALIAS): 2e-9 for poles at unit distance, so that the first two
# levels already agree to the default tolerance.  At the default box and
# budget the 2X window then fits for f up to 26.
_ALIAS = 20.0


def _window_weight(x, x_flat: float) -> array:
    """The window at each of the nodes x."""
    center, scale = _WINDOW_CENTER * x_flat, _WINDOW_SIGMA * x_flat * math.sqrt(2.0)
    return array("d", [0.5 * math.erfc((abs(v) - center) / scale) for v in x])


def _window_axis(x_flat: float, n: int):
    """n equally spaced midpoints of [-2.75X, 2.75X] with a Gaussian cutoff."""
    edge = _WINDOW_EDGE * x_flat
    spacing = 2.0 * edge / n
    nodes = array("d", [spacing * (k + 0.5) - edge for k in range(n)])
    return nodes, array("d", [spacing * w for w in _window_weight(nodes, x_flat)])


def _axis_vectors(xs, ws, boxes, expo, expo_0, denom):
    """One term's per-axis vectors g_k = w_k exp(a_k x + c_k) / prod (b x + c)^m,
    c_0 = expo_0 and c_k = 0 on the other axes, the product over the copies
    of the factors that depend on axis k alone that fold, and the linear
    factors it leaves per point.

    Copies fold in the term's order while their log2 bounds on the boxes
    (_form_bounds), summed as _factor_groups sums them, keep the product and
    g_k, on the bounds of |w e| from the extremes of w and x, within
    2**+-_RANGE_EXP; a factor's other copies stay per point.  Each g_k is
    built in one pass of maps over builtins.  Returns g and the (row, const,
    mult) of the factors, or copies, left.
    """
    a_s = expo or [0j] * len(xs)
    c_s = [expo_0 or 0j] + [0j] * (len(xs) - 1)
    # per axis, log2 bounds of the folded product and of g_k: (lo, hi) each
    bounds = []
    for w, (x_lo, x_hi, _, _), a, c in zip(ws, boxes, a_s, c_s):
        w_lo, w_hi = min(w), max(w)
        e_lo, e_hi = sorted((c.real + a.real * x_lo, c.real + a.real * x_hi))
        g_lo = math.log2(w_lo) + e_lo / _LN2 if w_lo > 0 else -math.inf
        bounds.append((0.0, 0.0, g_lo, math.log2(w_hi) + e_hi / _LN2))
    folded = [[] for _ in xs]
    left = []
    for row, const, mult in denom:
        on = [k for k, a in enumerate(row) if a]
        copies = 0
        if len(on) == 1:
            k = on[0]
            lower, upper = _form_bounds(row, const, boxes)
            up = math.log2(upper) if upper > 0 else -math.inf
            down = math.log2(lower) if lower > 0 else -math.inf
            while copies < mult:
                p_lo, p_hi, g_lo, g_hi = bounds[k]
                step = (p_lo + down, p_hi + up, g_lo - up, g_hi - down)
                if not all(-_RANGE_EXP <= v <= _RANGE_EXP for v in step):
                    break
                bounds[k] = step
                copies += 1
            if copies:
                folded[k].append((row[k], const, copies))
        if copies < mult:
            left.append((row, const, mult - copies))
    g, built = [], {}
    for x, w, a, c, factors in zip(xs, ws, a_s, c_s, folded):
        # an axis with an earlier one's nodes, weights, exponent slope and
        # folded factors, neither with an exponent constant, shares its vector
        key = (id(x), id(w), a, tuple(factors))
        if not c and key in built:
            g.append(built[key])
            continue
        vec = map(mul, w, map(cmath.exp, map(c.__add__, map(a.__mul__, x)))) if a or c else w
        prod = None
        for b, const, copies in factors:
            base = map(const.__add__, map(b.__mul__, x))
            if copies > 1:
                base = map(pow, base, itertools.repeat(copies))
            prod = base if prod is None else map(mul, prod, base)
        if prod is not None:
            vec = map(truediv, vec, prod)
        g.append(vec if vec is w else list(vec))
        if not c:
            built[key] = g[-1]
    return g, left


def _face_points(r: int, edge: float) -> list:
    """The shell tail's sample of the faces of [-edge, edge]^r, as r columns
    of coordinates: face by face (axis, then sign), 64 points per free axis,
    those of np.linspace, in C order, and one point per face at r = 1."""
    step = 2.0 * edge / 63
    side = [k * step - edge for k in range(63)] + [edge]
    free = list(itertools.product(side, repeat=r - 1))
    faces = [(j, sign * edge) for j in range(r) for sign in (-1.0, 1.0)]
    return [
        array("d", [x if k == j else p[k - (k > j)] for j, x in faces for p in free])
        for k in range(r)
    ]


def _forms_at(row, const, cols) -> list:
    """row . p + const at each point p, one axis at a time, as _linear adds;
    cols holds the points' coordinates axis by axis."""
    acc = [const] * len(cols[0])
    for a, col in zip(row, cols):
        if a != 0:
            acc = list(map(add, acc, col)) if a == 1 else [s + z * a for s, z in zip(acc, col)]
    return acc


def _face_values(specs, points, boxes) -> list:
    """The integrand at real points, given as columns of coordinates, in the
    per-axis stage: by compile_numeric's operations in its order, with a
    list in place of each array.  boxes bound the points per axis, for
    _factor_groups."""
    cols = [[complex(x) for x in col] for col in points]
    n = len(cols[0])
    out = [0j] * n
    for coeff, poly, expo, expo_0, denom in specs:
        val = [coeff] * n
        for k, (e, v) in enumerate(poly or ()):
            mono = [coeff * v] * n
            for col, m in zip(cols, e):
                if m:
                    mono = [a * z**m for a, z in zip(mono, col)]
            val = mono if k == 0 else list(map(add, val, mono))
        if expo is not None:
            val = [a * cmath.exp(f) for a, f in zip(val, _forms_at(expo, expo_0, cols))]
        for group in _factor_groups(denom, boxes):
            prod = None
            for i, copies in group:
                row, const, _ = denom[i]
                base = _forms_at(row, const, cols)
                for _ in range(copies):
                    prod = base if prod is None else list(map(mul, prod, base))
            val = list(map(truediv, val, prod))
        out = list(map(add, out, val))
    return out


def _tensor_sum(specs, axes, chunk_points=_BLOCK_POINTS):
    """Weighted sum of the integrand over the tensor grid of 1 to 3 axes,
    each a (nodes, weights) pair of float vectors.

    Per term, _axis_vectors folds the weights, the exponential and the
    single-axis factors into per-axis vectors g_k.  A term with no factor
    left sums to coeff * sum_monomials v * prod_k sum_j x_kj**e_k g_kj, in
    the per-axis stage, each inner sum by the builtin sum over a map; the
    others go to the grid stage (_grid_stage).
    """
    xs = [nodes for nodes, _ in axes]
    ws = [weights for _, weights in axes]
    boxes = [(min(x), max(x), 0.0, 0.0) for x in xs]
    r = len(xs)
    grid = None
    total = 0.0 + 0.0j
    for coeff, poly, expo, expo_0, denom in specs:
        g, left = _axis_vectors(xs, ws, boxes, expo, expo_0, denom)
        if left:
            grid = grid or _grid_stage(xs, boxes, chunk_points)
            total = grid(total, coeff, poly, left, g)
            continue
        total += coeff * sum(
            v * math.prod(
                sum(map(mul, map(pow, x_k, itertools.repeat(p)), g_k) if p else g_k)
                for x_k, p, g_k in zip(xs, e, g)
            )
            for e, v in poly or [((0,) * r, 1.0)]
        )
    if not cmath.isfinite(total):
        raise OutOfFloatRange("a quadrature sum leaves the float64 range")
    return total


# ---- the grid stage: numpy ---------------------------------------------------------


def _grid_stage(xs, boxes, chunk_points):
    """The tensor grid of the node vectors xs, for the terms that keep
    factors per point: ``add_term(total, coeff, poly, left, g)`` returns
    total plus the sum of one such term, given its per-axis vectors g and
    the factors left as _axis_vectors gives them.

    Monomials and the linear forms left are outer products and sums of
    per-axis vectors, by broadcasting.  _term_block evaluates the term in
    blocks of axis-0 rows, of shape (rows, n_1, n_2) and about chunk_points
    points, and einsum contracts each block with g_{r-1}, ..., g_0 in
    turn: 2-3 ns per point on a 2-vCPU Xeon VM, against 5-10 for one einsum
    over all r vectors.  Its default optimize=False calls no BLAS routine,
    so the sum does not depend on the thread count.  An overflow raises
    OutOfFloatRange.
    """
    import numpy as np

    xs = [np.array(x) for x in xs]
    r = len(xs)
    rest = tuple(len(x) for x in xs[1:])
    rows = max(1, min(len(xs[0]), chunk_points // math.prod(rest)))
    bufs = [np.empty((rows,) + rest, dtype=np.complex128) for _ in range(3)]

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

    def add_term(total, coeff, poly, left, g):
        g = [np.array(g_k, dtype=np.complex128) for g_k in g]
        monos = [
            spread([coeff * v * xs[0] ** e[0]] + [x**p for x, p in zip(xs[1:], e[1:])])
            for e, v in poly or ()
        ]
        forms = [
            spread([row[0] * xs[0] + const] + [a * x for a, x in zip(row[1:], xs[1:])])
            for row, const, _ in left
        ]
        groups = _factor_groups(left, boxes)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
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

    return add_term


def _box(values):
    """Per-axis node bounds: the rectangle in C that holds the values."""
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    out.fill(coeff)
    for j, k in enumerate(exponents):
        if k:
            np.multiply(out, np.power(p[j], k, out=tmp), out=out)
    return out


def _linear(row, const, p, out, tmp):
    """row . p + const on a block of points, one axis at a time, into out."""
    import numpy as np

    out.fill(const)
    for j, a in enumerate(row):
        if a != 0:
            np.add(out, p[j] if a == 1 else np.multiply(p[j], a, out=tmp), out=out)
    return out


def _rounded(z):
    """z to 9 significant digits, so that the rounding of a change of
    coordinates cannot reorder two keys whose exact values agree.  An exact
    z beyond the float64 range is a ValueError."""
    try:
        z = complex(z)
    except OverflowError:
        raise ValueError("an exact constant exceeds the float64 range") from None
    return float(f"{z.real:.8e}"), float(f"{z.imag:.8e}")


def _chart_key(arr: Arrangement, chart: Polyhedron, rows: RationalMatrix):
    """The integrand in w = F_B v, given the chart v = F_B^-1 w and its rows
    F F_B^-1 (``jacobian``): each hyperplane's exact row f_j F_B^-1 with its
    s and multiplicity, as a multiset, and the numerator composed with F_B^-1."""
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


def _hyperplane_chart(arr: Arrangement) -> tuple[Polyhedron, RationalMatrix]:
    """The chart v = F_B^-1 w, for the rows F_B of r hyperplanes, in some
    order, with the largest |det F_B|, and its rows F F_B^-1; ties go to the
    smallest _chart_key, which no det-1 substitution or renaming of the
    hyperplanes changes, then to the first indices.  Each set of r rows
    takes one determinant, one inverse and one ``jacobian``: reordering the
    rows permutes the generators, F_B^-1's columns, and the rows' entries."""
    f_rows = [h.f for h in arr.hyperplanes]
    sets = list(itertools.combinations(range(len(f_rows)), arr.dim))
    mats = [RationalMatrix(tuple(f_rows[i] for i in s)) for s in sets]
    dets = [abs(determinant(m)) for m in mats]
    top = max(dets, default=0)
    if top == 0:
        raise NonDecaying("the hyperplanes do not span the space")
    ranked = []
    for s, m, d in zip(sets, mats, dets):
        if d == top:
            chart = Polyhedron(tuple(zip(*inverse(m).entries)))
            rows = jacobian(arr, range(len(f_rows)), chart)
            key = _chart_key(arr, chart, rows)
            for p in itertools.permutations(range(arr.dim)):
                ranked.append((_permuted_key(key, p), [s[k] for k in p], chart, rows, p))
    *_, chart, rows, perm = min(ranked, key=lambda c: c[:2])
    permute = _getter(perm)
    return Polyhedron(permute(chart.generators)), RationalMatrix(tuple(map(permute, rows.entries)))


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


def _axes(make, counts) -> list:
    """make(n) for each axis' node count n, built once per distinct count."""
    made = {n: make(n) for n in set(counts)}
    return [made[n] for n in counts]


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
        lambda counts: _tensor_sum(specs, _axes(lambda n: _tan_axis(box, n), counts)),
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


def _face_peak(func, specs, r, edge):
    """The integrand's peak magnitude on the _face_points of [-edge, edge]^r:
    through the pointwise closure when a factor is coupled, else in the
    per-axis stage."""
    points = _face_points(r, edge)
    if not _is_coupled(specs):
        mags = list(map(abs, _face_values(specs, points, [(-edge, edge, 0.0, 0.0)] * r)))
        # max() may pass over a nan, which np.max would return
        return math.nan if any(map(math.isnan, mags)) else max(mags)
    import numpy as np

    with np.errstate(over="raise", invalid="raise", divide="raise"):
        values = compile_numeric(func)(np.array(points, dtype=np.complex128))
        return float(np.max(np.abs(values)))


def _shell_tail(peak, r, edge, decay):
    """Conservative mass bound past the box [-edge, edge]^r from the decay
    degree and the integrand's peak on its faces (_face_peak); the bound
    itself may be inf."""
    if not math.isfinite(peak):
        raise OutOfFloatRange("the integrand leaves the float64 range on the box's faces")
    return peak * r * (2.0**r) * edge**r / (decay - r)


def _windowed_quad(func, specs, r, freqs, decay, box, tol, budget):
    def window_sum(x_flat, counts):
        return _tensor_sum(specs, _axes(lambda n: _window_axis(x_flat, n), counts))

    length = 2.0 * _WINDOW_EDGE * box
    start = [math.ceil(length * (f + _ALIAS) / (2.0 * math.pi)) for f in freqs]
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
    edge = _WINDOW_EDGE * x_last
    tail = _shell_tail(_face_peak(func, specs, r, edge), r, edge, decay)
    return QuadratureReport(
        estimate=mpc(est + (fine - base)),
        error_bound=float(extrap_err + abs(fine - base)),
        box_halfwidth=float(edge),
        nodes_per_axis=nodes_used,
        tail_estimate=float(tail),
    )


def _peel(func: ExpRationalFunction, k: int):
    """The integral of func over axis k by residues: the function G of the
    other r - 1 axes with int f dw_k = 2 pi i G at each of their real
    points, or None where the closing rule refuses.

    Decided exactly on each entry's integer pair.  A term closes upward
    when Im lambda_k > 0, downward when it is < 0, each with a w_k-degree
    gap (the multiplicities of the factors in w_k less P's degree in w_k)
    of at least 1, and upward with a gap of at least 2 when lambda_k = 0;
    a real part of lambda_k refuses.  Where a factor's pole w_k =
    solve_for(k) has real slopes, the sign of its constant's imaginary part
    places it in a half plane for every real point; a pole with a slope
    off the real line, or on the real axis, refuses.  G sums the residues
    of the upward terms at the upper poles less those of the downward
    terms at the lower poles, each distinct pole taken once; a factor of G
    with a real zero refuses too.
    """
    sides, poles = ([], []), ({}, {})  # (upward, downward), poles as dict keys
    for t in func.terms:
        lam_re, lam_im = t.expo._v[k]
        down = lam_im < 0
        on = [(f, m) for f, m in t.denom if any(f._v[k])]
        gap = sum(m for _, m in on) - max(e[k] for e, _ in t.poly.items())
        if lam_re or gap < (1 if lam_im else 2):
            return None
        sides[down].append(t)
        for f, _ in on:
            pole = f.solve_for(k)
            *slope, (_, im) = pole._v
            if im == 0 or any(b for _, b in slope):
                return None
            if (im < 0) == down:
                poles[down][pole] = None
    rest = ExpRationalFunction(func.arity - 1)
    for down, terms in enumerate(sides):
        for pole in poles[down]:
            res = ExpRationalFunction(func.arity, terms).residue_1d(k, pole)
            rest = rest.add(res.scale(-1) if down else res)
    for t in rest.terms:
        for f, _ in t.denom:
            *slope, (_, im) = f._v
            if im == 0 and any(a for a, _ in slope) and not any(b for _, b in slope):
                return None
    return rest


def _quadrature(func: ExpRationalFunction, box: float, tol: float, node_budget: int):
    """The per-axis or grid stage on a function of 1 to 3 variables."""
    r = func.arity
    if func.is_zero():
        return QuadratureReport(mpc(0), 0.0, float(box), 0, 0.0)
    freqs, decay = _decay_profile(func)
    specs = _term_specs(func)
    # a level of a sum with no coupled factor costs r n, not n**r, evaluations
    budget = _axis_cap(node_budget, r) if _is_coupled(specs) else node_budget
    try:
        if all(f == 0.0 for f in freqs):
            return _tan_map_quad(specs, r, box, tol, budget)
        return _windowed_quad(func, specs, r, freqs, decay, box, tol, budget)
    except (OverflowError, ZeroDivisionError, FloatingPointError):
        # cmath.exp beyond the range, a quotient by an exact zero, or a
        # numpy operation under the grid stage's errstate
        raise OutOfFloatRange("the integrand leaves the float64 range") from None


def quad_integral(
    arr: Arrangement,
    box: float = DEFAULT_BOX,
    tol: float = DEFAULT_TOL,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> QuadratureReport:
    """Direct quadrature of the integral over the whole space, in the
    coordinates of _hyperplane_chart; box is a length in them.  A function
    with a coupled factor in two or three variables is integrated over the
    first axis that _peel takes and whose remainder _decay_profile admits,
    then over the others to tol / 2 pi; with no such axis, on the grid.
    Raises OutOfFloatRange when a value or a sum leaves float64's range."""
    for name, value in (("box", box), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    r = arr.dim
    if r > 3:
        raise ValueError("quadrature supports at most three variables")
    if arr.numerator.is_zero():
        return QuadratureReport(mpc(0), 0.0, float(box), 0, 0.0)
    func = arr._pullback(*_hyperplane_chart(arr))[0]
    if r > 1 and _is_coupled(_term_specs(func)):
        for k in range(r):
            rest = _peel(func, k)
            if rest is None:
                continue
            try:
                q = _quadrature(rest, box, tol / (2.0 * math.pi), node_budget)
            except NonDecaying:
                continue
            two_pi = 2.0 * math.pi
            return QuadratureReport(
                mpc(complex(q.estimate) * 1j * two_pi), two_pi * q.error_bound,
                q.box_halfwidth, q.nodes_per_axis, two_pi * q.tail_estimate, k,
            )
    return _quadrature(func, box, tol, node_budget)


def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], nodes ascending: each
    node by Newton's method on P_n from -cos(pi (i + 3/4) / (n + 1/2)), its
    weight 2 / ((1 - x^2) P_n'(x)^2)."""
    nodes, weights = [], []
    for i in range(n):
        x = -math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(6):
            p, q = x, 1.0  # P_j and P_(j-1) at x, by Bonnet's recurrence
            for j in range(2, n + 1):
                p, q = ((2 * j - 1) * x * p - (j - 1) * q) / j, p
            slope = n * (x * p - q) / (x * x - 1.0)
            x -= p / slope
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * slope * slope))
    return nodes, weights


def semicircle_check(func: ExpRationalFunction, radii) -> SemicircleDiagnostic:
    """Arc integrals over centered upper semicircles, one magnitude per radius.

    Supports the contour-closing diagnostic: decay of the magnitudes
    backs the residue expansion, growth flags divergence.  A radius whose
    arc sum is below its rounding floor takes no part in that verdict.
    The arc's values are taken in the per-axis stage (_face_values) and
    summed by ``math.fsum``, real and imaginary parts apart, so a cancelling
    arc sum is its terms' correctly rounded sum, whatever their order; an
    arc on which a value leaves float64's range (or sums to inf - inf) has
    infinite magnitude and peak.
    """
    if func.arity != 1:
        raise ValueError("semicircle diagnostics are one-variable only")
    specs = _term_specs(func)
    forms = [(row[0], const) for *_, denom in specs for row, const, _ in denom if row[0]]
    freq = max((abs(expo[0]) for _, _, expo, _, _ in specs if expo), default=0.0)
    xg, wg = _gauss_legendre(_PER_PANEL)
    sampled = []
    mags = []
    peaks = []
    floors = []
    for radius in radii:
        r_eff = float(radius)
        for attempt in (0, 1):
            n = int(min(200_000, max(256, 8 * (1 + freq * r_eff))))
            panels = max(8, int(math.ceil(n / _PER_PANEL)))
            bounds = [j * (math.pi / panels) for j in range(panels)] + [math.pi]
            theta, wts = [], []
            for lo, hi in zip(bounds, bounds[1:]):
                half, center = (hi - lo) / 2.0, (hi + lo) / 2.0
                theta += [center + half * x for x in xg]
                wts += [half * w for w in wg]
            z = [r_eff * cmath.exp(complex(0.0, t)) for t in theta]
            spacing = r_eff * math.pi / (panels * _PER_PANEL)
            if any(min(abs(a * x + c) for x in z) / abs(a) < 3.0 * spacing for a, c in forms):
                if attempt == 0:
                    r_eff *= 1.07
                    continue
                raise PoleOnArc(
                    f"a pole sits on the arc near radius {radius}"
                )
            re, im = [x.real for x in z], [x.imag for x in z]
            try:
                vals = _face_values(specs, [z], [(min(re), max(re), min(im), max(im))])
                vals = [v * (1j * x) for v, x in zip(vals, z)]
                terms = list(map(mul, vals, wts))
                est = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
                sizes = list(map(abs, vals))
                # max() may pass over a nan, which np.max would return
                peak = math.nan if any(map(math.isnan, sizes)) else max(sizes)
                floor = _ARC_FLOOR * sum(abs(v * w) for v, w in zip(vals, wts))
            except (OverflowError, ValueError, ZeroDivisionError):
                est, peak, floor = math.inf, math.inf, 0.0
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
