"""Shared problem builders used across the test suite.

Two reference problems recur everywhere:

* the three-plane product-power problem: numerator n1^(ix-s1) n2^(iy-s2) over
  (-x-is1)(-y-is2)(x+y-is3), whose exact value is
  (2 pi i)^2 i max(n1,n2)^(-(s1+s2+s3)) / (s1+s2+s3) for a suitable cone;
* the coincident-point problem: exp(2 pi i (x+2y)) over (x-i)(y-i)(x+y-2i),
  where all three hyperplanes pass through (i, i).

disguise rewrites an arrangement by a det-1 integer substitution and a
renaming of its hyperplanes, which leave every integral unchanged.

trace_residue is an independent numerical oracle for two-variable
Grothendieck residues; it uses no flags and no charts.  z_star evaluates the
sequential pole formula of one flag, the closed form the stability verdicts
are checked against.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
from mpmath import log as mp_log
from mpmath import mpc, mpf, pi

from reference import defining_form
from residuum.arrangement import (
    Arrangement,
    Flag,
    Hyperplane,
    InsolubleFlag,
    Polyhedron,
    canonicalize_hyperplane,
    jacobian,
)
from residuum.exact_linalg import GaussianRational, MinorProfile, minor_profile
from residuum.symfun import AffineForm, ExpRationalFunction, to_mpc


def cone(*generators) -> Polyhedron:
    return Polyhedron.from_generators(generators)


CONE_UPPER = ((1, 0), (0, 1))
CONE_LEFT = ((-1, 1), (0, 1))
CONE_RIGHT = ((1, -1), (1, 0))
CONE_WIDE = ((1, 0), (-1, 1))


def power_numerator(bases, exponents_linear, exponents_const) -> ExpRationalFunction:
    """prod_k base_k^(<a_k, z> + c_k) as a single exponential term."""
    arity = len(exponents_linear[0])
    coeffs = [to_mpc(0)] * arity
    const = to_mpc(0)
    for base, lin, c in zip(bases, exponents_linear, exponents_const):
        ln_b = mp_log(to_mpc(base))
        for j, a in enumerate(lin):
            coeffs[j] = coeffs[j] + ln_b * to_mpc(a)
        const = const + ln_b * to_mpc(c)
    return ExpRationalFunction.from_parts(
        arity, expo=AffineForm.make(coeffs, const)
    )


# i, exact: -I * s is exact for an int or Fraction s, and for an mpc s the
# same bits as -mpc(0, 1) * s
I = GaussianRational(Fraction(0), Fraction(1))


def plane(f, s) -> Hyperplane:
    """The hyperplane f . v = i s, as the DSL lowers (f . v - i s)."""
    return canonicalize_hyperplane(list(f), -I * s)


def three_plane_problem(n1, n2, s=(1, 1, 1)) -> Arrangement:
    """n1^(ix-s1) n2^(iy-s2) / ((-x-is1)(-y-is2)(x+y-is3)) on R^2."""
    hps = [plane(f, v) for f, v in zip([(-1, 0), (0, -1), (1, 1)], s)]
    s1, s2 = (to_mpc(v) for v in s[:2])
    num = power_numerator(
        [n1, n2],
        [(mpc(0, 1), 0), (0, mpc(0, 1))],
        [-s1, -s2],
    )
    return Arrangement.build(2, hps, numerator=num)


def three_plane_value(n1, n2, s=(1, 1, 1)) -> mpc:
    """(2 pi i)^2 i max(n1,n2)^(-(s1+s2+s3)) / (s1+s2+s3)."""
    s_sum = sum(to_mpc(v) for v in s)
    two_pi_i = 2 * pi * mpc(0, 1)
    from mpmath import exp as mp_exp
    from mpmath import log as mp_log2

    return (
        two_pi_i ** 2
        * mpc(0, 1)
        * mp_exp(-s_sum * mp_log2(to_mpc(max(n1, n2))))
        / s_sum
    )


def coincident_point_problem() -> Arrangement:
    """exp(2 pi i (x+2y)) / ((x-i)(y-i)(x+y-2i)) on R^2."""
    hps = [plane((1, 0), 1), plane((0, 1), 1), plane((1, 1), 2)]
    num = ExpRationalFunction.from_parts(
        2, expo=AffineForm.make([2 * pi * mpc(0, 1), 4 * pi * mpc(0, 1)], 0)
    )
    return Arrangement.build(2, hps, numerator=num)


def h_partials():
    """partial_x h(i,i) and partial_y h(i,i) for h = exp(2 pi i (x+2y))."""
    from mpmath import exp as mp_exp

    h_val = mp_exp(-6 * pi)
    return 2 * pi * mpc(0, 1) * h_val, 4 * pi * mpc(0, 1) * h_val


def single_pole_problem(s=1) -> Arrangement:
    """1 / (x^2 + s^2) on R, presented by its two polar factors.

    x^2 + s^2 = (x - is)(-x - is) * (-1)?  Check: (x-is)(x+is) = x^2+s^2, and
    x+is = -(-x-is), so the canonical factors are (x-is) and (-x-is) with an
    overall sign flip absorbed into the numerator.
    """
    hps = [plane((1,), s), plane((-1,), s)]
    num = ExpRationalFunction.from_parts(1, coeff=-1)
    return Arrangement.build(1, hps, numerator=num)


def disguise(arr: Arrangement, seed: int, shear_steps: int = 3) -> Arrangement:
    """The same integrand in new coordinates, for r >= 2.

    v = U u for a det-1 integer U made of shear_steps random elementary
    shears, so each row f_j becomes f_j U and the numerator N(U u), exact
    when N is; the hyperplanes are then renamed by a random permutation
    (``disguise_map``).  The integral over R^r is unchanged.  (The
    benchmark's problems.disguise does the same to problem text; the tests
    do not import the benchmark.)
    """
    r = arr.dim
    u, order = disguise_map(r, len(arr.hyperplanes), seed, shear_steps)
    hps = [
        Hyperplane(
            f=tuple(sum(a * row[k] for a, row in zip(h.f, u)) for k in range(r)),
            s=h.s,
        )
        for h in (arr.hyperplanes[p] for p in order)
    ]
    return Arrangement.build(
        r,
        hps,
        numerator=arr.numerator.compose([AffineForm(tuple(row), 0) for row in u]),
        multiplicities=[arr.multiplicities[p] for p in order],
    )


def disguise_map(r: int, count: int, seed: int, shear_steps: int = 3) -> tuple:
    """``disguise``'s U, as a list of integer rows, and its permutation:
    hyperplane p of the disguised arrangement is hyperplane order[p] of the
    original, of ``count``."""
    rng = random.Random(seed)
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(shear_steps):
        i, j = rng.sample(range(r), 2)
        c = rng.choice((-1, 1))
        # column j += c column i
        for row in u:
            row[j] += c * row[i]
    order = list(range(count))
    rng.shuffle(order)
    return u, order


def trace_residue(arr, groups, point, radii=(mpf("1e-8"), mpf("1e-4")), nodes=8):
    """Res_p[h dz / (F_1 F_2)] for r = 2 by the trace formula.

    F_k is the product of the defining forms of the hyperplanes in
    groups[k], h the numerator; one group must be a single hyperplane.
    The residue is the mean over the torus |w_k| = radii[k] of
    sum h(z) / det J_F(z) over the preimages z of F(z) = w near the point
    (Griffiths & Harris, Principles of Algebraic Geometry, ch. 5).  The
    sum is holomorphic in w, so the mean recovers its value at w = 0.
    The preimages come from solving the linear group for one variable and
    taking the roots of the product group, a polynomial in the other, with
    mpmath.polyroots.  The default radii keep the torus off the branch
    locus w_lin^2 = +-4 w_prod of two factors through the point.
    """
    assert arr.dim == 2 and all(m == 1 for m in arr.multiplicities)
    forms = [[defining_form(arr.hyperplanes[i]) for i in sorted(g)] for g in groups]
    lin = 0 if len(forms[0]) == 1 else 1
    assert len(forms[lin]) == 1, "one group must be a single hyperplane"
    (a,) = forms[lin]
    e = 0 if abs(a.coeffs[0]) >= abs(a.coeffs[1]) else 1  # eliminated variable
    o = 1 - e

    def gradient(group, z):
        grad = [mpc(0), mpc(0)]
        for k, g in enumerate(group):
            rest = mpc(1)
            for l, other in enumerate(group):
                if l != k:
                    rest *= other.evaluate(z)
            grad = [grad[j] + g.coeffs[j] * rest for j in range(2)]
        return grad

    total = mpc(0)
    for j0 in range(nodes):
        for j1 in range(nodes):
            w = [
                radii[0] * mpmath.expjpi(mpf(2 * j0) / nodes),
                radii[1] * mpmath.expjpi(mpf(2 * j1) / nodes),
            ]
            # z_e = (w_lin - a_const - a_o z_o) / a_e, so each factor of the
            # product group is beta z_o + delta; coefficients lowest first
            poly = [mpc(1)]
            for b in forms[1 - lin]:
                beta = b.coeffs[o] - b.coeffs[e] * a.coeffs[o] / a.coeffs[e]
                delta = b.const + b.coeffs[e] * (w[lin] - a.const) / a.coeffs[e]
                poly = [
                    (poly[k] if k < len(poly) else 0) * delta
                    + (poly[k - 1] * beta if k > 0 else 0)
                    for k in range(len(poly) + 1)
                ]
            poly[0] -= w[1 - lin]
            for t in mpmath.polyroots(poly[::-1], maxsteps=200, extraprec=64):
                z = [None, None]
                z[o] = t
                z[e] = (w[lin] - a.const - a.coeffs[o] * t) / a.coeffs[e]
                if max(abs(z[k] - point[k]) for k in range(2)) > mpf("1e-2"):
                    continue
                rows = [gradient(forms[0], z), gradient(forms[1], z)]
                jac = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
                total += arr.numerator.evaluate(z) / jac
    return total / nodes**2


@dataclass(frozen=True)
class ZStarResult:
    """Sequential pole positions and the arising verdict for one flag."""

    values: tuple[mpc, ...]
    arises: bool
    boundary: bool
    profile: MinorProfile


def z_star(
    arr: Arrangement,
    flag: Flag,
    poly: Polyhedron,
    x: Sequence | None = None,
) -> ZStarResult:
    """Evaluate the sequential pole formula; x holds the trailing real samples.

    Raises InsolubleFlag when a leading principal minor vanishes.  The arising
    verdict (every Im z_k* > 0) is x-independent; boundary marks Im z_k* = 0
    within the noise floor.
    """
    k_total = len(flag)
    jac = jacobian(arr, flag.indices, poly)
    prof = minor_profile(jac)
    if any(p == 0 for p in prof.p):
        raise InsolubleFlag(flag)
    xs = [to_mpc(v) for v in (x if x is not None else [0] * arr.dim)]
    if len(xs) < arr.dim:
        raise ValueError("x must supply a sample for every coordinate")
    r_map = dict(prof.r_minors)
    q_map = dict(prof.q)
    s_vals = [to_mpc(arr.hyperplanes[i].s) for i in flag.indices]
    p_prev = [Fraction(1)] + list(prof.p)
    values: list[mpc] = []
    arises = True
    boundary = False
    for k in range(1, k_total + 1):
        acc = s_vals[k - 1] * to_mpc(p_prev[k - 1])
        for j in range(1, k):
            sign = -1 if (k - j) % 2 else 1
            acc = acc + sign * s_vals[j - 1] * to_mpc(r_map[(j, k)])
        total = acc * mpc(0, 1)
        for l in range(k + 1, arr.dim + 1):
            total = total - xs[l - 1] * to_mpc(q_map[(k, l)])
        zk = total / to_mpc(prof.p[k - 1])
        values.append(zk)
        # within the noise floor 2^-(prec/2) of max(1, |z_k|)
        if abs(zk.imag) <= mpf(2) ** -(mpmath.mp.prec // 2) * max(mpf(1), abs(zk)):
            boundary = True
            arises = False
        elif zk.imag < 0:
            arises = False
    return ZStarResult(tuple(values), arises, boundary, prof)
