"""Seeded problem generators for the benchmark; they emit .rsd text only.

Three families:

* generic: R integer hyperplanes in r variables, every r of them
  independent, constant numerator, simple poles (the ``flags`` workload);
* coincident: six hyperplanes in three variables through the point i*c
  with c > 0, multiplicities from {1, 2, 3}, with a constant or oscillatory
  numerator (``poles``);

Both use the positive orthant as cone; ``disguise`` moves it.
* product: prod_k 1/((w_k - i)^m (-w_k - i)^m) exp(i sum_k om_k w_k) with
  w = A v for a random unimodular integer A and cone generators equal to the
  columns of A^-1 (``verify``).  Its value has the closed form
  ``product_value``.

``disguise`` rewrites a problem without changing its answer: it renames
the hyperplanes by a permutation and substitutes v = U u for a random
unimodular U with det U = 1, moving the cone generators to U^-1 times the
old ones.  Every chart Jacobian (hyperplane rows times cone generators) is
unchanged, so every minor, verdict and residue is unchanged, while the
program sees new text.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath


@dataclass(frozen=True)
class Problem:
    """Exact data of one problem; ``text()`` renders it as .rsd."""

    rows: tuple  # integer hyperplane rows f_k
    s: tuple  # positive integers, hyperplane k is f_k(v) = i s_k
    mult: tuple  # multiplicities
    cone: tuple  # integer generators
    freq: tuple  # integer c with numerator coeff * exp(i c.v), all zero: none
    coeff: int = 1

    @property
    def dim(self) -> int:
        return len(self.cone)

    def text(self, comment: str = "") -> str:
        names = [f"v{k + 1}" for k in range(self.dim)]
        lines = [f"# {comment}"] if comment else []
        lines.append("vars " + " ".join(names) + ";")
        lines.append(
            "cone " + " ".join("(" + ",".join(map(str, g)) + ")" for g in self.cone) + ";"
        )
        if any(self.freq):
            lines.append(f"num {self.coeff}*exp(i*({_linear(self.freq, names)}));")
        elif self.coeff != 1:
            lines.append(f"num {self.coeff};")
        factors = []
        for f, s, m in zip(self.rows, self.s, self.mult):
            fac = f"({_linear(f, names)} - {s}*i)"
            factors.append(fac if m == 1 else f"{fac}^{m}")
        lines.append("den " + " ".join(factors) + ";")
        return "\n".join(lines) + "\n"


def _linear(coeffs, names) -> str:
    out = ""
    for c, n in zip(coeffs, names):
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        if not out:
            out = ("-" if c < 0 else "") + mag + n
        else:
            out += (" - " if c < 0 else " + ") + mag + n
    return out


def det(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over Q.

    The generators do not call residuum, so the inputs never depend on the
    code being measured.
    """
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, n):
            c = m[i][k] / m[k][k]
            m[i] = [a - c * b for a, b in zip(m[i], m[k])]
    return out


def _matmul(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


def _transpose(a):
    return tuple(zip(*a))


def _unimodular(rng: random.Random, r: int, steps: int):
    """Random det-1 integer matrix and its inverse, from elementary shears."""
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    inv = [row[:] for row in u]
    for _ in range(steps):
        i, j = rng.sample(range(r), 2)
        c = rng.choice((-1, 1))
        # U <- U E with E = I + c e_i e_j (column j += c column i)
        for row in u:
            row[j] += c * row[i]
        # U^-1 <- E^-1 U^-1 (row i -= c row j)
        inv[i] = [a - c * b for a, b in zip(inv[i], inv[j])]
    return tuple(map(tuple, u)), tuple(map(tuple, inv))


def _primitive(row) -> bool:
    return math.gcd(*row) == 1


def _identity(r: int):
    return tuple(tuple(int(i == j) for j in range(r)) for i in range(r))


def generic(rng: random.Random, r: int, big_r: int) -> Problem:
    """R hyperplanes in general position, simple poles, constant numerator."""
    while True:
        rows = []
        while len(rows) < big_r:
            row = tuple(rng.randint(-2, 2) for _ in range(r))
            if any(row) and _primitive(row) and row not in rows:
                rows.append(row)
        if all(det(sub) != 0 for sub in itertools.combinations(rows, r)):
            break
    return Problem(
        rows=tuple(rows),
        s=tuple(rng.randint(1, 4) for _ in range(big_r)),
        mult=(1,) * big_r,
        cone=_identity(r),
        freq=(0,) * r,
        coeff=rng.randint(1, 3),
    )


def coincident(rng: random.Random, mult: tuple, oscillatory: bool) -> Problem:
    """Six hyperplanes in three variables through the point i*c, c > 0."""
    r = 3
    c = tuple(rng.randint(1, 2) for _ in range(r))
    while True:
        rows = []
        while len(rows) < len(mult):
            row = tuple(rng.randint(-2, 2) for _ in range(r))
            dot = sum(a * b for a, b in zip(row, c))
            if dot > 0 and _primitive(row) and row not in rows:
                rows.append(row)
        if all(det(sub) != 0 for sub in itertools.combinations(rows, r)):
            break
    freq = tuple(rng.randint(-1, 1) for _ in range(r)) if oscillatory else (0,) * r
    if oscillatory and not any(freq):
        freq = (1,) + freq[1:]
    return Problem(
        rows=tuple(rows),
        s=tuple(sum(a * b for a, b in zip(row, c)) for row in rows),
        mult=tuple(mult),
        cone=_identity(r),
        freq=freq,
    )


def product(rng: random.Random, r: int, m: int, omegas, shear_steps: int) -> Problem:
    """The closed-form family in v-coordinates, with w = A v."""
    a, a_inv = _unimodular(rng, r, shear_steps)
    rows, s = [], []
    for row in a:
        rows += [row, tuple(-x for x in row)]
        s += [1, 1]
    freq = tuple(sum(om * a[k][j] for k, om in enumerate(omegas)) for j in range(r))
    return Problem(
        rows=tuple(rows),
        s=tuple(s),
        mult=(m,) * (2 * r),
        cone=_transpose(a_inv),
        freq=freq,
    )


def product_value(r: int, m: int, omegas) -> mpmath.mpc:
    """(-1)^(rm) prod_k I_m(om_k), I_m(om) = int e^(i om w) / (w^2+1)^m dw."""
    out = mpmath.mpf(-1) ** (r * m)
    for om in omegas:
        a = abs(om)
        acc = mpmath.mpf(0)
        for k in range(m):
            acc += (
                mpmath.factorial(2 * m - 2 - k)
                * mpmath.mpf(2 * a) ** k
                / (mpmath.factorial(k) * mpmath.factorial(m - 1 - k))
            )
        out *= mpmath.pi * mpmath.exp(-a) / (4 ** (m - 1) * mpmath.factorial(m - 1)) * acc
    return mpmath.mpc(out)


def _substitute(prob: Problem, u, u_inv, order) -> Problem:
    """v = U u, hyperplane p of the result being hyperplane order[p] of prob."""
    rows = _matmul(prob.rows, u)
    return Problem(
        rows=tuple(rows[k] for k in order),
        s=tuple(prob.s[k] for k in order),
        mult=tuple(prob.mult[k] for k in order),
        cone=_transpose(_matmul(u_inv, _transpose(prob.cone))),
        freq=_matmul((prob.freq,), u)[0],
        coeff=prob.coeff,
    )


def _shuffled(rng: random.Random, n: int) -> list:
    order = list(range(n))
    rng.shuffle(order)
    return order


def disguise(rng: random.Random, prob: Problem, shear_steps: int = 3):
    """Same answer, new text.

    Returns (problem, order): hyperplane H<p+1> of the new problem is
    H<order[p]+1> of the old one.
    """
    u, u_inv = _unimodular(rng, prob.dim, shear_steps)
    order = _shuffled(rng, len(prob.rows))
    return _substitute(prob, u, u_inv, order), order


def permute_coordinates(rng: random.Random, prob: Problem) -> Problem:
    """Rename the variables and reorder the factors.

    Unlike ``disguise`` this keeps the integrand's shape in v-space, so the
    numerical oracle does the same work on the result as on ``prob``.
    """
    r = prob.dim
    sigma = _shuffled(rng, r)
    p = tuple(tuple(int(sigma[j] == i) for j in range(r)) for i in range(r))
    return _substitute(prob, p, _transpose(p), _shuffled(rng, len(prob.rows)))
