"""Random two-variable arrangements: truncation law and permutation probe.

Draws random integer hyperplane rows and cone generators, then
  - confirms that the iterated residue is truncated (raises InsolubleFlag)
    exactly when some leading principal minor of the linearized flag
    vanishes, and
  - tallies how often permuting a stable collection keeps it stable.

Usage: python scripts/random_probe.py [--count N] [--seed S]
"""

import argparse
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc

from residuum import (
    Arrangement,
    Flag,
    InsolubleFlag,
    Polyhedron,
    canonicalize_hyperplane,
    flag_table,
    iterated_residue,
)
from residuum.symfun import ExpRationalFunction


@dataclass(frozen=True)
class PermutationProbe:
    """Stable orderings found among row permutations of stable collections."""

    collections: tuple[Flag, ...]
    extra_stable_orderings: tuple[tuple[Flag, Flag], ...]

    @property
    def conjecture_holds(self) -> bool:
        return not self.extra_stable_orderings


def permutation_stability_probe(arr: Arrangement, poly: Polyhedron) -> PermutationProbe:
    """Search all row permutations of each stable collection for a second
    stable ordering (a counterexample to the uniqueness heuristic).  Every
    ordering of a complete collection is in the flag table."""
    table = flag_table(arr, poly)
    stable = [e.flag for e in table if e.profile.stable]
    stable_orders = {g.indices for g in stable}
    extras = [
        (flag, Flag(perm))
        for flag in stable
        for perm in itertools.permutations(flag.indices)
        if perm != flag.indices and perm in stable_orders
    ]
    return PermutationProbe(tuple(stable), tuple(extras))


def random_arrangement(rng: random.Random) -> Arrangement:
    hps = []
    rows = set()
    while len(hps) < 3:
        row = (rng.randint(-3, 3), rng.randint(-3, 3))
        if row == (0, 0) or row in rows:
            continue
        rows.add(row)
        hps.append(canonicalize_hyperplane(list(row), -mpc(0, rng.randint(1, 4))))
    numer = ExpRationalFunction.from_parts(2)
    return Arrangement.build(2, hps, numerator=numer)


def random_cone(rng: random.Random) -> Polyhedron:
    while True:
        gens = [
            [Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)
        ]
        try:
            return Polyhedron.from_generators(gens)
        except ValueError:
            continue


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    mp.prec = 128

    truncation_checked = truncation_zero = 0
    stable_total = 0
    counterexamples = []
    for _ in range(args.count):
        arr = random_arrangement(rng)
        poly = random_cone(rng)
        for entry in flag_table(arr, poly):
            try:
                iterated_residue(arr, entry.flag, poly)
                soluble = True
            except InsolubleFlag:
                soluble = False
            truncation_checked += 1
            assert soluble == entry.profile.in_bruhat_cell, "truncation law violated"
            truncation_zero += not soluble
        probe = permutation_stability_probe(arr, poly)
        stable_total += len(probe.collections)
        counterexamples.extend(probe.extra_stable_orderings)

    print(f"flags checked:            {truncation_checked}")
    print(f"outside the Bruhat cell:  {truncation_zero} (all residues zero)")
    print(f"stable collections:       {stable_total}")
    if counterexamples:
        print(f"reordered-and-still-stable pairs: {len(counterexamples)}")
        for original, other in counterexamples[:5]:
            print(f"  {original.label()} stays stable as {other.label()}")
    else:
        print("no reordering of a stable collection stayed stable")


if __name__ == "__main__":
    main()
