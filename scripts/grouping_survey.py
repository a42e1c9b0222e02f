"""Survey every two-group divisor grouping of the coincident-point example.

All three hyperplanes pass through (i, i), so each grouping defines a
2-cycle around the same point; the residues still differ, which is the
whole reason the grouping is part of the data.  The canonical grouping is
the one whose residue sum reproduces the contour integral.
"""

import itertools

from mpmath import mp, nstr

from residuum import (
    DivisorGrouping,
    canonical_grouping,
    flag_table,
    grothendieck_residue,
    points_of_grouping,
)
from residuum.dsl import parse_problem

PROBLEM = """\
vars x y;
cone (1,0) (-1,1);
num exp(2*pi*i*(x + 2*y));
den (x - i) (y - i) (x + y - 2*i);
"""


def main() -> None:
    mp.prec = 128
    spec = parse_problem(PROBLEM)
    arr = spec.arrangement()
    poly = spec.polyhedron()
    n = len(arr.hyperplanes)
    table = flag_table(arr, poly)
    print("grouping      residues at the common points")
    for first_size in range(1, n):
        for combo in itertools.combinations(range(n), first_size):
            rest = tuple(sorted(set(range(n)) - set(combo)))
            grouping = DivisorGrouping.of(set(combo), set(rest))
            parts = []
            for point, _ in points_of_grouping(arr, grouping):
                value = grothendieck_residue(arr, grouping, point, poly, table)
                coords = ",".join(nstr(mp.mpmathify(c), 8) for c in point)
                parts.append(f"({coords}): {nstr(value, 12)}")
            print(f"{grouping.label(arr):<14}" + "; ".join(parts))
    canonical = canonical_grouping(arr, poly)
    print(f"\ncanonical grouping: {canonical.label(arr)}")


if __name__ == "__main__":
    main()
