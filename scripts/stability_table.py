"""Print the flag classification table for the three-plane arrangement.

Recomputes, over three cones, which of the six ordered hyperplane pairs
are stable and which are compatible, together with the minor values that
decide each verdict.
"""

from fractions import Fraction

from residuum import Polyhedron, compatibility_audit, flag_table
from residuum.dsl import parse_problem

PROBLEM = """\
vars x y;
cone (1,0) (0,1);
param n1=2 n2=3 s1=1 s2=1 s3=1;
num n1^(i*x - s1) * n2^(i*y - s2);
den (-x - s1*i) (-y - s2*i) (x + y - s3*i);
"""

CONES = {
    "first quadrant": ((1, 0), (0, 1)),
    "left of the diagonal": ((-1, 1), (0, 1)),
    "right of the diagonal": ((1, -1), (1, 0)),
}


def main() -> None:
    arr = parse_problem(PROBLEM).arrangement()
    for name, gens in CONES.items():
        poly = Polyhedron.from_generators(
            [[Fraction(x) for x in v] for v in gens]
        )
        print(f"cone {gens} ({name})")
        print(f"  {'flag':<10}{'stable':<8}{'compatible':<12}{'p':<10}q>0")
        table = flag_table(arr, poly)
        for entry in table:
            prof = entry.profile
            ps = ",".join(str(x) for x in prof.p)
            bad_q = ",".join(
                f"q{j}{l}={v}" for (j, l), v in prof.q if v > 0
            )
            print(
                f"  {entry.flag.label():<10}"
                f"{'yes' if prof.stable else 'no':<8}"
                f"{'yes' if prof.compatible else 'no':<12}"
                f"{ps:<10}{bad_q}"
            )
        audit = compatibility_audit(arr, poly, table)
        verdict = "all compatible" if audit.all_compatible else "violations found"
        print(f"  audit: {verdict} ({audit.flags_checked} collections)\n")


if __name__ == "__main__":
    main()
