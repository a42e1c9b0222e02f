"""Record the pooled base problems and their reference outputs.

    python3 perfbench/record.py [--pool-seeds 1 2]

Generates the ``flags`` and ``poles`` base problems for each pool seed, runs
every operation on them with the residuum in this checkout, and writes what
the benchmark checks (exit status, verdict table digest, certificate, value,
grouping) to reference.json.  A candidate is kept only if disguised copies
pass the benchmark's own check against its summary.  The ``poles`` pool
keeps problems that have a stable flag, whose operations each take at most
POLES_OP_CAP_S here (so that no operation takes more than a few seconds),
and whose grouping needs no auxiliary chart: the chart search enumerates
bases in the problem's own coordinates, so its outcome is not invariant
under the disguise and could not be checked against one reference.

The references describe the code they were recorded from; record them again
only when a change is meant to alter what the program computes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict

import run

# (r, R) -> number of base problems per round
# r=4 only at R=7: r=4 at R=8 takes 10-15 s a round (analyze and eval), R=6
# adds little the r=3 problems do not show, and two rounds of every
# workload must fit the time a benchmark run may take.
FLAGS_POOL = {(3, 6): 3, (3, 7): 4, (3, 8): 4, (4, 7): 1}
# (multiplicities, oscillatory) -> number of base problems per round.  All
# six at m=3 takes 4 to 90 s per operation, so m=3 sits on one or two
# hyperplanes.
POLES_POOL = {
    ((1,) * 6, False): 2,
    ((1,) * 6, True): 2,
    ((2,) * 6, False): 2,
    ((2,) * 6, True): 2,
    ((3, 3, 1, 1, 1, 1), False): 2,
    ((3, 2, 2, 1, 1, 1), True): 2,
}
POLES_OP_CAP_S = 2.5
MAX_TRIES = 40
DISGUISE_CHECKS = 3


class ChartSearchUsed(Exception):
    """Raised in place of the auxiliary chart search while recording."""


def _no_chart_search(dim):
    raise ChartSearchUsed()


def _outcomes(prob, cmds, directory):
    path = directory / "candidate.rsd"
    path.write_text(prob.text())
    out, seconds, raw = {}, {}, {}
    for cmd in cmds:
        raw[cmd], seconds[cmd] = run.run_inprocess(cmd, path)
        out[cmd] = run.summarize(cmd, raw[cmd], list(range(len(prob.rows))))
    return out, seconds, raw


def _disguises_agree(prob, cmds, expect, directory, label) -> bool:
    import problems

    drng = random.Random(f"check:{label}")
    for _ in range(DISGUISE_CHECKS):
        twin, order = problems.disguise(drng, prob)
        path = directory / "twin.rsd"
        path.write_text(twin.text())
        for cmd in cmds:
            outcome, _ = run.run_inprocess(cmd, path)
            cause = run.check_against(expect, order, prob.dim)(outcome, cmd)
            if cause not in (None, "crash_as_at_seed"):
                print(f"  rejected ({cmd} of a disguised copy: {cause}): {label}", flush=True)
                return False
    return True


def _has_residues(summary: dict) -> bool:
    return summary.get("contributions", 0) > 0 or summary.get("points", 0) > 0


def record_family(family, pool, cmds, make, accept, pool_seed, directory):
    entries = []
    for variant, count in pool.items():
        rng = random.Random(f"{family}:{variant}:{pool_seed}")
        kept = 0
        for attempt in range(MAX_TRIES):
            if kept == count:
                break
            prob = make(rng, variant)
            expect, seconds, raw = _outcomes(prob, cmds, directory)
            if not accept(expect, seconds, raw):
                continue
            label = f"{family} {variant} #{kept + 1} (pool {pool_seed})"
            if not _disguises_agree(prob, cmds, expect, directory, label):
                continue
            kept += 1
            times = ", ".join(f"{c} {t:.2f} s" for c, t in seconds.items())
            print(f"  {label}: {times}: {json.dumps(expect)[:160]}", flush=True)
            entries.append(
                {
                    "family": family,
                    "pool_seed": pool_seed,
                    "label": label,
                    "problem": asdict(prob),
                    "expect": expect,
                }
            )
        if kept < count:
            raise SystemExit(f"only {kept} of {count} {family} {variant} problems found")
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pool-seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import problems
    import residuum.residue_engine as engine

    engine._chart_candidates = _no_chart_search

    directory = run.WORK / "record"
    directory.mkdir(parents=True, exist_ok=True)
    pool = []
    for seed in args.pool_seeds:
        print(f"pool {seed}: generic", flush=True)
        pool += record_family(
            "generic", FLAGS_POOL, ("analyze", "eval"),
            lambda rng, v: problems.generic(rng, *v),
            lambda expect, seconds, raw: True,
            seed, directory,
        )
        print(f"pool {seed}: coincident", flush=True)
        pool += record_family(
            "coincident", POLES_POOL, ("eval", "grouping"),
            lambda rng, v: problems.coincident(rng, *v),
            lambda expect, seconds, raw: _has_residues(expect["eval"])
            and max(seconds.values()) <= POLES_OP_CAP_S
            and all(o.crash != "ChartSearchUsed" for o in raw.values()),
            seed, directory,
        )
    run.REFERENCE.write_text(json.dumps({"pool": pool}, indent=1) + "\n")
    print(f"wrote {len(pool)} base problems to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
