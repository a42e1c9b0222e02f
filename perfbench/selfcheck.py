"""Check that the traced run's counters are deterministic.

    python3 perfbench/selfcheck.py [--workloads flags poles verify] [--seed N]

Runs ``run.py --trace 1`` twice per workload with the same seed and compares
every per-layer metric whose unit is ``count`` or ``ratio``.  Times differ
from run to run; counts must not.  Exits 1 if any count differs.  Also
prints the tracing overhead and each layer's self time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["flags", "poles", "verify"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workloads:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        counts = [k for k, m in first.items() if m["unit"] in ("count", "ratio")]
        diff = [k for k in counts if first[k]["value"] != second[k]["value"]]
        overhead = [first["trace.overhead_pct"]["value"], second["trace.overhead_pct"]["value"]]
        print(f"{workload}: {len(counts) - len(diff)} of {len(counts)} counters repeat; "
              f"tracing overhead {overhead[0]:.1f}% and {overhead[1]:.1f}%")
        layers = {k[: -len(".self_s")]: m["value"] for k, m in first.items() if k.endswith(".self_s")}
        print("  self time: " + ", ".join(f"{k} {v:.2f} s" for k, v in layers.items()))
        for key in diff:
            print(f"  {key}: {first[key]['value']} then {second[key]['value']}")
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
