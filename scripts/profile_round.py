"""Profile one round of a benchmark workload and list residuum's hot spots.

Builds the round of ``flags``, ``poles`` or ``verify`` exactly as
``perfbench/run.py`` does (its ``WORKLOADS``: ``pooled_round`` or
``verify_round``, seed 1, pool 1), runs every operation in this process
as ``cli.main([cmd, file, "--json"])`` under cProfile, and prints the
residuum functions with the largest cumulative time, then the functions
outside the package (the standard library's json and fractions, mpmath,
built-ins) with the largest cumulative time, leaving out this script and
the profiler.  The problem files go to a temporary directory; nothing
under ``perfbench/`` is written.

It also prints how many Fractions the round builds: the calls of
``Fraction.__new__`` in the profile, a count fixed by the round and the
interpreter (3.12's fractions module builds its results without calling
``__new__``, and counts fewer), how many GaussianRationals it builds (the
calls of ``exact_linalg._normal``, through which every operation's result
is made, and of ``GaussianRational.__init__``), how many terms its
residue steps build before like terms merge (the terms passed to
``symfun._merge_like_terms``), and how many per-axis node entries the
oracle's sums take (over every ``oracle._tensor_sum`` call, its terms
times the sum of its axes' node counts).  With --max-fractions N,
--max-gaussians N, --max-terms N or --max-axis-nodes N the script exits 1
when that count exceeds N.  It also exits 1, naming the operation, when a
report's stdout is not ``json.dumps(json.loads(out), sort_keys=True,
indent=2)`` and a newline: the streamed JSON writer checked against the
standard library's on every report of the round.  The last line of a flags or poles round is its
digest, a sha256 over each operation's command and file name, exit status
(or the type of the exception it raised) and stdout, which
scripts/expected/round_digests.txt records for both workloads; a verify
round prints none, as the oracle's last digits depend on the platform's
libm.

Usage: python scripts/profile_round.py flags|poles|verify [--top N]
    [--max-fractions N] [--max-gaussians N] [--max-terms N] [--max-axis-nodes N]
"""

import argparse
import cProfile
import contextlib
import hashlib
import io
import json
import pstats
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import residuum
from residuum import exact_linalg, oracle, symfun
from residuum.cli import main as cli_main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("flags", "poles", "verify")
SEED = 1
POOL_SEED = 1


def build_round(workload: str, directory: Path) -> list:
    """The benchmark's operations for one round, as (command, path) pairs."""
    sys.path.insert(0, str(PERFBENCH))
    import run

    rng = random.Random(f"perfbench:{workload}:{SEED}")
    ops = run.WORKLOADS[workload](rng, POOL_SEED, 0, directory)
    return [(op.cmd, op.path) for op in ops]


def profile_ops(ops: list) -> tuple[pstats.Stats, float, int, str, int, tuple, list]:
    """Run every operation under one profiler: (stats, wall seconds, crashes,
    the round's digest, the terms the residue steps passed to the merge of
    like terms, the oracle's (per-axis node entries, sums), each
    operation's (command, path, stdout))."""
    profiler = cProfile.Profile()
    digest = hashlib.sha256()
    crashes = terms = axis_nodes = sums = 0
    outputs = []
    merge, tensor_sum = symfun._merge_like_terms, oracle._tensor_sum

    def counted_merge(batch):
        nonlocal terms
        terms += len(batch)
        return merge(batch)

    def counted_sum(specs, axes, *args):
        nonlocal axis_nodes, sums
        axis_nodes += len(specs) * sum(len(nodes) for nodes, _ in axes)
        sums += 1
        return tensor_sum(specs, axes, *args)

    symfun._merge_like_terms, oracle._tensor_sum = counted_merge, counted_sum
    start = perf_counter()
    for cmd, path in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            profiler.enable()
            try:
                status = cli_main([cmd, str(path), "--json"])
            except Exception as exc:  # a workload's known crashes stay in the profile
                status = type(exc).__name__
                crashes += 1
            finally:
                profiler.disable()
        digest.update(f"{cmd} {path.name}\n{status}\n{out.getvalue()}".encode())
        outputs.append((cmd, path, out.getvalue()))
    wall = perf_counter() - start
    symfun._merge_like_terms, oracle._tensor_sum = merge, tensor_sum
    stats = pstats.Stats(profiler)
    return stats, wall, crashes, digest.hexdigest(), terms, (axis_nodes, sums), outputs


def misprinted(outputs: list) -> list[str]:
    """The operations whose stdout, when there is one, is not the report as
    ``json.dumps(..., sort_keys=True, indent=2)`` prints it."""
    bad = []
    for cmd, path, out in outputs:
        try:
            same = out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        except ValueError:
            same = False
        if out and not same:
            bad.append(f"{cmd} {path.name}")
    return bad


def hot_spots(stats: pstats.Stats, top: int) -> tuple[list, list]:
    """(cumulative s, own s, calls, name) of the top functions inside
    residuum's package and of the top ones outside it, this script and the
    profiler left out."""
    package = Path(residuum.__file__).resolve().parent
    harness = Path(__file__).resolve()
    inside, outside = [], []
    for (filename, line, function), entry in stats.stats.items():
        _, calls, own, cumulative, _ = entry
        if filename == "~":  # a built-in: pstats names it in ``function``
            if "_lsprof" not in function:
                outside.append((cumulative, own, calls, function))
            continue
        path = Path(filename).resolve()
        if path.parent == package:
            inside.append((cumulative, own, calls, f"{path.name}:{line}({function})"))
        elif path != harness:
            name = f"{path.parent.name}/{path.name}:{line}({function})"
            outside.append((cumulative, own, calls, name))
    for rows in (inside, outside):
        rows.sort(key=lambda row: (-row[0], row[3]))
    return inside[:top], outside[:top]


def call_count(stats: pstats.Stats, *functions) -> int:
    """The calls of ``functions`` in the profile."""
    codes = [f.__code__ for f in functions]
    keys = [(c.co_filename, c.co_firstlineno, c.co_name) for c in codes]
    return sum(stats.stats[key][1] for key in keys if key in stats.stats)


def _print_rows(title: str, rows: list) -> None:
    print(title)
    print(f"{'cumulative s':>12} {'own s':>8} {'calls':>9}  function")
    for cumulative, own, calls, name in rows:
        print(f"{cumulative:12.3f} {own:8.3f} {calls:9d}  {name}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--max-fractions", type=int, default=None)
    parser.add_argument("--max-gaussians", type=int, default=None)
    parser.add_argument("--max-terms", type=int, default=None)
    parser.add_argument("--max-axis-nodes", type=int, default=None)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        ops = build_round(args.workload, Path(tmp))
        stats, wall, crashes, digest, terms, (axis_nodes, sums), outputs = profile_ops(ops)
    fractions = call_count(stats, Fraction.__new__)
    gaussians = call_count(stats, exact_linalg._normal, exact_linalg.GaussianRational.__init__)
    print(
        f"{args.workload}: {len(ops)} operations ({crashes} crashed), "
        f"{wall:.2f} s under cProfile, {fractions} Fractions built, "
        f"{gaussians} GaussianRationals built, {terms} residue terms before merging, "
        f"{axis_nodes} per-axis node entries over {sums} oracle sums"
    )
    inside, outside = hot_spots(stats, args.top)
    _print_rows("residuum:", inside)
    _print_rows("outside residuum:", outside)
    if args.workload != "verify":
        print(f"{args.workload} digest {digest}")
    failed = False
    for name in misprinted(outputs):
        print(f"{name}: stdout is not the report as json.dumps prints it", file=sys.stderr)
        failed = True
    if args.max_fractions is not None and fractions > args.max_fractions:
        print(f"more than {args.max_fractions} Fractions built", file=sys.stderr)
        failed = True
    if args.max_gaussians is not None and gaussians > args.max_gaussians:
        print(f"more than {args.max_gaussians} GaussianRationals built", file=sys.stderr)
        failed = True
    if args.max_terms is not None and terms > args.max_terms:
        print(f"more than {args.max_terms} residue terms before merging", file=sys.stderr)
        failed = True
    if args.max_axis_nodes is not None and axis_nodes > args.max_axis_nodes:
        print(f"more than {args.max_axis_nodes} per-axis node entries", file=sys.stderr)
        failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
