"""residuum benchmark: seeded workloads through the public CLI, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload flags|poles|verify --seed N \
        --seconds S --trace 0|1 [--pool-seed 1|2]

A single client runs operations one after another (a closed loop with one
client; nothing is queued and nothing runs concurrently, so there is no
waiting time to report).  An operation is one subcommand on one generated
problem file, called as ``residuum.cli.main([cmd, file, "--json"])``:

* flags:  analyze and eval of generic arrangements, in this process;
* poles:  eval and grouping of coincident arrangements, in this process;
* verify: ``verify --json`` in a fresh interpreter per operation.

Operations come in rounds.  Every round holds the same base problems in the
same order (the pool recorded in reference.json, or the closed-form and
sample problems for verify); the seed only chooses how each problem is
disguised.  --seconds sets the number of rounds (see ROUND_SECONDS).  Times
are paced: measured against probes of the machine's speed (see pace.py and
run_speed).  Every output is checked, and the last line printed is one JSON
object with the result.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from pace import Probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
SAMPLES = ROOT / "problems"

# operations slower than this are stopped and count as failed
OP_CAP_S = 60.0
SETUP_REPEATS = 5
VALUE_TOL = 1e-22  # the reports print 24 significant digits

CHILD = "import sys; from residuum.cli import main; sys.exit(main(sys.argv[1:]))"
TRACED_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import spans; "
    "sys.exit(spans.child_main(sys.argv[2], sys.argv[3:]))"
)
PACED_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import pace; "
    "sys.exit(pace.child_main(sys.argv[2], sys.argv[3:]))"
)
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import residuum; "
    "print(time.perf_counter() - t)"
)

# Failures that the seed commit already shows, by operation.  Besides
# these, a crash of the same exception as the recorded reference
# ("crash_as_at_seed") is known.  Any other failure makes the run incorrect.
KNOWN_FAILURES = {
    ("verify", "product r=2 m=1 omega=(0, 0) shear=3", "unconfirmed"),
    ("verify", "product r=3 m=1 omega=(0, 0, 0) shear=5", "unconfirmed"),
    ("verify", "product r=3 m=1 omega=(0, 0, 0) shear=3", "unconfirmed"),
}

# the closed-form verify family: (r, m, omegas, shear steps of A).  The
# one-variable cases are cheap; they bring a round to 25 operations, so that
# op_tail_s (ten samples above it) sits above the median.
VERIFY_PRODUCTS = (
    (1, 1, (0,), 0),
    (1, 1, (1,), 0),
    (1, 1, (2,), 0),
    (1, 1, (3,), 0),
    (1, 1, (4,), 0),
    (1, 2, (1,), 0),
    (1, 2, (2,), 0),
    (1, 2, (3,), 0),
    (1, 2, (4,), 0),
    (1, 3, (1,), 0),
    (1, 3, (2,), 0),
    (1, 3, (3,), 0),
    (1, 3, (4,), 0),
    (1, 3, (5,), 0),
    (2, 1, (0, 0), 3),
    (2, 1, (1, 2), 3),
    (2, 2, (0, 0), 3),
    (2, 2, (0, 0), 1),
    (3, 1, (0, 0, 0), 5),
    (3, 1, (0, 0, 0), 3),
)
# sample problems: exit status from the README, and the value each reports
# (three_planes_upper is NOT CERTIFIED with an empty residue sum)
SAMPLE_EXPECT = {
    "arctangent": (0, lambda mp: mp.pi),
    "coincident_point": (0, lambda mp: -8j * mp.pi**3 * mp.exp(-6 * mp.pi)),
    "double_pole": (0, lambda mp: -2 * mp.pi / mp.e),
    "three_planes_left": (0, lambda mp: -4j * mp.pi**2 / 81),
    "three_planes_upper": (1, lambda mp: 0),
}


@dataclass
class Op:
    cmd: str
    path: Path
    label: str
    check: object  # Outcome -> failure cause or None
    seconds: float = 0.0
    cause: str | None = None
    confirmed: bool = False  # verify: the oracle agreed within tolerance
    cpu: int | None = None  # the CPU this process runs the operation on
    speed: float = 1.0  # the machine's speed during the operation (see pace.py)


@dataclass
class Outcome:
    code: int | None
    report: dict | None
    crash: str | None = None
    timeout: bool = False


# ---- running one operation -------------------------------------------------


class _OpTimeout(BaseException):
    """Raised by the alarm inside an in-process operation past OP_CAP_S."""


def _alarm(signum, frame):
    raise _OpTimeout()


def run_inprocess(cmd: str, path: Path, probes: Probes | None) -> tuple[Outcome, float]:
    """Run one operation in this process, taking probes during it if given."""
    import residuum.cli

    out = io.StringIO()
    crash = None
    timeout = False
    code = None
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    if probes is not None:
        probes.start()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = residuum.cli.main([cmd, str(path), "--json"])
    except _OpTimeout:
        timeout = True
    except Exception as exc:  # the operation crashed; record which way
        crash = type(exc).__name__
    finally:
        seconds = perf_counter() - start
        if probes is not None:
            probes.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return Outcome(code, _parse(out.getvalue()), crash, timeout), seconds


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(boot: list, cmd: str, path: Path) -> tuple[Outcome, float]:
    """Run one operation in a child interpreter started with ``boot``."""
    argv = [sys.executable, "-c", *boot, cmd, str(path), "--json"]
    start = perf_counter()
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=_child_env(), cwd=ROOT,
            timeout=OP_CAP_S,
        )
    except subprocess.TimeoutExpired:
        return Outcome(None, None, timeout=True), perf_counter() - start
    seconds = perf_counter() - start
    crash = None
    if "Traceback (most recent call last)" in proc.stderr:
        last = proc.stderr.strip().splitlines()[-1]
        crash = last.split(":", 1)[0].rsplit(".", 1)[-1]
    return Outcome(proc.returncode, _parse(proc.stdout), crash), seconds


def _parse(text: str) -> dict | None:
    try:
        return json.loads(text)
    except ValueError:
        return None


# ---- checking outputs ----------------------------------------------------------


def _mpc(d):
    import mpmath

    return mpmath.mpc(mpmath.mpf(d["re"]), mpmath.mpf(d["im"]))


def close(got, want, scale=0) -> bool:
    """|got - want| <= VALUE_TOL * max(|want|, scale), values as report dicts or numbers.

    The reports print 24 significant digits, so the test is relative.  A
    value that is a sum of terms cannot be more accurate than its largest
    term allows: ``scale`` is the sum of the terms' magnitudes (0 when the
    value is not such a sum).  A reference of 0 with no terms accepts
    |got| <= VALUE_TOL.
    """
    import mpmath

    with mpmath.workprec(128):
        got = _mpc(got) if isinstance(got, dict) else mpmath.mpc(got)
        want = _mpc(want) if isinstance(want, dict) else mpmath.mpc(want)
        return abs(got - want) <= VALUE_TOL * (max(abs(want), mpmath.mpf(scale)) or 1)


def magnitude_sum(values) -> str:
    """The sum of the magnitudes of report values, as a decimal string."""
    import mpmath

    with mpmath.workprec(128):
        return mpmath.nstr(sum((abs(_mpc(v)) for v in values), mpmath.mpf(0)), 30)


_H = re.compile(r"H(\d+)")


def relabel(text: str, order) -> str:
    """Rename H<p+1> to H<order[p]+1>: back to the base problem's labels."""
    return _H.sub(lambda m: f"H{order[int(m.group(1)) - 1] + 1}", text)


def grouping_key(groups, order) -> list:
    """Groups as sorted base-problem indices; a label naming no hyperplane is -1."""

    def base(h):
        k = int(h[1:]) - 1 if re.fullmatch(r"H\d+", h) else -1
        return order[k] if 0 <= k < len(order) else -1

    return [sorted(base(h) for h in g) for g in groups]


def verdict_digest(table, order) -> str:
    rows = sorted(
        [relabel(row["flag"], order), row["stable"], row["compatible"]] for row in table
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def summarize(cmd: str, outcome: Outcome, order) -> dict:
    """The parts of a report the benchmark checks, in the base problem's labels."""
    if outcome.crash or outcome.timeout:
        return {"crash": outcome.crash or "timeout"}
    rep = outcome.report or {}
    out = {"exit": outcome.code, "passed": rep.get("passed")}
    if "stability_table" in rep:
        out["verdicts"] = verdict_digest(rep["stability_table"], order)
    cert = rep.get("certificate")
    if cert:
        out["certificate"] = [cert["certified"], cert["all_compatible"], cert["convergence"]]
    if "value" in rep:
        out["value"] = rep["value"]
        out["contributions"] = len(rep.get("contributions", ()))
        out["value_scale"] = magnitude_sum(c["value"] for c in rep.get("contributions", ()))
    if "violations" in rep or cmd == "analyze":
        out["violations"] = len(rep.get("violations", ()))
    if "grouping" in rep:
        import mpmath

        g = rep["grouping"]
        with mpmath.workprec(128):
            total = sum((_mpc(p["residue"]) for p in g["points"]), mpmath.mpc(0))
        out["groups"] = grouping_key(g["groups"], order)
        out["points"] = len(g["points"])
        out["residue_sum"] = {"re": mpmath.nstr(total.real, 30), "im": mpmath.nstr(total.imag, 30)}
        out["residue_sum_scale"] = magnitude_sum(p["residue"] for p in g["points"])
    return out


def check_against(expect: dict, order, dim: int):
    """Check an operation against the seed commit's recorded summaries.

    ``expect`` maps each command to its recorded summary.  Where the
    recorded grouping crashed there is no grouping to compare with; a
    grouping that no longer crashes must then satisfy its defining
    identity: (2 pi i)^r times the sum of its local residues is the
    recorded eval value.
    """

    def check(outcome: Outcome, cmd: str) -> str | None:
        ref = expect[cmd]
        if outcome.timeout:
            return "timeout"
        if ref.get("crash"):
            if outcome.crash == ref["crash"]:
                return "crash_as_at_seed"
            if outcome.crash:
                return "crash"
            return check_fixed_grouping(outcome, cmd)
        if outcome.crash:
            return "crash"
        if outcome.report is None:
            return "exit2" if outcome.code == 2 else "bad_output"
        got = summarize(cmd, outcome, order)
        if got["exit"] != ref["exit"] or got["passed"] != ref["passed"]:
            return "wrong_exit"
        if "value" in ref and not close(got["value"], ref["value"], ref["value_scale"]):
            return "wrong_value"
        if "residue_sum" in ref and not close(got["residue_sum"], ref["residue_sum"], residue_scale(ref)):
            return "wrong_value"
        for key in ("verdicts", "certificate", "contributions", "violations", "groups", "points"):
            if got.get(key) != ref.get(key):
                return f"wrong_{key}"
        return None

    def residue_scale(ref):
        """Scale of a grouping's residue sum.  The sum equals the eval value
        divided by (2 pi i)^r, so the eval's terms bound its accuracy as well
        as its own point residues do."""
        import mpmath

        with mpmath.workprec(128):
            flag_terms = mpmath.mpf(expect["eval"]["value_scale"]) / (2 * mpmath.pi) ** dim
            return max(mpmath.mpf(ref["residue_sum_scale"]), flag_terms)

    def check_fixed_grouping(outcome: Outcome, cmd: str) -> str | None:
        import mpmath

        if cmd != "grouping" or outcome.report is None or "grouping" not in outcome.report:
            return "exit2" if outcome.code == 2 else "bad_output"
        got = summarize(cmd, outcome, order)
        if got["exit"] != 0 or got["passed"] is not True:
            return "wrong_exit"
        hyperplanes = len(order)
        groups = got["groups"]
        if len(groups) != dim or not all(g and all(0 <= h < hyperplanes for h in g) for g in groups):
            return "wrong_groups"
        if got["points"] < 1:
            return "wrong_points"
        with mpmath.workprec(128):
            total = _mpc(got["residue_sum"]) * (2j * mpmath.pi) ** dim
            if not close(total, expect["eval"]["value"], expect["eval"]["value_scale"]):
                return "wrong_value"
        return None

    return check


def check_verify(expected_value, expected_exit: int):
    """A verify operation: value and certificate exact, oracle may not confirm."""

    def check(outcome: Outcome, cmd: str) -> str | None:
        if outcome.timeout:
            return "timeout"
        if outcome.crash:
            return "crash"
        if outcome.report is None:
            return "exit2" if outcome.code == 2 else "bad_output"
        rep = outcome.report
        if not close(rep["value"], expected_value):
            return "wrong_value"
        certified = rep["certificate"]["certified"]
        if certified != (expected_exit == 0):
            return "wrong_certificate"
        if outcome.code == expected_exit:
            return None
        if expected_exit == 0 and outcome.code == 1:
            # a correct certified value that the oracle did not confirm
            return "unconfirmed"
        return "wrong_exit"

    return check


# ---- workloads -------------------------------------------------------------------


def load_pool(family: str, pool_seed: int) -> list:
    data = json.loads(REFERENCE.read_text())
    return [e for e in data["pool"] if e["family"] == family and e["pool_seed"] == pool_seed]


def pooled_round(rng, family: str, pool_seed: int, round_no: int, directory: Path) -> list:
    import problems

    ops = []
    for k, entry in enumerate(load_pool(family, pool_seed)):
        base = problems.Problem(**{key: _tuples(v) for key, v in entry["problem"].items()})
        prob, order = problems.disguise(rng, base)
        path = directory / f"r{round_no}-{family}-{k}.rsd"
        path.write_text(prob.text(f"{entry['label']}, disguised"))
        check = check_against(entry["expect"], order, base.dim)
        for cmd in entry["expect"]:
            ops.append(Op(cmd, path, entry["label"], check))
    return ops


def _tuples(v):
    return tuple(_tuples(x) for x in v) if isinstance(v, list) else v


def verify_round(rng, pool_seed: int, round_no: int, directory: Path) -> list:
    """The closed-form products and the samples; the pool seed is not used."""
    import mpmath

    import problems

    ops = []
    family_rng = random.Random("verify-products:1")
    for k, (r, m, omegas, shear) in enumerate(VERIFY_PRODUCTS):
        base = problems.product(family_rng, r, m, omegas, shear)
        prob = problems.permute_coordinates(rng, base)
        path = directory / f"r{round_no}-product-{k}.rsd"
        label = f"product r={r} m={m} omega={omegas} shear={shear}"
        path.write_text(prob.text(label))
        with mpmath.workprec(128):
            value = problems.product_value(r, m, omegas)
        ops.append(Op("verify", path, label, check_verify(value, 0)))
    for name, (code, formula) in SAMPLE_EXPECT.items():
        with mpmath.workprec(128):
            value = mpmath.mpc(formula(mpmath))
        ops.append(Op("verify", SAMPLES / f"{name}.rsd", name, check_verify(value, code)))
    return ops


# Typical length of one round on a 2-vCPU x86 virtual machine.  A run does
# max(1, seconds // ROUND_SECONDS) rounds: fixed by --seconds rather than
# by the clock, so the machine's speed never changes the mix measured.
ROUND_SECONDS = {"flags": 13.0, "poles": 13.0, "verify": 45.0}

WORKLOADS = {
    "flags": lambda rng, ps, n, d: pooled_round(rng, "generic", ps, n, d),
    "poles": lambda rng, ps, n, d: pooled_round(rng, "coincident", ps, n, d),
    "verify": verify_round,
}


def run_ops(workload: str, ops: list, tracer=None) -> None:
    """Run ops in order, checking each and recording its time and speed.

    A probe is taken before each operation (see pace.py); an untraced
    in-process operation takes probes during it, and an untraced child takes
    its own.  A traced operation takes none during it, so that its spans
    hold no probe time.
    """
    cpu = before = None
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        if op.cpu != cpu:
            os.sched_setaffinity(0, {op.cpu})
            cpu, before = op.cpu, None
        if workload == "verify":
            # a traced child takes no probes; its op's speed is this one's
            probes = Probes()
            out = WORK / f"op{i}.json"
            boot = [TRACED_CHILD if tracer is not None else PACED_CHILD, str(HERE), str(out)]
            outcome, op.seconds = run_child(boot, op.cmd, op.path)
            if out.exists():
                got = json.loads(out.read_text())
                out.unlink()
                if tracer is not None:
                    tracer.merge(got, tracer.op_id)
                else:
                    probes.speeds += got["speeds"]
                    op.seconds -= got["spent"]
            op.speed = probes.speed()
        else:
            probes = Probes(before)
            spent = probes.spent
            outcome, seconds = run_inprocess(op.cmd, op.path, probes if tracer is None else None)
            op.seconds = seconds - (probes.spent - spent)
            before = probes.take()
            op.speed = probes.speed()
        op.cause = op.check(outcome, op.cmd)
        # keep no report: held by this process, it would count in peak_rss_mb
        oracle = (outcome.report or {}).get("oracle") or {}
        op.confirmed = bool(oracle.get("within_tolerance"))


def run_speed(workload: str, ops: list) -> float:
    """The run's speed: the mean of its operations' speeds.

    Every verify operation is paced by the run's speed rather than its own:
    most verify operations are short, so their own few probes are noisy,
    while the mean over a run follows the machine's drift from one run to
    the next (NOTES.md has the measurements).  setup_s is paced by it too.
    """
    speed = statistics.fmean(op.speed for op in ops)
    if workload == "verify":
        for op in ops:
            op.speed = speed
    return speed


# ---- metrics -----------------------------------------------------------------------


def paced(op: Op) -> float:
    return op.seconds * op.speed


def time_import() -> float:
    """Wall time of ``import residuum`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER], capture_output=True, text=True,
        env=_child_env(), cwd=ROOT, check=True, timeout=OP_CAP_S,
    )
    return float(proc.stdout)


def tail_index(n: int) -> int:
    """Index in sorted order of the highest of n samples with ten above it.

    With ten samples or fewer there is none; the maximum's is returned.
    """
    return n - 11 if n > 10 else n - 1


def quantile(xs: list, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile of xs.

    A weighted mean of all order statistics, with weights from the beta
    distribution centred on p.  The operations of a workload differ in size,
    so a single order statistic jumps between neighbouring operations from
    run to run; NOTES.md gives the spreads of both.
    """
    from scipy.special import betainc  # residuum's oracle imports it already

    xs = sorted(xs)
    n = len(xs)
    cdf = [betainc(p * (n + 1), (1 - p) * (n + 1), i / n) for i in range(n + 1)]
    return float(sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs)))


def interleave(ops: list, per_round: int) -> list:
    """The order to run ops in, each run pinned to a CPU.

    Round k holds operations k * per_round ... (k + 1) * per_round - 1, the
    same base problems in the same order.  An operation's copies from the
    rounds run back to back, each on the next CPU this process may use (a
    verify child inherits the CPU), so that an in-process operation and the
    probes around it run on the same CPU.
    """
    rounds = len(ops) // per_round
    cpus = sorted(os.sched_getaffinity(0))
    order = []
    for i in range(per_round):
        for k in range(rounds):
            op = ops[k * per_round + i]
            op.cpu = cpus[(i + k) % len(cpus)]
            order.append(op)
    return order


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "verify" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, ops: list, traced_wall: float, untraced_wall: float) -> dict:
    self_s, by_name = tracer.layer_times()
    counts = tracer.counters()
    out = {}
    for layer in ("dsl", "arrangement", "exact_linalg", "symfun", "residue_engine", "oracle", "cli"):
        out[f"{layer}.self_s"] = metric(self_s[layer], "s")
    for key, value in counts.items():
        out[key] = metric(value, "count")
    flags = tracer.distinct_flags()
    out["exact_linalg.profiles_per_flag"] = metric(
        counts["exact_linalg.minor_profile_calls"] / flags if flags else 0.0, "ratio"
    )
    out["oracle.integrand_s"] = metric(by_name["oracle.integrand"], "s")
    out["oracle.leggauss_s"] = metric(by_name["oracle.leggauss"], "s")
    verified = [op for op in ops if op.cmd == "verify"]
    confirmed = [op for op in verified if op.confirmed]
    out["oracle.confirm_ratio"] = metric(len(confirmed) / len(verified) if verified else 0.0, "ratio")
    out["trace.overhead_pct"] = metric(100.0 * (traced_wall / untraced_wall - 1.0), "%")
    return out


# ---- main ------------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pool-seed", type=int, choices=(1, 2), default=1,
        help="flags/poles base problems: 1 (default) or the holdout pool 2; "
        "verify's problems are fixed",
    )
    return parser.parse_args(argv)


def report_ops(ops: list) -> tuple[int, int, bool, dict]:
    causes: dict = {}
    for op in ops:
        if op.cause:
            causes[op.cause] = causes.get(op.cause, 0) + 1
            print(f"failed: {op.cmd} {op.label}: {op.cause}")
    failed = sum(causes.values())
    correct = all(
        op.cause == "crash_as_at_seed" or (op.cmd, op.label, op.cause) in KNOWN_FAILURES
        for op in ops
        if op.cause
    )
    return len(ops), failed, correct, causes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "residuum" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"perfbench: needs {SRC / 'residuum'} and {REFERENCE}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import residuum  # noqa: F401  (import cost is setup_s, not an operation)

    directory = WORK / f"{args.workload}-{args.seed}"
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"perfbench:{args.workload}:{args.seed}")
    build = WORKLOADS[args.workload]

    if args.trace:
        from spans import Tracer

        ops = build(rng, args.pool_seed, 0, directory)
        run_ops(args.workload, ops)
        untraced_wall = sum(op.seconds for op in ops)
        traced_ops = [Op(op.cmd, op.path, op.label, op.check) for op in ops]
        tracer = Tracer()
        if args.workload != "verify":
            tracer.install()
        try:
            run_ops(args.workload, traced_ops, tracer)
        finally:
            tracer.uninstall()
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.json.gz")
        traced_wall = sum(op.seconds for op in traced_ops)
        all_ops = ops + traced_ops
        metrics = layer_metrics(tracer, traced_ops, traced_wall, untraced_wall)
        print(f"traced round: {traced_wall:.3f} s, untraced: {untraced_wall:.3f} s, "
              f"{len(tracer.names)} spans")
    else:
        rounds = max(1, int(args.seconds // ROUND_SECONDS[args.workload]))
        all_ops = []
        for n in range(rounds):
            all_ops += build(rng, args.pool_seed, n, directory)
        per_round = len(all_ops) // rounds
        order = interleave(all_ops, per_round)
        # import timings spread over the run, so that their median is taken
        # across the machine's states during it (and is not moved by a first
        # import that compiles bytecode)
        imports = []
        cuts = [round(k * len(order) / SETUP_REPEATS) for k in range(SETUP_REPEATS + 1)]
        for start, stop in zip(cuts, cuts[1:]):
            run_ops(args.workload, order[start:stop])
            imports.append(time_import())
        rss = peak_rss_mb(args.workload)
        speed = run_speed(args.workload, all_ops)
        wall = sum(paced(op) for op in all_ops)
        times = [paced(op) for op in all_ops]
        n = len(times)
        tail = tail_index(n)
        ok = sum(not op.cause for op in all_ops)
        metrics = {
            "setup_s": metric(statistics.median(imports) * speed, "s"),
            "op_p50_s": metric(quantile(times, 0.5), "s"),
            "op_tail_s": metric(quantile(times, tail / (n - 1)), "s"),
            "ops_per_s": metric(ok / wall, "1/s"),
            "ok_ratio": metric(ok / n, "ratio"),
            "peak_rss_mb": metric(rss, "MB"),
        }
        raw = [op.seconds for op in all_ops]
        print(f"{args.workload}: {rounds} round(s) of {per_round} operations, {sum(raw):.3f} s "
              f"measured, {wall:.3f} s paced (run speed {speed:.3f}); op_tail_s is "
              f"p{100 * tail / (n - 1):.1f} of {n} operation times, {n - 1 - tail} above it")
        # the same times as order statistics, and unpaced, for comparison
        print(f"order statistics: op_p50_s {statistics.median(times)} s, "
              f"op_tail_s {sorted(times)[tail]} s")
        print(f"unpaced: setup_s {statistics.median(imports)} s, op_p50_s {quantile(raw, 0.5)} s, "
              f"op_tail_s {quantile(raw, tail / (n - 1))} s, ops_per_s {ok / sum(raw)} 1/s")
    attempted, failed, correct, causes = report_ops(all_ops)
    print(f"failed_ratio: {failed / attempted:.4f} ratio ({failed} of {attempted}; "
          f"by cause: {json.dumps(causes, sort_keys=True)})")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
