"""Span recording around the public boundary functions of each module.

``Tracer.install`` wraps the functions listed in ``BOUNDARIES`` and patches
each wrapper into every ``residuum.*`` namespace that binds the original, so
calls made through a name imported into another module (``cli`` and
``residue_engine`` import by name) are recorded too.  Nothing under ``src/``
changes.

A span is (name, start, end, parent, operation id).  Spans stay in memory
in flat arrays and are written out once, when the run ends.  A layer is the
module a span's function belongs to; its self time is the sum over its
spans of duration minus the time covered by direct child spans.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# layer -> boundary functions, as (module, attribute path)
BOUNDARIES = {
    "dsl": [("residuum.dsl", "parse_problem"), ("residuum.dsl", "ProblemSpec.arrangement")],
    "arrangement": [
        ("residuum.arrangement", name)
        for name in (
            "enumerate_flags",
            "stable_flags",
            "compatibility_audit",
            "flag_classes",
            "jacobian",
            "pole_location",
        )
    ],
    "exact_linalg": [
        ("residuum.exact_linalg", name)
        for name in ("minor_profile", "determinant", "rank", "inverse", "solve_linear")
    ],
    "symfun": [
        ("residuum.symfun", "ExpRationalFunction.residue_1d"),
        ("residuum.symfun", "ExpRationalFunction.differentiate"),
    ],
    "residue_engine": [
        ("residuum.residue_engine", name)
        for name in (
            "evaluate_integral",
            "convergence_heuristic",
            "iterated_residue",
            "canonical_grouping",
            "grothendieck_residue",
        )
    ],
    "oracle": [
        ("residuum.oracle", "quad_integral"),
        ("residuum.oracle", "compile_numeric"),
        ("residuum.oracle", "semicircle_check"),
    ],
    "cli": [
        ("residuum.cli", name)
        for name in (
            "main",
            "cmd_analyze",
            "cmd_eval",
            "cmd_verify",
            "cmd_grouping",
            "Report.to_json_dict",
        )
    ],
}
LAYERS = tuple(BOUNDARIES)

# the names of per-layer metrics in the order the benchmark reports them
COUNTERS = (
    "arrangement.enumerate_calls",
    "arrangement.flags_enumerated",
    "arrangement.audit_calls",
    "exact_linalg.minor_profile_calls",
    "exact_linalg.determinant_calls",
    "exact_linalg.rank_calls",
    "symfun.residue_calls",
    "symfun.differentiate_calls",
    "symfun.peak_terms",
    "residue_engine.iterated_residue_calls",
    "residue_engine.grothendieck_calls",
    "oracle.integrand_points",
    "oracle.leggauss_calls",
    "oracle.nodes_per_axis_max",
)
_CALL_COUNTERS = {
    "arrangement.enumerate_flags": "arrangement.enumerate_calls",
    "arrangement.compatibility_audit": "arrangement.audit_calls",
    "exact_linalg.minor_profile": "exact_linalg.minor_profile_calls",
    "exact_linalg.determinant": "exact_linalg.determinant_calls",
    "exact_linalg.rank": "exact_linalg.rank_calls",
    "symfun.residue_1d": "symfun.residue_calls",
    "symfun.differentiate": "symfun.differentiate_calls",
    "residue_engine.iterated_residue": "residue_engine.iterated_residue_calls",
    "residue_engine.grothendieck_residue": "residue_engine.grothendieck_calls",
    "oracle.leggauss": "oracle.leggauss_calls",
}


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span store plus the counters read at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        # largest complete-flag enumeration seen in each operation
        self.flags_per_op: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ---- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        names, start, end, parent, op, stack = (
            self.names, self.start, self.end, self.parent, self.op, self._stack,
        )

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(out, args)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _after(self, name: str):
        if name == "arrangement.enumerate_flags":
            def after(out, args):
                self.counts["arrangement.flags_enumerated"] += len(out)
                if out and len(out[0]) == args[0].dim:  # complete flags
                    key = self.op_id
                    self.flags_per_op[key] = max(self.flags_per_op[key], len(out))
            return after
        if name in ("symfun.residue_1d", "symfun.differentiate"):
            def after(out, args):
                self.peaks["symfun.peak_terms"] = max(
                    self.peaks["symfun.peak_terms"], len(out.terms)
                )
            return after
        if name == "oracle.quad_integral":
            def after(out, args):
                self.peaks["oracle.nodes_per_axis_max"] = max(
                    self.peaks["oracle.nodes_per_axis_max"], out.nodes_per_axis
                )
            return after
        return None

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every boundary function; call ``uninstall`` to undo."""
        import numpy.polynomial.legendre as legendre

        import residuum  # noqa: F401  (loads every residuum.* module)

        modules = [m for n, m in sys.modules.items() if n == "residuum" or n.startswith("residuum.")]
        for layer, targets in BOUNDARIES.items():
            for module_name, path in targets:
                owner, attr = _resolve(module_name, path)
                orig = getattr(owner, attr)
                name = f"{layer}.{attr}"
                if name == "oracle.compile_numeric":
                    wrapped = self.wrap(name, self._compile_numeric(orig))
                else:
                    wrapped = self.wrap(name, orig, self._after(name))
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, wrapped)
        self._patch(legendre, "leggauss", self.wrap("oracle.leggauss", legendre.leggauss))

    def _compile_numeric(self, orig):
        def compile_numeric(func):
            evaluate = orig(func)

            def counted(points):
                self.counts["oracle.integrand_points"] += int(points.shape[1])
                return evaluate(points)

            return self.wrap("oracle.integrand", counted)

        return compile_numeric

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ---- results -------------------------------------------------------------

    def merge(self, data: dict, op_id: int) -> None:
        """Add spans and counters recorded by a child process for one operation."""
        base = len(self.names)
        self.names.extend(data["names"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.op.extend([op_id] * len(data["names"]))
        self.counts.update(data["counts"])
        for key, value in data["peaks"].items():
            self.peaks[key] = max(self.peaks[key], value)
        if data["flags"]:
            self.flags_per_op[op_id] = max(self.flags_per_op[op_id], data["flags"])

    def export(self) -> dict:
        return {
            "names": self.names,
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
            "flags": max(self.flags_per_op.values(), default=0),
        }

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(self.export(), fh)

    def layer_times(self) -> tuple[dict, dict]:
        """(self seconds per layer, total seconds per span name)."""
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_name: Counter = Counter()
        for i, name in enumerate(self.names):
            self_s[name.split(".", 1)[0]] += dur[i] - covered[i]
            by_name[name] += dur[i]
        return self_s, by_name

    def counters(self) -> dict:
        names = Counter(self.names)
        out = {key: 0 for key in COUNTERS}
        for span, key in _CALL_COUNTERS.items():
            out[key] = names[span]
        for key in ("arrangement.flags_enumerated", "oracle.integrand_points"):
            out[key] = self.counts[key]
        for key in ("symfun.peak_terms", "oracle.nodes_per_axis_max"):
            out[key] = self.peaks[key]
        return out

    def distinct_flags(self) -> int:
        return sum(self.flags_per_op.values())


def child_main(out_path: str, argv: list[str]) -> int:
    """Run the CLI once under tracing and write the spans to ``out_path``."""
    tracer = Tracer()
    tracer.install()
    from residuum.cli import main

    tracer.op_id = 0
    try:
        return main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
