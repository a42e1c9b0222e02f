"""Command-line front end: analyze, eval, verify, grouping.

Each command parses a problem file, runs the exact engine, and emits a
report either as aligned text or as JSON (``--json``).  JSON reports carry
``"schema": 1`` and print every number at a fixed precision.
``Report.write_json`` streams a report through one ``write`` callable, with
sorted keys and a 2-space indent, exactly as ``json.dumps(...,
sort_keys=True, indent=2)`` would: every section but the stability table
through a small recursive writer, and the stability table in table order,
a few hundred rows per ``write``, from the flag table's row sets, each
distinct minor quoted once per table and no ``FlagEntry`` built.  The
text report reads its table rows from the flag table the same way.
Byte-identical inputs produce byte-identical output.

Exit status: 0 only when the run is certified (all stable collections
compatible, convergence rule known) and, for ``verify``, the oracle agrees
within tolerance; 1 otherwise; 2 for malformed problem files, usage errors,
a residue step that exceeds the term cap (``symfun.MAX_RESIDUE_TERMS``) or
a flag table past the flag cap (``arrangement.MAX_TABLE_FLAGS``).
"""

from __future__ import annotations

import functools
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import NamedTuple

import mpmath
from mpmath import mpf

from .arrangement import (
    Arrangement,
    FlagTable,
    Polyhedron,
    TableTooLarge,
    compatibility_audit,
    flag_table,
)
from .dsl import ProblemError, ProblemSpec, format_expr, load_problem
from .exact_linalg import GaussianRational, profile_layout, row_layout
from .oracle import (
    DEFAULT_BOX,
    DEFAULT_TOL,
    BudgetExceeded,
    NonDecaying,
    OutOfFloatRange,
    PoleOnArc,
    quad_integral,
    semicircle_check,
)
from .residue_engine import (
    ChartResidues,
    EmptyStableSet,
    EngineOptions,
    canonical_grouping_points,
    evaluate_integral,
)
from .symfun import TermBudgetExceeded, to_mpc, working_precision

VALUE_DIGITS = 24
BOUND_DIGITS = 17
_DIAGNOSTIC_RADII = (10.0, 30.0, 90.0)


def _fmt(x) -> str:
    return mpmath.nstr(mpf(x), BOUND_DIGITS)


def _cplx(z) -> dict:
    # an exact Gaussian integer as nstr prints it: parts below 10^24 and exact at mp.prec
    cap = min(10**VALUE_DIGITS, 2**mpmath.mp.prec)
    if z.__class__ is GaussianRational and z._d == 1 and max(abs(z._a), abs(z._b)) < cap:
        return {"re": f"{z._a}.0", "im": f"{z._b}.0"}
    z = to_mpc(z)
    return {
        "re": mpmath.nstr(z.real, VALUE_DIGITS),
        "im": mpmath.nstr(z.imag, VALUE_DIGITS),
    }


_OPTIONAL_SECTIONS = (
    "stability_table", "violations", "value", "contributions", "certificate", "oracle",
    "grouping", "diagnostics", "warnings", "notes",
)


class Report(NamedTuple):
    """One command's findings.

    ``stability_table`` holds the pair's ``FlagTable``, and ``jacobians``
    says whether its JSON rows carry each flag's Jacobian; every other
    section is already formatted for serialization.
    """

    command: str
    problem: dict
    passed: bool
    stability_table: tuple = ()
    jacobians: bool = False
    violations: tuple = ()
    value: dict | None = None
    contributions: tuple = ()
    certificate: dict | None = None
    oracle: dict | None = None
    grouping: dict | None = None
    diagnostics: tuple = ()
    warnings: tuple = ()
    notes: tuple = ()

    def write_json(self, write) -> None:
        """Write the JSON report, as ``json.dumps(report, sort_keys=True,
        indent=2)`` writes it, through ``write`` in pieces: the stability
        table row by row from the flag table (``_write_table``), every other
        section by ``_json_text``.  Besides the four sections always there,
        each dict section that is set and each tuple that is not empty is
        written."""
        sections = dict(schema=1, command=self.command, passed=self.passed, problem=self.problem)
        for key in _OPTIONAL_SECTIONS:
            value = getattr(self, key)
            if isinstance(value, dict) or value:
                sections[key] = value
        sep = "{\n  "
        for key in sorted(sections):
            write(sep + _quote(key) + ": ")
            if key == "stability_table":
                _write_table(write, self.stability_table, self.jacobians)
            else:
                write(_json_text(sections[key], "\n  "))
            sep = ",\n  "
        write("\n}")

    def to_json(self) -> str:
        """The JSON report as one string: ``write_json``'s pieces, joined."""
        parts: list[str] = []
        self.write_json(parts.append)
        return "".join(parts)

    def to_json_dict(self) -> dict:
        """The JSON report, parsed."""
        return json.loads(self.to_json())

    def to_text(self) -> str:
        lines: list[str] = []
        p = self.problem
        lines.append(
            f"problem: {p['dim']} variable(s), "
            f"{len(p['hyperplanes'])} hyperplane(s), cone det {p['cone_det']}"
        )
        for h in p["hyperplanes"]:
            mult = f"^{h['multiplicity']}" if h["multiplicity"] != 1 else ""
            lines.append(
                f"  {h['name']}{mult}: f = ({', '.join(h['f'])}), "
                f"s = {h['s']['re']} + {h['s']['im']}i"
            )
        if p.get("numerator"):
            lines.append(f"  numerator: {p['numerator']}")
        if self.stability_table:
            lines.append("")
            lines.append(
                f"{'flag':<12}{'stable':<9}{'compatible':<12}p-minors"
            )
            lines += _text_rows(self.stability_table)
        for v in self.violations:
            qs = ", ".join(f"q[{k}] = {val}" for k, val in v["positive_q"].items())
            lines.append(f"violation: stable collection {v['flag']} has {qs}")
        if self.value is not None:
            lines.append("")
            lines.append(f"value: {self.value['re']} + {self.value['im']}i")
        for c in self.contributions:
            lines.append(
                f"  residue {c['flag']}: {c['value']['re']} + {c['value']['im']}i"
            )
        if self.certificate is not None:
            status = "CERTIFIED" if self.certificate["certified"] else "NOT CERTIFIED"
            lines.append(
                f"certificate: {status} "
                f"(convergence: {self.certificate['convergence']}, "
                f"all compatible: {'yes' if self.certificate['all_compatible'] else 'no'})"
            )
        if self.oracle is not None:
            if "error" in self.oracle:
                lines.append(f"oracle: unavailable ({self.oracle['error']})")
            else:
                lines.append(
                    f"oracle: estimate {self.oracle['estimate']['re']} + "
                    f"{self.oracle['estimate']['im']}i "
                    f"(error bound {self.oracle['error_bound']}, "
                    f"tail {self.oracle['tail_estimate']}, "
                    f"{self.oracle['nodes_per_axis']} nodes/axis)"
                )
                verdict = "PASS" if self.oracle["within_tolerance"] else "FAIL"
                lines.append(
                    f"  |value - estimate| = {self.oracle['difference']} "
                    f"vs tolerance {self.oracle['tolerance']}: {verdict}"
                )
        if self.grouping is not None:
            lines.append(f"grouping: {self.grouping['label']}")
            for entry in self.grouping["points"]:
                coords = ", ".join(
                    f"{c['re']} + {c['im']}i" for c in entry["point"]
                )
                lines.append(
                    f"  point ({coords}): residue "
                    f"{entry['residue']['re']} + {entry['residue']['im']}i"
                )
        for d in self.diagnostics:
            trend = "vanish" if d["trending_to_zero"] else "do not vanish"
            lines.append(
                f"diagnostic: arcs after the {d['after']} residue {trend} "
                f"(|integral| {d['magnitudes'][0]} -> {d['magnitudes'][-1]} "
                f"over radii {d['radii'][0]} -> {d['radii'][-1]})"
            )
        lines += (f"warning: {w}" for w in self.warnings)
        lines += (f"note: {n}" for n in self.notes)
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def _problem_dict(spec: ProblemSpec, arr: Arrangement, poly: Polyhedron) -> dict:
    hps = [
        {"name": f"H{k + 1}", "f": [str(x) for x in h.f], "s": _cplx(h.s), "multiplicity": m}
        for k, (h, m) in enumerate(zip(arr.hyperplanes, arr.multiplicities))
    ]
    params = {n: format_expr(e) for n, e in spec.parameters}
    return {
        "variables": list(spec.variables),
        "dim": arr.dim,
        "cone": [[str(x) for x in v] for v in spec.cone],
        "cone_det": str(poly.det()),
        "hyperplanes": hps,
        "parameters": params,
        "numerator": (
            format_expr(spec.numerator) if spec.numerator is not None else "1"
        ),
    }


def _json_text(value, pad: str) -> str:
    """``value`` (str-keyed dicts, lists, tuples and scalars) as ``json.dumps(
    value, sort_keys=True, indent=2)`` writes it, on a line that starts with
    ``pad``: a newline and that line's indent."""
    if isinstance(value, str):
        return _quote(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [_quote(key) + ": " + _json_text(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if value is None or isinstance(value, bool):
        return _JSON_CONSTANT[value]
    return int.__repr__(value) if isinstance(value, int) else json.dumps(value)


_JSON_BOOL = ("false", "true")
_JSON_CONSTANT = {None: "null", False: "false", True: "true"}
_CHUNK_ROWS = 256  # stability-table rows per ``write``


@functools.cache
def _row_layout(k: int, jacobians: bool) -> tuple:
    """The ``%`` template of a stability-table row at r = k and, per
    ordering in ``row_layout`` order, the getter of its fields from its row
    set's source list, in ``sort_keys`` order: q and r keys "(1,10)" before
    "(1,2)".  A source list holds per ordering its verdict texts, then the
    set's hyperplane names, its chart rows' JSON (with ``jacobians``) and
    its quoted minors (``set_layout``)."""
    q, r = ({"(%d,%d)" % key: "%s" for key, _ in ps} for ps in profile_layout(k, k)[:2])
    shape = dict.fromkeys(("compatible", "in_bruhat_cell", "stable"), "%s")
    shape.update(flag="(" + ",".join(["%s"] * k) + ")", p=["%s"] * k, q=q, r=r)
    if jacobians:
        shape["jacobian"] = ["%s"] * k
    text = json.dumps(shape, sort_keys=True, indent=2)
    name_at = 3 * math.factorial(k)  # where a source list's names start
    minor_at = name_at + k * (1 + jacobians)
    getters = []
    for o, (rows, places) in enumerate(row_layout(k, k)):
        jac = [name_at + k + i for i in rows] if jacobians else []
        fields = [3 * o + 1, *(name_at + i for i in rows), 3 * o + 2, *jac]
        getters.append(itemgetter(*fields, *(minor_at + i for i in places), 3 * o))
    return text.replace('"%s"', "%s").replace("\n", "\n    "), getters


def _write_table(write, table: FlagTable, jacobians: bool) -> None:
    """The stability table as a JSON array at depth 1 of the report.

    Each row set's source list is built once (``_row_layout``): each
    distinct minor is quoted once per table, and each chart row written
    once.  The rows are then written in table order, each one template
    filled by its ordering's getter from its set's source list, and sent to
    ``write`` ``_CHUNK_ROWS`` at a time; no entry is built."""
    chart, verdicts, k = table.chart.entries, table.verdicts, table.chart.cols
    template, getters = _row_layout(k, jacobians)
    names = [f"H{i + 1}" for i in range(len(chart))]
    if jacobians:
        chart = [_json_text(list(map(str, row)), "\n" + "  " * 4) for row in chart]
    quoted = _Quoted()
    sources = []
    for s, m, places in table.row_sets:
        source = [_JSON_BOOL[v] for n in places for v in verdicts[n]]
        source += [names[i] for i in s]
        if jacobians:
            source += [chart[i] for i in s]
        source += map(quoted.__getitem__, m)
        sources.append(source)
    sep, f, origins = "[\n    ", len(getters), table.sources
    for start in range(0, len(origins), _CHUNK_ROWS):
        chunk = origins[start : start + _CHUNK_ROWS]
        rows = [template % getters[o](sources[s]) for s, o in (divmod(n, f) for n in chunk)]
        write(sep + ",\n    ".join(rows))
        sep = ",\n    "
    write("\n  ]")


def _text_rows(table: FlagTable) -> list:
    """The text report's stability-table lines, in table order: each flag's
    label, its stable and compatible verdicts and its p minors, read from
    its row set's minors by its ordering's getter; no entry is
    built."""
    readings = profile_layout(table.chart.cols, table.chart.cols)[2]
    names = [f"H{i + 1}" for i in range(table.chart.rows)]
    words = ("no", "yes")
    lines = []
    for flag, (stable, compatible, _), n in zip(table.indices, table.verdicts, table.sources):
        s, o = divmod(n, len(readings))
        label = "(" + ",".join([names[i] for i in flag]) + ")"
        minors = ", ".join(map(str, readings[o][1](table.row_sets[s][1])))
        lines.append(f"{label:<12}{words[stable]:<9}{words[compatible]:<12}{minors}")
    return lines


class _Quoted(dict):
    """Each value's quoted JSON string, made when it is first read."""

    def __missing__(self, value) -> str:
        text = self[value] = _quote(str(value))
        return text


def _violation_rows(audit) -> tuple:
    return tuple(
        {
            "flag": v.flag.label(),
            "positive_q": {f"({j},{l})": str(val) for (j, l), val in v.positive_q},
        }
        for v in audit.violations
    )


def cmd_analyze(spec: ProblemSpec, options: EngineOptions | None = None) -> Report:
    opts = options or EngineOptions()
    with working_precision(opts.precision):
        arr = spec.arrangement()
        poly = spec.polyhedron()
        table = flag_table(arr, poly)
        audit = compatibility_audit(arr, poly, table)
        return Report(
            command="analyze",
            problem=_problem_dict(spec, arr, poly),
            passed=audit.all_compatible,
            stability_table=table,
            jacobians=True,
            violations=_violation_rows(audit),
            certificate={
                "certified": audit.all_compatible,
                "all_compatible": audit.all_compatible,
                "convergence": "NotChecked",
                "warnings": [],
            },
        )


def _eval_parts(spec: ProblemSpec, options: EngineOptions):
    arr = spec.arrangement()
    poly = spec.polyhedron()
    result = evaluate_integral(arr, poly, options)
    contributions = tuple(
        {"flag": flag.label(), "value": _cplx(val)}
        for flag, val in sorted(
            result.flag_contributions.items(), key=lambda kv: kv[0].indices
        )
    )
    certificate = {
        "certified": result.certificate.certified,
        "all_compatible": result.certificate.all_compatible,
        "convergence": result.certificate.convergence.value,
        "warnings": list(result.certificate.warnings),
    }
    return arr, poly, result, contributions, certificate


def cmd_eval(spec: ProblemSpec, options: EngineOptions | None = None) -> Report:
    opts = options or EngineOptions()
    with working_precision(opts.precision):
        arr, poly, result, contributions, certificate = _eval_parts(spec, opts)
        return Report(
            command="eval",
            problem=_problem_dict(spec, arr, poly),
            passed=result.certificate.certified,
            stability_table=result.flag_table,
            value=_cplx(result.value),
            contributions=contributions,
            certificate=certificate,
            warnings=tuple(result.certificate.warnings),
        )


def _divergence_diagnostics(arr: Arrangement, poly: Polyhedron, table: FlagTable) -> tuple:
    """Arc checks for the contour steps the residue formula would close.

    Only meaningful in one or two variables: integrate out the first chart
    variable by residues, then probe the remaining one-variable integrands
    on expanding upper semicircular arcs.  Arcs that do not vanish witness
    that the closed contour drops a nonzero boundary term.  The chart is
    the pair's flag ``table``'s.
    """
    if arr.dim > 2:
        return ()
    residues = ChartResidues(arr, poly, table)
    integrand, forms = residues.pullback
    if arr.dim == 1:
        candidates = [("the integrand's", integrand)]
    else:
        sample = Fraction(95, 256)
        candidates = []
        for j, g in forms.items():
            if not g.coeffs[0]:  # the exact chart row does not involve z_1
                continue
            pole = g.solve_for(0)  # z_1 at the pole, exactly, at z_2 = sample
            if (pole.coeffs[1] * sample + pole.const).imag <= 0:
                continue
            candidates.append((f"H{j + 1}", residues.step((j,))[0]))
    entries = []
    for label, func in candidates:
        if func.is_zero():
            continue
        try:
            diag = semicircle_check(func, _DIAGNOSTIC_RADII)
        except (PoleOnArc, ValueError):
            continue
        entries.append(
            {
                "after": label,
                "radii": [_fmt(x) for x in diag.sampled_radii],
                "magnitudes": [_fmt(x) for x in diag.magnitudes],
                "peak_magnitudes": [_fmt(x) for x in diag.peak_magnitudes],
                "trending_to_zero": diag.trending_to_zero,
            }
        )
    return tuple(entries)


def cmd_verify(
    spec: ProblemSpec,
    options: EngineOptions | None = None,
    box: float = DEFAULT_BOX,
    tol: float = DEFAULT_TOL,
) -> Report:
    opts = options or EngineOptions()
    with working_precision(opts.precision):
        arr, poly, result, contributions, certificate = _eval_parts(spec, opts)
        notes: list[str] = []
        oracle: dict
        within = False
        try:
            quad = quad_integral(arr, box=box, tol=tol)
            diff = mpmath.fabs(result.value - quad.estimate)
            bound = mpf(tol) * max(mpf(1), mpmath.fabs(result.value))
            within = bool(diff <= bound)
            oracle = {
                "estimate": _cplx(quad.estimate),
                "error_bound": _fmt(quad.error_bound),
                "tail_estimate": _fmt(quad.tail_estimate),
                "box_halfwidth": _fmt(quad.box_halfwidth),
                "nodes_per_axis": quad.nodes_per_axis,
                "difference": _fmt(diff),
                "tolerance": _fmt(tol),
                "within_tolerance": within,
            }
        except (NonDecaying, BudgetExceeded, OutOfFloatRange, ValueError) as exc:
            oracle = {"error": str(exc)}
            notes.append(f"numerical verification unavailable: {exc}")
        passed = result.certificate.certified and within
        diagnostics: tuple = ()
        if not result.certificate.all_compatible:
            diagnostics = _divergence_diagnostics(arr, poly, result.flag_table)
            if any(not d["trending_to_zero"] for d in diagnostics):
                notes.append(
                    "a second-stage arc integral does not vanish, so closing "
                    "the contour drops a boundary term; the stable-flag sum "
                    "does not represent this integral"
                )
        return Report(
            command="verify",
            problem=_problem_dict(spec, arr, poly),
            passed=passed,
            stability_table=result.flag_table,
            value=_cplx(result.value),
            contributions=contributions,
            certificate=certificate,
            oracle=oracle,
            diagnostics=diagnostics,
            warnings=tuple(result.certificate.warnings),
            notes=tuple(notes),
        )


def cmd_grouping(spec: ProblemSpec, options: EngineOptions | None = None) -> Report:
    opts = options or EngineOptions()
    with working_precision(opts.precision):
        arr = spec.arrangement()
        poly = spec.polyhedron()
        try:
            grouping, points = canonical_grouping_points(arr, poly)
        except EmptyStableSet as exc:
            return Report(
                command="grouping",
                problem=_problem_dict(spec, arr, poly),
                passed=False,
                notes=(f"no canonical grouping: {exc}",),
            )
        entries = [
            {
                "point": [_cplx(c) for c in point],
                "flags": [f.label() for f in flags],
                "residue": _cplx(res),
            }
            for point, flags, res in points
        ]
        return Report(
            command="grouping",
            problem=_problem_dict(spec, arr, poly),
            passed=True,
            grouping={
                "label": grouping.label(arr),
                "groups": [
                    sorted(f"H{i + 1}" for i in g) for g in grouping.groups
                ],
                "points": entries,
            },
        )


def _positive_float(text: str) -> float:
    import argparse

    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _precision_bits(text: str) -> int:
    import argparse

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    # the oracle works in float64, so the engine never goes below double
    if value < 53:
        raise argparse.ArgumentTypeError(f"must be at least 53 bits, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building one leaves
    reference cycles (argparse's help formatters) for the cyclic collector.
    argparse is imported here, not by ``import residuum``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="residuum",
        description=(
            "Evaluate integrals of rational-exponential functions with "
            "affine polar hyperplanes by iterated residues, and verify "
            "the answers numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="problem file")
    common.add_argument(
        "--precision",
        type=_precision_bits,
        default=128,
        help="working precision in bits, at least 53 (default 128)",
    )
    common.add_argument(
        "--box",
        type=_positive_float,
        default=DEFAULT_BOX,
        help=(
            "oracle length in its hyperplane coordinates, finite and > 0 "
            "(verify only): the tangent-map scale without oscillation, "
            "the base window half-width with it"
        ),
    )
    common.add_argument(
        "--tol",
        type=_positive_float,
        default=DEFAULT_TOL,
        help="oracle tolerance and verify comparison tolerance, finite and > 0",
    )
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    for name, text in (
        ("analyze", "flag stability and compatibility table"),
        ("eval", "evaluate by residues"),
        ("verify", "evaluate and compare against numerical quadrature"),
        ("grouping", "canonical divisor grouping and local residues"),
    ):
        sub.add_parser(name, parents=[common], help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = load_problem(args.file)
    except (OSError, ProblemError) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 2
    options = EngineOptions(precision=args.precision)
    try:
        if args.command == "analyze":
            report = cmd_analyze(spec, options)
        elif args.command == "eval":
            report = cmd_eval(spec, options)
        elif args.command == "verify":
            report = cmd_verify(spec, options, box=args.box, tol=args.tol)
        else:
            report = cmd_grouping(spec, options)
    except (ProblemError, TableTooLarge, TermBudgetExceeded) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        report.write_json(sys.stdout.write)
        sys.stdout.write("\n")
    else:
        print(report.to_text(), end="")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
