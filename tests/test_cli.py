"""Command surface: reports, exit codes, JSON stability, diagnostics."""

import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import FunctionType

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf, pi

from conftest import disguise, disguise_map, three_plane_value
from reference import matrix, stability_lines, stability_rows
from residuum import arrangement, exact_linalg, oracle, symfun
from residuum.arrangement import (
    Arrangement,
    FlagTable,
    Hyperplane,
    Polyhedron,
    compatibility_audit,
    flag_table,
    jacobian,
    pole_location,
    stable_flags,
    terminal_classes,
)
from residuum.cli import (
    _CHUNK_ROWS,
    Report,
    _json_text,
    cmd_analyze,
    cmd_eval,
    cmd_grouping,
    cmd_verify,
    main,
)
from residuum.dsl import parse_problem
from residuum.exact_linalg import (
    GaussianRational,
    RationalMatrix,
    inverse,
    minor_profile,
    minor_store,
    rank,
)
from residuum.residue_engine import (
    ChartResidues,
    EngineOptions,
    canonical_grouping_points,
    evaluate_integral,
)
from residuum.symfun import ExpRationalFunction, constant_sum, rounded_sum, working_precision

SAMPLES = Path(__file__).resolve().parents[1] / "problems"

EX1_PIB = """\
vars x y;
cone (-1,1) (0,1);
param n1=2 n2=3 s1=1 s2=1 s3=1;
num n1^(i*x - s1) * n2^(i*y - s2);
den (-x - s1*i) (-y - s2*i) (x + y - s3*i);
"""

# same arrangement with the larger base on x, over the first-quadrant cone:
# the lone stable pair is incompatible and its terminal point leaves the cone
EX1_PIA = EX1_PIB.replace("cone (-1,1) (0,1);", "cone (1,0) (0,1);").replace(
    "param n1=2 n2=3", "param n1=3 n2=2"
)

EX2 = """\
vars x y;
cone (1,0) (-1,1);
num exp(2*pi*i*(x + 2*y));
den (x - i) (y - i) (x + y - 2*i);
"""

PI_1D = """\
vars x;
cone (1);
num -1;
den (x - i) (-x - i);
"""

# both poles in the lower half plane: the integral closes upward to zero
# and no one-hyperplane collection is stable
ZERO_1D = """\
vars x;
cone (1);
den (-x - i) (-x - 2*i);
"""


# six planes through one point, from the benchmark's coincident family
SQUARED_POLES = """\
vars v1 v2 v3;
cone (1,0,0) (0,1,0) (0,0,1);
num 1*exp(i*(v1 - v2));
den (-v1 + 2*v2 - 3*i)^2 (v1 + 2*v2 - 2*v3 - 3*i)^2 (2*v1 + v2 + 2*v3 - 6*i)^2 \
(v1 - v2 + 2*v3 - 1*i)^2 (v3 - 1*i)^2 (v1 + v2 + 2*v3 - 5*i)^2;
"""
CUBED_POLES = """\
vars v1 v2 v3;
cone (1,0,0) (0,1,0) (0,0,1);
den (-v2 + 2*v3 - 2*i)^3 (2*v1 + 2*v2 - v3 - 6*i)^3 (-v1 + v2 + v3 - 2*i) \
(v1 - v2 + v3 - 2*i) (v1 + 2*v2 + 2*v3 - 10*i) (2*v1 + 2*v2 + v3 - 10*i);
"""
# coincident ((3, 2, 2, 1, 1, 1), True) #1 of the benchmark's pool 1: poles
# of order 3, 2 and 1 at one point, as the poles workload runs them
MIXED_POLES = """\
vars v1 v2 v3;
cone (1,0,0) (0,1,0) (0,0,1);
num 1*exp(i*(v1 - v3));
den (2*v1 + 2*v2 + v3 - 6*i)^3 (v1 + 2*v3 - 5*i)^2 (v1 - 2*v2 + v3 - 1*i)^2 \
(-v1 + 2*v3 - 3*i) (-v2 + 2*v3 - 3*i) (v1 + v2 + 2*v3 - 6*i);
"""

# six planes through one point, each a pole of order 3
SIX_CUBED = """\
vars v1 v2 v3;
cone (1,0,0) (0,1,0) (0,0,1);
num 1*exp(i*(v1));
den (2*v1 + v2 - 4*i)^3 (v1 - v2 + v3 - 1*i)^3 (-v1 + 2*v2 + 2*v3 - 7*i)^3 \
(v2 - 2*i)^3 (v1 - v2 + 2*v3 - 3*i)^3 (-v2 + 2*v3 - 2*i)^3;
"""


# generic (4, 7) #1 of the benchmark's pool 1: every four rows independent
GENERIC_4_7 = """\
vars v1 v2 v3 v4;
cone (1,0,0,0) (0,1,0,0) (0,0,1,0) (0,0,0,1);
den (v2 - v4 - 4*i) (v1 + v2 + 2*v3 + v4 - 3*i) (-2*v1 + v2 - 4*i) (2*v1 + v3 - 4*i) \
(-v1 + 2*v2 - v3 + 2*v4 - 3*i) (v2 + v3 - 2*v4 - 3*i) (-2*v2 - v3 - 3*i);
"""


def _val(d):
    return mpc(mpf(d["re"]), mpf(d["im"]))


def _write(tmp_path, text):
    path = tmp_path / "problem.rsd"
    path.write_text(text)
    return str(path)


def _count_calls(monkeypatch, calls: dict) -> None:
    """Append each call's first argument to ``calls[name]``, for every name
    the residuum modules import from ``exact_linalg`` or ``arrangement``.
    ``calls["MinorProfile"]`` gets each profile built: a NamedTuple is
    built in ``__new__``."""
    for fn in calls:
        if fn == "MinorProfile":
            new = exact_linalg.MinorProfile.__new__

            def counted_new(cls, *args, new=new, **kwargs):
                profile = new(cls, *args, **kwargs)
                calls["MinorProfile"].append(profile)
                return profile

            monkeypatch.setattr(exact_linalg.MinorProfile, "__new__", counted_new)
            continue
        original = getattr(arrangement if fn == "pole_location" else exact_linalg, fn)

        def counted(*args, fn=fn, original=original):
            calls[fn].append(args[0])
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("residuum") and vars(module).get(fn) is original:
                monkeypatch.setattr(module, fn, counted)


def _assert_one_store(calls: dict, arr, poly) -> None:
    """The command built one ``minor_store``, of the chart matrix F M, with
    one pair per k-subset of its R rows and column l >= k: sum_k C(R, k)
    (r - k + 1) pairs.  ``determinant`` ran on the polyhedron's basis
    only (its independence check and its determinant)."""
    chart = jacobian(arr, range(len(arr.hyperplanes)), poly)
    r, big_r = arr.dim, len(arr.hyperplanes)
    assert calls["minor_store"] == [chart]
    size = sum(math.comb(big_r, k) * (r - k + 1) for k in range(1, r + 1))
    assert len(minor_store(chart)) == 2 * size
    assert set(calls["determinant"]) <= {poly.basis_matrix()}


@pytest.mark.parametrize(
    "text",
    [EX1_PIB, EX1_PIA, EX2, PI_1D, ZERO_1D],
    ids=["pib", "pia", "ex2", "pi_1d", "zero_1d"],
)
def test_one_minor_profile_per_flag(monkeypatch, text):
    """analyze and eval build a complete flag's minor profile only for a
    reported violation, once, all read from one minor store of the chart
    matrix: every other flag is decided by its verdicts alone."""
    calls = {"MinorProfile": [], "minor_store": [], "determinant": []}
    spec = parse_problem(text)
    arr, poly = spec.arrangement(), spec.polyhedron()
    with mp.workprec(128):
        violations = compatibility_audit(arr, poly).violations
    _count_calls(monkeypatch, calls)
    for command in (cmd_analyze, cmd_eval):
        for fn in calls:
            calls[fn].clear()
        with mp.workprec(128):
            command(spec)
        built = calls["MinorProfile"]
        assert [(p.stable, p.compatible) for p in built] == [(True, False)] * len(violations)
        assert [tuple((key, x) for key, x in p.q if x > 0) for p in built] == [
            v.positive_q for v in violations
        ], command.__name__
        _assert_one_store(calls, arr, poly)


def _count_full_charts(monkeypatch, arr, poly) -> list:
    """The list that each full-range ``jacobian`` call on ``poly`` appends
    it to, in every residuum module."""
    every = tuple(range(len(arr.hyperplanes)))
    charts = []
    original = arrangement.jacobian

    def counted(a, indices, chart_poly):
        if tuple(indices) == every and chart_poly == poly:
            charts.append(chart_poly)
        return original(a, indices, chart_poly)

    for name, module in list(sys.modules.items()):
        if name.startswith("residuum") and vars(module).get("jacobian") is original:
            monkeypatch.setattr(module, "jacobian", counted)
    return charts


def test_verify_diagnostics_read_the_table_chart(monkeypatch):
    """verify on an incompatible pair computes the chart matrix F M of its
    cone once: the arc diagnostics read the flag table's chart.  (The
    oracle's own charts are other cones.)"""
    spec = parse_problem(EX1_PIA)
    arr, poly = spec.arrangement(), spec.polyhedron()
    charts = _count_full_charts(monkeypatch, arr, poly)
    with mp.workprec(128):
        report = cmd_verify(spec)
    assert report.diagnostics
    assert charts == [poly]


def test_verify_computes_the_oracle_chart_once(monkeypatch):
    """verify computes the chart matrix F M of the chart the oracle picks
    once: the quadrature's integrand is pulled back through the rows that
    the chart search computed for its key."""
    spec = parse_problem(EX1_PIA)
    arr = spec.arrangement()
    chosen, _ = oracle._hyperplane_chart(arr)
    charts = _count_full_charts(monkeypatch, arr, chosen)
    with mp.workprec(128):
        report = cmd_verify(spec)
    assert report.oracle is not None
    assert charts == [chosen]


@pytest.mark.parametrize(
    "text", [EX1_PIB, EX2, PI_1D, SQUARED_POLES], ids=["pib", "ex2", "pi_1d", "squared"]
)
def test_each_subset_determinant_once(monkeypatch, text):
    """analyze computes each minor of the chart matrix once.

    Every p/q/r minor of a flag is a signed minor of the chart matrix on a
    k-subset of its R rows, against columns 1..k-1 plus one column l >= k,
    and one minor store holds each of them once, computed without
    ``determinant``.  Nothing is ranked: a flag's f-rows are independent
    exactly when its p_r is nonzero.
    """
    spec = parse_problem(text)
    arr, poly = spec.arrangement(), spec.polyhedron()
    calls = {"determinant": [], "rank": [], "minor_store": []}
    _count_calls(monkeypatch, calls)
    with mp.workprec(128):
        cmd_analyze(spec)
    _assert_one_store(calls, arr, poly)
    assert calls["rank"] == []


def test_flag_table_leaves_no_reference_cycles():
    """The flag table and its determinants are freed by reference counting:
    with the cyclic collector off, nothing is left for it to collect."""
    spec = parse_problem(GENERIC_4_7)
    arr, poly = spec.arrangement(), spec.polyhedron()
    gc.collect()
    gc.disable()
    try:
        assert len(flag_table(arr, poly)) == math.perm(7, 4)
        assert gc.collect() == 0
        with mp.workprec(128):
            cmd_analyze(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("text", [SQUARED_POLES, CUBED_POLES], ids=["squared", "cubed"])
def test_residue_steps_leave_no_reference_cycles(text):
    """eval and grouping free their residue steps' terms by reference
    counting: with the cyclic collector off, nothing is left for it."""
    spec = parse_problem(text)
    gc.collect()
    gc.disable()
    try:
        for command in (cmd_eval, cmd_grouping):
            with mp.workprec(128):
                command(spec)
            assert gc.collect() == 0, command.__name__
    finally:
        gc.enable()


def test_main_leaves_no_cyclic_garbage(tmp_path, capsys):
    """Repeated ``main`` calls leave argparse and residuum objects to
    reference counting alone.  The json encoder's own closures, a cycle per
    ``json.dumps`` with indent, are not residuum's."""
    path = _write(tmp_path, SQUARED_POLES)
    main(["grouping", path, "--json"])
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            assert main(["grouping", path, "--json"]) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        owners = {
            (obj.__module__ if isinstance(obj, FunctionType) else type(obj).__module__)
            for obj in gc.garbage
        }
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()
    assert not {m for m in owners if m.split(".")[0] in ("argparse", "residuum")}


def test_python_dash_m_runs_cleanly():
    """``python -m residuum`` runs the command line without warnings."""
    env = dict(os.environ)
    src = str(SAMPLES.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "residuum", "analyze", str(SAMPLES / "arctangent.rsd")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


# Which modules a fresh interpreter holds after importing residuum and after
# each command; the commands' reports go to a buffer.
COLD_START = """\
import contextlib, io, json, sys
import residuum
loaded = {"import": ["numpy" in sys.modules, "residuum.oracle" in sys.modules]}
for cmd in ("analyze", "eval", "grouping", "verify"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = residuum.main([cmd, sys.argv[1], "--json"])
    loaded[cmd] = [code, "numpy" in sys.modules]
print(json.dumps(loaded))
"""


def test_numpy_loads_only_for_verify():
    """``import residuum`` and analyze, eval and grouping leave numpy
    unloaded, and so does verify of a coupled two-variable sample, whose
    remainder after the oracle's exact residue in one axis is 1-D; the
    oracle module is loaded with the package."""
    env = dict(os.environ)
    src = str(SAMPLES.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(SAMPLES / "three_planes_left.rsd")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": [False, True],
        "analyze": [0, False],
        "eval": [0, False],
        "grouping": [0, False],
        "verify": [0, False],
    }


# a product of one-variable factors in sheared coordinates: in the oracle's
# hyperplane chart no factor couples the axes (value pi^2 / e^3)
SHEARED_PRODUCT = """\
vars x y;
cone (1,0) (-3,1);
num exp(i*x + 5*i*y);
den (x + 3*y - i) (-x - 3*y - i) (y - i) (-y - i);
"""
# verify in a fresh interpreter, its report to a buffer: the exit status
# and whether numpy was loaded
VERIFY_COLD = """\
import contextlib, io, json, sys
import residuum
with contextlib.redirect_stdout(io.StringIO()):
    code = residuum.main(["verify", sys.argv[1], "--json"])
print(json.dumps([code, "numpy" in sys.modules]))
"""


# six simple planes in three variables through one point, coupled in any
# chart: the remainder of the residue in w1 is a coupled 2-D integrand
COUPLED_3D = """\
vars v1 v2 v3;
cone (1,0,0) (0,1,0) (0,0,1);
den (2*v2 + v3 - 5*i) (v1 + v3 - 3*i) (2*v2 - v3 - 3*i) (2*v1 - v2 - 2*i)
    (v1 + 2*v3 - 4*i) (-v1 + 2*v2 + v3 - 3*i);
"""


@pytest.mark.parametrize(
    "name, loads",
    [
        ("arctangent", False),
        ("sheared_product", False),
        ("three_planes_left", False),
        ("coupled_3d", True),
    ],
)
def test_verify_loads_numpy_only_for_coupled_factors(tmp_path, name, loads):
    """verify passes without numpy when no factor of the chart integrand
    couples two axes, however the problem is written, and when one does in
    two variables: the exact residue in one axis leaves a 1-D remainder.
    Only a coupled remainder in two variables takes the grid stage, which
    loads it."""
    if name in ("sheared_product", "coupled_3d"):
        path = _write(tmp_path, SHEARED_PRODUCT if name == "sheared_product" else COUPLED_3D)
    else:
        path = str(SAMPLES / f"{name}.rsd")
    env = dict(os.environ)
    src = str(SAMPLES.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", VERIFY_COLD, path],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, loads]


def _modules_after(statement: str) -> set:
    """The modules a fresh interpreter holds after running ``statement``."""
    env = dict(os.environ)
    src = str(SAMPLES.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"{statement}; import sys; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_loads_no_class_generator():
    """Against a bare interpreter, ``import residuum`` adds neither
    ``dataclasses`` (and with it ``inspect``) nor numpy nor argparse: every
    value type is a NamedTuple or a slotted class, numpy waits for
    ``verify``, and argparse for ``cli.main``."""
    added = _modules_after("import residuum") - _modules_after("pass")
    assert "residuum.cli" in added
    assert not added & {"dataclasses", "inspect", "numpy", "argparse"}


@pytest.mark.parametrize(
    "text, stepped",
    [
        ((SAMPLES / "coincident_point.rsd").read_text(), False),
        (SQUARED_POLES, True),
        (CUBED_POLES, False),
        (MIXED_POLES, True),
    ],
    ids=["coincident_point", "squared", "cubed", "mixed"],
)
def test_one_residue_step_per_flag_prefix(monkeypatch, text, stepped):
    """eval and grouping take each flag prefix's residue once per chart, and
    only for the classes without a closed form (``ChartResidues.closed_form``):
    cubed's six planes through one point, with numerator 1, take none, and
    neither do coincident_point's three simple lines through one point,
    while the double poles of squared and mixed (a triple pole among them)
    take their steps.  A closed form whose pole on the class's line has
    order above 1 takes one ``residue_1d`` of its own, once per class each
    command takes it for: grouping reuses an arriving class's value for
    the stable class with the same first flag."""
    spec = parse_problem(text)
    arr, poly = spec.arrangement(), spec.polyhedron()
    with mp.workprec(128):
        inside = set(evaluate_integral(arr, poly).flag_contributions)
        _, points = canonical_grouping_points(arr, poly)
        closed = ChartResidues(arr, poly, flag_table(arr, poly))
        stable = terminal_classes(arr, stable_flags(arr, poly))
        arriving = [cls for _, flags, _ in points for cls in terminal_classes(arr, flags)]
        # no auxiliary chart: every arriving flag is soluble in the cone's chart
        assert all(
            minor_profile(jacobian(arr, cls.flags[0].indices, poly)).in_bruhat_cell
            for cls in stable + arriving
        )
        contributing = [
            cls.flags[0] for cls in stable
            if cls.flags[0] in inside and closed.closed_form(cls) is None
        ]
        grouped = [cls.flags[0] for cls in stable + arriving if closed.closed_form(cls) is None]

        def on_line(cls) -> bool:
            """The closed form takes a residue in s: the pole order on the
            line of the first flag's first r - 1 planes is above 1."""
            sigma = cls.flags[0].indices
            order = sum(arr.multiplicities[j] for j in cls.incidence.difference(sigma[:-1]))
            central = closed._central and len(cls.incidence) == len(arr.hyperplanes)
            return closed.closed_form(cls) is not None and order > 1 and not central

        firsts = {cls.flags[0] for cls in arriving}
        widened = {
            cmd_eval: [cls for cls in stable if cls.flags[0] in inside and on_line(cls)],
            cmd_grouping: [cls for cls in arriving if on_line(cls)]
            + [cls for cls in stable if cls.flags[0] not in firsts and on_line(cls)],
        }
    assert bool(contributing) == bool(grouped) == stepped
    original = ExpRationalFunction.residue_1d
    calls = []

    def counted(self, var, pole):
        calls.append(pole)
        return original(self, var, pole)

    monkeypatch.setattr(ExpRationalFunction, "residue_1d", counted)
    for command, flags in ((cmd_eval, contributing), (cmd_grouping, grouped)):
        prefixes = {f.indices[:k] for f in flags for k in range(1, arr.dim + 1)}
        calls.clear()
        with mp.workprec(128):
            command(spec)
        assert len(calls) == len(prefixes) + len(widened[command]), command.__name__
    if text == (SAMPLES / "coincident_point.rsd").read_text():
        assert widened[cmd_eval] and widened[cmd_grouping]


# coincident ((1, 1, 1, 1, 1, 1), True) #1 of the benchmark's pool 1: six
# simple planes through one point with an oscillatory numerator
SIX_SIMPLE = """\
vars v1 v2 v3;
cone (1,2,0) (0,1,0) (0,1,1);
num 1*exp(i*(-v1 + v3));
den (2*v1 + v3 - 3*i) (v2 + v3 - 5*i) (-2*v1 + 2*v2 - v3 - 5*i) (-v1 + 2*v3 - 1*i) \
(-2*v1 + v2 + v3 - 3*i) (-2*v1 + 2*v2 - 3*v3 - 3*i);
"""


def test_simple_oscillatory_poles_take_one_residue_per_class(monkeypatch):
    """With six simple planes through one point and numerator exp(i(v3 - v1)),
    every class's first two planes are simple poles along a line that no
    other plane holds, so eval takes no residue step: one ``residue_1d`` per
    contributing class, each of a function of one variable (s on the
    class's line), each contribution bit for bit the steps' one."""
    spec = parse_problem(SIX_SIMPLE)
    arr, poly = spec.arrangement(), spec.polyhedron()
    steps = ChartResidues(arr, poly)
    with mp.workprec(128):
        result = evaluate_integral(arr, poly)
        for flag, value in result.flag_contributions.items():
            assert value == rounded_sum([steps.function(flag)])
    assert len(result.flag_contributions) == 4
    original = ExpRationalFunction.residue_1d
    arities = []

    def counted(self, var, pole):
        arities.append(self.arity)
        return original(self, var, pole)

    monkeypatch.setattr(ExpRationalFunction, "residue_1d", counted)
    with mp.workprec(128):
        cmd_eval(spec)
    assert arities == [1] * len(result.flag_contributions)


# generic (3, 6) of the benchmark's problems module, drawn with Random(1):
# six planes in general position, simple poles, numerator 3
GENERIC_3_6 = """\
vars v1 v2 v3;
cone (1,0,0) (0,1,0) (0,0,1);
num 3;
den (v1 - v2 - 2*i) (v1 + 2*v2 - 2*v3 - 1*i) (-v1 + 2*v2 + v3 - 2*i) (v2 - 2*v3 - 2*i) \
(v1 - 2*v2 - 4*i) (v1 - v2 - v3 - 3*i);
"""
# sha256 of its grouping --json report when the stable-flag sum took steps
GENERIC_3_6_GROUPING = "a63045f0d7ecdff3f67df5dc6507a09443a897b7dfeda0b074c94d241e3c12d4"


def test_grouping_of_generic_data_takes_no_residue_step(monkeypatch, tmp_path, capsys):
    """On exact data in general position every class of a grouping ends at a
    simple normal crossing, stable or arriving, so grouping takes each one's
    closed form, as eval does: no ``residue_1d`` call, and the report's bytes
    are those printed when the stable-flag sum took its steps."""
    calls = []
    original = ExpRationalFunction.residue_1d
    monkeypatch.setattr(
        ExpRationalFunction, "residue_1d", lambda *args: calls.append(args) or original(*args)
    )
    assert main(["grouping", _write(tmp_path, GENERIC_3_6), "--json"]) == 0
    assert calls == []
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GENERIC_3_6_GROUPING


def test_grouping_takes_each_class_closed_form_once(monkeypatch, tmp_path, capsys):
    """grouping takes the closed form of each of the 10 classes of
    GENERIC_3_6 once: a stable class whose first flag is its grouping
    class's reuses that class's function for the stable-class sum, where
    taking it again made 14 calls; the report keeps its bytes."""
    calls = []
    original = ChartResidues.closed_form
    monkeypatch.setattr(
        ChartResidues, "closed_form", lambda self, cls: calls.append(cls) or original(self, cls)
    )
    assert main(["grouping", _write(tmp_path, GENERIC_3_6), "--json"]) == 0
    assert len(calls) == 10
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GENERIC_3_6_GROUPING


# hyperplanes whose s_j are rational multiples of pi, so that H1, H3 and H4
# meet in one point only because pi/3 + pi/6 = pi/2 and pi/3 - pi/6 = pi/6
PI_RELATION = """\
vars x y;
cone (1,0) (0,1);
den (x - pi/3*i)^2 (y - pi/6*i) (x + y - pi/2*i) (x - y - pi/6*i);
"""
# sha256 of its grouping and eval --json reports, at 128 and 256 bits alike,
# as recorded when pi took a rounded path: one point (H1H3H4,H2), residue 0
PI_RELATION_REPORTS = {
    "grouping": "bbd6bdd19696c941679031b992188aaf6b89a125ad6f2dc101f46e8ee4287bf0",
    "eval": "e66ea1e221f2b83c6b1e9f6e137af49b68bda79d7d3657c92e1a7c462a418730",
}


@pytest.mark.parametrize("bits", [128, 256])
def test_pi_relations_hold_exactly(tmp_path, capsys, bits):
    """pi enters once, as the binary value of its rounding, before any
    arithmetic, so the identities pi/3 + pi/6 = pi/2 and pi/3 - pi/6 = pi/6
    hold exactly: H1, H3 and H4 meet at one point, the grouping has that
    one point with residue 0, and both reports are the recorded bytes."""
    path = _write(tmp_path, PI_RELATION)
    for command, digest in PI_RELATION_REPORTS.items():
        assert main([command, path, "--json", "--precision", str(bits)]) in (0, 1)
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
    with working_precision(bits):
        spec = parse_problem(PI_RELATION)
        grouping, points = canonical_grouping_points(spec.arrangement(), spec.polyhedron())
    assert grouping.label(spec.arrangement()) == "(H1H3H4,H2)"
    assert [residue for _, _, residue in points] == [0]


def test_rounded_value_past_the_cap_is_a_usage_error(tmp_path, capsys):
    """exp(10^7) is about 2^14426950: its binary value is past the cap, so
    the problem is refused (exit 2) with the cap in the message."""
    path = _write(tmp_path, "vars x; cone (1); num exp(10^7); den (x - i) (-x - i);")
    assert main(["eval", path, "--json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: line 1, column 23: exact binary value exceeds {1 << 20} bits")


@pytest.mark.parametrize(
    "text",
    [(SAMPLES / "coincident_point.rsd").read_text(), SQUARED_POLES, CUBED_POLES],
    ids=["coincident_point", "squared", "cubed"],
)
def test_grouping_and_eval_read_the_flag_table(monkeypatch, text):
    """grouping ranks, profiles and solves nothing the flag table holds.

    It ranks nothing, builds no minor profile (it reads the verdicts the
    table decides from one minor store of the chart matrix), and classes
    its collections once: it solves each distinct terminal point among
    them once, by one fraction-free Gauss-Jordan of the f-rows of the first
    flag that ends there.  eval solves each distinct terminal point of the
    stable flags once so, and eliminates the cone basis once; neither
    builds a Fraction ``inverse``.
    """
    spec = parse_problem(text)
    arr, poly = spec.arrangement(), spec.polyhedron()
    with mp.workprec(128):
        table = flag_table(arr, poly)
        _, points = canonical_grouping_points(arr, poly)

    def first_per_set(flags) -> list:
        """The first flag, in index order, of each set of hyperplanes."""
        firsts: dict = {}
        for flag in sorted(flags, key=lambda f: f.indices):
            firsts.setdefault(frozenset(flag.indices), flag)
        return list(firsts.values())

    def first_per_point(flags) -> list:
        """The first flag, in index order, that ends at each distinct point."""
        firsts: dict = {}
        for flag in first_per_set(flags):
            firsts.setdefault(tuple(pole_location(arr, flag)), flag)
        return list(firsts.values())

    def f_rows(flag):
        return tuple(arr.hyperplanes[i].f for i in flag.indices)

    def eliminated() -> list:
        """The rows of each ``_gauss_jordan`` call, as tuples."""
        return [tuple(map(tuple, rows)) for rows in calls["_gauss_jordan"]]

    collections = first_per_point(f for _, flags, _ in points for f in flags)
    stable = first_per_point(stable_flags(arr, poly, table))
    calls = {
        "rank": [],
        "MinorProfile": [],
        "minor_store": [],
        "determinant": [],
        "pole_location": [],
        "inverse": [],
        "_gauss_jordan": [],
    }
    _count_calls(monkeypatch, calls)
    with mp.workprec(128):
        cmd_grouping(spec)
    assert calls["rank"] == []
    assert calls["MinorProfile"] == []
    _assert_one_store(calls, arr, poly)
    assert len(calls["pole_location"]) == len(collections)
    assert eliminated() == [f_rows(f) for f in collections]
    assert calls["inverse"] == []
    for fn in calls:
        calls[fn].clear()
    with mp.workprec(128):
        cmd_eval(spec)
    assert len(calls["pole_location"]) == len(stable)
    assert Counter(eliminated()) == Counter([f_rows(f) for f in stable] + [poly.basis_matrix().entries])
    assert calls["inverse"] == []


# problems whose hyperplanes have exact s (pi enters numerators only)
EXACT_PROBLEMS = {
    **{path.stem: path.read_text() for path in sorted(SAMPLES.glob("*.rsd"))},
    "squared": SQUARED_POLES,
    "cubed": CUBED_POLES,
    "mixed": MIXED_POLES,
    "six_cubed": SIX_CUBED,
}


def _engine_outcome(text, bits):
    """The stable flag classes and ``evaluate_integral``'s result, and the
    grouping and points of ``canonical_grouping_points``, at ``bits``."""
    spec = parse_problem(text)
    with mp.workprec(bits):
        arr, poly = spec.arrangement(), spec.polyhedron()
        classes = [(c.incidence, c.flags) for c in terminal_classes(arr, stable_flags(arr, poly))]
        result = evaluate_integral(arr, poly)
        grouping, points = canonical_grouping_points(arr, poly)
    return classes, result, grouping, points


@pytest.mark.parametrize("name", sorted(EXACT_PROBLEMS))
def test_exact_data_makes_no_tolerance_decision(name):
    """Evaluation and grouping make no decision within a tolerance: at 128
    and at 256 bits they give the same classes, certificate, contributing
    flags, grouping and points, with values within 1e-25."""
    classes, result, grouping, points = _engine_outcome(EXACT_PROBLEMS[name], 128)
    classes_2, result_2, grouping_2, points_2 = _engine_outcome(EXACT_PROBLEMS[name], 256)
    assert classes_2 == classes
    assert result_2.certificate == result.certificate
    assert list(result_2.flag_contributions) == list(result.flag_contributions)
    assert grouping_2 == grouping
    assert [(p, f) for p, f, _ in points_2] == [(p, f) for p, f, _ in points]
    values = [(result_2.value, result.value)] + [
        (a, b) for (_, _, a), (_, _, b) in zip(points_2, points)
    ]
    assert all(abs(a - b) <= mpf("1e-25") * max(1, abs(b)) for a, b in values)


def test_analyze_lowers_at_its_own_precision():
    """analyze, like its siblings, lowers the problem at its options'
    precision (128 bits by default), not at the caller's."""
    spec = parse_problem("vars x; cone (1); den (x - pi*i) (-x - i);")
    with mp.workprec(53):
        analyze = cmd_analyze(spec)
        assert analyze.problem["hyperplanes"][0]["s"]["re"] == "3.14159265358979323846264"
        assert cmd_eval(spec).problem == analyze.problem
        assert cmd_analyze(spec, EngineOptions(precision=53)).problem != analyze.problem


def test_term_budget_is_a_usage_error(monkeypatch, tmp_path, capsys):
    path = _write(tmp_path, EX2)
    monkeypatch.setattr(symfun, "MAX_RESIDUE_TERMS", 0)
    assert main(["eval", path, "--json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: a residue step would produce more than 0 terms")


def _general_position_problem(r: int, big_r: int) -> str:
    """r variables and big_r hyperplanes on the moment curve, (1, t, ..., t^(r-1))
    for t = 1..big_r, so that every r of them are independent."""
    names = [f"v{k + 1}" for k in range(r)]
    cone = " ".join("(" + ",".join(str(int(i == j)) for j in range(r)) + ")" for i in range(r))
    factors = " ".join(
        "(" + " + ".join(f"{t**e}*{v}" for e, v in enumerate(names)) + " - i)"
        for t in range(1, big_r + 1)
    )
    return f"vars {' '.join(names)};\ncone {cone};\nden {factors};\n"


def test_flag_table_cap_is_a_usage_error(monkeypatch, tmp_path, capsys):
    """r = 7 and R = 14 hyperplanes in general position would make 3,432 row
    sets of 7! flags: every command refuses the table before it builds a
    flag's profile or the minor store, once the independent row sets pass
    the cap's share of 100,000 // 7! = 19, and exits 2 with ``file:
    message``.  So does r = 7 and R = 40, whose minor store alone would hold
    millions of minors."""
    calls = {"MinorProfile": [], "minor_store": []}
    _count_calls(monkeypatch, calls)
    message = (
        f"more than {arrangement.MAX_TABLE_FLAGS // math.factorial(7)} independent row "
        f"sets of 7! flags each exceed the flag table cap of {arrangement.MAX_TABLE_FLAGS}\n"
    )
    path = _write(tmp_path, _general_position_problem(7, 14))
    start = time.perf_counter()
    for command in ("analyze", "eval", "verify", "grouping"):
        assert main([command, path, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"{path}: {message}"
    path = _write(tmp_path, _general_position_problem(7, 40))
    assert main(["eval", path, "--json"]) == 2
    assert capsys.readouterr() == ("", f"{path}: {message}")
    assert calls == {"MinorProfile": [], "minor_store": []}
    assert time.perf_counter() - start < 20


@pytest.mark.parametrize(
    "text",
    [(SAMPLES / "coincident_point.rsd").read_text(), SQUARED_POLES, CUBED_POLES],
    ids=["coincident_point", "squared", "cubed"],
)
def test_engine_calls_compute_the_chart_once(monkeypatch, text):
    """eval and grouping compute the chart matrix F M once: the flag table
    holds it, and the residue steps' pullback reads it from there."""
    spec = parse_problem(text)
    calls = []

    original = arrangement.jacobian

    def counted(arr, indices, poly):
        calls.append((tuple(indices), poly))
        return original(arr, indices, poly)

    for name, module in list(sys.modules.items()):
        if name.startswith("residuum") and vars(module).get("jacobian") is original:
            monkeypatch.setattr(module, "jacobian", counted)
    arr, poly = spec.arrangement(), spec.polyhedron()
    for command in (cmd_eval, cmd_grouping):
        calls.clear()
        with mp.workprec(128):
            command(spec)
        assert calls == [(tuple(range(len(arr.hyperplanes))), poly)], command.__name__


def test_eval_three_plane_value():
    with mp.workprec(128):
        report = cmd_eval(parse_problem(EX1_PIB), EngineOptions(128))
        expected = three_plane_value(2, 3, (1, 1, 1))
        assert report.passed
        assert report.certificate["certified"]
        got = _val(report.value)
        assert abs(got - expected) / abs(expected) < mpf("1e-20")
        assert len(report.contributions) == 1
        assert report.contributions[0]["flag"] == "(H1,H3)"


def test_eval_violating_cone_is_zero_and_uncertified():
    with mp.workprec(128):
        report = cmd_eval(parse_problem(EX1_PIA), EngineOptions(128))
        assert not report.passed
        assert not report.certificate["certified"]
        assert abs(_val(report.value)) == 0
        assert any("excluded" in w for w in report.warnings)
        assert "NOT CERTIFIED" in report.to_text()


def test_analyze_tables():
    good = cmd_analyze(parse_problem(EX1_PIB))
    assert good.passed
    rows = good.to_json_dict()["stability_table"]
    by_flag = {row["flag"]: row for row in rows}
    assert len(by_flag) == 6
    assert by_flag["(H1,H3)"]["stable"]
    assert all(row["compatible"] for row in rows)
    assert by_flag["(H1,H3)"]["jacobian"] == [["1", "0"], ["0", "1"]]

    bad = cmd_analyze(parse_problem(EX1_PIA))
    assert not bad.passed
    by_flag = {row["flag"]: row for row in bad.to_json_dict()["stability_table"]}
    assert by_flag["(H3,H1)"]["stable"]
    assert not by_flag["(H3,H1)"]["compatible"]
    assert bad.violations[0]["flag"] == "(H3,H1)"
    assert bad.violations[0]["positive_q"] == {"(1,2)": "1"}


# the stability table as Report.to_json writes it, against the dict rows
# that json.dumps serialized before
_WRITER_PROBLEM = {
    "variables": ["x"],
    "dim": 1,
    "cone": [["1"]],
    "cone_det": "1",
    "hyperplanes": [
        {"name": "H1", "f": ["-2"], "s": {"re": "1.5", "im": "0.0"}, "multiplicity": 2}
    ],
    "parameters": {"a": "1/2"},
    "numerator": "exp(i*x)",
}
_WRITER_CERTIFICATE = {
    "certified": False,
    "all_compatible": False,
    "convergence": "NotChecked",
    "warnings": [],
}
# a non-ASCII character and an escaped newline inside strings
_WRITER_NOTES = ("\u03c9 = 2\u03c0", "two\nlines")


def _check_table_writer(table, jacobians: bool) -> str:
    """Report.to_json, to_json_dict and to_text against the reference rows."""
    report = Report(
        command="analyze",
        problem=_WRITER_PROBLEM,
        passed=False,
        stability_table=table,
        jacobians=jacobians,
        certificate=_WRITER_CERTIFICATE,
        notes=_WRITER_NOTES,
    )
    rows = stability_rows(table, jacobians)
    want = {
        "schema": 1,
        "command": "analyze",
        "passed": False,
        "problem": _WRITER_PROBLEM,
        "stability_table": list(rows),
        "certificate": _WRITER_CERTIFICATE,
        "notes": list(_WRITER_NOTES),
    }
    text = report.to_json()
    assert text == json.dumps(want, sort_keys=True, indent=2)
    assert report.to_json_dict() == want
    # the text report's table follows its problem lines: the summary, one
    # line per hyperplane and the numerator
    bare = report._replace(stability_table=()).to_text().split("\n")
    head = 2 + len(_WRITER_PROBLEM["hyperplanes"])
    assert report.to_text().split("\n") == (
        bare[:head] + stability_lines(rows) + bare[head:]
    )
    return text


_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _table_pairs(draw):
    """(arrangement, polyhedron) pairs for ``flag_table``: r <= 4 rows drawn
    from a small pool, so rows repeat and minors vanish, over rational cone
    generators."""
    r = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any)
    pool = draw(st.lists(row, min_size=1, max_size=r + 1))
    rows = draw(st.lists(st.sampled_from(pool), min_size=r, max_size=r + 2))
    gens = draw(
        st.lists(st.lists(_fractions, min_size=r, max_size=r), min_size=r, max_size=r).filter(
            lambda g: exact_linalg.determinant(matrix(g)) != 0
        )
    )
    hps = [Hyperplane(tuple(f), GaussianRational.of(k + 1)) for k, f in enumerate(rows)]
    return Arrangement.build(r, hps), Polyhedron.from_generators(gens)


@given(_table_pairs(), st.booleans())
# rows 1 and 3 repeat, so only the row sets without both are kept
@example(
    (
        Arrangement.build(
            3,
            [
                Hyperplane(f, GaussianRational.of(k + 1))
                for k, f in enumerate([(1, 0, -1), (0, 2, 1), (1, 0, -1), (1, 1, 1)])
            ],
        ),
        Polyhedron.from_generators(
            [[Fraction(1, 2), 0, 0], [0, Fraction(-1, 3), 1], [1, 0, Fraction(3, 4)]]
        ),
    ),
    True,
)
@settings(max_examples=60, deadline=None)
def test_table_writer_matches_dict_rows_of_flag_tables(pair, jacobians):
    """A ``flag_table``, written row set by row set, against its dict rows."""
    table = flag_table(*pair)
    assume(table)
    assert isinstance(table, FlagTable)
    _check_table_writer(table, jacobians)


def test_table_writer_orders_minor_keys_as_strings():
    """With 10 columns, sort_keys puts "(1,10)" before "(1,2)"; so must the
    writer's ``row_layout``.  (``MAX_TABLE_FLAGS`` keeps every written table
    at r <= 8, so the order is checked on the layout.)  The row 1..10 has
    p_1 = 1 and q_(1,l) = l."""
    row = RationalMatrix((tuple(range(1, 11)),))
    [minors] = [get(exact_linalg.minor_store(row)) for get in exact_linalg.set_layout(1, 10)]
    [(_, places)] = exact_linalg.row_layout(1, 10)
    assert [minors[i] for i in places] == [1, 10, *range(2, 10)]


def test_table_writer_writes_empty_minor_dicts():
    """At r = 1 a flag has no q or r minors: both are written {}."""
    arr = Arrangement.build(
        1, [Hyperplane((f,), GaussianRational.of(k + 1)) for k, f in enumerate((1, -1, 1))]
    )
    table = flag_table(arr, Polyhedron.from_generators([[Fraction(-2, 3)]]))
    assert len(table) == 3
    text = _check_table_writer(table, True)
    assert text.count('"q": {}') == text.count('"r": {}') == 3


# JSON values as reports hold them, and more: empty containers, non-ASCII
# and control characters in keys and strings, ints past 64 bits
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@given(_json_values)
@example({"\u03c9\n": ["\x00\x1f\x7f", "\u00e9\ud7ff", -(2**70), 2**64, True, False, None, {}, []]})
@settings(max_examples=200, deadline=None)
def test_section_writer_matches_json_dumps(value):
    """``_json_text`` writes what ``json.dumps(value, sort_keys=True,
    indent=2)`` writes, at the top level and nested one level in."""
    text = json.dumps(value, sort_keys=True, indent=2)
    assert _json_text(value, "\n") == text
    assert _json_text(value, "\n  ") == text.replace("\n", "\n  ")


# 2 * _CHUNK_ROWS points on a line: the table fills two chunks exactly
_FULL_CHUNKS = "vars x; cone (1); den %s;\n" % " ".join(
    f"(x - {k}*i)" for k in range(1, 2 * _CHUNK_ROWS + 1)
)
# 17 lines through i(1, 0) with distinct slopes: 17 * 16 = 272 flags
_PARTIAL_CHUNK = "vars x y; cone (1,0) (0,1); den %s;\n" % " ".join(
    f"(x + {k}*y - i)" for k in range(17)
)


@pytest.mark.parametrize(
    "command, text, rows",
    [("analyze", _FULL_CHUNKS, 2 * _CHUNK_ROWS), ("eval", _PARTIAL_CHUNK, 272)],
    ids=["full-chunks", "partial-chunk"],
)
def test_streamed_json_report_is_to_json(tmp_path, capsys, command, text, rows):
    """``main`` streams the report to stdout a chunk of rows at a time; what
    it prints is ``to_json()`` and a newline, whether or not the table ends
    on a chunk boundary, and that is the report as ``json.dumps`` writes it,
    its rows the reference rows."""
    path = _write(tmp_path, text)
    report = {"analyze": cmd_analyze, "eval": cmd_eval}[command](parse_problem(text))
    assert len(report.stability_table) == rows
    assert main([command, path, "--json"]) == 0
    out = capsys.readouterr().out
    assert out == report.to_json() + "\n"
    data = json.loads(out)
    assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert data["stability_table"] == list(stability_rows(report.stability_table, command == "analyze"))


def test_verify_one_dimensional_pi():
    with mp.workprec(128):
        report = cmd_verify(parse_problem(PI_1D), EngineOptions(128))
        assert report.passed
        assert abs(_val(report.value) - pi) < mpf("1e-20")
        assert report.oracle["within_tolerance"]
        assert mpf(report.oracle["difference"]) < mpf("1e-8")


def test_exact_constants_beyond_the_float_range(tmp_path, capsys):
    """An exact s of 2^1100 is decided, sorted and solved exactly, as 1 and
    2^1000 are: eval and grouping give the same value at all three, and
    verify reports the oracle unavailable instead of a traceback."""
    outcomes = []
    for k in (0, 1000, 1100):
        path = _write(tmp_path, f"vars x;\ncone (1);\nden (x - 2^{k}*i);\n")
        got = []
        for command in ("eval", "grouping"):
            main([command, path, "--json"])
            got.append(json.loads(capsys.readouterr().out))
        value, grouping = got
        [point] = grouping["grouping"]["points"]
        outcomes.append((value["value"], value["contributions"], point["residue"]))
        assert main(["verify", path]) == 1
        assert "numerical verification unavailable" in capsys.readouterr().out
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_float_overflow_is_a_named_oracle_error(tmp_path, capsys):
    """e^712 is beyond float64: the quadrature reports the oracle
    unavailable (OutOfFloatRange), exit 1, instead of a nan estimate with
    numpy's RuntimeWarnings, while the exact value is still reported."""
    path = _write(tmp_path, "vars x; cone (1); num exp(712 + i*x); den (x - i)^2;")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", path, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    message = "the integrand leaves the float64 range"
    assert report["oracle"] == {"error": message}
    assert report["notes"] == [f"numerical verification unavailable: {message}"]
    assert report["certificate"]["certified"] and not report["passed"]
    assert abs(mpf(report["value"]["re"]) / (-2 * pi * mp.exp(711)) - 1) < mpf("1e-15")


def test_verify_fail_with_divergence_diagnostic():
    with mp.workprec(128):
        report = cmd_verify(
            parse_problem(EX1_PIA), EngineOptions(128), tol=1e-4
        )
        assert not report.passed
        # the numerical value of the integral is far from the engine's zero
        assert abs(_val(report.oracle["estimate"])) > mpf("0.01")
        assert not report.oracle["within_tolerance"]
        assert report.diagnostics
        assert any(not d["trending_to_zero"] for d in report.diagnostics)
        assert any("boundary term" in n for n in report.notes)


def test_grouping_coincident_point():
    with mp.workprec(128):
        report = cmd_grouping(parse_problem(EX2), EngineOptions(128))
        assert report.passed
        assert report.grouping["label"] == "(H1H3,H2)"
        assert report.grouping["groups"] == [["H1", "H3"], ["H2"]]
        [entry] = report.grouping["points"]
        point = [_val(c) for c in entry["point"]]
        assert abs(point[0] - mpc(0, 1)) < mpf("1e-20")
        assert abs(point[1] - mpc(0, 1)) < mpf("1e-20")
        expected = 2 * pi * mpc(0, 1) * mp.exp(-6 * pi)
        assert abs(_val(entry["residue"]) - expected) / abs(expected) < mpf(
            "1e-20"
        )


def test_grouping_empty_stable_set():
    with mp.workprec(128):
        report = cmd_grouping(parse_problem(ZERO_1D), EngineOptions(128))
        assert not report.passed
        assert any("no canonical grouping" in n for n in report.notes)


def test_eval_zero_is_certified_when_compatible():
    with mp.workprec(128):
        report = cmd_eval(parse_problem(ZERO_1D), EngineOptions(128))
        assert report.passed
        assert abs(_val(report.value)) == 0


def test_main_exit_codes(tmp_path, capsys):
    ok = _write(tmp_path, EX1_PIB)
    assert main(["eval", ok]) == 0
    assert main(["analyze", ok]) == 0

    bad = tmp_path / "viol.rsd"
    bad.write_text(EX1_PIA)
    assert main(["analyze", str(bad)]) == 1
    assert main(["eval", str(bad)]) == 1

    broken = tmp_path / "broken.rsd"
    broken.write_text("vars x\ncone (1); den (x - i);")
    capsys.readouterr()
    assert main(["eval", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err

    missing = tmp_path / "missing.rsd"
    assert main(["eval", str(missing)]) == 2

    semantic = tmp_path / "semantic.rsd"
    semantic.write_text("vars x y; cone (1,0) (0,1); den (x*y - i) (y - i);")
    capsys.readouterr()
    assert main(["eval", str(semantic)]) == 2
    assert "not affine" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, sample, option, value",
    [
        ("verify", "arctangent", "--box", "-5"),
        ("verify", "arctangent", "--box", "0"),
        ("verify", "arctangent", "--box", "inf"),
        ("verify", "arctangent", "--box", "nan"),
        ("verify", "arctangent", "--tol", "inf"),
        ("verify", "arctangent", "--tol", "0"),
        ("verify", "arctangent", "--tol", "-1"),
        ("verify", "arctangent", "--tol", "nan"),
        ("eval", "arctangent", "--precision", "0"),
        ("eval", "arctangent", "--precision", "1"),
        ("eval", "coincident_point", "--precision", "2"),
        ("eval", "coincident_point", "--precision", "52"),
    ],
)
def test_out_of_range_numeric_flags_are_usage_errors(
    capsys, command, sample, option, value
):
    path = str(SAMPLES / f"{sample}.rsd")
    with pytest.raises(SystemExit) as exc:
        main([command, path, option, value])
    assert exc.value.code == 2
    assert f"argument {option}" in capsys.readouterr().err


def test_main_rejects_unknown_command(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.rsd"])
    assert exc.value.code == 2


def test_json_reports_are_byte_stable(tmp_path, capsys):
    path = _write(tmp_path, EX1_PIB)
    assert main(["eval", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["eval", path, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second

    data = json.loads(first)
    assert data["schema"] == 1
    assert data["command"] == "eval"
    assert data["passed"] is True
    assert isinstance(data["value"]["im"], str)
    assert data["certificate"]["convergence"] == "BoundedNumeratorRule"
    assert len(data["stability_table"]) == 6
    # keys are emitted sorted
    assert first.index('"command"') < first.index('"problem"')
    assert first.index('"problem"') < first.index('"schema"')


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_INPUTS = {
    **{p.stem: p.read_text() for p in sorted(SAMPLES.glob("*.rsd"))},
    "squared_poles": SQUARED_POLES,
    "cubed_poles": CUBED_POLES,
    "mixed_poles": MIXED_POLES,
}


@pytest.mark.parametrize("command", ["analyze", "eval", "grouping"])
@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_json_reports_match_golden(tmp_path, capsys, name, command):
    """``--json`` stdout and exit status match the recorded runs byte for byte.

    ``tests/golden/<name>.<command>.json`` holds the stdout of
    ``main([command, file, "--json"])``, and ``exit_status.json`` its return
    value.  Record them again only for a change meant to alter a report.
    verify has its own test: its oracle digits depend on the order of the
    quadrature's floating-point operations.
    """
    path = _write(tmp_path, GOLDEN_INPUTS[name])
    status = json.loads((GOLDEN / "exit_status.json").read_text())
    assert main([command, path, "--json"]) == status[f"{name}.{command}"]
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN / f"{name}.{command}.json").read_bytes()


@pytest.mark.parametrize("command", [cmd_eval, cmd_grouping])
@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_commands_run_at_their_options_precision(name, command):
    """Called at mpmath's default 53 bits, a command still lowers, evaluates
    and formats at ``options.precision``: its report is the recorded one,
    and verify's value is eval's."""
    spec = parse_problem(GOLDEN_INPUTS[name])
    with mp.workprec(53):
        report = command(spec, EngineOptions(precision=128))
    out = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    golden = GOLDEN / f"{name}.{command.__name__.removeprefix('cmd_')}.json"
    assert out.encode() == golden.read_bytes()
    if command is cmd_eval:
        with mp.workprec(53):
            report = cmd_verify(spec, EngineOptions(precision=128))
        want = json.loads(golden.read_text())
        assert report.value == want["value"]


@pytest.mark.parametrize("name", sorted(p.stem for p in SAMPLES.glob("*.rsd")))
def test_verify_reports_match_golden(tmp_path, capsys, name):
    """``verify --json`` on the samples matches ``<name>.verify.json``.

    The exit status, the sections outside the oracle's, and the oracle's
    verdict, node count, box and tail estimate agree exactly.  The estimate,
    its error bound and its difference from the value agree to within
    max(1e-13 |estimate|, 1e-2 error_bound): a reordering of the sum's
    floating-point operations moves them by far less than the bound.
    """
    path = _write(tmp_path, GOLDEN_INPUTS[name])
    status = json.loads((GOLDEN / "exit_status.json").read_text())
    assert main(["verify", path, "--json"]) == status[f"{name}.verify"]
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / f"{name}.verify.json").read_text())
    oracle, expect = got.pop("oracle"), want.pop("oracle")
    assert got == want
    for key in ("within_tolerance", "nodes_per_axis", "box_halfwidth", "tail_estimate"):
        assert oracle[key] == expect[key]
    estimate = _val(expect["estimate"])
    slack = max(mpf("1e-13") * abs(estimate), mpf("1e-2") * mpf(expect["error_bound"]))
    assert abs(_val(oracle["estimate"]) - estimate) <= slack
    for key in ("error_bound", "difference"):
        assert abs(mpf(oracle[key]) - mpf(expect[key])) <= slack


def test_json_verify_sections(tmp_path, capsys):
    path = _write(tmp_path, PI_1D)
    assert main(["verify", path, "--json", "--tol", "1e-6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["oracle"]["within_tolerance"] is True
    assert mpf(data["oracle"]["difference"]) < mpf("1e-8")
    assert data["oracle"]["nodes_per_axis"] > 0


def test_precision_flag_consistency(tmp_path, capsys):
    path = _write(tmp_path, EX1_PIB)
    values = []
    for bits in ("64", "128"):
        assert main(["eval", path, "--json", "--precision", bits]) == 0
        data = json.loads(capsys.readouterr().out)
        values.append(_val(data["value"]))
    assert abs(values[0] - values[1]) < mpf("1e-12")


def test_text_report_layout(tmp_path, capsys):
    path = _write(tmp_path, EX1_PIB)
    assert main(["eval", path]) == 0
    out = capsys.readouterr().out
    assert "problem: 2 variable(s)" in out
    assert "flag" in out and "(H1,H3)" in out
    assert "value:" in out
    assert "certificate: CERTIFIED" in out
    assert out.rstrip().endswith("result: PASS")


def _generic_text(seed: int, r: int, big_r: int) -> str:
    """A generic draw as the benchmark's flags family builds it: R distinct
    primitive rows with entries in -2..2, every r of them independent,
    integer s_j in 1..4, the identity cone and a constant numerator."""
    rng = random.Random(f"generic:{seed}")
    while True:
        rows: list = []
        while len(rows) < big_r:
            row = tuple(rng.randint(-2, 2) for _ in range(r))
            if any(row) and math.gcd(*row) == 1 and row not in rows:
                rows.append(row)
        if all(rank(matrix(sub)) == r for sub in combinations(rows, r)):
            break
    names = [f"v{k + 1}" for k in range(r)]
    eye = " ".join("(" + ",".join(str(int(i == j)) for j in range(r)) + ")" for i in range(r))
    den = " ".join(
        "(" + " + ".join(f"{a}*{v}" for a, v in zip(row, names)) + f" - {rng.randint(1, 4)}*i)"
        for row in rows
    )
    return f"vars {' '.join(names)};\ncone {eye};\nnum {rng.randint(1, 3)};\nden {den};\n"


_INVARIANCE_CASES = {
    **{path.stem: path.read_text() for path in sorted(SAMPLES.glob("*.rsd"))},
    "squared_poles": SQUARED_POLES,
    "cubed_poles": CUBED_POLES,
    "mixed_poles": MIXED_POLES,
    "six_cubed": SIX_CUBED,
    # draws with six, six and two contributions
    "generic_3_6": _generic_text(18, 3, 6),
    "generic_3_7": _generic_text(14, 3, 7),
    "generic_4_7": _generic_text(14, 4, 7),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(_INVARIANCE_CASES))
def test_engine_is_invariant_under_coordinate_changes(name, seed):
    """v = U u for a det-1 integer U of at most three shears, and a renaming
    of the hyperplanes (``conftest.disguise``; the cone's generators become
    U^-1 v_k): the chart F M only permutes its rows, so the relabelled
    verdict table, the certificate and the number of contributions do not
    change, and neither does the value, exactly: the residues'
    ``constant_sum`` of the difference has no term.  This reads both the
    flag table and the lowering of every case."""
    spec = parse_problem(_INVARIANCE_CASES[name])
    with working_precision(128):
        arr, poly = spec.arrangement(), spec.polyhedron()
        steps = 3 if arr.dim > 1 else 0
        u, order = disguise_map(arr.dim, len(arr.hyperplanes), seed, steps)
        other = disguise(arr, seed, steps)
        back = inverse(RationalMatrix(tuple(map(tuple, u)))).entries
        gens = [[sum(a * x for a, x in zip(row, v)) for row in back] for v in poly.generators]
        other_poly = Polyhedron.from_generators(gens)
        want = evaluate_integral(arr, poly)
        got = evaluate_integral(other, other_poly)
    relabel = lambda flag: tuple(order[i] for i in flag)
    assert dict(zip(map(relabel, got.flag_table.indices), got.flag_table.verdicts)) == dict(
        zip(want.flag_table.indices, want.flag_table.verdicts)
    )
    for field in ("all_compatible", "convergence", "certified"):
        assert getattr(got.certificate, field) == getattr(want.certificate, field)
    assert len(got.certificate.warnings) == len(want.certificate.warnings)
    assert len(got.flag_contributions) == len(want.flag_contributions)
    funcs = [
        ChartResidues(a, p).function(flag)
        for a, p, result in ((arr, poly, want), (other, other_poly, got))
        for flag in result.flag_contributions
    ]
    n = len(want.flag_contributions)
    assert not constant_sum(funcs[:n] + [f.scale(-1) for f in funcs[n:]]).terms
