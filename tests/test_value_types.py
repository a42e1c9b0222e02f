"""The public value types: immutable, equal and hashed by their fields
within their kind, copied and pickled whole, and printed as
``Kind(field=value, ...)``.

Each kind is a ``typing.NamedTuple`` or, where tuple equality would be
wrong, a class with ``__slots__``.
"""

import copy
import pickle

import pytest
from mpmath import mp

from residuum import (
    Arrangement,
    AuditReport,
    Certificate,
    DivisorGrouping,
    EngineOptions,
    Hyperplane,
    Polyhedron,
    ProblemSpec,
    QuadratureReport,
    Report,
    ResidueResult,
    SemicircleDiagnostic,
    Violation,
    cmd_eval,
    compatibility_audit,
    evaluate_integral,
    parse_problem,
    quad_integral,
    semicircle_check,
)
from residuum.dsl import Bin, ExpCall, Name, Neg, Num, Token, _tokenize
from residuum.exact_linalg import RationalMatrix

# each kind's fields, in order
FIELDS = {
    Hyperplane: ("f", "s"),
    Polyhedron: ("generators",),
    Arrangement: ("dim", "hyperplanes", "multiplicities", "numerator"),
    Violation: ("flag", "positive_q"),
    AuditReport: ("all_compatible", "violations", "flags_checked", "truncated"),
    Report: (
        "command", "problem", "passed", "stability_table", "jacobians", "violations",
        "value", "contributions", "certificate", "oracle", "grouping", "diagnostics",
        "warnings", "notes",
    ),
    Token: ("kind", "text", "line", "col"),
    Num: ("value", "pos"),
    Name: ("name", "pos"),
    Neg: ("operand", "pos"),
    Bin: ("op", "lhs", "rhs", "pos"),
    ExpCall: ("arg", "pos"),
    ProblemSpec: ("variables", "cone", "parameters", "numerator", "denominator"),
    QuadratureReport: (
        "estimate", "error_bound", "box_halfwidth", "nodes_per_axis", "tail_estimate",
    ),
    SemicircleDiagnostic: (
        "radii", "magnitudes", "peak_magnitudes", "trending_to_zero", "sampled_radii",
    ),
    EngineOptions: ("precision",),
    Certificate: ("all_compatible", "convergence", "warnings"),
    ResidueResult: ("value", "flag_contributions", "certificate", "flag_table"),
    DivisorGrouping: ("groups",),
}
SLOTTED = {Polyhedron, Num, Name, Neg, Bin, ExpCall}

# the incompatible example of tests/test_cli.py, whose audit has a
# violation, and a compatible problem of the same shape
TEXT = """\
vars x y;
cone (1,0) (0,1);
param n1=3 n2=2 s1=1 s2=1 s3=1;
num n1^(i*x - s1) * n2^(i*y - s2);
den (-x - s1*i) (-y - s2*i) (x + y - s3*i);
"""
OTHER = """\
vars x y;
cone (-1,1) (0,1);
param n1=2 n2=3 s1=1 s2=1 s3=2;
num n1^(i*x - s1) * n2^(i*y - s3);
den (-x - s1*i) (-y - s2*i) (x + y - s3*i);
"""
PI_1D = "vars x; cone (1); num -1; den (x - i) (-x - i);\n"


def build(text: str, k: int) -> dict:
    """One value of every kind, built from ``text``; k picks which part."""
    spec = parse_problem(text)
    one = parse_problem(PI_1D).arrangement()
    with mp.workprec(128):
        arr, poly = spec.arrangement(), spec.polyhedron()
        audit = compatibility_audit(arr, poly)
        result = evaluate_integral(arr, poly)
        report = cmd_eval(spec, EngineOptions(128))
        arc = semicircle_check(one.integrand(), (10.0, 20.0 + k))
    values = {
        Hyperplane: arr.hyperplanes[-1],
        Polyhedron: poly,
        Arrangement: arr,
        AuditReport: audit,
        Report: report,
        Token: _tokenize(text)[k],
        ProblemSpec: spec,
        QuadratureReport: quad_integral(one, box=5.0 + k),
        SemicircleDiagnostic: arc,
        EngineOptions: EngineOptions(53 + k),
        Certificate: result.certificate,
        ResidueResult: result,
        DivisorGrouping: DivisorGrouping.of({k}, {1 - k}),
        Num: spec.parameters[0][1],
        Name: (spec.numerator.lhs, spec.numerator.rhs)[k].lhs,
        Neg: spec.denominator[k][0].lhs,
        Bin: spec.numerator,
        ExpCall: ExpCall(spec.numerator.rhs, (k, 1)),
    }
    if audit.violations:
        values[Violation] = audit.violations[0]
    return values


@pytest.fixture(scope="module")
def values():
    return build(TEXT, 0), build(TEXT, 0), build(OTHER, 1)


def test_every_kind_is_covered(values):
    first, _, _ = values
    assert set(first) == set(FIELDS)


def _same(kind, a, b) -> bool:
    """a and b are equal values; an Arrangement's numerator is compared by
    its repr, since an ExpRationalFunction equals only itself."""
    if kind is Arrangement:
        parts = (a.dim, a.hyperplanes, a.multiplicities, repr(a.numerator))
        return parts == (b.dim, b.hyperplanes, b.multiplicities, repr(b.numerator))
    return a == b


@pytest.mark.parametrize("kind", list(FIELDS), ids=lambda kind: kind.__name__)
def test_value_type_behaves_as_before(values, kind):
    first, again, other = values
    value = first[kind]
    fields = FIELDS[kind]
    assert type(value) is kind
    # equality and hash within the kind: the fields but a DSL node's pos
    compared = tuple(getattr(value, name) for name in fields if name != "pos")
    if kind is not Arrangement:
        assert value == again[kind]
    if kind in other:
        assert value != other[kind]
    try:
        hash(compared)
    except TypeError:  # a dict field: unhashable
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(compared)
    # immutable
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    # copies and pickles are equal and of the same kind
    for twin in (
        copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
    ):
        assert type(twin) is kind and _same(kind, twin, value)
    # the repr is Kind(field=value, ...), every field included
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{kind.__name__}({shown})"


def test_slotted_kinds_equal_only_their_own_kind(values):
    """A slotted kind is no tuple: a Polyhedron is not equal to the
    RationalMatrix of the same rows, nor a node to a tuple of its fields."""
    first, _, _ = values
    poly = first[Polyhedron]
    assert poly != RationalMatrix(poly.generators)
    assert poly != (poly.generators,)
    assert Num(1) != (1,) and Num(1) != Name(1)
    for kind in SLOTTED:
        assert not isinstance(first[kind], tuple)
    assert all(issubclass(kind, tuple) for kind in set(FIELDS) - SLOTTED)
