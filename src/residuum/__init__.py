"""Exact evaluation of rational-exponential integrals by iterated residues.

The integrand is a finite sum of terms P(z) e^{a(z)} / prod_j (f_j(z) - i s_j)^{m_j}
integrated over R^r; the contour is pushed into an r-dimensional polyhedron
R^r + i(cone) and the integral becomes (2 pi i)^r times a sum of iterated
residues over the stable flags of polar hyperplanes.  The package computes
that expansion exactly, audits the minor-sign conditions that make it valid,
regroups the polar divisors into Grothendieck residues, and double-checks
every value with an independent numerical oracle.
"""

from .arrangement import (
    Arrangement,
    AuditReport,
    Flag,
    FlagEntry,
    Hyperplane,
    InsolubleFlag,
    MeetsRealLocus,
    NotAlignable,
    Polyhedron,
    Violation,
    canonicalize_hyperplane,
    compatibility_audit,
    enumerate_flags,
    flag_classes,
    flag_table,
    jacobian,
    pole_location,
    stable_flags,
)
from .cli import Report, cmd_analyze, cmd_eval, cmd_grouping, cmd_verify, main
from .dsl import (
    ParseError,
    ProblemError,
    ProblemSpec,
    load_problem,
    parse_problem,
)
from .oracle import (
    BudgetExceeded,
    NonDecaying,
    OutOfFloatRange,
    PoleOnArc,
    QuadratureReport,
    SemicircleDiagnostic,
    quad_integral,
    semicircle_check,
)
from .residue_engine import (
    Certificate,
    Convergence,
    DivisorGrouping,
    EmptyStableSet,
    EngineOptions,
    ResidueResult,
    canonical_grouping,
    convergence_heuristic,
    evaluate_integral,
    grothendieck_residue,
    iterated_residue,
    points_of_grouping,
)
from .symfun import (
    AffineForm,
    ExpRationalFunction,
    Polynomial,
    TermBudgetExceeded,
    working_precision,
)

__version__ = "0.1.0"

__all__ = [
    "AffineForm",
    "Arrangement",
    "AuditReport",
    "BudgetExceeded",
    "Certificate",
    "Convergence",
    "DivisorGrouping",
    "EmptyStableSet",
    "EngineOptions",
    "ExpRationalFunction",
    "Flag",
    "FlagEntry",
    "Hyperplane",
    "InsolubleFlag",
    "MeetsRealLocus",
    "NonDecaying",
    "NotAlignable",
    "OutOfFloatRange",
    "ParseError",
    "PoleOnArc",
    "Polyhedron",
    "Polynomial",
    "ProblemError",
    "ProblemSpec",
    "QuadratureReport",
    "Report",
    "ResidueResult",
    "SemicircleDiagnostic",
    "TermBudgetExceeded",
    "Violation",
    "canonical_grouping",
    "canonicalize_hyperplane",
    "cmd_analyze",
    "cmd_eval",
    "cmd_grouping",
    "cmd_verify",
    "compatibility_audit",
    "convergence_heuristic",
    "enumerate_flags",
    "evaluate_integral",
    "flag_classes",
    "flag_table",
    "grothendieck_residue",
    "iterated_residue",
    "jacobian",
    "load_problem",
    "main",
    "parse_problem",
    "pole_location",
    "points_of_grouping",
    "quad_integral",
    "semicircle_check",
    "stable_flags",
    "working_precision",
]
