"""GR(1) synthesis engine with report-based specification debugging."""

__version__ = "0.1.0"

from .bdd import BddManager, BddRef, Cube, BddError, ResourceLimitError
from .syntax import (
    parse_spec, pretty, SpecDocument, SpecError, VarDecl,
)
from .compiler import (
    validate_gr1_shape, compile_to_boolean, BooleanSpec, CompileError,
    Violation,
)
from .game import (
    build_game, solve_game, check_realizability, extract_strategy,
    reactive_distance, SymbolicGame, WinningRegion, MealyMachine,
)
from .analyses import (
    Session, semantics_comparison, position_statistics,
    assumption_falsification, classify_assumptions, error_resilience,
    precommit_analysis, stuck_at_analysis,
)
from .traces import nominal_trace, abstract_strategy
from .report import run_report, ReportConfig, Report

__all__ = [
    "BddManager", "BddRef", "Cube", "BddError", "ResourceLimitError",
    "parse_spec", "pretty", "SpecDocument", "SpecError", "VarDecl",
    "validate_gr1_shape", "compile_to_boolean", "BooleanSpec",
    "CompileError", "Violation",
    "build_game", "solve_game", "check_realizability", "extract_strategy",
    "reactive_distance", "SymbolicGame", "WinningRegion", "MealyMachine",
    "Session", "semantics_comparison", "position_statistics",
    "assumption_falsification", "classify_assumptions", "error_resilience",
    "precommit_analysis", "stuck_at_analysis",
    "nominal_trace", "abstract_strategy",
    "run_report", "ReportConfig", "Report",
]


def __getattr__(name):
    # the test-facing oracles load on first use, so that importing the
    # package does not compile them
    if name in ("explicit_solve", "model_check", "brute_force_primes"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
