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
from .oracle import explicit_solve, model_check, brute_force_primes
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
    "explicit_solve", "model_check", "brute_force_primes",
    "Session", "semantics_comparison", "position_statistics",
    "assumption_falsification", "classify_assumptions", "error_resilience",
    "precommit_analysis", "stuck_at_analysis",
    "nominal_trace", "abstract_strategy",
    "run_report", "ReportConfig", "Report",
]
