"""gr1report command line entry point."""

from __future__ import annotations

import argparse
import sys

from .report import (
    ANALYSIS_ORDER, BaselineResourceError, ReportConfig, ReportError,
    run_report,
)
from .syntax import SpecError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2, the code of a baseline out of resources
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="gr1report",
        description="Run the specification-debugging analyses on a GR(1) "
                    "specification and write JSON and HTML reports.")
    p.add_argument("spec", help="specification file")
    p.add_argument("--html", metavar="PATH", help="HTML report path "
                   "(default: SPEC.report.html)")
    p.add_argument("--json", metavar="PATH", help="JSON report path "
                   "(default: SPEC.report.json)")
    p.add_argument("--analyses", metavar="LIST",
                   help="comma-separated subset of: " + ",".join(ANALYSIS_ORDER))
    p.add_argument("--semantics", choices=["strict", "nonstrict"],
                   default=ReportConfig.semantics)
    p.add_argument("--robotics", action="store_true",
                   help="require every admissible initial output to be winning")
    p.add_argument("--max-k", type=int, default=ReportConfig.max_k,
                   help="largest glitch budget tried by the resilience "
                        f"analysis (default {ReportConfig.max_k})")
    p.add_argument("--max-cubes", type=int, default=ReportConfig.max_cubes)
    p.add_argument("--max-trace-steps", type=int,
                   default=ReportConfig.max_trace_steps)
    p.add_argument("--abstract-horizon", type=int,
                   default=ReportConfig.abstract_horizon)
    p.add_argument("--timeout", type=float, metavar="SECONDS",
                   help="cooperative timeout, restarted for the baseline "
                        "check and for each analysis")
    p.add_argument("--node-budget", type=int, metavar="N",
                   help="BDD node budget of the one manager that the "
                        "baseline check and all analyses share")
    p.add_argument("--dump-bdd", metavar="NAME.dot",
                   help="also dump the baseline winning-set BDD as DOT text")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # GR1REPORT_SEED is reserved; behavior is deterministic and the
    # variable is intentionally ignored.
    analyses = tuple(ANALYSIS_ORDER)
    if args.analyses is not None:  # an empty list selects no analysis
        analyses = tuple(a.strip() for a in args.analyses.split(",") if a.strip())
    try:
        config = ReportConfig(
            analyses=analyses, semantics=args.semantics,
            robotics=args.robotics, max_k=args.max_k,
            max_cubes=args.max_cubes, max_trace_steps=args.max_trace_steps,
            abstract_horizon=args.abstract_horizon,
            node_budget=args.node_budget, timeout_seconds=args.timeout)
    except ReportError as exc:
        print(f"gr1report: {exc}", file=sys.stderr)
        return 1
    try:
        report = run_report(args.spec, config, json_path=args.json,
                            html_path=args.html, dot_path=args.dump_bdd)
    except BaselineResourceError as exc:
        print(f"gr1report: baseline realizability check exhausted "
              f"resources: {exc}", file=sys.stderr)
        return 2
    except (SpecError, ReportError, OSError) as exc:
        print(f"gr1report: {exc}", file=sys.stderr)
        return 1
    verdict = report.baseline["realizable"]
    print(f"gr1report: {report.spec_name}: {verdict}; "
          f"{len(report.analyses)} analyses written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
