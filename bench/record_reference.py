"""Record bench/reference.json: the canonical-JSON SHA-256 of the full
and the verdict-only report of every benchmark input, as the current
program produces them.  Refuses to record a wrong verdict.

    python3 bench/record_reference.py

Run it only when a change to the report output is intended, and say so
in the change; the benchmark rejects every report that differs from
the recorded one.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import run


def main() -> None:
    gr1report = run.load_program()
    out: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=run.BENCH) as tmp:
        work = Path(tmp)
        for workload in run.WORKLOADS:
            for inp in run.make_inputs(workload, work):
                entry = out[inp.name] = {}
                for kind in run.report_kinds(workload):
                    op = run.Op(kind, inp)
                    _, report = run.run_op(op, work)
                    verdict = report.baseline["realizable"]
                    if verdict != inp.verdict:
                        raise SystemExit(f"{op.key}: verdict {verdict}, "
                                         f"expected {inp.verdict}")
                    data = run.output_path(op, work, "json").read_bytes()
                    entry[kind + "_sha256"] = hashlib.sha256(data).hexdigest()
                print(inp.name, flush=True)
    run.REFERENCE.write_text(json.dumps(
        {"version": gr1report.__version__, "inputs": out},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")

if __name__ == "__main__":
    main()
