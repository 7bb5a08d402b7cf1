"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/selftest.py

They check that the generators are stable and their known verdicts hold
against the explicit-state oracle, that every seed attempts the same
operations (only their order differs), that tracing leaves the reports
byte-identical and restores the program, that the traced counts of one
corpus report match the ones quoted in the benchmark's predictions, and
that the benchmark fails cleanly where the program is missing.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import specgen

run.load_program()

from gr1report import (  # noqa: E402
    BddManager, ReportConfig, build_game, check_realizability,
    compile_to_boolean, explicit_solve, parse_spec, run_report, solve_game,
)
from tracing import Tracer  # noqa: E402

GENERATED_SHA256 = {
    ("arbiter", 3):
        "2d393b0378b3aadfe48257c004a9d4d4d8efb4f6ef9a7c38175c0fd4fe2e01af",
    ("arbiter", 4):
        "d37dca171874b788159ef5f14625bd68efb7b78a347c53a2db25779537e4e28a",
    ("chain", 150):
        "94bbd4d1c15093afe8713daf938ca5aced930e544aba10b85790d6596bb17d9f",
    ("chain", 300):
        "5d5b55a8e8372f0ebff254541660fc8d00fe4ef8bffe1f30becb56dd17af9f85",
    ("chain", 600):
        "dcebde758dcfe58e36a90cdbe1ec0344d8eb7f9ba8e29a0e8f51c42ea404b135",
}


def _work():
    return tempfile.TemporaryDirectory(prefix=".work-", dir=run.BENCH)


def _report_bytes(spec: Path, work: Path, config: ReportConfig) -> bytes:
    out = work / (spec.name + ".json")
    run_report(spec, config, json_path=out, html_path=work / "r.html",
               log=None)
    return out.read_bytes()


def test_generators_are_stable():
    for (family, n), want in GENERATED_SHA256.items():
        text = specgen.FAMILIES[family](n)
        assert hashlib.sha256(text.encode()).hexdigest() == want, (family, n)
        assert text == specgen.FAMILIES[family](n)


def test_known_verdicts_agree_with_oracle():
    for family, n in (("arbiter", 2), ("arbiter", 3), ("chain", 3),
                      ("chain", 6)):
        spec = compile_to_boolean(parse_spec(specgen.FAMILIES[family](n)))
        assert explicit_solve(spec).realizable == specgen.KNOWN_VERDICT[family]
        game = build_game(spec)
        verdict = check_realizability(game, solve_game(game, record=False))
        assert verdict == specgen.KNOWN_VERDICT[family], (family, n)


def test_every_seed_attempts_the_same_operations():
    with _work() as tmp:
        work = Path(tmp)
        for workload in run.WORKLOADS:
            inputs = run.make_inputs(workload, work)
            rounds = [sorted(op.key for unit in run.round_units(
                workload, inputs, random.Random(seed)) for op in unit)
                for seed in (1, 2, 3)]
            assert rounds[0] == rounds[1] == rounds[2], workload
            assert run.rounds_for(workload, 30) >= 1


def test_tracing_keeps_reports_identical_and_restores_program():
    originals = (BddManager.apply, BddManager.__init__, run_report)
    with _work() as tmp:
        work = Path(tmp)
        spec = run.generated("arbiter", 3, work).path
        for config in (ReportConfig(), ReportConfig(analyses=())):
            plain = _report_bytes(spec, work, config)
            with Tracer() as tracer:
                traced = _report_bytes(spec, work, config)
            assert traced == plain
            assert tracer.calls["game.build"] >= 1
    assert (BddManager.apply, BddManager.__init__, run_report) == originals


def test_verdict_only_chain_touches_no_analysis():
    with _work() as tmp:
        work = Path(tmp)
        spec = run.generated("chain", 20, work).path
        with Tracer() as tracer:
            _report_bytes(spec, work, ReportConfig(analyses=()))
    metrics = tracer.metrics()
    assert metrics["game.build_calls"][0] == 1
    assert metrics["game.extract_calls"][0] == 0
    for name, (value, _) in metrics.items():
        if name.startswith(("analyses.", "traces.")):
            assert value == 0, name


def test_tworobot_weak_traced_counts():
    with _work() as tmp:
        with Tracer() as tracer:
            _report_bytes(run.SPECS / "tworobot_weak.spec", Path(tmp),
                          ReportConfig())
    assert tracer.calls["game.build"] == 30
    assert tracer.calls["game.solve"] == 41
    assert tracer.calls["game.cpre"] == 4727


def test_fails_cleanly_without_the_program():
    with _work() as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns(".work-*", "out",
                                                      "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "chain",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
