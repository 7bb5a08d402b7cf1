"""End-to-end benchmark of gr1report, with an optional per-layer trace.

Usage, from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all             # every workload in turn

One client, one process, no threads: each operation is one call of the
public `run_report`, made after the previous one returned (a closed
loop).  Workloads:

  corpus   full report (all nine analyses) on each specification in
           specs/, and three sweeps of verdict-only reports over them
           (before, between and after the two halves of the full ones)
  arbiter  the same on the generated n-client arbiter, n = 3 and 4
  chain    verdict-only report on the generated n-stage shift chain,
           n = 150 and 300

A run makes a fixed number of rounds of these operations, about the
number that fills --seconds on the reference host (ROUND_S), so that
every run of one workload attempts the same operations; the seed permutes the
order in which each round visits the inputs.  After its rounds a run
makes one untimed 600-stage chain probe (ROADMAP item 4).  Every report
is written to a scratch directory under bench/ and its verdict and
canonical-JSON SHA-256 are checked against bench/reference.json.

The host's speed changes from second to second, so while the rounds
run a timer signal times a short calibration slice every 0.2 s
(calibrate.py), and each operation's wall time, less its slices, is
scaled to the reference host by the median of the slices during and
around its unit of work.

With --trace 0 the result holds the end-to-end metrics:
  setup_s      median wall time of a fresh interpreter importing
               gr1report (not scaled)
  pass_s       one round: sum over inputs of the median full-report time
               (on chain, of the verdict time)
  verdict_s    sum over inputs of the median verdict-only report time
  peak_rss_mb  peak resident memory of this fresh process after the
               timed operations of its first round
pass_s and verdict_s are scaled; the raw wall times are printed
beside them.
Failed operations (undocumented exceptions and failed output checks)
are counted in `failed` out of `attempted`.

With --trace 1 the run makes one untraced and one traced round and the
result holds the per-layer metrics of the traced round (see
tracing.py), plus the tracing overhead; the spans go to bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, sleep

import calibrate
import specgen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPECS = ROOT / "specs"
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("corpus", "arbiter", "chain")
# the specs in specs/ and their known verdicts
CORPUS = {
    "counter": "unrealizable", "delivery": "realizable",
    "delivery_ready": "realizable", "doors": "realizable",
    "mutex": "realizable", "mutex_fixed": "realizable",
    "oscillator_unreal": "unrealizable", "parity_tracker": "unrealizable",
    "patrol": "realizable", "request_grant": "realizable",
    "tworobot": "realizable", "tworobot_weak": "realizable",
}
ARBITER_SIZES = (3, 4)
CHAIN_SIZES = (150, 300)
# a run makes round(--seconds / ROUND_S) rounds: at --seconds 30, one
# round of corpus (26 s), five of arbiter (5.5 s each) and four of chain
# (9.5 s each), on the reference host at gr1report 0.1.0
ROUND_S = {"corpus": 26.0, "arbiter": 6.0, "chain": 8.0}
# ROADMAP item 4: the recursive BDD kernel dies on this chain size
PROBE_STAGES = 600
PROBE_TIMEOUT_S = 10.0
SETUP_SAMPLES = 11
# calibration slices on either side of a unit of work that also scale it
SLICE_MARGIN = 2


@dataclass(frozen=True)
class Input:
    name: str        # also the spec file name recorded in the report
    path: Path
    verdict: str     # known answer


@dataclass(frozen=True)
class Op:
    kind: str        # "full", "verdict" or "probe"
    input: Input

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.input.name}"


class BenchError(Exception):
    """The benchmark cannot run here (missing program or reference)."""


def load_program():
    """Import gr1report from this checkout's source tree."""
    if not (SRC / "gr1report" / "__init__.py").is_file() or not SPECS.is_dir():
        raise BenchError(f"no gr1report sources under {SRC} or no {SPECS}")
    sys.path.insert(0, str(SRC))
    import gr1report
    if SRC not in Path(gr1report.__file__).resolve().parents:
        raise BenchError(f"gr1report imported from {gr1report.__file__}, "
                         f"not from {SRC}")
    return gr1report


def load_reference() -> dict:
    if not REFERENCE.is_file():
        raise BenchError(f"missing {REFERENCE}")
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["inputs"]


def make_inputs(workload: str, work: Path) -> list[Input]:
    if workload == "corpus":
        return [Input(f"{name}.spec", SPECS / f"{name}.spec", verdict)
                for name, verdict in CORPUS.items()]
    sizes = ARBITER_SIZES if workload == "arbiter" else CHAIN_SIZES
    return [generated(workload, n, work) for n in sizes]


def generated(family: str, n: int, work: Path) -> Input:
    path = work / f"{family}_{n}.spec"
    path.write_text(specgen.FAMILIES[family](n), encoding="utf-8")
    return Input(path.name, path, specgen.KNOWN_VERDICT[family])


def report_kinds(workload: str) -> tuple[str, ...]:
    """The kinds of report made on each input of a workload."""
    return ("verdict",) if workload == "chain" else ("verdict", "full")


def round_units(workload: str, inputs: list[Input],
                rng: random.Random) -> list[list[Op]]:
    """One round of a workload as units of work, in a seeded order.  A
    calibration sample is taken between units."""
    order = list(inputs)
    rng.shuffle(order)
    if workload == "chain":
        return [[Op("verdict", i)] for i in order]
    # three sweeps of the short verdict reports, spread over the round
    sweep = [Op("verdict", i) for i in order]
    full = [[Op("full", i)] for i in order]
    half = len(full) // 2
    return [sweep, *full[:half], sweep, *full[half:], sweep]


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def output_path(op: Op, work: Path, ext: str) -> Path:
    return work / f"{op.input.name}.{op.kind}.{ext}"


def run_op(op: Op, work: Path):
    """Run one report; returns (seconds, Report), not counting the time
    spent in calibration slices."""
    from gr1report import ReportConfig, run_report
    if op.kind == "full":
        config = ReportConfig()
    elif op.kind == "verdict":
        config = ReportConfig(analyses=())
    else:
        config = ReportConfig(analyses=(), timeout_seconds=PROBE_TIMEOUT_S)
    t0, paused = perf_counter(), calibrate.spent()
    report = run_report(op.input.path, config,
                        json_path=output_path(op, work, "json"),
                        html_path=output_path(op, work, "html"), log=None)
    return perf_counter() - t0 - (calibrate.spent() - paused), report


class Runner:
    """Runs operations, checks their outputs and counts failures."""

    def __init__(self, work: Path, reference: dict):
        self.work = work
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, op: Op, tracer=None) -> float:
        """Run one operation; returns its wall time, failed or not."""
        from gr1report.report import BaselineResourceError
        self.attempted += 1
        gc.collect()
        t0 = perf_counter()
        try:
            if tracer is None:
                seconds, report = run_op(op, self.work)
            else:
                with tracer.region("report.run"):
                    seconds, report = run_op(op, self.work)
        except BaselineResourceError:
            if op.kind != "probe":
                return self._fail(op, "baseline resources exhausted", t0)
            return perf_counter() - t0   # documented exit-2 path
        except Exception as exc:  # any undocumented exception is a failure
            return self._fail(op, f"{type(exc).__name__}: {exc}"[:200], t0)
        problem = self.check(op, report)
        if problem:
            self.correct = False
            self._fail(op, problem, t0)
        return seconds

    def check(self, op: Op, report) -> str | None:
        verdict = report.baseline["realizable"]
        if verdict != op.input.verdict:
            return f"verdict {verdict}, expected {op.input.verdict}"
        if op.kind == "probe":
            return None
        path = output_path(op, self.work, "json")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        want = self.reference[op.input.name][op.kind + "_sha256"]
        if digest != want:
            return f"canonical JSON sha256 {digest[:12]}, expected {want[:12]}"
        return None

    def _fail(self, op: Op, why: str, t0: float) -> float:
        self.failed += 1
        print(f"FAILED {op.key}: {why}", file=sys.stderr)
        # a failed operation still took its time and counts in the round
        return perf_counter() - t0


class Scaled:
    """Wall times of units of work, each scaled to the reference host by
    the median of the calibration slices taken during it and the
    SLICE_MARGIN slices on either side.  The host's speed changes within
    seconds, so slices further away, or the run's median, track it
    worse; the median ignores a slice that a page fault or a neighbour
    stretched."""

    def __init__(self, sampler: calibrate.Sampler):
        self.sampler = sampler
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self._units: list[tuple[list[tuple[str, float]], int, int]] = []

    def unit(self, ops: list[Op], runner: Runner) -> None:
        """Run one unit of work and note which slices fell in it."""
        first = len(self.sampler.slices)
        results = [(op.key, runner.run(op)) for op in ops]
        self._units.append((results, first, len(self.sampler.slices)))

    def finish(self) -> None:
        """Scale every unit, once the slices after the last one exist."""
        slices = self.sampler.slices
        for results, first, end in self._units:
            near = slices[max(0, first - SLICE_MARGIN):end + SLICE_MARGIN]
            factor = calibrate.REFERENCE_S / statistics.median(near)
            for key, seconds in results:
                self.raw.setdefault(key, []).append(seconds)
                self.scaled.setdefault(key, []).append(seconds * factor)

    def total(self, kind: str, inputs: list[Input], scaled=True):
        """Sum over inputs of the median time of one kind of operation,
        with the sample count of each input."""
        samples = self.scaled if scaled else self.raw
        keys = [Op(kind, i).key for i in inputs]
        return (sum(statistics.median(samples[k]) for k in keys),
                [len(samples[k]) for k in keys])


def fresh_import_s() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import gr1report"], env=env,
                   cwd=ROOT, check=True)
    return perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_kind(workload: str) -> str:
    return "verdict" if workload == "chain" else "full"


def probe_op(work: Path) -> Op:
    return Op("probe", generated("chain", PROBE_STAGES, work))


def run_untraced(workload, inputs, runner, seed, seconds) -> dict:
    setup = [fresh_import_s() for _ in range(SETUP_SAMPLES)]
    rng = random.Random(seed)
    rounds = rounds_for(workload, seconds)
    rss = None
    with calibrate.Sampler() as sampler:
        clock = Scaled(sampler)
        for _ in range(rounds):
            for unit in round_units(workload, inputs, rng):
                clock.unit(unit, runner)
            rss = rss or peak_rss_mb()
        # slices after the last unit, to scale it as the others
        end = len(sampler.slices) + SLICE_MARGIN
        while len(sampler.slices) < end:
            sleep(calibrate.INTERVAL_S / 4)
    clock.finish()
    # the probe recurses to the interpreter's limit: no timer signal there
    runner.run(probe_op(runner.work))
    kind = timed_kind(workload)
    pass_s, pass_n = clock.total(kind, inputs)
    verdict_s, verdict_n = clock.total("verdict", inputs)
    print(f"  rounds       {rounds}; {len(sampler.slices)} calibration "
          f"slices, median {statistics.median(sampler.slices) * 1e3:.3f} ms"
          f" (reference {calibrate.REFERENCE_S * 1e3:.3f} ms)")
    print(f"  setup_s      {statistics.median(setup):.4f} s  (median of "
          f"{SETUP_SAMPLES} fresh imports, wall time)")
    print(f"  pass_s       {pass_s:.4f} s  (sum of per-input medians, "
          f"{min(pass_n)}-{max(pass_n)} samples per input; raw "
          f"{clock.total(kind, inputs, scaled=False)[0]:.4f} s)")
    print(f"  verdict_s    {verdict_s:.4f} s  (sum of per-input medians, "
          f"{min(verdict_n)}-{max(verdict_n)} samples per input; raw "
          f"{clock.total('verdict', inputs, scaled=False)[0]:.4f} s)")
    print(f"  peak_rss_mb  {rss:.1f} MB  (1 sample: first round)")
    return {"setup_s": (statistics.median(setup), "s"),
            "pass_s": (pass_s, "s"),
            "verdict_s": (verdict_s, "s"),
            "peak_rss_mb": (rss, "MB")}


def run_traced(workload, inputs, runner, seed) -> dict:
    from tracing import Tracer
    ops = [op for unit in round_units(workload, inputs, random.Random(seed))
           for op in unit]
    kind = timed_kind(workload)

    def one_round(tracer=None) -> float:
        total = 0.0
        for op in ops:
            seconds = runner.run(op, tracer)
            if op.kind == kind:
                total += seconds
        return total

    plain = one_round()
    with Tracer() as tracer:
        traced = one_round(tracer)
    runner.run(probe_op(runner.work))
    metrics = tracer.metrics()
    metrics["tracing_overhead_s"] = (traced - plain, "s")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(f"  spans written to {spans.relative_to(ROOT)}")
    return metrics


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    load_program()
    reference = load_reference()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        work = Path(tmp)
        inputs = make_inputs(workload, work)
        runner = Runner(work, reference)
        print(f"workload {workload}  seed {seed}  seconds {seconds}  "
              f"trace {int(trace)}")
        if trace:
            metrics = run_traced(workload, inputs, runner, seed)
        else:
            metrics = run_untraced(workload, inputs, runner, seed, seconds)
    print(f"  ops_failed   {runner.failed}/{runner.attempted}")
    return {"correct": runner.correct, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> int:
    """Run every workload, each in a fresh process of its own."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
