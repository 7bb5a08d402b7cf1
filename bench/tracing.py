"""Per-layer tracing installed from outside the program.

A Tracer replaces public functions and methods of gr1report with
wrappers while it is active (a `with` block) and restores the
originals afterwards.  Module-level functions are patched where they
are bound: `analyses`, `traces` and `report` import `build_game`,
`solve_game`, `check_realizability` and `extract_strategy` by name, so
patching `gr1report.game` alone would miss every call.  Manager and
game methods are patched on their classes.

Calls at game level and above are recorded as spans (name, parent,
start, end) kept in memory; self time is a span's duration minus that
of its direct children.  Kernel calls (BDD operations, handle
constructions) are too many for spans and only add to per-key call
counts and busy time.  Kernel timers are inclusive, so a kernel call
made inside another one (an `apply` inside `prime_cubes`) is counted
under both keys.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import gr1report.analyses as analyses_mod
import gr1report.report as report_mod
import gr1report.traces as traces_mod
from gr1report.bdd import BddManager, BddRef
from gr1report.game import SymbolicGame

# name bound in gr1report.report -> span name
ANALYSES = {
    "semantics_comparison": "analyses.semantics",
    "position_statistics": "analyses.positions",
    "assumption_falsification": "analyses.falsify",
    "classify_assumptions": "analyses.assumptions",
    "error_resilience": "analyses.resilience",
    "precommit_analysis": "analyses.precommit",
    "stuck_at_analysis": "analyses.stuckat",
    "nominal_trace": "traces.trace",
    "abstract_strategy": "traces.abstract",
}
GAME = {
    "build_game": "game.build",
    "solve_game": "game.solve",
    "check_realizability": "game.check",
    "extract_strategy": "game.extract",
}
KERNEL_TIMED = {
    "apply": "bdd.apply",
    "and_exists": "bdd.and_exists",
    "rename": "bdd.rename",
    "count_models": "bdd.enum",
    "pick_min_model": "bdd.enum",
    "restrict": "bdd.enum",
}
KERNEL_GENERATORS = {"prime_cubes": "bdd.enum", "iter_models": "bdd.enum"}
KERNEL_COUNTED = {
    "negate": "bdd.negate",
    "quantify": "bdd.quantify",
    "to_truthtable": "bdd.truthtable",
}

# (span name, with self time) reported as <name>_s and <name>_self_s
SPAN_METRICS = (
    [("syntax.parse", False), ("compiler.compile", False)]
    + [(s, False) for s in GAME.values() if s != "game.check"]
    + [("game.cpre", False)]
    + [(s, True) for s in ANALYSES.values()]
    + [("report.json", False), ("report.render", False)]
)
COUNT_METRICS = ("game.build", "game.solve", "game.check", "game.cpre",
                 "game.extract")
KERNEL_METRICS = ("bdd.apply", "bdd.and_exists", "bdd.rename", "bdd.enum")
KERNEL_COUNT_METRICS = ("bdd.negate", "bdd.quantify", "bdd.truthtable")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [id, parent id or -1, name, start, end]
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.live_nodes_peak = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installing and restoring --------------------------------------

    def _patch(self, owner, attr: str, wrapper):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def __enter__(self) -> "Tracer":
        for mod in (analyses_mod, traces_mod, report_mod):
            for attr, name in GAME.items():
                if attr in vars(mod):
                    self._patch(mod, attr, self._span(name, self._game_end))
        for attr, name in ANALYSES.items():
            self._patch(report_mod, attr, self._span(name))
        self._patch(report_mod, "parse_spec", self._span("syntax.parse"))
        for attr in ("validate_gr1_shape", "compile_to_boolean"):
            self._patch(report_mod, attr, self._span("compiler.compile"))
        self._patch(report_mod, "render_html", self._span("report.render"))
        self._patch(report_mod.Report, "to_json", self._span("report.json"))
        self._patch(SymbolicGame, "cpre", self._span("game.cpre"))
        for attr, key in KERNEL_TIMED.items():
            self._patch(BddManager, attr, self._timed(key))
        for attr, key in KERNEL_GENERATORS.items():
            self._patch(BddManager, attr, self._timed_generator(key))
        for attr, key in KERNEL_COUNTED.items():
            self._patch(BddManager, attr, self._counted(key))
        self._patch(BddManager, "__init__", self._counted("bdd.managers"))
        self._patch(BddRef, "__init__", self._counted("bdd.handles"))
        self._patch(BddManager, "collect", self._collect)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers --------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1,
               name, perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        self.calls[name] += 1
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = perf_counter()
        self._stack.pop()

    @contextmanager
    def region(self, name: str):
        """Record a span around benchmark-side code."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _span(self, name: str, on_end=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                rec = self._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._close(rec)
                if on_end is not None:
                    on_end(name, args, kwargs, out)
                return out
            return wrapper
        return make

    def _game_end(self, name, args, kwargs, out):
        game = out if name == "game.build" else args[0]
        self.live_nodes_peak = max(self.live_nodes_peak, len(game.mgr))
        if name == "game.solve":
            start = kwargs.get("start", args[2] if len(args) > 2 else None)
            if start is not None:
                self.calls["game.solve_warm"] += 1

    def _timed(self, key: str):
        calls, busy = self.calls, self.busy

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    busy[key] += perf_counter() - t0
                    calls[key] += 1
            return wrapper
        return make

    def _timed_generator(self, key: str):
        """Time a generator over its consumption: only the time spent
        inside each `next` counts, not the consumer's work between."""
        calls, busy = self.calls, self.busy

        def make(fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                t0 = perf_counter()
                it = fn(*args, **kwargs)
                busy[key] += perf_counter() - t0
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy[key] += perf_counter() - t0
                        return
                    busy[key] += perf_counter() - t0
                    yield item
            return wrapper
        return make

    def _counted(self, key: str):
        calls = self.calls

        def make(fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _collect(self, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            freed = fn(*args, **kwargs)
            calls["bdd.gc_runs"] += 1
            calls["bdd.gc_freed"] += freed
            return freed
        return wrapper

    # -- results ---------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[float, float]]:
        """name -> (summed duration, summed self time)."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, tuple[float, float]] = {}
        for sid, _, name, start, end in self.spans:
            wall, own = totals.get(name, (0.0, 0.0))
            totals[name] = (wall + end - start, own + end - start - child[sid])
        return totals

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit)."""
        totals = self.span_totals()
        out: dict[str, tuple[float, str]] = {}
        for span, with_self in SPAN_METRICS:
            wall, own = totals.get(span, (0.0, 0.0))
            out[span + "_s"] = (wall, "s")
            if with_self:
                out[span + "_self_s"] = (own, "s")
        out["report.self_s"] = (totals.get("report.run", (0.0, 0.0))[1], "s")
        for key in COUNT_METRICS:
            out[key + "_calls"] = (self.calls[key], "count")
        out["game.solve_warm_calls"] = (self.calls["game.solve_warm"], "count")
        for key in KERNEL_METRICS:
            out[key + "_calls"] = (self.calls[key], "count")
            out[key + "_s"] = (self.busy[key], "s")
        for key in KERNEL_COUNT_METRICS:
            out[key + "_calls"] = (self.calls[key], "count")
        for key in ("bdd.managers", "bdd.handles", "bdd.gc_runs",
                    "bdd.gc_freed"):
            out[key] = (self.calls[key], "count")
        out["bdd.live_nodes_peak"] = (self.live_nodes_peak, "count")
        return out

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines (times relative to the first)."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": round(start - t0, 7),
                                     "end": round(end - t0, 7)}) + "\n")

