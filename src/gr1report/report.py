"""One-step report generation.

run_report parses, validates, and compiles a specification file, runs
the requested analyses in a fixed canonical order, and writes a
machine-readable JSON report plus a self-contained static HTML page
generated purely from that JSON.

The canonical JSON is byte-identical across runs for the same
(specification, configuration, version); per-analysis wall-clock times
are therefore kept out of it and reported on the Report object and the
log stream instead.
"""

from __future__ import annotations

import gc
import hashlib
import html as _html
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .bdd import Cube, ResourceLimitError
from .compiler import (  # validate_gr1_shape: patched by bench/tracing.py
    CompileError, compile_to_boolean, validate_gr1_shape)
from .game import GameError
from .syntax import parse_spec
from .analyses import (
    AnalysisError, Session, semantics_comparison, position_statistics,
    assumption_falsification, classify_assumptions, error_resilience,
    precommit_analysis, stuck_at_analysis,
)
from .traces import nominal_trace, abstract_strategy, TraceError

ANALYSIS_ORDER = ("semantics", "positions", "falsify", "assumptions",
                  "resilience", "precommit", "stuckat", "trace", "abstract")


class ReportError(Exception):
    pass


class BaselineResourceError(ReportError):
    """The baseline realizability check ran out of resources."""


# the settings that bound a report's work but not its result, kept out of
# the canonical JSON: a budget or a deadline that is never reached must
# not change the report, and CI compares such reports byte for byte
# against the plain one
_LIMITS = ("node_budget", "timeout_seconds")
_COUNTS = ("max_k", "max_cubes", "max_trace_steps", "abstract_horizon")


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ReportConfig:
    """A report's settings, frozen so that they stay as checked.
    Construction checks them, raising ReportError, and puts `analyses` in
    ANALYSIS_ORDER, each name once."""
    analyses: tuple[str, ...] = ANALYSIS_ORDER
    semantics: str = "strict"          # strict | nonstrict
    robotics: bool = False
    max_k: int = 16
    max_cubes: int = 10
    max_trace_steps: int = 64
    abstract_horizon: int = 64
    node_budget: int | None = None
    timeout_seconds: float | None = None

    def __post_init__(self):
        if not (isinstance(self.analyses, (tuple, list))
                and all(isinstance(a, str) for a in self.analyses)):
            raise ReportError(f"analyses must be a sequence of names, not "
                              f"{self.analyses!r}")
        unknown = set(self.analyses) - set(ANALYSIS_ORDER)
        if unknown:
            raise ReportError(f"unknown analyses: {sorted(unknown)}")
        object.__setattr__(self, "analyses", tuple(
            a for a in ANALYSIS_ORDER if a in self.analyses))
        for name in _COUNTS + _LIMITS:
            value = getattr(self, name)
            if value is None and name in _LIMITS:
                continue
            if _number(value) and not value > 0:  # also NaN
                raise ReportError(f"{name} must be positive")
            if not _number(value) or name in _COUNTS and not isinstance(
                    value, int):
                kind = "a number" if name in _LIMITS else "an integer"
                raise ReportError(f"{name} must be {kind}, not {value!r}")
        if self.semantics not in ("strict", "nonstrict"):
            raise ReportError(f"bad semantics {self.semantics!r}")
        if not isinstance(self.robotics, bool):
            raise ReportError(f"robotics must be a bool, not "
                              f"{self.robotics!r}")

    def echo(self) -> dict:
        """The settings that the canonical JSON records: all but
        `_LIMITS`."""
        out = {k: v for k, v in asdict(self).items() if k not in _LIMITS}
        out["analyses"] = list(self.analyses)
        return out


def validate_report(data) -> list[str]:
    """The structural problems of a canonical report dict, as `$.path:
    problem` strings; empty when it is valid.  The config must hold the
    keys of `ReportConfig.echo` and rebuild a ReportConfig whose echo it
    is."""
    if not isinstance(data, dict):
        return ["$: expected object"]
    out = []

    def get(obj, path, key, want):
        """obj[key] if it is of type `want`, or one of the values
        `want`; else None, with its problem noted.  None when obj is."""
        if obj is None:
            return None
        if key not in obj:
            out.append(f"{path}.{key}: missing")
        elif isinstance(want, type):
            if isinstance(obj[key], want):
                return obj[key]
            out.append(f"{path}.{key}: expected "
                       + {str: "string", dict: "object"}[want])
        elif obj[key] in want:
            return obj[key]
        else:
            out.append(f"{path}.{key}: {obj[key]!r} not one of {list(want)}")
        return None

    get(data, "$", "version", str)
    spec = get(data, "$", "spec", dict)
    for key in ("name", "sha256"):
        get(spec, "$.spec", key, str)
    config = get(data, "$", "config", dict)
    if config is not None:
        keys = ReportConfig().echo()
        for key in sorted(set(keys) ^ set(config)):
            out.append(f"$.config.{key}: "
                       + ("missing" if key in keys else "unexpected"))
        if set(keys) == set(config):
            try:
                if ReportConfig(**config).echo() != config:
                    out.append("$.config.analyses: not in ANALYSIS_ORDER, "
                               "each name once")
            except ReportError as exc:
                out.append(f"$.config: {exc}")
    baseline = get(data, "$", "baseline", dict)
    get(baseline, "$.baseline", "semantics", ("strict", "nonstrict"))
    get(baseline, "$.baseline", "realizable", ("realizable", "unrealizable"))
    for name, entry in (get(data, "$", "analyses", dict) or {}).items():
        path = f"$.analyses.{name}"
        if not isinstance(entry, dict):
            out.append(f"{path}: expected object")
            continue
        status = get(entry, path, "status", ("ok", "skipped"))
        if status is not None:
            get(entry, path, "result" if status == "ok" else "reason",
                dict if status == "ok" else str)
    return out


@dataclass
class Report:
    version: str
    spec_name: str
    spec_digest: str
    config: dict
    baseline: dict
    analyses: dict[str, dict]
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "spec": {"name": self.spec_name, "sha256": self.spec_digest},
            "config": self.config,
            "baseline": self.baseline,
            "analyses": self.analyses,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"


def _cube_json(c: Cube) -> dict:
    return {name: val for name, val in c.literals}


def _run_analysis(name: str, config: ReportConfig, session: Session):
    if name == "semantics":
        r = semantics_comparison(session)
        return {"strict": r.strict, "nonstrict": r.nonstrict,
                "differs": r.differs}
    if name == "positions":
        r = position_statistics(session, max_cubes=config.max_cubes)
        return {
            "classes": {k: {"total": v.total, "winning": v.winning}
                        for k, v in r.classes.items()},
            "winning_cubes": [_cube_json(c) for c in r.winning_cubes],
            "losing_cubes": [_cube_json(c) for c in r.losing_cubes],
        }
    if name == "falsify":
        r = assumption_falsification(session, max_cubes=config.max_cubes)
        return {"count": r.count, "cubes": [_cube_json(c) for c in r.cubes]}
    if name == "assumptions":
        rs = classify_assumptions(session)
        return {"assumptions": [
            {"kind": v.kind, "index": v.index, "text": v.text,
             "changes_realizability": v.test_a,
             "grows_winning_set": v.test_b,
             "shrinks_distance": v.test_c,
             "shrinks_distance_on_strategy": v.test_d,
             "helped_goals": v.test_c_goals,
             "verdict": v.verdict}
            for v in rs]}
    if name == "resilience":
        r = error_resilience(session, max_k=config.max_k)
        level = ("infinite" if r.level == float("inf")
                 else int(r.level))
        return {"level": level, "exceeded_max_k": r.exceeded,
                "display": r.render(config.max_k)}
    if name == "precommit":
        r = precommit_analysis(session)
        return {"per_output": r.per_output, "maximal_set": r.maximal_set}
    if name == "stuckat":
        r = stuck_at_analysis(session)
        return {"direction": r.direction,
                "entries": [{"signal": s, "value": v, "verdict": verdict}
                            for (s, v), verdict in sorted(r.entries.items())]}
    if name == "trace":
        r = nominal_trace(session, max_steps=config.max_trace_steps)
        if isinstance(r, dict):
            return r
        return r.to_json()
    if name == "abstract":
        r = abstract_strategy(session, horizon=config.abstract_horizon)
        if r is None:
            return {"finding": "neither player wins with the safety parts alone"}
        return r.to_json()
    raise ReportError(f"unknown analysis {name!r}")


def _limit_reason(exc: Exception) -> str:
    """Which limit a ResourceLimitError or RecursionError hit."""
    if isinstance(exc, RecursionError):
        # the BDD kernel recurses about once per variable level, the
        # front end once per nesting level of an expression
        return (f"recursion depth exceeded (interpreter limit "
                f"{sys.getrecursionlimit()})")
    return str(exc)


# the analyses a forked worker runs beside the others: precommit reads
# only the strict baseline game and region, and makes about half the
# kernel calls of a corpus report
_WORKER_ANALYSES = ("precommit",)


def _worker_lane(config: ReportConfig) -> tuple[str, ...]:
    """The requested analyses that a forked worker runs while this
    process runs the others.  Empty, so that the report runs in one
    process, unless `os.fork` exists, the process may run on at least
    two CPUs, no node budget is set (it bounds one manager, and two
    processes would double it) and both lanes have work."""
    lane = tuple(n for n in _WORKER_ANALYSES if n in config.analyses)
    if (not lane or set(config.analyses) <= set(lane)
            or config.node_budget is not None or not hasattr(os, "fork")):
        return ()
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return lane if cpus >= 2 else ()


def _run_lane(names, config: ReportConfig, session: Session, log) -> dict:
    """Run the analyses `names` in order, each after a session restart,
    and log each as it ends; maps each name to (entry, seconds)."""
    done = {}
    for name in names:
        t0 = time.monotonic()
        session.restart()
        try:
            entry = {"status": "ok",
                     "result": _run_analysis(name, config, session)}
        except (AnalysisError, GameError, TraceError) as exc:
            entry = {"status": "skipped", "reason": str(exc)}
        except (ResourceLimitError, RecursionError) as exc:
            entry = {"status": "skipped",
                     "reason": f"resource limit: {_limit_reason(exc)}"}
        done[name] = (entry, time.monotonic() - t0)
        _log_entry(log, name, *done[name])
    return done


def _log_entry(log, name: str, entry: dict, seconds: float) -> None:
    if log is not None:
        print(f"gr1report: {name}: {entry['status']} ({seconds:.3f}s)",
              file=log)


def _fork_lane(lane, config: ReportConfig, session: Session):
    """Fork a worker that runs `lane` on its copy of `session` and writes
    {"lane": its `_run_lane` result} or {"error": traceback text} to a
    pipe as JSON.  Returns (pid, the pipe's read end), or None when the
    fork fails.  The worker ends in `os._exit`, so it flushes no stdio
    and runs no atexit handler of the parent's."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    code = 1
    try:
        os.close(r)
        try:
            reply = {"lane": _run_lane(lane, config, session, None)}
        except Exception:
            import traceback  # loaded only by a failing worker
            reply = {"error": traceback.format_exc()}
        with open(w, "wb") as pipe:
            pipe.write(json.dumps(reply).encode())
        code = 0
    finally:
        os._exit(code)


def _run_analyses(config: ReportConfig, session: Session, log) -> dict:
    """Run the requested analyses; maps each to (entry, seconds).  The
    `_worker_lane` ones run in a forked worker while this process runs
    the others in ANALYSIS_ORDER, or, without a worker, all run here."""
    lane = _worker_lane(config)
    if (lane and config.semantics == "strict"
            and session.verdict() != "realizable"):
        # precommit would only report that it needs a realizable
        # specification, which takes less time here than a fork
        lane = ()
    worker = _fork_lane(lane, config, session) if lane else None
    if worker is None:
        return _run_lane(config.analyses, config, session, log)
    pid, pipe = worker
    data = None
    try:
        with pipe:
            done = _run_lane([n for n in config.analyses if n not in lane],
                             config, session, log)
            data = pipe.read()
    finally:
        if data is None:  # this lane raised: stop the worker
            from signal import SIGKILL
            os.kill(pid, SIGKILL)
        status = os.waitpid(pid, 0)[1]
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise RuntimeError(f"the {', '.join(lane)} worker ended with exit "
                           f"code {code} and no result")
    reply = json.loads(data)
    if "error" in reply:
        raise RuntimeError(f"the {', '.join(lane)} worker raised:\n"
                           + reply["error"])
    for name, (entry, seconds) in reply["lane"].items():
        _log_entry(log, name, entry, seconds)
        done[name] = (entry, seconds)
    return done


# `run_report`'s default log: `sys.stderr` as it is at call time, so a
# caller that redirects it later still captures the per-analysis lines
_STDERR = object()


def run_report(spec_path, config: ReportConfig | None = None,
               json_path=None, html_path=None, log=_STDERR,
               dot_path=None) -> Report:
    """Run all requested analyses on a specification file in one solving
    session and write the JSON and HTML reports next to it (or to the
    given paths), plus the baseline winning-set BDD as DOT text when
    `dot_path` is given.  Progress lines go to `log`, by default the
    current `sys.stderr`; `log=None` is silent.

    Python's cyclic garbage collector is paused for the whole call,
    from parsing to the written files: BDD nodes are freed by the
    manager's own `collect` and handles by reference counting, and a
    report makes no reference cycles (the kernel and the compiler
    recurse without self-referencing closures), so the collector's
    passes over the manager's tables find nothing to free.  The pause
    is process-wide while the call runs, other threads included; on
    return or raise the collector is enabled again if it was enabled
    on entry, and left off if it was off.

    The precommit analysis reads only the strict baseline game and
    region.  When it and at least one other analysis are requested, no
    node budget is set (the budget bounds one manager, and two processes
    would double it), `os.fork` exists, the process may run on at
    least two CPUs and the strict baseline is not known to be
    unrealizable (precommit then only says that it needs a realizable
    specification), it runs in a worker forked after the baseline
    verdict, on the worker's copy of the session, while this process
    runs the others.  The report, `Report.timings` and the log lines are
    those of a one-process run; the worker's line is logged when its
    result is merged.  The worker's memory is its own: on the corpus it
    peaked near 62 MB beside the parent's 45 MB.  A node budget, or a
    one-CPU affinity such as `taskset -c 0`, keeps the report in one
    process, as does a failed fork; a caller with threads should use
    one of those, because `fork` copies only the calling thread.  No
    worker outlives the call: when an analysis here raises, the worker
    is killed and reaped, and an exception that escapes the worker is
    raised here as a RuntimeError carrying the worker's traceback."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_report(spec_path, config, json_path, html_path, log,
                           dot_path)
    finally:
        if enabled:
            gc.enable()


def _run_report(spec_path, config, json_path, html_path, log,
                dot_path) -> Report:
    if log is _STDERR:
        log = sys.stderr
    config = config or ReportConfig()
    spec_path = Path(spec_path)
    try:
        text = spec_path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ReportError(f"{spec_path}: not UTF-8 text (byte {exc.start}: "
                          f"{exc.reason})") from None
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    doc = parse_spec(text)
    try:
        spec = compile_to_boolean(doc)
    except CompileError as exc:
        raise ReportError(str(exc)) from None
    except RecursionError as exc:
        raise ReportError("specification nested too deeply: "
                          + _limit_reason(exc)) from None

    session = Session(spec, config.robotics, config.node_budget,
                      config.timeout_seconds)
    try:
        verdict = session.verdict(config.semantics)
    except (ResourceLimitError, RecursionError) as exc:
        raise BaselineResourceError(_limit_reason(exc)) from exc
    baseline = {"semantics": config.semantics, "realizable": verdict}

    done = _run_analyses(config, session, log)
    results = {name: done[name][0] for name in config.analyses}
    timings = {name: done[name][1] for name in results}

    report = Report(
        version=__version__, spec_name=spec_path.name, spec_digest=digest,
        config=config.echo(), baseline=baseline, analyses=results,
        timings=timings)

    json_path = Path(json_path) if json_path else spec_path.with_name(
        spec_path.name + ".report.json")
    html_path = Path(html_path) if html_path else spec_path.with_name(
        spec_path.name + ".report.html")
    json_text = report.to_json()
    json_path.write_text(json_text, encoding="utf-8")
    html_path.write_text(render_html(json.loads(json_text)),
                         encoding="utf-8")
    if dot_path:
        Path(dot_path).write_text(session.mgr.to_dot(
            session.region(config.semantics).win, "winning_set"),
            encoding="utf-8")
    return report


# ----------------------------------------------------------------------
# HTML rendering (a pure function of the JSON content)

_CSS = """
body { font-family: sans-serif; margin: 2em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.5em; }
table { border-collapse: collapse; margin: 0.5em 0; }
td, th { border: 1px solid #999; padding: 0.25em 0.6em; text-align: center; }
th { background: #eee; }
.skip { color: #888; font-style: italic; }
.bad { color: #a00; font-weight: bold; }
.good { color: #070; }
code { background: #f4f4f4; padding: 0 0.2em; }
"""


def _esc(x) -> str:
    return _html.escape(str(x))


def _table(head, rows) -> str:
    """A table of header cells `head` and body rows `rows`, whose cells
    are already escaped or marked up."""
    def row(tag, cells):
        return "<tr>" + "".join(f"<{tag}>{c}</{tag}>" for c in cells) + "</tr>"
    return ("<table>" + row("th", head)
            + "".join(row("td", cells) for cells in rows) + "</table>")


def _cubes(cubes) -> str:
    items = "".join(f"<li><code>{_esc(Cube(tuple(c.items())))}</code></li>"
                    for c in cubes)
    return f"<ul>{items or '<li>none</li>'}</ul>"


def render_html(data: dict) -> str:
    out = ["<!DOCTYPE html>", "<html><head><meta charset='utf-8'>",
           f"<title>Report: {_esc(data['spec']['name'])}</title>",
           f"<style>{_CSS}</style></head><body>"]
    out.append(f"<h1>Specification report: {_esc(data['spec']['name'])}</h1>")
    out.append(f"<p>Generator version {_esc(data['version'])}; "
               f"spec sha256 <code>{_esc(data['spec']['sha256'])}</code></p>")
    b = data["baseline"]
    cls = "good" if b["realizable"] == "realizable" else "bad"
    out.append(f"<p>Baseline ({_esc(b['semantics'])} semantics): "
               f"<span class='{cls}'>{_esc(b['realizable'])}</span></p>")
    for name in ANALYSIS_ORDER:
        if name not in data["analyses"]:
            continue
        entry = data["analyses"][name]
        out.append(f"<h2>{_esc(name)}</h2>")
        if entry["status"] != "ok":
            out.append(f"<p class='skip'>skipped: {_esc(entry['reason'])}</p>")
            continue
        out.append(_render_result(name, entry["result"]))
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def _render_result(name: str, r: dict) -> str:
    if "finding" in r:  # trace or abstract: why there is none
        return f"<p class='skip'>{_esc(r['finding'])}</p>"
    if name == "semantics":
        return (f"<p>strict: <b>{_esc(r['strict'])}</b>; nonstrict: "
                f"<b>{_esc(r['nonstrict'])}</b>; differs: "
                f"<b>{_esc(r['differs'])}</b></p>")
    if name == "positions":
        return (_table(["class", "total", "winning"],
                       [[_esc(k), _esc(v["total"]), _esc(v["winning"])]
                        for k, v in r["classes"].items()])
                + "<p>largest winning cubes:</p>" + _cubes(r["winning_cubes"])
                + "<p>largest losing cubes:</p>" + _cubes(r["losing_cubes"]))
    if name == "falsify":
        return (f"<p>positions from which the system can force an "
                f"assumption violation: <b>{_esc(r['count'])}</b></p>"
                + _cubes(r["cubes"]))
    if name == "assumptions":
        tests = ("changes_realizability", "grows_winning_set",
                 "shrinks_distance", "shrinks_distance_on_strategy")
        return _table(["assumption", "kind", "a", "b", "c", "d", "verdict"],
                      [[f"<code>{_esc(a['text'])}</code>", _esc(a["kind"]),
                        *(_esc(a[t]) for t in tests),
                        f"<b>{_esc(a['verdict'])}</b>"]
                       for a in r["assumptions"]])
    if name == "resilience":
        return f"<p>tolerated glitches: <b>{_esc(r['display'])}</b></p>"
    if name == "precommit":
        joint = ", ".join(r["maximal_set"]) or "none"
        return (_table(["output", "precommittable"],
                       [[_esc(o), _esc(v)]
                        for o, v in r["per_output"].items()])
                + f"<p>jointly precommittable (greedy): "
                f"<code>{_esc(joint)}</code></p>")
    if name == "stuckat":
        return (f"<p>direction: {_esc(r['direction'])}</p>"
                + _table(["signal", "stuck at", "verdict"],
                         [[_esc(e["signal"]), "1" if e["value"] else "0",
                           _esc(e["verdict"])] for e in r["entries"]]))
    if name == "trace":
        steps = r["steps"]
        names = dict.fromkeys(n for s in steps for n in [*s["in"], *s["out"]])
        rows = [[_esc(n), *(_esc(s["in"].get(n, s["out"].get(n, "")))
                            for s in steps)] for n in names]
        rows.append(["env/sys goal",
                     *(f"{s['envGoal']}/{s['sysGoal']}" for s in steps)])
        return (f"<p>lasso starts at step {_esc(r['lassoStart'])}</p>"
                + _table(["step", *range(len(steps))], rows))
    # abstract
    rounds = r["rounds"]
    names = list(rounds[0]) if rounds else []
    rows = [[_esc(n), *("&#9733;" if rd[n] == "star" else _esc(rd[n])
                        for rd in rounds)] for n in names]
    return (f"<p>winner: <b>{_esc(r['winner'])}</b></p>"
            + _table(["proposition / round", *range(len(rounds))], rows))
