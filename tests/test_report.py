"""Report orchestration, canonical JSON, HTML rendering, CLI."""

import dataclasses
import json
import subprocess
import sys

import pytest

from conftest import chain_text, random_spec_text, spec_path
from gr1report.report import (
    ANALYSIS_ORDER, BaselineResourceError, ReportConfig, ReportError,
    render_html, run_report,
)
from gr1report.syntax import SpecError
from gr1report.cli import main as cli_main


def test_config_validates_names_and_bounds():
    with pytest.raises(ReportError, match="unknown analyses"):
        ReportConfig(analyses=("positions", "wat"))
    with pytest.raises(ReportError, match="positive"):
        ReportConfig(max_k=0)
    for semantics in ("fuzzy", "both"):
        with pytest.raises(ReportError, match="semantics"):
            ReportConfig(semantics=semantics)
    # ill-typed values: each once ran into a TypeError or ValueError
    # inside an analysis, or wrote a report that does not validate
    for field, value, want in (("max_k", 2.5, "an integer"),
                               ("max_cubes", 2.5, "an integer"),
                               ("robotics", "yes", "a bool"),
                               ("max_trace_steps", True, "an integer")):
        with pytest.raises(ReportError, match=f"^{field} must be {want}, "
                           f"not {value!r}$"):
            ReportConfig(**{field: value})
    # a checked config stays as checked: a field assigned afterwards
    # once ran into a TypeError inside `error_resilience`
    config = ReportConfig(analyses=("resilience",))
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.max_k = 2.5
    assert config.max_k == 16


@pytest.mark.parametrize("option, value", [
    ("timeout", "0"), ("timeout", "-1"), ("timeout", "nan"),
    ("node-budget", "0"), ("node-budget", "-5"),
])
def test_non_positive_budget_or_timeout_is_rejected(tmp_path, capsys,
                                                    option, value):
    field = {"timeout": "timeout_seconds", "node-budget": "node_budget"}
    with pytest.raises(ReportError, match=f"{field[option]} must be positive"):
        ReportConfig(**{field[option]: float(value)})
    target = tmp_path / "m.spec"
    target.write_text(spec_path("mutex").read_text())
    assert cli_main([str(target), f"--{option}", value]) == 1
    err = capsys.readouterr().err
    assert err == f"gr1report: {field[option]} must be positive\n"
    assert not (tmp_path / "m.spec.report.json").exists()


def test_report_runs_everything(tmp_path):
    rep = run_report(spec_path("mutex"),
                     json_path=tmp_path / "r.json",
                     html_path=tmp_path / "r.html", log=None)
    assert rep.baseline == {"semantics": "strict", "realizable": "realizable"}
    assert set(rep.analyses) == set(ANALYSIS_ORDER)
    assert all(e["status"] == "ok" for e in rep.analyses.values())
    assert set(rep.timings) == set(ANALYSIS_ORDER)
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["spec"]["name"] == "mutex.spec"
    assert len(data["spec"]["sha256"]) == 64
    # timings never enter the canonical artifact
    assert "timings" not in json.dumps(data)


def test_report_json_deterministic(tmp_path):
    outs = []
    for k in range(2):
        run_report(spec_path("request_grant"),
                   json_path=tmp_path / f"{k}.json",
                   html_path=tmp_path / f"{k}.html", log=None)
        outs.append((tmp_path / f"{k}.json").read_bytes())
    assert outs[0] == outs[1]


def test_analysis_subset_isolated(tmp_path):
    full = run_report(spec_path("mutex"), json_path=tmp_path / "a.json",
                      html_path=tmp_path / "a.html", log=None)
    sub = run_report(spec_path("mutex"),
                     ReportConfig(analyses=("positions", "stuckat")),
                     json_path=tmp_path / "b.json",
                     html_path=tmp_path / "b.html", log=None)
    assert set(sub.analyses) == {"positions", "stuckat"}
    for name in ("positions", "stuckat"):
        assert sub.analyses[name] == full.analyses[name]


def test_unrealizable_rerouting(tmp_path):
    rep = run_report(spec_path("counter"), json_path=tmp_path / "c.json",
                     html_path=tmp_path / "c.html", log=None)
    assert rep.baseline["realizable"] == "unrealizable"
    assert rep.analyses["stuckat"]["result"]["direction"] == "inputs"
    assert rep.analyses["abstract"]["result"]["winner"] == "environment"
    for skipped in ("assumptions", "resilience", "precommit", "trace"):
        assert rep.analyses[skipped]["status"] == "skipped"


def test_html_generated_purely_from_json(tmp_path):
    rep = run_report(spec_path("doors"), json_path=tmp_path / "d.json",
                     html_path=tmp_path / "d.html", log=None)
    written = (tmp_path / "d.html").read_text()
    reloaded = json.loads((tmp_path / "d.json").read_text())
    assert render_html(reloaded) == written
    assert "<table>" in written and written.startswith("<!DOCTYPE html>")


_STEPS = [{"in": {"r": True}, "out": {"g": False, "n": 3},
           "envGoal": 0, "sysGoal": 1},
          {"in": {"r": False}, "out": {"g": True, "n": 0},
           "envGoal": 1, "sysGoal": 0}]


@pytest.mark.parametrize("name, result, html", [
    ("semantics",
     {"strict": "realizable", "nonstrict": "unrealizable", "differs": True},
     "<p>strict: <b>realizable</b>; nonstrict: <b>unrealizable</b>; "
     "differs: <b>True</b></p>"),
    ("positions",
     {"classes": {"all": {"total": 8, "winning": 5},
                  "init_both": {"total": 2, "winning": 0}},
      "winning_cubes": [{"a": True, "b": False}, {}], "losing_cubes": []},
     "<table><tr><th>class</th><th>total</th><th>winning</th></tr>"
     "<tr><td>all</td><td>8</td><td>5</td></tr>"
     "<tr><td>init_both</td><td>2</td><td>0</td></tr></table>"
     "<p>largest winning cubes:</p><ul><li><code>a &amp; !b</code></li>"
     "<li><code>TRUE</code></li></ul>"
     "<p>largest losing cubes:</p><ul><li>none</li></ul>"),
    ("falsify", {"count": 0, "cubes": []},
     "<p>positions from which the system can force an assumption "
     "violation: <b>0</b></p><ul><li>none</li></ul>"),
    ("falsify", {"count": 2, "cubes": [{"x<y": False}]},
     "<p>positions from which the system can force an assumption "
     "violation: <b>2</b></p><ul><li><code>!x&lt;y</code></li></ul>"),
    ("assumptions",
     {"assumptions": [
         {"kind": "safety", "index": 0, "text": "a < 2 & b",
          "changes_realizability": False, "grows_winning_set": True,
          "shrinks_distance": False, "shrinks_distance_on_strategy": False,
          "helped_goals": [], "verdict": "useful"}]},
     "<table><tr><th>assumption</th><th>kind</th><th>a</th><th>b</th>"
     "<th>c</th><th>d</th><th>verdict</th></tr>"
     "<tr><td><code>a &lt; 2 &amp; b</code></td><td>safety</td>"
     "<td>False</td><td>True</td><td>False</td><td>False</td>"
     "<td><b>useful</b></td></tr></table>"),
    ("resilience",
     {"level": "infinite", "exceeded_max_k": False, "display": "> 16"},
     "<p>tolerated glitches: <b>&gt; 16</b></p>"),
    ("precommit", {"per_output": {"g": True, "h": False}, "maximal_set": []},
     "<table><tr><th>output</th><th>precommittable</th></tr>"
     "<tr><td>g</td><td>True</td></tr><tr><td>h</td><td>False</td></tr>"
     "</table><p>jointly precommittable (greedy): <code>none</code></p>"),
    ("precommit", {"per_output": {"g": True}, "maximal_set": ["g", "h"]},
     "<table><tr><th>output</th><th>precommittable</th></tr>"
     "<tr><td>g</td><td>True</td></tr>"
     "</table><p>jointly precommittable (greedy): <code>g, h</code></p>"),
    ("stuckat",
     {"direction": "output",
      "entries": [{"signal": "g", "value": True, "verdict": "unrealizable"},
                  {"signal": "h", "value": False, "verdict": "realizable"}]},
     "<p>direction: output</p><table><tr><th>signal</th><th>stuck at</th>"
     "<th>verdict</th></tr><tr><td>g</td><td>1</td><td>unrealizable</td>"
     "</tr><tr><td>h</td><td>0</td><td>realizable</td></tr></table>"),
    ("trace", {"steps": _STEPS, "lassoStart": 1},
     "<p>lasso starts at step 1</p><table><tr><th>step</th><th>0</th>"
     "<th>1</th></tr><tr><td>r</td><td>True</td><td>False</td></tr>"
     "<tr><td>g</td><td>False</td><td>True</td></tr>"
     "<tr><td>n</td><td>3</td><td>0</td></tr>"
     "<tr><td>env/sys goal</td><td>0/1</td><td>1/0</td></tr></table>"),
    ("trace", {"finding": "no initial position satisfies the initial parts"},
     "<p class='skip'>no initial position satisfies the initial parts</p>"),
    ("abstract",
     {"winner": "system", "horizon": 4, "note": "n",
      "rounds": [{"r": "1", "g": "star"}, {"r": "0", "g": "<&>"}]},
     "<p>winner: <b>system</b></p><table><tr><th>proposition / round</th>"
     "<th>0</th><th>1</th></tr><tr><td>r</td><td>1</td><td>0</td></tr>"
     "<tr><td>g</td><td>&#9733;</td><td>&lt;&amp;&gt;</td></tr></table>"),
    ("abstract",
     {"winner": "environment", "horizon": 0, "note": "n", "rounds": []},
     "<p>winner: <b>environment</b></p><table><tr>"
     "<th>proposition / round</th></tr></table>"),
    ("abstract",
     {"finding": "neither player wins with the safety parts alone"},
     "<p class='skip'>neither player wins with the safety parts alone</p>"),
])
def test_html_fragment_of_each_analysis(name, result, html):
    from gr1report.report import _render_result
    assert _render_result(name, result) == html


def test_cooperative_timeout_fires_inside_analyses():
    from gr1report.bdd import ResourceLimitError
    from gr1report.analyses import Session, assumption_falsification
    from conftest import load_spec
    with pytest.raises(ResourceLimitError, match="deadline"):
        assumption_falsification(Session(load_spec("tworobot"),
                                         timeout=1e-9))


def test_analysis_resource_limit_reported_as_skip(tmp_path, monkeypatch):
    import gr1report.report as report_mod
    from gr1report.bdd import ResourceLimitError

    def explode(*a, **k):
        raise ResourceLimitError("node budget of 7 exceeded")

    monkeypatch.setattr(report_mod, "assumption_falsification", explode)
    rep = run_report(spec_path("mutex"),
                     ReportConfig(analyses=("falsify", "positions")),
                     json_path=tmp_path / "t.json",
                     html_path=tmp_path / "t.html", log=None)
    entry = rep.analyses["falsify"]
    assert entry["status"] == "skipped"
    assert "resource limit" in entry["reason"]
    assert rep.analyses["positions"]["status"] == "ok"


def test_analysis_recursion_error_reported_as_skip(tmp_path, monkeypatch):
    import gr1report.report as report_mod

    def explode(*a, **k):
        raise RecursionError("maximum recursion depth exceeded")

    others = tuple(a for a in ANALYSIS_ORDER if a != "resilience")
    clean = run_report(spec_path("delivery"), ReportConfig(analyses=others),
                       json_path=tmp_path / "a.json",
                       html_path=tmp_path / "a.html", log=None)
    monkeypatch.setattr(report_mod, "error_resilience", explode)
    rep = run_report(spec_path("delivery"), json_path=tmp_path / "b.json",
                     html_path=tmp_path / "b.html", log=None)
    entry = rep.analyses["resilience"]
    assert entry["status"] == "skipped"
    assert entry["reason"].startswith("resource limit: recursion depth")
    assert {a: rep.analyses[a] for a in others} == clean.analyses


def test_cli_recursion_limit_exits_2_without_traceback(tmp_path):
    # the BDD kernel recurses about once per variable level, so building
    # a 600-stage chain exceeds the interpreter's default limit of 1000
    target = tmp_path / "chain.spec"
    target.write_text(chain_text(600))
    proc = subprocess.run(
        [sys.executable, "-m", "gr1report.cli", str(target)],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert "recursion depth exceeded" in proc.stderr


def test_cli_defaults_are_the_report_config_defaults():
    from gr1report.cli import build_parser
    args = build_parser().parse_args(["x.spec"])
    config = ReportConfig()
    for name in ("semantics", "robotics", "max_k", "max_cubes",
                 "max_trace_steps", "abstract_horizon", "node_budget"):
        assert getattr(args, name) == getattr(config, name), name
    assert args.timeout == config.timeout_seconds


def test_report_rejects_invalid_shape(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("[OUTPUT]\na\n[SYS_TRANS]\nX(X(a))\n")
    with pytest.raises(ReportError, match="grammar"):
        run_report(bad, log=None)


def test_robotics_flag_changes_baseline(tmp_path):
    target = tmp_path / "r.spec"
    target.write_text("[INPUT]\nr\n[OUTPUT]\ng\n[SYS_TRANS]\ng -> X(g)\n"
                      "[SYS_LIVENESS]\n!g\n")
    rep = run_report(target, ReportConfig(analyses=("positions",)), log=None)
    assert rep.baseline["realizable"] == "realizable"
    rep2 = run_report(target, ReportConfig(analyses=("positions",),
                                           robotics=True), log=None)
    assert rep2.baseline["realizable"] == "unrealizable"


def test_cli_default_paths(tmp_path):
    target = tmp_path / "m.spec"
    target.write_text(spec_path("mutex").read_text())
    code = cli_main([str(target), "--analyses", "positions"])
    assert code == 0
    assert (tmp_path / "m.spec.report.json").exists()
    assert (tmp_path / "m.spec.report.html").exists()


def test_cli_exit_codes(tmp_path):
    assert cli_main([str(tmp_path / "missing.spec")]) == 1
    bad = tmp_path / "bad.spec"
    bad.write_text("[BOGUS]\nr\n")
    assert cli_main([str(bad)]) == 1
    # resource exhaustion of the baseline check is a distinct failure
    target = tmp_path / "m.spec"
    target.write_text(spec_path("tworobot").read_text())
    assert cli_main([str(target), "--node-budget", "64"]) == 2
    dot = tmp_path / "w.dot"
    assert cli_main([str(target), "--node-budget", "64",
                     "--dump-bdd", str(dot)]) == 2
    assert not dot.exists()


def test_cli_spec_not_utf8_exits_1_without_traceback(tmp_path):
    target = tmp_path / "latin.spec"
    target.write_bytes(b"[OUTPUT]\ng\xff\n")
    proc = subprocess.run(
        [sys.executable, "-m", "gr1report.cli", str(target)],
        capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert f"{target}: not UTF-8 text" in proc.stderr


def test_cli_spec_with_byte_order_mark_reads_as_without(tmp_path):
    # some editors start UTF-8 files with a byte-order mark; the digest
    # is of the decoded text, so the reports are byte-identical
    reports = []
    for sub, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / sub).mkdir()
        target = tmp_path / sub / "mutex.spec"
        target.write_bytes(prefix + spec_path("mutex").read_bytes())
        assert cli_main([str(target)]) == 0
        reports.append((tmp_path / sub / "mutex.spec.report.json")
                       .read_text())
    assert reports[0] == reports[1]
    assert all(e["status"] == "ok"
               for e in json.loads(reports[1])["analyses"].values())


def test_cli_empty_analyses_list_gives_verdict_only_report(tmp_path):
    target = tmp_path / "m.spec"
    target.write_text(spec_path("mutex").read_text())
    assert cli_main([str(target), "--analyses", ""]) == 0
    written = (tmp_path / "m.spec.report.json").read_bytes()
    run_report(target, ReportConfig(analyses=()),
               json_path=tmp_path / "v.json", html_path=tmp_path / "v.html",
               log=None)
    assert written == (tmp_path / "v.json").read_bytes()
    assert json.loads(written)["analyses"] == {}


@pytest.mark.parametrize("args", [["--semantics", "both"],
                                  ["--max-k", "abc"]])
def test_cli_usage_errors_exit_1(tmp_path, args):
    # argparse would exit 2, the code of a baseline out of resources
    target = tmp_path / "m.spec"
    target.write_text(spec_path("mutex").read_text())
    proc = subprocess.run(
        [sys.executable, "-m", "gr1report.cli", str(target), *args],
        capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("usage: gr1report")
    assert args[0] in proc.stderr
    assert not (tmp_path / "m.spec.report.json").exists()


def test_reports_validate_against_shipped_schema(tmp_path, specs_dir):
    from gr1report.report import validate_report
    for name in ("mutex", "counter", "tworobot", "delivery", "patrol"):
        rep = run_report(spec_path(name), json_path=tmp_path / "r.json",
                         html_path=tmp_path / "r.html", log=None)
        data = json.loads((tmp_path / "r.json").read_text())
        assert validate_report(data) == [], name


def test_schema_validator_reports_violations():
    from gr1report.report import validate_report
    bad = {"version": 1, "spec": {"name": "x"}, "config": {},
           "baseline": {"semantics": "fuzzy", "realizable": "maybe"},
           "analyses": {"positions": {"status": "wat"}}}
    problems = validate_report(bad)
    assert any("version" in p for p in problems)
    assert any("sha256" in p for p in problems)
    assert any("'fuzzy'" in p for p in problems)
    assert any("status" in p for p in problems)


def test_report_nonstrict_baseline(tmp_path):
    rep = run_report(spec_path("parity_tracker"),
                     ReportConfig(analyses=("semantics",),
                                  semantics="nonstrict"),
                     json_path=tmp_path / "n.json",
                     html_path=tmp_path / "n.html", log=None)
    assert rep.baseline == {"semantics": "nonstrict",
                            "realizable": "realizable"}
    assert rep.analyses["semantics"]["result"]["differs"] is True


def test_full_report_builds_one_game_from_the_spec(tmp_path, monkeypatch):
    # the classical-implication game is an edit of the strict baseline
    import gr1report.analyses as analyses_mod
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    build = analyses_mod.build_game
    monkeypatch.setattr(analyses_mod, "build_game", counted)
    rep = run_report(spec_path("delivery"), json_path=tmp_path / "d.json",
                     html_path=tmp_path / "d.html", log=None)
    assert all(r["status"] == "ok" for r in rep.analyses.values())
    assert len(calls) == 1


# the classical game once declared tracker outputs under these names and
# reserved them; it declares no signal now, so they are ordinary outputs
RESERVED_SPEC = ("[INPUT]\nr\n[OUTPUT]\n__env_viol\n"
                 "[SYS_LIVENESS]\n__env_viol\n")


def test_reserved_tracker_name_skips_the_semantics_analysis(tmp_path):
    target = tmp_path / "reserved.spec"
    target.write_text(RESERVED_SPEC)
    rep = run_report(target, log=None)
    assert rep.analyses["semantics"] == {
        "status": "ok", "result": {"strict": "realizable",
                                   "nonstrict": "realizable",
                                   "differs": False}}
    assert all(rep.analyses[a]["status"] == "ok" for a in ANALYSIS_ORDER)


def test_reserved_tracker_name_at_the_baseline_exits_1(tmp_path, capsys):
    target = tmp_path / "reserved.spec"
    target.write_text(RESERVED_SPEC)
    rep = run_report(target, ReportConfig(semantics="nonstrict"), log=None)
    assert rep.baseline == {"semantics": "nonstrict",
                            "realizable": "realizable"}
    assert all(e["status"] == "ok" for e in rep.analyses.values())
    assert cli_main([str(target), "--semantics", "nonstrict"]) == 0
    err = capsys.readouterr().err
    assert "reserved" not in err and "Traceback" not in err


@pytest.mark.parametrize("expr", [
    "(" * 500 + "o" + ")" * 500,
], ids=["500-parentheses"])
def test_cli_deeply_nested_expression_exits_1_without_traceback(
        tmp_path, capsys, expr):
    target = tmp_path / "deep.spec"
    target.write_text(f"[INPUT]\nr\n[OUTPUT]\no\n[SYS_TRANS]\n{expr}\n")
    assert cli_main([str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gr1report: ") and err.count("\n") == 1
    assert "nested too deeply" in err


@pytest.mark.parametrize("text", [
    "[INPUT]\nr\n[OUTPUT]\nx: 0...3\n[SYS_TRANS]\nx = ²\n",
    "[INPUT]\nr\n[OUTPUT]\no\n[INPUT]\nx: 0...③\n",
], ids=["superscript-two", "circled-three"])
def test_cli_non_decimal_digit_exits_1_without_traceback(tmp_path, capsys,
                                                         text):
    # `²` and `③` are digits to str.isdigit, but int() takes neither
    target = tmp_path / "digit.spec"
    target.write_text(text)
    assert cli_main([str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gr1report: ") and err.count("\n") == 1
    assert "line 6" in err and "Traceback" not in err


@pytest.mark.parametrize("section, expr", [
    ("SYS_TRANS", " & ".join(["X(o)"] * 1000)),
    ("SYS_TRANS", " & ".join(["o"] * 400)),
    ("ENV_TRANS", " | ".join(["X(r)", "!r"] * 500)),
], ids=["1000-conjuncts", "400-conjuncts", "1000-disjuncts"])
def test_cli_long_chain_is_one_node_and_runs(tmp_path, capsys, section,
                                             expr):
    # a chain of `&` or `|` is one node of any width: only nesting
    # counts against the recursion limit
    target = tmp_path / "chain.spec"
    target.write_text(f"[INPUT]\nr\n[OUTPUT]\no\n[{section}]\n{expr}\n")
    assert cli_main([str(target)]) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert out == "gr1report: chain.spec: realizable; 9 analyses written\n"
    data = json.loads((tmp_path / "chain.spec.report.json").read_text())
    assert data["baseline"]["realizable"] == "realizable"


def test_cli_dump_bdd(tmp_path):
    target = tmp_path / "m.spec"
    target.write_text(spec_path("mutex").read_text())
    dot = tmp_path / "win.dot"
    code = cli_main([str(target), "--analyses", "positions",
                     "--dump-bdd", str(dot)])
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_cli_dump_bdd_follows_semantics(tmp_path):
    from conftest import load_spec
    from gr1report.game import build_game, classical, solve_game
    target = tmp_path / "p.spec"
    target.write_text(spec_path("parity_tracker").read_text())
    dot = tmp_path / "w.dot"
    code = cli_main([str(target), "--semantics", "nonstrict",
                     "--analyses", "positions", "--dump-bdd", str(dot)])
    assert code == 0
    dots = {}
    spec = load_spec("parity_tracker")
    for semantics, game in (("strict", build_game(spec)),
                            ("nonstrict", classical(build_game(spec)))):
        win = solve_game(game).win
        dots[semantics] = game.mgr.to_dot(win, "winning_set")
    assert dots["strict"] != dots["nonstrict"]
    assert dot.read_text() == dots["nonstrict"]


def test_failed_resilience_leaves_shared_game_clean(tmp_path, monkeypatch):
    import gr1report.analyses as analyses_mod
    from gr1report.bdd import ResourceLimitError
    solve = analyses_mod.solve_game

    def flaky(game, start=None, holds=None):
        # only the glitch loop of the resilience analysis filters
        if game.position_filter is not None:
            raise ResourceLimitError("deadline exceeded")
        return solve(game, start=start, holds=holds)

    others = tuple(a for a in ANALYSIS_ORDER if a != "resilience")
    clean = run_report(spec_path("delivery"), ReportConfig(analyses=others),
                       json_path=tmp_path / "a.json",
                       html_path=tmp_path / "a.html", log=None)
    monkeypatch.setattr(analyses_mod, "solve_game", flaky)
    rep = run_report(spec_path("delivery"), json_path=tmp_path / "b.json",
                     html_path=tmp_path / "b.html", log=None)
    assert rep.analyses["resilience"]["status"] == "skipped"
    assert {a: rep.analyses[a] for a in others} == clean.analyses


def test_cli_entrypoint_subprocess(tmp_path):
    target = tmp_path / "m.spec"
    target.write_text(spec_path("request_grant").read_text())
    proc = subprocess.run(
        [sys.executable, "-m", "gr1report.cli", str(target),
         "--analyses", "semantics"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "realizable" in proc.stdout


def _random_reports(tmp_path, seeds, config):
    from gr1report.report import validate_report
    for seed in seeds:
        path = tmp_path / f"s{seed}.spec"
        path.write_text(random_spec_text(seed))
        rep = run_report(path, config, json_path=tmp_path / "r.json",
                         html_path=tmp_path / "r.html", log=None)
        data = json.loads((tmp_path / "r.json").read_text())
        assert validate_report(data) == [], seed
        yield seed, rep


def test_tight_node_budget_keeps_each_entry_or_skips_it(tmp_path,
                                                       specs_dir):
    # a budget only adds collections, which change no result, so under
    # a tight one each analysis gives the unbudgeted entry or reports
    # that it ran out of nodes
    paths = sorted(specs_dir.glob("*.spec"))
    for seed in range(30):
        paths.append(tmp_path / f"s{seed}.spec")
        paths[-1].write_text(random_spec_text(seed))
    for path in paths:
        plain, tight = (json.loads(_report_bytes(tmp_path, path, config))
                        for config in (None, ReportConfig(node_budget=8000)))
        assert tight["baseline"] == plain["baseline"], path.name
        for name, entry in tight["analyses"].items():
            assert (json.dumps(entry) == json.dumps(plain["analyses"][name])
                    or entry["status"] == "skipped"
                    and "node budget" in entry["reason"]), (path.name, name)


def test_a_chain_trace_fits_a_node_budget_the_solve_fits(tmp_path):
    # the trace breaks each step's ties on its one (position, input)
    # pair; breaking them over the whole relation first ran this trace
    # out of a 10,000-node budget
    path = tmp_path / "chain30.spec"
    path.write_text(chain_text(30))
    plain, tight = (
        _report_bytes(tmp_path, path, ReportConfig(analyses=("trace",),
                                                   node_budget=budget))
        for budget in (None, 10000))
    assert json.loads(tight)["analyses"]["trace"]["status"] == "ok"
    assert tight == plain


def test_unsatisfiable_initial_assumption_gives_zero_round_table(tmp_path):
    # these seeds draw [ENV_INIT] (i0 & !i0): the system wins before the
    # first move, so the abstract table is the violation round alone
    for seed, rep in _random_reports(tmp_path, (9, 45, 51), ReportConfig()):
        entry = rep.analyses["abstract"]
        assert entry["status"] == "ok", seed
        assert entry["result"]["winner"] == "system", seed
        assert entry["result"]["horizon"] == 0, seed
        assert entry["result"]["rounds"] == [
            {name: "X" for name in entry["result"]["rounds"][0]}], seed


def test_robotics_reports_on_random_specs_complete(tmp_path):
    # seeds 0, 2, 20, 29, 37, 44 and 48 have initial inputs without an
    # admissible initial output, which robotics realizability ignores
    config = ReportConfig(robotics=True)
    for seed, rep in _random_reports(tmp_path, range(60), config):
        for name, entry in rep.analyses.items():
            assert entry["status"] in ("ok", "skipped"), (seed, name)


def test_benchmark_tracer_leaves_report_bytes_unchanged(tmp_path,
                                                       monkeypatch):
    # the benchmark's tracer patches program names by string: entering it
    # fails if one of them is gone, and it must not change a report
    import pathlib
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    from tracing import Tracer
    config = ReportConfig(analyses=())

    def report_bytes(out):
        run_report(spec_path("mutex"), config, json_path=out,
                   html_path=tmp_path / "r.html", log=None)
        return out.read_bytes()

    plain = report_bytes(tmp_path / "plain.json")
    with Tracer() as tracer:
        traced = report_bytes(tmp_path / "traced.json")
    assert traced == plain
    assert tracer.calls["game.solve"] == 1


GRID_4X2 = """\
[INPUT]
sx: 0...3
sy: 0...1
[OUTPUT]
px: 0...3
py: 0...1
[ENV_INIT]
sx = 3
sy = 1
[SYS_INIT]
px = 0
py = 0
[ENV_TRANS]
(X(sx) = sx & (X(sy) = sy | X(sy) = sy + 1 | X(sy) + 1 = sy)) | (X(sy) = sy & (X(sx) = sx + 1 | X(sx) + 1 = sx))
!(X(sx) = px & X(sy) = py)
[SYS_TRANS]
(X(px) = px & (X(py) = py | X(py) = py + 1 | X(py) + 1 = py)) | (X(py) = py & (X(px) = px + 1 | X(px) + 1 = px))
!(X(px) = X(sx) & X(py) = X(sy))
[ENV_LIVENESS]
sy = 1
[SYS_LIVENESS]
px = 0 & py = 0
px = 3 & py = 0
"""


@pytest.mark.parametrize("permute", ["reversed", "shuffled"])
def test_report_does_not_depend_on_the_level_order(tmp_path, monkeypatch,
                                                   permute):
    import random
    import gr1report.report as report_mod
    from gr1report.analyses import Session

    paths = [spec_path(name) for name in ("counter", "doors", "mutex",
                                          "parity_tracker", "patrol")]
    # two robots on a 4x2 grid: comparisons link sx with px and sy with
    # py, so the plain run lays each pair out interleaved
    paths.append(tmp_path / "grid.spec")
    paths[-1].write_text(GRID_4X2)
    for seed in range(20):
        paths.append(tmp_path / f"s{seed}.spec")
        paths[-1].write_text(random_spec_text(seed))

    def report_json(path):
        out = tmp_path / "r.json"
        run_report(path, json_path=out, html_path=tmp_path / "r.html",
                   log=None)
        return out.read_bytes()

    plain = [report_json(p) for p in paths]

    class PermutedSession(Session):
        # build_game keeps signals that are already declared
        def __init__(self, spec, *args, **kwargs):
            super().__init__(spec, *args, **kwargs)
            names = list(spec.props)
            if permute == "reversed":
                names.reverse()
            else:
                random.Random(len(names)).shuffle(names)
            for name in names:
                self.mgr.declare_signal(name)

    monkeypatch.setattr(report_mod, "Session", PermutedSession)
    for path, want in zip(paths, plain):
        assert report_json(path) == want, path.name


def test_cli_progress_lines_follow_a_redirected_stderr(tmp_path):
    import contextlib
    import io

    target = tmp_path / "m.spec"
    target.write_text(spec_path("mutex").read_text())
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli_main([str(target), "--analyses", "positions,falsify"]) == 0
    lines = err.getvalue().splitlines()
    assert [line.split(" (")[0] for line in lines] == [
        "gr1report: positions: ok", "gr1report: falsify: ok"]


def _cyclic_garbage_after_report(tmp_path, spec,
                                 config=None) -> tuple[type | None, list]:
    """The class of the documented error one report on `spec` ends with
    (None if it ends without one) and what it leaves for the cyclic
    collector.  It calls `run_report`, not `cli.main`, whose argparse
    parser makes cycles of its own."""
    import gc

    gc.collect()
    gc.disable()
    try:
        try:
            run_report(spec, config, json_path=tmp_path / "r.json",
                       html_path=tmp_path / "r.html", log=None)
            ending = None
        except (ReportError, SpecError) as exc:
            ending = type(exc)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return ending, list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_report_leaves_no_bdd_handles_in_reference_cycles(tmp_path,
                                                          specs_dir):
    # a recursive nested function holds itself through its cell, so its
    # memo of handles (and of nodes) lives until the cyclic collector
    # runs; the kernel and ir_to_bdd recurse without such closures, and
    # a report makes no cycle at all, which lets run_report pause the
    # collector
    for path in sorted(specs_dir.glob("*.spec")):
        assert _cyclic_garbage_after_report(tmp_path, path) == (
            None, []), path.name


@pytest.mark.parametrize("config", [
    ReportConfig(robotics=True), ReportConfig(semantics="nonstrict"),
    ReportConfig(node_budget=20000), ReportConfig(timeout_seconds=0.05),
], ids=["robotics", "nonstrict", "budget20000", "timeout"])
def test_corpus_reports_under_each_configuration_make_no_cycles(
        tmp_path, specs_dir, config):
    # the two tworobot reports take most of the corpus's time, so they
    # run only under the short deadline, where it skips analyses or
    # ends the baseline (exit 2)
    endings = ({None, BaselineResourceError} if config.timeout_seconds
               else {None})
    for path in sorted(specs_dir.glob("*.spec")):
        if config.timeout_seconds or not path.stem.startswith("tworobot"):
            ending, garbage = _cyclic_garbage_after_report(tmp_path, path,
                                                           config)
            assert ending in endings and garbage == [], path.name


@pytest.mark.parametrize("family, n, analyses, ending", [
    ("arbiter", 3, ANALYSIS_ORDER, None),
    ("chain", 30, ANALYSIS_ORDER, None),
    ("chain", 600, (), BaselineResourceError),  # exit 2: recursion limit
], ids=["arbiter3", "chain30", "chain600-verdict"])
def test_generated_reports_make_no_cycles(tmp_path, monkeypatch, family, n,
                                          analyses, ending):
    import pathlib
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    import specgen
    path = tmp_path / f"{family}{n}.spec"
    path.write_text(getattr(specgen, family)(n))
    assert _cyclic_garbage_after_report(
        tmp_path, path, ReportConfig(analyses=analyses)) == (ending, [])


def test_compile_leaves_no_functions_in_reference_cycles(tmp_path):
    # the validator's recursions are module functions, so compiling a
    # spec leaves neither them nor the AST nodes they reach to the
    # cyclic collector (the corpus reports above check specs that
    # compile); nor does a spec that fails to parse or compile
    for name, text, ending in [
            ("type", "[INPUT]\nx: 0...3\n[SYS_LIVENESS]\nx\n", ReportError),
            ("deep", "[INPUT]\nr\n[OUTPUT]\no\n[SYS_TRANS]\n"
             + "(" * 500 + "o" + ")" * 500 + "\n", SpecError)]:
        path = tmp_path / f"{name}.spec"
        path.write_text(text)
        assert _cyclic_garbage_after_report(tmp_path, path) == (
            ending, []), name


@pytest.mark.parametrize("enabled", [True, False],
                         ids=["enabled", "disabled"])
def test_run_report_leaves_the_collector_as_it_found_it(tmp_path,
                                                        monkeypatch, enabled):
    import gc
    import gr1report.report as report_mod

    paused = []
    parse = report_mod.parse_spec
    monkeypatch.setattr(report_mod, "parse_spec", lambda text: (
        paused.append(not gc.isenabled()) or parse(text)))
    bad = tmp_path / "bad.spec"
    bad.write_text("[INPUT]\nx: 0...3\n[SYS_LIVENESS]\nx\n")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        run_report(spec_path("mutex"), json_path=tmp_path / "r.json",
                   html_path=tmp_path / "r.html", log=None)
        assert gc.isenabled() is enabled
        with pytest.raises(ReportError):
            run_report(bad, json_path=tmp_path / "r.json",
                       html_path=tmp_path / "r.html", log=None)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert paused == [True, True]


@pytest.mark.parametrize("name", ["doors", "arbiter4"])
def test_full_report_never_extracts_a_machine(tmp_path, monkeypatch, name):
    # test (d) and the nominal trace get the canonical strategy from
    # relations; the explicit machine is API and differential reference
    import pathlib
    import gr1report.analyses as analyses_mod
    import gr1report.game as game_mod
    import gr1report.report as report_mod
    import gr1report.traces as traces_mod
    if name == "arbiter4":
        monkeypatch.syspath_prepend(
            str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
        import specgen
        path = tmp_path / "arbiter4.spec"
        path.write_text(specgen.arbiter(4))
    else:
        path = spec_path(name)
    for mod in (analyses_mod, report_mod, traces_mod):
        assert not hasattr(mod, "extract_strategy"), mod.__name__
    calls = []
    extract = game_mod.extract_strategy
    monkeypatch.setattr(game_mod, "extract_strategy",
                        lambda *a: calls.append(a) or extract(*a))
    rep = run_report(path, ReportConfig(), json_path=tmp_path / "r.json",
                     html_path=tmp_path / "r.html", log=None)
    assert rep.baseline["realizable"] == "realizable"
    assert all(e["status"] == "ok" for e in rep.analyses.values())
    assert calls == []


def test_weak_tworobot_assumptions_fit_a_30000_node_budget(tmp_path):
    # the session keeps only the reached positions, never the strategy
    # relations, so the assumption tests fit in the budget
    rep = run_report(spec_path("tworobot_weak"),
                     ReportConfig(node_budget=30000),
                     json_path=tmp_path / "r.json",
                     html_path=tmp_path / "r.html", log=None)
    assert rep.analyses["assumptions"]["status"] == "ok", (
        rep.analyses["assumptions"])


def test_corpus_reports_do_not_depend_on_the_computed_table_cap(
        tmp_path, monkeypatch, specs_dir):
    # a 64-entry table drops entries at nearly every operation; results
    # are recomputed, never changed
    from gr1report.bdd import BddManager

    def report_json(path):
        out = tmp_path / "r.json"
        run_report(path, json_path=out, html_path=tmp_path / "r.html",
                   log=None)
        return out.read_bytes()

    paths = sorted(specs_dir.glob("*.spec"))
    plain = [report_json(p) for p in paths]
    monkeypatch.setattr(BddManager, "cache_limit", 64)
    for path, want in zip(paths, plain):
        assert report_json(path) == want, path.name


# ----------------------------------------------------------------------
# the precommit worker: run_report forks one process for the precommit
# analysis when it may use two CPUs

@pytest.fixture
def forks(monkeypatch):
    """The calls of os.fork a test makes, with the process free to run
    on two CPUs, so that a report forks its worker on any host."""
    import os
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    return calls


def _report_bytes(tmp_path, path, config=None) -> bytes:
    out = tmp_path / "r.json"
    run_report(path, config, json_path=out, html_path=tmp_path / "r.html",
               log=None)
    return out.read_bytes()


def _assert_no_child_left():
    import os
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_one_process(monkeypatch):
    import gr1report.report as report_mod
    monkeypatch.setattr(report_mod, "_worker_lane", lambda config: ())


@pytest.mark.parametrize("one_process", [False, True],
                         ids=["worker", "one-process"])
def test_a_permuted_repeated_request_runs_in_canonical_order(
        tmp_path, monkeypatch, forks, one_process):
    if one_process:
        _in_one_process(monkeypatch)
    canonical = ("positions", "precommit", "stuckat")
    config = ReportConfig(analyses=("stuckat", "precommit", "positions",
                                    "stuckat"))
    assert config.analyses == canonical
    want = _report_bytes(tmp_path, spec_path("delivery"),
                         ReportConfig(analyses=canonical))
    rep = run_report(spec_path("delivery"), config,
                     json_path=tmp_path / "r.json",
                     html_path=tmp_path / "r.html", log=None)
    assert (tmp_path / "r.json").read_bytes() == want
    assert (list(rep.analyses) == list(rep.timings) == rep.config["analyses"]
            == json.loads(want)["config"]["analyses"] == list(canonical))
    assert len(forks) == (0 if one_process else 2)


@pytest.mark.parametrize("config", [
    ReportConfig(), ReportConfig(semantics="nonstrict"),
    ReportConfig(robotics=True),
], ids=["strict", "nonstrict", "robotics"])
def test_worker_reports_match_one_process_reports(tmp_path, monkeypatch,
                                                  specs_dir, forks, config):
    paths = sorted(specs_dir.glob("*.spec"))
    forked = [_report_bytes(tmp_path, p, config) for p in paths]
    # a strict baseline that is unrealizable runs precommit in-process
    workers = sum(config.semantics != "strict"
                  or json.loads(b)["baseline"]["realizable"] == "realizable"
                  for b in forked)
    assert len(forks) == workers > 0
    _in_one_process(monkeypatch)
    for path, want in zip(paths, forked):
        assert _report_bytes(tmp_path, path, config) == want, path.name
    assert len(forks) == workers


@pytest.mark.parametrize("n", [3, 4, 5])
def test_worker_arbiter_reports_match_one_process_reports(
        tmp_path, monkeypatch, forks, n):
    import pathlib
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    import specgen
    path = tmp_path / f"arbiter{n}.spec"
    path.write_text(specgen.arbiter(n))
    forked = _report_bytes(tmp_path, path)
    assert len(forks) == 1
    _in_one_process(monkeypatch)
    assert _report_bytes(tmp_path, path) == forked


def test_report_reaps_its_worker_and_logs_each_analysis_once(tmp_path,
                                                             forks):
    import io
    log = io.StringIO()
    rep = run_report(spec_path("delivery"), json_path=tmp_path / "r.json",
                     html_path=tmp_path / "r.html", log=log)
    assert len(forks) == 1
    _assert_no_child_left()
    assert list(rep.analyses) == list(rep.timings) == list(ANALYSIS_ORDER)
    names = [line.split(": ")[1] for line in log.getvalue().splitlines()]
    assert sorted(names) == sorted(ANALYSIS_ORDER)


def test_parent_lane_error_stops_the_worker(tmp_path, monkeypatch, forks):
    # the worker is still solving tworobot's precommit variants when the
    # first analysis of this process raises
    import gr1report.report as report_mod

    def explode(*a, **k):
        raise ValueError("parent lane")

    monkeypatch.setattr(report_mod, "semantics_comparison", explode)
    with pytest.raises(ValueError, match="parent lane"):
        run_report(spec_path("tworobot"), json_path=tmp_path / "r.json",
                   html_path=tmp_path / "r.html", log=None)
    assert len(forks) == 1
    _assert_no_child_left()


def test_worker_error_is_raised_in_the_parent(tmp_path, monkeypatch, forks):
    import gr1report.report as report_mod

    def explode(*a, **k):
        raise ValueError("worker lane")

    monkeypatch.setattr(report_mod, "precommit_analysis", explode)
    with pytest.raises(RuntimeError, match="ValueError: worker lane"):
        run_report(spec_path("delivery"), json_path=tmp_path / "r.json",
                   html_path=tmp_path / "r.html", log=None)
    assert len(forks) == 1
    _assert_no_child_left()


def test_failed_fork_runs_the_report_in_one_process(tmp_path, monkeypatch,
                                                    forks):
    import errno
    import os
    want = _report_bytes(tmp_path, spec_path("delivery"))
    refused = []

    def refuse():
        refused.append(None)
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", refuse)
    assert _report_bytes(tmp_path, spec_path("delivery")) == want
    assert (len(forks), len(refused)) == (1, 1)
    _assert_no_child_left()


@pytest.mark.parametrize("name, config, cpus, status", [
    ("delivery", ReportConfig(node_budget=60000), {0, 1}, "ok"),
    ("delivery", ReportConfig(), {0}, "ok"),
    ("delivery", ReportConfig(analyses=("precommit",)), {0, 1}, "ok"),
    # precommit only reports that it needs a realizable specification
    ("oscillator_unreal", ReportConfig(), {0, 1}, "skipped"),
], ids=["budget", "one-cpu", "precommit-only", "unrealizable"])
def test_reports_that_never_fork(tmp_path, monkeypatch, name, config, cpus,
                                 status):
    import os
    calls = []

    def fork():
        calls.append(None)
        raise OSError("fork called")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    rep = run_report(spec_path(name), config,
                     json_path=tmp_path / "r.json",
                     html_path=tmp_path / "r.html", log=None)
    assert rep.analyses["precommit"]["status"] == status
    assert calls == []
