"""The seven debugging analyses and their invariants."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (SPEC_DIR, _formula, _variant, load_spec,
                      random_boolean_spec)
from gr1report import parse_spec, compile_to_boolean
from gr1report.analyses import (
    AnalysisError, Session, semantics_comparison, position_statistics,
    assumption_falsification, classify_assumptions, error_resilience,
    precommit_analysis, stuck_at_analysis, INFINITE, _exactly_one_violated,
    _stuck, _without,
)
from gr1report.bdd import BddManager, ResourceLimitError
from gr1report.compiler import BoolPart
from gr1report.game import (build_game, check_realizability, classical,
                            solve_game, _union)
from gr1report.oracle import explicit_solve
from gr1report.report import (ANALYSIS_ORDER, ReportConfig, _run_analysis,
                              run_report)
from test_bdd import build_bdd, fresh, trees


def compile_text(text):
    return compile_to_boolean(parse_spec(text))


# ----------------------------------------------------------------------
# semantics comparison

def test_semantics_comparison_differs_on_parity_tracker():
    sc = semantics_comparison(load_spec("parity_tracker"))
    assert sc.strict == "unrealizable"
    assert sc.nonstrict == "realizable"
    assert sc.differs


def test_semantics_agree_without_assumptions():
    sc = semantics_comparison(compile_text(
        "[INPUT]\nr\n[OUTPUT]\ng\n[SYS_LIVENESS]\ng\n"))
    assert not sc.differs


def test_strict_realizable_implies_nonstrict_random():
    # semantics_comparison skips the classical solve when the strict
    # verdict is realizable; solving both games must agree with it on
    # the corpus and on random specs, under both realizability checks
    from conftest import random_compare_spec_text, random_spec_text
    texts = ([p.read_text() for p in sorted(SPEC_DIR.glob("*.spec"))]
             + [random_spec_text(seed) for seed in range(300)]
             + [random_compare_spec_text(seed) for seed in range(100)])
    realizable = 0
    for i, text in enumerate(texts):
        spec = compile_text(text)
        for robotics in (False, True):
            both = Session(spec, robotics=robotics)
            strict, nonstrict = both.verdict(), both.verdict("nonstrict")
            if strict == "realizable":
                assert nonstrict == "realizable", (i, robotics)
                realizable += 1
            sc = semantics_comparison(Session(spec, robotics=robotics))
            assert (sc.strict, sc.nonstrict) == (strict, nonstrict), (
                i, robotics)
    assert realizable > 50


# ----------------------------------------------------------------------
# position statistics

def test_position_statistics_trivial_spec():
    st = position_statistics(compile_text(
        "[INPUT]\nr\n[OUTPUT]\ng\n[SYS_LIVENESS]\nTRUE\n"))
    assert st.classes["all"].total == 4
    assert st.classes["all"].winning == 4
    assert st.winning_cubes and not st.winning_cubes[0].literals
    assert st.losing_cubes == []


def test_position_statistics_mutex():
    st = position_statistics(load_spec("mutex"))
    assert st.classes["all"].winning == st.classes["all"].total == 64
    st2 = position_statistics(load_spec("mutex_fixed"))
    assert st2.classes["all"].total - st2.classes["all"].winning == 16
    assert [set(c.literals) for c in st2.losing_cubes] == [
        {("promise1", True), ("promise2", True)}]


def test_reported_cubes_are_implicants():
    st = position_statistics(load_spec("doors"), max_cubes=5)
    spec = load_spec("doors")
    game = build_game(spec)
    region = solve_game(game)
    for cube, target in [(c, region.win) for c in st.winning_cubes] + [
            (c, ~region.win) for c in st.losing_cubes]:
        lit = game.mgr.true
        for name, val in cube.literals:
            v = game.mgr.var(name)
            lit = lit & (v if val else ~v)
        assert (lit & ~target).is_false()


# ----------------------------------------------------------------------
# assumption falsification

def test_falsification_region_empty_with_true_assumptions():
    res = assumption_falsification(compile_text(
        "[INPUT]\nr\n[OUTPUT]\ng\n[SYS_LIVENESS]\ng\n"))
    assert res.count == 0 and res.cubes == []


def _goal_false_spec(spec):
    """The spec with one FALSE system goal in place of its own: the
    reference for the falsification game."""
    from gr1report.compiler import IR_FALSE
    out = _variant(spec)
    out.parts["sys_liveness"] = [BoolPart(
        IR_FALSE, "FALSE", "sys_liveness", 0, synthetic=True)]
    return out


def test_falsification_region_matches_oracle():
    # at most 10 propositions: the oracle's tables at its 14-proposition
    # bound take too much memory for a test
    specs = [load_spec(p.stem) for p in sorted(SPEC_DIR.glob("*.spec"))]
    specs = [s for s in specs if len(s.props) <= 10]
    specs += [random_boolean_spec(seed) for seed in range(200)]
    assert len(specs) >= 208
    for k, spec in enumerate(specs):
        res = assumption_falsification(spec)
        got = res.game.mgr.to_truthtable(res.region_bdd, res.game.positions)
        assert got == explicit_solve(_goal_false_spec(spec)).win, k


def test_falsification_region_subset_of_win():
    for name in ("tworobot", "request_grant", "doors"):
        spec = load_spec(name)
        game = build_game(spec)
        region = solve_game(game)
        win_tt = game.mgr.to_truthtable(region.win, game.positions)
        res = assumption_falsification(spec)
        reg_tt = res.game.mgr.to_truthtable(res.region_bdd, res.game.positions)
        assert reg_tt & ~win_tt == 0, name


# ----------------------------------------------------------------------
# superfluous assumptions

def test_classification_requires_realizable():
    with pytest.raises(AnalysisError, match="realizable"):
        classify_assumptions(load_spec("counter"))


def test_removing_needed_assumption_flips_realizability():
    spec = compile_text(
        "[INPUT]\nr\n[OUTPUT]\ng\n[ENV_LIVENESS]\nr\n[SYS_LIVENESS]\nr\n")
    verdicts = classify_assumptions(spec)
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v.test_a and v.verdict == "useful"


def test_superfluous_assumption_detected():
    spec = compile_text(
        "[INPUT]\nr\n[OUTPUT]\ng\n[ENV_LIVENESS]\nr\n[SYS_LIVENESS]\ng\n")
    verdicts = classify_assumptions(spec)
    assert verdicts[0].verdict == "superfluous"
    assert not any([verdicts[0].test_a, verdicts[0].test_b,
                    verdicts[0].test_c, verdicts[0].test_d])


def test_test_d_implies_test_c_random():
    for seed in range(40):
        spec = random_boolean_spec(seed)
        game = build_game(spec)
        region = solve_game(game)
        if check_realizability(game, region) != "realizable":
            continue
        for v in classify_assumptions(spec):
            if v.test_d:
                assert v.test_c, (seed, v)


# ----------------------------------------------------------------------
# error resilience

def test_resilience_no_safety_assumptions_is_infinite():
    res = error_resilience(compile_text(
        "[INPUT]\nr\n[OUTPUT]\ng\n[SYS_LIVENESS]\ng\n"))
    assert res.level == INFINITE


def test_resilience_requires_realizable():
    with pytest.raises(AnalysisError, match="realizable"):
        error_resilience(load_spec("counter"))


def _glitch_reference(mgr, parts):
    """Transitions violating exactly one of `parts`, by the double loop."""
    glitch = mgr.false
    for ell in range(len(parts)):
        term = ~parts[ell]
        for m in range(len(parts)):
            if m != ell:
                term = term & parts[m]
        glitch = glitch | term
    return glitch


def test_exactly_one_violated_matches_double_loop_corpus():
    checked = 0
    for path in sorted(SPEC_DIR.glob("*.spec")):
        game = build_game(load_spec(path.stem))
        parts = game.trans_env_parts
        if len(parts) >= 2:
            assert (_exactly_one_violated(game.mgr, parts)
                    == _glitch_reference(game.mgr, parts)), path.stem
            checked += 1
    assert checked > 0


@settings(max_examples=40, deadline=None)
@given(st.lists(trees(), max_size=7))
def test_exactly_one_violated_matches_double_loop_random(ts):
    mgr = fresh()
    parts = [build_bdd(mgr, t) for t in ts]
    assert (_exactly_one_violated(mgr, parts)
            == _glitch_reference(mgr, parts))


def test_resilience_monotone_chain():
    # the budget-indexed winning sets shrink and realizability is
    # monotone along the chain
    spec = load_spec("delivery")
    game = build_game(spec)
    region = solve_game(game)
    from gr1report.analyses import error_resilience as er
    level = er(spec, max_k=8).level
    assert level == 5
    # recompute manually, asserting monotonicity
    mgr = game.mgr
    glitch = _glitch_reference(mgr, game.trans_env_parts)
    w = region.win
    verdicts = []
    for k in range(1, 8):
        canv = mgr.and_exists(game.trans_sys, game.prime(w),
                              game.primed_outputs)
        hole = mgr.and_exists(glitch, ~canv, game.primed_inputs)
        r = solve_game(replace(game, position_filter=~hole), start=w)
        assert (r.win & ~w).is_false()  # shrinking chain
        verdicts.append(check_realizability(game, r) == "realizable")
        w = r.win
    # once unrealizable, stays unrealizable
    assert verdicts == sorted(verdicts, reverse=True)


def test_resilience_exceeded_marker():
    res = error_resilience(load_spec("delivery"), max_k=3)
    assert res.level == 3 and res.exceeded
    assert res.render(3) == "> 3"


# ----------------------------------------------------------------------
# precommit

def test_precommit_unconstrained_output():
    r = precommit_analysis(compile_text(
        "[INPUT]\nr\n[OUTPUT]\ng\n[SYS_LIVENESS]\nTRUE\n"))
    assert r.per_output == {"g": True}
    assert r.maximal_set == ["g"]


def test_precommit_copying_output_fails():
    r = precommit_analysis(compile_text(
        "[INPUT]\nx\n[OUTPUT]\ng\n[SYS_TRANS]\nX(g) <-> X(x)\n"
        "[SYS_LIVENESS]\nTRUE\n"))
    assert r.per_output == {"g": False}
    assert r.maximal_set == []


def test_precommit_subset_closure_random():
    # the search's premise: committing a superset Q of P only takes power
    # from the system, so W_Q is inside W_P and realizable(Q) implies
    # realizable(P); P may be empty, the baseline every variant starts from
    for seed in range(40):
        spec = random_boolean_spec(seed)
        outs = spec.output_props
        rng = random.Random(seed)
        for robotics in (False, True):
            game = build_game(spec, robotics=robotics)
            for _ in range(4):
                big = rng.sample(outs, rng.randint(1, len(outs)))
                small = rng.sample(big, rng.randint(0, len(big)))
                solved = []
                for sub in (small, big):
                    committed = replace(game, precommit=sub)
                    region = solve_game(committed)
                    solved.append((region.win, check_realizability(
                        committed, region) == "realizable"))
                (w_small, r_small), (w_big, r_big) = solved
                assert w_big.implies(w_small).is_true(), (seed, small, big)
                assert r_small or not r_big, (seed, robotics, small, big)


def _old_precommit(session):
    """The search before the memo: one solve per output, then one per
    greedy step."""
    game = session.game()
    win = session.region().win

    def realizable_with(outs):
        committed = replace(game, precommit=outs)
        return check_realizability(
            committed, solve_game(committed, start=win)) == "realizable"

    outputs = session.spec.output_props
    per_output = {o: realizable_with([o]) for o in outputs}
    maximal = []
    for o in outputs:
        if per_output[o] and realizable_with(maximal + [o]):
            maximal.append(o)
    return per_output, maximal


def copy_spec_text(seed):
    """Random spec in which a random subset of the outputs must copy the
    next input and random pairs of outputs must together cover it, so
    single outputs, and sets of outputs that commit one by one, fail to
    commit."""
    rng = random.Random(seed)
    ins = [f"i{k}" for k in range(rng.randint(1, 2))]
    outs = [f"o{k}" for k in range(rng.randint(2, 6))]
    trans = [f"X({o}) <-> X({rng.choice(ins)})"
             for o in outs if rng.random() < 0.3]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(outs, 2)
        trans.append(f"(X({a}) | X({b})) <-> X({rng.choice(ins)})")
    lines = ["[INPUT]", *ins, "[OUTPUT]", *outs]
    if trans:
        lines += ["[SYS_TRANS]", *trans]
    lines += ["[SYS_LIVENESS]", _formula(rng, ins + outs, 1)]
    return "\n".join(lines) + "\n"


def _precommit_solves(monkeypatch, session):
    """precommit_analysis(session) and the committed sets it solved."""
    import gr1report.analyses as analyses_mod
    session.region()
    solved = []

    def spy(game, start=None, holds=None):
        solved.append(game.precommit)
        return solve_game(game, start=start, holds=holds)

    with monkeypatch.context() as m:
        m.setattr(analyses_mod, "solve_game", spy)
        result = precommit_analysis(session)
    return result, solved


def _halves(outs):
    """Every group the halving can try: outs and, recursively, its
    halves."""
    groups, work = [], [outs]
    while work:
        group = work.pop()
        groups.append(group)
        if len(group) > 1:
            work += [group[:len(group) // 2], group[len(group) // 2:]]
    return groups


def _precommit_sessions():
    for p in sorted(SPEC_DIR.glob("*.spec")):
        yield Session(load_spec(p.stem))
    for seed in range(100):
        for robotics in (False, True):
            yield Session(random_boolean_spec(seed), robotics=robotics)
            yield Session(compile_text(copy_spec_text(seed)),
                          robotics=robotics)


def test_precommit_search_matches_per_output_and_greedy(monkeypatch):
    compared = halved = greedy = 0
    for k, session in enumerate(_precommit_sessions()):
        if session.verdict() != "realizable":
            continue
        want = _old_precommit(session)
        got, solved = _precommit_solves(monkeypatch, session)
        assert (got.per_output, got.maximal_set) == want, k
        assert list(got.per_output) == session.spec.output_props
        compared += 1
        halved += len(solved) > 1
        greedy += any(outs not in _halves(session.spec.output_props)
                      for outs in solved)
    assert compared >= 150
    assert halved >= 20 and greedy >= 20, (halved, greedy)


@pytest.mark.parametrize("name,most", [
    ("delivery", 1), ("delivery_ready", 1), ("doors", 1), ("mutex", 1),
    ("mutex_fixed", 1), ("tworobot", 7), ("tworobot_weak", 7)])
def test_precommit_solve_count(monkeypatch, name, most):
    # a realizable set settles all its outputs and every greedy step
    # inside it; the per-output search made k + (greedy steps) solves
    _, solved = _precommit_solves(monkeypatch, Session(load_spec(name)))
    assert 1 <= len(solved) <= most


def test_precommit_screened_by_the_baseline_region(monkeypatch):
    # request_grant's one committed set fails the check with W already
    _, solved = _precommit_solves(monkeypatch,
                                  Session(load_spec("request_grant")))
    assert solved == []


@pytest.mark.parametrize("name", ["tworobot", "tworobot_weak"])
def test_full_report_within_node_budget(tmp_path, name):
    rep = run_report(SPEC_DIR / f"{name}.spec",
                     ReportConfig(node_budget=60000),
                     json_path=tmp_path / "r.json",
                     html_path=tmp_path / "r.html", log=None)
    assert {a: r["status"] for a, r in rep.analyses.items()} == dict.fromkeys(
        rep.analyses, "ok")


# ----------------------------------------------------------------------
# stuck-at

def test_stuckat_outputs_when_realizable():
    tbl = stuck_at_analysis(compile_text(
        "[INPUT]\nx\n[OUTPUT]\ng\n[SYS_TRANS]\nX(g) <-> X(x)\n"
        "[SYS_LIVENESS]\nTRUE\n"))
    assert tbl.direction == "outputs"
    # g must mirror an unseen input: stuck at either value is unrealizable
    assert tbl.entries[("g", False)] == "unrealizable"
    assert tbl.entries[("g", True)] == "unrealizable"


def test_stuckat_inputs_when_unrealizable():
    tbl = stuck_at_analysis(compile_text(
        "[INPUT]\nr\n[OUTPUT]\ng\n[SYS_LIVENESS]\nr & g\n"))
    assert tbl.direction == "inputs"
    assert tbl.entries[("r", True)] == "realizable"
    assert tbl.entries[("r", False)] == "unrealizable"


def test_analyses_run_concurrently_in_isolated_managers():
    # an analysis called on a plain BooleanSpec runs in a fresh session
    # with its own manager, so a thread pool gets the same answers as
    # sequential calls
    from concurrent.futures import ThreadPoolExecutor
    spec = load_spec("doors")
    jobs = [
        lambda: position_statistics(spec).classes["all"].winning,
        lambda: assumption_falsification(spec).count,
        lambda: semantics_comparison(spec).strict,
        lambda: error_resilience(spec, max_k=4).level,
    ]
    sequential = [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(job) for job in jobs]
        parallel = [f.result(timeout=120) for f in futures]
    assert parallel == sequential


def test_stuckat_output_realizable_implies_original_realizable_random():
    checked = 0
    for seed in range(40):
        spec = random_boolean_spec(seed)
        game = build_game(spec)
        region = solve_game(game)
        baseline = check_realizability(game, region)
        if baseline != "realizable":
            continue
        tbl = stuck_at_analysis(spec)
        assert tbl.direction == "outputs"
        checked += 1
        if checked >= 8:
            break
    assert checked >= 5


# ----------------------------------------------------------------------
# one shared session against a fresh session per analysis

def _all_results(spec, robotics=False, fresh=False):
    """Every analysis in report order, as the report renders it, run
    either in one shared session or each in a fresh session.  Failures
    are compared too: both ways must fail alike."""
    config = ReportConfig(robotics=robotics)
    shared = Session(spec, robotics=robotics)
    out = {}
    for name in ANALYSIS_ORDER:
        session = Session(spec, robotics=robotics) if fresh else shared
        try:
            out[name] = _run_analysis(name, config, session)
        except Exception as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
    return out


def test_shared_session_matches_fresh_sessions_random():
    for seed in range(30):
        spec = random_boolean_spec(seed)
        for robotics in (False, True):
            assert (_all_results(spec, robotics)
                    == _all_results(spec, robotics, fresh=True)), seed


@pytest.mark.parametrize("name", sorted(p.stem for p in
                                        SPEC_DIR.glob("*.spec")))
def test_shared_session_matches_fresh_sessions_corpus(name):
    spec = load_spec(name)
    assert _all_results(spec) == _all_results(spec, fresh=True)


@pytest.mark.parametrize("name", sorted(p.stem for p in
                                        SPEC_DIR.glob("*.spec")))
def test_recorded_baseline_matches_warm_rerecord(name):
    # the old path solved the baseline unrecorded and recorded it with
    # a second, warm solve from the winning set
    spec = load_spec(name)
    for semantics in ("strict", "nonstrict"):
        session = Session(spec)
        session.verdict(semantics)
        region = session.region(semantics)
        old = solve_game(session.game(semantics),
                         start=region.win)
        assert region.win == old.win, semantics
        assert region.strata == old.strata, semantics
        assert region.xcores == old.xcores, semantics
        assert region.stationary == old.stationary, semantics


def test_session_settings_reach_the_analyses():
    spec = compile_text("[INPUT]\nr\n[OUTPUT]\ng\n[SYS_TRANS]\ng -> X(g)\n"
                        "[SYS_LIVENESS]\n!g\n")
    assert semantics_comparison(spec).strict == "realizable"
    assert semantics_comparison(Session(spec)).strict == "realizable"
    assert semantics_comparison(
        Session(spec, robotics=True)).strict == "unrealizable"
    with pytest.raises(ResourceLimitError, match="node budget"):
        position_statistics(Session(load_spec("tworobot"), node_budget=64))


# ----------------------------------------------------------------------
# assumption tests a-c against the explicit-state oracle

def _oracle_tests_abc(spec, part):
    """Tests a-c computed on oracle truth tables of the spec and of the
    spec without `part`."""
    full = explicit_solve(spec)
    sub = explicit_solve(_variant(spec, drop=(part.kind, part.index)))
    both = full.win & sub.win
    goals = []
    for j, (sf, sw) in enumerate(zip(full.strata, sub.strata)):
        helped = 0
        for d in range(max(len(sf), len(sw))):
            a = sf[min(d, len(sf) - 1)] if sf else full.win
            b = sw[min(d, len(sw) - 1)] if sw else sub.win
            helped |= a & ~b & both
        if helped:
            goals.append(j)
    return sub.realizable != "realizable", full.win != sub.win, goals


def test_classification_tests_abc_match_oracle():
    specs = [random_boolean_spec(seed) for seed in range(80)]
    specs += [load_spec(n) for n in ("doors", "patrol", "mutex_fixed",
                                     "request_grant")]
    checked = 0
    for spec in specs:
        if explicit_solve(spec).realizable != "realizable":
            continue
        parts = {(p.kind, p.index): p
                 for kind in ("env_init", "env_trans", "env_liveness")
                 for p in spec.parts[kind] if not p.synthetic}
        for v in classify_assumptions(spec):
            want = _oracle_tests_abc(spec, parts[(v.kind, v.index)])
            assert (v.test_a, v.test_b, v.test_c_goals) == want, v
            assert v.test_c == bool(v.test_c_goals)
            checked += 1
    assert checked > 40


def _stuck_variant(spec, sig, value, output):
    """The spec with `sig` pinned to `value` from power-on: the pin as an
    init part and its primed copy as a trans part, guarantees for an
    output and assumptions for an input."""
    from gr1report.compiler import ir_not, ir_var
    side = "sys" if output else "env"
    lits = [ir_var(sig, primed) for primed in (False, True)]
    if not value:
        lits = [ir_not(lit) for lit in lits]
    return _variant(spec, add={
        kind: [BoolPart(lit, "stuck", kind, 10_000, synthetic=True)]
        for kind, lit in zip((f"{side}_init", f"{side}_trans"), lits)})


def test_stuckat_table_matches_oracle():
    specs = [random_boolean_spec(seed) for seed in range(60)]
    specs += [load_spec(n) for n in ("mutex", "doors", "patrol",
                                     "request_grant", "counter",
                                     "oscillator_unreal", "parity_tracker")]
    tables = {"outputs": 0, "inputs": 0}
    for spec in specs:
        table = stuck_at_analysis(spec)
        assert table.baseline == explicit_solve(spec).realizable
        output = table.direction == "outputs"
        for (sig, value), verdict in table.entries.items():
            want = explicit_solve(_stuck_variant(spec, sig, value, output))
            assert verdict == want.realizable, (table.direction, sig, value)
        tables[table.direction] += 1
    assert min(tables.values()) >= 20, tables


# ----------------------------------------------------------------------
# collection while an analysis solves its variants

def _collections(monkeypatch, analysis, session):
    """How many times `analysis` collects garbage in `session`, with the
    baseline region and the canonical strategy's reached positions
    already built."""
    session.reached()
    collect = BddManager.collect
    calls = []

    def counting(mgr, roots=()):
        calls.append(mgr)
        return collect(mgr, roots)

    with monkeypatch.context() as m:
        m.setattr(BddManager, "collect", counting)
        analysis(session)
    return len(calls)


def _variant_count(session, analysis):
    spec = session.spec
    if analysis is classify_assumptions:
        return sum(not p.synthetic for kind in ("env_init", "env_trans",
                                                "env_liveness")
                   for p in spec.parts[kind])
    signals = (spec.output_props if session.verdict() == "realizable"
               else spec.input_props)
    return 2 * len(signals)


@pytest.mark.parametrize("name", ["doors", "delivery"])
@pytest.mark.parametrize("analysis", [stuck_at_analysis,
                                      classify_assumptions])
def test_variants_keep_the_computed_table_below_the_threshold(
        monkeypatch, name, analysis):
    # a collection that frees anything clears the computed table, which
    # holds what sibling variants share with the baseline and each other
    session = Session(load_spec(name))
    assert _variant_count(session, analysis) > 0
    assert _collections(monkeypatch, analysis, session) == 0


@pytest.mark.parametrize("name", ["doors", "delivery"])
@pytest.mark.parametrize("analysis", [stuck_at_analysis,
                                      classify_assumptions])
def test_variants_keep_the_computed_table_under_a_loose_node_budget(
        monkeypatch, name, analysis):
    # the budget is one more input to the one due rule, which fires only
    # once the nodes in use near it, so a loose budget collects no more
    # than none does
    session = Session(load_spec(name), node_budget=10**6)
    assert _variant_count(session, analysis) > 0
    assert _collections(monkeypatch, analysis, session) == 0


@pytest.mark.parametrize("name,budget", [("doors", 3000), ("delivery", 6000)],
                         ids=["doors", "delivery"])
@pytest.mark.parametrize("analysis", [stuck_at_analysis,
                                      classify_assumptions])
def test_variants_collect_under_a_node_budget(
        monkeypatch, name, budget, analysis):
    # a tight budget makes the due rule fire inside the variants' solves,
    # and what they keep as roots leaves every result as without one;
    # robotics semantics, so that no stuck output is settled unsolved
    def results(session):
        r = analysis(session)
        return r.entries if analysis is stuck_at_analysis else r
    plain = results(Session(load_spec(name), robotics=True))
    session = Session(load_spec(name), robotics=True, node_budget=budget)
    assert _variant_count(session, analysis) > 0
    tight = []
    assert _collections(monkeypatch, lambda s: tight.append(results(s)),
                        session) > 0
    assert tight == [plain]


@pytest.mark.parametrize("name,budget,analyses", [
    pytest.param("doors", 3000, ("assumptions", "stuckat"), id="doors-3000"),
    pytest.param("delivery", 12000, ("assumptions", "stuckat"),
                 id="delivery-12000"),
    # the whole report; its precommit analysis was skipped here while
    # the budget made every safe point between sweeps collect
    pytest.param("delivery_ready", 8000, ANALYSIS_ORDER,
                 id="delivery_ready-8000"),
])
def test_tight_budget_still_completes_the_variant_analyses(
        tmp_path, name, budget, analyses):
    plain, tight = (
        run_report(SPEC_DIR / f"{name}.spec",
                   ReportConfig(analyses=analyses, node_budget=b),
                   json_path=tmp_path / "r.json",
                   html_path=tmp_path / "r.html", log=None).analyses
        for b in (None, budget))
    assert tight == plain
    assert all(e["status"] == "ok" for e in tight.values()), tight


def _variant_results(spec, collect_always):
    """Assumption verdicts and stuck-at entries in a fresh session;
    `collect_always` collects at every safe point, inside each variant's
    solve too, so no variant reuses a computed-table entry of another."""
    session = Session(spec)
    if collect_always:
        session.mgr._collect_due = lambda: True
    verdicts = (classify_assumptions(session)
                if session.verdict() == "realizable" else None)
    return verdicts, stuck_at_analysis(session).entries


def test_kept_computed_table_matches_collecting_every_variant():
    specs = [load_spec(p.stem) for p in sorted(SPEC_DIR.glob("*.spec"))]
    specs += [random_boolean_spec(seed) for seed in range(30)]
    for k, spec in enumerate(specs):
        assert (_variant_results(spec, collect_always=False)
                == _variant_results(spec, collect_always=True)), k


# ----------------------------------------------------------------------
# variant games against games built from the variant specifications

_VARIANT_BUILDERS = ("_goal_false", "_without", "_stuck")


def _built_games(monkeypatch, analysis, session):
    """Every variant game `analysis` builds in `session`, in call order,
    whether a solve settles its verdict or the baseline does."""
    import gr1report.analyses as analyses_mod
    session.region()
    games = []

    def spy(build):
        def built(*args):
            games.append(build(*args))
            return games[-1]
        return built

    with monkeypatch.context() as m:
        for name in _VARIANT_BUILDERS:
            m.setattr(analyses_mod, name, spy(getattr(analyses_mod, name)))
        analysis(session)
    return games


def _reference_specs(spec, realizable):
    """(what, variant spec) per variant game, in the analyses' order:
    the falsify goal, each dropped user assumption, each stuck signal."""
    out = [("falsify", _goal_false_spec(spec))]
    if realizable:
        out += [(f"drop {p.kind}", _variant(spec, drop=(p.kind, p.index)))
                for kind in ("env_init", "env_trans", "env_liveness")
                for p in spec.parts[kind] if not p.synthetic]
        what, signals = "stuck output", spec.output_props
    else:
        what, signals = "stuck input", spec.input_props
    out += [(what, _stuck_variant(spec, sig, value, output=realizable))
            for sig in signals for value in (False, True)]
    return out


def _check_variants(monkeypatch, spec, robotics):
    """Kinds of variant checked; each game an analysis builds, solved or
    settled from the baseline, equals the game built from the variant
    spec in the same manager: its parts, and its winning set, strata and
    verdict."""
    session = Session(spec, robotics=robotics)
    realizable = session.verdict() == "realizable"
    games = _built_games(monkeypatch, assumption_falsification, session)
    if realizable:
        games += _built_games(monkeypatch, classify_assumptions, session)
    games += _built_games(monkeypatch, stuck_at_analysis, session)
    refs = _reference_specs(spec, realizable)
    assert len(games) == len(refs)
    for game, (what, ref_spec) in zip(games, refs):
        ref = build_game(ref_spec, robotics=robotics, mgr=session.mgr)
        for name in ("init_env", "init_sys", "trans_env", "trans_sys",
                     "live_env", "live_sys"):
            assert getattr(game, name) == getattr(ref, name), (what, name)
        for name in ("init_env_parts", "trans_env_parts"):
            assert getattr(game, name) == getattr(ref, name), (what, name)
        got, want = solve_game(game), solve_game(ref)
        assert got.win == want.win, what
        assert got.strata == want.strata, what
        assert (check_realizability(game, got)
                == check_realizability(ref, want)), what
    return {what for what, _s in refs}


def test_variant_games_match_rebuilt_variants_random(monkeypatch):
    seen = set()
    for seed in range(60):
        spec = random_boolean_spec(seed)
        for robotics in (False, True):
            seen |= _check_variants(monkeypatch, spec, robotics)
    assert seen == {"falsify", "drop env_init", "drop env_trans",
                    "drop env_liveness", "stuck output", "stuck input"}


@pytest.mark.parametrize("name", ["counter", "delivery", "doors"])
def test_variant_games_match_rebuilt_variants_corpus(monkeypatch, name):
    _check_variants(monkeypatch, load_spec(name), robotics=False)


def _first_variant(monkeypatch, analysis, session, builder="solve_game"):
    """The first variant game `analysis` would solve (`builder`
    "solve_game") or builds (a name in _VARIANT_BUILDERS), left
    unsolved."""
    import gr1report.analyses as analyses_mod
    session.region()
    build = getattr(analyses_mod, builder)

    class Caught(Exception):
        pass

    def spy(*args, **kwargs):
        raise Caught(args[0] if builder == "solve_game"
                     else build(*args, **kwargs))

    with monkeypatch.context() as m:
        m.setattr(analyses_mod, builder, spy)
        with pytest.raises(Caught) as caught:
            analysis(session)
    return caught.value.args[0]


def test_variants_carry_the_baseline_relations_only_when_unchanged(
        monkeypatch):
    session = Session(load_spec("delivery"))
    base = session.game()
    relations = ("_ts_goal", "_ts_nota", "_ts_nota_stay")
    for analysis in (precommit_analysis, error_resilience):
        game = _first_variant(monkeypatch, analysis, session)
        assert game.precommit or game.position_filter is not None
        for name in relations:
            assert getattr(game, name) == getattr(base, name), name
    for analysis, builder in ((assumption_falsification, "_goal_false"),
                              (stuck_at_analysis, "_stuck")):
        game = _first_variant(monkeypatch, analysis, session, builder)
        assert (game.trans_sys, game.live_sys) != (base.trans_sys,
                                                   base.live_sys)
        for name in relations:
            assert getattr(game, name) is not getattr(base, name), name
        assert game._ts_goal == [game.trans_sys & g for g in game.live_sys]
        assert game._ts_nota == [game.trans_sys & ~a for a in game.live_env]


# ----------------------------------------------------------------------
# verdicts settled from the baseline against direct solves

def _direct_verdicts(session):
    """The semantics, assumption, resilience and stuck-at results with
    every variant game solved from scratch by `solve_game` itself, as
    the analyses did before the baseline settled some of them."""
    game = session.game()
    mgr = game.mgr
    region = solve_game(game)
    verdict = check_realizability(game, region)
    nonstrict = classical(game)
    out = {"semantics": (verdict, check_realizability(
        nonstrict, solve_game(nonstrict)))}
    outputs = verdict == "realizable"
    spec = session.spec
    signals = spec.output_props if outputs else spec.input_props
    out["stuckat"] = {}
    for sig in signals:
        for value in (False, True):
            stuck = _stuck(game, sig, value, outputs)
            out["stuckat"][(sig, value)] = check_realizability(
                stuck, solve_game(stuck))
    if not outputs:
        return out
    out["assumptions"] = []
    for kind in ("env_init", "env_trans", "env_liveness"):
        for part in spec.parts[kind]:
            if part.synthetic:
                continue
            sub_game = _without(session, part)
            sub = solve_game(sub_game)
            goals, test_d = [], False
            for j, (sf, sw) in enumerate(zip(region.strata, sub.strata)):
                depth = max(len(sf), len(sw))
                sf = sf + [region.win] * (depth - len(sf))
                sw = sw + [sub.win] * (depth - len(sw))
                helped = (_union(mgr, [f & ~w for f, w in zip(sf, sw)])
                          & region.win & sub.win)
                if not helped.is_false():
                    goals.append(j)
                    test_d |= not (helped & session.reached()[j]).is_false()
            out["assumptions"].append((
                check_realizability(sub_game, sub) != "realizable",
                region.win != sub.win, bool(goals), test_d, goals))
    out["resilience"] = _direct_resilience(game, region.win)
    return out


def _direct_resilience(game, w, max_k=16):
    """`error_resilience`'s level with every step of the chain solved."""
    mgr = game.mgr
    parts = game.trans_env_parts
    glitch = _exactly_one_violated(mgr, parts) if parts else mgr.false
    if glitch.is_false():
        return INFINITE
    for k in range(1, max_k + 1):
        hole = mgr.and_exists(glitch, ~game.can(game.trans_sys, w),
                              game.primed_inputs)
        region_k = solve_game(replace(game, position_filter=~hole), start=w)
        if region_k.win == w:
            return INFINITE
        if check_realizability(game, region_k) != "realizable":
            return k - 1
        w = region_k.win
    return max_k


def _settled_verdicts(session):
    """The same results from the analyses."""
    sem = semantics_comparison(session)
    out = {"semantics": (sem.strict, sem.nonstrict),
           "stuckat": stuck_at_analysis(session).entries}
    if session.verdict() == "realizable":
        out["assumptions"] = [(v.test_a, v.test_b, v.test_c, v.test_d,
                               v.test_c_goals)
                              for v in classify_assumptions(session)]
        out["resilience"] = error_resilience(session).level
    return out


def _check_settled(spec, robotics):
    want = _direct_verdicts(Session(spec, robotics=robotics))
    got = _settled_verdicts(Session(spec, robotics=robotics))
    assert got == want
    return want


@pytest.mark.parametrize("name", sorted(p.stem for p in
                                        SPEC_DIR.glob("*.spec")))
@pytest.mark.parametrize("robotics", [False, True])
def test_settled_verdicts_match_direct_solves_corpus(name, robotics):
    _check_settled(load_spec(name), robotics)


def test_settled_verdicts_match_direct_solves_random():
    kinds = set()
    for seed in range(200):
        spec = random_boolean_spec(seed)
        for robotics in (False, True):
            want = _check_settled(spec, robotics)
            kinds.add(("realizable" if "resilience" in want
                       else "unrealizable", robotics))
    assert len(kinds) == 4


def _settle_variants(session):
    """Every stuck output, every set of at most two committed outputs
    and all outputs committed together (variants with less system
    power), and every stuck input (more), each with its `weaker`
    flag."""
    game = session.game()
    outs = session.spec.output_props
    for sig in outs:
        for value in (False, True):
            yield _stuck(game, sig, value, True), True
    for sig in session.spec.input_props:
        for value in (False, True):
            yield _stuck(game, sig, value, False), False
    commits = [list(c) for k in (1, 2)
               for c in itertools.combinations(outs, k)]
    if len(outs) > 2:
        commits.append(outs)
    for committed in commits:
        yield replace(game, precommit=committed), True


def _check_settle(spec, counts):
    """`Session.settle` against a cold solve of every variant, under the
    standard and the robotics condition (the game's flag is all that
    differs between them).  Counts in `counts` the variants, by
    direction, that W settles without a solve, and as "untested" the
    unrealizable stronger variants whose cold solve keeps Z at TRUE:
    their solve tests no bound, so only the check of the region that
    comes back finds them unrealizable."""
    session = Session(spec)
    for variant, weaker in _settle_variants(session):
        cold = solve_game(variant)
        for robotics in (False, True):
            v = replace(variant, robotics=robotics)
            want = check_realizability(v, cold)
            assert session.settle(v, weaker) == want, (v, weaker)
            bound = check_realizability(v, session.region())
            counts[weaker] += (bound == "realizable") != weaker
            counts["untested"] += (not weaker and cold.win.is_true()
                                   and want == "unrealizable")


@pytest.mark.parametrize("name", sorted(p.stem for p in
                                        SPEC_DIR.glob("*.spec")))
def test_settle_matches_cold_solves_corpus(name):
    _check_settle(load_spec(name), {False: 0, True: 0, "untested": 0})


def test_settle_matches_cold_solves_random(monkeypatch):
    # with arbiter and chain specs, whose stuck outputs fail the initial
    # condition at a bound some sweeps before the fixpoint
    from conftest import chain_text, random_compare_spec_text
    from test_game import _arbiter_specs
    specs = ([random_boolean_spec(seed) for seed in range(200)]
             + [compile_text(random_compare_spec_text(seed))
                for seed in range(50)]
             + _arbiter_specs(monkeypatch)
             + [compile_text(chain_text(n)) for n in (5, 10, 20)])
    counts = {False: 0, True: 0, "untested": 0}
    for spec in specs:
        _check_settle(spec, counts)
    assert min(counts[False], counts[True]) >= 100, counts
    assert counts["untested"] >= 10, counts


def test_stuck_outputs_stop_at_the_first_failed_bound(monkeypatch):
    # each stuck output of chain(30) fails the initial condition at a
    # bound a few sweeps in; run to their fixpoints, the variant solves
    # made 5880 nu-X steps
    from conftest import chain_text
    import gr1report.game as game_mod
    session = Session(compile_text(chain_text(30)))
    session.region()
    fixpoints = []
    init = game_mod._Fixpoint.__init__

    def noted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        fixpoints.append(self)

    monkeypatch.setattr(game_mod._Fixpoint, "__init__", noted)
    table = stuck_at_analysis(session)
    assert set(table.entries.values()) == {"unrealizable"}
    assert sum(f.steps for f in fixpoints) <= 1500


@pytest.mark.parametrize("name,analysis,most", [
    ("tworobot", stuck_at_analysis, 4), ("tworobot", error_resilience, 0),
    ("delivery", stuck_at_analysis, 0),
    ("tworobot_weak", semantics_comparison, 1)])
def test_solves_left_after_settling_from_the_baseline(monkeypatch, name,
                                                      analysis, most):
    # solves after the strict baseline's, the classical game's solve of
    # its forced-violation set inside game.py included
    import gr1report.analyses as analyses_mod
    import gr1report.game as game_mod
    session = Session(load_spec(name))
    session.region()
    calls = []

    def spy(game, start=None, holds=None):
        calls.append(game)
        return solve_game(game, start=start, holds=holds)

    with monkeypatch.context() as m:
        m.setattr(analyses_mod, "solve_game", spy)
        m.setattr(game_mod, "solve_game", spy)
        analysis(session)
    assert len(calls) <= most


def test_a_low_hit_verdict_keeps_the_starting_capacity(monkeypatch):
    # few of the chain verdict's lookups since its computed table was
    # last cleared hit, so the table is trimmed at its starting capacity
    # of 2^14 entries and never grows: the largest table is that
    # capacity plus one operation's growth
    from conftest import chain_text
    from test_bdd import bounded_sizes
    sizes = bounded_sizes(monkeypatch)
    session = Session(compile_text(chain_text(300)))
    start = session.mgr._capacity
    assert session.verdict() == "realizable"
    assert session.mgr._capacity == start
    growth = max(b - a for (_b, a), (b, _a) in zip(sizes, sizes[1:]))
    largest = max(b for b, _a in sizes)
    assert start < largest <= start + growth


_CLIFF = pytest.mark.xfail(strict=True, reason=(
    "keeping the newer half of the table cascades once one solver sweep "
    "makes more entries than the cap (CHANGES.md, FOUND on this test)"))


@pytest.mark.parametrize("n, divisor", [
    (20, 4), pytest.param(16, 4, marks=_CLIFF),
    pytest.param(20, 5, marks=_CLIFF)])
def test_a_variant_solve_past_the_cap_does_not_thrash(monkeypatch, n,
                                                      divisor):
    # the chain without its liveness assumption: a variant solve whose
    # entries are reused across the fixpoint's iterations.  Keeping the
    # newer half of the table at a cap a quarter of what the solve
    # grows to costs at most half again the recursion calls; clearing
    # the whole table there costs several times as many.  The cap sits
    # just past a cliff: chain(16) at a quarter, or chain(20) at a
    # fifth, makes four to five times the uncapped calls
    from conftest import chain_text
    from test_bdd import RECURSIONS
    calls, sizes = [0], []
    for name in RECURSIONS:
        def counted(self, *args, _fn=getattr(BddManager, name)):
            calls[0] += 1
            return _fn(self, *args)
        monkeypatch.setattr(BddManager, name, counted)
    bound = BddManager._bound_cache

    def noted(self):
        sizes.append(len(self._cache))
        bound(self)
    monkeypatch.setattr(BddManager, "_bound_cache", noted)

    def variant_solve(cache_limit=None):
        session = Session(compile_text(chain_text(n)))
        if cache_limit is not None:
            session.mgr.cache_limit = cache_limit
        session.region()
        session.restart()
        part = session.spec.parts["env_liveness"][0]
        calls[0] = 0
        sizes.clear()
        session.solve(_without(session, part), weaker=True)
        return calls[0], max(sizes)

    uncapped, grown = variant_solve()
    cap = grown // divisor
    capped, _ = variant_solve(cap)
    assert max(sizes) > cap   # entries were dropped during the solve
    assert capped <= 1.5 * uncapped
