"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 1-7 pin the workspace examples to their published analysis
results; 8-12 are the property suites (oracle equivalence, strategy
soundness, monotonicity, cube correctness, report determinism).
"""

import time
from dataclasses import replace

from conftest import load_spec, spec_path, random_boolean_spec
from gr1report.analyses import (
    assumption_falsification, classify_assumptions, error_resilience,
    precommit_analysis, semantics_comparison, stuck_at_analysis,
)
from gr1report.game import (
    build_game, solve_game, check_realizability, extract_strategy,
)
from gr1report.oracle import brute_force_primes, explicit_solve, model_check
from gr1report.report import ReportConfig, run_report
from gr1report.traces import abstract_strategy


def _ok(n, label):
    print(f"ACCEPTANCE {n}: {label}: PASS")


def _int_eq(mgr, spec, name, value, primed=False):
    g = spec.groups[name]
    out = mgr.true
    enc = value - g.lo
    for i, b in enumerate(g.bits):
        v = mgr.var(b + ("'" if primed else ""))
        out = out & (v if (enc >> i) & 1 else ~v)
    return out


def test_criterion_1_mutex():
    spec = load_spec("mutex")
    game = build_game(spec)
    region = solve_game(game)
    assert check_realizability(game, region) == "realizable"
    # zero losing positions among those violating the initial guarantees
    losing_bad_init = ~region.win & ~game.init_sys
    assert game.mgr.count_models(losing_bad_init, game.positions) == 0

    spec2 = load_spec("mutex_fixed")
    g2 = build_game(spec2)
    r2 = solve_game(g2)
    assert check_realizability(g2, r2) == "realizable"
    cube = g2.mgr.var("promise1") & g2.mgr.var("promise2")
    assert ~r2.win == cube  # exact BDD equality
    _ok(1, "mutex losing-position analysis")


def test_criterion_2_two_robot_falsification():
    spec = load_spec("tworobot")
    game = build_game(spec)
    region = solve_game(game)
    assert check_realizability(game, region) == "realizable"
    res = assumption_falsification(spec)
    assert res.count > 0
    fmgr = res.game.mgr
    for sx in (0, 1, 2):
        trap = (_int_eq(fmgr, spec, "sx", sx) & _int_eq(fmgr, spec, "sy", 4)
                & _int_eq(fmgr, spec, "px", sx + 1)
                & _int_eq(fmgr, spec, "py", 4))
        assert trap.implies(res.region_bdd).is_true(), sx

    weak = load_spec("tworobot_weak")
    gw = build_game(weak)
    rw = solve_game(gw)
    assert check_realizability(gw, rw) == "realizable"
    res_w = assumption_falsification(weak)
    assert res_w.count == 0
    _ok(2, "two-robot assumption falsification")


def test_criterion_3_doors_assumption_classification():
    verdicts = classify_assumptions(load_spec("doors"))
    by_text = {v.text: v for v in verdicts}
    top, bottom = by_text["door_top"], by_text["door_bottom"]
    assert top.test_a is False and bottom.test_a is False
    assert top.test_c is True and top.test_d is False
    assert top.verdict == "useful"
    assert bottom.test_c is True and set(bottom.test_c_goals) == {0, 1}
    _ok(3, "doors superfluous-assumption tests")


def test_criterion_4_delivery_resilience_and_stuckat():
    res = error_resilience(load_spec("delivery"), max_k=16)
    assert res.level == 5 and not res.exceeded
    res2 = error_resilience(load_spec("delivery_ready"), max_k=16)
    assert res2.level == 1 and not res2.exceeded
    tbl = stuck_at_analysis(load_spec("delivery"))
    assert tbl.direction == "outputs"
    for sig in ("up", "down", "left", "right", "ready"):
        assert tbl.entries[(sig, False)] == "realizable", sig
    _ok(4, "delivery glitch tolerance 5/1 and stuck-at-0 outputs")


def test_criterion_5_patrol_precommit():
    r = precommit_analysis(load_spec("patrol"))
    assert r.per_output == {"r1": True, "r2": True, "r3": True,
                            "r4": True, "r5": True, "camera": False}
    assert r.maximal_set == ["r1", "r2", "r3", "r4", "r5"]
    _ok(5, "patrol precommittable outputs")


def test_criterion_6_counter_abstract_table():
    ab = abstract_strategy(load_spec("counter"))
    assert ab.winner == "environment"
    rows = {name: [rd[name] for rd in ab.rounds]
            for name in ("r", "counter", "x", "y")}
    assert rows["r"] == [True, False, True, False, True, False, True, "X"]
    assert rows["counter"] == [0, 1, 1, 2, 2, 3, 3, "X"]
    assert rows["x"] == [0] + ["star"] * 6 + ["X"]
    assert rows["y"] == [0] + ["star"] * 6 + ["X"]
    _ok(6, "counter abstract counter-strategy table")


def test_criterion_7_strict_vs_nonstrict():
    sc = semantics_comparison(load_spec("parity_tracker"))
    assert sc.strict == "unrealizable"
    assert sc.nonstrict == "realizable"
    assert sc.differs is True
    _ok(7, "strict vs. classical implication comparison")


def test_criterion_8_oracle_equivalence_200_random_specs():
    t0 = time.monotonic()
    for seed in range(200):
        spec = random_boolean_spec(seed, max_bits=12)
        game = build_game(spec)
        region = solve_game(game)
        assert (game.mgr.to_truthtable(region.win, game.positions)
                == explicit_solve(spec).win), seed
        ex = explicit_solve(spec)
        assert check_realizability(game, region) == ex.realizable, seed
        for j in range(len(region.strata)):
            sym = [game.mgr.to_truthtable(s, game.positions)
                   for s in region.strata[j]]
            assert sym == ex.strata[j], (seed, j)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, elapsed
    _ok(8, f"oracle equivalence on 200 random specs ({elapsed:.1f}s)")


def test_criterion_9_strategy_soundness():
    checked = 0
    for name in ("mutex", "mutex_fixed", "patrol", "request_grant", "doors",
                 "tworobot", "delivery", "delivery_ready"):
        spec = load_spec(name)
        game = build_game(spec)
        region = solve_game(game)
        if check_realizability(game, region) != "realizable":
            continue
        machine = extract_strategy(game, region)
        assert model_check(machine, spec) is None, name
        checked += 1
    for seed in range(120):
        spec = random_boolean_spec(seed)
        game = build_game(spec)
        region = solve_game(game)
        if check_realizability(game, region) != "realizable":
            continue
        machine = extract_strategy(game, region)
        assert model_check(machine, spec) is None, seed
        checked += 1
    assert checked > 40
    _ok(9, f"model check passes for {checked} extracted strategies")


def test_criterion_10_monotonicity_suites():
    from conftest import _variant

    # (a) assumption monotonicity of the winning set
    checked_a = 0
    for seed in range(60):
        spec = random_boolean_spec(seed)
        if not spec.parts["env_trans"]:
            continue
        sub = _variant(spec, drop=("env_trans",
                                   spec.parts["env_trans"][0].index))
        gf, gs = build_game(spec), build_game(sub)
        tf = gf.mgr.to_truthtable(solve_game(gf).win,
                                  gf.positions)
        tsub = gs.mgr.to_truthtable(solve_game(gs).win,
                                    gs.positions)
        assert tsub & ~tf == 0, seed
        checked_a += 1

    # (b) resilience monotone in the budget
    spec = load_spec("delivery")
    game = build_game(spec)
    region = solve_game(game)
    mgr = game.mgr
    parts = game.trans_env_parts
    glitch = mgr.false
    for ell in range(len(parts)):
        term = ~parts[ell]
        for m in range(len(parts)):
            if m != ell:
                term = term & parts[m]
        glitch = glitch | term
    w = region.win
    flags = []
    for k in range(1, 8):
        canv = mgr.and_exists(game.trans_sys, game.prime(w),
                              game.primed_outputs)
        hole = mgr.and_exists(glitch, ~canv, game.primed_inputs)
        r = solve_game(replace(game, position_filter=~hole), start=w)
        flags.append(check_realizability(game, r) == "realizable")
        w = r.win
    assert flags == sorted(flags, reverse=True)

    # (c) precommit subset closure
    spec = load_spec("patrol")
    game = build_game(spec)

    def realizable_with(sub):
        committed = replace(game, precommit=list(sub))
        return check_realizability(
            committed, solve_game(committed)) == "realizable"

    full = ["r1", "r2", "r3", "r4", "r5"]
    assert realizable_with(full)
    for o in full:
        assert realizable_with([o]), o
    assert realizable_with(full[:3])

    # (d) strict subset of non-strict
    for seed in range(60):
        sc = semantics_comparison(random_boolean_spec(seed))
        if sc.strict == "realizable":
            assert sc.nonstrict == "realizable", seed
    _ok(10, f"monotonicity suites ({checked_a} assumption-removal checks)")


def test_criterion_11_cube_correctness():
    import random
    from gr1report.bdd import BddManager

    rng = random.Random(11)
    for n in (4, 6, 8):
        names = [f"v{i}" for i in range(n)]
        m = BddManager()
        for nm in names:
            m.declare_signal(nm)
        for _ in range(12):
            table = rng.getrandbits(1 << n)
            if table == 0:
                continue
            f = m.false
            for i in range(1 << n):
                if (table >> i) & 1:
                    lit = m.true
                    for k, nm in enumerate(names):
                        bit = (i >> (n - 1 - k)) & 1
                        lit = lit & (m.var(nm) if bit else ~m.var(nm))
                    f = f | lit
            cubes = list(m.prime_cubes(f, names))
            union = m.false
            for c in cubes:
                lit = m.true
                for nm, val in c.literals:
                    lit = lit & (m.var(nm) if val else ~m.var(nm))
                assert (lit & ~f).is_false()
                union = union | lit
            assert union == f
            idx = {nm: i for i, nm in enumerate(names)}
            got = {frozenset((idx[nm], v) for nm, v in c.literals)
                   for c in cubes}
            assert got == brute_force_primes(table, n)
    # sixteen variables, sparse function
    names = [f"v{i}" for i in range(16)]
    m = BddManager()
    for nm in names:
        m.declare_signal(nm)
    minterms = sorted(rng.sample(range(1 << 16), 48))
    f, table = m.false, 0
    for i in minterms:
        table |= 1 << i
        lit = m.true
        for k, nm in enumerate(names):
            bit = (i >> (16 - 1 - k)) & 1
            lit = lit & (m.var(nm) if bit else ~m.var(nm))
        f = f | lit
    idx = {nm: i for i, nm in enumerate(names)}
    got = {frozenset((idx[nm], v) for nm, v in c.literals)
           for c in m.prime_cubes(f, names)}
    assert got == brute_force_primes(table, 16)
    _ok(11, "prime cube correctness up to 16 variables")


def test_criterion_12_report_determinism(tmp_path):
    for name in ("mutex", "counter", "patrol"):
        blobs = []
        for k in range(2):
            run_report(spec_path(name), ReportConfig(),
                       json_path=tmp_path / f"{name}{k}.json",
                       html_path=tmp_path / f"{name}{k}.html", log=None)
            blobs.append((tmp_path / f"{name}{k}.json").read_bytes())
        assert blobs[0] == blobs[1], name
    _ok(12, "byte-identical report JSON across runs")
