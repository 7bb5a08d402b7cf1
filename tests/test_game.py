"""Game construction, the GR(1) fixpoint, extraction, realizability."""

import itertools
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    SPEC_DIR, chain_text, load_spec, random_boolean_spec,
    random_compare_spec_text, spec_path,
)
from gr1report import parse_spec, compile_to_boolean
from gr1report.bdd import FALSE, TRUE, BddManager, BddRef
from gr1report.game import (
    SymbolicGame, build_game, classical, solve_game,
    check_realizability, extract_strategy, ir_to_bdd, reactive_distance,
    reached_positions, start_ok, GameError, _Fixpoint, _level_order, _conj,
    _union,
)
from gr1report.oracle import explicit_solve
from test_bdd import build_bdd, fresh, trees


def solve_text(text, **kw):
    spec = compile_to_boolean(parse_spec(text))
    game = build_game(spec, **kw)
    region = solve_game(game)
    return spec, game, region


def test_level_order_keeps_local_orders_and_places_bits_msb_first():
    n = 40
    chain = compile_to_boolean(parse_spec("\n".join(
        ["[INPUT]", "d", "[OUTPUT]", *(f"s{i}" for i in range(n)),
         "[SYS_TRANS]", "X(s0) <-> d",
         *(f"X(s{i + 1}) <-> s{i}" for i in range(n - 1))]) + "\n"))
    assert _level_order(chain, chain.props) == chain.props
    ids = range(4)
    arbiter = compile_to_boolean(parse_spec("\n".join(
        ["[INPUT]", *(f"r{i}" for i in ids),
         "[OUTPUT]", *(f"g{i}" for i in ids),
         "[ENV_TRANS]", *(f"(r{i} & !g{i}) -> X(r{i})" for i in ids),
         "[SYS_TRANS]",
         *(f"!(X(g{i}) & X(g{j}))" for i in ids for j in range(i + 1, 4)),
         *(f"(r{i} & g{i}) -> X(g{i})" for i in ids),
         *(f"(!r{i} & !g{i}) -> !X(g{i})" for i in ids),
         "[ENV_LIVENESS]", *(f"!(r{i} & g{i})" for i in ids),
         "[SYS_LIVENESS]", *(f"r{i} <-> g{i}" for i in ids)]) + "\n"))
    assert _level_order(arbiter, arbiter.props) == [
        "r0", "g0", "r1", "g1", "g2", "r2", "g3", "r3"]
    spec = load_spec("counter")
    assert spec.props == ["r", "counter@0", "counter@1", "x@0", "x@1",
                          "y@0", "y@1"]
    order = _level_order(spec, spec.props)
    assert order == ["r", "counter@1", "counter@0", "x@1", "x@0",
                     "y@1", "y@0"]
    assert build_game(spec).mgr.var_names[::2] == order
    # build_game places only the signals the manager does not have yet,
    # and the game's positions stay in declaration order
    game = classical(build_game(spec))
    assert game.mgr.var_names[::2] == order
    assert game.positions == spec.props
    # integers that a comparison links are one unit, interleaved in bit
    # slices MSB first; FORCE moves whole units, never single bits
    spec = load_spec("tworobot")
    assert spec.linked == {"sx": ("sx", "px"), "px": ("sx", "px"),
                           "sy": ("sy", "py"), "py": ("sy", "py")}
    order = _level_order(spec, spec.props)
    assert order == ["sx@2", "px@2", "sx@1", "px@1", "sx@0", "px@0",
                     "sy@2", "py@2", "sy@1", "py@1", "sy@0", "py@0"]
    for name, g in spec.groups.items():
        unit = [b for m in spec.linked[name] for b in spec.groups[m].bits]
        at = sorted(order.index(b) for b in unit)
        assert at == list(range(at[0], at[0] + len(unit))), name
        assert [order.index(b) for b in reversed(g.bits)] == sorted(
            order.index(b) for b in g.bits), name


def test_empty_assumptions_normalize():
    spec, game, region = solve_text("[OUTPUT]\ng\n[SYS_LIVENESS]\ng\n")
    assert game.trans_env.is_true()
    assert game.init_env.is_true()
    assert len(game.live_env) == 1 and game.live_env[0].is_true()


def test_safety_guarantee_translates_to_primed():
    spec, game, region = solve_text(
        "[OUTPUT]\ng1\ng2\n[SYS_TRANS]\n!X(g1) | !X(g2)\n")
    bad = game.mgr.var("g1'") & game.mgr.var("g2'")
    assert (game.trans_sys & bad).is_false()


def test_unprimed_safety_part_binds_the_current_step():
    # an X-free TRANS line is a source constraint: standing in g1 & g2
    # is a dead end, entering it is not itself forbidden
    spec, game, region = solve_text(
        "[OUTPUT]\ng1\ng2\n[SYS_TRANS]\n!g1 | !g2\n")
    here = game.mgr.var("g1") & game.mgr.var("g2")
    nxt = game.mgr.var("g1'") & game.mgr.var("g2'")
    assert (game.trans_sys & here).is_false()
    assert not (game.trans_sys & nxt).is_false()
    assert ~region.win == here


def test_unsatisfiable_goal_with_true_assumptions_loses():
    spec, game, region = solve_text("[OUTPUT]\ng\n[SYS_LIVENESS]\nFALSE\n")
    assert region.win.is_false()
    assert check_realizability(game, region) == "unrealizable"


def test_goal_position_has_distance_zero():
    spec, game, region = solve_text("[INPUT]\nr\n[OUTPUT]\ng\n[SYS_LIVENESS]\ng\n")
    assert region.win.is_true()
    pos = {"r": False, "g": True}
    assert reactive_distance(region, pos, 0) == 0
    assert reactive_distance(region, {"r": False, "g": False}, 0) == 1


def test_losing_position_has_infinite_distance():
    spec, game, region = solve_text(
        "[INPUT]\nr\n[OUTPUT]\ng\n[ENV_LIVENESS]\nr\n[SYS_LIVENESS]\nFALSE\n")
    # winning iff the system can starve GF r: it cannot, r is an input
    assert region.win.is_false()
    assert reactive_distance(region, {"r": True, "g": False}, 0) == float("inf")


def test_reactive_distance_goal_index_checked():
    spec, game, region = solve_text("[OUTPUT]\ng\n[SYS_LIVENESS]\ng\n")
    with pytest.raises(GameError, match="out of range"):
        reactive_distance(region, {"g": True}, 3)


def test_fixpoint_stability_on_regression(specs_dir):
    for path in sorted(specs_dir.glob("*.spec")):
        spec = compile_to_boolean(parse_spec(path.read_text()))
        game = build_game(spec)
        region = solve_game(game)
        for j in range(len(game.live_sys)):
            y, _, _, _ = _Fixpoint(game).mu_y(region.win.node, j)
            assert y == region.win.node, (path.name, j)


def test_strata_are_increasing_and_cover_win(specs_dir):
    for name in ("mutex", "doors", "tworobot", "request_grant"):
        spec = load_spec(name)
        game = build_game(spec)
        region = solve_game(game)
        for j, per_goal in enumerate(region.strata):
            for d in range(1, len(per_goal)):
                assert (per_goal[d - 1] & ~per_goal[d]).is_false(), (name, j, d)
            if per_goal:
                assert per_goal[-1] == region.win, (name, j)


def test_interleaved_integers_match_the_oracle():
    linked = 0
    for seed in range(40):
        spec = compile_to_boolean(parse_spec(random_compare_spec_text(seed)))
        linked += bool(spec.linked)
        game = build_game(spec)
        region = solve_game(game)
        ex = explicit_solve(spec)
        assert (game.mgr.to_truthtable(region.win, game.positions)
                == ex.win), seed
        assert check_realizability(game, region) == ex.realizable, seed
    assert linked >= 30


def test_assumption_monotonicity_random():
    # conjoining an assumption never shrinks the winning set
    from conftest import _variant
    checked = 0
    for seed in range(60):
        spec = random_boolean_spec(seed)
        if not spec.parts["env_trans"]:
            continue
        sub = _variant(spec, drop=("env_trans", spec.parts["env_trans"][0].index))
        g_full = build_game(spec)
        r_full = solve_game(g_full)
        g_sub = build_game(sub)
        r_sub = solve_game(g_sub)
        t_full = g_full.mgr.to_truthtable(r_full.win, g_full.positions)
        t_sub = g_sub.mgr.to_truthtable(r_sub.win, g_sub.positions)
        assert t_sub & ~t_full == 0, seed  # win(without) subset of win(full)
        checked += 1
    assert checked > 20


def test_strict_winning_set_inside_nonstrict():
    for seed in range(60):
        spec = random_boolean_spec(seed)
        g_s = build_game(spec)
        r_s = solve_game(g_s)
        g_n = classical(build_game(spec))
        r_n = solve_game(g_n)
        t_s = g_s.mgr.to_truthtable(r_s.win, g_s.positions)
        t_n = g_n.mgr.to_truthtable(r_n.win, g_n.positions)
        assert t_s & ~t_n == 0, seed
        v_s = check_realizability(g_s, r_s)
        v_n = check_realizability(g_n, r_n)
        if v_s == "realizable":
            assert v_n == "realizable", seed


def test_robotics_semantics_is_stricter():
    # realizable normally, but an admissible losing initial output breaks
    # the robotics check
    text = ("[INPUT]\nr\n[OUTPUT]\ng\n[SYS_TRANS]\ng -> X(g)\n"
            "[SYS_LIVENESS]\n!g\n")
    spec = compile_to_boolean(parse_spec(text))
    game = build_game(spec)
    region = solve_game(game)
    assert check_realizability(game, region) == "realizable"
    game_r = build_game(spec, robotics=True)
    region_r = solve_game(game_r)
    assert check_realizability(game_r, region_r) == "unrealizable"


def _region_text(region):
    """A solved region as text: each set by `to_dot`, which names nodes in
    first-visit order, so that in managers with one level order equal
    sets give equal text."""
    dot = region.game.mgr.to_dot
    return (dot(region.win), [[dot(s) for s in per] for per in region.strata],
            [[[dot(x) for x in row] for row in per] for per in region.xcores],
            region.stationary, region.steps,
            check_realizability(region.game, region))


def test_solver_correct_under_aggressive_gc(monkeypatch):
    # the sweeps run on node ids, valid only until the next collection:
    # where the safe point at the top of each mu-Y iteration collects
    # every time and freed slots are reused, an id the sweep still needs
    # but the roots there leave out would change the region.  The
    # reference never collects inside a solve; every budgeted solve
    # collects at least once
    freed = []

    def counted(self, roots=(), _collect=BddManager.collect):
        freed.append(_collect(self, roots))
        return freed[-1]

    monkeypatch.setattr(BddManager, "collect", counted)
    specs = [load_spec(p.stem) for p in sorted(SPEC_DIR.glob("*.spec"))]
    specs += _arbiter_specs(monkeypatch)
    specs += [compile_to_boolean(parse_spec(chain_text(n))) for n in (30, 60)]
    specs += [random_boolean_spec(seed) for seed in range(30)]
    tight = 0
    for k, spec in enumerate(specs):
        never, eager = BddManager(), BddManager()
        never._collect_due = lambda: False
        eager._collect_due = lambda: True     # every safe point collects
        plain, always = [_region_text(solve_game(build_game(spec, mgr=m)))
                         for m in (never, eager)]
        # a budget one above every node the reference made: the budget
        # clause of the due rule collects as the nodes in use near it
        budgeted = BddManager(node_budget=len(never._level) + 1)
        assert always == plain == _region_text(
            solve_game(build_game(spec, mgr=budgeted))), k
        tight += budgeted._live > 0
    assert sum(n > 0 for n in freed) > 500 and tight == len(specs)


def test_empty_conjunction_and_disjunction():
    mgr = fresh()
    assert _conj(mgr, []).is_true() and _union(mgr, []).is_false()


@settings(max_examples=40, deadline=None)
@given(st.lists(trees(), max_size=9))
def test_balanced_reduction_equals_left_fold(ts):
    mgr = fresh()
    sets = [build_bdd(mgr, t) for t in ts]
    conj, disj = mgr.true, mgr.false
    for b in sets:
        conj, disj = conj & b, disj | b
    assert _conj(mgr, sets) == conj and _union(mgr, sets) == disj


def _chain_build_slots(n):
    """Node slots a fresh manager allocates for the n-stage chain game and
    its stationary waiting relation."""
    game = build_game(compile_to_boolean(parse_spec(chain_text(n))))
    game._ts_nota_stay
    return len(game.mgr._level)


def test_chain_game_build_allocation_grows_near_linearly():
    # the chain's relations are linear in n; a left fold allocates each
    # prefix and so about 4x the slots for twice the stages
    assert _chain_build_slots(400) < 2.5 * _chain_build_slots(200)


def test_built_game_is_frozen():
    spec = load_spec("doors")
    for game in (build_game(spec), classical(build_game(spec))):
        for f in fields(game):
            with pytest.raises(FrozenInstanceError):
                setattr(game, f.name, getattr(game, f.name))
        variant = replace(game, precommit=game.outputs[:1])
        assert variant.precommit == game.outputs[:1] and not game.precommit


def test_extraction_requires_realizability():
    spec, game, region = solve_text("[OUTPUT]\ng\n[SYS_LIVENESS]\nFALSE\n")
    with pytest.raises(GameError, match="unrealizable"):
        extract_strategy(game, region)


def test_extraction_deterministic_serialization():
    import json
    spec = load_spec("mutex")
    dumps = []
    for _ in range(2):
        game = build_game(spec)
        region = solve_game(game)
        machine = extract_strategy(game, region)
        dumps.append(json.dumps(machine.to_json(spec), sort_keys=True))
    assert dumps[0] == dumps[1]


def test_machine_states_have_at_most_one_per_label():
    spec = load_spec("patrol")
    game = build_game(spec)
    machine = extract_strategy(game, solve_game(game))
    labels = {(s.inputs, s.outputs, s.goal) for s in machine.states}
    assert len(labels) == len(machine.states)
    # deterministic: one successor per (state, admissible input)
    for sid, edges in machine.transitions.items():
        seen = set()
        for ivals, _nxt in edges:
            assert ivals not in seen
            seen.add(ivals)


def test_robotics_extraction_skips_inputs_without_admissible_output():
    # for r the initial guarantee admits no output: vacuous under robotics
    text = ("[INPUT]\nr\n[OUTPUT]\ng\n[SYS_INIT]\n!r & g\n"
            "[SYS_LIVENESS]\ng\n")
    spec = compile_to_boolean(parse_spec(text))
    game = build_game(spec)
    region = solve_game(game)
    assert check_realizability(game, region) == "unrealizable"
    game = build_game(spec, robotics=True)
    region = solve_game(game)
    assert check_realizability(game, region) == "realizable"
    machine = extract_strategy(game, region)
    assert [machine.states[s].inputs for s in machine.initial] == [(False,)]


def test_spec_without_outputs():
    spec, game, region = solve_text("[INPUT]\nr\ns\n[ENV_LIVENESS]\nr\n")
    assert check_realizability(game, region) == "realizable"
    assert region.win.is_true()


def test_spec_without_parts():
    spec, game, region = solve_text("[OUTPUT]\ng\n")
    assert check_realizability(game, region) == "realizable"
    machine = extract_strategy(game, region)
    assert len(machine.states) == 1


def test_machine_json_shape():
    spec = load_spec("tworobot")
    game = build_game(spec)
    machine = extract_strategy(game, solve_game(game))
    data = machine.to_json(spec)
    assert set(data) == {"states", "initial", "transitions"}
    st = data["states"][0]
    assert set(st) == {"id", "goal", "inputs", "outputs"}
    # integer variables additionally decoded as decimals
    assert "ints" in st["inputs"] and "sx" in st["inputs"]["ints"]
    tr = data["transitions"][0]
    assert set(tr) == {"from", "input", "to"}


def test_machine_json_lists_a_fixed_integer_on_its_own_side():
    # `k: 2...2` and `y: 3...3` compile to no bits
    spec = compile_to_boolean(parse_spec(
        "[INPUT]\nr\nk: 2...2\n[OUTPUT]\ng\ny: 3...3\n"
        "[SYS_TRANS]\nX(g) <-> X(r)\n"))
    game = build_game(spec)
    data = extract_strategy(game, solve_game(game)).to_json(spec)
    assert data["states"] and data["transitions"]
    for st in data["states"]:
        assert st["inputs"]["ints"] == {"k": 2}
        assert st["outputs"]["ints"] == {"y": 3}
    for tr in data["transitions"]:
        assert tr["input"]["ints"] == {"k": 2}


# ----------------------------------------------------------------------
# differential check: the canonical strategy's reached positions against
# the states of the extracted machine

def _specgen(monkeypatch):
    import pathlib
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    import specgen
    return specgen


def _arbiter_specs(monkeypatch, sizes=(3, 4, 5)):
    specgen = _specgen(monkeypatch)
    return [compile_to_boolean(parse_spec(specgen.arbiter(n)))
            for n in sizes]


# only moving waits starve an assumption here, and the two assumptions'
# waits pick different outputs, so the order of the xcores shows
MOVING_WAITS = ("[OUTPUT]\no\np\n[ENV_LIVENESS]\no <-> X(o)\np <-> X(p)\n"
                "[SYS_LIVENESS]\nFALSE\n")


def test_reached_positions_match_the_machine_states(monkeypatch):
    specs = [load_spec(p.stem) for p in sorted(SPEC_DIR.glob("*.spec"))]
    specs += _arbiter_specs(monkeypatch)
    specs.append(compile_to_boolean(parse_spec(MOVING_WAITS)))
    specs += [random_boolean_spec(seed) for seed in range(200)]
    compared = 0
    for k, spec in enumerate(specs):
        for robotics in (False, True):
            game = build_game(spec, robotics=robotics)
            region = solve_game(game)
            if check_realizability(game, region) != "realizable":
                with pytest.raises(GameError, match="unrealizable"):
                    reached_positions(game, region)
                continue
            machine = extract_strategy(game, region)
            reached = reached_positions(game, region)
            assert len(reached) == machine.n_goals
            for j, visited in enumerate(reached):
                states = [machine.position(s) for s in machine.states
                          if s.goal == j]
                assert game.mgr.count_models(visited, game.positions) \
                    == len(states), (k, robotics, j)
                assert all(game.mgr.eval(visited, p) for p in states), (
                    k, robotics, j)
            compared += 1
    assert compared >= 190


# ----------------------------------------------------------------------
# differential check: the monolithic two-pass solver, kept only here

def _old_cpre(game, target):
    """force(exists O'. T_s & target) over the whole target relation."""
    m = game.mgr
    fixed = [o + "'" for o in game.precommit or []]
    rest = [o for o in game.primed_outputs if o not in fixed]
    can = m.and_exists(game.trans_sys, target, rest)
    good = ~m.and_exists(game.trans_env, ~can, game.primed_inputs)
    if fixed:
        good = m.exists(fixed, good)
    if game.position_filter is not None:
        good = good & game.position_filter
    return good


def _stay(game):
    mgr = game.mgr
    stay = mgr.true
    for o in game.outputs:
        stay = stay & mgr.var(o).iff(mgr.var(o + "'"))
    return stay


def _old_mu_y(game, z, j):
    mgr = game.mgr
    stay = _stay(game)
    goal_z = game.live_sys[j] & game.prime(z)
    y, strata, xrows, flags = mgr.false, [], [], []

    def nu_x(base, nota):
        x = mgr.true
        while True:
            xn = _old_cpre(game, base | (nota & game.prime(x)))
            if xn == x:
                return x
            x = xn

    while True:
        base = goal_z | game.prime(y)
        for stationary in (True, False):
            xrow = [nu_x(base, ~a & stay if stationary else ~a)
                    for a in game.live_env]
            ynew = mgr.false
            for x in xrow:
                ynew = ynew | x
            if ynew != y:
                break
        else:
            return y, strata, xrows, flags
        y = ynew
        strata.append(y)
        xrows.append(xrow)
        flags.append(stationary)


def _old_solve(game, start=None):
    """Sweep until Z is stable, then a separate recording pass."""
    z = start if start is not None else game.mgr.true
    while True:
        zprev = z
        for j in range(len(game.live_sys)):
            z = _old_mu_y(game, z, j)[0]
        if z == zprev:
            break
    rows = [_old_mu_y(game, z, j) for j in range(len(game.live_sys))]
    assert all(r[0] == z for r in rows)
    return z, [r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows]


def _random_set(game, rng):
    """A union of a few random cubes over the current positions."""
    mgr = game.mgr
    out = mgr.false
    for _ in range(rng.randint(1, 3)):
        cube = mgr.true
        for p in rng.sample(game.positions, min(2, len(game.positions))):
            cube = cube & (mgr.var(p) if rng.random() < 0.5 else mgr.nvar(p))
        out = out | cube
    return out


def _assert_same_region(game, region, start=None):
    win, strata, xcores, stationary = _old_solve(game, start)
    assert region.win == win
    assert region.strata == strata
    assert region.xcores == xcores
    assert region.stationary == stationary


def test_decomposed_step_matches_monolithic_cpre():
    checked = 0
    for seed in range(40):
        spec = random_boolean_spec(seed)
        rng = random.Random(seed)
        for base in (build_game(spec), classical(build_game(spec))):
            stay = _stay(base)
            outs = list(spec.output_props)
            variants = ((None, None),
                        (rng.sample(outs, rng.randint(1, len(outs))), None),
                        (None, _random_set(base, rng)))
            for precommit, position_filter in variants:
                game = replace(base, precommit=precommit,
                               position_filter=position_filter)
                z, y, x = (_random_set(game, rng) for _ in range(3))
                for j in range(len(game.live_sys)):
                    for i, a in enumerate(game.live_env):
                        waits = ((~a & stay, game._ts_nota_stay[i]),
                                 (~a, game._ts_nota[i]))
                        for nota, wait in waits:
                            target = ((game.live_sys[j] & game.prime(z))
                                      | game.prime(y)
                                      | (nota & game.prime(x)))
                            new = game.cpre(game.can(game._ts_goal[j], z)
                                            | game.can(game.trans_sys, y)
                                            | game.can(wait, x))
                            assert new == _old_cpre(game, target), seed
                            checked += 1
                assert game.cox(z) == _old_cpre(game, game.prime(z))
    assert checked > 300


def test_one_pass_solver_matches_two_pass():
    for case in ("mutex", "doors", "request_grant", *range(30)):
        spec = (load_spec(case) if isinstance(case, str)
                else random_boolean_spec(case))
        rng = random.Random(case)
        for game in (build_game(spec), classical(build_game(spec))):
            cold = solve_game(game)
            _assert_same_region(game, cold)
            # re-recording from the exact winning set, as a session does
            _assert_same_region(game, solve_game(game, start=cold.win),
                                start=cold.win)
            assert solve_game(game).win == cold.win
            # less system power, started warm from the baseline
            outs = list(spec.output_props)
            variants = ((rng.sample(outs, rng.randint(1, len(outs))), None),
                        (None, _random_set(game, rng)))
            for precommit, position_filter in variants:
                variant = replace(game, precommit=precommit,
                                  position_filter=position_filter)
                _assert_same_region(variant,
                                    solve_game(variant, start=cold.win),
                                    start=cold.win)
                _assert_same_region(variant, solve_game(variant))


def test_a_bounded_solve_stops_only_where_the_winning_set_fails():
    # `holds` sees each bound Z once, after the goal that moved it, and
    # every bound holds the winning set; so a solve stops only on a game
    # whose winning set fails the test, at the first bound that does,
    # and otherwise returns the unbounded solve's region
    stopped = returned = 0
    for seed in range(60):
        spec = random_boolean_spec(seed)
        for robotics in (False, True):
            game = build_game(spec, robotics=robotics)
            full = solve_game(game)
            seen = []

            def holds(v):
                seen.append(v)
                return start_ok(game, v)

            got = solve_game(game, holds=holds)
            assert all(b != a and b.implies(a).is_true()
                       for a, b in zip(seen, seen[1:]))
            assert all(full.win.implies(v).is_true() for v in seen)
            if got is None:
                assert [start_ok(game, v) for v in seen] == (
                    [True] * (len(seen) - 1) + [False])
                assert check_realizability(game, full) == "unrealizable"
                stopped += 1
            else:
                assert (got.win, got.strata, got.xcores, got.stationary,
                        got.steps) == (full.win, full.strata, full.xcores,
                                       full.stationary, full.steps)
                returned += 1
    assert stopped >= 10 and returned >= 10, (stopped, returned)


# ----------------------------------------------------------------------
# differential check: the classical game as the tracker construction
# that built it from the specification, kept only here

ENV_VIOL, SYS_VIOL = "__env_viol", "__sys_viol"


def _old_nonstrict(spec, mgr):
    """(game, init_env_user & init_sys_user) of the classical game built
    from the specification with two tracker outputs, which record
    whether either side has violated its safety parts and which the
    liveness conditions absorb; declared last in `mgr`, which has every
    signal of the specification."""
    for t in (ENV_VIOL, SYS_VIOL):
        mgr.declare_signal(t)
    memo = {}

    def bdds(kind):
        return [ir_to_bdd(mgr, p.ir, memo) for p in spec.parts[kind]]

    init_env = _conj(mgr, bdds("env_init"))
    init_sys = _conj(mgr, bdds("sys_init"))
    trans_env = _conj(mgr, bdds("env_trans"))
    trans_sys = _conj(mgr, bdds("sys_trans"))
    live_env = bdds("env_liveness") or [mgr.true]
    live_sys = bdds("sys_liveness") or [mgr.true]
    trackers = [ENV_VIOL, SYS_VIOL]
    ev, sv = mgr.var(ENV_VIOL), mgr.var(SYS_VIOL)
    evp, svp = mgr.var(ENV_VIOL + "'"), mgr.var(SYS_VIOL + "'")
    game = SymbolicGame(
        mgr=mgr, robotics=False, inputs=list(spec.input_props),
        outputs=list(spec.output_props) + trackers,
        positions=list(spec.props) + trackers,
        init_sys=ev.iff(~init_env) & sv.iff(~init_sys),
        trans_sys=evp.iff(ev | ~trans_env) & svp.iff(sv | ~trans_sys),
        live_env=[a & ~ev for a in live_env],
        live_sys=[g & ~sv for g in live_sys],
        init_env_parts=[], trans_env_parts=[])
    assert game.init_env.is_true() and game.trans_env.is_true()
    return game, init_env & init_sys


def _old_verdict(old, user_init, region, robotics):
    """The tracker game's verdict: under robotics realizability, every
    initial position admitted by the user's initial conditions must be
    winning with some tracker values."""
    if not robotics:
        return check_realizability(old, region)
    mgr = old.mgr
    inner = mgr.exists([ENV_VIOL, SYS_VIOL], old.init_sys & region.win)
    user_outputs = [o for o in old.outputs if o not in (ENV_VIOL, SYS_VIOL)]
    ok = mgr.forall(old.inputs + user_outputs, user_init.implies(inner))
    return "realizable" if ok.is_true() else "unrealizable"


def test_classical_edit_matches_the_old_nonstrict_construction():
    specs = [load_spec(p.stem) for p in sorted(SPEC_DIR.glob("*.spec"))]
    specs += [random_boolean_spec(seed) for seed in range(100)]
    differs = 0
    for k, spec in enumerate(specs):
        strict = build_game(spec)
        names = list(strict.mgr.var_names)
        game = classical(strict)
        assert game.mgr.var_names == names, k      # declares no signal
        assert game.outputs == spec.output_props, k
        assert game.positions == spec.props, k
        got = solve_game(game)
        old, user_init = _old_nonstrict(spec, game.mgr)
        want = solve_game(old)
        clean = game.mgr.restrict(want.win, {ENV_VIOL: False,
                                             SYS_VIOL: False})
        assert got.win == clean, k
        for robotics in (False, True):
            verdict = check_realizability(replace(game, robotics=robotics),
                                          got)
            assert verdict == _old_verdict(old, user_init, want,
                                           robotics), (k, robotics)
        differs += (check_realizability(strict, solve_game(strict))
                    != check_realizability(game, got))
    assert differs > 10


def test_classical_declares_the_trackers_once_and_rejects_reserved_names():
    # the classical game once declared two tracker outputs and reserved
    # their names; it declares no signal now, so no name is reserved
    spec = load_spec("doors")
    strict = build_game(spec)
    names = list(strict.mgr.var_names)
    game = classical(strict)
    assert strict.mgr.var_names == names
    # a second edit gives the same game and declares nothing either
    assert classical(strict).trans_sys == game.trans_sys
    assert strict.mgr.var_names == names
    named = compile_to_boolean(parse_spec(
        "[INPUT]\nr\n[OUTPUT]\n__sys_viol\n"))
    game = classical(build_game(named))
    assert game.outputs == ["__sys_viol"]
    assert check_realizability(game, solve_game(game)) == "realizable"


# ----------------------------------------------------------------------
# the kernel's fast path during a solve

# per recursion: whether its operands decide it without a recursion
DECIDED = {
    "_and": lambda f, g: f <= TRUE or g <= TRUE,
    "_or": lambda f, g: f <= TRUE or g <= TRUE,
    "_xor": lambda f, g: f <= TRUE or g <= TRUE,
    "_not": lambda f: f <= TRUE,
    "_shift": lambda f, op, delta: f <= TRUE,
    "_and_exists": lambda f, g, qid: FALSE in (f, g),
    "_and_exists_primed": lambda f, g, qid: FALSE in (f, g),
    "_or_forall": lambda f, g, qid: TRUE in (f, g),
}


@pytest.mark.parametrize("spec", ["chain", "tworobot"])
def test_a_solve_renames_nothing_and_settles_terminals_before_the_call(
        monkeypatch, spec):
    spec = (compile_to_boolean(parse_spec(chain_text(20))) if spec == "chain"
            else load_spec(spec))
    game = build_game(spec)
    renames, settled_late, entered = [], [], [0]
    depth = [0]

    def recursion(name, fn):
        def wrapped(self, *args):
            entered[0] += 1
            if depth[0] and DECIDED[name](*args):
                settled_late.append((name, args))
            depth[0] += 1
            try:
                return fn(self, *args)
            finally:
                depth[0] -= 1
        return wrapped

    for name in DECIDED:
        monkeypatch.setattr(BddManager, name,
                            recursion(name, getattr(BddManager, name)))

    def counted_rename(self, f, direction, _rename=BddManager.rename):
        renames.append(direction)
        return _rename(self, f, direction)

    monkeypatch.setattr(BddManager, "rename", counted_rename)
    region = solve_game(game)
    assert check_realizability(game, region) == "realizable"
    assert entered[0] > 1000
    assert renames == []
    assert settled_late == []


def _product_inputs():
    """(name, game, operands): every corpus game, strict and classical,
    against the win and first strata of its own solve; and a 12-stage
    chain against every stratum and the literals of its late stages,
    whose deep tops let `can` start from a rung of the relation's
    ladder."""
    for path in sorted(SPEC_DIR.glob("*.spec")):
        spec = load_spec(path.stem)
        for base in (build_game(spec), classical(build_game(spec))):
            m = base.mgr
            region = solve_game(base)
            sets = [m.true, m.false, region.win]
            sets += [s for strata in region.strata for s in strata[:2]]
            yield path.stem, base, sets
    base = build_game(compile_to_boolean(parse_spec(chain_text(12))))
    m = base.mgr
    region = solve_game(base)
    sets = [m.true, m.false, region.win]
    sets += [s for strata in region.strata for s in strata]
    sets += [lit(f"s{i}") for i in range(6, 12) for lit in (m.var, m.nvar)]
    yield "chain12", base, sets


def test_can_matches_the_product_with_the_primed_copy():
    # each game of `_product_inputs` and each precommit variant of at
    # most two outputs, against the product with the primed copy
    checked = 0
    for name, base, sets in _product_inputs():
        m = base.mgr
        outs = base.outputs
        commits = [None] + [list(c) for k in (1, 2)
                            for c in itertools.combinations(outs, k)]
        for precommit in commits:
            game = replace(base, precommit=precommit)
            rels = [game.trans_sys, *game._ts_goal, *game._ts_nota,
                    *game._ts_nota_stay]
            for rel in rels:
                for v in sets:
                    want = m.and_exists(rel, game.prime(v),
                                        game._chosen_outputs)
                    assert game.can(rel, v) == want, (name, precommit)
                    checked += 1
    assert checked > 1000


# ----------------------------------------------------------------------
# the fixpoint on node ids

def test_a_solve_wraps_only_the_sets_it_keeps(monkeypatch):
    # handles are made only for the sets the solve returns, not per
    # kernel operation (1433 on this solve when each made one)
    game = build_game(_arbiter_specs(monkeypatch, (4,))[0])
    for name in ("_step", "_ts_goal", "_ts_nota", "_ts_nota_stay"):
        getattr(game, name)    # the game's relations, built beforehand
    made = [0]

    def counted(self, mgr, node, _init=BddRef.__init__):
        made[0] += 1
        _init(self, mgr, node)

    monkeypatch.setattr(BddRef, "__init__", counted)
    region = solve_game(game)
    assert 0 < made[0] <= 200
    assert check_realizability(game, region) == "realizable"


def test_a_solve_counts_its_controllable_steps(monkeypatch):
    # a step is one nu-X round: a `cpre` call when the solver ran on
    # handles, whose counts these are
    specgen = _specgen(monkeypatch)
    texts = {"tworobot": spec_path("tworobot").read_text(),
             "doors": spec_path("doors").read_text(),
             "arbiter4": specgen.arbiter(4), "chain300": specgen.chain(300)}
    steps = {name: solve_game(build_game(
                 compile_to_boolean(parse_spec(text)))).steps
             for name, text in texts.items()}
    assert steps == {"tworobot": 60, "doors": 162, "arbiter4": 344,
                     "chain300": 903}


def test_a_chain_solve_skips_the_relation_prefix(monkeypatch):
    # `can` starts each product from the rung of the relation's ladder
    # above the iterate's top; the plain product walked the prefix of
    # `trans_sys` once per mu-Y step, 181,562 calls on this solve.  The
    # count includes the recomputations after 7 trims of the computed
    # table at its starting capacity of 2^14 entries (few lookups hit
    # since the table was last cleared), and after the one collection
    # inside the sweep, which clears the table: 93,805 calls without
    # either
    from test_bdd import RECURSIONS
    game = build_game(compile_to_boolean(parse_spec(chain_text(150))))
    calls = [0]
    for name in RECURSIONS:
        def counted(self, *args, _fn=getattr(BddManager, name)):
            calls[0] += 1
            return _fn(self, *args)
        monkeypatch.setattr(BddManager, name, counted)
    region = solve_game(game)
    assert check_realizability(game, region) == "realizable"
    assert region.steps == 453
    assert calls[0] == 96261
