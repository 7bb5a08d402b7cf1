"""Nominal traces replay correctly; abstract strategies are sound."""

import pytest

from conftest import (SPEC_DIR, chain_text, load_spec, random_boolean_spec,
                      random_spec_text)
from gr1report import parse_spec, compile_to_boolean
from gr1report.analyses import Session
from gr1report.bdd import BddManager
from gr1report.game import _conj, extract_strategy, start_ok
from gr1report.oracle import eval_ir
from gr1report.traces import (
    nominal_trace, abstract_strategy, AbstractStrategy, AnnotatedTrace,
    TraceError, TraceStep, STAR, VIOLATION, _attractor, _env_ranks,
)


def compile_text(text):
    return compile_to_boolean(parse_spec(text))


def _env_of(spec, step, nxt=None):
    vals = {}
    for name, v in list(step.inputs.items()) + list(step.outputs.items()):
        if name in spec.groups:
            g = spec.groups[name]
            for i, b in enumerate(g.bits):
                vals[(b, False)] = bool(((v - g.lo) >> i) & 1)
        else:
            vals[(name, False)] = v
    if nxt is not None:
        for (b, primed), v in _env_of(spec, nxt).items():
            vals[(b, True)] = v
    return vals


def replay_ok(spec, trace: AnnotatedTrace) -> bool:
    """Trace validity checked against the parts only, not the generator."""
    te = [p.ir for p in spec.parts["env_trans"]]
    ts = [p.ir for p in spec.parts["sys_trans"]]
    ie = [p.ir for p in spec.parts["env_init"]]
    i_s = [p.ir for p in spec.parts["sys_init"]]
    env0 = _env_of(spec, trace.steps[0])
    if not all(eval_ir(p, env0) for p in ie + i_s):
        return False
    for a, b in zip(trace.steps, trace.steps[1:]):
        env = _env_of(spec, a, b)
        if not all(eval_ir(p, env) for p in te + ts):
            return False
    return True


def lasso_satisfies_liveness(spec, trace: AnnotatedTrace) -> bool:
    k = trace.lasso_start
    cycle = trace.steps[k:]
    if not cycle:
        return False
    pairs = list(zip(cycle, cycle[1:] + [cycle[0]]))
    for kind in ("env_liveness", "sys_liveness"):
        for part in spec.parts[kind]:
            if not any(eval_ir(part.ir, _env_of(spec, a, b))
                       for a, b in pairs):
                return False
    return True


def test_trace_replays_on_regression_corpus():
    for name in ("mutex", "patrol", "doors", "tworobot", "delivery_ready",
                 "request_grant"):
        spec = load_spec(name)
        tr = nominal_trace(spec, max_steps=48)
        assert isinstance(tr, AnnotatedTrace), name
        assert replay_ok(spec, tr), name
        assert tr.lasso_start < len(tr.steps), name
        assert lasso_satisfies_liveness(spec, tr), name


def test_trace_lasso_contains_assumed_event():
    spec = compile_text(
        "[INPUT]\nr\n[OUTPUT]\ng\n[ENV_LIVENESS]\nr\n[SYS_LIVENESS]\nTRUE\n")
    tr = nominal_trace(spec)
    assert isinstance(tr, AnnotatedTrace)
    assert any(s.inputs["r"] for s in tr.steps[tr.lasso_start:])


def test_trace_requires_realizability():
    with pytest.raises(TraceError, match="realizable"):
        nominal_trace(load_spec("counter"))


def test_trace_reports_unwinnable_environment():
    # the environment cannot honor GF(r & !r)
    spec = compile_text(
        "[INPUT]\nr\n[OUTPUT]\ng\n[ENV_LIVENESS]\nr & !r\n"
        "[SYS_LIVENESS]\nTRUE\n")
    out = nominal_trace(spec)
    assert isinstance(out, dict) and "finding" in out


def test_trace_deterministic():
    spec = load_spec("doors")
    t1 = nominal_trace(spec).to_json()
    t2 = nominal_trace(spec).to_json()
    assert t1 == t2


def test_trace_json_shape():
    spec = load_spec("mutex")
    data = nominal_trace(spec).to_json()
    assert set(data) == {"steps", "lassoStart"}
    assert set(data["steps"][0]) == {"in", "out", "envGoal", "sysGoal"}


def test_a_fixed_integer_is_listed_on_its_own_side():
    # `k: 2...2` and `y: 3...3` compile to no bits
    spec = compile_text("[INPUT]\nr\nk: 2...2\n[OUTPUT]\ng\ny: 3...3\n"
                        "[SYS_TRANS]\nX(g) <-> X(r)\n")
    assert spec.groups["k"].bits == spec.groups["y"].bits == ()
    steps = nominal_trace(spec).to_json()["steps"]
    assert steps and all(s["in"] == {"r": s["in"]["r"], "k": 2}
                         and s["out"] == {"g": s["out"]["g"], "y": 3}
                         for s in steps)


# ----------------------------------------------------------------------
# differential check: the nominal trace played on the extracted machine,
# kept only here

def _env_buchi_two_pass(game):
    """The environment's winning set for its liveness assumptions and,
    per assumption, the iterates of its attractor toward a_i & W': the
    generalized-Buchi fixpoint swept until W is stable, then one more
    sweep of mu-R against the final W for the iterates."""
    mgr = game.mgr

    def mu_r(i, w):
        hit = game.live_env[i] & game.prime(w)
        rs, r = [], mgr.false
        while True:
            rn = game.env_pre(hit | game.prime(r))
            if rn == r:
                return r, rs
            r = rn
            rs.append(r)

    w = mgr.true
    while True:
        wprev = w
        for i in range(len(game.live_env)):
            w, _ = mu_r(i, w)
        if w == wprev:
            break
    return w, [mu_r(i, w)[1] for i in range(len(game.live_env))]


def _machine_trace(session, max_steps=64):
    """The nominal trace that walks the transitions of the whole
    extracted machine; its lasso key is (state, environment goal)."""
    spec, game, region = session.spec, session.game(), session.region()
    mgr = game.mgr
    starts = game.init_env & game.init_sys & region.win
    if starts.is_false():
        return {"finding": "no initial position satisfies the initial parts"}
    p0 = mgr.pick_min_model(starts, game.positions)
    w_env, iterates = _env_buchi_two_pass(game)
    if not mgr.eval(w_env, p0):
        return {"finding": "the environment cannot satisfy its liveness "
                           "assumptions from the initial position"}
    machine = extract_strategy(game, region)
    in_names, out_names = machine.input_names, machine.output_names
    state = next(machine.states[sid] for sid in machine.initial
                 if machine.states[sid].inputs
                 == tuple(p0[n] for n in in_names))
    assert state.outputs == tuple(p0[n] for n in out_names)
    trans = {sid: dict(edges) for sid, edges in machine.transitions.items()}
    m = len(game.live_env)
    steps, seen, c = [], {}, 0
    while len(steps) < max_steps:
        pos = machine.position(state)
        if (state.sid, c) in seen:
            return AnnotatedTrace(steps=steps, lasso_start=seen[state.sid, c])
        seen[state.sid, c] = len(steps)
        steps.append(TraceStep(
            inputs=spec.decode(pos, "input"),
            outputs=spec.decode(pos, "output"),
            env_goal=c, sys_goal=state.goal))
        rank = next(r for r, s in enumerate(iterates[c]) if mgr.eval(s, pos))
        good = game.live_env[c] & game.prime(w_env)
        if rank > 0:
            good = good | game.prime(iterates[c][rank - 1])
        moves = mgr.restrict(game.trans_env & game.forced(good), pos)
        imodel = mgr.pick_min_model(moves, game.primed_inputs)
        nxt = machine.states[
            trans[state.sid][tuple(imodel[n + "'"] for n in in_names)]]
        full = dict(pos)
        full.update({n + "'": v for n, v in
                     zip(in_names + out_names, nxt.inputs + nxt.outputs)})
        if mgr.eval(game.live_env[c], full):
            c = (c + 1) % m
        state = nxt
    return AnnotatedTrace(steps=steps, lasso_start=len(steps))


def test_nominal_trace_matches_the_machine_played_trace():
    specs = [load_spec(p.stem) for p in sorted(SPEC_DIR.glob("*.spec"))]
    specs += [random_boolean_spec(seed) for seed in range(200)]
    traces = cut = 0
    for k, spec in enumerate(specs):
        for robotics in (False, True):
            session = Session(spec, robotics=robotics)
            if session.verdict() != "realizable":
                continue
            for max_steps in (64, 3):
                want = _machine_trace(session, max_steps)
                assert nominal_trace(session, max_steps) == want, (
                    k, robotics, max_steps)
                if isinstance(want, AnnotatedTrace):
                    traces += 1
                    cut += want.lasso_start == len(want.steps) == max_steps
    assert traces >= 50 and cut >= 15, (traces, cut)


def test_a_chain_trace_breaks_its_ties_on_the_played_pair(monkeypatch):
    # `canonical_moves` leaves the ties of a step's moves to
    # `pick_min_model`: narrowing them bit by bit over the relation as
    # well made 80,561 recursion calls on this trace, growing as n^3
    from test_bdd import RECURSIONS
    session = Session(compile_text(chain_text(30)))
    assert session.verdict() == "realizable"
    calls = [0]
    for name in RECURSIONS:
        def counted(self, *args, _fn=getattr(BddManager, name)):
            calls[0] += 1
            return _fn(self, *args)
        monkeypatch.setattr(BddManager, name, counted)
    trace = nominal_trace(session)
    assert isinstance(trace, AnnotatedTrace)
    assert calls[0] <= 30000, calls[0]


@pytest.mark.parametrize("trace_first", [False, True])
def test_the_falsification_game_is_solved_once_per_session(monkeypatch,
                                                           trace_first):
    import gr1report.analyses as analyses_mod
    from gr1report.analyses import assumption_falsification
    session = Session(load_spec("tworobot"))
    session.region()
    goal_false, solve_game = analyses_mod._goal_false, analyses_mod.solve_game
    built, solved = [], []

    def build(game):
        built.append(goal_false(game))
        return built[-1]

    def solve(game, *args, **kwargs):
        solved.append(game)
        return solve_game(game, *args, **kwargs)
    monkeypatch.setattr(analyses_mod, "_goal_false", build)
    monkeypatch.setattr(analyses_mod, "solve_game", solve)
    runs = [assumption_falsification, nominal_trace]
    for run in (runs[::-1] if trace_first else runs) * 2:
        run(session)
    assert len(built) == 1 and solved == built


def _env_start_ok(game, v):
    """The environment's initial condition, stated directly: some
    initial input makes every initial output land in v, or under
    robotics, where it picks the outputs too, some initial position is
    in v."""
    every = (game.init_sys & v if game.robotics else
             game.mgr.forall(game.outputs, game.init_sys.implies(v)))
    return not (game.init_env & every).is_false()


def test_environment_side_of_the_trace_and_the_table(monkeypatch):
    # the trace's environment side against the two-pass reference: its
    # winning set is the complement of the session's falsification set
    # (GR(1) games are determined), and its rank iterates are those of
    # the last sweep; the environment's initial condition in
    # `abstract_strategy`, the dual of the system's `start_ok`, is
    # `_env_start_ok` under both semantics
    import gr1report.traces as traces_mod
    tried = []

    def spy(game, v):
        tried.append((game, v))
        return start_ok(game, v)
    monkeypatch.setattr(traces_mod, "start_ok", spy)
    specs = [load_spec(p.stem) for p in sorted(SPEC_DIR.glob("*.spec"))]
    specs += [random_boolean_spec(seed) for seed in range(200)]
    env_wins = {False: 0, True: 0}
    for k, spec in enumerate(specs):
        for robotics in (False, True):
            session = Session(spec, robotics=robotics)
            game = session.game()
            w_env = ~session.falsified()[1]
            ranks = [[r for r, _move in pairs]
                     for pairs in _env_ranks(game, w_env)]
            assert (w_env, ranks) == _env_buchi_two_pass(game), (
                k, robotics)
            tried.clear()
            ab = abstract_strategy(session)
            env_wins[robotics] += ab is not None and ab.winner == "environment"
            # the spy sees ~v for the environment's sets v
            assert tried, (k, robotics)
            for g, u in tried:
                assert g.robotics == robotics
                assert (not start_ok(g, u)) == _env_start_ok(g, ~u), (
                    k, robotics)
    assert min(env_wins.values()) >= 10, env_wins


# ----------------------------------------------------------------------
# abstract strategies

def test_abstract_none_for_liveness_decided_games():
    spec = compile_text(
        "[INPUT]\nr\n[OUTPUT]\ng\n[ENV_LIVENESS]\nr\n[SYS_LIVENESS]\ng\n")
    assert abstract_strategy(spec) is None


def test_abstract_counter_strategy_for_oscillator():
    ab = abstract_strategy(load_spec("oscillator_unreal"))
    assert ab.winner == "environment"
    assert ab.horizon == 2
    assert ab.rounds == [{"g": True}, {"g": False}, {"g": VIOLATION}]


def test_abstract_strategy_for_system_safety_win():
    # the system can jam the assumption g -> X(r & !r)
    spec = compile_text(
        "[INPUT]\nr\n[OUTPUT]\ng\n[ENV_TRANS]\ng -> (X(r) & !X(r))\n"
        "[SYS_LIVENESS]\nTRUE\n")
    ab = abstract_strategy(spec)
    assert ab is not None and ab.winner == "system"
    assert ab.rounds[-1] == {"r": VIOLATION, "g": VIOLATION}
    # the winning move raises g, read straight off the table
    assert ab.rounds[0]["g"] is True


def test_abstract_table_at_horizon_zero():
    # an unsatisfiable initial assumption: the system has won already
    spec = compile_text(
        "[INPUT]\nr\n[OUTPUT]\ng\n[ENV_INIT]\nr & !r\n"
        "[SYS_LIVENESS]\ng\n")
    ab = abstract_strategy(spec)
    assert ab.winner == "system" and ab.horizon == 0
    assert ab.rounds == [{"r": VIOLATION, "g": VIOLATION}]


def test_abstract_soundness_exhaustive_oscillator():
    # every legal play of the loser violates its safety parts no later
    # than the round marked X
    spec = load_spec("oscillator_unreal")
    ab = abstract_strategy(spec)
    ts = [p.ir for p in spec.parts["sys_trans"]]
    i_s = [p.ir for p in spec.parts["sys_init"]]
    for g0 in (False, True):
        env = {("g", False): g0}
        if not all(eval_ir(p, env) for p in i_s):
            continue  # violated immediately, before round 1
        alive = True
        for rnd in range(1, ab.horizon + 1):
            moves = [g1 for g1 in (False, True)
                     if all(eval_ir(p, {("g", False): g0, ("g", True): g1})
                            for p in ts)]
            if not moves:
                alive = False
                break
            g0 = moves[0]
        assert not alive


def test_abstract_star_entries_have_alternatives():
    ab = abstract_strategy(load_spec("counter"))
    # stars on loser rows: both values occur among surviving plays
    for rnd in ab.rounds[:-1]:
        for name, v in rnd.items():
            assert v == STAR or v == VIOLATION or isinstance(v, (bool, int))


def test_abstract_winner_star_when_any_value_works():
    # irrelevant inputs get a star: either constant preserves the win
    spec = compile_text(
        "[INPUT]\nr\ns\n[OUTPUT]\ng\n[SYS_INIT]\ng\n"
        "[SYS_TRANS]\ng -> X(!g)\n!g -> X(g)\ng\n")
    ab = abstract_strategy(spec)
    assert ab.winner == "environment" and ab.horizon == 2
    for rnd in ab.rounds[:-1]:
        assert rnd["r"] == STAR and rnd["s"] == STAR
    assert [rd["g"] for rd in ab.rounds] == [True, False, VIOLATION]


def test_abstract_counter_table_soundness_exhaustive():
    # every system play against the table-constrained environment dies
    # no later than the marked round: breadth-first over the reachable
    # valuation sets, environment pinned to the table (stars = free)
    spec = load_spec("counter")
    ab = abstract_strategy(spec)
    assert ab.winner == "environment"
    te = [p.ir for p in spec.parts["env_trans"]]
    ts = [p.ir for p in spec.parts["sys_trans"]]
    ie = [p.ir for p in spec.parts["env_init"]]
    i_s = [p.ir for p in spec.parts["sys_init"]]
    n = len(spec.props)

    def valuations(round_idx):
        import itertools
        table = ab.rounds[round_idx]
        for bits in itertools.product([False, True], repeat=n):
            vals = dict(zip(spec.props, bits))
            decoded = spec.decode(vals)
            ok = True
            for name, want in table.items():
                if want in (STAR, VIOLATION):
                    continue
                if decoded.get(name) != want:
                    ok = False
                    break
            if ok:
                yield vals

    def env_of(cur, nxt=None):
        env = {(k, False): v for k, v in cur.items()}
        if nxt:
            env.update({(k, True): v for k, v in nxt.items()})
        return env

    reach = set()
    for vals in valuations(0):
        env = env_of(vals)
        if all(eval_ir(p, env) for p in ie + i_s):
            reach.add(tuple(sorted(vals.items())))
    assert reach
    for t in range(1, ab.horizon + 1):
        nxt_reach = set()
        if t < ab.horizon:
            for frozen in reach:
                cur = dict(frozen)
                for nxt in valuations(t):
                    env = env_of(cur, nxt)
                    if all(eval_ir(p, env) for p in te + ts):
                        nxt_reach.add(tuple(sorted(nxt.items())))
        else:
            # the X round: no legal continuation may exist at all
            import itertools
            for frozen in reach:
                cur = dict(frozen)
                for bits in itertools.product([False, True], repeat=n):
                    nxt = dict(zip(spec.props, bits))
                    env = env_of(cur, nxt)
                    if all(eval_ir(p, env) for p in te + ts):
                        nxt_reach.add(tuple(sorted(nxt.items())))
        reach = nxt_reach
    assert reach == set()


def test_abstract_table_lists_a_fixed_integer():
    # `k: 2...2` compiles to no bits; the table still lists it, in
    # declaration order, as the decoded trace does
    spec = compile_text("[INPUT]\nr\nk: 2...2\n[OUTPUT]\ng\n"
                        "[SYS_TRANS]\nX(g) <-> X(r)\nX(!g)\n")
    ab = abstract_strategy(spec)
    assert ab.winner == "environment" and ab.horizon == 1
    assert ab.rounds == [{"r": STAR, "k": 2, "g": STAR},
                         {"r": VIOLATION, "k": VIOLATION, "g": VIOLATION}]


# Three games whose tables each need one step of the table builder.
# pin: a = 1 is the system's one working constant; b = 1 works only
#   when a follows the input, so b's probe must see a pinned.
# forced: the environment wins with r = s in round 1, which forces
#   g & !h; r != s is no forcing move, although its reply g & h lands
#   in the winning set.
# start: the same in round 0, through the initial condition.
FILTERED_TABLES = {
    "pin": ("[INPUT]\nr\n[OUTPUT]\na\nb\n[ENV_TRANS]\n"
            "!((a & !b) | (!r & !a & b) | (r & a & b))\n",
            0, {"r": STAR, "a": True, "b": False}),
    "forced": ("[INPUT]\nr\ns\n[OUTPUT]\ng\nh\n[SYS_INIT]\n!g\n"
               "[SYS_TRANS]\ng -> !X(r)\n(X(r) <-> X(s)) -> X(g)\n"
               "(X(r) <-> X(s)) -> !X(h)\n",
               1, {"r": STAR, "s": STAR, "g": True, "h": False}),
    "start": ("[INPUT]\nr\ns\n[OUTPUT]\ng\nh\n[SYS_INIT]\n"
              "(r <-> s) -> g\n(r <-> s) -> !h\n[SYS_TRANS]\ng -> !X(r)\n",
              0, {"r": STAR, "s": STAR, "g": True, "h": False}),
}


@pytest.mark.parametrize("text, t, row", FILTERED_TABLES.values(),
                         ids=FILTERED_TABLES)
def test_abstract_table_keeps_to_the_winners_moves(text, t, row):
    assert abstract_strategy(compile_text(text)).rounds[t] == row


def _sound_environment_table(spec, ab, robotics=False) -> bool:
    """Brute force over valuations: the environment plays the table's
    inputs, the system every legal reply, and every play dies by the
    round marked X, where the environment has a legal move that leaves
    the system none.  The system's rows list the values its legal
    replies take.  Under robotics the environment picks round 0's
    outputs too: its picks are the initial positions the row admits
    from which every play dies, and round 0 lists their outputs.  The
    table has no star on the environment's side."""
    import itertools
    te, ts, ie, i_s = ([p.ir for p in spec.parts[k]] for k in (
        "env_trans", "sys_trans", "env_init", "sys_init"))

    def valuations(props):
        for bits in itertools.product([False, True], repeat=len(props)):
            yield dict(zip(props, bits))

    def legal(parts, init, cur, nxt):
        env = {(k, True): v for k, v in nxt.items()}
        if cur is None:
            return all(eval_ir(p, {(k, False): v for k, v in nxt.items()})
                       for p in init)
        env.update({(k, False): v for k, v in cur.items()})
        return all(eval_ir(p, env) for p in parts)

    def replies(cur, inp):
        return [{**inp, **out} for out in valuations(spec.output_props)
                if legal(ts, i_s, cur, {**inp, **out})]

    def lists(rnd, reach):
        for name in spec.user_vars("output"):
            values = sorted({spec.decode(v)[name] for v in reach})
            shown = (VIOLATION if not values else
                     values[0] if len(values) == 1 else STAR)
            if rnd[name] != shown:
                return False
        return True

    def step(reach, rnd):
        # the row's one input against every legal reply from `reach`;
        # None if that input is illegal somewhere
        inp, = [v for v in valuations(spec.input_props)
                if all(spec.decode(v, "input")[k] == rnd[k]
                       for k in spec.user_vars("input"))]
        if not all(legal(te, ie, cur, inp) for cur in reach):
            return None
        return list({tuple(nxt.items()): nxt for cur in reach
                     for nxt in replies(cur, inp)}.values())

    def dies(reach, rounds, listed=True):
        # every play from `reach` dies by the X round, and when `listed`
        # each row lists the system's values
        for rnd in rounds[:-1]:
            reach = step(reach, rnd)
            if reach is None or (listed and not lists(rnd, reach)):
                return False
        return all(any(legal(te, ie, cur, inp) and not replies(cur, inp)
                       for inp in valuations(spec.input_props))
                   for cur in reach)

    if not robotics:
        return dies([None], ab.rounds)
    picks = [p for p in step([None], ab.rounds[0]) or ()
             if dies([p], ab.rounds[1:], listed=False)]
    return (bool(picks) and lists(ab.rounds[0], picks)
            and dies(picks, ab.rounds[1:]))


def test_abstract_environment_tables_sound_exhaustive():
    # the brute force above, under both semantics, on the counter and on
    # every small random environment table whose inputs have no star
    checked = {False: 0, True: 0}
    specs = {"counter": load_spec("counter")}
    specs.update((seed, random_boolean_spec(seed)) for seed in range(1000))
    for key, spec in specs.items():
        for robotics in (False, True):
            ab = abstract_strategy(Session(spec, robotics=robotics))
            if (ab is None or ab.winner != "environment"
                    or len(spec.props) > 6
                    or any(rnd[k] == STAR for rnd in ab.rounds
                           for k in spec.user_vars("input"))):
                continue
            assert _sound_environment_table(spec, ab, robotics), (
                key, robotics)
            checked[robotics] += ab.horizon > 0
    assert min(checked.values()) >= 50, checked


def test_robotics_tables_name_the_winner():
    # a table's winner is the verdict's under both semantics: the
    # environment's initial condition is the dual of the system's
    # `start_ok`, which gives the initial position to the player the
    # semantics says
    tables = {False: 0, True: 0}
    for seed in range(1000):
        for robotics in (False, True):
            session = Session(random_boolean_spec(seed), robotics=robotics)
            ab = abstract_strategy(session)
            if ab is None:
                continue
            assert (ab.winner == "system") == (
                session.verdict() == "realizable"), (seed, robotics)
            tables[robotics] += 1
    assert tables == {False: 778, True: 806}, tables


@pytest.mark.parametrize("name, row", [
    ("mutex_fixed", {"g1": False, "g2": False, "promise1": True,
                     "promise2": True, "r1": STAR, "r2": STAR}),
    ("patrol", {"camera": STAR, "person": STAR, "r1": True, "r2": STAR,
                "r3": STAR, "r4": STAR, "r5": STAR}),
    ("request_grant", {"g": STAR, "r": STAR}),
])
def test_robotics_corpus_tables(name, row):
    # realizable under standard semantics only: under robotics the
    # environment picks an initial position outside W, and round 0
    # lists its picks
    spec = load_spec(name)
    assert Session(spec).verdict() == "realizable"
    session = Session(spec, robotics=True)
    assert session.verdict() == "unrealizable"
    ab = abstract_strategy(session)
    assert (ab.winner, ab.horizon) == ("environment", 1)
    assert ab.rounds == [row, dict.fromkeys(row, VIOLATION)]


# ----------------------------------------------------------------------
# differential check: the table built with a branch per winner, kept
# only here

def _pin_reference(mgr, spec, name, value):
    if name in spec.bool_vars:
        return mgr.var(name) if value else mgr.nvar(name)
    g = spec.groups[name]
    enc = value - g.lo
    return _conj(mgr, [mgr.var(b) if (enc >> i) & 1 else mgr.nvar(b)
                       for i, b in enumerate(g.bits)])


def _abstract_strategy_reference(spec, robotics=False, horizon=64):
    """`abstract_strategy` with a table builder that branches on the
    winner in its forward reach, and a horizon-0 case of its own."""
    game = Session(spec, robotics=robotics).game()
    wins = []
    for winner, owner, pre, ok in (
            ("system", "output", game.cox, start_ok),
            ("environment", "input", game.pre_env,
             lambda game, v: not start_ok(game, ~v))):
        attr = _attractor(game, pre, horizon)
        h = next((h for h in range(len(attr)) if ok(game, attr[h])), None)
        if h is not None:
            wins.append((winner, owner, pre, ok, h, attr))
    if len(wins) > 1:
        raise TraceError("both players cannot force a safety win")
    return _build_table_reference(game, spec, *wins[0]) if wins else None


def _build_table_reference(game, spec, winner, owner, pre, start_ok, h,
                           attr):
    if h == 0:
        return AbstractStrategy(
            winner=winner, horizon=0,
            rounds=[{name: VIOLATION for name in spec.user_vars()}])
    mgr = game.mgr

    def unconstrained(t):
        k = h - t
        return attr[k] if k < len(attr) else attr[-1]

    def kind(name):
        if name in spec.bool_vars:
            return spec.bool_vars[name]
        return spec.groups[name].kind

    winner_vars = [v for v in spec.user_vars() if kind(v) == owner]
    cons = [mgr.true for _ in range(h)]

    def wins_with(t, extra):
        v = unconstrained(t) & cons[t] & extra
        for s in range(t - 1, -1, -1):
            v = pre(v) & cons[s]
        return start_ok(game, v)

    def values_of(name):
        if name in spec.bool_vars:
            return [False, True]
        g = spec.groups[name]
        return list(range(g.lo, g.hi + 1))

    rounds, table_winner = [], []
    for t in range(h):
        row = {}
        for name in winner_vars:
            working = [val for val in values_of(name)
                       if wins_with(t, _pin_reference(mgr, spec, name, val))]
            if len(working) == 1:
                row[name] = working[0]
                cons[t] = cons[t] & _pin_reference(mgr, spec, name,
                                                   working[0])
            else:
                row[name] = STAR
        table_winner.append(row)

    final = [mgr.false] * (h + 1)
    for s in range(h - 1, -1, -1):
        final[s] = pre(final[s + 1]) & cons[s]

    if winner == "environment":
        # the environment opens with the initial positions in final[0];
        # under standard semantics it picks only their inputs
        keeps = (final[0] if game.robotics else
                 mgr.forall(game.outputs, game.init_sys.implies(final[0])))
        r = game.init_env & keeps & game.init_sys
    else:
        r = game.init_env & game.init_sys & cons[0] & final[0]
    reach = [r]
    for s in range(1, h):
        prev = reach[-1]
        if winner == "environment":
            ok = game.forced(game.prime(final[s]))
            img = mgr.and_exists(prev & ok, game.trans_env & game.trans_sys,
                                 game.positions)
        else:
            img = mgr.and_exists(
                prev, game.trans_env & game.trans_sys
                & game.prime(final[s] & cons[s]), game.positions)
        reach.append(mgr.rename(img, "unprime"))

    for t in range(h):
        row = dict(table_winner[t])
        for name in spec.user_vars():
            if name in row:
                continue
            present = [val for val in values_of(name)
                       if not (reach[t] & _pin_reference(mgr, spec, name,
                                                         val)).is_false()]
            if len(present) == 1:
                row[name] = present[0]
            elif not present:
                row[name] = VIOLATION
            else:
                row[name] = STAR
        rounds.append({name: row[name] for name in spec.user_vars()})
    rounds.append({name: VIOLATION for name in spec.user_vars()})
    return AbstractStrategy(winner=winner, rounds=rounds, horizon=h)


def test_abstract_table_matches_the_per_winner_reference(monkeypatch):
    import pathlib
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    import specgen
    texts = [p.read_text() for p in sorted(SPEC_DIR.glob("*.spec"))]
    texts += [random_spec_text(seed) for seed in range(1000)]
    texts += [specgen.arbiter(n) for n in (2, 3, 4)]
    texts += [chain_text(n) for n in (3, 8)]
    texts += [text for text, _t, _row in FILTERED_TABLES.values()]
    deep = dict.fromkeys([(robotics, winner) for robotics in (False, True)
                          for winner in ("system", "environment")], 0)
    for text in texts:
        spec = compile_text(text)
        for robotics in (False, True):
            got = abstract_strategy(Session(spec, robotics=robotics))
            want = _abstract_strategy_reference(spec, robotics)
            assert (got and got.to_json()) == (want and want.to_json()), (
                text, robotics)
            if want is not None and want.horizon >= 2:
                deep[robotics, want.winner] += 1
    assert min(deep.values()) >= 10, deep
