"""Nominal-case traces and abstract safety (counter-)strategies.

nominal_trace plays the canonical strategy, one move at a time from
`canonical_moves` with no explicit machine built, breaking each move's
ties with `pick_min_model` as the machine does, against an
environment that follows a non-deterministic generalized-Buchi strategy
for its own liveness assumptions (goal rotation; all distance-minimal
moves kept, lexicographically smallest emitted) until the product laces
into a lasso: a repeated (position, system goal, environment goal).
The environment plays inside the complement of the falsification set
(`Session.falsified`): GR(1) games are determined, so that complement
is its winning set for the liveness assumptions.

abstract_strategy handles games decided by the safety parts alone, with
one scheme for either winner: it probes, round by round and variable by
variable, whether fixing a value of the winner's preserves its forced
win within the minimal horizon, reads the opponent's values off a
forward reach through the sets that force the win, and renders the play
as a table of constants, stars, and a terminal violation marker.  The
winner picks only its predecessor (`cox` or `pre_env`), its initial
condition and the reach's two filters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analyses import Session, _session
from .bdd import BddManager, BddRef
from .compiler import BooleanSpec
from .game import SymbolicGame, canonical_moves, standard_start_ok

STAR = "star"
VIOLATION = "X"


class TraceError(Exception):
    pass


# ----------------------------------------------------------------------
# nominal-case trace

@dataclass
class TraceStep:
    inputs: dict[str, object]
    outputs: dict[str, object]
    env_goal: int
    sys_goal: int

    def to_json(self) -> dict:
        return {"in": self.inputs, "out": self.outputs,
                "envGoal": self.env_goal, "sysGoal": self.sys_goal}


@dataclass
class AnnotatedTrace:
    steps: list[TraceStep]
    lasso_start: int

    def to_json(self) -> dict:
        return {"steps": [s.to_json() for s in self.steps],
                "lassoStart": self.lasso_start}


def _env_ranks(game: SymbolicGame, w_env: BddRef):
    """Per liveness assumption a_c, the environment's attractor toward
    a_c & W_env' as (R_k, M_k) pairs, rank k from 0: R_k, the positions
    from which it reaches the target in at most k + 1 steps, and M_k =
    T_e & forced(a_c & W_env' | R_{k-1}'), its moves from there, with
    R_{-1} = FALSE.  W_env is the greatest fixpoint, so the last R_k of
    every assumption is W_env itself."""
    mgr = game.mgr
    target = game.prime(w_env)
    ranks = []
    for a in game.live_env:
        hit = a & target
        pairs, r = [], mgr.false
        while True:
            move = game.trans_env & game.forced(hit | game.prime(r))
            rn = mgr.exists(game.primed_inputs, move)
            if rn == r:
                break
            r = rn
            pairs.append((r, move))
        ranks.append(pairs)
    return ranks


def nominal_trace(spec: BooleanSpec | Session, max_steps: int = 64):
    """Annotated nominal-case run, or a finding dict when no suitable
    initial position exists or the environment cannot meet its liveness
    assumptions from it."""
    session = _session(spec)
    session.require_realizable("nominal trace", TraceError)
    spec, game = session.spec, session.game()
    region = session.region()
    mgr = game.mgr
    starts = game.init_env & game.init_sys & region.win
    if starts.is_false():
        return {"finding": "no initial position satisfies the initial parts"}
    # also the canonical strategy's initial position: no start with p0's
    # inputs has smaller outputs
    p0 = mgr.pick_min_model(starts, game.positions)
    falsified = session.falsified()[1]
    if mgr.eval(falsified, p0):
        return {"finding": "the environment cannot satisfy its liveness "
                           "assumptions from the initial position"}
    # the environment's moves at each rank: every legal system reply
    # either satisfies the pursued assumption (into its winning set) or
    # strictly lowers the rank
    ranks = _env_ranks(game, ~falsified)

    m = len(game.live_env)
    n_goals = len(game.live_sys)
    steps: list[TraceStep] = []
    seen: dict[tuple, int] = {}
    pos, j, c = p0, 0, 0
    while len(steps) < max_steps:
        key = (tuple(pos[n] for n in game.positions), j, c)
        if key in seen:
            return AnnotatedTrace(steps=steps, lasso_start=seen[key])
        seen[key] = len(steps)
        steps.append(TraceStep(
            inputs=spec.decode(pos, "input"),
            outputs=spec.decode(pos, "output"),
            env_goal=c, sys_goal=j))
        move = next((mv for r, mv in ranks[c] if mgr.eval(r, pos)), None)
        if move is None:
            raise TraceError("environment left its winning region")
        moves = mgr.restrict(move, pos)
        if moves.is_false():
            raise TraceError("environment strategy has no move")
        step = dict(pos)
        step.update(mgr.pick_min_model(moves, game.primed_inputs))
        reply, goal = canonical_moves(game, region, j, mgr.cube(step))
        if reply.is_false():
            raise TraceError("the canonical strategy has no move for an "
                             "admissible input")
        step.update(mgr.pick_min_model(mgr.restrict(reply, step),
                                       game.primed_outputs))
        if mgr.eval(game.live_env[c], step):
            c = (c + 1) % m
        if not goal.is_false():
            j = (j + 1) % n_goals
        pos = {n: step[n + "'"] for n in game.positions}
    return AnnotatedTrace(steps=steps, lasso_start=len(steps))


# ----------------------------------------------------------------------
# abstract strategies for safety-decided games

@dataclass
class AbstractStrategy:
    winner: str                        # "system" | "environment"
    rounds: list[dict[str, object]]    # var -> bool | int | "star" | "X"
    horizon: int                       # index of the violation round

    def to_json(self) -> dict:
        def cell(v):
            if v is True:
                return "1"
            if v is False:
                return "0"
            return str(v)
        return {"winner": self.winner, "horizon": self.horizon,
                "rounds": [{k: cell(v) for k, v in r.items()}
                           for r in self.rounds],
                "note": "a star marks an entry with no single working "
                        "constant: the value either must depend on the "
                        "opponent or several constants preserve the win"}


def _attractor(game: SymbolicGame, pre, horizon: int) -> list[BddRef]:
    sets = [game.mgr.false]
    for _ in range(horizon):
        nxt = pre(sets[-1])
        if nxt == sets[-1]:
            break
        sets.append(nxt)
    return sets


def _pins(mgr: BddManager, spec: BooleanSpec, name: str):
    """Each value of one user variable with the position predicate that
    pins the variable to it."""
    if name in spec.bool_vars:
        return [(v, mgr.cube({name: v})) for v in (False, True)]
    g = spec.groups[name]
    return [(v, mgr.cube({b: bool((v - g.lo) >> i & 1)
                          for i, b in enumerate(g.bits)}))
            for v in range(g.lo, g.hi + 1)]


def abstract_strategy(spec: BooleanSpec | Session, horizon: int = 64):
    """Abstract strategy/counter-strategy for safety-decided games.

    Returns None unless one player forces the opponent into a safety
    dead end from the initial condition within the horizon.
    """
    session = _session(spec)
    spec, game = session.spec, session.game()
    wins = []
    for winner, pre, start_ok in (
            ("system", game.cox, standard_start_ok),
            ("environment", game.pre_env,
             # some initial input makes every initial output land in v:
             # the dual of the system's condition
             lambda game, v: not standard_start_ok(game, ~v))):
        attr = _attractor(game, pre, horizon)
        h = next((h for h in range(len(attr)) if start_ok(game, attr[h])),
                 None)
        if h is not None:
            wins.append((winner, pre, start_ok, attr[:h + 1]))
    if len(wins) > 1:
        raise TraceError("both players cannot force a safety win")
    return _build_table(game, spec, *wins[0]) if wins else None


def _build_table(game: SymbolicGame, spec: BooleanSpec, winner: str, pre,
                 start_ok, attr: list[BddRef]) -> AbstractStrategy:
    """The table of `winner`, who forces the opponent's violation within
    h = len(attr) - 1 rounds: `attr` are the attractor sets of `pre`,
    the last the first to meet the initial condition `start_ok`.

    Round by round, each of the winner's variables gets the one constant
    that keeps the win, pinned in `cons` for the later probes, or a star.
    The sets that force the violation under those pins then bound a
    forward reach from the initial positions, and each of the opponent's
    variables shows the values it takes there: one constant, a star, or
    X when none is left.  The winner picks only the reach's filters: the
    system's plays stay in the sets, and the environment's keep every
    initial output and every legal reply of the system in them."""
    mgr = game.mgr
    if winner == "system":
        owner, start, keep = "output", (lambda v: v), game.prime
    else:
        owner = "input"

        def start(v):
            return mgr.forall(game.outputs, game.init_sys.implies(v))

        def keep(v):
            return game.forced(game.prime(v))
    h = len(attr) - 1
    names = spec.user_vars()
    pins = {name: _pins(mgr, spec, name) for name in names}
    cons = [mgr.true] * h

    def backward(t: int, v: BddRef) -> list[BddRef]:
        # the winner's sets of rounds 0..t that force v at round t
        sets = [v]
        for s in range(t - 1, -1, -1):
            sets.append(pre(sets[-1]) & cons[s])
        return sets[::-1]

    def fix(t: int, name: str):
        # the winner's one value at round t that keeps the win within h
        working = [(v, p) for v, p in pins[name]
                   if start_ok(game, backward(t, attr[h - t] & cons[t]
                                              & p)[0])]
        if len(working) != 1:
            return STAR
        cons[t] &= working[0][1]
        return working[0][0]

    def seen(reach: BddRef, name: str):
        # the opponent's values in the round's reachable positions
        present = [v for v, p in pins[name] if not (reach & p).is_false()]
        if not present:
            return VIOLATION
        return present[0] if len(present) == 1 else STAR

    mine = [{name: fix(t, name) for name in spec.user_vars(owner)}
            for t in range(h)]
    final = backward(h, mgr.false)
    reach = [game.init_env & game.init_sys & start(final[0])]
    for s in range(1, h):
        reach.append(mgr.rename(mgr.and_exists(
            reach[-1] & keep(final[s]), game.trans_env & game.trans_sys,
            game.positions), "unprime"))
    rounds = [{name: mine[t][name] if name in mine[t] else
               seen(reach[t], name) for name in names} for t in range(h)]
    return AbstractStrategy(
        winner=winner, horizon=h,
        rounds=rounds + [dict.fromkeys(names, VIOLATION)])
