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

abstract_strategy handles games decided by the safety parts alone: it
probes, round by round and proposition by proposition, whether fixing a
value preserves the winner's forced win within the minimal horizon, and
renders the play as a table of constants, input-dependent stars, and a
terminal violation marker.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analyses import Session, _session
from .bdd import BddManager, BddRef
from .compiler import BooleanSpec
from .game import SymbolicGame, _conj, canonical_moves, standard_start_ok

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


def _cube(mgr: BddManager, assignment: dict[str, bool]) -> BddRef:
    """The single assignment as a BDD."""
    return _conj(mgr, [mgr.var(n) if v else mgr.nvar(n)
                       for n, v in assignment.items()])


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
        reply, goal = canonical_moves(game, region, j, _cube(mgr, step))
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


def _pin(mgr: BddManager, spec: BooleanSpec, name: str, value) -> BddRef:
    """Position predicate pinning one user variable to a value."""
    if name in spec.bool_vars:
        return mgr.var(name) if value else mgr.nvar(name)
    g = spec.groups[name]
    enc = value - g.lo
    return _conj(mgr, [mgr.var(b) if (enc >> i) & 1 else mgr.nvar(b)
                       for i, b in enumerate(g.bits)])


def abstract_strategy(spec: BooleanSpec | Session, horizon: int = 64):
    """Abstract strategy/counter-strategy for safety-decided games.

    Returns None unless one player forces the opponent into a safety
    dead end from the initial condition within the horizon.
    """
    session = _session(spec)
    spec, game = session.spec, session.game()
    wins = []
    for winner, owner, pre, start_ok in (
            ("system", "output", game.cox, standard_start_ok),
            ("environment", "input", game.pre_env,
             # some initial input makes every initial output land in v:
             # the dual of the system's condition
             lambda game, v: not standard_start_ok(game, ~v))):
        attr = _attractor(game, pre, horizon)
        h = next((h for h in range(len(attr)) if start_ok(game, attr[h])),
                 None)
        if h is not None:
            wins.append((winner, owner, pre, start_ok, h, attr))
    if len(wins) > 1:
        raise TraceError("both players cannot force a safety win")
    return _build_table(game, spec, *wins[0]) if wins else None


def _build_table(game: SymbolicGame, spec: BooleanSpec, winner: str,
                 owner: str, pre, start_ok, h: int,
                 attr: list[BddRef]) -> AbstractStrategy:
    """The table of `winner`, who owns the `owner` variables and forces
    the opponent's violation within h rounds: `attr` are the attractor
    sets of `pre`, and `start_ok` the initial condition that reached h."""
    if h == 0:
        # the loser's initial condition is already unsatisfiable: the
        # table is the violation round alone
        return AbstractStrategy(
            winner=winner, horizon=0,
            rounds=[{name: VIOLATION for name in spec.user_vars()}])
    mgr = game.mgr

    def unconstrained(t: int) -> BddRef:
        # win-by-h backward set for round t with no later constraints
        k = h - t
        return attr[k] if k < len(attr) else attr[-1]

    winner_vars = [v for v in spec.user_vars() if _owner(spec, v) == owner]

    cons: list[BddRef] = [mgr.true for _ in range(h)]

    def wins_with(t: int, extra: BddRef) -> bool:
        v = unconstrained(t) & cons[t] & extra
        for s in range(t - 1, -1, -1):
            v = pre(v) & cons[s]
        return start_ok(game, v)

    def values_of(name):
        if name in spec.bool_vars:
            return [False, True]
        g = spec.groups[name]
        return list(range(g.lo, g.hi + 1))

    rounds: list[dict[str, object]] = []
    table_winner: list[dict[str, object]] = []
    for t in range(h):
        row: dict[str, object] = {}
        for name in winner_vars:
            working = []
            for val in values_of(name):
                if wins_with(t, _pin(mgr, spec, name, val)):
                    working.append(val)
            if len(working) == 1:
                row[name] = working[0]
                cons[t] = cons[t] & _pin(mgr, spec, name, working[0])
            else:
                row[name] = STAR
        table_winner.append(row)

    # forward reachable sets under the final constraints fill the
    # opponent's rows
    final: list[BddRef] = [mgr.false] * (h + 1)
    for s in range(h - 1, -1, -1):
        final[s] = pre(final[s + 1]) & cons[s]

    if winner == "environment":
        keeps = mgr.forall(game.outputs, game.init_sys.implies(final[0]))
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
            present = []
            for val in values_of(name):
                if not (reach[t] & _pin(mgr, spec, name, val)).is_false():
                    present.append(val)
            if len(present) == 1:
                row[name] = present[0]
            elif not present:
                row[name] = VIOLATION
            else:
                row[name] = STAR
        rounds.append({name: row[name] for name in spec.user_vars()})

    rounds.append({name: VIOLATION for name in spec.user_vars()})
    return AbstractStrategy(winner=winner, rounds=rounds, horizon=h)


def _owner(spec: BooleanSpec, name: str) -> str:
    if name in spec.bool_vars:
        return spec.bool_vars[name]
    return spec.groups[name].kind
