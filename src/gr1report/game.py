"""Two-player synthesis game: construction, solving, strategy extraction.

The game is solved with the three-nested fixpoint for generalized
reactivity(1).  Goals and liveness assumptions are transition predicates
(they may mention next-state variables), so the usual position-level
disjunction moves inside the controllable predecessor: the system may
answer each environment move with a goal transition, a strict-progress
transition, or an assumption-starving transition, independently per
move.  With

    can(R, V) = exists O' (R & V')          (system half)
    cpre(C)   = forall I' (!trans_env | C)   (environment half)

the fixpoint is

    win = nu Z. AND_j mu Y. OR_i nu X.
              cpre( can(T_s & g_j, Z) | can(T_s, Y) | can(T_s & !a_i, X) )

which equals cpre over exists O' (T_s & ((g_j & Z') | Y' | (!a_i & X')))
because the existential quantifier distributes over the disjunction:
the relations T_s & g_j and T_s & !a_i are built once per game, the
goal term once per mu-Y evaluation and the progress term once per Y
step, and the target relation itself is never built (early
quantification over a partitioned relation, as in Burch, Clarke & Long,
"Symbolic model checking with partitioned transition relations", 1991).
The environment half is the dual product `or_forall` over the negated
`trans_env`, which the game negates once, so no step negates a BDD.

The mu-iterates of the final sweep are kept as distance strata: a
position's reactive distance to goal j is the index of the first
stratum containing it, so that one iterate charges for one transition
or one whole waiting phase.  To make that charge honest, each iterate
first grows with stationary waiting only (assumption-starving moves
that repeat the current output, T_s & !a_i & stay); the unrestricted
waiting relation is used as a fallback when the stationary chain
stalls, which keeps the winning-set limit exact.  The inner
nu-fixpoints are kept per stratum and assumption for the canonical
strategy, which `canonical_moves` gives as BDD relations (ranked
moves, ties left to the caller) and `extract_strategy` as a machine.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property, partial

from .bdd import FALSE, TRUE, BddManager, BddRef
from .compiler import BooleanSpec, IR, balanced, ir_support


class GameError(Exception):
    pass


def ir_to_bdd(mgr: BddManager, ir: IR, memo: dict | None = None) -> BddRef:
    # recurses through the module function, not a nested one, so no
    # reference cycle keeps the memo's handles alive past the call
    if memo is None:
        memo = {}
    r = memo.get(ir)
    if r is not None:
        return r
    tag = ir[0]
    if tag == "const":
        r = mgr.true if ir[1] else mgr.false
    elif tag == "var":
        r = mgr.var(ir[1] + "'" if ir[2] else ir[1])
    elif tag == "not":
        r = ~ir_to_bdd(mgr, ir[1], memo)
    else:  # and | or | xor
        r = mgr.apply(tag, ir_to_bdd(mgr, ir[1], memo),
                      ir_to_bdd(mgr, ir[2], memo))
    memo[ir] = r
    return r


@dataclass(frozen=True)
class SymbolicGame:
    """Synthesis game, a frozen value: a variant is a `dataclasses.replace`
    of it, and each game computes its derived relations on first use.
    Each fact is stored once: the environment's initial and safety
    assumptions are kept as parts, and `init_env` and `trans_env` are
    derived.  Its signals are the specification's own, in a classical
    game too."""

    mgr: BddManager
    robotics: bool
    inputs: list[str]              # unprimed input propositions
    outputs: list[str]             # unprimed output propositions
    positions: list[str]           # inputs and outputs, declaration order
    init_sys: BddRef
    trans_sys: BddRef
    live_env: list[BddRef]
    live_sys: list[BddRef]
    # one entry per spec part in spec order, then any an analysis added
    init_env_parts: list[BddRef]
    trans_env_parts: list[BddRef]
    position_filter: BddRef | None = None   # conjoined into every cpre
    precommit: list[str] | None = None      # outputs fixed before inputs

    # -- derived relations ------------------------------------------------

    @cached_property
    def init_env(self) -> BddRef:
        return _conj(self.mgr, self.init_env_parts)

    @cached_property
    def trans_env(self) -> BddRef:
        return _conj(self.mgr, self.trans_env_parts)

    @cached_property
    def primed_inputs(self) -> list[str]:
        return [n + "'" for n in self.inputs]

    @cached_property
    def primed_outputs(self) -> list[str]:
        return [n + "'" for n in self.outputs]

    @cached_property
    def _chosen_outputs(self) -> list[str]:
        """The primed outputs `can` quantifies: all but the precommitted."""
        fixed = set(self.precommit or ())
        return [o + "'" for o in self.outputs if o not in fixed]

    @cached_property
    def _not_trans_env(self) -> BddRef:
        return ~self.trans_env

    @cached_property
    def _not_trans_sys(self) -> BddRef:
        return ~self.trans_sys

    @cached_property
    def _ts_goal(self) -> list[BddRef]:
        return [self.trans_sys & g for g in self.live_sys]

    @cached_property
    def _ts_nota(self) -> list[BddRef]:
        return [self.trans_sys & ~a for a in self.live_env]

    @cached_property
    def _ts_nota_stay(self) -> list[BddRef]:
        m = self.mgr
        stay = _conj(m, [m.var(o).iff(m.var(o + "'")) for o in self.outputs])
        return [r & stay for r in self._ts_nota]

    # -- controllable predecessors -------------------------------------

    def prime(self, v: BddRef) -> BddRef:
        return self.mgr.rename(v, "prime")

    @cached_property
    def _step(self):
        """(can, cpre, product) on node ids: the controllable step that
        `solve_game` runs, with the relations and quantifier-set ids read
        once.  The ids they hold stay valid while this game lives, since
        it keeps their handles.

        `product(rel, v)` is exists O' (rel & v') over the chosen outputs.
        `can` gives the same BDD, but first drops from `rel` the chosen
        outputs whose primed levels lie above v's primed top, on which v'
        does not depend: exists Q. rel & v' = exists Q. (exists Q<. rel) &
        v' (early quantification, Burch, Clarke & Long 1991).  Each
        relation gets a ladder of projections P_k = exists q_0..q_{k-1}.
        rel over the chosen levels q_0 < q_1 < ..., each rung one
        `_and_exists` of the rung before it, held as a handle for the
        game's lifetime.  A ladder grows on demand, and only while a rung
        moves the projection's top level down; the first rung that does
        not would keep the prefix the product walks, and the ladder stops
        there for good.  `can` starts the product from the deepest rung
        above v's primed top, so it skips the walk through the
        relation's prefix that the plain product makes once per iterate;
        that rung is P_0 = rel itself when v lies above q_0 or the ladder
        stopped at P_0.
        """
        m = self.mgr
        level = m._level
        chosen = m._names_qid(self._chosen_outputs)
        qlevels = sorted(m._qset_levels[chosen])
        env = m._names_qid(self.primed_inputs)
        not_env = self._not_trans_env.node
        fixed = (m._names_qid([o + "'" for o in self.precommit])
                 if self.precommit else None)
        where = (None if self.position_filter is None
                 else self.position_filter.node)
        ladders: dict[int, list[BddRef]] = {}   # rel -> rungs P_0, P_1, ..
        stopped: set[int] = set()

        def rung(rel: int, v: int) -> int:
            if v <= TRUE:
                return rel
            k = bisect_left(qlevels, level[v] + 1)
            rungs = ladders.get(rel)
            if rungs is None:
                rungs = ladders[rel] = [BddRef(m, rel)]
            while len(rungs) <= k and rel not in stopped:
                p = rungs[-1].node
                q = m._qset_id(frozenset((qlevels[len(rungs) - 1],)))
                nxt = m._and_exists(p, TRUE, q)
                if level[nxt] <= level[p]:
                    stopped.add(rel)
                    break
                rungs.append(BddRef(m, nxt))
            return rungs[min(k, len(rungs) - 1)].node

        def product(rel: int, v: int) -> int:
            return m._and_exists_primed(rel, v, chosen)

        def can(rel: int, v: int) -> int:
            return m._and_exists_primed(rung(rel, v), v, chosen)

        def cpre(c: int) -> int:
            good = m._or_forall(not_env, c, env)
            if fixed is not None:
                good = m._and_exists(good, TRUE, fixed)
            if where is not None:
                good = m._and(good, where)
            return good

        return can, cpre, product

    def can(self, rel: BddRef, v: BddRef) -> BddRef:
        """exists O' (rel & v'): the system half of a controllable step.
        Precommitted outputs stay free; `cpre` quantifies them.  The
        product reads v in place of v', so no primed copy is built, and
        starts from the projection of rel on its ladder that drops the
        chosen outputs above v's primed top (see `_step`)."""
        m = self.mgr
        m._check_same(rel, v)
        m._bound_cache()
        return BddRef(m, self._step[0](rel.node, v.node))

    def cpre(self, can: BddRef) -> BddRef:
        """Positions where every legal env move admits a sys reply in
        `can` (over current variables, next inputs and precommitted next
        outputs, as built by `can`): the environment half of a
        controllable step.  A deadlocked environment counts as
        controllable."""
        m = self.mgr
        m._check_same(can)
        m._bound_cache()
        return BddRef(m, self._step[1](can.node))

    def cox(self, v: BddRef) -> BddRef:
        """Positions where every legal env move has a legal sys reply into v."""
        return self.cpre(self.can(self.trans_sys, v))

    def forced(self, target: BddRef) -> BddRef:
        """Positions and next inputs after which every legal sys reply
        satisfies `target` (a stuck system counts as forced)."""
        return self.mgr.or_forall(self._not_trans_sys, target,
                                  self.primed_outputs)

    def env_pre(self, target: BddRef) -> BddRef:
        """Positions where some legal env move makes every legal sys reply
        satisfy `target`."""
        return self.mgr.and_exists(self.trans_env, self.forced(target),
                                   self.primed_inputs)

    def pre_env(self, v: BddRef) -> BddRef:
        return self.env_pre(self.prime(v))


@dataclass
class WinningRegion:
    win: BddRef
    strata: list[list[BddRef]]            # [goal][d] = distance <= d
    xcores: list[list[list[BddRef]]]      # [goal][d][assumption]
    stationary: list[list[bool]]          # [goal][d]: waits were stationary
    game: SymbolicGame
    steps: int                            # controllable steps (nu-X rounds)

    def distance(self, position: dict[str, bool], goal: int):
        """Smallest stratum index containing the position; inf if losing."""
        for d, s in enumerate(self.strata[goal]):
            if self.game.mgr.eval(s, position):
                return d
        return float("inf")


class _Fixpoint:
    """One solve's fixpoint, run on node ids: the game's relations and
    step are read once, and a controllable step (one nu-X round) trims
    the computed table once and makes no handle.  An id is valid until
    the manager's next collection.  The solve's one safe point is the
    top of each mu-Y iteration: `BddManager.maybe_collect` collects
    there when its rule finds a collection due, keeping, besides the
    handles, the ids the sweep still needs (`_held`): Z, the goal term,
    Y, the strata and xcore rows built so far, and every row that the
    sweep has finished.  Everything else there is dead: the step's
    intermediate results and the earlier sweeps' rows.

    A solve from an upper bound (`warm`, a weaker variant's) takes the
    plain product rather than the game's laddered `can`.  Its Z shrinks
    over many sweeps, and a sweep's iterates can hold the sweep before's
    strata as cofactors, whose products walk the relation's prefix
    anyway: a walk the ladder skips in one sweep then only moves into
    the next, as one burst that a small computed table does not keep
    (seen on the shift chain without its liveness assumption)."""

    def __init__(self, game: SymbolicGame, warm: bool = False):
        self.mgr = game.mgr
        can, self.cpre, product = game._step
        self.can = product if warm else can
        self.trans_sys = game.trans_sys.node
        self.goals = [r.node for r in game._ts_goal]
        self.waits = ([r.node for r in game._ts_nota_stay],
                      [r.node for r in game._ts_nota])
        self.steps = 0

    def nu_x(self, base: int, wait: int) -> int:
        """nu X. cpre(base | can(wait, X)) for a fixed system half `base`."""
        bound, or_, can, cpre = (self.mgr._bound_cache, self.mgr._or,
                                 self.can, self.cpre)
        x = TRUE
        while True:
            bound()
            self.steps += 1
            xn = cpre(or_(base, can(wait, x)))
            if xn == x:
                return x
            x = xn

    def mu_y(self, z: int, j: int, done=()):
        """One mu-Y evaluation for goal j against outer value z, after
        the rows `done` of the same sweep.  Returns the row (y, strata
        list, xcore rows, stationary flags)."""
        mgr = self.mgr
        goal_z = self.can(self.goals[j], z)
        y, strata, xrows, flags = FALSE, [], [], []
        while True:
            # safe point: a collection, when due, keeps the ids named here
            mgr.maybe_collect(_held(z, goal_z, (y, strata, xrows, flags),
                                    *done))
            mgr._bound_cache()
            base = mgr._or(goal_z, self.can(self.trans_sys, y))
            # free waiting first; if it makes no progress, allow moving
            # waits so the chain still converges to the exact winning set
            for stationary, waits in zip((True, False), self.waits):
                xrow = [self.nu_x(base, w) for w in waits]
                ynew = balanced(mgr._or, FALSE, xrow)
                if ynew != y:
                    break
            else:
                return y, strata, xrows, flags
            y = ynew
            strata.append(y)
            xrows.append(xrow)
            flags.append(stationary)


def _held(z: int, goal_z: int, *rows):
    """The ids a sweep still needs at the top of a mu-Y iteration: Z,
    the goal term, and the sets of each row, the current one (Y and the
    strata and xcore rows built so far) and those the sweep finished."""
    yield z
    yield goal_z
    for y, strata, xrows, _flags in rows:
        yield y
        yield from strata
        for xrow in xrows:
            yield from xrow


def _union(mgr: BddManager, sets: list[BddRef]) -> BddRef:
    """Disjunction of `sets` as a balanced tree; FALSE when empty."""
    return balanced(operator.or_, mgr.false, sets)


def _conj(mgr: BddManager, sets: list[BddRef]) -> BddRef:
    """Conjunction of `sets` as a balanced tree; TRUE when empty."""
    return balanced(operator.and_, mgr.true, sets)


def solve_game(game: SymbolicGame, start: BddRef | None = None, *,
               holds=None, record: bool = True) -> WinningRegion | None:
    """GR(1) fixpoint; resource limits surface as ResourceLimitError.

    Sweeps the goals until one whole sweep leaves Z unchanged; the mu-Y
    evaluations of that sweep all ran against the final Z, so their
    strata, xcores and stationary flags are the recorded ones.  The
    sweeps run on node ids (`_Fixpoint`), and only the recorded sets
    are wrapped in BddRefs, at the end.  A collection may run at the
    top of any mu-Y iteration, the one safe point, once the manager
    finds it due (`maybe_collect`), so a solve's memory follows its live
    nodes; it keeps Z and the rows this sweep has finished, as long as
    Z has not moved in it (a sweep that moves Z makes every row stale).

    `start` may give a known upper bound on the winning set (e.g. the
    previous element of a shrinking chain of games); correctness needs
    one sweep to be deflationary from it, which holds whenever `start`
    is the winning set of an otherwise identical game with more system
    power.

    `holds`, a test on sets that is monotone in them (`start_ok`), is
    applied to each Z a goal's mu-Y moves it to, and the solve returns
    None at the first Z that fails it.  Every such Z contains the
    winning set (Bloem et al., JCSS 2012), so the winning set fails the
    test too.  A Z that never moves, `start` or TRUE, is not tested, so
    a region that comes back may still fail it.

    `record` changes nothing and is ignored: the last sweep is always
    recorded.  It is still accepted because `bench/selftest.py` passes it.
    """
    fix = _Fixpoint(game, warm=start is not None)
    z = start.node if start is not None else TRUE
    while True:
        changed, rows = False, []
        for j in range(len(fix.goals)):
            row = fix.mu_y(z, j, rows)
            if row[0] != z:
                changed, z, rows = True, row[0], []
                if holds is not None and not holds(BddRef(game.mgr, z)):
                    return None
            elif not changed:
                rows.append(row)
        if not changed:
            break
    ref = partial(BddRef, game.mgr)
    return WinningRegion(
        win=ref(z), strata=[list(map(ref, r[1])) for r in rows],
        xcores=[[list(map(ref, x)) for x in r[2]] for r in rows],
        stationary=[r[3] for r in rows], game=game, steps=fix.steps)


def solves_alike(a: SymbolicGame, b: SymbolicGame) -> bool:
    """Whether `solve_game` reads the same inputs from `a` and `b`, and so
    returns the same region for both: the manager and signals, both
    safety relations, both liveness lists, the precommitted outputs and
    the position filter.  It never reads `init_env` or `init_sys`.  Each
    BDD comparison is O(1)."""
    return (a.mgr is b.mgr and a.inputs == b.inputs
            and a.outputs == b.outputs and a.precommit == b.precommit
            and a.position_filter == b.position_filter
            and a.trans_sys == b.trans_sys and a.live_sys == b.live_sys
            and a.live_env == b.live_env and a.trans_env == b.trans_env)


def start_ok(game: SymbolicGame, v: BddRef) -> bool:
    """The game's initial condition on the set `v`, monotone in it, and
    the one rule of who picks the initial position: the verdict, every
    variant solve (as `holds`) and the abstract table's two winners (the
    environment's is `not start_ok(game, ~v)`) read it.  Standard: for
    some value of the precommitted outputs, every initial input the
    assumptions admit has an initial output the guarantees admit in
    `v`.  Robotics: the environment picks the whole initial position,
    so each one the initial parts admit is in `v`; precommit changes
    nothing there.  `stuck_at_analysis`'s certificate from the canonical
    strategy holds only under standard semantics, as robotics asks about
    every admitted initial output; `nominal_trace`'s least admitted
    start in W is one the environment may pick under robotics too."""
    mgr = game.mgr
    if game.robotics:
        cond = (game.init_env & game.init_sys).implies(v)
        return mgr.forall(game.inputs + game.outputs, cond).is_true()
    fixed = list(game.precommit or ())
    rest = [o for o in game.outputs if o not in fixed]
    some = mgr.exists(rest, game.init_sys & v)
    cond = mgr.forall(game.inputs, game.init_env.implies(some))
    return mgr.exists(fixed, cond).is_true()


def openings(game: SymbolicGame, v: BddRef, player: str) -> BddRef:
    """The admitted initial positions with which `player` ("system" or
    "environment") opens inside `v`: those in `v`, but under standard
    semantics the environment picks only the inputs, so its inputs must
    send every admitted initial output into `v`."""
    if player == "environment" and not game.robotics:
        v = game.mgr.forall(game.outputs, game.init_sys.implies(v))
    return game.init_env & game.init_sys & v


def check_realizability(game: SymbolicGame, region: WinningRegion) -> str:
    """'realizable' or 'unrealizable' for a solved region: `start_ok`
    for its winning set."""
    return "realizable" if start_ok(game, region.win) else "unrealizable"


# ----------------------------------------------------------------------
# construction

_FORCE_ROUNDS = 20


def _level_order(spec: BooleanSpec, signals: list[str]) -> list[str]:
    """Static BDD level order for `signals` (a sub-list of the spec's
    propositions, in declaration order).

    The order is made of units that are never split: a boolean signal,
    or a class of integers that comparisons link (`spec.linked`), laid
    out in bit slices MSB first, slice k holding bit k of each member in
    declaration order.  An equality of two interleaved words has a BDD
    of linear size, of exponential size when the words lie in separate
    blocks (Bryant, IEEE TC 1986).  The units start in declaration order
    and are moved by FORCE (Aloul, Markov & Sakallah, GLSVLSI 2003):
    every spec part over two or more units is a hyperedge over those in
    its support (X(p) counts as p); a round moves each unit to the mean
    centre of gravity of its edges (a unit without edges keeps its
    place; the sort is stable) and is accepted only if it strictly
    lowers the total edge span, so an order that is already local stays
    as it is.
    """
    todo = set(signals)
    group_of = {b: name for name, g in spec.groups.items() for b in g.bits}
    units: list[list[str]] = []
    unit_of: dict[str, int] = {}
    for p in signals:
        if p in unit_of:
            continue
        name = group_of.get(p)
        if name is None:
            unit = [p]
        else:
            words = [spec.groups[m].bits
                     for m in spec.linked.get(name, (name,))]
            unit = [w[k] for k in reversed(range(max(map(len, words))))
                    for w in words if k < len(w) and w[k] in todo]
        unit_of.update((b, len(units)) for b in unit)
        units.append(unit)
    edges = []
    for parts in spec.parts.values():
        for part in parts:
            edge = {unit_of[name] for name, _primed in ir_support(part.ir)
                    if name in todo}
            if len(edge) > 1:
                edges.append(edge)

    def span(pos: dict[int, int]) -> int:
        return sum(max(pos[v] for v in e) - min(pos[v] for v in e)
                   for e in edges)

    order = list(range(len(units)))
    pos = {v: v for v in order}
    best = span(pos)
    for _ in range(_FORCE_ROUNDS):
        pull = {v: [] for v in order}
        for e in edges:
            cog = sum(pos[v] for v in e) / len(e)
            for v in e:
                pull[v].append(cog)
        new = sorted(order, key=lambda v: (sum(pull[v]) / len(pull[v])
                                           if pull[v] else pos[v]))
        new_pos = {v: i for i, v in enumerate(new)}
        cost = span(new_pos)
        if cost >= best:
            break
        order, pos, best = new, new_pos, cost
    return [b for u in order for b in units[u]]


def build_game(spec: BooleanSpec, robotics: bool = False,
               mgr: BddManager | None = None) -> SymbolicGame:
    """Build the strict synthesis game of a compiled specification: the
    system loses on violating its safety parts unless the environment
    violated first.  The game under classical implication is the
    `classical` edit of this one; nothing else builds it.

    The game goes into a fresh manager without limits, or into `mgr`
    (whose own limits apply), reusing the signals it already has; the
    others are declared in the order `_level_order` picks.  No result
    depends on that order: `positions` and every enumeration follow the
    declaration order.
    """
    if mgr is None:
        mgr = BddManager()
    positions = list(spec.props)
    declared = set(mgr.var_names)
    for p in _level_order(spec, [p for p in positions if p not in declared]):
        mgr.declare_signal(p)
    memo: dict = {}

    def bdds(kind: str) -> list[BddRef]:
        return [ir_to_bdd(mgr, p.ir, memo) for p in spec.parts[kind]]

    return SymbolicGame(
        mgr=mgr, robotics=robotics, inputs=list(spec.input_props),
        outputs=list(spec.output_props), positions=positions,
        init_env_parts=bdds("env_init"),
        init_sys=_conj(mgr, bdds("sys_init")),
        trans_env_parts=bdds("env_trans"),
        trans_sys=_conj(mgr, bdds("sys_trans")),
        live_env=bdds("env_liveness") or [mgr.true],
        live_sys=bdds("sys_liveness") or [mgr.true])


def classical(game: SymbolicGame) -> SymbolicGame:
    """The strict game's specification under classical implication.

    Classically the system also wins a play in which it breaks a
    guarantee, provided the environment breaks an assumption too.
    Environment violations already count as system wins in `cpre` and
    in `check_realizability`, so the edit adds the system's own.  Once
    the system has broken a guarantee, none binds it any more and only
    an assumption violation can still win: it wins exactly from `L`, the
    winning set of this game with free system moves and the single goal
    FALSE (the positions from which a freely moving system forces the
    environment to break a safety assumption or to starve a liveness
    assumption).  A guarantee-violating initial position or move is
    therefore allowed exactly when it lands in `L`, and the edit widens
    the guarantees to `init_sys | L` and `trans_sys | L'`.  The free
    strategy from `L` moves inside `L`, so `L` is inside the edited
    game's winning set.  The edit declares no signal.
    """
    mgr = game.mgr
    free = replace(game, trans_sys=mgr.true, live_sys=[mgr.false])
    forced_violation = solve_game(free).win
    return replace(game, init_sys=game.init_sys | forced_violation,
                   trans_sys=game.trans_sys | game.prime(forced_violation))


# ----------------------------------------------------------------------
# strategy extraction

@dataclass(frozen=True)
class MealyState:
    sid: int
    inputs: tuple[bool, ...]
    outputs: tuple[bool, ...]
    goal: int


@dataclass
class MealyMachine:
    input_names: list[str]
    output_names: list[str]
    states: list[MealyState]
    initial: list[int]
    transitions: dict[int, list[tuple[tuple[bool, ...], int]]]
    n_goals: int

    def position(self, s: MealyState) -> dict[str, bool]:
        pos = dict(zip(self.input_names, s.inputs))
        pos.update(zip(self.output_names, s.outputs))
        return pos

    def to_json(self, spec: BooleanSpec | None = None) -> dict:
        def val_map(names, values, kind):
            m = dict(zip(names, values))
            if spec is not None:
                ints = {n: v for n, v in spec.decode(m, kind).items()
                        if n in spec.groups}
                if ints:
                    return {"bits": m, "ints": ints}
            return {"bits": m}

        states = []
        for s in self.states:
            entry = {"id": s.sid, "goal": s.goal}
            entry["inputs"] = val_map(self.input_names, s.inputs, "input")
            entry["outputs"] = val_map(self.output_names, s.outputs,
                                       "output")
            states.append(entry)
        transitions = []
        for sid in sorted(self.transitions):
            for ivals, nxt in self.transitions[sid]:
                transitions.append({
                    "from": sid,
                    "input": val_map(self.input_names, ivals, "input"),
                    "to": nxt,
                })
        return {"states": states, "initial": list(self.initial),
                "transitions": transitions}


def _assign_tuple(model: dict[str, bool], names: list[str]) -> tuple[bool, ...]:
    return tuple(model[n] for n in names)


def extract_strategy(game: SymbolicGame, region: WinningRegion) -> MealyMachine:
    """Deterministic winning machine, states labeled (input, output, goal).

    From a state pursuing goal j the machine takes, per admissible input:
    a goal transition into the winning set when one exists (then rotates
    to goal j+1), else a stratum-decreasing transition, else a waiting
    move inside the first assumption-starving region containing the
    state.  Ties break to the lexicographically smallest next-output
    cube in declaration order.  Once `start_ok` holds, every initial
    input has a winning initial output, except under robotics one with
    no admissible initial output: it gets no initial state.
    """
    if check_realizability(game, region) != "realizable":
        raise GameError("extract_strategy on an unrealizable game")
    mgr = game.mgr
    n_goals = len(game.live_sys)
    win_p = game.prime(region.win)
    goal_move = [game._ts_goal[j] & win_p for j in range(n_goals)]
    strata_p = [[game.prime(s) for s in region.strata[j]]
                for j in range(n_goals)]
    inputs, outputs = game.inputs, game.outputs

    states: dict[tuple, MealyState] = {}
    order: list[MealyState] = []
    transitions: dict[int, list[tuple[tuple[bool, ...], int]]] = {}

    def intern(ivals, ovals, goal) -> MealyState:
        key = (ivals, ovals, goal)
        s = states.get(key)
        if s is None:
            s = MealyState(len(order), ivals, ovals, goal)
            states[key] = s
            order.append(s)
            transitions[s.sid] = []
        return s

    initial: list[int] = []
    init_options = game.init_sys & region.win
    for model in mgr.iter_models(game.init_env, inputs):
        opts = mgr.restrict(init_options, model)
        if opts.is_false():
            continue  # robotics: no admissible initial output, vacuous
        out_model = mgr.pick_min_model(opts, outputs)
        s = intern(_assign_tuple(model, inputs),
                   _assign_tuple(out_model, outputs), 0)
        if s.sid not in initial:
            initial.append(s.sid)

    queue = list(initial)
    seen = set(initial)
    while queue:
        sid = queue.pop(0)
        st = order[sid]
        pos = dict(zip(inputs, st.inputs))
        pos.update(zip(outputs, st.outputs))
        j = st.goal
        d = region.distance(pos, j)
        if d == float("inf"):
            raise GameError("reached a losing state during extraction")
        env_moves = mgr.restrict(game.trans_env, pos)
        for imodel in mgr.iter_models(env_moves, game.primed_inputs):
            step = dict(pos)
            step.update(imodel)
            # priority 1: take a goal transition and rotate
            opts = mgr.restrict(goal_move[j], step)
            next_goal = (j + 1) % n_goals
            if opts.is_false():
                next_goal = j
                # priority 2: decrease the stratum index
                if d > 0:
                    opts = mgr.restrict(game.trans_sys & strata_p[j][d - 1],
                                        step)
                if d == 0 or opts.is_false():
                    # waiting move in the first starving region holding pos
                    wait = (game._ts_nota_stay if region.stationary[j][d]
                            else game._ts_nota)
                    opts = mgr.false
                    for i in range(len(game.live_env)):
                        xcore = region.xcores[j][d][i]
                        if not mgr.eval(xcore, pos):
                            continue
                        cand = mgr.restrict(
                            wait[i] & game.prime(xcore), step)
                        if not cand.is_false():
                            opts = cand
                            break
                    if opts.is_false():
                        raise GameError("no admissible move found")
            omodel = mgr.pick_min_model(opts, game.primed_outputs)
            ivals = tuple(imodel[n + "'"] for n in inputs)
            ovals = tuple(omodel[n + "'"] for n in outputs)
            nxt = intern(ivals, ovals, next_goal)
            transitions[sid].append((ivals, nxt.sid))
            if nxt.sid not in seen:
                seen.add(nxt.sid)
                queue.append(nxt.sid)

    return MealyMachine(
        input_names=list(inputs), output_names=list(outputs),
        states=order, initial=initial, transitions=transitions,
        n_goals=n_goals)


# ----------------------------------------------------------------------
# the canonical strategy as relations

def _lexmin(mgr: BddManager, rel: BddRef, names: list[str]) -> BddRef:
    """`rel` narrowed, for each valuation of its other variables, to its
    lexicographically smallest valuation of `names` (in the order given,
    false before true): `pick_min_model`'s tie-break, one name at a
    time, for a set of valuations, as `reached_positions` needs it."""
    for n in names:
        low = mgr.and_exists(rel, mgr.nvar(n), names)  # n can be false
        rel = mgr.apply("diff", rel, mgr.var(n) & low)
    return rel


def canonical_moves(game: SymbolicGame, region: WinningRegion, j: int,
                    src: BddRef) -> tuple[BddRef, BddRef]:
    """The ranked moves of `extract_strategy`'s machine for goal j from
    `src`, a set over positions and next inputs.

    Returns (moves, goal): `moves` relates each pair in `src` with the
    next outputs of its first priority that has a move, and `goal` holds
    the pairs whose move is a goal move, after which the machine pursues
    goal j+1.  The priorities are the machine's: a goal move into the
    winning set; else, from exact stratum d, a move into stratum d-1;
    else a waiting move inside the first xcore of stratum d that holds
    the position and has one.  The caller breaks the remaining ties as
    the machine does, by the smallest primed outputs.  Each term is
    built from the part of `src` it applies to, so no per-goal relation
    is kept.
    """
    mgr = game.mgr
    outs = game.primed_outputs
    strata = region.strata[j]
    # each `rel & v'` reads v in place of v', so no primed copy is built
    terms = [mgr.and_exists_primed(src & game._ts_goal[j], region.win, [])]
    goal = mgr.exists(outs, terms[0])
    rest = mgr.apply("diff", src, goal)
    for d, stratum in enumerate(strata):
        if rest.is_false():
            break
        part = rest & stratum
        if part.is_false():
            continue
        rest = mgr.apply("diff", rest, stratum)
        if d > 0:
            terms.append(mgr.and_exists_primed(part & game.trans_sys,
                                               strata[d - 1], []))
            part = mgr.apply("diff", part, mgr.exists(outs, terms[-1]))
        wait = (game._ts_nota_stay if region.stationary[j][d]
                else game._ts_nota)
        for x, w in zip(region.xcores[j][d], wait):
            if part.is_false():
                break
            terms.append(mgr.and_exists_primed(part & x & w, x, []))
            part = mgr.apply("diff", part, mgr.exists(outs, terms[-1]))
    return _union(mgr, terms), goal


def reached_positions(game: SymbolicGame,
                      region: WinningRegion) -> list[BddRef]:
    """The positions `extract_strategy`'s machine reaches, one set per
    goal it pursues there, found by a breadth-first search over
    `canonical_moves`, whose ties each layer breaks with `_lexmin`,
    without building the machine.

    The machine starts at goal 0 from the smallest winning initial
    output of each initial input the assumptions admit.
    """
    if check_realizability(game, region) != "realizable":
        raise GameError("reached_positions on an unrealizable game")
    mgr = game.mgr
    n = len(game.live_sys)
    init = (mgr.exists(game.outputs, game.init_env) & game.init_sys
            & region.win)
    visited = [mgr.false] * n
    frontier = [mgr.false] * n
    visited[0] = frontier[0] = _lexmin(mgr, init, game.outputs)
    while any(not f.is_false() for f in frontier):
        found = [mgr.false] * n
        for j, src in enumerate(frontier):
            if src.is_false():
                continue
            moves, goal = canonical_moves(game, region, j,
                                          src & game.trans_env)
            moves = _lexmin(mgr, moves, game.primed_outputs)
            nxt = (j + 1) % n
            found[nxt] = found[nxt] | mgr.and_exists(moves, goal,
                                                     game.positions)
            found[j] = found[j] | mgr.and_exists(moves, ~goal,
                                                 game.positions)
        for j in range(n):
            frontier[j] = mgr.apply("diff", mgr.rename(found[j], "unprime"),
                                    visited[j])
            visited[j] = visited[j] | frontier[j]
        # the layer's relations are dead here: let a collection free them
        del moves, goal, found
        mgr.maybe_collect()
    return visited


def reactive_distance(region: WinningRegion, position: dict[str, bool],
                      goal: int):
    """Waiting-phase distance of a position to a system goal; inf when
    the position is losing."""
    if not 0 <= goal < len(region.strata):
        raise GameError(f"goal index {goal} out of range")
    return region.distance(position, goal)
