"""Specification debugging analyses.

The analyses of one report share a Session: one manager holding the
baseline games and regions, the positions the canonical strategy
reaches and the falsification set, all as BDDs; no explicit machine
is built.  Every other game
(classical implication, a goal set to FALSE, an assumption dropped, a
signal pinned, outputs committed early, glitch positions filtered out)
is a dataclasses.replace edit of the strict baseline game in that manager,
compared with it as BDDs; only the strict baseline is built from the
specification, and no game is mutated.  Every variant solve states its
direction: whether the edit only takes power from the system, so that
its winning set lies inside the baseline's W (`Session.solve`).  A
variant with the baseline's solver inputs has the baseline's region,
and `Session.settle` answers a verdict without a solve when W already
decides it.  The session also carries the settings every analysis run
in it uses (robotics realizability, the node budget and the timeout).
Called on a plain BooleanSpec, an analysis runs in a fresh
Session(spec) with the default settings, so such calls may run
concurrently.  All results are deterministic functions of
(specification, options).
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate, islice

from .bdd import BddManager, BddRef, Cube
from .compiler import BooleanSpec, BoolPart
from .game import (
    SymbolicGame, WinningRegion, build_game, classical, solve_game,
    check_realizability, reached_positions, solves_alike, start_ok, _union,
)

INFINITE = float("inf")


class AnalysisError(Exception):
    pass


class Session:
    """One solving context for a specification, each part built on first
    use, with the settings of every analysis run in it: robotics
    realizability, a node budget bounding the one manager, and a
    cooperative timeout whose deadline starts here and again at each
    `restart` (run_report restarts before each analysis).  The session
    keeps the canonical strategy's reached positions, never the strategy
    itself: test (d) and the nominal trace get its moves from
    `canonical_moves` as BDD relations.  It keeps the falsification set
    too (`falsified`).  The analyses solve their
    variant games through `solve`, or ask `settle` for a variant's
    verdict; both take the direction of the power change."""

    def __init__(self, spec: BooleanSpec, robotics=False, node_budget=None,
                 timeout=None):
        self.spec = spec
        self.robotics = robotics
        self.timeout = timeout
        self.mgr = BddManager(node_budget=node_budget)
        self._games: dict[str, SymbolicGame] = {}
        self._regions: dict[str, WinningRegion] = {}
        self._reached: list[BddRef] | None = None
        self._falsified: tuple[SymbolicGame, BddRef] | None = None
        self.restart()

    def restart(self):
        """Give the next step the whole timeout, and free the nodes the
        step before left behind: all dead, so unconditionally, not by the
        due rule (`BddManager.maybe_collect`), which kept them and took
        the bench corpus's peak RSS from about 36 to 45 MB."""
        if self.timeout is not None:
            self.mgr.deadline = time.monotonic() + self.timeout
        self.mgr.collect()

    def game(self, semantics="strict") -> SymbolicGame:
        """Baseline game.  The strict one is the only game built from the
        specification; the classical one is its `classical` edit, over
        the same signals, whose widened guarantees come from one more
        solve in this manager."""
        if semantics not in self._games:
            self._games[semantics] = (
                classical(self.game()) if semantics == "nonstrict"
                else build_game(self.spec, self.robotics, self.mgr))
        return self._games[semantics]

    def region(self, semantics="strict") -> WinningRegion:
        """Baseline winning region, recorded (strata, xcores and
        stationary flags of the solver's last sweep)."""
        if semantics not in self._regions:
            game = self.game(semantics)
            self._regions[semantics] = (solve_game(game)
                                        if semantics == "strict"
                                        else self.solve(game, weaker=False))
        return self._regions[semantics]

    def solve(self, game: SymbolicGame, weaker: bool,
              holds=None) -> WinningRegion | None:
        """Winning region of `game`, an edit of the strict baseline game.
        `weaker` says that the edit only takes power from the system, so
        that its winning set lies inside the baseline's W (Bloem et al.,
        JCSS 2012): the solve starts from W, else from TRUE.  `holds` is
        passed on to `solve_game`, which returns None at the first bound
        that fails it; a region that comes back may still fail it.

        A game that `solves_alike` the baseline gets the baseline's region
        without a solve: `solve_game` reads nothing else of a game, and
        its recorded sweep ran against the greatest fixpoint, so the
        winning set, strata, xcores and flags would be the same.  The
        initial conditions may still differ; `check_realizability` reads
        them from `game`.  That holds for a dropped initial assumption,
        a dropped safety assumption the others imply, and the classical
        game when no position forces an assumption violation."""
        if solves_alike(game, self.game()):
            return self.region()
        return solve_game(game, start=self.region().win if weaker else None,
                          holds=holds)

    def settle(self, game: SymbolicGame, weaker: bool) -> str:
        """`check_realizability` of `game`, an edit of the strict baseline
        game in the direction `weaker` (see `solve`), solved only when W
        leaves it open.  The check, `start_ok`, is monotone in the
        winning set, so a weaker variant (W_v inside W) that fails it
        with W is unrealizable, and a stronger one that passes it is
        realizable.  Else the solve tests it on each bound it passes,
        all of which hold W_v, and stops at the first that fails: the
        variant is unrealizable.  A region that comes back is checked
        itself, as a solve from TRUE may never have moved its bound."""
        verdict = check_realizability(game, self.region())
        if (verdict == "realizable") != weaker:
            return verdict
        region = self.solve(game, weaker, holds=partial(start_ok, game))
        return ("unrealizable" if region is None
                else check_realizability(game, region))

    def verdict(self, semantics="strict") -> str:
        return check_realizability(self.game(semantics),
                                   self.region(semantics))

    def require_realizable(self, what: str, error=AnalysisError):
        if self.verdict() != "realizable":
            raise error(f"{what} needs a realizable specification")

    def reached(self) -> list[BddRef]:
        """The positions the canonical strategy of the strict baseline
        reaches, one set per goal it pursues there (`reached_positions`).
        Only these sets are kept, no strategy relation."""
        if self._reached is None:
            self._reached = reached_positions(self.game(), self.region())
        return self._reached

    def falsified(self) -> tuple[SymbolicGame, BddRef]:
        """The strict baseline game with FALSE as its only system goal,
        and its winning set: the positions from which the system can
        force an assumption violation.  GR(1) games are determined, so
        the complement is the environment's winning set for its liveness
        assumptions, where the nominal trace plays.  The goal FALSE only
        takes power from the system, so the solve starts from W.  Only
        this game and set are kept."""
        if self._falsified is None:
            game = _goal_false(self.game())
            self._falsified = game, self.solve(game, weaker=True).win
        return self._falsified


def _session(spec: BooleanSpec | Session) -> Session:
    """`spec` itself when it is a session, else a fresh session on it."""
    return spec if isinstance(spec, Session) else Session(spec)


# ----------------------------------------------------------------------
# strict vs. classical implication

@dataclass
class SemanticsComparison:
    strict: str
    nonstrict: str

    @property
    def differs(self) -> bool:
        return self.strict != self.nonstrict


def semantics_comparison(spec: BooleanSpec | Session) -> SemanticsComparison:
    """Realizability under the native strict implication and under the
    classical implication; a difference flags specs whose auxiliary
    signals let the system provoke assumption violations.

    The classical game is built and solved only when the strict verdict
    is unrealizable.  Its edit only widens the guarantees, to
    `init_sys | L` and `trans_sys | L'`, so its winning set holds the
    strict one, and `L` lies inside it (`game.classical`).  The standard
    check is monotone in the initial guarantees and the winning set; the
    robotics check asks every admitted initial position to be winning,
    and the positions the edit admits are in `L`.  So a strict
    "realizable" is a classical "realizable" under both checks."""
    session = _session(spec)
    strict = session.verdict("strict")
    return SemanticsComparison(
        strict=strict,
        nonstrict=(strict if strict == "realizable"
                   else session.verdict("nonstrict")))


# ----------------------------------------------------------------------
# winning/losing position statistics

@dataclass
class ClassCount:
    total: int
    winning: int


@dataclass
class PositionStats:
    classes: dict[str, ClassCount]
    winning_cubes: list[Cube]
    losing_cubes: list[Cube]
    realizable: str


def position_statistics(spec: BooleanSpec | Session,
                        max_cubes: int = 10) -> PositionStats:
    """Counts of winning positions in four position classes plus the
    largest winning and losing cubes."""
    session = _session(spec)
    game = session.game()
    mgr = game.mgr
    pos = game.positions
    win = session.region().win

    def cls(pred):
        return ClassCount(total=mgr.count_models(pred, pos),
                          winning=mgr.count_models(pred & win, pos))

    classes = {
        "all": cls(mgr.true),
        "init_assumptions": cls(game.init_env),
        "init_guarantees": cls(game.init_sys),
        "init_both": cls(game.init_env & game.init_sys),
    }
    assert classes["all"].total == 1 << len(pos)
    return PositionStats(
        classes=classes,
        winning_cubes=list(islice(mgr.prime_cubes(win, pos), max_cubes)),
        losing_cubes=list(islice(mgr.prime_cubes(~win, pos), max_cubes)),
        realizable=session.verdict())


# ----------------------------------------------------------------------
# positions from which assumptions can be falsified

@dataclass
class FalsificationResult:
    count: int
    cubes: list[Cube]
    game: SymbolicGame
    region_bdd: object  # BddRef over game.positions


def assumption_falsification(spec: BooleanSpec | Session,
                             max_cubes: int = 10) -> FalsificationResult:
    """Winning set of the game whose only system goal is FALSE: exactly
    the positions from which the system can force an assumption
    violation (`Session.falsified`, solved once per session).  No
    iterate reads the outer fixpoint Z, so the first sweep already
    reaches the winning set and the second confirms it (the first does,
    when that set is W)."""
    session = _session(spec)
    game, win = session.falsified()
    mgr = game.mgr
    return FalsificationResult(
        count=mgr.count_models(win, game.positions),
        cubes=list(islice(mgr.prime_cubes(win, game.positions), max_cubes)),
        game=game, region_bdd=win)


def _goal_false(game: SymbolicGame) -> SymbolicGame:
    """`game` with FALSE as its only system goal."""
    return replace(game, live_sys=[game.mgr.false])


# ----------------------------------------------------------------------
# superfluous assumptions

@dataclass
class AssumptionVerdict:
    kind: str
    index: int
    text: str
    test_a: bool          # removing it changes realizability
    test_b: bool          # it makes more positions winning
    test_c: bool          # it shrinks some reactive distance
    test_d: bool          # ... at a position the canonical strategy reaches
    test_c_goals: list[int] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return ("useful" if (self.test_a or self.test_b or self.test_c
                             or self.test_d) else "superfluous")


def classify_assumptions(
        spec: BooleanSpec | Session) -> list[AssumptionVerdict]:
    """Four-test classification of every user assumption.

    An assumption is superfluous when removing it neither changes
    realizability (a) nor the winning set (b) nor any reactive distance
    (c), including distances at the positions the canonical strategy
    reaches while it pursues the goal in question (d).
    """
    session = _session(spec)
    session.require_realizable("assumption classification")
    region = session.region()
    visited = session.reached()
    verdicts = []
    for kind in ("env_init", "env_trans", "env_liveness"):
        for part in session.spec.parts[kind]:
            if not part.synthetic:
                verdicts.append(_drop_assumption(session, region, visited,
                                                 part))
    return verdicts


def _without(session: Session, part: BoolPart) -> SymbolicGame:
    """The strict baseline game without one assumption: entry
    `part.index` of the list that holds its kind."""
    game = session.game()
    name = {"env_init": "init_env_parts", "env_trans": "trans_env_parts",
            "env_liveness": "live_env"}[part.kind]
    parts = getattr(game, name)
    kept = parts[:part.index] + parts[part.index + 1:]
    if name == "live_env":
        kept = kept or [game.mgr.true]
    return replace(game, **{name: kept})


def _drop_assumption(session: Session, region: WinningRegion,
                     visited: list[BddRef],
                     part: BoolPart) -> AssumptionVerdict:
    # removing an assumption only takes power from the system; a dropped
    # initial assumption, or a safety one the others imply, leaves the
    # solver inputs as they are and is settled without a solve
    game = _without(session, part)
    sub_region = session.solve(game, weaker=True)
    mgr = game.mgr
    win, win_wo = region.win, sub_region.win
    both = win & win_wo
    test_c_goals = []
    test_d = False
    for j, (strata, strata_wo) in enumerate(zip(region.strata,
                                                sub_region.strata)):
        # a position's distance is the first stratum holding it; past
        # the last stratum every winning position is in
        depth = max(len(strata), len(strata_wo))
        sf = strata + [win] * (depth - len(strata))
        sw = strata_wo + [win_wo] * (depth - len(strata_wo))
        helped = _union(mgr, [f & ~w for f, w in zip(sf, sw)]) & both
        if not helped.is_false():
            test_c_goals.append(j)
            test_d = test_d or not (helped & visited[j]).is_false()
    return AssumptionVerdict(
        kind=part.kind, index=part.index, text=part.text,
        test_a=check_realizability(game, sub_region) != "realizable",
        test_b=win != win_wo,  # removal never grows the set
        test_c=bool(test_c_goals), test_d=test_d, test_c_goals=test_c_goals)


# ----------------------------------------------------------------------
# error resilience against assumption glitches

@dataclass
class ResilienceResult:
    level: float            # int level or INFINITE
    exceeded: bool = False  # True when the search stopped at max_k

    def render(self, max_k: int) -> str:
        if self.level == INFINITE:
            return "infinite"
        if self.exceeded:
            return f"> {max_k}"
        return str(int(self.level))


def _exactly_one_violated(mgr: BddManager,
                          parts: list[BddRef]) -> BddRef:
    """Transitions violating exactly one of `parts`: the union over l of
    !p_l & p_0 & .. & p_{l-1} & p_{l+1} & .. & p_{k-1}, from prefix and
    suffix conjunctions built once each (k conjunctions, not k * (k-1))."""
    prefix = list(accumulate(parts, operator.and_, initial=mgr.true))
    suffix = list(accumulate(reversed(parts), operator.and_,
                             initial=mgr.true))[::-1]
    # prefix[l] = p_0 & .. & p_{l-1}; suffix[l] = p_l & .. & p_{k-1}
    return _union(mgr, [~p & prefix[ell] & suffix[ell + 1]
                        for ell, p in enumerate(parts)])


def error_resilience(spec: BooleanSpec | Session,
                     max_k: int = 16) -> ResilienceResult:
    """Largest glitch budget under which the specification stays
    realizable.

    A glitch is an environment transition violating exactly one safety
    assumption conjunct (all others still hold); liveness assumptions
    never glitch.  The budget-k winning sets form a shrinking chain
    W_0 over W_1 ... where W_{k+1} is the winning set of the base game
    restricted to positions from which every glitch successor admits a
    system reply back into W_k.  Chain stabilization proves saturation,
    i.e. an infinite level.

    Step k filters out `hole`, the positions with a glitch successor
    that has no system reply into w = W_{k-1}.  When no position of w is
    in `hole` the chain has stabilized and no solve is made: the holes
    only grow along the chain (w shrinks), so the game of step k is the
    game that returned w with more positions filtered out, all of them
    outside w.  Every fixpoint of the sweep that settled w lies inside
    w, so none of them changes, and the solve would return w.  When
    `hole` meets w the solve cannot return w, as every filtered
    controllable predecessor excludes `hole`.

    So each solve of the chain, which starts from W, moves its bound,
    and it tests the initial condition (`start_ok`) on every bound it
    moves to, each of which holds W_k: it returns None, and the level is
    k - 1, at the first that fails, and a region that comes back is
    realizable.
    """
    if max_k < 1:
        raise AnalysisError("max_k must be at least 1")
    session = _session(spec)
    session.require_realizable("error resilience")
    game = session.game()
    mgr = game.mgr
    glitch = _exactly_one_violated(mgr, game.trans_env_parts)
    if glitch.is_false():
        return ResilienceResult(level=INFINITE)

    w = session.region().win
    for k in range(1, max_k + 1):
        canv = game.can(game.trans_sys, w)
        hole = mgr.and_exists(glitch, ~canv, game.primed_inputs)
        if (hole & w).is_false():  # W_k would be w: see the docstring
            return ResilienceResult(level=INFINITE)
        region_k = session.solve(replace(game, position_filter=~hole),
                                 weaker=True, holds=partial(start_ok, game))
        if region_k is None:
            return ResilienceResult(level=k - 1)
        w = region_k.win
    return ResilienceResult(level=max_k, exceeded=True)


# ----------------------------------------------------------------------
# moving output decisions before the input

@dataclass
class PrecommitResult:
    per_output: dict[str, bool]
    maximal_set: list[str]


def precommit_analysis(spec: BooleanSpec | Session) -> PrecommitResult:
    """Which outputs can have their next value fixed before the next
    input is observed, individually and greedily jointly.

    The verdict is monotone in the committed set: committing a superset
    Q of P only takes power from the system (a move of the Q-game, with
    Q's next values fixed before the next input, is a move of the
    P-game too), so cpre_Q is inside cpre_P, W_Q inside W_P, and
    realizable(Q) implies realizable(P).  Each set is settled against
    the baseline (`Session.settle`; committing only takes power, so a set
    that fails the check with W is unrealizable without a solve, and a
    solve stops at the first bound that fails it).  Every realizable
    set is kept, and any subset of one is answered realizable with
    neither.  The per-output verdicts come from halving (adaptive group
    testing, Hwang 1972): all outputs are tried as one set, and an
    unrealizable set of several outputs is split in two until every
    output is settled; the greedy maximal set, built in output order,
    asks the same memo.  When every output is committable this is at
    most one solve in all; the worst case, every output failing alone,
    is at most 2k - 1 solves for k outputs, against k singleton solves.
    """
    session = _session(spec)
    session.require_realizable("precommit analysis")
    game = session.game()
    yes: list[frozenset[str]] = []   # settled sets that were realizable

    def realizable_with(outs: list[str]) -> bool:
        key = frozenset(outs)
        if any(key <= y for y in yes):
            return True
        committed = replace(game, precommit=outs)
        ok = session.settle(committed, weaker=True) == "realizable"
        if ok:
            yes.append(key)
        return ok

    outputs = session.spec.output_props
    settled: dict[str, bool] = {}
    work = [outputs] if outputs else []
    while work:  # a stack of groups, left halves first
        group = work.pop()
        if realizable_with(group):
            settled.update(dict.fromkeys(group, True))
        elif len(group) == 1:
            settled[group[0]] = False
        else:
            half = len(group) // 2
            work += [group[half:], group[:half]]
    per_output = {o: settled[o] for o in outputs}
    maximal: list[str] = []
    for o in outputs:
        if per_output[o] and realizable_with(maximal + [o]):
            maximal.append(o)
    return PrecommitResult(per_output=per_output, maximal_set=maximal)


# ----------------------------------------------------------------------
# stuck-at faults

@dataclass
class StuckAtTable:
    direction: str                       # "outputs" | "inputs"
    baseline: str
    entries: dict[tuple[str, bool], str]  # (signal, value) -> verdict


def _stuck(game: SymbolicGame, sig: str, value: bool,
           output: bool) -> SymbolicGame:
    """`game` with `sig` forced to `value` from power-on: an output by the
    guarantees, an input by added assumptions."""
    pin = game.mgr.var(sig) if value else game.mgr.nvar(sig)
    step = game.prime(pin)
    if output:
        return replace(game, init_sys=game.init_sys & pin,
                       trans_sys=game.trans_sys & step)
    return replace(game,
                   init_env_parts=game.init_env_parts + [pin],
                   trans_env_parts=game.trans_env_parts + [step])


def stuck_at_analysis(spec: BooleanSpec | Session) -> StuckAtTable:
    """Realizability with one signal forced constant from power-on.

    Realizable specification: outputs are stuck one by one; a verdict of
    realizable means the output never needs to react.  Unrealizable
    specification: inputs are stuck via added assumptions; persisting
    unrealizability means that input's freedom is not the cause.

    A stuck output only takes power from the system and a stuck input
    gives it power; `Session.settle` answers each variant in that
    direction.  Under the standard condition a stuck output is also
    realizable when every position the canonical strategy reaches has
    the output at the stuck value: that strategy never moves the output,
    so it wins the stuck game from its initial positions.  (The robotics
    condition asks about every initial output, not only the strategy's.)
    """
    session = _session(spec)
    base = session.game()
    mgr = base.mgr
    baseline = session.verdict()
    outputs = baseline == "realizable"
    direction, signals = (("outputs", session.spec.output_props) if outputs
                          else ("inputs", session.spec.input_props))

    def machine_stays(sig: str, value: bool) -> bool:
        off = mgr.nvar(sig) if value else mgr.var(sig)
        return (outputs and not base.robotics
                and all((r & off).is_false() for r in session.reached()))

    entries = {}
    for sig in signals:
        for value in (False, True):
            game = _stuck(base, sig, value, outputs)
            entries[(sig, value)] = (
                "realizable" if machine_stays(sig, value)
                else session.settle(game, weaker=outputs))
    return StuckAtTable(direction=direction, baseline=baseline,
                        entries=entries)
