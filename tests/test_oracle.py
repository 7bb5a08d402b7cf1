"""Explicit-state reference implementations and their agreement with the
symbolic engine."""

import itertools
import subprocess
import sys

import pytest

import gr1report
from conftest import load_spec, random_boolean_spec
from gr1report import parse_spec, compile_to_boolean
from gr1report.game import (
    build_game, solve_game, check_realizability, extract_strategy,
)
from gr1report.oracle import (
    Space, explicit_solve, eval_ir, model_check, brute_force_primes,
    OracleError,
)
from gr1report.game import MealyMachine, MealyState


def test_space_tables_match_direct_evaluation():
    sp = Space([("a", False), ("b", False), ("c", False)])
    ir = ("or", ("and", ("var", "a", False), ("not", ("var", "b", False))),
          ("var", "c", False))
    t = sp.table(ir)
    for bits in itertools.product([False, True], repeat=3):
        idx = sp.index_of({("a", False): bits[0], ("b", False): bits[1],
                           ("c", False): bits[2]})
        want = (bits[0] and not bits[1]) or bits[2]
        assert sp.bit(t, idx) == want


def test_unknown_ir_tags_raise():
    a, b = ("var", "a", False), ("var", "b", False)
    sp = Space([("a", False), ("b", False)])
    env = {("a", False): True, ("b", False): False}
    for tag in ("imp", "iff"):
        with pytest.raises(OracleError, match="unknown IR tag"):
            eval_ir((tag, a, b), env)
        with pytest.raises(OracleError, match="unknown IR tag"):
            sp.table((tag, a, b))


def test_space_quantifiers():
    sp = Space([("a", False), ("b", False)])
    t = sp.table(("and", ("var", "a", False), ("var", "b", False)))
    assert sp.exists(t, [("a", False)]) == sp.table(("var", "b", False))
    t2 = sp.table(("or", ("var", "a", False), ("var", "b", False)))
    assert sp.forall(t2, [("a", False)]) == sp.table(("var", "b", False))


def test_trivial_games():
    spec = compile_to_boolean(parse_spec("[OUTPUT]\ng\n[SYS_LIVENESS]\nFALSE\n"))
    assert explicit_solve(spec).win == 0
    spec = compile_to_boolean(parse_spec("[OUTPUT]\ng\n[SYS_LIVENESS]\nTRUE\n"))
    ex = explicit_solve(spec)
    assert ex.win == (1 << ex.n_positions) - 1


def test_bit_bound_enforced():
    spec = load_spec("delivery")
    with pytest.raises(OracleError, match="bit bound"):
        explicit_solve(spec, bit_bound=10)


def agreement(spec):
    game = build_game(spec)
    region = solve_game(game)
    ex = explicit_solve(spec)
    if game.mgr.to_truthtable(region.win, game.positions) != ex.win:
        return False
    if check_realizability(game, region) != ex.realizable:
        return False
    for j in range(len(region.strata)):
        sym = [game.mgr.to_truthtable(s, game.positions)
               for s in region.strata[j]]
        if sym != ex.strata[j]:
            return False
    return True


def test_agreement_on_regression_corpus():
    for name in ("mutex", "mutex_fixed", "patrol", "counter",
                 "parity_tracker", "request_grant", "oscillator_unreal",
                 "doors"):
        assert agreement(load_spec(name)), name


def test_agreement_on_tworobot():
    assert agreement(load_spec("tworobot"))


def test_model_check_passes_for_extracted_strategies():
    for name in ("mutex", "mutex_fixed", "patrol", "request_grant", "doors"):
        spec = load_spec(name)
        game = build_game(spec)
        region = solve_game(game)
        machine = extract_strategy(game, region)
        assert model_check(machine, spec) is None, name


def test_model_check_catches_safety_violation():
    # a machine for the corrected mutex that raises both promises
    spec = load_spec("mutex_fixed")
    ins, outs = spec.input_props, spec.output_props
    bad_out = tuple(o.startswith("promise") for o in outs)  # p1 & p2, no g
    states = []
    trans = {}
    initial = []
    for bits in range(4):
        ivals = (bool(bits >> 1 & 1), bool(bits & 1))
        s = MealyState(len(states), ivals, bad_out, 0)
        states.append(s)
        initial.append(s.sid)
    for s in states:
        trans[s.sid] = [(s2.inputs, s2.sid) for s2 in states]
    machine = MealyMachine(input_names=list(ins), output_names=list(outs),
                           states=states, initial=initial,
                           transitions=trans, n_goals=2)
    verdict = model_check(machine, spec)
    assert verdict is not None and verdict["kind"] in ("init", "safety")


def test_model_check_catches_liveness_violation():
    # system that never grants although requests keep coming
    text = "[INPUT]\nr\n[OUTPUT]\ng\n[ENV_LIVENESS]\nr\n[SYS_LIVENESS]\ng\n"
    spec = compile_to_boolean(parse_spec(text))
    states, trans, initial = [], {}, []
    for rv in (False, True):
        s = MealyState(len(states), (rv,), (False,), 0)
        states.append(s)
        initial.append(s.sid)
    for s in states:
        trans[s.sid] = [((False,), 0), ((True,), 1)]
    machine = MealyMachine(input_names=["r"], output_names=["g"],
                           states=states, initial=initial,
                           transitions=trans, n_goals=1)
    verdict = model_check(machine, spec)
    assert verdict is not None and verdict["kind"] == "liveness"
    assert "lasso_start" in verdict


def test_model_check_signature_mismatch():
    spec = load_spec("mutex")
    machine = MealyMachine(input_names=["wat"], output_names=["g"],
                           states=[], initial=[], transitions={}, n_goals=1)
    with pytest.raises(OracleError, match="signature"):
        model_check(machine, spec)


def test_model_check_compares_every_output_name():
    # an output whose name starts with "__" is an ordinary output
    spec = compile_to_boolean(parse_spec(
        "[INPUT]\nr\n[OUTPUT]\n__g\n[SYS_TRANS]\nX(__g) <-> X(r)\n"
        "[SYS_LIVENESS]\n__g | !r\n"))
    game = build_game(spec)
    machine = extract_strategy(game, solve_game(game))
    assert machine.output_names == ["__g"]
    assert model_check(machine, spec) is None
    extra = MealyMachine(input_names=["r"], output_names=["__g", "__x"],
                         states=[], initial=[], transitions={}, n_goals=1)
    with pytest.raises(OracleError, match="signature"):
        model_check(extra, spec)


def test_agreement_on_random_specs_quick():
    for seed in range(80):
        assert agreement(random_boolean_spec(seed)), seed


def test_bruteforce_primes_small():
    # f = a | (b & c) over slots a=0,b=1,c=2 (a is the index MSB)
    table = 0
    for i in range(8):
        a, b, c = (i >> 2) & 1, (i >> 1) & 1, i & 1
        if a or (b and c):
            table |= 1 << i
    want = {frozenset({(0, True)}), frozenset({(1, True), (2, True)})}
    assert brute_force_primes(table, 3) == want


def test_import_gr1report_leaves_the_oracle_out():
    # the oracles are test-facing: `import gr1report` does not compile
    # them, and the package still gives them on first use
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gr1report\n"
         "print('gr1report.oracle' in sys.modules)\n"
         "from gr1report import explicit_solve, model_check\n"
         "from gr1report.oracle import brute_force_primes\n"
         "print(gr1report.brute_force_primes is brute_force_primes)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False", "True"]
    with pytest.raises(AttributeError, match="no attribute 'oracles'"):
        gr1report.oracles
