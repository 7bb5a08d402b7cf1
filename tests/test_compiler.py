"""Bit-blasting: widths, range constraints, overflow-free arithmetic."""

import math
import random

import pytest

from gr1report import parse_spec, pretty, compile_to_boolean, CompileError
from gr1report.compiler import ir_support
from gr1report.game import ir_to_bdd
from gr1report.bdd import BddManager
from gr1report.oracle import Space
from gr1report.syntax import Op, walk


def compile_text(text):
    return compile_to_boolean(parse_spec(text))


def _ir_tags(ir):
    tags, stack = set(), [ir]
    while stack:
        e = stack.pop()
        tags.add(e[0])
        if e[0] not in ("const", "var"):
            stack.extend(e[1:])
    return tags


def test_compiled_parts_use_only_the_six_ir_tags():
    from conftest import SPEC_DIR, load_spec, random_boolean_spec
    specs = ([load_spec(p.stem) for p in sorted(SPEC_DIR.glob("*.spec"))]
             + [random_boolean_spec(seed) for seed in range(60)])
    assert len(specs) == 72
    tags = set()
    for spec in specs:
        for parts in spec.parts.values():
            for part in parts:
                tags |= _ir_tags(part.ir)
    assert tags == {"const", "var", "not", "and", "or", "xor"}


def test_bit_allocation_exact_power_of_two():
    spec = compile_text("[INPUT]\nx: 0...7\n")
    assert len(spec.groups["x"].bits) == 3
    # no range constraint injected
    assert all(not p.synthetic for p in spec.parts["env_init"])
    assert all(not p.synthetic for p in spec.parts["env_trans"])


def test_bit_allocation_with_range_constraint():
    spec = compile_text("[INPUT]\nx: 0...5\n")
    assert len(spec.groups["x"].bits) == 3
    assert any(p.synthetic for p in spec.parts["env_init"])
    assert any(p.synthetic for p in spec.parts["env_trans"])


def test_output_range_constraints_are_guarantees():
    spec = compile_text("[OUTPUT]\ny: 1...6\n")
    assert any(p.synthetic for p in spec.parts["sys_init"])
    assert any(p.synthetic for p in spec.parts["sys_trans"])
    assert not spec.parts["env_init"] and not spec.parts["env_trans"]


def test_bit_counts_follow_log2():
    for lo, hi in [(0, 1), (0, 2), (3, 3), (2, 9), (0, 100)]:
        spec = compile_text(f"[INPUT]\nx: {lo}...{hi}\n")
        want = math.ceil(math.log2(hi - lo + 1)) if hi > lo else 0
        assert len(spec.groups["x"].bits) == want, (lo, hi)


def test_range_constraint_model_count():
    # conjoined over all integers the constraints admit exactly
    # prod(hi - lo + 1) next-state encodings
    text = "[INPUT]\nx: 0...5\n[OUTPUT]\ny: 1...5\nz: 0...2\n"
    spec = compile_text(text)
    mgr = BddManager()
    for p in spec.props:
        mgr.declare_signal(p)
    memo = {}
    conj = mgr.true
    bits = []
    for kind in ("env_trans", "sys_trans"):
        for part in spec.parts[kind]:
            assert part.synthetic
            conj = conj & ir_to_bdd(mgr, part.ir, memo)
    for g in spec.groups.values():
        bits += [b + "'" for b in g.bits]
    assert mgr.count_models(conj, bits) == 6 * 5 * 3


def test_pure_boolean_passthrough():
    spec = compile_text("[INPUT]\nr\n[OUTPUT]\ng\n[SYS_TRANS]\nr -> X(g)\n")
    part = spec.parts["sys_trans"][0]
    assert part.ir == ("or", ("not", ("var", "r", False)), ("var", "g", True))
    assert spec.props == ["r", "g"]


def _predicate_bdd(text, kind="sys_trans", index=0):
    spec = compile_text(text)
    mgr = BddManager()
    for p in spec.props:
        mgr.declare_signal(p)
    return spec, mgr, ir_to_bdd(mgr, spec.parts[kind][index].ir)


def test_arithmetic_shift_equivalence():
    # a + b + i < 7 + i compiles to the identical predicate for every i
    base_spec, mgr, base = _predicate_bdd(
        "[INPUT]\na: 0...7\n[OUTPUT]\nb: 0...7\n[SYS_TRANS]\na + b < 7\n")
    for i in (1, 2, 3):
        spec2 = compile_text(
            f"[INPUT]\na: 0...7\n[OUTPUT]\nb: 0...7\n"
            f"[SYS_TRANS]\na + b + {i} < 7 + {i}\n")
        other = ir_to_bdd(mgr, spec2.parts["sys_trans"][0].ir)
        assert other == base, i


def test_arithmetic_never_wraps():
    # 7 + 7 exceeds the 3-bit operand width but must not wrap
    spec, mgr, pred = _predicate_bdd(
        "[INPUT]\na: 0...7\n[OUTPUT]\nb: 0...7\n[SYS_TRANS]\na + b < 7\n")
    def value(name, v):
        out = mgr.true
        for i, b in enumerate(spec.groups[name].bits):
            var = mgr.var(b)
            out = out & (var if (v >> i) & 1 else ~var)
        return out
    for a in range(8):
        for b in range(8):
            cell = value("a", a) & value("b", b)
            holds = not (cell & pred).is_false()
            assert holds == (a + b < 7), (a, b)


def test_offset_encoding():
    # value v is stored as v - lo
    spec, mgr, pred = _predicate_bdd(
        "[INPUT]\nx: 5...8\n[SYS_TRANS]\nx = 6\n" .replace("SYS", "ENV"),
        kind="env_trans")
    g = spec.groups["x"]
    assert len(g.bits) == 2
    enc = mgr.true
    for i, b in enumerate(g.bits):
        var = mgr.var(b)
        enc = enc & (var if ((6 - 5) >> i) & 1 else ~var)
    assert pred == enc


def test_overflow_free_sum_guarantee_is_unrealizable():
    # with a: 0...7 an input, G(a + b < 7) cannot be met for a = 7: the
    # sum never wraps around to rescue the system
    from gr1report.game import build_game, solve_game, check_realizability
    spec = compile_text(
        "[INPUT]\na: 0...7\n[OUTPUT]\nb: 0...7\n[SYS_TRANS]\na + b < 7\n")
    game = build_game(spec)
    assert check_realizability(game, solve_game(game)) == "unrealizable"


def test_subtraction_rejected_on_possible_underflow():
    with pytest.raises(CompileError, match="below zero"):
        compile_text("[INPUT]\na: 0...3\nb: 0...3\n[ENV_TRANS]\na - b < 2\n")


def test_subtraction_allowed_when_provably_safe():
    spec = compile_text("[INPUT]\na: 5...7\nb: 0...3\n[ENV_TRANS]\na - b < 4\n")
    assert spec.parts["env_trans"]


def test_comparison_operators():
    import itertools
    ops = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
           "=": lambda a, b: a == b, ">=": lambda a, b: a >= b,
           ">": lambda a, b: a > b, "!=": lambda a, b: a != b}
    for op, fn in ops.items():
        spec, mgr, pred = _predicate_bdd(
            f"[INPUT]\na: 0...5\nb: 0...5\n[ENV_TRANS]\na {op} b\n",
            kind="env_trans")
        def value(name, v):
            out = mgr.true
            for i, b in enumerate(spec.groups[name].bits):
                var = mgr.var(b)
                out = out & (var if (v >> i) & 1 else ~var)
            return out
        for a, b in itertools.product(range(6), repeat=2):
            holds = not (value("a", a) & value("b", b) & pred).is_false()
            assert holds == fn(a, b), (op, a, b)


def test_random_arithmetic_matches_integer_evaluation():
    # random comparison formulas evaluated two ways: the compiled bit
    # circuit versus plain Python integers
    import itertools
    import random

    rng = random.Random(23)
    for _ in range(40):
        lo_a, hi_a = 0, rng.randint(1, 6)
        lo_b = rng.randint(0, 2)
        hi_b = lo_b + rng.randint(1, 5)
        ca, cb = rng.randint(0, 4), rng.randint(0, 9)
        op = rng.choice(["<", "<=", "=", ">=", ">", "!="])
        expr = f"a + b + {ca} {op} b + {cb}"
        spec, mgr, pred = _predicate_bdd(
            f"[INPUT]\na: {lo_a}...{hi_a}\nb: {lo_b}...{hi_b}\n"
            f"[ENV_TRANS]\n{expr}\n", kind="env_trans")

        def value(name, v):
            out = mgr.true
            g = spec.groups[name]
            for i, bit in enumerate(g.bits):
                var = mgr.var(bit)
                out = out & (var if ((v - g.lo) >> i) & 1 else ~var)
            return out

        py_op = {"<": lambda x, y: x < y, "<=": lambda x, y: x <= y,
                 "=": lambda x, y: x == y, ">=": lambda x, y: x >= y,
                 ">": lambda x, y: x > y, "!=": lambda x, y: x != y}[op]
        for a, b in itertools.product(range(lo_a, hi_a + 1),
                                      range(lo_b, hi_b + 1)):
            got = not (value("a", a) & value("b", b) & pred).is_false()
            assert got == py_op(a + b + ca, b + cb), (expr, a, b)


def test_constant_integer_owns_zero_bits():
    spec = compile_text("[INPUT]\nc: 4...4\n[OUTPUT]\ng\n"
                        "[SYS_TRANS]\n(c = 4) -> X(g)\n")
    assert spec.groups["c"].bits == ()
    # c = 4 is simply true
    assert spec.parts["sys_trans"][0].ir == ("var", "g", True)


def test_compile_requires_valid_shape():
    with pytest.raises(CompileError, match="grammar"):
        compile_text("[OUTPUT]\na\n[SYS_TRANS]\nX(X(a))\n")


def test_decode_integers():
    spec = compile_text("[INPUT]\nx: 2...5\n[OUTPUT]\nb\n")
    bits = spec.groups["x"].bits
    vals = spec.decode({bits[0]: True, bits[1]: True, "b": False})
    assert vals == {"b": False, "x": 5}


# ----------------------------------------------------------------------
# `&` and `|` chains

def _and_or_depth(ir) -> int:
    deepest, stack = 0, [(ir, 0)]
    while stack:
        e, d = stack.pop()
        d += e[0] in ("and", "or")
        deepest = max(deepest, d)
        if e[0] not in ("const", "var"):
            stack.extend((c, d) for c in e[1:])
    return deepest


@pytest.mark.parametrize("k", [2, 3, 12, 1000])
@pytest.mark.parametrize("op", ["&", "|"])
def test_chain_compiles_to_a_balanced_ir_tree(op, k):
    names = [f"a{i}" for i in range(k)]
    spec = compile_text("[INPUT]\n" + "\n".join(names) + "\n[ENV_TRANS]\n"
                        + f" {op} ".join(names) + "\n")
    formula = spec.source.parts["env_trans"][0].formula
    assert isinstance(formula, Op) and len(formula.args) == k
    ir = spec.parts["env_trans"][0].ir
    assert ir_support(ir) == {(n, False) for n in names}
    assert _and_or_depth(ir) <= math.ceil(math.log2(k))


_CHAIN_ATOMS = {"i0": ("i0", False), "i1": ("i1", False),
                "o0": ("o0", False), "o1": ("o1", False),
                "X(i0)": ("i0", True), "X(o1)": ("o1", True)}
_CHAIN_PREC = {"<->": 0, "->": 1, "|": 2, "&": 3}
_CHAIN_EVAL = {
    "&": lambda xs: all(xs),
    "|": lambda xs: any(xs),
    "->": lambda xs: not xs[0] or xs[1],
    "<->": lambda xs: xs[0] == xs[1],
}


def _chain_formula(rng: random.Random, depth: int):
    """(text, precedence, evaluator) of a random formula over
    `_CHAIN_ATOMS`.  Operands go without parentheses wherever the
    grammar allows, so `&` and `|` chains of up to 12 operands mix
    freely; one in ten gets redundant parentheses, which keep a
    same-operator operand a separate sub-chain."""
    if depth == 0 or rng.random() < 0.25:
        atom = rng.choice(sorted(_CHAIN_ATOMS))
        return atom, 7, lambda v: v[atom]

    def wrap(text: str, needed: bool) -> str:
        return f"({text})" if needed or rng.random() < 0.1 else text

    op = rng.choice(["!", "&", "|", "&", "|", "->", "<->"])
    if op == "!":
        text, prec, sub = _chain_formula(rng, depth - 1)
        return "!" + wrap(text, prec < 6), 6, lambda v: not sub(v)
    p = _CHAIN_PREC[op]
    k = rng.randint(2, 12) if op in ("&", "|") else 2
    subs = [_chain_formula(rng, depth - 1) for _ in range(k)]

    def needed(i: int, prec: int) -> bool:
        if op == "->":  # right-associative
            return prec < p or (i == 0 and prec == p)
        if op == "<->":  # left-associative
            return prec < p or (i == 1 and prec == p)
        return prec <= p

    text = f" {op} ".join(wrap(t, needed(i, prec))
                          for i, (t, prec, _f) in enumerate(subs))
    fs = [f for _t, _p, f in subs]
    return text, p, lambda v: _CHAIN_EVAL[op]([f(v) for f in fs])


def _chain_widths(e):
    for node, _ in walk(e):
        if isinstance(node, Op) and node.op in ("&", "|"):
            yield len(node.args)


def test_random_chains_compile_to_their_truth_table():
    header = "[INPUT]\ni0\ni1\n[OUTPUT]\no0\no1\n[SYS_TRANS]\n"
    slots = sorted(set(_CHAIN_ATOMS.values()))
    space = Space(slots)
    widths = set()
    for seed in range(150):
        text, _prec, evaluate = _chain_formula(random.Random(seed), 3)
        doc = parse_spec(header + text + "\n")
        assert parse_spec(pretty(doc)) == doc, seed
        widths.update(_chain_widths(doc.parts["sys_trans"][0].formula))
        table = space.table(compile_to_boolean(doc).parts["sys_trans"][0].ir)
        for index in range(space.size):
            v = {atom: bool(index >> (space.n - 1 - space.pos[key]) & 1)
                 for atom, key in _CHAIN_ATOMS.items()}
            assert bool(table >> index & 1) == evaluate(v), (seed, text, v)
    assert max(widths) >= 10
