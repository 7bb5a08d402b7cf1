"""BDD manager: canonicity, operations, counting, prime cubes."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from gr1report.bdd import (BddManager, BddRef, Cube, BddError,
                           ResourceLimitError, FALSE, TRUE)
from gr1report.oracle import brute_force_primes

VARS = ["a", "b", "c", "d", "e"]


def fresh(n=5):
    m = BddManager()
    for v in VARS[:n]:
        m.declare_signal(v)
    return m


# random expression trees evaluated both as BDDs and directly
def eval_tree(tree, env):
    kind = tree[0]
    if kind == "var":
        return env[tree[1]]
    if kind == "const":
        return tree[1]
    if kind == "not":
        return not eval_tree(tree[1], env)
    a, b = eval_tree(tree[1], env), eval_tree(tree[2], env)
    return {"and": a and b, "or": a or b, "xor": a != b,
            "implies": (not a) or b, "iff": a == b,
            "diff": a and not b}[kind]


def build_bdd(m, tree):
    kind = tree[0]
    if kind == "var":
        return m.var(tree[1])
    if kind == "const":
        return m.true if tree[1] else m.false
    if kind == "not":
        return ~build_bdd(m, tree[1])
    return m.apply(kind, build_bdd(m, tree[1]), build_bdd(m, tree[2]))


@st.composite
def trees(draw, depth=3, names=VARS):
    if depth == 0 or draw(st.booleans()):
        if draw(st.integers(0, 6)) == 0:
            return ("const", draw(st.booleans()))
        return ("var", draw(st.sampled_from(names)))
    op = draw(st.sampled_from(["and", "or", "xor", "implies", "iff", "diff",
                               "not"]))
    if op == "not":
        return ("not", draw(trees(depth - 1, names)))
    return (op, draw(trees(depth - 1, names)), draw(trees(depth - 1, names)))


@settings(max_examples=200, deadline=None)
@given(trees(), trees())
def test_canonicity_matches_truth_tables(t1, t2):
    m = fresh()
    f, g = build_bdd(m, t1), build_bdd(m, t2)
    equal = all(
        eval_tree(t1, dict(zip(VARS, bits))) == eval_tree(t2, dict(zip(VARS, bits)))
        for bits in itertools.product([False, True], repeat=5))
    assert (f == g) == equal


@settings(max_examples=100, deadline=None)
@given(trees())
def test_count_models_matches_enumeration(t):
    m = fresh()
    f = build_bdd(m, t)
    want = sum(
        eval_tree(t, dict(zip(VARS, bits)))
        for bits in itertools.product([False, True], repeat=5))
    assert m.count_models(f, VARS) == want


def test_apply_basics():
    m = fresh(2)
    a, b = m.var("a"), m.var("b")
    assert (a & ~a).is_false()
    assert (a | m.true).is_true()
    assert (a ^ a).is_false()
    assert m.apply("diff", a | b, b) == (a & ~b)
    assert a.implies(a).is_true()
    assert a.iff(~(~a)).is_true()


def test_quantify():
    m = fresh(3)
    a, b = m.var("a"), m.var("b")
    assert m.exists(["a"], a & b) == b
    assert m.forall(["a"], a | b) == b
    assert m.exists([], a & b) == (a & b)
    assert m.forall(["a"], a & b).is_false()


def test_rename_register_checks():
    m = fresh(2)
    a = m.var("a")
    ap = m.rename(a, "prime")
    assert m.support(ap) == ["a'"]
    assert m.rename(ap, "unprime") == a
    assert m.rename(m.true, "prime").is_true()
    with pytest.raises(BddError, match="wrong register"):
        m.rename(ap, "prime")


def test_rename_register_check_reaches_below_a_cached_rename():
    m = fresh(3)
    a, b, c = m.var("a"), m.var("b"), m.var("c")
    m.rename(b, "prime")  # the sub-BDD b is now a cache hit
    f = (a & b) | (~a & m.var("c'"))  # c' sits below b, on the other branch
    with pytest.raises(BddError, match="prime: variable \"c'\" is in the "
                                       "wrong register"):
        m.rename(f, "prime")
    bp = m.var("b'")
    m.rename(bp, "unprime")
    g = (m.var("a'") & bp) | (~m.var("a'") & c)
    with pytest.raises(BddError, match="unprime: variable 'c' is in the "
                                       "wrong register"):
        m.rename(g, "unprime")
    # nothing half-renamed was cached: the valid parts still rename
    assert m.rename(a & b, "prime") == m.var("a'") & bp


def test_primed_product_register_check_reaches_below_a_cached_entry():
    m = fresh(3)
    a, b, c = m.var("a"), m.var("b"), m.var("c")
    q = ["b'"]
    # the sub-product of TRUE and b is now a cache hit
    assert m.and_exists_primed(m.true, b, q) == m.true
    g = (~a & b) | (a & m.var("c'"))  # c' sits past b, on the other branch
    with pytest.raises(BddError, match="prime: variable \"c'\" is in the "
                                       "wrong register"):
        m.and_exists_primed(m.true, g, q)
    with pytest.raises(BddError, match="wrong register"):
        m.and_exists_primed(m.var("c'"), m.var("b'"), [])
    # nothing half-built was cached: the valid parts still give the product
    f = m.var("a'") | c
    assert m.and_exists_primed(f, a & b, q) == m.and_exists(
        f, m.rename(a & b, "prime"), q)


ENUMERATIONS = {
    "count_models": lambda m, f, names: m.count_models(f, names),
    "iter_models": lambda m, f, names: list(m.iter_models(f, names)),
    "pick_min_model": lambda m, f, names: m.pick_min_model(f, names),
    "to_truthtable": lambda m, f, names: m.to_truthtable(f, names),
    "prime_cubes": lambda m, f, names: list(m.prime_cubes(f, names)),
}


@pytest.mark.parametrize("call", ENUMERATIONS.values(), ids=ENUMERATIONS)
def test_enumerations_reject_a_repeated_name(call):
    m = fresh(2)
    for f, names in ((m.var("a"), ["a", "a"]), (m.true, ["a", "b", "a"])):
        with pytest.raises(BddError, match="name 'a' is repeated"):
            call(m, f, names)


def test_manager_mismatch_rejected():
    m1, m2 = fresh(1), fresh(1)
    with pytest.raises(BddError, match="different manager"):
        m1.apply("and", m1.var("a"), m2.var("a"))


def test_count_models_support_check():
    # every enumeration names the variables that escape `names`
    m = fresh(3)
    f = m.var("a") & m.var("b") & m.var("c")
    for call in ENUMERATIONS.values():
        with pytest.raises(BddError, match=r"escapes .*: \['b', 'c'\]$"):
            call(m, f, ["a"])


UNDECLARED = {
    "var": lambda m, f: m.var("zz"),
    "nvar": lambda m, f: m.nvar("zz"),
    "exists": lambda m, f: m.exists(["zz"], f),
    "restrict": lambda m, f: m.restrict(f, {"zz": True}),
    "cube": lambda m, f: m.cube({"zz": True}),
    **{name: (lambda m, f, _call=call: _call(m, f, ["a", "zz"]))
       for name, call in ENUMERATIONS.items()},
}


@pytest.mark.parametrize("call", UNDECLARED.values(), ids=UNDECLARED)
def test_an_undeclared_name_raises_bdd_error(call):
    # once a bare KeyError from the name -> level lookup
    m = fresh(2)
    with pytest.raises(BddError, match="^undeclared variable 'zz'$"):
        call(m, m.var("a"))


def test_pick_min_model_is_lexicographic():
    m = fresh(3)
    a, b, c = m.var("a"), m.var("b"), m.var("c")
    f = (a & c) | (b & c)
    assert m.pick_min_model(f, ["a", "b", "c"]) == {
        "a": False, "b": True, "c": True}


def test_enumerations_follow_names_not_levels():
    m = BddManager()
    for v in ("c", "b", "a"):  # levels in reverse of the names below
        m.declare_signal(v)
    a, b, c = m.var("a"), m.var("b"), m.var("c")
    f = (a & c) | (b & c)
    names = ["a", "b", "c"]
    assert list(m.pick_min_model(f, names).items()) == [
        ("a", False), ("b", True), ("c", True)]
    assert [list(d.items()) for d in m.iter_models(f, names)] == [
        [("a", False), ("b", True), ("c", True)],
        [("a", True), ("b", False), ("c", True)],
        [("a", True), ("b", True), ("c", True)]]
    # index bits: a is the most significant
    assert m.to_truthtable(f, names) == (1 << 0b011) | (1 << 0b101) | (
        1 << 0b111)
    assert [str(q) for q in m.prime_cubes(f, names)] == ["b & c", "a & c"]
    with pytest.raises(BddError, match="escapes"):
        m.pick_min_model(f, ["a", "b"])
    with pytest.raises(BddError, match="escapes"):
        list(m.iter_models(a & b, ["a"]))
    with pytest.raises(BddError, match="escapes"):
        m.to_truthtable(f, ["b", "c"])
    with pytest.raises(BddError, match="escapes"):
        list(m.prime_cubes(f, ["c", "a"]))


@settings(max_examples=150, deadline=None)
@given(trees(), st.permutations(VARS), st.permutations(VARS))
def test_enumerations_do_not_depend_on_the_level_order(t, levels, names):
    ordered, permuted = fresh(), BddManager()
    for v in levels:
        permuted.declare_signal(v)
    results = []
    for m in (ordered, permuted):
        f = build_bdd(m, t)
        models = [list(d.items()) for d in m.iter_models(f, names)]
        results.append((
            m.to_truthtable(f, names), models,
            list(m.pick_min_model(f, names).items()) if models else None,
            list(m.prime_cubes(f, names))))
    assert results[0] == results[1]
    table, models, least, _cubes = results[0]
    want = [list(zip(names, bits))
            for bits in itertools.product([False, True], repeat=5)
            if eval_tree(t, dict(zip(names, bits)))]
    assert models == want
    assert least == (want[0] if want else None)
    assert table == sum(1 << i for i, bits in enumerate(
        itertools.product([False, True], repeat=5))
        if eval_tree(t, dict(zip(names, bits))))


def test_garbage_collection_keeps_referenced_nodes():
    m = fresh(3)
    a, b, c = m.var("a"), m.var("b"), m.var("c")
    keep = (a & b) | c

    def churn():
        for _ in range(200):
            tmp = (a | b) & (b | c) & (~a | c)
            tmp = tmp ^ keep

    churn()
    before = len(m)
    freed = m.collect()
    assert freed > 0 and len(m) < before
    # the kept function still evaluates correctly after collection
    assert m.count_models(keep, ["a", "b", "c"]) == 5


def test_collect_frees_a_node_once_its_last_handle_is_dropped():
    m = fresh(2)
    f = m.var("a") & m.var("b")
    g = f & m.true  # a second handle to the same node
    m.collect()     # frees the node of the dropped var("a") handle
    assert len(m) == 4
    del f
    assert m.collect() == 0
    del g
    assert m.collect() == 2
    assert len(m) == 2


def test_collect_frees_ascending_and_keeps_exactly_the_marked_nodes():
    m = fresh()
    rng = random.Random(5)
    pool = [m.var(v) for v in VARS]
    unordered = False
    # the second round allocates into the slots the first one freed, so
    # the unique table no longer lists its nodes in slot order
    for _ in range(2):
        for _ in range(80):
            f, g = rng.sample(pool, 2)
            pool.append(m.apply(rng.choice(("and", "or", "xor")), f, g))
        del pool[5::2]
        marked, stack = {FALSE, TRUE}, list(m._extref)
        while stack:
            n = stack.pop()
            if n not in marked:
                marked.add(n)
                stack += [m._lo[n], m._hi[n]]
        unique = list(m._unique.items())
        dead = [n for _k, n in unique if n not in marked]
        unordered |= dead != sorted(dead)
        free_before = list(m._free)
        assert m.collect() == len(dead)
        assert m._free == free_before + sorted(dead)
        assert list(m._unique.items()) == [(k, n) for k, n in unique
                                           if n in marked]
    assert unordered


def test_a_collection_that_frees_nothing_copies_nothing():
    m = fresh()
    rng = random.Random(7)
    pool = [m.var(v) for v in VARS]
    for _ in range(60):
        f, g = rng.sample(pool, 2)
        pool.append(m.apply(rng.choice(("and", "or", "xor")), f, g))
    m.collect()
    keep = pool[-1] & pool[-2]  # fills the computed table
    unique, cache = m._unique, m._cache
    entries, counters = dict(cache), (m._hits, m._dropped)
    assert entries

    class Unswept(dict):
        def items(self):
            raise AssertionError("swept a table with nothing to free")

    m._unique = Unswept(unique)
    assert m.collect() == 0
    m._unique = unique
    assert m.collect() == 0
    assert m._unique is unique and m._cache is cache
    assert m._cache == entries and (m._hits, m._dropped) == counters
    del keep, pool[len(VARS):]
    assert m.collect() > 0 and m._unique is not unique and m._cache == {}


def test_collect_keeps_the_raw_ids_named_as_roots():
    m = fresh(3)
    a, b, c = m.var("a"), m.var("b"), m.var("c")
    kept = m._and(m._or(a.node, b.node), c.node)   # no handle to either
    dropped = m._xor(a.node, c.node)
    assert m.collect(iter([kept])) > 0      # roots may be a generator
    assert dropped in m._free and kept not in m._free
    assert m.count_models(BddRef(m, kept), ["a", "b", "c"]) == 3


def test_a_collection_is_due_once_dead_nodes_dominate_and_the_table_does_not_pay(
        monkeypatch):
    import gr1report.bdd as bdd_mod
    monkeypatch.setattr(bdd_mod, "_GC_FLOOR", 32)
    m = fresh()
    pool = [m.var(v) for v in VARS]
    m.collect()
    live = len(m)
    assert m._live == live
    rng = random.Random(3)
    while len(m) < max(32, 2 * live):
        assert not m._collect_due()     # too few nodes in use
        f, g = rng.sample(pool, 2)
        m.apply(rng.choice(("and", "or", "xor")), f, g)   # dead at once
    lookups = len(m._cache) + m._dropped    # the misses since the clear
    m._hits = lookups           # half of the lookups hit: the table pays
    assert not m._collect_due()
    m._hits = lookups // 3      # a quarter hit
    assert m._collect_due()
    assert m.maybe_collect() > 0
    assert m._live == len(m) == live and not m._collect_due()


def _grow_dead(m, pool, rng, until):
    """Build throwaway results from `pool` until `until()` holds."""
    while not until():
        f, g = rng.sample(pool, 2)
        m.apply(rng.choice(("and", "or", "xor")), f, g)   # dead at once


def test_under_a_node_budget_a_collection_is_due_at_the_headroom_mark():
    # due once the nodes in use plus their growth since the last
    # collection reach the budget, below the floor and with a table
    # that pays: one more phase as large as the last would not fit
    import gr1report.bdd as bdd_mod
    m = fresh()
    pool = [m.var(v) for v in VARS]
    m.collect()
    live = m._live
    _grow_dead(m, pool, rng=random.Random(5),
               until=lambda: len(m) >= live + 20)
    m._hits = len(m._cache) + m._dropped    # half of the lookups hit
    assert len(m) < bdd_mod._GC_FLOOR and m._cache_pays()
    m.node_budget = 2 * len(m) - live + 1   # one node short of the mark
    assert not m._collect_due() and m.maybe_collect() == 0
    m.node_budget -= 1                      # exactly at the mark
    assert m._collect_due()
    assert m.maybe_collect() > 0
    assert m._live == len(m) == live and not m._collect_due()


def test_without_a_node_budget_the_headroom_clause_never_fires():
    m = fresh()
    pool = [m.var(v) for v in VARS]
    m.collect()
    live = m._live
    # past twice the live count, but below the floor: nothing is due
    _grow_dead(m, pool, rng=random.Random(6),
               until=lambda: len(m) >= 2 * live + 10)
    assert m.node_budget is None and not m._collect_due()
    assert m.maybe_collect() == 0
    m.node_budget = 2 * len(m) - live       # the same state under a budget
    assert m._collect_due()


def test_node_budget():
    m = BddManager(node_budget=16)
    for v in VARS:
        m.declare_signal(v)
    with pytest.raises(ResourceLimitError):
        f = m.true
        for v in VARS:
            f = f & (m.var(v) ^ m.var(v + "'"))


def test_to_dot():
    m = fresh(2)
    dot = m.to_dot(m.var("a") & m.var("b"))
    assert "digraph" in dot and "solid" in dot and "dashed" in dot


def test_to_dot_ignores_allocation_history():
    def build(m):
        return (m.var("a") & m.var("b")) | (m.var("c") ^ m.var("b'"))

    clean, used = fresh(3), fresh(3)
    junk = [used.var(v) ^ used.var(v + "'") for v in ("a", "b", "c")]
    del junk
    used.collect()  # the freed slots are reused in another order
    f, g = build(clean), build(used)
    assert f.node != g.node
    assert clean.to_dot(f, "w") == used.to_dot(g, "w")


# ----------------------------------------------------------------------
# kernel: AND/OR, relational product, quantification, renaming, collection

# four signals with their primed copies, in level order
KVARS = VARS[:4]
LEVELS = [v + p for v in KVARS for p in ("", "'")]


def table(pred, names=LEVELS):
    """Truth table of pred over names, in to_truthtable's convention."""
    return sum(1 << i for i, bits in enumerate(
        itertools.product([False, True], repeat=len(names)))
        if pred(dict(zip(names, bits))))


FULL = (1 << (1 << len(LEVELS))) - 1


def exists_table(t, quantified):
    """Truth table of (exists quantified: t), on truth tables."""
    for name in quantified:
        step = 1 << (len(LEVELS) - 1 - LEVELS.index(name))
        ones = sum(1 << i for i in range(1 << len(LEVELS)) if i & step)
        e = (t & ~ones) | ((t & ones) >> step)  # indices with name false
        t = e | (e << step)
    return t


@st.composite
def quantified_names(draw, support):
    """A quantification set above, below or straddling the support levels
    (or any set at all)."""
    idx = sorted(LEVELS.index(n) for n in support)
    top, bottom = (idx[0], idx[-1]) if idx else (len(LEVELS), -1)
    where = draw(st.sampled_from(["above", "below", "straddling", "any"]))
    if where == "above":
        return LEVELS[:top]
    if where == "below":
        return LEVELS[bottom + 1:]
    if where == "straddling":
        i = draw(st.integers(0, len(LEVELS)))
        return LEVELS[i:draw(st.integers(i, len(LEVELS)))]
    return draw(st.lists(st.sampled_from(LEVELS), unique=True))


@settings(max_examples=200, deadline=None)
@given(trees(names=LEVELS), trees(names=LEVELS), trees(names=KVARS),
       st.data())
def test_kernel_matches_truth_tables(t1, t2, t3, data):
    m = fresh(len(KVARS))
    f, g = build_bdd(m, t1), build_bdd(m, t2)
    tf = table(lambda env: eval_tree(t1, env))
    tg = table(lambda env: eval_tree(t2, env))
    tt = lambda h: m.to_truthtable(h, LEVELS)  # noqa: E731
    # both operand orders give the same node
    assert (f & g) == (g & f) and tt(f & g) == tf & tg
    assert (f | g) == (g | f) and tt(f | g) == tf | tg
    q = data.draw(quantified_names(set(m.support(f)) | set(m.support(g))))
    r = m.and_exists(f, g, q)
    assert r == m.and_exists(g, f, q) and tt(r) == exists_table(tf & tg, q)
    assert tt(m.exists(q, f)) == exists_table(tf, q)
    assert tt(m.forall(q, f)) == FULL & ~exists_table(FULL & ~tf, q)
    fixed = {n: data.draw(st.booleans()) for n in q}
    assert tt(m.restrict(f, fixed)) == table(
        lambda env: eval_tree(t1, {**env, **fixed}))
    assert tt(m.cube(fixed)) == table(
        lambda env: all(env[n] == v for n, v in fixed.items()))
    # renaming a function of the unprimed register
    h = build_bdd(m, t3)
    hp = m.rename(h, "prime")
    assert tt(hp) == table(lambda env: eval_tree(
        t3, {v: env[v + "'"] for v in KVARS}))
    assert m.rename(hp, "unprime") == h
    # the product with h read as its primed copy: nothing quantified, a
    # part of the primed names (as a precommit variant quantifies), all
    # of them, and the drawn set
    primed = [v + "'" for v in KVARS]
    part = data.draw(st.lists(st.sampled_from(primed), unique=True))
    for names in ([], part, primed, q):
        assert m.and_exists_primed(f, h, names) == m.and_exists(f, hp, names)


@settings(max_examples=200, deadline=None)
@given(trees(names=LEVELS), trees(names=LEVELS),
       st.sampled_from(["empty", "single", "primed", "all"]), st.data())
def test_or_forall_is_the_dual_of_and_exists(t1, t2, kind, data):
    m = fresh(len(KVARS))
    f, g = build_bdd(m, t1), build_bdd(m, t2)
    q = {"empty": [],
         "single": [data.draw(st.sampled_from(LEVELS))],
         "primed": [n for n in LEVELS if n.endswith("'")],
         "all": LEVELS}[kind]
    r = m.or_forall(f, g, q)
    assert r == m.or_forall(g, f, q) == ~m.and_exists(~f, ~g, q)
    assert m.forall(q, f) == ~m.exists(q, ~f)
    tf = table(lambda env: eval_tree(t1, env))
    tg = table(lambda env: eval_tree(t2, env))
    assert m.to_truthtable(r, LEVELS) == FULL & ~exists_table(
        FULL & ~(tf | tg), q)


def test_quantifying_products_keep_their_computed_table_entries_apart():
    # more quantifier sets than op codes: every qid's or_forall and
    # and_exists entries must stay clear of each other and of the AND/OR
    # entries made on the same operands
    def operands():
        m = fresh(len(KVARS))
        a, b, c, d = (m.var(v) for v in KVARS)
        ap, bp, cp, dp = (m.var(v + "'") for v in KVARS)
        f = (a & bp) | (c ^ dp) | (b & ~ap & cp)
        g = (ap ^ b) & (d | cp) | (a & ~dp)
        h = (a ^ c) | (b & ~d)  # unprimed, for the primed product
        return m, f, g, h

    ops = [lambda m, f, g, h, q: f & g,
           lambda m, f, g, h, q: m.or_forall(f, g, q),
           lambda m, f, g, h, q: m.and_exists(f, g, q),
           lambda m, f, g, h, q: m.and_exists_primed(f, h, q),
           lambda m, f, g, h, q: f | g,
           lambda m, f, g, h, q: m.or_forall(g, f, q),
           lambda m, f, g, h, q: m.and_exists(g, f, q),
           lambda m, f, g, h, q: m.and_exists_primed(g, h, q)]

    def alone(op, q):
        m, f, g, h = operands()
        return m.to_truthtable(op(m, f, g, h, q), LEVELS)

    sets = list(itertools.combinations(LEVELS, 2))[:20]
    m, f, g, h = operands()
    got = [[op(m, f, g, h, q) for op in ops] for q in sets]
    assert len(m._qset_levels) == len(sets) > 16
    for q, row in zip(sets, got):
        assert ([m.to_truthtable(r, LEVELS) for r in row]
                == [alone(op, q) for op in ops]), q


def test_and_in_either_order_shares_one_computed_table_entry():
    m = fresh(4)
    f = (m.var("a") | m.var("c")) ^ m.var("d'")
    g = (m.var("b") ^ m.var("c'")) | m.var("d")
    fg = f & g
    entries = len(m._cache)
    assert (g & f) == fg
    assert len(m._cache) == entries
    # a relational product with nothing to quantify at or below the
    # operands' top is the AND, and reuses its entries
    assert m.and_exists(g, f, []) == fg
    assert len(m._cache) == entries


def crossed_operands(n):
    # f pairs x_i with the primed copy of x_(n-1-i): exponential size in
    # the interleaved order, so a product of f and g misses the computed
    # table far more often than the deadline check's period
    m = BddManager()
    names = [f"x{i}" for i in range(n)]
    for v in names:
        m.declare_signal(v)
    f = g = m.true
    for i in range(n):
        f = f & (m.var(names[i]) | m.var(names[n - 1 - i] + "'"))
        g = g & (m.var(names[i] + "'") | m.var(names[(i + 3) % n]))
    return m, f, g, [v + "'" for v in names]


def test_a_past_deadline_stops_a_large_relational_product():
    m, f, g, primed = crossed_operands(14)
    m.deadline = float("inf")
    m.and_exists(f, g, primed)
    assert m._tick >= 2 * 0x2000
    m, f, g, primed = crossed_operands(14)
    m.deadline = time.monotonic() - 1.0
    with pytest.raises(ResourceLimitError, match="deadline exceeded"):
        m.and_exists(f, g, primed)


def test_a_past_deadline_stops_a_large_dual_product():
    # the complements make the dual product recurse as the relational
    # product above does
    m, f, g, primed = crossed_operands(14)
    nf, ng = ~f, ~g
    m.deadline = float("inf")
    m.or_forall(nf, ng, primed)
    assert m._tick >= 2 * 0x2000
    m, f, g, primed = crossed_operands(14)
    nf, ng = ~f, ~g
    m.deadline = time.monotonic() - 1.0
    with pytest.raises(ResourceLimitError, match="deadline exceeded"):
        m.or_forall(nf, ng, primed)


def test_a_past_deadline_stops_a_large_primed_product():
    # g' pairs the primed copies as f pairs x_i with x_(n-1-i)', so the
    # product misses as often as the relational product above
    def operands():
        m, f, _g, primed = crossed_operands(14)
        n = len(primed)
        g = m.true
        for i in range(n):
            g = g & (m.var(f"x{i}") | m.var(f"x{(i + 3) % n}"))
        return m, f, g, primed

    m, f, g, primed = operands()
    m.deadline = float("inf")
    m.and_exists_primed(f, g, primed[::2])
    assert m._tick >= 2 * 0x2000
    m, f, g, primed = operands()
    m.deadline = time.monotonic() - 1.0
    with pytest.raises(ResourceLimitError, match="deadline exceeded"):
        m.and_exists_primed(f, g, primed[::2])


def test_node_budget_stops_a_dual_product():
    def operands():
        m = fresh(len(KVARS))
        a, b, c, d = (m.var(v) for v in KVARS)
        f = (a ^ m.var("c'")) | (b ^ m.var("d'"))
        g = (c ^ m.var("a'")) | (d & m.var("b'"))
        return m, f, g

    m, f, g = operands()
    allocated = len(m._level)
    m.or_forall(f, g, ["a", "b"])
    assert len(m._level) > allocated
    m, f, g = operands()
    m.node_budget = len(m._level)
    with pytest.raises(ResourceLimitError, match="node budget"):
        m.or_forall(f, g, ["a", "b"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(trees(names=LEVELS), st.booleans()), min_size=1,
                max_size=8))
def test_collect_matches_a_reference_mark_sweep(items):
    m = fresh(len(KVARS))
    # the second round allocates into the slots the first one freed
    for _ in range(2):
        refs = [(t, build_bdd(m, t)) for t, _keep in items]
        kept = [(t, r) for (t, r), (_t, k) in zip(refs, items) if k]
        del refs
        live = {0, 1}
        stack = [r.node for _t, r in kept]
        while stack:
            n = stack.pop()
            if n not in live:
                live.add(n)
                stack += [m._lo[n], m._hi[n]]
        used = set(m._unique.values())
        dead = sorted(used - live)
        free_before = list(m._free)
        assert m.collect() == len(dead)
        assert m._free == free_before + dead
        assert set(m._unique.values()) == used - set(dead)
        assert all(m._unique[(m._level[n], m._lo[n], m._hi[n])] == n
                   for n in m._unique.values())
        for t, r in kept:
            assert m.to_truthtable(r, LEVELS) == table(
                lambda env: eval_tree(t, env))
            assert build_bdd(m, t) == r  # canonical: found, not rebuilt


# ----------------------------------------------------------------------
# the bounded computed table

RECURSIONS = ("_and", "_or", "_xor", "_not", "_and_exists",
              "_and_exists_primed", "_or_forall", "_shift")
PUBLIC = ("apply", "negate", "quantify", "and_exists", "and_exists_primed",
          "or_forall", "rename", "restrict")


def random_operations(m, rng, steps):
    """Apply `steps` random public operations to a pool of handles that
    starts with the literals; yields each result's node.  About every
    third step drops a handle, and every fiftieth collects."""
    pool = [m.var(v) for v in LEVELS] + [m.nvar(v) for v in LEVELS]
    for step in range(steps):
        f, g = rng.choice(pool), rng.choice(pool)
        q = rng.sample(LEVELS, rng.randint(0, 4))
        kind = rng.randrange(10)
        if kind < 5:
            r = m.apply(("and", "or", "xor", "iff", "diff")[kind], f, g)
        elif kind == 5:
            r = m.negate(f)
        elif kind == 6:
            r = m.quantify(rng.choice(("exists", "forall")), q, f)
        elif kind == 7:
            r = (m.and_exists if rng.random() < 0.5 else m.or_forall)(f, g, q)
        elif kind == 8:
            unprimed = m.exists([v + "'" for v in KVARS], f)
            if rng.random() < 0.5:
                r = m.rename(unprimed, "prime")
            else:
                r = m.and_exists_primed(g, unprimed, q)
        else:
            r = m.restrict(f, {v: rng.random() < 0.5 for v in q})
        pool.append(r)
        if len(pool) > 24 and rng.random() < 0.3:
            pool.pop(rng.randrange(16, len(pool)))
        if step % 50 == 49:
            m.collect()
        yield r.node


@pytest.mark.parametrize("seed", range(6))
def test_a_tiny_computed_table_gives_the_same_nodes(seed):
    capped, uncapped = fresh(len(KVARS)), fresh(len(KVARS))
    capped.cache_limit = 64
    largest = 0
    for got, want in zip(random_operations(capped, random.Random(seed), 300),
                         random_operations(uncapped, random.Random(seed),
                                           300)):
        assert got == want
        largest = max(largest, len(capped._cache))
    assert largest > 64   # the cap was reached and entries were dropped
    assert capped._unique == uncapped._unique
    assert capped._free == uncapped._free


def test_every_public_operation_starts_within_the_cap(monkeypatch):
    # the first recursion of each public operation sees the table after
    # the operation's own bound; later ones (diff's AND after its NOT)
    # may see it grown
    sizes, first = [], [False]
    for name in PUBLIC:
        def public(self, *args, _fn=getattr(BddManager, name)):
            first[0] = True
            return _fn(self, *args)
        monkeypatch.setattr(BddManager, name, public)
    for name in RECURSIONS:
        def recursion(self, *args, _fn=getattr(BddManager, name)):
            if first[0]:
                first[0] = False
                sizes.append(len(self._cache))
            return _fn(self, *args)
        monkeypatch.setattr(BddManager, name, recursion)
    m = fresh(len(KVARS))
    m.cache_limit = 64
    largest = 0
    for _ in random_operations(m, random.Random(7), 400):
        largest = max(largest, len(m._cache))
    assert largest > 64 and len(sizes) > 300
    assert max(sizes) <= 64


def test_trimming_keeps_the_newer_half_in_insertion_order():
    m = fresh(len(KVARS))
    m.cache_limit = 10
    m._cache = {(0, i, i + 1): i for i in range(11)}
    m.negate(m.true)
    assert list(m._cache) == [(0, i, i + 1) for i in range(5, 11)]
    m._cache = {(0, i, i + 1): i for i in range(10)}
    m.negate(m.true)      # at the cap, nothing is dropped
    assert len(m._cache) == 10


def test_the_capacity_grows_only_at_a_30_percent_hit_rate():
    # the rate is read over every lookup since the table was last
    # cleared: a trim drops entries but keeps the count
    m = fresh(len(KVARS))
    m._capacity = 8
    # 3 hits and 9 inserts so far: 25%, so the newer half is kept and
    # the capacity stays
    m._cache, m._hits = {(0, i, i + 1): i for i in range(9)}, 3
    m.negate(m.true)
    assert list(m._cache) == [(0, i, i + 1) for i in range(4, 9)]
    assert m._capacity == 8 and (m._hits, m._dropped) == (3, 4)
    # 2 more hits and 4 more inserts: 2 of the 6 lookups since the trim
    # hit (33%), but 5 of the 18 since the clear (28%), so the table is
    # trimmed again
    m._cache.update({(0, i, i + 1): i for i in range(9, 13)})
    m._hits = 5
    m.negate(m.true)
    assert list(m._cache) == [(0, i, i + 1) for i in range(8, 13)]
    assert m._capacity == 8 and (m._hits, m._dropped) == (5, 8)
    # 4 more inserts and 9 hits in all: 9 of 26 lookups (35%), so the
    # capacity doubles and the table and the counts are kept
    m._cache.update({(0, i, i + 1): i for i in range(13, 17)})
    m._hits = 9
    m.negate(m.true)
    assert len(m._cache) == 9
    assert m._capacity == 16 and (m._hits, m._dropped) == (9, 8)
    # a collection that frees nothing keeps the table and the counters;
    # one that frees a node clears the table and the counters only
    m.collect()
    assert (len(m._cache), m._hits, m._dropped) == (9, 9, 8)
    m.var("a")
    m.collect()
    assert (m._cache, m._hits, m._dropped, m._capacity) == ({}, 0, 0, 16)


def test_a_trim_leaves_the_collection_rule_the_rate_since_the_clear(
        monkeypatch):
    # a run of misses passes the capacity and is trimmed, and then a few
    # lookups hit: over the lookups since the trim the table would seem
    # to pay, but over those since the clear it does not, so the dead
    # nodes are still collected
    import gr1report.bdd as bdd_mod
    monkeypatch.setattr(bdd_mod, "_GC_FLOOR", 32)
    m = fresh()
    m._capacity = 16
    pool = [m.var(v) for v in VARS]
    m.collect()
    live = len(m)
    # each operator on each pair of variables once: one miss each
    ops = [(op, f, g) for op in ("and", "or", "xor")
           for f, g in itertools.combinations(pool, 2)]
    sizes = []
    for op, f, g in ops:
        m.apply(op, f, g)       # dead at once
        sizes.append(len(m._cache))
    trims = [i for i in range(1, len(ops)) if sizes[i] < sizes[i - 1]]
    assert trims and m._capacity == 16
    since = len(ops) - trims[-1]        # the inserts since the last trim
    for _ in range(3):
        m.apply(*ops[-1])       # a hit
    assert 10 * 3 >= 3 * (3 + since)    # 30% of those lookups hit
    assert len(m) >= max(bdd_mod._GC_FLOOR, 2 * live)
    assert not m._cache_pays() and m._collect_due()
    assert m.maybe_collect() > 0 and m._live == len(m) == live


def repeated_operations(m, rng, steps):
    """Random AND/OR/XOR of a growing pool of functions, each computed
    three times: the repeats are computed-table hits."""
    pool = [m.var(v) for v in LEVELS]
    for _ in range(steps):
        f, g = rng.sample(pool, 2)
        op = rng.choice(("and", "or", "xor"))
        for _ in range(3):
            r = m.apply(op, f, g)
        pool.append(r)


def bounded_sizes(monkeypatch):
    """(size before, size after) of the computed table at every
    `_bound_cache`."""
    sizes = []

    def noted(self, _bound=BddManager._bound_cache):
        before = len(self._cache)
        _bound(self)
        sizes.append((before, len(self._cache)))
    monkeypatch.setattr(BddManager, "_bound_cache", noted)
    return sizes


def test_a_high_hit_run_grows_the_capacity_up_to_the_cap(monkeypatch):
    sizes = bounded_sizes(monkeypatch)
    m = fresh(len(KVARS))
    m._capacity, m.cache_limit = 64, 256
    capacities = set()
    for seed in range(3):
        repeated_operations(m, random.Random(seed), 100)
        capacities.add(m._capacity)
    assert capacities == {256}
    assert max(after for _before, after in sizes) <= 256
    # once at the cap, a high hit rate still trims
    assert any(after < before for before, after in sizes)


def test_a_cap_below_the_starting_capacity_trims_at_the_cap(monkeypatch):
    sizes = bounded_sizes(monkeypatch)
    m = fresh(len(KVARS))
    m.cache_limit = 100
    for seed in range(3):
        repeated_operations(m, random.Random(seed), 100)
    trims = [(b, a) for b, a in sizes if a < b]
    assert trims and all(b > 100 and a == b - b // 2 for b, a in trims)
    assert max(after for _before, after in sizes) <= 100


# ----------------------------------------------------------------------
# prime implicant enumeration

def tt_of(m, f, names):
    return m.to_truthtable(f, names)


def cubes_as_sets(cubes, names):
    idx = {n: i for i, n in enumerate(names)}
    return {frozenset((idx[n], v) for n, v in c.literals) for c in cubes}


def test_prime_cubes_examples():
    m = fresh(3)
    a, b, c = m.var("a"), m.var("b"), m.var("c")
    cubes = list(m.prime_cubes(a | (b & c), ["a", "b", "c"]))
    assert [set(c.literals) for c in cubes] == [
        {("a", True)}, {("b", True), ("c", True)}]
    assert list(m.prime_cubes(m.true, ["a", "b"])) == [Cube(())]
    xor = list(m.prime_cubes(a ^ b, ["a", "b"]))
    assert sorted(str(c) for c in xor) == ["!a & b", "a & !b"]


def test_prime_cubes_empty_for_false():
    m = fresh(2)
    assert list(m.prime_cubes(m.false, ["a", "b"])) == []


def test_prime_cubes_ordered_largest_first():
    m = fresh(4)
    f = m.var("a") | (m.var("b") & m.var("c") & m.var("d"))
    sizes = [len(c) for c in m.prime_cubes(f, ["a", "b", "c", "d"])]
    assert sizes == sorted(sizes)


@settings(max_examples=120, deadline=None)
@given(trees())
def test_prime_cubes_properties(t):
    m = fresh()
    f = build_bdd(m, t)
    if f.is_false():
        return
    cubes = list(m.prime_cubes(f, VARS))
    union = m.false
    for c in cubes:
        lit = m.true
        for name, val in c.literals:
            lit = lit & (m.var(name) if val else ~m.var(name))
        # every cube is an implicant
        assert (lit & ~f).is_false()
        union = union | lit
    # the cubes cover the function
    assert union == f
    # no cube strictly contains another
    sets = [set(c.literals) for c in cubes]
    for i, s in enumerate(sets):
        for j, t2 in enumerate(sets):
            assert i == j or not s < t2


def test_prime_cubes_match_bruteforce_oracle():
    rng = random.Random(7)
    for n in (3, 4, 5):
        m = fresh(n)
        names = VARS[:n]
        for _ in range(30):
            table = rng.getrandbits(1 << n)
            if table == 0:
                continue
            f = m.false
            for i in range(1 << n):
                if (table >> i) & 1:
                    lit = m.true
                    for k, name in enumerate(names):
                        bit = (i >> (n - 1 - k)) & 1
                        lit = lit & (m.var(name) if bit else ~m.var(name))
                    f = f | lit
            got = cubes_as_sets(m.prime_cubes(f, names), names)
            want = brute_force_primes(table, n)
            assert got == want


def test_prime_cubes_sixteen_variables():
    # sparse function over 16 variables: agreement with the merge oracle
    names = [f"v{i}" for i in range(16)]
    m = BddManager()
    for nm in names:
        m.declare_signal(nm)
    rng = random.Random(3)
    minterms = sorted(rng.sample(range(1 << 16), 40))
    f = m.false
    table = 0
    for i in minterms:
        table |= 1 << i
        lit = m.true
        for k, nm in enumerate(names):
            bit = (i >> (16 - 1 - k)) & 1
            lit = lit & (m.var(nm) if bit else ~m.var(nm))
        f = f | lit
    got = cubes_as_sets(m.prime_cubes(f, names), names)
    assert got == brute_force_primes(table, 16)
