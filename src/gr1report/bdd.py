"""Reduced ordered binary decision diagrams.

A small, dependency-free ROBDD manager with the operations needed for
symbolic game solving: boolean combinators, quantification, register
renaming (current-state <-> next-state variables), exact model counting,
and implicit prime-implicant enumeration through a meta-product BDD.

No complement edges, no dynamic reordering: BDDs are canonical for a
fixed level order.  Model, cube and truth-table enumerations follow the
order of the names they are given, not the level order, so their
results do not depend on it.

References
==========

R. E. Bryant, "Graph-based algorithms for Boolean function manipulation",
IEEE Trans. Computers C-35(8), 1986.

O. Coudert, J. C. Madre, "Implicit and incremental computation of primes
and essential primes of Boolean functions", DAC 1992.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

FALSE = 0
TRUE = 1
_LEAF = 1 << 30

# operator codes for the apply cache
_AND = 0
_OR = 1
_XOR = 2
_IMP = 3
_IFF = 4
_DIFF = 5
_NOT = 6
_PRIME = 7
_UNPRIME = 8
_QBASE = 16  # and_exists / and_forall caches start here

OP_NAMES = {"and": _AND, "or": _OR, "xor": _XOR,
            "implies": _IMP, "iff": _IFF, "diff": _DIFF}


class BddError(Exception):
    pass


class ResourceLimitError(BddError):
    """Node budget or deadline exceeded; distinct from any game verdict."""


@dataclass(frozen=True)
class Cube:
    """Partial assignment; unmentioned variables are don't-care."""

    literals: tuple[tuple[str, bool], ...]

    def __len__(self) -> int:
        return len(self.literals)

    def __str__(self) -> str:
        if not self.literals:
            return "TRUE"
        return " & ".join(n if v else "!" + n for n, v in self.literals)


class BddRef:
    """Handle to a node of one manager.  Valid only within that manager;
    the node stays live for collection while some handle to it exists."""

    __slots__ = ("mgr", "node")

    def __init__(self, mgr: "BddManager", node: int):
        self.mgr = mgr
        self.node = node
        mgr._incref(node)

    def __del__(self):
        self.mgr._decref(self.node)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BddRef) and other.mgr is self.mgr
                and other.node == self.node)

    def __hash__(self) -> int:
        return hash((id(self.mgr), self.node))

    def __repr__(self) -> str:
        return f"BddRef({self.node})"

    def __and__(self, other: "BddRef") -> "BddRef":
        return self.mgr.apply("and", self, other)

    def __or__(self, other: "BddRef") -> "BddRef":
        return self.mgr.apply("or", self, other)

    def __xor__(self, other: "BddRef") -> "BddRef":
        return self.mgr.apply("xor", self, other)

    def __invert__(self) -> "BddRef":
        return self.mgr.negate(self)

    def implies(self, other: "BddRef") -> "BddRef":
        return self.mgr.apply("implies", self, other)

    def iff(self, other: "BddRef") -> "BddRef":
        return self.mgr.apply("iff", self, other)

    def is_true(self) -> bool:
        return self.node == TRUE

    def is_false(self) -> bool:
        return self.node == FALSE


class BddManager:
    """Unique-table / operation-cache BDD manager.

    Variables live at consecutive levels in the order they are declared
    in.  For game arenas declare signals with `declare_signal`, which
    interleaves each variable with its primed (next-state) copy so
    renaming is a level shift and transition relations stay narrow.

    Confined to one thread at a time; independent managers may run on
    different threads.
    """

    # node count (live plus dead not yet freed, i.e. `len(self)`) at
    # which `maybe_collect` collects when no node budget is set
    gc_threshold = 1 << 20

    def __init__(self, node_budget: int | None = None):
        # node 0 = FALSE, node 1 = TRUE
        self._level = [_LEAF, _LEAF]
        self._lo = [0, 1]
        self._hi = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._cache: dict[tuple, int] = {}
        self.var_names: list[str] = []
        self._var_level: dict[str, int] = {}
        self._qsets: dict[frozenset, int] = {}
        self._qset_levels: list[frozenset] = []
        self._extref: dict[int, int] = {}
        self._free: list[int] = []
        self.node_budget = node_budget
        self.deadline: float | None = None
        self._tick = 0

    # ------------------------------------------------------------------
    # variables

    def declare_signal(self, name: str) -> tuple[int, int]:
        """Add `name` and its primed copy at adjacent levels."""
        if name in self._var_level:
            raise BddError(f"variable {name!r} already declared")
        lvl = len(self.var_names)
        self.var_names.append(name)
        self._var_level[name] = lvl
        pname = name + "'"
        self.var_names.append(pname)
        self._var_level[pname] = lvl + 1
        return lvl, lvl + 1

    @property
    def false(self) -> BddRef:
        return BddRef(self, FALSE)

    @property
    def true(self) -> BddRef:
        return BddRef(self, TRUE)

    def var(self, name: str) -> BddRef:
        lvl = self._var_level[name]
        return BddRef(self, self._mk(lvl, FALSE, TRUE))

    def nvar(self, name: str) -> BddRef:
        lvl = self._var_level[name]
        return BddRef(self, self._mk(lvl, TRUE, FALSE))

    def __len__(self) -> int:
        return len(self._level) - len(self._free)

    # ------------------------------------------------------------------
    # node construction

    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level, lo, hi)
        n = self._unique.get(key)
        if n is not None:
            return n
        if self._free:
            n = self._free.pop()
            self._level[n] = level
            self._lo[n] = lo
            self._hi[n] = hi
        else:
            if (self.node_budget is not None
                    and len(self._level) >= self.node_budget):
                raise ResourceLimitError(
                    f"node budget of {self.node_budget} exceeded")
            n = len(self._level)
            self._level.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
        self._unique[key] = n
        return n

    def _check_limits(self):
        self._tick += 1
        if self.deadline is not None and (self._tick & 0x1FFF) == 0:
            if time.monotonic() > self.deadline:
                raise ResourceLimitError("deadline exceeded")

    # ------------------------------------------------------------------
    # reference counting / garbage collection

    def _incref(self, node: int):
        self._extref[node] = self._extref.get(node, 0) + 1

    def _decref(self, node: int):
        c = self._extref.get(node, 0) - 1
        if c <= 0:
            self._extref.pop(node, None)
        else:
            self._extref[node] = c

    def collect(self) -> int:
        """Mark-sweep from external references; returns nodes freed.

        Live node identities are preserved (freed slots go to a free
        list for reuse), so existing BddRef handles stay valid.  Only
        call between operations: in-flight intermediate results that are
        not wrapped in a BddRef are reclaimed.
        """
        marked = {FALSE, TRUE}
        stack = list(self._extref)
        level, lo, hi = self._level, self._lo, self._hi
        while stack:
            n = stack.pop()
            if n in marked:
                continue
            marked.add(n)
            stack.append(lo[n])
            stack.append(hi[n])
        # sweep the unique table, not every slot ever allocated, so the
        # cost follows the nodes in use rather than the high-water mark;
        # ascending order keeps slot reuse as it was
        dead = sorted(n for n in self._unique.values() if n not in marked)
        for n in dead:
            del self._unique[(level[n], lo[n], hi[n])]
            level[n] = _LEAF  # tombstone
        self._free.extend(dead)
        if dead:
            self._cache.clear()
        return len(dead)

    def maybe_collect(self) -> int:
        """Collect at a safe point only when memory calls for it.

        A collection that frees anything clears the computed table, so
        without a node budget it runs only once `len(self)` -- the nodes
        in use, dead ones not yet freed included -- reaches
        `gc_threshold`.  A node budget counts every allocated slot, dead
        or alive, so under a budget every safe point collects.
        """
        if self.node_budget is not None or len(self) >= self.gc_threshold:
            return self.collect()
        return 0

    # ------------------------------------------------------------------
    # combinators

    def _check_same(self, *refs: BddRef):
        for r in refs:
            if r.mgr is not self:
                raise BddError("BddRef belongs to a different manager")

    def apply(self, op: str, f: BddRef, g: BddRef) -> BddRef:
        self._check_same(f, g)
        code = OP_NAMES[op]
        return BddRef(self, self._apply(code, f.node, g.node))

    def negate(self, f: BddRef) -> BddRef:
        self._check_same(f)
        return BddRef(self, self._not(f.node))

    def _not(self, f: int) -> int:
        if f == FALSE:
            return TRUE
        if f == TRUE:
            return FALSE
        key = (_NOT, f)
        r = self._cache.get(key)
        if r is not None:
            return r
        self._check_limits()
        r = self._mk(self._level[f], self._not(self._lo[f]),
                     self._not(self._hi[f]))
        self._cache[key] = r
        return r

    def _apply(self, op: int, f: int, g: int) -> int:
        # terminal shortcuts
        if op == _AND:
            if f == FALSE or g == FALSE:
                return FALSE
            if f == TRUE:
                return g
            if g == TRUE or f == g:
                return f
        elif op == _OR:
            if f == TRUE or g == TRUE:
                return TRUE
            if f == FALSE:
                return g
            if g == FALSE or f == g:
                return f
        elif op == _XOR:
            if f == g:
                return FALSE
            if f == FALSE:
                return g
            if g == FALSE:
                return f
            if f == TRUE:
                return self._not(g)
            if g == TRUE:
                return self._not(f)
        elif op == _IMP:
            if f == FALSE or g == TRUE or f == g:
                return TRUE
            if f == TRUE:
                return g
            if g == FALSE:
                return self._not(f)
        elif op == _IFF:
            if f == g:
                return TRUE
            if f == TRUE:
                return g
            if g == TRUE:
                return f
            if f == FALSE:
                return self._not(g)
            if g == FALSE:
                return self._not(f)
        elif op == _DIFF:
            if f == FALSE or g == TRUE or f == g:
                return FALSE
            if g == FALSE:
                return f
            if f == TRUE:
                return self._not(g)
        key = (op, f, g)
        r = self._cache.get(key)
        if r is not None:
            return r
        self._check_limits()
        lf, lg = self._level[f], self._level[g]
        top = lf if lf < lg else lg
        f0, f1 = (self._lo[f], self._hi[f]) if lf == top else (f, f)
        g0, g1 = (self._lo[g], self._hi[g]) if lg == top else (g, g)
        r = self._mk(top, self._apply(op, f0, g0), self._apply(op, f1, g1))
        self._cache[key] = r
        return r

    # ------------------------------------------------------------------
    # quantification

    def _qset_id(self, levels: frozenset) -> int:
        qid = self._qsets.get(levels)
        if qid is None:
            qid = len(self._qset_levels)
            self._qsets[levels] = qid
            self._qset_levels.append(levels)
        return qid

    def _levels_for(self, names) -> frozenset:
        return frozenset(self._var_level[n] for n in names)

    def quantify(self, kind: str, names, f: BddRef) -> BddRef:
        self._check_same(f)
        levels = self._levels_for(names)
        if kind == "exists":
            return BddRef(self, self._and_exists(f.node, TRUE,
                                                 self._qset_id(levels)))
        if kind == "forall":
            inner = self._and_exists(self._not(f.node), TRUE,
                                     self._qset_id(levels))
            return BddRef(self, self._not(inner))
        raise BddError(f"unknown quantifier kind {kind!r}")

    def exists(self, names, f: BddRef) -> BddRef:
        return self.quantify("exists", names, f)

    def forall(self, names, f: BddRef) -> BddRef:
        return self.quantify("forall", names, f)

    def and_exists(self, f: BddRef, g: BddRef, names) -> BddRef:
        """exists names: f & g  (relational product)."""
        self._check_same(f, g)
        qid = self._qset_id(self._levels_for(names))
        return BddRef(self, self._and_exists(f.node, g.node, qid))

    def _and_exists(self, f: int, g: int, qid: int) -> int:
        if f == FALSE or g == FALSE:
            return FALSE
        if f == TRUE and g == TRUE:
            return TRUE
        key = (_QBASE + qid, f, g) if f <= g else (_QBASE + qid, g, f)
        r = self._cache.get(key)
        if r is not None:
            return r
        self._check_limits()
        lf, lg = self._level[f], self._level[g]
        top = lf if lf < lg else lg
        f0, f1 = (self._lo[f], self._hi[f]) if lf == top else (f, f)
        g0, g1 = (self._lo[g], self._hi[g]) if lg == top else (g, g)
        if top in self._qset_levels[qid]:
            r0 = self._and_exists(f0, g0, qid)
            if r0 == TRUE:
                r = TRUE
            else:
                r = self._apply(_OR, r0, self._and_exists(f1, g1, qid))
        else:
            r = self._mk(top, self._and_exists(f0, g0, qid),
                         self._and_exists(f1, g1, qid))
        self._cache[key] = r
        return r

    # ------------------------------------------------------------------
    # renaming between the unprimed and primed register

    def rename(self, f: BddRef, direction: str) -> BddRef:
        """Substitute every variable with its primed/unprimed counterpart."""
        self._check_same(f)
        if direction == "prime":
            return BddRef(self, self._shift(f.node, _PRIME, +1))
        if direction == "unprime":
            return BddRef(self, self._shift(f.node, _UNPRIME, -1))
        raise BddError(f"unknown rename direction {direction!r}")

    def _shift(self, f: int, op: int, delta: int) -> int:
        # every node is register-checked when it is first shifted; a
        # cached result was checked then
        if f <= TRUE:
            return f
        key = (op, f)
        r = self._cache.get(key)
        if r is not None:
            return r
        lvl = self._level[f]
        if lvl % 2 != (delta < 0):
            what = "prime" if delta > 0 else "unprime"
            raise BddError(f"{what}: variable {self.var_names[lvl]!r} is "
                           "in the wrong register")
        self._check_limits()
        r = self._mk(lvl + delta, self._shift(self._lo[f], op, delta),
                     self._shift(self._hi[f], op, delta))
        self._cache[key] = r
        return r

    # ------------------------------------------------------------------
    # structure inspection

    def _support_levels(self, f: int) -> set[int]:
        seen = set()
        out = set()
        stack = [f]
        while stack:
            n = stack.pop()
            if n <= TRUE or n in seen:
                continue
            seen.add(n)
            out.add(self._level[n])
            stack.append(self._lo[n])
            stack.append(self._hi[n])
        return out

    def support(self, f: BddRef) -> list[str]:
        self._check_same(f)
        return [self.var_names[lvl]
                for lvl in sorted(self._support_levels(f.node))]

    def eval(self, f: BddRef, assignment: dict[str, bool]) -> bool:
        """Evaluate under a total assignment of f's support."""
        self._check_same(f)
        n = f.node
        while n > TRUE:
            name = self.var_names[self._level[n]]
            n = self._hi[n] if assignment[name] else self._lo[n]
        return n == TRUE

    def restrict(self, f: BddRef, assignment: dict[str, bool]) -> BddRef:
        """Cofactor: fix some variables to constants."""
        self._check_same(f)
        fixed = {self._var_level[n]: v for n, v in assignment.items()}
        return BddRef(self, self._cofactor(f.node, fixed, {}))

    def _cofactor(self, f: int, fixed: dict[int, bool], memo: dict) -> int:
        """f with the variables at the levels in `fixed` set to constants.
        `memo` maps nodes to results for this `fixed` only; the walk
        stops below the deepest fixed level."""
        if not fixed:
            return f
        bottom = max(fixed)
        level, lo, hi = self._level, self._lo, self._hi

        def walk(n: int) -> int:
            if level[n] > bottom:  # terminals included
                return n
            r = memo.get(n)
            if r is not None:
                return r
            lvl = level[n]
            v = fixed.get(lvl)
            if v is None:
                r = self._mk(lvl, walk(lo[n]), walk(hi[n]))
            else:
                r = walk(hi[n] if v else lo[n])
            memo[n] = r
            return r

        return walk(f)

    def _splitter(self, names: list[str]):
        """split(n, i) = (n with names[i] false, n with names[i] true).

        The enumerations below walk `names` in the order given and
        cofactor on each name's level wherever it sits, so their results
        do not depend on the level order."""
        levels = [self._var_level[n] for n in names]
        memos: dict[tuple[int, bool], dict] = {}
        level, lo, hi = self._level, self._lo, self._hi

        def split(n: int, i: int) -> tuple[int, int]:
            lvl = levels[i]
            top = level[n]
            if top > lvl:  # n does not depend on the name
                return n, n
            if top == lvl:
                return lo[n], hi[n]
            return (
                self._cofactor(n, {lvl: False},
                               memos.setdefault((lvl, False), {})),
                self._cofactor(n, {lvl: True},
                               memos.setdefault((lvl, True), {})))

        return split

    # ------------------------------------------------------------------
    # model counting and model enumeration

    def count_models(self, f: BddRef, names) -> int:
        """Exact number of assignments to `names` satisfying f."""
        self._check_same(f)
        levels = sorted(self._var_level[n] for n in names)
        sup = self._support_levels(f.node)
        if not sup <= set(levels):
            extra = [self.var_names[v] for v in sorted(sup - set(levels))]
            raise BddError(f"support escapes the counting variables: {extra}")
        pos = {lvl: i for i, lvl in enumerate(levels)}
        total = len(levels)
        memo: dict[tuple[int, int], int] = {}

        def cnt(n: int, i: int) -> int:
            # assignments to levels[i:] satisfying n
            if n == FALSE:
                return 0
            if i == total:
                return 1
            key = (n, i)
            r = memo.get(key)
            if r is not None:
                return r
            if n == TRUE or pos[self._level[n]] > i:
                r = 2 * cnt(n, i + 1)
            else:
                r = cnt(self._lo[n], i + 1) + cnt(self._hi[n], i + 1)
            memo[key] = r
            return r

        return cnt(f.node, 0)

    def pick_min_model(self, f: BddRef, names) -> dict[str, bool]:
        """Lexicographically smallest satisfying assignment of `names`
        (in the order given, false < true).  f must be satisfiable and
        its support contained in `names`."""
        self._check_same(f)
        if f.node == FALSE:
            raise BddError("pick_min_model of FALSE")
        names = list(names)
        if not self._support_levels(f.node) <= self._levels_for(names):
            raise BddError("support escapes the model variables")
        split = self._splitter(names)
        out: dict[str, bool] = {}
        n = f.node
        for i, name in enumerate(names):
            n0, n1 = split(n, i)
            out[name] = n0 == FALSE
            n = n1 if out[name] else n0
        return out

    def iter_models(self, f: BddRef, names):
        """All satisfying assignments over `names`, in lexicographic
        order over `names` as given."""
        self._check_same(f)
        names = list(names)
        split = self._splitter(names)
        total = len(names)

        def rec(n: int, i: int, acc: dict):
            if n == FALSE:
                return
            if i == total:
                yield dict(acc)
                return
            lo, hi = split(n, i)
            acc[names[i]] = False
            yield from rec(lo, i + 1, acc)
            acc[names[i]] = True
            yield from rec(hi, i + 1, acc)
            del acc[names[i]]

        yield from rec(f.node, 0, {})

    def to_truthtable(self, f: BddRef, names) -> int:
        """Truth table of f over `names` as a big integer.

        Index convention: the first name is the most significant index
        bit, so bit i of the result is f at the assignment where
        names[j] = bit (len(names)-1-j) of i.
        """
        self._check_same(f)
        names = list(names)
        if not self._support_levels(f.node) <= self._levels_for(names):
            raise BddError("support escapes the truth-table variables")
        split = self._splitter(names)
        total = len(names)
        memo: dict[tuple[int, int], int] = {}

        def rec(n: int, i: int) -> int:
            # table over names[i:], little-endian in the index
            if n == FALSE:
                return 0
            if i == total:
                return 1
            key = (n, i)
            r = memo.get(key)
            if r is not None:
                return r
            width = 1 << (total - i - 1)
            n0, n1 = split(n, i)
            lo = rec(n0, i + 1)
            hi = lo if n1 == n0 else rec(n1, i + 1)
            r = lo | (hi << width)
            memo[key] = r
            return r

        return rec(f.node, 0)

    # ------------------------------------------------------------------
    # prime implicant enumeration (meta-product)

    def prime_cubes(self, f: BddRef, names):
        """Lazily enumerate the prime implicants of f over `names`,
        largest cubes (fewest literals) first.

        The primes are represented implicitly as a meta-product BDD over
        occurrence/sign variable pairs and walked in order of increasing
        literal count.  FALSE yields nothing; TRUE yields the empty cube.
        """
        self._check_same(f)
        names = list(names)
        if not self._support_levels(f.node) <= self._levels_for(names):
            raise BddError("support escapes the cube variables")
        if f.node == FALSE:
            return
        split = self._splitter(names)
        # names[i] gets occurrence level 2i and sign level 2i+1; the meta
        # manager only builds nodes on those levels and declares no names
        meta = BddManager()
        total = len(names)
        memo: dict[tuple[int, int], int] = {}

        def primes(n: int, i: int) -> int:
            # meta-product of the primes of n over names[i:]
            if n == FALSE:
                return FALSE
            if i == total:
                return TRUE
            key = (n, i)
            r = memo.get(key)
            if r is not None:
                return r
            olvl = 2 * i
            f0, f1 = split(n, i)
            if f0 == f1:
                r = meta._mk(olvl, primes(f0, i + 1), FALSE)
            else:
                pboth = primes(self._apply(_AND, f0, f1), i + 1)
                p1 = meta._apply(_DIFF, primes(f1, i + 1), pboth)
                p0 = meta._apply(_DIFF, primes(f0, i + 1), pboth)
                r = meta._mk(olvl, pboth, meta._mk(olvl + 1, p0, p1))
            memo[key] = r
            return r

        root = primes(f.node, 0)

        # minimal number of occurrence literals below each node
        mincost: dict[tuple[int, int], int] = {}

        def mc(n: int, i: int) -> int:
            if n == FALSE:
                return 1 << 30
            if i == total:
                return 0
            key = (n, i)
            r = mincost.get(key)
            if r is not None:
                return r
            olvl = 2 * i
            if n > TRUE and meta._level[n] == olvl:
                absent, present = meta._lo[n], meta._hi[n]
            else:
                absent = present = n
            best = mc(absent, i + 1)
            if present != FALSE:
                # cost through the sign node (or don't-care sign)
                if present > TRUE and meta._level[present] == olvl + 1:
                    s0, s1 = meta._lo[present], meta._hi[present]
                else:
                    s0 = s1 = present
                sub = min(mc(s0, i + 1), mc(s1, i + 1))
                best = min(best, 1 + sub)
            mincost[key] = best
            return best

        def walk(n: int, i: int, budget: int, acc: list):
            if n == FALSE or budget < 0:
                return
            if i == total:
                if budget == 0:
                    yield Cube(tuple(acc))
                return
            if mc(n, i) > budget:
                return
            olvl = 2 * i
            if n > TRUE and meta._level[n] == olvl:
                absent, present = meta._lo[n], meta._hi[n]
            else:
                absent = present = n
            # variable absent from the cube
            yield from walk(absent, i + 1, budget, acc)
            # variable present with a sign
            if present != FALSE and budget >= 1:
                if present > TRUE and meta._level[present] == olvl + 1:
                    s0, s1 = meta._lo[present], meta._hi[present]
                else:
                    s0 = s1 = present
                acc.append((names[i], False))
                yield from walk(s0, i + 1, budget - 1, acc)
                acc.pop()
                acc.append((names[i], True))
                yield from walk(s1, i + 1, budget - 1, acc)
                acc.pop()

        for k in range(total + 1):
            yield from walk(root, 0, k, [])

    # ------------------------------------------------------------------
    # export

    def to_dot(self, f: BddRef, name: str = "bdd") -> str:
        """DOT text for one BDD: solid edge = true branch, dashed = false.
        Nodes are named in first-visit order, so the text depends on the
        function alone, not on where the manager stored its nodes."""
        self._check_same(f)
        lines = [f"digraph {name} {{", "  rankdir=TB;"]
        ids: dict[int, str] = {}

        def nid(n: int) -> str:
            return ids.setdefault(n, f"n{len(ids)}")

        seen = set()
        stack = [f.node]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if n <= TRUE:
                lines.append(f'  {nid(n)} [shape=box,label="{n}"];')
                continue
            lbl = self.var_names[self._level[n]]
            lines.append(f'  {nid(n)} [shape=circle,label="{lbl}"];')
            lines.append(f"  {nid(n)} -> {nid(self._hi[n])} [style=solid];")
            lines.append(f"  {nid(n)} -> {nid(self._lo[n])} [style=dashed];")
            stack.append(self._lo[n])
            stack.append(self._hi[n])
        lines.append("}")
        return "\n".join(lines)
