"""Reduced ordered binary decision diagrams.

A small, dependency-free ROBDD manager with the operations needed for
symbolic game solving: boolean combinators, quantification, register
renaming (current-state <-> next-state variables), exact model counting,
and implicit prime-implicant enumeration through a meta-product BDD.

No complement edges, no dynamic reordering: BDDs are canonical for a
fixed level order.  Model, cube and truth-table enumerations follow the
order of the names they are given, not the level order, so their
results do not depend on it.

The kernel is recursive Python, so it is kept specialised, and its
cost is the number of Python calls it makes.  AND and OR make nearly all
of the game solver's calls; XOR, which every `<->` of a specification
compiles to (iff is NOT of XOR), is the third binary recursion.  Each
orders its operands into a standard triple (the lower node id first), so
`a & b` and `b & a` share one computed-table entry.  The rarer operators
(implies, diff) are built from AND, OR and NOT.  The relational product
`and_exists` (exists Q: f & g, Burch, Clarke & Long 1991) hands off to
AND once both operands lie below the deepest quantified level, and merges
quantified cofactors with OR.  Its dual `or_forall` (forall Q: f | g)
hands off to OR and merges with AND; it gives universal quantification,
and the game's predecessors from a negated transition relation built
once, without negating a BDD per call (what complement edges would give
for free).  `and_exists_primed` (exists Q: f & g') is the relational
product that the game's controllable step needs: it reads each node of
an unprimed g one level down, at its primed copy's level, so g' is never
built.  Restriction, and each cofactor that an enumeration takes below a
node's top, is also a relational product: with the cube of the fixed
values, quantifying their variables (Bryant 1986), so enumerations share
the bounded computed table and the deadline.

Every recursion decides a child's terminal case before it calls the
child, as Brace, Rudell & Bryant do: a FALSE operand of AND or of an
exists-product, a FALSE or TRUE operand of OR, a TRUE operand of
`or_forall`, and the merge of two quantified cofactors once one side
decides it.  The cofactors are read into locals, never packed into
tuples, and a quantifier set's id is memoised by its names as given.
On a computed-table miss each recursion looks its result up in the
unique table itself and calls `_mk` only for a new node.  The deadline
is checked only when one is set, once every 8192 misses.

The computed table is bounded, as in Brace, Rudell & Bryant and in
CUDD, and sized by its hit rate, as in CUDD: its capacity starts at
2^14 entries and never exceeds `cache_limit`.  The hit rate has one
window, every lookup since the table was last cleared: the hits, over
the hits plus the entries inserted since, those that trims dropped
included.  Each public operation first checks the table's size.  Once
it holds more entries than its capacity, the table grows or is
trimmed by that rate: at 30% or more (CUDD's default `minHit`) the
capacity doubles, up to `cache_limit`, and the table is kept;
otherwise only the newer half is kept, in insertion order.  Neither
restarts the count.  The capacity never shrinks, so a manager whose
work reuses its entries (a corpus report) grows to the cap while one
that rarely reuses them (the chain's verdict, where few lookups hit)
stays at a sixteenth of it.  Dropping entries never changes a result,
only whether it is recomputed; the nodes stay in the unique table, so
a recomputation allocates nothing.  The hot recursions only count
their hits and never check the size, so the table may grow past its
capacity within one operation.  Keeping the newer half rather than
clearing the table lets a sequence of operations that shares more
entries than the cap (the variant solves of one analysis) keep its
recent work.  A collection that frees anything still clears the whole
table, since freed slots are reused, and restarts the hit count; the
capacity stays.

A `BddRef` keeps its node through collections; a bare node id is valid
only until the next collection, which frees every node that no handle
and no root the caller names reaches, and reuses its slot.  A caller may
chain the recursions on ids between collections, as the game solver
does through each fixpoint sweep, if it calls `_bound_cache` itself
once per step and, at a safe point, names as `roots` the ids it still
needs or wraps them in a BddRef: CUDD's split between recursions on raw
nodes and referenced results.

Collection follows one rule, CUDD's: collect once dead nodes dominate.
A collection is due (`_collect_due`) when the nodes in use, dead ones
not yet freed included, have reached twice the live count the last
collection left, and at least 2^14, and the computed table does not pay
(under 30% of its lookups hit since it was last cleared, the rate by
which it grows or is trimmed), so that a table worth keeping is not
cleared; or, under a node budget, once the nodes in use plus their
growth since the last collection reach it.
`maybe_collect`, at the top of each mu-Y iteration and each layer of
`reached_positions`, collects when one is due; `Session.restart` alone
collects unconditionally, between analyses, where all else is dead.

References
==========

R. E. Bryant, "Graph-based algorithms for Boolean function manipulation",
IEEE Trans. Computers C-35(8), 1986.

K. S. Brace, R. L. Rudell, R. E. Bryant, "Efficient implementation of a
BDD package", DAC 1990.

J. R. Burch, E. M. Clarke, D. E. Long, "Symbolic model checking with
partitioned transition relations", VLSI 1991.

O. Coudert, J. C. Madre, "Implicit and incremental computation of primes
and essential primes of Boolean functions", DAC 1992.

F. Somenzi, "CUDD: CU Decision Diagram Package", University of Colorado
at Boulder (the computed table as a cache of bounded size, and
collection once dead nodes dominate).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice

FALSE = 0
TRUE = 1
_LEAF = 1 << 30

# operator codes for the computed table
_AND = 0
_OR = 1
_NOT = 2
_PRIME = 3
_UNPRIME = 4
_XOR = 5
# computed-table keys of the quantifying recursions, per quantifier set
# id qid, all 3-tuples: `_and_exists` uses (_QBASE + 2 qid, f, g) and
# `_and_exists_primed` (_QBASE + 2 qid + 1, f, g), above every op code
# and apart from each other; `_or_forall` uses (-1 - qid, f, g), below
# every op code
_QBASE = 6
# a collection can be due (`_collect_due`) once the nodes in use reach
# _GC_GROWTH times the live count the last collection left, and _GC_FLOOR
_GC_GROWTH = 2
_GC_FLOOR = 1 << 14


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

    # the most computed-table entries a manager's capacity grows to; a
    # public operation that finds the table past its capacity first
    # grows the capacity or drops the older half (see the module
    # docstring and `_bound_cache`)
    cache_limit = 1 << 18

    def __init__(self, node_budget: int | None = None):
        # node 0 = FALSE, node 1 = TRUE
        self._level = [_LEAF, _LEAF]
        self._lo = [0, 1]
        self._hi = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._cache: dict[tuple, int] = {}
        # the table's capacity (`_bound_cache` caps it at `cache_limit`)
        # and, since the table was last cleared, the hits counted and the
        # entries that trims dropped (`_cache_pays`)
        self._capacity = 1 << 14
        self._hits = 0
        self._dropped = 0
        # the nodes in use that the last collection left (`_collect_due`)
        self._live = 0
        self.var_names: list[str] = []
        self._var_level: dict[str, int] = {}
        self._qsets: dict[frozenset, int] = {}
        self._qnames: dict[tuple, int] = {}   # names as given -> qid
        self._qset_levels: list[frozenset] = []
        self._qset_bottom: list[int] = []   # deepest level of each set
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

    def _level_of(self, name: str) -> int:
        """The level of a declared variable; BddError names any other."""
        try:
            return self._var_level[name]
        except KeyError:
            raise BddError(f"undeclared variable {name!r}") from None

    def var(self, name: str) -> BddRef:
        return BddRef(self, self._mk(self._level_of(name), FALSE, TRUE))

    def nvar(self, name: str) -> BddRef:
        return BddRef(self, self._mk(self._level_of(name), TRUE, FALSE))

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
        # called on computed-table misses only when a deadline is set;
        # reads the clock every 8192 of them
        self._tick += 1
        if (self._tick & 0x1FFF) == 0 and time.monotonic() > self.deadline:
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

    def collect(self, roots=()) -> int:
        """Mark-sweep from the external references and from `roots`, an
        iterable of raw node ids the caller still needs; returns the
        nodes freed.

        Live node identities are preserved (freed slots go to a free
        list for reuse), so existing BddRef handles, and the ids in
        `roots`, stay valid.  Only call between operations: any other
        id that is neither wrapped in a BddRef nor named in `roots` may
        be reclaimed.
        """
        level, lo, hi = self._level, self._lo, self._hi
        marked = bytearray(len(level))
        marked[FALSE] = marked[TRUE] = 1
        stack = list(self._extref)
        stack.extend(roots)
        for n in stack:
            marked[n] = 1
        # a node is marked when it is pushed, so each is pushed once
        while stack:
            n = stack.pop()
            c = lo[n]
            if not marked[c]:
                marked[c] = 1
                stack.append(c)
            c = hi[n]
            if not marked[c]:
                marked[c] = 1
                stack.append(c)
        # every slot in use but the two terminals is in the unique
        # table, so when each of them is marked nothing is dead, and
        # the table and the computed table stay as they are
        if marked.count(1) == len(self._unique) + 2:
            self._live = len(self)
            return 0
        # sweep the unique table, not every slot ever allocated, so the
        # cost follows the nodes in use rather than the high-water mark;
        # one pass splits it into the live table and the dead slots, and
        # freeing those in ascending order keeps slot reuse as it was
        live: dict[tuple[int, int, int], int] = {}
        dead = []
        for k, n in self._unique.items():
            if marked[n]:
                live[k] = n
            else:
                dead.append(n)
        dead.sort()
        for n in dead:
            level[n] = _LEAF  # tombstone
        self._free.extend(dead)
        self._unique = live
        self._cache = {}
        self._hits = self._dropped = 0
        self._live = len(self)
        return len(dead)

    def maybe_collect(self, roots=()) -> int:
        """Collect at a safe point, keeping `roots` as `collect` does,
        when `_collect_due`; the one way code asks for one inside an
        analysis."""
        return self.collect(roots) if self._collect_due() else 0

    def _collect_due(self) -> bool:
        """The one collection rule.  CUDD's (Somenzi): `len(self)`, the
        nodes in use with dead ones not yet freed, has reached
        `_GC_GROWTH` times the live count the last collection left, and
        `_GC_FLOOR`, and under 30% of the table's lookups since it was
        last cleared hit (`_cache_pays`, the rate `_bound_cache` reads),
        since a collection clears the table.  Or, whatever the floor and
        the hit rate, once the nodes in use plus their growth since that
        collection reach the node budget, where `_mk` raises: one more
        phase as large as the last would not fit."""
        n, budget = len(self), self.node_budget
        return ((budget is not None and 2 * n - self._live >= budget)
                or (n >= _GC_FLOOR and n >= _GC_GROWTH * self._live
                    and not self._cache_pays()))

    # ------------------------------------------------------------------
    # combinators

    def _check_same(self, *refs: BddRef):
        for r in refs:
            if r.mgr is not self:
                raise BddError("BddRef belongs to a different manager")

    def _bound_cache(self):
        """Grow or trim the computed table once it holds more entries
        than its capacity.  If the table pays (`_cache_pays`), the
        capacity doubles, up to `cache_limit`, and the table is kept;
        otherwise the newer half is kept (a dict iterates in insertion
        order) and the older half counted as dropped.  Neither restarts
        the hit count, which only a collection that clears the table
        does.  The public operations call this first, never the
        recursions; a caller that chains recursions on node ids calls it
        per step."""
        c = self._cache
        cap = min(self._capacity, self.cache_limit)
        if len(c) > cap:
            if cap < self.cache_limit and self._cache_pays():
                self._capacity = min(2 * cap, self.cache_limit)
            else:
                half = len(c) // 2
                self._dropped += half
                self._cache = dict(islice(c.items(), half, None))

    def _cache_pays(self) -> bool:
        """Whether at least 30% (CUDD's `minHit`) of the computed table's
        lookups since it was last cleared hit: the hits, over the hits
        plus the entries inserted since, those in the table and those
        that trims dropped.  One window for `_bound_cache` and
        `_collect_due`: a trim keeps the count, so a few hits after a run
        of misses do not read as a table that pays."""
        hits = self._hits
        return 10 * hits >= 3 * (hits + len(self._cache) + self._dropped)

    def apply(self, op: str, f: BddRef, g: BddRef) -> BddRef:
        """f op g for op in and, or, xor, implies, iff, diff (f & !g)."""
        self._check_same(f, g)
        self._bound_cache()
        return BddRef(self, self._apply(op, f.node, g.node))

    def negate(self, f: BddRef) -> BddRef:
        self._check_same(f)
        self._bound_cache()
        return BddRef(self, self._not(f.node))

    # The hot recursions below share one shape: terminal rules, a
    # computed-table lookup whose hits are counted for `_bound_cache`, a
    # deadline check only when a deadline is set, the cofactors read
    # into locals, the recursive calls, and then the unique-table lookup
    # made in place, with `_mk` called only to allocate a node that is
    # new.  A child whose operand decides it (a terminal, mostly) is
    # settled before the call, since a Python call costs more than the
    # test; the entry rules stay for the public callers.  Every
    # recursive call goes through `self.`.

    def _not(self, f: int) -> int:
        if f <= TRUE:
            return TRUE - f
        key = (_NOT, f)
        r = self._cache.get(key)
        if r is not None:
            self._hits += 1
            return r
        if self.deadline is not None:
            self._check_limits()
        top = self._level[f]
        c = self._lo[f]
        r0 = TRUE - c if c <= TRUE else self._not(c)
        c = self._hi[f]
        r1 = TRUE - c if c <= TRUE else self._not(c)
        # negation is injective, so r0 != r1
        r = self._unique.get((top, r0, r1))
        if r is None:
            r = self._mk(top, r0, r1)
        self._cache[key] = r
        return r

    def _and(self, f: int, g: int) -> int:
        # standard triple: f < g, so a & b and b & a share one entry and
        # a terminal operand can only be f
        if f == g:
            return f
        if f > g:
            f, g = g, f
        if f <= TRUE:
            return FALSE if f == FALSE else g
        key = (_AND, f, g)
        r = self._cache.get(key)
        if r is not None:
            self._hits += 1
            return r
        if self.deadline is not None:
            self._check_limits()
        level = self._level
        lf = level[f]
        lg = level[g]
        if lf <= lg:
            top = lf
            f0 = self._lo[f]
            f1 = self._hi[f]
        else:
            top = lg
            f0 = f1 = f
        if lg <= lf:
            g0 = self._lo[g]
            g1 = self._hi[g]
        else:
            g0 = g1 = g
        # with a terminal operand the product of the two ids is the AND:
        # FALSE (0) absorbs and TRUE (1) is the unit
        r0 = self._and(f0, g0) if f0 > TRUE and g0 > TRUE else f0 * g0
        r1 = self._and(f1, g1) if f1 > TRUE and g1 > TRUE else f1 * g1
        if r0 == r1:
            r = r0
        else:
            r = self._unique.get((top, r0, r1))
            if r is None:
                r = self._mk(top, r0, r1)
        self._cache[key] = r
        return r

    def _or(self, f: int, g: int) -> int:
        # standard triple, as in `_and`
        if f == g:
            return f
        if f > g:
            f, g = g, f
        if f <= TRUE:
            return g if f == FALSE else TRUE
        key = (_OR, f, g)
        r = self._cache.get(key)
        if r is not None:
            self._hits += 1
            return r
        if self.deadline is not None:
            self._check_limits()
        level = self._level
        lf = level[f]
        lg = level[g]
        if lf <= lg:
            top = lf
            f0 = self._lo[f]
            f1 = self._hi[f]
        else:
            top = lg
            f0 = f1 = f
        if lg <= lf:
            g0 = self._lo[g]
            g1 = self._hi[g]
        else:
            g0 = g1 = g
        # a terminal operand: FALSE leaves the other, TRUE absorbs
        if f0 > TRUE and g0 > TRUE:
            r0 = self._or(f0, g0)
        else:
            r0 = g0 if f0 == FALSE else f0 if g0 == FALSE else TRUE
        if f1 > TRUE and g1 > TRUE:
            r1 = self._or(f1, g1)
        else:
            r1 = g1 if f1 == FALSE else f1 if g1 == FALSE else TRUE
        if r0 == r1:
            r = r0
        else:
            r = self._unique.get((top, r0, r1))
            if r is None:
                r = self._mk(top, r0, r1)
        self._cache[key] = r
        return r

    def _xor(self, f: int, g: int) -> int:
        # standard triple, as in `_and`
        if f == g:
            return FALSE
        if f > g:
            f, g = g, f
        if f <= TRUE:
            return g if f == FALSE else self._not(g)
        key = (_XOR, f, g)
        r = self._cache.get(key)
        if r is not None:
            self._hits += 1
            return r
        if self.deadline is not None:
            self._check_limits()
        level = self._level
        lf = level[f]
        lg = level[g]
        if lf <= lg:
            top = lf
            f0 = self._lo[f]
            f1 = self._hi[f]
        else:
            top = lg
            f0 = f1 = f
        if lg <= lf:
            g0 = self._lo[g]
            g1 = self._hi[g]
        else:
            g0 = g1 = g
        # a terminal operand: FALSE leaves the other, TRUE negates it
        if f0 > TRUE and g0 > TRUE:
            r0 = self._xor(f0, g0)
        else:
            t, o = (f0, g0) if f0 <= TRUE else (g0, f0)
            r0 = o if t == FALSE else TRUE - o if o <= TRUE else self._not(o)
        if f1 > TRUE and g1 > TRUE:
            r1 = self._xor(f1, g1)
        else:
            t, o = (f1, g1) if f1 <= TRUE else (g1, f1)
            r1 = o if t == FALSE else TRUE - o if o <= TRUE else self._not(o)
        if r0 == r1:
            r = r0
        else:
            r = self._unique.get((top, r0, r1))
            if r is None:
                r = self._mk(top, r0, r1)
        self._cache[key] = r
        return r

    def _apply(self, op: str, f: int, g: int) -> int:
        if op == "and":
            return self._and(f, g)
        if op == "or":
            return self._or(f, g)
        if op == "xor":
            return self._xor(f, g)
        if op == "iff":
            return self._not(self._xor(f, g))
        # implies and diff are rare: built from AND, OR and NOT
        if op == "diff":
            return self._and(f, self._not(g))
        if op == "implies":
            return self._or(self._not(f), g)
        raise BddError(f"unknown operator {op!r}")

    # ------------------------------------------------------------------
    # quantification

    def _qset_id(self, levels: frozenset) -> int:
        qid = self._qsets.get(levels)
        if qid is None:
            qid = len(self._qset_levels)
            self._qsets[levels] = qid
            self._qset_levels.append(levels)
            self._qset_bottom.append(max(levels, default=-1))
        return qid

    def _levels_for(self, names) -> frozenset:
        return frozenset(map(self._level_of, names))

    def _names_qid(self, names) -> int:
        """Quantifier-set id of `names`, memoised by the names as given,
        so a caller that quantifies the same long list on every step
        builds no set of levels."""
        names = tuple(names)
        qid = self._qnames.get(names)
        if qid is None:
            qid = self._qnames[names] = self._qset_id(self._levels_for(names))
        return qid

    def quantify(self, kind: str, names, f: BddRef) -> BddRef:
        self._check_same(f)
        self._bound_cache()
        if kind == "exists":
            return BddRef(self, self._and_exists(f.node, TRUE,
                                                 self._names_qid(names)))
        if kind == "forall":
            return BddRef(self, self._or_forall(FALSE, f.node,
                                                self._names_qid(names)))
        raise BddError(f"unknown quantifier kind {kind!r}")

    def exists(self, names, f: BddRef) -> BddRef:
        return self.quantify("exists", names, f)

    def forall(self, names, f: BddRef) -> BddRef:
        return self.quantify("forall", names, f)

    def and_exists(self, f: BddRef, g: BddRef, names) -> BddRef:
        """exists names: f & g  (relational product)."""
        self._check_same(f, g)
        self._bound_cache()
        return BddRef(self, self._and_exists(f.node, g.node,
                                             self._names_qid(names)))

    def and_exists_primed(self, f: BddRef, g: BddRef, names) -> BddRef:
        """exists names: f & g', where g' is `rename(g, "prime")`.

        The product reads each node of g one level down, at its primed
        copy's level, so g' is never built.  g must lie in the unprimed
        register: a primed variable of g that the product reads raises
        `rename`'s wrong-register BddError.  A part of g where f is
        FALSE, or past a quantified cofactor that is already TRUE, is
        not read; it cannot change the result."""
        self._check_same(f, g)
        self._bound_cache()
        return BddRef(self, self._and_exists_primed(f.node, g.node,
                                                    self._names_qid(names)))

    def or_forall(self, f: BddRef, g: BddRef, names) -> BddRef:
        """forall names: f | g  (the dual of `and_exists`)."""
        self._check_same(f, g)
        self._bound_cache()
        return BddRef(self, self._or_forall(f.node, g.node,
                                            self._names_qid(names)))

    def _and_exists(self, f: int, g: int, qid: int) -> int:
        if f > g:
            f, g = g, f
        if f == FALSE:
            return FALSE
        level = self._level
        lf = level[f]
        lg = level[g]
        top = lf if lf < lg else lg
        if top > self._qset_bottom[qid]:
            # nothing left to quantify (terminals included): a plain AND,
            # which shares its computed-table entries with `apply`
            return g if f == TRUE else self._and(f, g)
        key = (_QBASE + 2 * qid, f, g)
        r = self._cache.get(key)
        if r is not None:
            self._hits += 1
            return r
        if self.deadline is not None:
            self._check_limits()
        if lf == top:
            f0 = self._lo[f]
            f1 = self._hi[f]
        else:
            f0 = f1 = f
        if lg == top:
            g0 = self._lo[g]
            g1 = self._hi[g]
        else:
            g0 = g1 = g
        # a FALSE operand (0, so falsy) settles a child before the call
        if top in self._qset_levels[qid]:
            # OR of the cofactors, stopping once one side decides it
            r = self._and_exists(f0, g0, qid) if f0 and g0 else FALSE
            if r != TRUE:
                r1 = self._and_exists(f1, g1, qid) if f1 and g1 else FALSE
                if r == FALSE or r1 == TRUE:
                    r = r1
                elif r1 != FALSE and r1 != r:
                    r = self._or(r, r1)
        else:
            r0 = self._and_exists(f0, g0, qid) if f0 and g0 else FALSE
            r1 = self._and_exists(f1, g1, qid) if f1 and g1 else FALSE
            if r0 == r1:
                r = r0
            else:
                r = self._unique.get((top, r0, r1))
                if r is None:
                    r = self._mk(top, r0, r1)
        self._cache[key] = r
        return r

    def _and_exists_primed(self, f: int, g: int, qid: int) -> int:
        # `_and_exists` of f and g', reading g's node at level l as its
        # primed copy at level l + 1; the operands play different parts,
        # so there is no standard triple
        if f == FALSE or g == FALSE:
            return FALSE
        if g == TRUE:
            # exists names: f, which shares `_and_exists`'s entries
            return f if f == TRUE else self._and_exists(f, TRUE, qid)
        level = self._level
        lg = level[g]
        if lg & 1:
            raise BddError(f"prime: variable {self.var_names[lg]!r} is in "
                           "the wrong register")
        lg += 1
        lf = level[f]
        top = lf if lf < lg else lg
        if f == TRUE and top > self._qset_bottom[qid]:
            # nothing left to quantify: g' itself, shared with `rename`
            return self._shift(g, _PRIME, +1)
        key = (_QBASE + 2 * qid + 1, f, g)
        r = self._cache.get(key)
        if r is not None:
            self._hits += 1
            return r
        if self.deadline is not None:
            self._check_limits()
        if lf == top:
            f0 = self._lo[f]
            f1 = self._hi[f]
        else:
            f0 = f1 = f
        if lg == top:
            g0 = self._lo[g]
            g1 = self._hi[g]
        else:
            g0 = g1 = g
        # as in `_and_exists`; below the deepest quantified level the
        # recursion goes on as an AND that builds f & g' directly
        if top in self._qset_levels[qid]:
            r = self._and_exists_primed(f0, g0, qid) if f0 and g0 else FALSE
            if r != TRUE:
                r1 = (self._and_exists_primed(f1, g1, qid) if f1 and g1
                      else FALSE)
                if r == FALSE or r1 == TRUE:
                    r = r1
                elif r1 != FALSE and r1 != r:
                    r = self._or(r, r1)
        else:
            r0 = self._and_exists_primed(f0, g0, qid) if f0 and g0 else FALSE
            r1 = self._and_exists_primed(f1, g1, qid) if f1 and g1 else FALSE
            if r0 == r1:
                r = r0
            else:
                r = self._unique.get((top, r0, r1))
                if r is None:
                    r = self._mk(top, r0, r1)
        self._cache[key] = r
        return r

    def _or_forall(self, f: int, g: int, qid: int) -> int:
        # `_and_exists` with FALSE and TRUE, AND and OR swapped
        if f > g:
            f, g = g, f
        if f == TRUE:
            return TRUE
        level = self._level
        lf = level[f]
        lg = level[g]
        top = lf if lf < lg else lg
        if top > self._qset_bottom[qid]:
            return g if f == FALSE else self._or(f, g)
        key = (-1 - qid, f, g)
        r = self._cache.get(key)
        if r is not None:
            self._hits += 1
            return r
        if self.deadline is not None:
            self._check_limits()
        if lf == top:
            f0 = self._lo[f]
            f1 = self._hi[f]
        else:
            f0 = f1 = f
        if lg == top:
            g0 = self._lo[g]
            g1 = self._hi[g]
        else:
            g0 = g1 = g
        if top in self._qset_levels[qid]:
            r = (TRUE if f0 == TRUE or g0 == TRUE
                 else self._or_forall(f0, g0, qid))
            if r != FALSE:
                r1 = (TRUE if f1 == TRUE or g1 == TRUE
                      else self._or_forall(f1, g1, qid))
                if r == TRUE or r1 == FALSE:
                    r = r1
                elif r1 != TRUE and r1 != r:
                    r = self._and(r, r1)
        else:
            r0 = (TRUE if f0 == TRUE or g0 == TRUE
                  else self._or_forall(f0, g0, qid))
            r1 = (TRUE if f1 == TRUE or g1 == TRUE
                  else self._or_forall(f1, g1, qid))
            if r0 == r1:
                r = r0
            else:
                r = self._unique.get((top, r0, r1))
                if r is None:
                    r = self._mk(top, r0, r1)
        self._cache[key] = r
        return r

    # ------------------------------------------------------------------
    # renaming between the unprimed and primed register

    def rename(self, f: BddRef, direction: str) -> BddRef:
        """Substitute every variable with its primed/unprimed counterpart."""
        self._check_same(f)
        self._bound_cache()
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
            self._hits += 1
            return r
        lvl = self._level[f]
        if lvl % 2 != (delta < 0):
            what = "prime" if delta > 0 else "unprime"
            raise BddError(f"{what}: variable {self.var_names[lvl]!r} is "
                           "in the wrong register")
        if self.deadline is not None:
            self._check_limits()
        top = lvl + delta
        c = self._lo[f]
        r0 = c if c <= TRUE else self._shift(c, op, delta)
        c = self._hi[f]
        r1 = c if c <= TRUE else self._shift(c, op, delta)
        # shifting is injective, so r0 != r1
        r = self._unique.get((top, r0, r1))
        if r is None:
            r = self._mk(top, r0, r1)
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
        """Cofactor: fix some variables to constants.  This is the
        relational product of f with the assignment's cube, quantifying
        the assigned variables (Bryant 1986)."""
        self._check_same(f)
        self._bound_cache()
        cube = self.cube(assignment)
        return BddRef(self, self._and_exists(f.node, cube.node,
                                             self._names_qid(assignment)))

    def cube(self, assignment: dict[str, bool]) -> BddRef:
        """The conjunction of the assignment's literals."""
        fixed = sorted(((self._level_of(n), v)
                        for n, v in assignment.items()), reverse=True)
        cube = TRUE
        for lvl, v in fixed:
            cube = self._mk(lvl, *((FALSE, cube) if v else (cube, FALSE)))
        return BddRef(self, cube)

    def _splitter(self, names: list[str]):
        """split(n, i) = (n with names[i] false, n with names[i] true).

        The enumerations below walk `names` in the order given and
        cofactor on each name's level wherever it sits, so their results
        do not depend on the level order.  Below the top of n, a cofactor
        is the relational product with the name's literal."""
        levels = list(map(self._level_of, names))
        qids = [self._qset_id(frozenset((lvl,))) for lvl in levels]
        level, lo, hi = self._level, self._lo, self._hi

        def split(n: int, i: int) -> tuple[int, int]:
            lvl = levels[i]
            top = level[n]
            if top > lvl:  # n does not depend on the name
                return n, n
            if top == lvl:
                return lo[n], hi[n]
            return (self._and_exists(n, self._mk(lvl, TRUE, FALSE), qids[i]),
                    self._and_exists(n, self._mk(lvl, FALSE, TRUE), qids[i]))

        return split

    # The recursions over `names` below are methods, not nested functions:
    # a nested function that calls itself holds itself through its cell,
    # so it and its memo would wait for the cyclic garbage collector, and
    # `collect` would count the nodes they reach as live until then.

    # ------------------------------------------------------------------
    # model counting and model enumeration

    def _enumerated(self, f: BddRef, names) -> list[str]:
        """`names` as a list, checked for an enumeration of f over them:
        f is this manager's, no name is given twice (it would count or
        split one variable twice) and f's support lies within them."""
        self._check_same(f)
        names = list(names)
        if len(set(names)) < len(names):
            twice = next(n for i, n in enumerate(names) if n in names[:i])
            raise BddError(f"name {twice!r} is repeated")
        extra = self._support_levels(f.node) - self._levels_for(names)
        if extra:
            raise BddError("support escapes the enumerated variables: "
                           f"{[self.var_names[v] for v in sorted(extra)]}")
        return names

    def count_models(self, f: BddRef, names) -> int:
        """Exact number of assignments to `names` satisfying f."""
        levels = sorted(self._levels_for(self._enumerated(f, names)))
        pos = {lvl: i for i, lvl in enumerate(levels)}
        return self._count(f.node, 0, pos, len(levels), {})

    def _count(self, n: int, i: int, pos: dict[int, int], total: int,
               memo: dict[tuple[int, int], int]) -> int:
        # assignments to the counting levels from position i on satisfying n
        if n == FALSE:
            return 0
        if i == total:
            return 1
        key = (n, i)
        r = memo.get(key)
        if r is not None:
            return r
        if n == TRUE or pos[self._level[n]] > i:
            r = 2 * self._count(n, i + 1, pos, total, memo)
        else:
            r = (self._count(self._lo[n], i + 1, pos, total, memo)
                 + self._count(self._hi[n], i + 1, pos, total, memo))
        memo[key] = r
        return r

    def pick_min_model(self, f: BddRef, names) -> dict[str, bool]:
        """Lexicographically smallest satisfying assignment of `names`
        (in the order given, false < true).  f must be satisfiable and
        its support contained in `names`."""
        names = self._enumerated(f, names)
        if f.node == FALSE:
            raise BddError("pick_min_model of FALSE")
        return next(self._models(f.node, 0, names, self._splitter(names),
                                 {}))

    def iter_models(self, f: BddRef, names):
        """All satisfying assignments over `names`, in lexicographic
        order over `names` as given."""
        names = self._enumerated(f, names)
        yield from self._models(f.node, 0, names, self._splitter(names), {})

    def _models(self, n: int, i: int, names: list[str], split, acc: dict):
        if n == FALSE:
            return
        if i == len(names):
            yield dict(acc)
            return
        lo, hi = split(n, i)
        acc[names[i]] = False
        yield from self._models(lo, i + 1, names, split, acc)
        acc[names[i]] = True
        yield from self._models(hi, i + 1, names, split, acc)
        del acc[names[i]]

    def to_truthtable(self, f: BddRef, names) -> int:
        """Truth table of f over `names` as a big integer.

        Index convention: the first name is the most significant index
        bit, so bit i of the result is f at the assignment where
        names[j] = bit (len(names)-1-j) of i.
        """
        names = self._enumerated(f, names)
        return self._table(f.node, 0, self._splitter(names), len(names), {})

    def _table(self, n: int, i: int, split, total: int,
               memo: dict[tuple[int, int], int]) -> int:
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
        lo = self._table(n0, i + 1, split, total, memo)
        hi = lo if n1 == n0 else self._table(n1, i + 1, split, total, memo)
        r = lo | (hi << width)
        memo[key] = r
        return r

    # ------------------------------------------------------------------
    # prime implicant enumeration (meta-product)

    def prime_cubes(self, f: BddRef, names):
        """Lazily enumerate the prime implicants of f over `names`,
        largest cubes (fewest literals) first.

        The primes are represented implicitly as a meta-product BDD over
        occurrence/sign variable pairs and walked in order of increasing
        literal count.  FALSE yields nothing; TRUE yields the empty cube.
        """
        names = self._enumerated(f, names)
        if f.node == FALSE:
            return
        walk = _PrimeWalk(self, names)
        root = walk.primes(f.node, 0)
        for k in range(len(names) + 1):
            yield from walk.cubes(root, 0, k, [])

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


class _PrimeWalk:
    """State of one `prime_cubes` enumeration, with its recursions as
    methods (see the note above `count_models`).

    names[i] gets occurrence level 2i and sign level 2i+1 in the meta
    manager, which only builds nodes on those levels and declares no
    names."""

    def __init__(self, mgr: BddManager, names: list[str]):
        self.mgr = mgr
        self.names = names
        self.total = len(names)
        self.split = mgr._splitter(names)
        self.meta = BddManager()
        self.memo: dict[tuple[int, int], int] = {}
        self.mincost: dict[tuple[int, int], int] = {}

    def primes(self, n: int, i: int) -> int:
        """Meta-product of the primes of n over names[i:]."""
        if n == FALSE:
            return FALSE
        if i == self.total:
            return TRUE
        key = (n, i)
        r = self.memo.get(key)
        if r is not None:
            return r
        meta = self.meta
        olvl = 2 * i
        f0, f1 = self.split(n, i)
        if f0 == f1:
            r = meta._mk(olvl, self.primes(f0, i + 1), FALSE)
        else:
            pboth = self.primes(self.mgr._and(f0, f1), i + 1)
            rest = meta._not(pboth)
            p1 = meta._and(self.primes(f1, i + 1), rest)
            p0 = meta._and(self.primes(f0, i + 1), rest)
            r = meta._mk(olvl, pboth, meta._mk(olvl + 1, p0, p1))
        self.memo[key] = r
        return r

    def _branches(self, n: int, i: int) -> tuple[int, int, int]:
        """(absent, sign false, sign true): the meta node n at position i
        with names[i] left out of the cube or present with either sign;
        a skipped level is a don't-care."""
        meta = self.meta
        olvl = 2 * i
        if n > TRUE and meta._level[n] == olvl:
            absent, present = meta._lo[n], meta._hi[n]
        else:
            absent = present = n
        if present > TRUE and meta._level[present] == olvl + 1:
            return absent, meta._lo[present], meta._hi[present]
        return absent, present, present

    def cost(self, n: int, i: int) -> int:
        """Minimal number of occurrence literals below n."""
        if n == FALSE:
            return 1 << 30
        if i == self.total:
            return 0
        key = (n, i)
        r = self.mincost.get(key)
        if r is not None:
            return r
        absent, s0, s1 = self._branches(n, i)
        best = self.cost(absent, i + 1)
        if s0 != FALSE or s1 != FALSE:
            best = min(best, 1 + min(self.cost(s0, i + 1),
                                     self.cost(s1, i + 1)))
        self.mincost[key] = best
        return best

    def cubes(self, n: int, i: int, budget: int, acc: list):
        """The cubes below n with exactly `budget` more literals."""
        if n == FALSE or budget < 0:
            return
        if i == self.total:
            if budget == 0:
                yield Cube(tuple(acc))
            return
        if self.cost(n, i) > budget:
            return
        absent, s0, s1 = self._branches(n, i)
        # variable absent from the cube
        yield from self.cubes(absent, i + 1, budget, acc)
        # variable present with a sign
        if budget >= 1:
            name = self.names[i]
            acc.append((name, False))
            yield from self.cubes(s0, i + 1, budget - 1, acc)
            acc.pop()
            acc.append((name, True))
            yield from self.cubes(s1, i + 1, budget - 1, acc)
            acc.pop()
