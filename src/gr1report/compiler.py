"""Shape validation and compilation to a pure-boolean specification.

Integer variables are bit-blasted: a variable with bounds [lo, hi] owns
exactly ceil(log2(hi-lo+1)) propositions holding the unsigned encoding
of (value - lo).  Arithmetic is evaluated over the naturals with a
statically computed width sufficient to never wrap, so `a + b + i < 7 + i`
compiles to the same predicate for every i.  Subtraction is rejected
unless interval analysis proves the result can never go below zero.

For every integer whose range is not an exact power of two, a range
constraint over the next-state bits (plus an initial-state constraint)
is injected: as assumption for inputs, as guarantee for outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .syntax import (
    Atom, BoolConst, Expr, IntConst, Next, Not, Op, SpecDocument, SpecPart,
    PART_KINDS, format_expr, walk,
)


class CompileError(Exception):
    pass


@dataclass(frozen=True)
class Violation:
    kind: str      # part kind, e.g. "env_trans"
    index: int     # part index within its kind
    rule: str      # short rule name
    message: str
    line: int = 0  # source line of the part (0 when unknown)

    def __str__(self) -> str:
        where = f"line {self.line}: " if self.line else ""
        return f"{where}{self.kind}[{self.index}]: {self.rule}: {self.message}"


# ----------------------------------------------------------------------
# boolean IR: hashable nested tuples over propositions, six tags only
#   ('var', name, primed) ('const', b) ('not', f) ('and'|'or'|'xor', f, g)
# (ir_iff and ir_imp rewrite to these)

IR = tuple
IR_TRUE: IR = ("const", True)
IR_FALSE: IR = ("const", False)


def ir_var(name: str, primed: bool = False) -> IR:
    return ("var", name, primed)


def ir_not(f: IR) -> IR:
    if f[0] == "const":
        return ("const", not f[1])
    if f[0] == "not":
        return f[1]
    return ("not", f)


def ir_and(f: IR, g: IR) -> IR:
    if f == IR_FALSE or g == IR_FALSE:
        return IR_FALSE
    if f == IR_TRUE:
        return g
    if g == IR_TRUE or f == g:
        return f
    return ("and", f, g)


def ir_or(f: IR, g: IR) -> IR:
    if f == IR_TRUE or g == IR_TRUE:
        return IR_TRUE
    if f == IR_FALSE:
        return g
    if g == IR_FALSE or f == g:
        return f
    return ("or", f, g)


def ir_xor(f: IR, g: IR) -> IR:
    if f == g:
        return IR_FALSE
    if f == IR_FALSE:
        return g
    if g == IR_FALSE:
        return f
    if f == IR_TRUE:
        return ir_not(g)
    if g == IR_TRUE:
        return ir_not(f)
    return ("xor", f, g)


def ir_iff(f: IR, g: IR) -> IR:
    return ir_not(ir_xor(f, g))


def ir_imp(f: IR, g: IR) -> IR:
    return ir_or(ir_not(f), g)


def balanced(op, unit, items):
    """`op` over `items` (`unit` when empty), combining neighbours in
    pairs until one is left.  A left fold over k operands nests k deep
    and, over BDDs, builds every prefix, so a relation of linear size
    costs quadratic node allocation; the pairwise tree nests about
    log2(k) deep and its intermediate results combine neighbouring runs
    of operands.  BDDs are canonical, so over them the result is the
    fold's."""
    items = list(items)
    while len(items) > 1:
        paired = [op(a, b) for a, b in zip(items[::2], items[1::2])]
        items = paired + items[len(paired) * 2:]
    return items[0] if items else unit


def ir_conj(fs) -> IR:
    return balanced(ir_and, IR_TRUE, fs)


def ir_support(f: IR) -> set[tuple[str, bool]]:
    out: set[tuple[str, bool]] = set()
    stack = [f]
    while stack:
        e = stack.pop()
        tag = e[0]
        if tag == "var":
            out.add((e[1], e[2]))
        elif tag == "not":
            stack.append(e[1])
        elif tag != "const":
            stack.append(e[1])
            stack.append(e[2])
    return out


# ----------------------------------------------------------------------
# compiled specification

@dataclass(frozen=True)
class IntGroup:
    bits: tuple[str, ...]  # proposition names, LSB first
    lo: int
    hi: int
    kind: str              # input | output


@dataclass(frozen=True)
class BoolPart:
    ir: IR
    text: str
    kind: str
    index: int
    synthetic: bool = False  # injected range constraint


@dataclass
class BooleanSpec:
    """Bit-blasted specification over boolean propositions."""

    input_props: list[str]
    output_props: list[str]
    props: list[str]                      # declaration order, bits expanded
    groups: dict[str, IntGroup]           # integer name -> bit group
    bool_vars: dict[str, str]             # boolean var name -> kind
    # integer name -> the integers compared with it, transitively, in
    # declaration order (itself included); an integer absent here is
    # compared with no other
    linked: dict[str, tuple[str, ...]] = field(default_factory=dict)
    parts: dict[str, list[BoolPart]] = field(
        default_factory=lambda: {k: [] for k in PART_KINDS})
    source: SpecDocument | None = None   # compiled from; `user_vars` reads it

    def decode(self, assignment: dict[str, bool],
               kind: str | None = None) -> dict[str, object]:
        """Map a proposition valuation to user-level variable values; with
        `kind` ("input" or "output"), to that side's only.  An integer
        of one value has no bits, so only `kind` keeps it off the other
        side."""
        out: dict[str, object] = {}
        for name, k in self.bool_vars.items():
            if name in assignment and kind in (None, k):
                out[name] = assignment[name]
        for name, g in self.groups.items():
            if kind in (None, g.kind) and all(b in assignment
                                              for b in g.bits):
                v = g.lo
                for i, b in enumerate(g.bits):
                    if assignment[b]:
                        v += 1 << i
                out[name] = v
        return out

    def user_vars(self, kind: str | None = None) -> list[str]:
        """The declared variables in declaration order, an integer of one
        value (no bits) included; with `kind`, that side's only."""
        return [v.name for v in self.source.variables
                if kind in (None, v.kind)]


# ----------------------------------------------------------------------
# validation

def _expr_type(e: Expr, doc: SpecDocument) -> str:
    if isinstance(e, IntConst) or isinstance(e, Op) and e.op in ("+", "-"):
        return "int"
    if isinstance(e, Atom):
        v = doc.var(e.name)
        return "int" if v is not None and v.is_int else "bool"
    if isinstance(e, Next):
        return _expr_type(e.sub, doc)
    return "bool"


def _type_violations(part: SpecPart, doc: SpecDocument) -> dict[str, str]:
    """Message per broken typing rule, naming the first offending term."""
    out: dict[str, str] = {}
    _type_visit(part.formula, False, doc, out)
    return out


# The recursions below are module functions, not nested ones: a nested
# function that calls itself holds itself through its cell, so it and
# the AST nodes it reaches would wait for the cyclic garbage collector.

def _type_visit(e: Expr, under_compare: bool, doc: SpecDocument,
                out: dict[str, str]) -> None:
    t = _expr_type(e, doc)
    if t == "int" and not under_compare:
        out.setdefault("arithmetic outside comparison",
                       f"integer-valued term in boolean position: {format_expr(e)}")
        return
    if isinstance(e, (Not, Next)):
        _type_visit(e.sub, under_compare and isinstance(e, Next)
                    and _expr_type(e.sub, doc) == "int", doc, out)
        return
    if not isinstance(e, Op):
        return
    if e.op in _COMPARE:
        rule, what = "comparison on boolean", "comparison operand is not integer-valued"
    elif e.op in ("+", "-"):
        rule, what = "boolean in arithmetic", "arithmetic over a boolean operand"
    else:
        for arg in e.args:
            _type_visit(arg, False, doc, out)
        return
    for side in e.args:
        if _expr_type(side, doc) != "int":
            out.setdefault(rule, f"{what}: {format_expr(e)}")
        _type_visit(side, True, doc, out)


def validate_gr1_shape(doc: SpecDocument) -> list[Violation]:
    """Check every grammar restriction; violations are data, not errors,
    at most one per rule and part, in source line order (parts without
    a line keep their kind order)."""
    out: list[Violation] = []
    outputs = {v.name for v in doc.outputs()}
    for part in sorted(doc.all_parts(), key=lambda p: p.line):
        found: dict[str, str] = {}  # rule -> message
        # per X, and per occurrence of an output: whether an X encloses it
        nexts = [under for e, under in walk(part.formula)
                 if isinstance(e, Next)]
        used = {(e.name, under) for e, under in walk(part.formula)
                if isinstance(e, Atom) and e.name in outputs}
        if any(nexts):
            found["nested next"] = f"X occurs inside X: {part.text}"
        if part.kind in ("env_init", "sys_init") and nexts:
            found["next in initial part"] = f"X is not allowed in initial parts: {part.text}"
        if part.kind == "env_init" and used:
            found["output in initial assumption"] = (
                f"outputs {sorted({name for name, _ in used})} in: {part.text}")
        if part.kind == "env_trans" and any(under for _, under in used):
            found["output under next in assumption"] = (
                f"an output proposition is in the scope of X: {part.text}")
        found.update(_type_violations(part, doc))
        out.extend(Violation(part.kind, part.index, rule, message, part.line)
                   for rule, message in found.items())
    return out


# ----------------------------------------------------------------------
# bit-blasting

@dataclass
class _BitVec:
    bits: list[IR]  # LSB first
    lo: int
    hi: int


def _width_for(n: int) -> int:
    return max(n.bit_length(), 1)


def _bv_const(c: int) -> _BitVec:
    return _BitVec([("const", bool((c >> i) & 1)) for i in range(_width_for(c))],
                   c, c)


def _bv_zext(v: _BitVec, width: int) -> list[IR]:
    return v.bits + [IR_FALSE] * (width - len(v.bits))


def _bv_add(a: _BitVec, b: _BitVec) -> _BitVec:
    lo, hi = a.lo + b.lo, a.hi + b.hi
    width = _width_for(hi)
    xs, ys = _bv_zext(a, width), _bv_zext(b, width)
    out, carry = [], IR_FALSE
    for x, y in zip(xs, ys):
        out.append(ir_xor(ir_xor(x, y), carry))
        carry = ir_or(ir_and(x, y), ir_and(carry, ir_xor(x, y)))
    return _BitVec(out, lo, hi)


def _bv_sub(a: _BitVec, b: _BitVec, text: str) -> _BitVec:
    lo, hi = a.lo - b.hi, a.hi - b.lo
    if lo < 0:
        raise CompileError(
            f"subtraction may go below zero in: {text} "
            f"(worst case {a.lo} - {b.hi})")
    width = _width_for(a.hi)
    xs, ys = _bv_zext(a, width), _bv_zext(b, width)
    out, borrow = [], IR_FALSE
    for x, y in zip(xs, ys):
        out.append(ir_xor(ir_xor(x, y), borrow))
        borrow = ir_or(ir_and(ir_not(x), y), ir_and(borrow, ir_not(ir_xor(x, y))))
    return _BitVec(out, lo, hi)


def _bv_eq(a: _BitVec, b: _BitVec) -> IR:
    width = max(len(a.bits), len(b.bits), 1)
    xs, ys = _bv_zext(a, width), _bv_zext(b, width)
    return ir_conj(ir_iff(x, y) for x, y in zip(xs, ys))


def _bv_lt(a: _BitVec, b: _BitVec) -> IR:
    width = max(len(a.bits), len(b.bits), 1)
    xs, ys = _bv_zext(a, width), _bv_zext(b, width)
    lt = IR_FALSE
    for x, y in zip(xs, ys):  # LSB to MSB
        lt = ir_or(ir_and(ir_not(x), y), ir_and(ir_iff(x, y), lt))
    return lt


# comparison operator -> predicate over two bit-vectors
_COMPARE = {
    "=": _bv_eq,
    "!=": lambda a, b: ir_not(_bv_eq(a, b)),
    "<": _bv_lt,
    ">": lambda a, b: _bv_lt(b, a),
    "<=": lambda a, b: ir_not(_bv_lt(b, a)),
    ">=": lambda a, b: ir_not(_bv_lt(a, b)),
}

# boolean connective -> its IR over the compiled operands; `&` and `|`
# chains become balanced trees, so they nest about log2(k) deep
_CONNECTIVE = {
    "&": ir_conj,
    "|": lambda fs: balanced(ir_or, IR_FALSE, fs),
    "->": lambda fs: ir_imp(*fs),
    "<->": lambda fs: ir_iff(*fs),
}


class _Compiler:
    def __init__(self, doc: SpecDocument):
        self.doc = doc
        self.groups: dict[str, IntGroup] = {}
        self.bool_vars: dict[str, str] = {}
        self.input_props: list[str] = []
        self.output_props: list[str] = []
        self.props: list[str] = []
        self.linked: dict[str, tuple[str, ...]] = {}
        for v in doc.variables:
            target = self.input_props if v.kind == "input" else self.output_props
            if v.is_int:
                nbits = math.ceil(math.log2(v.hi - v.lo + 1)) if v.hi > v.lo else 0
                bits = tuple(f"{v.name}@{i}" for i in range(nbits))
                self.groups[v.name] = IntGroup(bits, v.lo, v.hi, v.kind)
                target.extend(bits)
                self.props.extend(bits)
            else:
                self.bool_vars[v.name] = v.kind
                target.append(v.name)
                self.props.append(v.name)

    def int_vec(self, e: Expr, primed: bool, text: str) -> _BitVec:
        if isinstance(e, IntConst):
            return _bv_const(e.value)
        if isinstance(e, Next):
            return self.int_vec(e.sub, True, text)
        if isinstance(e, Atom):
            g = self.groups[e.name]
            vec = _BitVec([ir_var(b, primed) for b in g.bits], 0, g.hi - g.lo)
            if g.lo:
                vec = _bv_add(vec, _bv_const(g.lo))
            return vec
        if isinstance(e, Op) and e.op in ("+", "-"):
            a, b = (self.int_vec(x, primed, text) for x in e.args)
            return _bv_add(a, b) if e.op == "+" else _bv_sub(a, b, text)
        raise CompileError(f"not an integer expression in: {text}")

    def compile(self, e: Expr, primed: bool, text: str) -> IR:
        if isinstance(e, BoolConst):
            return ("const", e.value)
        if isinstance(e, Atom):
            return ir_var(e.name, primed)
        if isinstance(e, Not):
            return ir_not(self.compile(e.sub, primed, text))
        if isinstance(e, Next):
            return self.compile(e.sub, True, text)
        if isinstance(e, Op) and e.op in _CONNECTIVE:
            return _CONNECTIVE[e.op](
                [self.compile(x, primed, text) for x in e.args])
        if isinstance(e, Op) and e.op in _COMPARE:
            self.link({x.name for x, _ in walk(e) if isinstance(x, Atom)})
            return _COMPARE[e.op](*(self.int_vec(x, primed, text)
                                    for x in e.args))
        raise CompileError(f"cannot compile expression in: {text}")

    def link(self, names: set[str]) -> None:
        """Join the classes of integers that one comparison compares."""
        for name in list(names):
            names.update(self.linked.get(name, ()))
        if len(names) > 1:
            members = tuple(n for n in self.groups if n in names)
            for name in members:
                self.linked[name] = members

    def range_ir(self, g: IntGroup, primed: bool) -> IR:
        enc = _BitVec([ir_var(b, primed) for b in g.bits], 0, (1 << len(g.bits)) - 1)
        return ir_not(_bv_lt(_bv_const(g.hi - g.lo), enc))


def compile_to_boolean(doc: SpecDocument) -> BooleanSpec:
    """Bit-blast a validated document.  Precondition: no shape violations."""
    violations = validate_gr1_shape(doc)
    if violations:
        raise CompileError(
            "document violates the specification grammar:\n  "
            + "\n  ".join(str(v) for v in violations))
    c = _Compiler(doc)
    spec = BooleanSpec(
        input_props=c.input_props, output_props=c.output_props,
        props=c.props, groups=c.groups, bool_vars=c.bool_vars,
        linked=c.linked, source=doc)
    for kind in PART_KINDS:
        for part in doc.parts[kind]:
            spec.parts[kind].append(BoolPart(
                ir=c.compile(part.formula, False, part.text),
                text=part.text, kind=kind, index=part.index))
    # range constraints for integers whose range is not a power of two
    for name, g in c.groups.items():
        span = g.hi - g.lo + 1
        if span == (1 << len(g.bits)):
            continue
        init_kind = "env_init" if g.kind == "input" else "sys_init"
        safe_kind = "env_trans" if g.kind == "input" else "sys_trans"
        text = f"{name} in {g.lo}...{g.hi} (range)"
        spec.parts[init_kind].append(BoolPart(
            ir=c.range_ir(g, False), text=text, kind=init_kind,
            index=len(spec.parts[init_kind]), synthetic=True))
        spec.parts[safe_kind].append(BoolPart(
            ir=c.range_ir(g, True), text=text, kind=safe_kind,
            index=len(spec.parts[safe_kind]), synthetic=True))
    return spec
