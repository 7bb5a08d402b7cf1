"""Specification text format: lexer, parser, AST, pretty printer.

Sections declare variables and the six property lists:

    [INPUT] / [OUTPUT]        name   |   name: lo...hi
    [ENV_INIT] [ENV_TRANS] [ENV_LIVENESS]
    [SYS_INIT] [SYS_TRANS] [SYS_LIVENESS]

One expression per line; a line ends at LF, CR LF or CR, and `#`
starts a comment that runs to its end.  TRANS lines are
implicitly under G, LIVENESS lines implicitly under GF.  Operators by
decreasing precedence: `!`, `+ -`, comparisons, `&`, `|`, `->`
(right-associative), `<->`.  A chain of `&` or of `|` parses to one
node of any width; only nesting makes an expression deeper.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class SpecError(Exception):
    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}" + (
                f", column {col}" if col is not None else "") + f": {message}"
        super().__init__(message)


# ----------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Atom(Expr):
    name: str


@dataclass(frozen=True)
class BoolConst(Expr):
    value: bool


@dataclass(frozen=True)
class IntConst(Expr):
    value: int


@dataclass(frozen=True)
class Not(Expr):
    sub: Expr


@dataclass(frozen=True)
class Next(Expr):
    sub: Expr


@dataclass(frozen=True)
class Op(Expr):
    """An operator over its operands: `&` and `|` over a whole chain of
    two or more, every other operator (`->`, `<->`, `+`, `-` and the
    comparisons) over exactly two."""
    op: str
    args: tuple[Expr, ...]


COMPARISONS = ("<", "<=", "=", ">=", ">", "!=")


@dataclass(frozen=True)
class VarDecl:
    name: str
    kind: str  # "input" | "output"
    lo: int | None = None
    hi: int | None = None

    @property
    def is_int(self) -> bool:
        return self.lo is not None


PART_KINDS = ("env_init", "env_trans", "env_liveness",
              "sys_init", "sys_trans", "sys_liveness")

_SECTION_OF = {
    "INPUT": "input", "OUTPUT": "output",
    "ENV_INIT": "env_init", "ENV_TRANS": "env_trans",
    "ENV_LIVENESS": "env_liveness",
    "SYS_INIT": "sys_init", "SYS_TRANS": "sys_trans",
    "SYS_LIVENESS": "sys_liveness",
}


@dataclass(frozen=True)
class SpecPart:
    formula: Expr
    text: str          # verbatim source line, for reports
    kind: str          # one of PART_KINDS
    index: int         # stable index within its kind
    line: int = 0


@dataclass
class SpecDocument:
    variables: list[VarDecl] = field(default_factory=list)
    parts: dict[str, list[SpecPart]] = field(
        default_factory=lambda: {k: [] for k in PART_KINDS})

    def __post_init__(self):
        # name -> declaration, kept in step with `variables` by `declare`
        # (names are unique: the parser rejects a duplicate)
        self._decls = {v.name: v for v in self.variables}

    def declare(self, decl: VarDecl):
        self.variables.append(decl)
        self._decls[decl.name] = decl

    def var(self, name: str) -> VarDecl | None:
        return self._decls.get(name)

    def inputs(self) -> list[VarDecl]:
        return [v for v in self.variables if v.kind == "input"]

    def outputs(self) -> list[VarDecl]:
        return [v for v in self.variables if v.kind == "output"]

    def all_parts(self):
        for kind in PART_KINDS:
            yield from self.parts[kind]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpecDocument):
            return NotImplemented
        if self.variables != other.variables:
            return False
        for k in PART_KINDS:
            a = [(p.formula, p.kind, p.index) for p in self.parts[k]]
            b = [(p.formula, p.kind, p.index) for p in other.parts[k]]
            if a != b:
                return False
        return True


# ----------------------------------------------------------------------
# lexer

# blanks and a comment are skipped (they match no group); names,
# integers and operators are the three token kinds, and the longer
# operators are tried first.  `\w` also holds the digits that are no
# decimal digits, such as `²`: `_tokenize` lets no name start with one.
_TOKEN = re.compile(r"""
    [ \t]+ | \#.*
  | (?P<name>(?!\d)\w+)
  | (?P<int>\d+)
  | (?P<punct><->|\.\.\.|->|<=|>=|!=|[()!&|<>=+\-:])
""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str, line_no: int):
    """Tokens: (kind, value, col).  Kinds: name int punct.  A name starts
    with a letter or `_`, an integer is a run of decimal digits."""
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.lastgroup == "name" and not (
                m[0][0].isalpha() or m[0][0] == "_"):
            raise SpecError(f"unexpected character {text[pos]!r}",
                            line_no, pos + 1)
        if m.lastgroup:
            out.append((m.lastgroup, m[0], pos + 1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, line_no: int):
        self.toks = tokens
        self.pos = 0
        self.line = line_no

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        if t is None:
            raise SpecError("unexpected end of expression", self.line)
        self.pos += 1
        return t

    def expect(self, value: str):
        t = self.take()
        if t[1] != value:
            raise SpecError(f"expected {value!r}, found {t[1]!r}",
                            self.line, t[2])
        return t

    def done(self):
        t = self.peek()
        if t is not None:
            raise SpecError(f"trailing input {t[1]!r}", self.line, t[2])

    def at(self, *values: str) -> bool:
        t = self.peek()
        return t is not None and t[1] in values

    # precedence chain: iff < implies < or < and < compare < sum < unary
    def parse(self) -> Expr:
        e = self.iff()
        self.done()
        return e

    def iff(self) -> Expr:
        e = self.implies()
        while self.at("<->"):
            self.take()
            e = Op("<->", (e, self.implies()))
        return e

    def implies(self) -> Expr:
        e = self.or_()
        if self.at("->"):
            self.take()
            return Op("->", (e, self.implies()))
        return e

    def chain(self, op: str, operand) -> Expr:
        """One node for a whole `op` chain, so its width costs no depth."""
        args = [operand()]
        while self.at(op):
            self.take()
            args.append(operand())
        return args[0] if len(args) == 1 else Op(op, tuple(args))

    def or_(self) -> Expr:
        return self.chain("|", self.and_)

    def and_(self) -> Expr:
        return self.chain("&", self.compare)

    def compare(self) -> Expr:
        e = self.sum_()
        if self.at(*COMPARISONS):
            return Op(self.take()[1], (e, self.sum_()))
        return e

    def sum_(self) -> Expr:
        e = self.unary()
        while self.at("+", "-"):
            e = Op(self.take()[1], (e, self.unary()))
        return e

    def unary(self) -> Expr:
        if self.at("!"):
            self.take()
            return Not(self.unary())
        return self.primary()

    def primary(self) -> Expr:
        t = self.take()
        kind, val, col = t
        if val == "(":
            e = self.iff()
            self.expect(")")
            return e
        if kind == "int":
            return IntConst(int(val))
        if kind == "name":
            if val == "X":
                self.expect("(")
                e = self.iff()
                self.expect(")")
                return Next(e)
            if val in ("TRUE", "true"):
                return BoolConst(True)
            if val in ("FALSE", "false"):
                return BoolConst(False)
            return Atom(val)
        raise SpecError(f"unexpected token {val!r}", self.line, col)


def parse_expr(text: str, line_no: int = 0) -> Expr:
    return _Parser(_tokenize(text, line_no), line_no).parse()


# ----------------------------------------------------------------------
# document parsing

def parse_spec(text: str) -> SpecDocument:
    """Parse a specification file into a SpecDocument.

    Raises SpecError with line/column on syntax errors, duplicate
    variables, unknown section headers, references to undeclared
    variables, or expressions nested past the interpreter's recursion
    limit.
    """
    doc = SpecDocument()
    section: str | None = None
    counters = {k: 0 for k in PART_KINDS}
    pending: list[tuple[str, str, int]] = []  # (section, line text, line no)

    for line_no, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            end = line.find("]")
            if end < 0:
                raise SpecError("malformed section header", line_no, 1)
            header = line[1:end].strip()
            if header not in _SECTION_OF:
                raise SpecError(f"unknown section header [{header}]", line_no, 1)
            section = _SECTION_OF[header]
            line = line[end + 1:].strip()  # content may follow the header
            if not line:
                continue
        if section is None:
            raise SpecError("expression before any section header", line_no, 1)
        if section in ("input", "output"):
            doc.declare(_parse_decl(line, line_no, section, doc))
        else:
            pending.append((section, line, line_no))

    for kind, line, line_no in pending:
        try:
            formula = parse_expr(line, line_no)
        except RecursionError:
            raise SpecError("expression nested too deeply", line_no) from None
        _check_declared(formula, doc, line, line_no)
        doc.parts[kind].append(SpecPart(
            formula=formula, text=line, kind=kind,
            index=counters[kind], line=line_no))
        counters[kind] += 1
    return doc


def _parse_decl(line: str, line_no: int, kind: str,
                doc: SpecDocument) -> VarDecl:
    toks = _tokenize(line, line_no)
    if not toks or toks[0][0] != "name":
        raise SpecError("expected a variable name", line_no, 1)
    name = toks[0][1]
    if (doc.var(name) is not None
            or name in ("X", "TRUE", "FALSE", "true", "false")):
        raise SpecError(f"duplicate or reserved variable {name!r}", line_no, 1)
    if len(toks) == 1:
        return VarDecl(name, kind)
    # name: lo...hi
    if (len(toks) != 5 or toks[1][1] != ":" or toks[2][0] != "int"
            or toks[3][1] != "..." or toks[4][0] != "int"):
        raise SpecError("expected `name` or `name: lo...hi`", line_no, 1)
    lo, hi = int(toks[2][1]), int(toks[4][1])
    if hi < lo:
        raise SpecError(f"integer bounds {lo}...{hi} are reversed", line_no, 1)
    return VarDecl(name, kind, lo, hi)


def _check_declared(e: Expr, doc: SpecDocument, text: str, line_no: int):
    """Raise SpecError at the first undeclared name of `e`, parsed from
    `text`, with the column of its first token in `text`."""
    for node, _ in walk(e):
        if isinstance(node, Atom) and doc.var(node.name) is None:
            col = next(c for kind, value, c in _tokenize(text, line_no)
                       if kind == "name" and value == node.name)
            raise SpecError(f"reference to undeclared variable {node.name!r}",
                            line_no, col)


def walk(e: Expr):
    """Every node of `e` in pre-order, left to right, each as `(node,
    under_next)`: whether an `X` strictly encloses it.  Iterative, so
    the depth of `e` costs no recursion."""
    stack = [(e, False)]
    while stack:
        e, under_next = stack.pop()
        yield e, under_next
        if isinstance(e, Op):
            stack.extend([(sub, under_next) for sub in reversed(e.args)])
        elif isinstance(e, (Not, Next)):
            stack.append((e.sub, under_next or isinstance(e, Next)))


# ----------------------------------------------------------------------
# pretty printing

# operator -> (precedence, associativity).  The operands of a chain and
# of a comparison are bracketed when they bind no tighter than the
# operator, so a parenthesised sub-chain keeps its parentheses.
_OPS = {"<->": (0, "left"), "->": (1, "right"), "|": (2, "chain"),
        "&": (3, "chain"), **dict.fromkeys(COMPARISONS, (4, "none")),
        "+": (5, "left"), "-": (5, "left")}
_UNARY = 6


def _fmt(e: Expr, ctx: int) -> str:
    if isinstance(e, Atom):
        return e.name
    if isinstance(e, BoolConst):
        return "TRUE" if e.value else "FALSE"
    if isinstance(e, IntConst):
        return str(e.value)
    if isinstance(e, Next):
        return f"X({_fmt(e.sub, 0)})"
    if isinstance(e, Not):
        return "!" + _fmt(e.sub, _UNARY)
    if isinstance(e, Op):
        prec, assoc = _OPS[e.op]
        first = prec + (assoc != "left")
        rest = prec + (assoc != "right")
        s = f" {e.op} ".join(_fmt(a, first if i == 0 else rest)
                             for i, a in enumerate(e.args))
        return s if ctx <= prec else f"({s})"
    raise TypeError(e)


def format_expr(e: Expr) -> str:
    return _fmt(e, 0)


def pretty(doc: SpecDocument) -> str:
    """Render a document back to the text format; reparsing yields a
    structurally identical document."""
    out = []
    ins, outs = doc.inputs(), doc.outputs()
    if ins:
        out.append("[INPUT]")
        for v in ins:
            out.append(v.name if not v.is_int else f"{v.name}: {v.lo}...{v.hi}")
    if outs:
        out.append("[OUTPUT]")
        for v in outs:
            out.append(v.name if not v.is_int else f"{v.name}: {v.lo}...{v.hi}")
    header_of = {kind: header for header, kind in _SECTION_OF.items()}
    for kind in PART_KINDS:
        if doc.parts[kind]:
            out.append(f"[{header_of[kind]}]")
            for p in doc.parts[kind]:
                out.append(format_expr(p.formula))
    return "\n".join(out) + "\n"
