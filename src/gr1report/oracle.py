"""Brute-force reference implementations for testing.

explicit_solve evaluates the same game fixpoint as the symbolic solver
but over explicit truth tables (Python big integers, one bit per
assignment), with no BDD machinery involved.  model_check explores the
product of a Mealy machine with all environment choices, evaluating the
specification formulas directly per transition.  brute_force_primes is
a merge-based prime-implicant enumerator for checking the meta-product
cube enumeration.

Everything here trades speed for obviousness; the bit bound keeps runs
at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compiler import BooleanSpec, IR

DEFAULT_BIT_BOUND = 14


class OracleError(Exception):
    pass


# ----------------------------------------------------------------------
# truth-table spaces

class Space:
    """Boolean function tables over an ordered variable list.

    Index convention matches BddManager.to_truthtable: the first
    variable is the most significant index bit.
    """

    def __init__(self, slots: list):
        self.slots = list(slots)
        self.n = len(slots)
        self.size = 1 << self.n
        self.mask = (1 << self.size) - 1
        self.pos = {key: i for i, key in enumerate(slots)}
        self._patterns: dict[int, int] = {}

    def pattern(self, key) -> int:
        k = self.pos[key]
        t = self._patterns.get(k)
        if t is None:
            b = self.n - 1 - k  # index bit
            s = 1 << b
            t = ((1 << s) - 1) << s
            w = s << 1
            while w < self.size:
                t |= t << w
                w <<= 1
            self._patterns[k] = t
        return t

    def table(self, ir: IR, memo: dict | None = None) -> int:
        if memo is None:
            memo = {}

        def rec(e: IR) -> int:
            r = memo.get(e)
            if r is not None:
                return r
            tag = e[0]
            if tag == "const":
                r = self.mask if e[1] else 0
            elif tag == "var":
                r = self.pattern((e[1], e[2]))
            elif tag == "not":
                r = self.mask ^ rec(e[1])
            else:
                a, b = rec(e[1]), rec(e[2])
                if tag == "and":
                    r = a & b
                elif tag == "or":
                    r = a | b
                elif tag == "xor":
                    r = a ^ b
                else:
                    raise OracleError(f"unknown IR tag {tag!r}")
            memo[e] = r
            return r

        return rec(ir)

    def exists_slot(self, t: int, k: int) -> int:
        s = 1 << (self.n - 1 - k)
        m0 = self.mask ^ self.pattern(self.slots[k])
        e0 = (t & m0) | ((t >> s) & m0)
        return e0 | (e0 << s)

    def exists(self, t: int, keys) -> int:
        for key in keys:
            t = self.exists_slot(t, self.pos[key])
        return t

    def forall(self, t: int, keys) -> int:
        return self.mask ^ self.exists(self.mask ^ t, keys)

    def index_of(self, values: dict) -> int:
        idx = 0
        for key, i in self.pos.items():
            if values[key]:
                idx |= 1 << (self.n - 1 - i)
        return idx

    def bit(self, t: int, idx: int) -> bool:
        return bool((t >> idx) & 1)


def eval_ir(ir: IR, env) -> bool:
    """Direct evaluation; env maps (name, primed) to bool."""
    tag = ir[0]
    if tag == "const":
        return ir[1]
    if tag == "var":
        return env[(ir[1], ir[2])]
    if tag == "not":
        return not eval_ir(ir[1], env)
    a = eval_ir(ir[1], env)
    if tag == "and":
        return a and eval_ir(ir[2], env)
    if tag == "or":
        return a or eval_ir(ir[2], env)
    if tag == "xor":
        return a != eval_ir(ir[2], env)
    raise OracleError(f"unknown IR tag {tag!r}")


# ----------------------------------------------------------------------
# explicit game solving

@dataclass
class ExplicitResult:
    props: list[str]
    win: int                      # position-space table
    strata: list[list[int]]       # [goal][d]
    realizable: str
    n_positions: int

    def distance(self, idx: int, goal: int):
        for d, s in enumerate(self.strata[goal]):
            if (s >> idx) & 1:
                return d
        return float("inf")


class _ExplicitGame:
    def __init__(self, spec: BooleanSpec):
        props = spec.props
        self.n = len(props)
        self.pspace = Space([(p, False) for p in props])
        # transitions: primed block in the high index bits so that results
        # of quantifying all primed variables read off as the low block
        self.tspace = Space([(p, True) for p in props]
                            + [(p, False) for p in props])
        memo_p: dict = {}
        memo_t: dict = {}

        def pconj(kind):
            t = self.pspace.mask
            for part in spec.parts[kind]:
                t &= self.pspace.table(part.ir, memo_p)
            return t

        def tconj(kind):
            t = self.tspace.mask
            for part in spec.parts[kind]:
                t &= self.tspace.table(part.ir, memo_t)
            return t

        self.init_env = pconj("env_init")
        self.init_sys = pconj("sys_init")
        self.te = tconj("env_trans")
        self.ts = tconj("sys_trans")
        self.live_env = [self.tspace.table(p.ir, memo_t)
                         for p in spec.parts["env_liveness"]] or [self.tspace.mask]
        self.live_sys = [self.tspace.table(p.ir, memo_t)
                         for p in spec.parts["sys_liveness"]] or [self.tspace.mask]
        self.pin = [(p, True) for p in spec.input_props]
        self.pout = [(p, True) for p in spec.output_props]
        self.in_slots = [(p, False) for p in spec.input_props]
        self.out_slots = [(p, False) for p in spec.output_props]
        self.block = 1 << self.n  # bits per primed-index block
        self._ones = None
        stay = self.tspace.mask
        for p in spec.output_props:
            a = self.tspace.pattern((p, False))
            b = self.tspace.pattern((p, True))
            stay &= self.tspace.mask ^ (a ^ b)
        self.stay_outputs = stay

    def spread(self, v: int) -> int:
        """Position table -> transition table constrained on the primed
        block (v at the next position)."""
        if self.block >= 8:
            nb = self.block // 8
            if self._ones is None:
                self._ones = b"\xff" * nb
                self._zeros = b"\x00" * nb
            ones, zeros = self._ones, self._zeros
            chunks = [ones if (v >> p) & 1 else zeros
                      for p in range(self.block)]
            return int.from_bytes(b"".join(chunks), "little")
        t = 0
        full = (1 << self.block) - 1
        for p in range(self.block):
            if (v >> p) & 1:
                t |= full << (p * self.block)
        return t

    def _drop_primed(self, t: int) -> int:
        return t & (self.pspace.mask)

    def cpre(self, target: int) -> int:
        sp = self.tspace
        can = sp.exists(self.ts & target, self.pout)
        bad = sp.exists(self.te & (sp.mask ^ can), self.pin)
        return self._drop_primed(sp.mask ^ bad)


def explicit_solve(spec: BooleanSpec,
                   bit_bound: int = DEFAULT_BIT_BOUND) -> ExplicitResult:
    """Enumerated-position GR(1) solve; mirrors the fixpoint evaluation
    order of the symbolic solver so distances are comparable."""
    if len(spec.props) > bit_bound:
        raise OracleError(
            f"{len(spec.props)} propositions exceed the bit bound {bit_bound}")
    g = _ExplicitGame(spec)
    pmask = g.pspace.mask
    tmask = g.tspace.mask

    def nu_x(base: int, nota: int) -> int:
        x = pmask
        while True:
            xn = g.cpre(base | (nota & g.spread(x)))
            if xn == x:
                return x
            x = xn

    def mu_y(z: int, j: int):
        goal_z = g.live_sys[j] & g.spread(z)
        y = 0
        strata = []
        while True:
            base = goal_z | g.spread(y)
            ynew = 0
            for i in range(len(g.live_env)):
                nota = tmask ^ g.live_env[i]
                ynew |= nu_x(base, nota & g.stay_outputs)
            if ynew == y:
                ynew = 0
                for i in range(len(g.live_env)):
                    ynew |= nu_x(base, tmask ^ g.live_env[i])
                if ynew == y:
                    break
            y = ynew
            strata.append(y)
        return y, strata

    z = pmask
    while True:
        zprev = z
        for j in range(len(g.live_sys)):
            z, _ = mu_y(z, j)
        if z == zprev:
            break
    strata = []
    for j in range(len(g.live_sys)):
        y, ys = mu_y(z, j)
        if y != z:
            raise OracleError("explicit fixpoint recording diverged")
        strata.append(ys)

    some = g.pspace.exists(g.init_sys & z, g.out_slots)
    ok = g.pspace.forall((pmask ^ g.init_env) | some, g.in_slots)
    verdict = "realizable" if ok == pmask else "unrealizable"
    return ExplicitResult(props=list(spec.props), win=z, strata=strata,
                          realizable=verdict, n_positions=1 << g.n)


# ----------------------------------------------------------------------
# machine model checking

def _env_of(values: dict[str, bool], nxt: dict[str, bool] | None = None):
    env = {(k, False): v for k, v in values.items()}
    if nxt:
        env.update({(k, True): v for k, v in nxt.items()})
    return env


def model_check(machine, spec: BooleanSpec):
    """Check a Mealy machine against a compiled specification.

    Returns None when every trace is correct: no reachable safety
    guarantee violation before an assumption violation, initial coverage
    of every admissible input, and no reachable fair cycle (all liveness
    assumptions hit) missing some liveness guarantee.  Otherwise returns
    a dict with the violation kind and a finite or lasso trace.
    """
    if (machine.input_names != spec.input_props
            or machine.output_names != spec.output_props):
        raise OracleError("machine signature does not match the specification")
    inputs, outputs = spec.input_props, spec.output_props

    init_parts = [p.ir for p in spec.parts["env_init"]]
    init_guas = [p.ir for p in spec.parts["sys_init"]]
    te_parts = [p.ir for p in spec.parts["env_trans"]]
    ts_parts = [p.ir for p in spec.parts["sys_trans"]]
    live_env = [p.ir for p in spec.parts["env_liveness"]] or [("const", True)]
    live_sys = [p.ir for p in spec.parts["sys_liveness"]] or [("const", True)]

    def state_values(s):
        vals = dict(zip(machine.input_names, s.inputs))
        vals.update(zip(machine.output_names, s.outputs))
        return vals

    def step_dict(s):
        v = state_values(s)
        return {"inputs": {k: v[k] for k in inputs},
                "outputs": {k: v[k] for k in outputs}}

    # initial coverage: every admissible initial input has a covering
    # initial state whose position satisfies the init guarantees
    by_input = {}
    for sid in machine.initial:
        s = machine.states[sid]
        by_input[s.inputs] = s
    n_in = len(inputs)
    for bits in range(1 << n_in):
        ivals = tuple(bool((bits >> (n_in - 1 - k)) & 1)
                      for k in range(n_in))
        env = _env_of(dict(zip(inputs, ivals)))
        env.update({(o, False): False for o in outputs})
        if not all(eval_ir(p, env) for p in init_parts):
            continue
        s = by_input.get(ivals)
        if s is None:
            return {"kind": "init", "reason": "uncovered initial input",
                    "trace": [{"inputs": dict(zip(inputs, ivals))}]}
        env2 = _env_of(state_values(s))
        if not all(eval_ir(p, env2) for p in init_guas):
            return {"kind": "init", "reason": "initial guarantee violated",
                    "trace": [step_dict(s)]}

    # transition exploration
    trans = {sid: dict(machine.transitions[sid]) for sid in machine.transitions}
    parent: dict[int, tuple[int, tuple] | None] = {}
    edges = []  # (src sid, ivals, dst sid, env goals hit, sys goals hit)
    queue = list(machine.initial)
    for sid in machine.initial:
        parent[sid] = None
    while queue:
        sid = queue.pop(0)
        s = machine.states[sid]
        vals = state_values(s)
        for bits in range(1 << n_in):
            ivals = tuple(bool((bits >> (n_in - 1 - k)) & 1)
                          for k in range(n_in))
            env = _env_of(vals, dict(zip([i for i in inputs], ivals)))
            # te only mentions primed inputs; fill primed outputs later
            if not all(eval_ir(p, env) for p in te_parts):
                continue
            nxt_sid = trans[sid].get(ivals)
            if nxt_sid is None:
                return {"kind": "safety",
                        "reason": "machine has no move for an admissible input",
                        "trace": _path_to(machine, parent, sid)
                        + [{"inputs": dict(zip(inputs, ivals))}]}
            nxt = machine.states[nxt_sid]
            full_env = _env_of(vals, state_values(nxt))
            if not all(eval_ir(p, full_env) for p in ts_parts):
                return {"kind": "safety",
                        "reason": "safety guarantee violated",
                        "trace": _path_to(machine, parent, sid)
                        + [step_dict(nxt)]}
            e_hits = frozenset(i for i, a in enumerate(live_env)
                               if eval_ir(a, full_env))
            s_hits = frozenset(j for j, gg in enumerate(live_sys)
                               if eval_ir(gg, full_env))
            edges.append((sid, ivals, nxt_sid, e_hits, s_hits))
            if nxt_sid not in parent:
                parent[nxt_sid] = (sid, ivals)
                queue.append(nxt_sid)

    # fair cycles: rotate through liveness assumptions; a cycle is fair
    # iff it contains a rotation-wrap edge
    m = len(live_env)
    for j0 in range(len(live_sys)):
        sub = [(u, iv, v, eh) for (u, iv, v, eh, sh) in edges if j0 not in sh]
        verdict = _find_fair_cycle(machine, sub, m, parent)
        if verdict is not None:
            prefix, cycle = verdict
            return {"kind": "liveness",
                    "reason": f"fair cycle never satisfies liveness guarantee {j0}",
                    "trace": prefix + cycle,
                    "lasso_start": len(prefix)}
    return None


def _path_to(machine, parent, sid):
    out = []
    cur: int | None = sid
    while cur is not None:
        s = machine.states[cur]
        vals = dict(zip(machine.input_names, s.inputs))
        ovals = dict(zip(machine.output_names, s.outputs))
        out.append({"inputs": vals, "outputs": ovals})
        p = parent.get(cur)
        cur = p[0] if p else None
    out.reverse()
    return out


def _find_fair_cycle(machine, sub_edges, m, parent):
    """SCC search on the goal-rotation product restricted to sub_edges.
    Returns (prefix steps, cycle steps) or None."""
    adj: dict[tuple, list] = {}
    for (u, iv, v, eh) in sub_edges:
        for c in range(m):
            nc = (c + 1) % m if c in eh else c
            wrap = c == m - 1 and c in eh
            adj.setdefault((u, c), []).append(((v, nc), iv, wrap))
    nodes = set(adj)
    for targets in adj.values():
        nodes.update(t[0] for t in targets)

    index: dict[tuple, int] = {}
    low: dict[tuple, int] = {}
    on: set[tuple] = set()
    stack: list[tuple] = []
    comp: dict[tuple, int] = {}
    counter = [0]
    ncomp = [0]

    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(adj.get(root, [])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for (succ, _iv, _w) in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on.add(succ)
                    work.append((succ, iter(adj.get(succ, []))))
                    advanced = True
                    break
                if succ in on:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp[w] = ncomp[0]
                    if w == node:
                        break
                ncomp[0] += 1

    # a fair SCC has an internal wrap edge
    for (u, iv, v, eh) in sub_edges:
        for c in range(m):
            if not (c == m - 1 and c in eh):
                continue
            a, b = (u, c), (v, (c + 1) % m)
            if a in comp and b in comp and comp[a] == comp[b]:
                cyc = _cycle_through(adj, comp, b, a)
                if cyc is None:
                    continue
                prefix = _path_to(machine, parent, u)
                steps = []
                cur = b
                for (node, ivals) in cyc:
                    s = machine.states[node[0]]
                    steps.append({
                        "inputs": dict(zip(machine.input_names, s.inputs)),
                        "outputs": dict(zip(machine.output_names, s.outputs))})
                return prefix, steps
    return None


def _cycle_through(adj, comp, start, end):
    """Path start -> end inside one SCC; returns [(node, input)] or None."""
    target_comp = comp[start]
    if comp.get(end) != target_comp:
        return None
    prev: dict[tuple, tuple] = {}
    queue = [start]
    seen = {start}
    while queue:
        cur = queue.pop(0)
        if cur == end:
            path = []
            node = end
            while node != start:
                p, iv = prev[node]
                path.append((node, iv))
                node = p
            path.reverse()
            # close the loop with the wrap edge back to start
            return path + [(start, None)] if path else [(start, None)]
        for (succ, iv, _w) in adj.get(cur, []):
            if comp.get(succ) == target_comp and succ not in seen:
                seen.add(succ)
                prev[succ] = (cur, iv)
                queue.append(succ)
    return None


# ----------------------------------------------------------------------
# prime implicant oracle

def brute_force_primes(table: int, nvars: int) -> set[frozenset]:
    """Prime implicants by pairwise merging from the ON-set.

    Returns a set of cubes; each cube is a frozenset of (slot, value)
    literals, slot 0 being the most significant index bit (matching the
    Space index convention).
    """
    on = [i for i in range(1 << nvars) if (table >> i) & 1]
    # cube = (mask of cared bits, values on cared bits), bit k of the
    # index words corresponds to slot nvars-1-k
    current = {((1 << nvars) - 1, i) for i in on}
    primes: set[tuple[int, int]] = set()
    while current:
        nxt = set()
        merged = set()
        by_mask: dict[int, list] = {}
        for cube in current:
            by_mask.setdefault(cube[0], []).append(cube)
        for mask, cubes in by_mask.items():
            cs = set(c[1] for c in cubes)
            for val in cs:
                for b in range(nvars):
                    bit = 1 << b
                    if not mask & bit:
                        continue
                    if val ^ bit in cs:
                        nxt.add((mask ^ bit, (val & ~bit)))
                        merged.add((mask, val))
                        merged.add((mask, val ^ bit))
        primes |= current - merged
        current = nxt
    out = set()
    for mask, val in primes:
        lits = []
        for b in range(nvars):
            if mask & (1 << b):
                slot = nvars - 1 - b
                lits.append((slot, bool(val & (1 << b))))
        out.add(frozenset(lits))
    return out
