import random
from pathlib import Path

import pytest

from gr1report import parse_spec, compile_to_boolean
from gr1report.compiler import BooleanSpec, BoolPart

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def load_spec(name: str):
    doc = parse_spec((SPEC_DIR / f"{name}.spec").read_text())
    return compile_to_boolean(doc)


def spec_path(name: str) -> Path:
    return SPEC_DIR / f"{name}.spec"


def chain_text(n: int) -> str:
    """n-stage shift chain: X(s0) <-> d, X(s_i+1) <-> s_i, GF d -> GF s_n-1."""
    return "\n".join(
        ["[INPUT]", "d", "[OUTPUT]", *(f"s{i}" for i in range(n)),
         "[SYS_INIT]", *(f"!s{i}" for i in range(n)),
         "[SYS_TRANS]", "X(s0) <-> d",
         *(f"X(s{i + 1}) <-> s{i}" for i in range(n - 1)),
         "[ENV_LIVENESS]", "d", "[SYS_LIVENESS]", f"s{n - 1}"]) + "\n"


@pytest.fixture
def specs_dir() -> Path:
    return SPEC_DIR


def _variant(spec: BooleanSpec, drop: tuple[str, int] | None = None,
             add: dict[str, list[BoolPart]] | None = None) -> BooleanSpec:
    """Copy of the spec with one part removed and/or parts appended: the
    reference for the analyses' edits of the baseline game."""
    out = BooleanSpec(
        input_props=spec.input_props, output_props=spec.output_props,
        props=spec.props, groups=spec.groups, bool_vars=spec.bool_vars,
        linked=spec.linked, source=spec.source)
    for kind, parts in spec.parts.items():
        kept = [p for p in parts
                if drop is None or (kind, p.index) != drop]
        out.parts[kind] = kept
    if add:
        for kind, parts in add.items():
            out.parts[kind] = out.parts[kind] + parts
    return out


# ----------------------------------------------------------------------
# random specification generator (valid GR(1) shape by construction)

def _formula(rng: random.Random, atoms: list[str], depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        a = rng.choice(atoms)
        return a if rng.random() < 0.7 else f"!{a}"
    op = rng.choice(["&", "|", "->", "|", "&"])
    lhs = _formula(rng, atoms, depth - 1)
    rhs = _formula(rng, atoms, depth - 1)
    return f"({lhs} {op} {rhs})"


def random_spec_text(seed: int, max_bits: int = 8) -> str:
    """Small random specification; deterministic in the seed."""
    rng = random.Random(seed)
    n_in = rng.randint(1, 3)
    n_out = rng.randint(1, min(3, max_bits - n_in))
    ins = [f"i{k}" for k in range(n_in)]
    outs = [f"o{k}" for k in range(n_out)]
    in_decls, out_decls = list(ins), list(outs)
    cur = ins + outs
    # sometimes add a small integer variable; its comparisons join the
    # boolean atom pools
    int_cur, int_next = [], []
    if rng.random() < 0.4 and n_in + n_out + 2 <= max_bits:
        name = "v0"
        hi = rng.choice([2, 3])
        owner_in = rng.random() < 0.5
        (in_decls if owner_in else out_decls).append(f"{name}: 0...{hi}")
        c = rng.randint(0, hi)
        int_cur = [f"({name} = {c})", f"({name} < {max(1, hi)})",
                   f"({name} + 1 > {c})"]
        int_next = [f"(X({name}) = {name})", f"(X({name}) = {name} + 1)",
                    f"(X({name}) <= {hi - 1})"]
        cur = cur + int_cur
    env_atoms = cur + [f"X({i})" for i in ins]
    sys_atoms = cur + [f"X({v})" for v in ins + outs]
    if int_cur:
        sys_atoms = sys_atoms + int_next
        env_atoms = env_atoms + (int_next if owner_in else [])

    lines = ["[INPUT]"] + in_decls + ["[OUTPUT]"] + out_decls
    if rng.random() < 0.5:
        lines += ["[ENV_INIT]", _formula(rng, ins, 1)]
    if rng.random() < 0.5:
        lines += ["[SYS_INIT]", _formula(rng, cur, 1)]
    if rng.random() < 0.8:
        lines.append("[ENV_TRANS]")
        for _ in range(rng.randint(1, 2)):
            lines.append(_formula(rng, env_atoms, 2))
    if rng.random() < 0.9:
        lines.append("[SYS_TRANS]")
        for _ in range(rng.randint(1, 2)):
            lines.append(_formula(rng, sys_atoms, 2))
    if rng.random() < 0.7:
        lines.append("[ENV_LIVENESS]")
        for _ in range(rng.randint(1, 3)):
            lines.append(_formula(rng, sys_atoms, 1))
    lines.append("[SYS_LIVENESS]")
    for _ in range(rng.randint(1, 3)):
        lines.append(_formula(rng, sys_atoms, 1))
    return "\n".join(lines) + "\n"


def random_boolean_spec(seed: int, max_bits: int = 8):
    return compile_to_boolean(parse_spec(random_spec_text(seed, max_bits)))


def random_compare_spec_text(seed: int) -> str:
    """Small random specification whose comparisons link two or three
    integers (of mixed widths and owners), so the level order lays them
    out interleaved; deterministic in the seed.  At most 11 bits."""
    rng = random.Random(seed)
    ints = {name: (rng.choice(["input", "output"]), rng.choice([1, 2, 3, 5]))
            for name in ("a", "b", "c")[:rng.randint(2, 3)]}
    ins = [n for n, (kind, _) in ints.items() if kind == "input"]
    cur = list(ints)
    env_terms = cur + [f"X({n})" for n in ins]
    sys_terms = cur + [f"X({n})" for n in ints]

    def compare(terms):
        x, y = rng.sample(terms, 2)
        if rng.random() < 0.3:
            y = f"{y} + 1"
        return f"({x} {rng.choice(['=', '!=', '<', '<='])} {y})"

    env_atoms = ["i", "o", "X(i)"] + [compare(env_terms) for _ in range(3)]
    sys_atoms = (["i", "o", "X(i)", "X(o)"]
                 + [compare(sys_terms) for _ in range(4)])
    lines = ["[INPUT]", "i"] + [f"{n}: 0...{ints[n][1]}" for n in ins]
    lines += ["[OUTPUT]", "o"] + [f"{n}: 0...{hi}" for n, (kind, hi)
                                  in ints.items() if kind == "output"]
    if rng.random() < 0.5:
        lines += ["[SYS_INIT]", _formula(rng, [compare(cur), "o"], 1)]
    if rng.random() < 0.8:
        lines += ["[ENV_TRANS]", _formula(rng, env_atoms, 2)]
    lines += ["[SYS_TRANS]"] + [_formula(rng, sys_atoms, 2)
                                for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.7:
        lines += ["[ENV_LIVENESS]", _formula(rng, sys_atoms, 1)]
    lines += ["[SYS_LIVENESS]"] + [_formula(rng, sys_atoms, 1)
                                   for _ in range(rng.randint(1, 2))]
    return "\n".join(lines) + "\n"
