"""Scalable GR(1) specification families for the benchmark.

Each generator returns the specification text for size n.  The text is
a pure function of n: variable declarations fix the BDD variable order,
and the line order is fixed as well, so one recorded report digest per
input holds for every workload seed (the seed only permutes the order
in which a workload visits its inputs).

Both families are realizable for every n >= 1; the hand arguments are
in the docstrings and the self-tests cross-check them against the
explicit-state oracle at small n.
"""

from __future__ import annotations


def arbiter(n: int) -> str:
    """n-client arbiter: requests r_i (inputs), grants g_i (outputs).

    Assumptions: a request stays up until granted, (r_i & !g_i) -> X(r_i),
    and infinitely often client i is not both requesting and granted,
    GF !(r_i & g_i).  Guarantees: grants are mutually exclusive,
    !(X(g_i) & X(g_j)) for i < j; a granted request keeps its grant,
    (r_i & g_i) -> X(g_i); no grant appears without a request,
    (!r_i & !g_i) -> !X(g_i); and GF (r_i <-> g_i).

    Realizable: a round-robin controller wins.  It holds a grant while
    the request is up (forced), drops it once the request falls, and
    then grants the next pending client in cyclic order, which no
    guarantee forbids because that client is requesting.  The second
    assumption makes every holder eventually drop its request, so every
    pending client (whose request stays up) is granted within n
    hand-overs, reaching r_i & g_i; idle and released clients sit at
    !r_i & !g_i.  Either way r_i <-> g_i recurs for every i.
    """
    ids = range(n)
    lines = ["[INPUT]", *(f"r{i}" for i in ids),
             "[OUTPUT]", *(f"g{i}" for i in ids),
             "[ENV_TRANS]", *(f"(r{i} & !g{i}) -> X(r{i})" for i in ids),
             "[ENV_LIVENESS]", *(f"!(r{i} & g{i})" for i in ids),
             "[SYS_TRANS]",
             *(f"!(X(g{i}) & X(g{j}))" for i in ids for j in range(i + 1, n)),
             *(f"(r{i} & g{i}) -> X(g{i})" for i in ids),
             *(f"(!r{i} & !g{i}) -> !X(g{i})" for i in ids),
             "[SYS_LIVENESS]", *(f"r{i} <-> g{i}" for i in ids)]
    return "\n".join(lines) + "\n"


def chain(n: int) -> str:
    """n-stage shift chain: input d, outputs s_0 .. s_{n-1}.

    All s_i start false; X(s_0) <-> d and X(s_{i+1}) <-> s_i; the
    environment is assumed to raise d infinitely often and the system
    must raise s_{n-1} infinitely often.

    Realizable: the guarantees leave the system no choice, and the
    forced play copies d into s_{n-1} n steps later, so GF d gives
    GF s_{n-1}.  The environment has no safety assumption to break.
    """
    lines = ["[INPUT]", "d",
             "[OUTPUT]", *(f"s{i}" for i in range(n)),
             "[SYS_INIT]", *(f"!s{i}" for i in range(n)),
             "[SYS_TRANS]", "X(s0) <-> d",
             *(f"X(s{i + 1}) <-> s{i}" for i in range(n - 1)),
             "[ENV_LIVENESS]", "d",
             "[SYS_LIVENESS]", f"s{n - 1}"]
    return "\n".join(lines) + "\n"


FAMILIES = {"arbiter": arbiter, "chain": chain}

# verdict of every member of each family, argued in the docstrings above
KNOWN_VERDICT = {"arbiter": "realizable", "chain": "realizable"}
