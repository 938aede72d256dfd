"""Input families for tests and experiments.

gen_gnp draws each k-set independently; gen_girth5 layers strict cycle
pruning on top of it; gen_disjoint_cliques has a closed-form optimum for
calibration; gen_layered_bouquet grows a multi-layer instance edge by edge
under the structural conditions.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .core import LayeredHypergraph
from .errors import InvalidArguments
from .structure import (
    check_bouquet,
    check_bouquet_around,
    check_limit,
    find_clean_four_cycles,
    find_linear_three_cycles,
    list_two_cycles,
    prune_short_cycles,
)

# refuse to materialize absurd instances rather than hang
MAX_EXPECTED_EDGES = 5_000_000


def _binomial_tables(n: int, k: int) -> list[list[int]]:
    """tables[j][t] = C(t, j) for 0 <= j <= k and 0 <= t <= n."""
    tables = [[1] * (n + 1)]
    for _ in range(k):
        # hockey stick: C(t, j) = sum of C(s, j - 1) over s < t
        tables.append([0, *itertools.accumulate(tables[-1][:n])])
    return tables


def _unrank_combination(idx: int, n: int, k: int, tables: list[list[int]]) -> tuple[int, ...]:
    """Lexicographic k-combination of range(n) at position idx, given
    ``_binomial_tables(n, k)``."""
    out = []
    r = idx
    m = n  # the values n - m .. n - 1 are still free
    for j in range(k, 0, -1):
        col = tables[j]
        # combinations skipping the first i free values number
        # C(m, j) - C(m - i, j), so the next value is n - 1 - t for the
        # largest t < m with C(t, j) < C(m, j) - r; C(t, j) rises with t
        head = col[m]
        t = bisect.bisect_left(col, head - r, j, m) - 1
        out.append(n - 1 - t)
        r -= head - col[t + 1]
        m = t
    return tuple(out)


def gen_gnp(
    n: int, k: int, p: float, rng: np.random.Generator
) -> LayeredHypergraph:
    """Binomial k-graph: every k-subset becomes an edge with probability p.

    Edges are visited by jumping geometric gaps through the lexicographic
    enumeration, so the cost is proportional to the number of edges drawn,
    not to C(n, k).
    """
    if k < 2:
        raise InvalidArguments(f"uniformity must be at least 2, got {k}")
    if n < 0:
        raise InvalidArguments(f"n must be nonnegative, got {n}")
    if not (0.0 <= p <= 1.0):
        raise InvalidArguments(f"p must lie in [0, 1], got {p}")
    H = LayeredHypergraph(n, k)
    total = math.comb(n, k)
    if total == 0 or p == 0.0:
        return H
    if p * total > MAX_EXPECTED_EDGES:
        raise InvalidArguments(
            f"expected edge count {p * total:.3g} exceeds {MAX_EXPECTED_EDGES}"
        )
    if p >= 1.0:
        for e in itertools.combinations(range(n), k):
            H.add_edge(e)
        return H
    tables = _binomial_tables(n, k)
    log_q = math.log1p(-p)
    idx = -1
    while True:
        u = rng.random()
        # geometric gap: failures before the next success
        gap = int(math.log(u) / log_q) if u > 0.0 else total
        idx += gap + 1
        if idx >= total:
            break
        H.add_edge(_unrank_combination(idx, n, k, tables))
    return H


def gen_girth5(
    n: int,
    k: int,
    t: float,
    rng: np.random.Generator,
    batch: int | None = 512,
) -> tuple[LayeredHypergraph, dict]:
    """Random k-graph with every 2-, 3-, and 4-cycle removed.

    Draws a binomial graph with mean vertex degree t^(k-1), then strips
    2-cycles, linear 3-cycles, and clean 4-cycles in stages; the other
    length-3 and length-4 cycles contain one of those, so none survive.
    The expected cycle counts scale with powers of t alone, which keeps the
    deletion stage small even for large n.
    """
    if k < 2:
        raise InvalidArguments(f"uniformity must be at least 2, got {k}")
    if not (math.isfinite(t) and t > 0):
        raise InvalidArguments(f"t must be finite and positive, got {t}")
    check_limit("batch", batch, 1)
    # with n < k there is no k-set to draw, and the stages find nothing
    p = min(1.0, t ** (k - 1) / math.comb(n - 1, k - 1)) if n >= k else 0.0
    H = gen_gnp(n, k, p, rng)
    initial = H.num_edges()

    keep, info2 = prune_short_cycles(
        H, set(range(n)), two_ells=tuple(range(2, k)), batch=batch
    )
    H2, _ = H.induce(sorted(keep))
    keep3, info3 = prune_short_cycles(
        H2, set(range(H2.n)), linear3=True, batch=batch
    )
    H3, _ = H2.induce(sorted(keep3))
    keep4, info4 = prune_short_cycles(
        H3, set(range(H3.n)), clean4=True, batch=batch
    )
    H4, _ = H3.induce(sorted(keep4))

    report = check_bouquet(H4)
    leftovers = (
        sum(len(list_two_cycles(H4, ell=ell, limit=1)) for ell in range(2, k)),
        len(find_linear_three_cycles(H4, limit=1)),
        len(find_clean_four_cycles(H4, limit=1)),
    )
    if any(leftovers) or not report.holds:
        raise AssertionError(
            f"pruning left short cycles behind: {leftovers}, "
            f"violations {sorted(report.violated_properties())}"
        )
    info = {
        "initial_edges": initial,
        "p": p,
        "final_n": H4.n,
        "final_edges": H4.num_edges(),
        "two_cycle_stage": info2,
        "linear_three_stage": info3,
        "clean_four_stage": info4,
    }
    return H4, info


def gen_disjoint_cliques(n: int, k: int, s: int) -> tuple[LayeredHypergraph, dict]:
    """Disjoint complete k-graphs on s vertices each, leftovers edgeless.

    The optimum is known exactly: each clique of size s >= k contributes
    k - 1 vertices, smaller blocks and leftovers contribute everything.
    """
    if k < 2:
        raise InvalidArguments(f"uniformity must be at least 2, got {k}")
    if s < 1:
        raise InvalidArguments(f"block size must be at least 1, got {s}")
    if n < 0:
        raise InvalidArguments(f"n must be nonnegative, got {n}")
    blocks = n // s
    if s >= k and blocks * math.comb(s, k) > MAX_EXPECTED_EDGES:
        raise InvalidArguments("requested clique family is too large")
    H = LayeredHypergraph(n, k)
    for b in range(blocks):
        if s >= k:
            for e in itertools.combinations(range(b * s, (b + 1) * s), k):
                H.add_edge(e)
    leftover = n - blocks * s
    per_block = min(s, k - 1)
    alpha = blocks * per_block + leftover
    info = {
        "blocks": blocks,
        "block_size": s,
        "leftover": leftover,
        "alpha_exact": alpha,
    }
    return H, info


def gen_layered_bouquet(
    n: int,
    k: int,
    counts: dict[int, int],
    rng: np.random.Generator,
    vertex_caps: dict[int, int] | None = None,
    max_stall: int = 2000,
) -> tuple[LayeredHypergraph, dict]:
    """Grow a layered instance one random edge at a time, keeping the
    structural conditions after every addition.

    counts[i] asks for that many edges of size i; vertex_caps[i], when
    given, additionally bounds per-vertex degrees per layer.  Additions
    that break anything are rolled back; after max_stall consecutive
    rejections in a layer the generator gives up on it and reports the
    shortfall instead of looping forever.

    Each candidate is checked only within its radius-2 ball
    (``check_bouquet_around``).  That decides exactly as a whole-graph
    ``check_bouquet`` would, because the graph is clean before the
    candidate is added, so any violation has to go through the candidate.
    """
    if k < 2:
        raise InvalidArguments(f"uniformity must be at least 2, got {k}")
    for i in counts:
        if not (2 <= i <= k):
            raise InvalidArguments(f"layer {i} outside 2..{k}")
    vertex_caps = dict(vertex_caps or {})
    H = LayeredHypergraph(n, k)
    achieved = {i: 0 for i in sorted(counts)}
    stalled: list[int] = []
    deg = {i: [0] * n for i in counts}

    for i in sorted(counts):
        target = counts[i]
        if target < 0:
            raise InvalidArguments(f"counts[{i}] must be nonnegative")
        if n < i:
            if target:
                stalled.append(i)
            continue
        cap = vertex_caps.get(i)
        misses = 0
        while achieved[i] < target and misses < max_stall:
            e = tuple(sorted(int(v) for v in rng.choice(n, size=i, replace=False)))
            if cap is not None and any(deg[i][v] >= cap for v in e):
                misses += 1
                continue
            if not H.add_edge(e):
                misses += 1
                continue
            if check_bouquet_around(H, e).holds:
                achieved[i] += 1
                misses = 0
                for v in e:
                    deg[i][v] += 1
            else:
                H.pop_edge(i)
                misses += 1
        if achieved[i] < target:
            stalled.append(i)

    info = {
        "targets": dict(counts),
        "achieved": achieved,
        "stalled_layers": stalled,
    }
    return H, info
