"""Input families for tests and experiments.

gen_gnp draws each k-set independently; gen_girth5 layers strict cycle
pruning on top of it; gen_disjoint_cliques has a closed-form optimum for
calibration; gen_layered_bouquet grows a multi-layer instance edge by edge
under the structural conditions, testing each candidate against the edges
it would share a forbidden set with before adding it.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .core import LayeredHypergraph, check_integer, check_real
from .errors import InvalidArguments
from .structure import (
    _closes_violation,
    check_bouquet,
    find_clean_four_cycles,
    find_linear_three_cycles,
    list_two_cycles,
    prune_short_cycles,
)

# refuse to materialize absurd instances rather than hang
MAX_EXPECTED_EDGES = 5_000_000

# gen_gnp draws its uniforms this many at a time; small blocks cost no more
# per value than large ones and waste less memory on small draws
_DRAW_BLOCK = 1 << 12


def _binomial_tables(n: int, k: int) -> list[list[int]]:
    """tables[j][t] = C(t, j) for 0 <= j <= k and 0 <= t <= n."""
    tables = [[1] * (n + 1)]
    for _ in range(k):
        # hockey stick: C(t, j) = sum of C(s, j - 1) over s < t
        tables.append([0, *itertools.accumulate(tables[-1][:n])])
    return tables


def _unrank_combinations(ranks, n: int, k: int) -> np.ndarray:
    """The lexicographic k-combinations of range(n) at the given ranks, each
    in 0..C(n, k) - 1, as the rows of an int64 array.

    All ranks go through each of the k positions together.  Ranks and
    binomials are int64 when C(n, k) < 2^63 and Python ints in an object
    array otherwise, so the arithmetic is exact either way.
    """
    total = math.comb(n, k)
    dtype = np.int64 if total < 2**63 else object
    r = np.array(ranks, dtype=dtype)
    m = np.full(len(r), n)  # per rank, the values n - m .. n - 1 are still free
    out = np.empty((len(r), k), dtype=np.int64)
    for pos, col in enumerate(reversed(_binomial_tables(n, k)[1:])):
        # col is C(t, j) for the j = k - pos values still to pick.  A search
        # never reaches past C(m, j) <= C(n, k), so larger entries are cut.
        col = np.array(col[: bisect.bisect_right(col, total)], dtype=dtype)
        # combinations skipping the first i free values number
        # C(m, j) - C(m - i, j), so the next value is n - 1 - t for the
        # largest t < m with C(t, j) < C(m, j) - r.  C(t, j) rises with t
        # from C(j - 1, j) = 0 and 1 <= C(m, j) - r <= C(m, j), so a search
        # of the whole column lands in j - 1 .. m - 1.
        head = col[m]
        t = np.searchsorted(col, head - r) - 1
        out[:, pos] = n - 1 - t
        r = r - (head - col[t + 1])
        m = t
    return out


def gen_gnp(
    n: int, k: int, p: float, rng: np.random.Generator
) -> LayeredHypergraph:
    """Binomial k-graph: every k-subset becomes an edge with probability p.

    Edges are visited by jumping geometric gaps through the lexicographic
    enumeration, so the cost is proportional to the number of edges drawn,
    not to C(n, k).

    Each gap takes one ``rng.random()`` value, one more than there are
    edges.  The values are drawn ``_DRAW_BLOCK`` at a time.  The block that
    holds the last one is drawn again from the ``rng.bit_generator.state``
    saved before it, this time only up to that value, so ``rng`` ends where
    one-at-a-time draws leave it, whatever its bit generator.
    """
    check_integer("n", n, least=0)
    check_integer("k", k, least=2)
    check_real("p", p)
    if not 0.0 <= p <= 1.0:
        raise InvalidArguments(f"p must lie in 0..1, got {p!r}")
    H = LayeredHypergraph(n, k)
    total = math.comb(n, k)
    if total == 0 or p == 0.0:
        return H
    if p * total > MAX_EXPECTED_EDGES:
        raise InvalidArguments(
            f"expected edge count {p * total:.3g} exceeds {MAX_EXPECTED_EDGES}"
        )
    if p >= 1.0:
        H._extend_layer(k, list(itertools.combinations(range(n), k)))
        return H
    log, log_q = math.log, math.log1p(-p)
    ranks = []
    idx = -1
    while idx < total:
        state = rng.bit_generator.state
        for used, u in enumerate(rng.random(_DRAW_BLOCK).tolist(), 1):
            # geometric gap: failures before the next success.  Below p of
            # about 1e-307 the quotient can overflow; that gap lies past
            # every rank
            try:
                gap = int(log(u) / log_q) if u > 0.0 else total
            except OverflowError:
                gap = total
            idx += gap + 1
            if idx >= total:
                rng.bit_generator.state = state
                rng.random(used)
                break
            ranks.append(idx)
    H._extend_layer(k, list(map(tuple, _unrank_combinations(ranks, n, k).tolist())))
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
    check_integer("n", n, least=0)
    check_integer("k", k, least=2)
    check_real("t", t, above=0)
    if batch is not None:
        check_integer("batch", batch, least=1)
    # with n < k there is no k-set to draw, and the stages find nothing
    p = min(1.0, t ** (k - 1) / math.comb(n - 1, k - 1)) if n >= k else 0.0
    H = gen_gnp(n, k, p, rng)
    initial = H.num_edges()

    # each stage prunes the graph H induces on the previous stage's survivors
    keep, info2 = prune_short_cycles(H, set(range(n)), two_ells=tuple(range(2, k)), batch=batch)
    keep, info3 = prune_short_cycles(H, keep, linear3=True, batch=batch)
    keep, info4 = prune_short_cycles(H, keep, clean4=True, batch=batch)
    H4, _ = H.induce(sorted(keep))

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
    check_integer("n", n, least=0)
    check_integer("k", k, least=2)
    check_integer("s", s, least=1)
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
    given, additionally bounds per-vertex degrees per layer.  Both take
    layers in 2..k and nonnegative integers.  A candidate that is already
    an edge, would exceed a cap or would break a condition is skipped
    before anything is added; after max_stall (an integer of at least 1)
    consecutive misses in a layer the generator gives up on it and reports
    the shortfall instead of looping forever.

    Each candidate is tested against the edges around it only
    (``_closes_violation``).  That decides exactly as a whole-graph
    ``check_bouquet`` of the graph with the candidate would, because the
    graph is clean before the candidate comes, so any violation has to go
    through the candidate.
    """
    check_integer("n", n, least=0)
    check_integer("k", k, least=2)
    vertex_caps = dict(vertex_caps or {})
    for name, table in (("counts", counts), ("vertex_caps", vertex_caps)):
        for i, value in table.items():
            check_integer(f"{name} layer", i, 2, k)
            check_integer(f"{name}[{i}]", value, least=0)
    # no None: without a stall limit a layer that cannot reach its target
    # would never end
    check_integer("max_stall", max_stall, least=1)
    H = LayeredHypergraph(n, k)
    achieved = {i: 0 for i in sorted(counts)}
    stalled: list[int] = []
    deg = {i: [0] * n for i in counts}

    for i in sorted(counts):
        target = counts[i]
        if n < i:
            if target:
                stalled.append(i)
            continue
        cap = vertex_caps.get(i)
        misses = 0
        while achieved[i] < target and misses < max_stall:
            e = tuple(sorted(int(v) for v in rng.choice(n, size=i, replace=False)))
            if (
                (cap is not None and any(deg[i][v] >= cap for v in e))
                or H.has_edge(e)
                or _closes_violation(H, e)
            ):
                misses += 1
                continue
            H.add_edge(e)
            achieved[i] += 1
            misses = 0
            for v in e:
                deg[i][v] += 1
        if achieved[i] < target:
            stalled.append(i)

    info = {
        "targets": dict(counts),
        "achieved": achieved,
        "stalled_layers": stalled,
    }
    return H, info
