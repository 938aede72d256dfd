"""Baseline independent-set heuristics: sample-and-delete and greedy.

Both return plain sorted tuples of vertex ids and never return a set that
spans an edge; callers that need certificates wrap them.
"""

from __future__ import annotations

import numpy as np

from ..core import LayeredHypergraph, check_integer
from ..errors import InvalidArguments

GREEDY_ORDERS = ("mindegree", "random")
MAX_SAMPLES = 10_000  # spencer_set draws one subset per sample


def spencer_set(
    H: LayeredHypergraph,
    rng: np.random.Generator,
    samples: int = 20,
) -> tuple[int, ...]:
    """Sample-and-delete: draw vertex subsets of size ~ n / d^(1/(k-1)),
    keep the one spanning the fewest edges, then delete one vertex per
    spanned edge.

    The target size uses the average degree d = k * |H| / n, where k is the
    largest uniformity that actually carries edges.  With d = 0 the whole
    vertex set is independent and is returned as-is.
    """
    check_integer("samples", samples, 20, MAX_SAMPLES)
    n = H.n
    if n == 0:
        return ()
    m_edges = H.num_edges()
    if m_edges == 0:
        return tuple(range(n))
    sizes = H.layer_sizes()
    k = max(i for i, cnt in sizes.items() if cnt > 0)
    d = k * m_edges / n
    s = min(n, int(n / d ** (1.0 / (k - 1))))
    if s <= 0:
        return ()

    all_edges = [set(e) for _, e in H.edges()]
    best: np.ndarray | None = None
    best_spanned: list[set[int]] | None = None
    for _ in range(samples):
        pick = rng.choice(n, size=s, replace=False)
        pick_set = set(int(v) for v in pick)
        spanned = [e for e in all_edges if e <= pick_set]
        if best_spanned is None or len(spanned) < len(best_spanned):
            best = pick
            best_spanned = spanned

    assert best is not None and best_spanned is not None
    keep = set(int(v) for v in best)
    for e in sorted(best_spanned, key=sorted):
        if e <= keep:
            keep.discard(min(e))
    return tuple(sorted(keep))


def greedy_set(
    H: LayeredHypergraph,
    rng: np.random.Generator | None = None,
    order: str = "mindegree",
) -> tuple[int, ...]:
    """One greedy pass: scan vertices in the given order and add each vertex
    unless it would complete an edge together with vertices already taken.

    order "mindegree" sorts by (deg, id); "random" shuffles and needs rng.
    The result is maximal: a skipped vertex stays blocked because picked
    vertices are never removed.
    """
    if order not in GREEDY_ORDERS:
        raise InvalidArguments(f"order must be one of {GREEDY_ORDERS}, got {order!r}")
    n = H.n
    if n == 0:
        return ()
    if order == "random":
        if rng is None:
            raise InvalidArguments("order 'random' needs an rng")
        scan = [int(v) for v in rng.permutation(n)]
    else:
        scan = sorted(range(n), key=lambda x: (len(H.incidence[x]), x))

    # picked[(layer, idx)] counts chosen vertices per edge; size-1 short of
    # the edge size means the candidate would complete it.
    picked_in_edge: dict[tuple[int, int], int] = {}
    chosen: list[int] = []
    for x in scan:
        blocked = False
        for ref in H.incidence[x]:
            size = ref[0]  # an edge's layer is its size
            if picked_in_edge.get(ref, 0) == size - 1:
                blocked = True
                break
        if blocked:
            continue
        chosen.append(x)
        for ref in H.incidence[x]:
            picked_in_edge[ref] = picked_in_edge.get(ref, 0) + 1
    return tuple(sorted(chosen))
