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

    # a sample spans the rows of a layer's array that its mask holds whole
    arrays = [H._layer_array(i) for i, cnt in sizes.items() if cnt > 0]
    best: np.ndarray | None = None
    best_rows: list[np.ndarray] = []
    best_count = -1
    for _ in range(samples):
        pick = rng.choice(n, size=s, replace=False)
        mask = np.zeros(n, dtype=bool)
        mask[pick] = True
        rows = [mask[E].all(axis=1) for E in arrays]
        count = sum(int(np.count_nonzero(r)) for r in rows)
        if best is None or count < best_count:
            best, best_rows, best_count = pick, rows, count

    assert best is not None
    keep = set(best.tolist())
    spanned = sorted(tuple(e) for E, rows in zip(arrays, best_rows) for e in E[rows].tolist())
    for e in spanned:  # sorted tuples: e[0] is the edge's lowest vertex
        if keep.issuperset(e):
            keep.discard(e[0])
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
