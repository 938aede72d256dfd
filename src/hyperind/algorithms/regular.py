"""Degree completion: pad a capped hypergraph until vertex degrees are exact.

New edges join vertices that are pairwise at distance >= 4 in the current
graph, which keeps every short-cycle condition intact and keeps new pair
degrees at 1.  Vertices still short of a cap at the end form the exceptional
set B with |B| <= k^2 * b^3 for b = 1 + sum (i-1) * cap_i.

The distance test needs no radius-3 ball: dist(x, y) <= 3 iff the closed
neighbourhood N[y] meets the closed radius-2 ball N^2[x], so a candidate is
tested against the union of the chosen vertices' N^2.  In layer 2 every edge
added while x is the smallest deficient vertex contains x, and distances and
the deficient set only shrink, so x's next partner is never before its last
one: one cursor walks the candidates, and adding {x, y} grows N^2[x] by N[y].
"""

from __future__ import annotations

from ..core import LayeredHypergraph, check_integer
from ..errors import InvalidArguments, PreconditionFailed
from ..structure import check_bouquet


def cap_excess(
    H: LayeredHypergraph, vertex_caps: dict[int, int], pair_caps: dict[int, int]
) -> list[tuple[str, int, int, int]]:
    """(kind, layer, cap, observed) for every cap H's largest degree exceeds:
    the "vertex" caps of layers 2..k first, then the "pair" caps on (i-1)-set
    degrees of the layers i >= 3 that pair_caps names."""
    checks = [("vertex", i, 1, vertex_caps[i]) for i in range(2, H.k + 1)]
    checks += [("pair", i, i - 1, pair_caps[i]) for i in range(3, H.k + 1) if i in pair_caps]
    lifts = [(kind, i, cap, H.max_min_degree(i, ell)[0]) for kind, i, ell, cap in checks]
    return [lift for lift in lifts if lift[3] > lift[2]]


def almost_regular_complete(
    H: LayeredHypergraph,
    vertex_caps: dict[int, int],
    pair_caps: dict[int, int] | None = None,
    check_input: bool = True,
) -> tuple[LayeredHypergraph, set[int], dict]:
    """Return (H2, B, info) where H2 >= H respects the caps, keeps the short-
    cycle structure of H, and every vertex outside B meets every vertex cap
    exactly.

    vertex_caps[i] bounds deg in layer i (required for 2..k); pair_caps[i]
    bounds the max (i-1)-set degree for i >= 3, each cap an integer of at
    least 0 (InvalidArguments otherwise).  With check_input the input
    must already satisfy the caps and the structural conditions.
    """
    pair_caps = dict(pair_caps or {})
    for i in range(2, H.k + 1):
        if i not in vertex_caps:
            raise InvalidArguments(f"vertex_caps missing layer {i}")
        check_integer(f"vertex_caps[{i}]", vertex_caps[i], least=0)
        check_integer(f"pair_caps[{i}]", pair_caps.get(i, 0), least=0)

    if check_input:
        report = check_bouquet(H)
        if not report.holds:
            raise PreconditionFailed(
                "input violates the short-cycle conditions", witness=report
            )
        excess = cap_excess(H, vertex_caps, pair_caps)
        if excess:
            # the lowest layer's first excess: its vertex excess if it has one
            kind, i, cap, observed = min(excess, key=lambda lift: lift[1])
            what = "a vertex" if kind == "vertex" else f"an ({i - 1})-set"
            raise PreconditionFailed(
                f"layer {i} has {what} of degree {observed} above cap {cap}"
            )

    H2 = H.copy()
    n = H2.n
    deg = {i: [0] * n for i in range(2, H2.k + 1)}
    near = [{x} for x in range(n)]  # closed neighbourhoods N[x], kept current
    for x in range(n):
        for layer, idx in H2.incidence[x]:
            deg[layer][x] += 1
            near[x].update(H2.layers[layer][idx])

    def ball(x: int) -> set[int]:  # N^2[x], the closed radius-2 ball
        return set().union(*(near[w] for w in near[x]))

    b = 1 + sum((i - 1) * vertex_caps.get(i, 0) for i in range(2, H2.k + 1))
    added = {i: 0 for i in range(2, H2.k + 1)}
    stalled: list[int] = []

    for i in range(2, H2.k + 1):
        cap = vertex_caps[i]
        if cap == 0:
            continue
        if i >= 3 and pair_caps.get(i, 1) < 1:
            # any new i-edge gives its (i-1)-subsets degree 1, so nothing fits
            stalled.append(i)
            continue
        deficient = set(x for x in range(n) if deg[i][x] < cap)
        order = sorted(deficient)  # deficient only shrinks: skip stale entries
        head = 0
        lead = cursor = -1  # layer 2: x's ball and next partner survive its edges
        while len(deficient) >= i:
            while order[head] not in deficient:
                head += 1
            x = order[head]
            if x != lead:
                excluded, cursor = ball(x), head + 1
            chosen = [x]
            for pos in range(cursor, len(order)):
                y = order[pos]
                if y in deficient and excluded.isdisjoint(near[y]):
                    chosen.append(y)
                    if len(chosen) == i:
                        break
                    excluded |= ball(y)
            else:
                break
            H2.add_edge(chosen)
            added[i] += 1
            for v in chosen:
                near[v].update(chosen)
                deg[i][v] += 1
                if deg[i][v] >= cap:
                    deficient.discard(v)
            if i == 2:
                lead, cursor = x, pos + 1
                excluded |= near[y]
        if deficient:
            stalled.append(i)

    B = set()
    for i in range(2, H2.k + 1):
        cap = vertex_caps[i]
        B.update(x for x in range(n) if deg[i][x] < cap)

    info = {
        "b": b,
        "b_bound": H2.k * H2.k * b**3,
        "added_per_layer": added,
        "stalled_layers": stalled,
    }
    return H2, B, info
