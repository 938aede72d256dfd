"""Brute-force reference implementations for small instances.

Everything here trades speed for obviousness: exhaustive enumeration over
subsets, pairs, triples, and quadruples of edges, straight from the
definitions.  The real detectors are tested for exact agreement against
these on random instances with n <= 14.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from itertools import combinations

from hyperind.core import Edge, LayeredHypergraph, MultiEdgeBag, _as_vertex, _vertex_ids
from hyperind.errors import InvalidArguments, InvalidVertex, PreconditionFailed
from hyperind.structure import (
    BouquetReport,
    CycleWitness,
    _inter_size,
    _orient_clean_cycle,
    find_clean_four_cycles,
)

EdgeKey = tuple[int, tuple[int, ...]]


def edge_keys(H: LayeredHypergraph) -> list[EdgeKey]:
    return sorted((layer, e) for layer, e in H.edges())


def brute_deg(H: LayeredHypergraph, vertices) -> int:
    s = set(vertices)
    return sum(1 for _, e in H.edges() if s <= set(e))


def brute_max_min_degree(H: LayeredHypergraph, layer: int, ell: int) -> tuple[int, int]:
    edges = H.layers[layer]
    if not edges:
        return (0, 0)
    if ell == 0:
        return (len(edges), len(edges))
    degs = []
    for sub in itertools.combinations(range(H.n), ell):
        s = set(sub)
        degs.append(sum(1 for e in edges if s <= set(e)))
    return (max(degs), min(degs))


def brute_two_cycles(H: LayeredHypergraph, ell: int | None = None) -> list[frozenset[EdgeKey]]:
    """Unordered pairs of distinct edges sharing exactly ell vertices
    (any count >= 2 when ell is None)."""
    keys = edge_keys(H)
    out = []
    for ka, kb in itertools.combinations(keys, 2):
        shared = len(set(ka[1]) & set(kb[1]))
        if (shared == ell) if ell is not None else (shared >= 2):
            out.append(frozenset((ka, kb)))
    return out


def brute_linear_three(H: LayeredHypergraph) -> list[frozenset[EdgeKey]]:
    """Unordered triples of distinct edges whose pairwise intersections are
    three distinct singletons."""
    keys = edge_keys(H)
    out = []
    for ka, kb, kc in itertools.combinations(keys, 3):
        sab = set(ka[1]) & set(kb[1])
        sac = set(ka[1]) & set(kc[1])
        sbc = set(kb[1]) & set(kc[1])
        if any(len(s) != 1 for s in (sab, sac, sbc)):
            continue
        if len(sab | sac | sbc) == 3:
            out.append(frozenset((ka, kb, kc)))
    return out


def _clean_arrangement(quad: tuple[EdgeKey, ...]) -> bool:
    """Whether the four edges admit a cyclic order with nonempty
    consecutive intersections and empty opposite ones."""
    for opp in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
        a, c, b, d = (set(quad[i][1]) for i in opp)
        if a & c or b & d:
            continue
        if a & b and b & c and c & d and d & a:
            return True
    return False


def brute_clean_four(H: LayeredHypergraph) -> list[frozenset[EdgeKey]]:
    keys = edge_keys(H)
    return [
        frozenset(quad)
        for quad in itertools.combinations(keys, 4)
        if _clean_arrangement(quad)
    ]


def brute_bouquet_violations(H: LayeredHypergraph) -> set[str]:
    """Names of the violated structural conditions, by direct enumeration."""
    violated: set[str] = set()
    keys = edge_keys(H)
    for ka, kb in itertools.combinations(keys, 2):
        shared = len(set(ka[1]) & set(kb[1]))
        if shared < 2:
            continue
        if ka[0] != kb[0]:
            violated.add("i")
        elif shared != ka[0] - 1:
            violated.add("ii")
    for triple in brute_linear_three(H):
        if sum(1 for layer, _ in triple if layer == 2) <= 1:
            violated.add("iii")
            break
    if brute_clean_four(H):
        violated.add("iv")
    edges3 = sorted(set(H.layers.get(3, [])))
    for ea, eb, ec in itertools.combinations(edges3, 3):
        sizes = sorted(
            (
                len(set(ea) & set(eb)),
                len(set(ea) & set(ec)),
                len(set(eb) & set(ec)),
            )
        )
        if sizes == [1, 2, 2]:
            violated.add("v")
            break
    return violated


def brute_vprime(H: LayeredHypergraph) -> list[frozenset[EdgeKey]]:
    """Triples where some middle edge meets the other two in s >= 2 vertices
    each while those two meet in s - 1."""
    keys = edge_keys(H)
    out = []
    for triple in itertools.combinations(keys, 3):
        for mid_idx in range(3):
            mid = set(triple[mid_idx][1])
            others = [set(triple[i][1]) for i in range(3) if i != mid_idx]
            s = len(others[0] & mid)
            if s >= 2 and len(others[1] & mid) == s and len(others[0] & others[1]) == s - 1:
                out.append(frozenset(triple))
                break
    return out


def brute_link_components(H: LayeredHypergraph, x: int) -> list[list[tuple[int, tuple[int, ...]]]]:
    elements = H.link(x)
    groups: list[set[int]] = []
    for idx, (_, residue) in enumerate(elements):
        merged = {idx}
        vset = set(residue)
        rest = []
        for group in groups:
            if any(set(elements[j][1]) & vset for j in group):
                merged |= group
            else:
                rest.append(group)
        groups = rest + [merged]
    components = [sorted(elements[j] for j in group) for group in groups]
    components.sort(key=lambda group: group[0])
    return components


def brute_classify(family) -> tuple[str, tuple[int, ...] | None]:
    """(kind, core) per the clique/sunflower dichotomy.

    Mirrors only the definition: sunflower = all pairwise intersections
    equal one common (i-1)-core; clique = all edges inside one (i+1)-set.
    """
    edges = sorted(set(tuple(sorted(e)) for e in family))
    sizes = set(len(e) for e in edges)
    if len(sizes) > 1:
        return ("not_applicable", None)
    i = sizes.pop()
    if len(edges) == 1:
        return ("sunflower", edges[0])
    for ea, eb in itertools.combinations(edges, 2):
        if len(set(ea) & set(eb)) != i - 1:
            return ("not_applicable", None)
    core = set(edges[0])
    for e in edges[1:]:
        core &= set(e)
    if len(core) == i - 1:
        return ("sunflower", tuple(sorted(core)))
    union = set()
    for e in edges:
        union |= set(e)
    if len(union) <= i + 1:
        return ("clique", None)
    return ("not_applicable", None)


def brute_common_neighbor_max(H: LayeredHypergraph, layer: int) -> int:
    edges = set(H.layers[layer])
    if not edges:
        return 0
    best = 0
    for x, y in itertools.combinations(range(H.n), 2):
        count = 0
        for e in edges:
            if x in e and y not in e:
                s = tuple(sorted(set(e) - {x}))
                if tuple(sorted(s + (y,))) in edges:
                    count += 1
        best = max(best, count)
    return best


def brute_alpha(H: LayeredHypergraph) -> int:
    """Exact independence number by subset enumeration; n <= 20 or so."""
    masks = []
    for _, e in H.edges():
        m = 0
        for v in e:
            m |= 1 << v
        masks.append(m)
    best = 0
    for subset in range(1 << H.n):
        size = subset.bit_count()
        if size <= best:
            continue
        if all((subset & m) != m for m in masks):
            best = size
    return best


def random_layered(rng, n: int, k: int, edges: int) -> LayeredHypergraph:
    """Random mixed-layer instance for oracle comparisons."""
    H = LayeredHypergraph(n, k)
    for _ in range(edges):
        size = int(rng.integers(2, k + 1))
        e = rng.choice(n, size=size, replace=False)
        H.add_edge(tuple(int(v) for v in e))
    return H


def random_count_graph(rng, k: int) -> LayeredHypergraph:
    """Random mixed-layer instance for the l-subset count replays.

    Half the time a sparse graph on up to 15 vertices with up to three
    planted sunflowers: a (k-1)-set in layer k with up to n-k+1 petals, so
    some (k-1)-sets have a high degree.  Otherwise k to k+2 vertices, each
    layer left empty one time in five or holding about 90 % of all its
    sets, so every l-subset of the vertex set is usually covered and the
    min degree is above 0.
    """
    if rng.random() < 0.5:
        n = int(rng.integers(k + 1, 16))
        H = random_layered(rng, n=n, k=k, edges=int(rng.integers(0, 3 * n)))
        for _ in range(int(rng.integers(0, 4))):
            core = [int(v) for v in rng.choice(n, size=k - 1, replace=False)]
            for x in rng.permutation(n)[: int(rng.integers(1, n))].tolist():
                if x not in core:
                    H.add_edge((*core, x))
        return H
    n = int(rng.integers(k, k + 3))
    H = LayeredHypergraph(n, k)
    for i in range(2, k + 1):
        if rng.random() < 0.8:
            for e in itertools.combinations(range(n), i):
                if rng.random() < 0.9:
                    H.add_edge(e)
    return H


def _replay_sample(n: int, p: float, rng) -> set[int]:
    coins = rng.random(n)
    return set(int(x) for x in (coins < p).nonzero()[0])


def _degrees_inside(H: LayeredHypergraph, U: set[int]) -> dict[int, dict[int, int]]:
    out: dict[int, dict[int, int]] = {}
    for layer, e in H.edges():
        if all(v in U for v in e):
            bucket = out.setdefault(layer, {})
            for v in e:
                bucket[v] = bucket.get(v, 0) + 1
    return out


def replay_degree_gap_residue(H, d, case, seed, diag, prune_batch=512):
    """Rebuild the residue the degree-gap pipeline accepted, from the seed
    and the attempt number it recorded, so its claimed properties can be
    checked from outside."""
    from hyperind.rng import stream
    from hyperind.structure import prune_short_cycles

    k = H.k
    n = H.n
    heavy_cut = diag["heavy_cut"]
    sub: dict[tuple[int, ...], int] = {}
    for _, e in H.edges():
        for s in itertools.combinations(e, k - 1):
            sub[s] = sub.get(s, 0) + 1
    heavy = sorted(s for s, c in sub.items() if c >= heavy_cut)
    heavy_set = set(heavy)
    HH = LayeredHypergraph(n, k)
    for s in heavy:
        HH.add_edge(s)
    for _, e in H.edges():
        if not any(s in heavy_set for s in itertools.combinations(e, k - 1)):
            HH.add_edge(e)

    p = diag["p"]
    rng = stream(seed, "degree_gap", "sample", diag["attempt"])
    U = _replay_sample(n, p, rng)
    d1 = {
        i: HH.max_min_degree(i, 1)[0] if HH.layer_sizes().get(i, 0) else 0
        for i in (k - 1, k)
    }
    within = _degrees_inside(HH, U)
    Z = set()
    for i in (k - 1, k):
        cut = 40 * p ** (i - 1) * d1[i]
        for v, c in within.get(i, {}).items():
            if c > cut:
                Z.add(v)
    if case == 1:
        two_ells, clean4 = tuple(range(2, k)), True
    else:
        two_ells, clean4 = tuple(range(2, k - 1)), False
    survivors, _ = prune_short_cycles(
        HH, U - Z, two_ells=two_ells, linear3=True, clean4=clean4,
        batch=prune_batch,
    )
    trim = diag["trim_target"]
    if len(survivors) > trim > 0:
        survivors = set(sorted(survivors)[:trim])
    res, _ = HH.induce(sorted(survivors))
    return res


def replay_graded_caps_residue(H, t, epsilon, seed, diag, prune_batch=512):
    """Same replay for the graded-caps pipeline."""
    from hyperind.rng import stream
    from hyperind.structure import prune_short_cycles

    k = H.k
    n = H.n
    p = diag["p"]
    rng = stream(seed, "graded", "sample", diag["attempt"])
    U = _replay_sample(n, p, rng)
    within = _degrees_inside(H, U).get(k, {})
    Z = set(
        v for v in U
        if within.get(v, 0) > 10 * p ** (k - 1) * len(H.incidence[v])
    )
    survivors, _ = prune_short_cycles(
        H, U - Z, two_ells=tuple(range(2, k - 1)), linear3=True,
        clean4=False, batch=prune_batch,
    )
    trim = diag["trim_target"]
    if len(survivors) > trim > 0:
        survivors = set(sorted(survivors)[:trim])
    res, _ = H.induce(sorted(survivors))
    return res


def replay_kminus2_residue(H, seed, diag, prune_batch=512):
    """Rebuild the residue and the heavy-set graph of the sample-and-split
    pipeline from its recorded attempt."""
    import math

    from hyperind.rng import stream
    from hyperind.structure import prune_short_cycles

    k = H.k
    n = H.n
    rng = stream(seed, "kminus2", "sample", diag["attempt"])
    U = _replay_sample(n, diag["p"], rng)
    deg_u = _degrees_inside(H, U).get(k, {})
    ustar = set(v for v in U if deg_u.get(v, 0) >= diag["heavy_cut"])
    survivors, _ = prune_short_cycles(
        H, U - ustar, two_ells=tuple(range(2, k - 1)), batch=prune_batch
    )
    trim = diag["m_target"]
    if len(survivors) > trim > 0:
        survivors = set(sorted(survivors)[:trim])
    res, _ = H.induce(sorted(survivors))

    m = res.n
    beta = diag["split_exponent"]
    if m <= 1:
        theta = float(k + 2)
    else:
        theta = max(m ** (1 / (2 * k - 2)) / math.log(m) ** beta, float(k + 2))
    sub: dict[tuple[int, ...], int] = {}
    for _, e in res.edges():
        for s in itertools.combinations(e, k - 1):
            sub[s] = sub.get(s, 0) + 1
    g1 = LayeredHypergraph(m, k)
    for s in sorted(s for s, c in sub.items() if c >= theta):
        g1.add_edge(s)
    return res, g1


def replay_layered_bouquet(n, k, counts, rng, vertex_caps=None, max_stall=2000):
    """The edge-by-edge growth of ``gen_layered_bouquet``, re-checking the
    whole graph with ``check_bouquet`` after every insertion.

    It draws from ``rng`` exactly as the generator does, so at one seed the
    two must build the same layers and report the same ``info``; the
    generator's local check has to agree with this whole-graph one on every
    candidate for that to hold.
    """
    from hyperind.structure import check_bouquet

    vertex_caps = dict(vertex_caps or {})
    H = LayeredHypergraph(n, k)
    achieved = {i: 0 for i in sorted(counts)}
    stalled = []
    deg = {i: [0] * n for i in counts}
    for i in sorted(counts):
        if n < i:
            if counts[i]:
                stalled.append(i)
            continue
        cap = vertex_caps.get(i)
        misses = 0
        while achieved[i] < counts[i] and misses < max_stall:
            e = tuple(sorted(int(v) for v in rng.choice(n, size=i, replace=False)))
            if cap is not None and any(deg[i][v] >= cap for v in e):
                misses += 1
            elif not H.add_edge(e):
                misses += 1
            elif check_bouquet(H).holds:
                achieved[i] += 1
                misses = 0
                for v in e:
                    deg[i][v] += 1
            else:
                H.pop_edge(i)
                misses += 1
        if achieved[i] < counts[i]:
            stalled.append(i)
    info = {"targets": dict(counts), "achieved": achieved, "stalled_layers": stalled}
    return H, info


def replay_prune_short_cycles(H, keep, two_ells=(), linear3=False, clean4=False, batch=512):
    """Batched lowest-vertex deletion that re-induces the survivors and
    enumerates every requested kind afresh on each pass.

    ``prune_short_cycles`` resumes its (2,l)-cycle streams across passes
    instead; the two must return the same survivors and the same info.
    """
    from hyperind.structure import (
        find_clean_four_cycles,
        find_linear_three_cycles,
        list_two_cycles,
    )

    deleted = {"two_cycle": 0, "linear_three": 0, "clean_four": 0}
    passes = 0
    keep = set(keep)
    while True:
        passes += 1
        order = sorted(keep)
        sub, _ = H.induce(order)
        doomed: set[int] = set()
        for ell in two_ells:
            for w in list_two_cycles(sub, ell=ell, limit=batch):
                doomed.add(min(v for _, e in w.edges for v in e))
                deleted["two_cycle"] += 1
        if linear3:
            for w in find_linear_three_cycles(sub, limit=batch):
                doomed.add(min(v for _, e in w.edges for v in e))
                deleted["linear_three"] += 1
        if clean4:
            for w in find_clean_four_cycles(sub, limit=batch):
                doomed.add(min(v for _, e in w.edges for v in e))
                deleted["clean_four"] += 1
        if not doomed:
            break
        keep -= {order[v] for v in doomed}
    return keep, {"passes": passes, "witnesses": deleted}


def unrank_combination(idx: int, n: int, k: int) -> tuple[int, ...]:
    """Lexicographic k-combination of range(n) at position idx, by a binary
    search over ``math.comb`` for each position."""
    import math

    out = []
    x = 0
    r = idx
    for pos in range(k):
        m = n - x
        j = k - pos
        # combinations skipping the first i values of [x, n) number
        # C(m, j) - C(m - i, j); binary-search the block holding r
        head = math.comb(m, j)
        lo, hi = 0, m - j
        while lo < hi:
            mid = (lo + hi) // 2
            if head - math.comb(m - mid - 1, j) > r:
                hi = mid
            else:
                lo = mid + 1
        out.append(x + lo)
        r -= head - math.comb(m - lo, j)
        x += lo + 1
    return tuple(out)


def replay_gnp(n, k, p, rng):
    """``gen_gnp`` for 0 < p < 1, unranked with ``unrank_combination``; it
    draws from ``rng`` as the generator does."""
    import math

    H = LayeredHypergraph(n, k)
    total = math.comb(n, k)
    log_q = math.log1p(-p)
    idx = -1
    while True:
        u = rng.random()
        idx += (int(math.log(u) / log_q) if u > 0.0 else total) + 1
        if idx >= total:
            return H
        H.add_edge(unrank_combination(idx, n, k))


def replay_girth5(n, k, t, rng, batch=512):
    """``gen_girth5`` for n >= k, rebuilt from ``unrank_combination`` and
    ``replay_prune_short_cycles``: it draws from ``rng`` as the generator
    does, so at one seed both must return the same layers and ``info``."""
    import math

    p = min(1.0, t ** (k - 1) / math.comb(n - 1, k - 1))
    if p < 1.0:
        H = replay_gnp(n, k, p, rng)
    else:
        H = LayeredHypergraph(n, k)
        for idx in range(math.comb(n, k)):
            H.add_edge(unrank_combination(idx, n, k))
    info = {"initial_edges": H.num_edges(), "p": p}
    stages = (
        ("two_cycle_stage", {"two_ells": tuple(range(2, k))}),
        ("linear_three_stage", {"linear3": True}),
        ("clean_four_stage", {"clean4": True}),
    )
    for name, kinds in stages:
        keep, info[name] = replay_prune_short_cycles(H, set(range(H.n)), batch=batch, **kinds)
        H, _ = H.induce(sorted(keep))
    info["final_n"] = H.n
    info["final_edges"] = H.num_edges()
    return H, info


def replay_almost_regular_complete(
    H: LayeredHypergraph,
    vertex_caps: dict[int, int],
    pair_caps: dict[int, int] | None = None,
    check_input: bool = True,
) -> tuple[LayeredHypergraph, set[int], dict]:
    """Degree completion straight from the distance rule: one radius-3
    ``neighborhood`` per chosen vertex of each added edge, and a fresh
    ``sorted(deficient)`` per edge.

    ``almost_regular_complete`` tests radius-2 balls against closed
    neighbourhoods and walks layer 2 with a cursor instead; the two must
    return the same ``(H2, B, info)`` on every input.
    """
    from hyperind.errors import InvalidArguments, PreconditionFailed
    from hyperind.structure import check_bouquet

    pair_caps = dict(pair_caps or {})
    for i in range(2, H.k + 1):
        if i not in vertex_caps:
            raise InvalidArguments(f"vertex_caps missing layer {i}")
        if vertex_caps[i] < 0 or pair_caps.get(i, 0) < 0:
            raise InvalidArguments("caps must be nonnegative")

    if check_input:
        report = check_bouquet(H)
        if not report.holds:
            raise PreconditionFailed(
                "input violates the short-cycle conditions", witness=report
            )
        for i in range(2, H.k + 1):
            dmax = H.max_min_degree(i, 1)[0]
            if dmax > vertex_caps[i]:
                raise PreconditionFailed(
                    f"layer {i} has a vertex of degree {dmax} above cap {vertex_caps[i]}"
                )
            if i >= 3 and i in pair_caps:
                pmax = H.max_min_degree(i, i - 1)[0]
                if pmax > pair_caps[i]:
                    raise PreconditionFailed(
                        f"layer {i} has an ({i - 1})-set of degree {pmax} "
                        f"above cap {pair_caps[i]}"
                    )

    H2 = H.copy()
    n = H2.n
    deg = {i: [0] * n for i in range(2, H2.k + 1)}
    for x in range(n):
        for layer, _ in H2.incidence[x]:
            deg[layer][x] += 1

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
        while len(deficient) >= i:
            chosen: list[int] = []
            excluded: set[int] = set()
            for x in sorted(deficient):
                if x in excluded:
                    continue
                chosen.append(x)
                if len(chosen) == i:
                    break
                excluded |= H2.neighborhood({x}, 3)
            if len(chosen) < i:
                break
            H2.add_edge(chosen)
            added[i] += 1
            for x in chosen:
                deg[i][x] += 1
                if deg[i][x] >= cap:
                    deficient.discard(x)
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


# -- helpers of the code before the one-index rewrite -------------------------
#
# Verbatim copies, renamed: the id-set helper of the core queries, the
# shared indexes of the cycle detectors, the 2-cycle, linear 3-cycle and v'
# scans and their accumulate-and-break readers, as they were before the
# detectors became streams over one bucket index read through one ``limit``
# reader.  The replays below use them, so they keep comparing against the
# old code; for every limit >= 1 and None the detectors must give the same
# witnesses in the same order.


def _vertex_set(vertices) -> set:
    """set(vertices), with unhashable ids raised as InvalidVertex."""
    try:
        return set(vertices)
    except TypeError as exc:
        raise InvalidVertex(f"vertex ids must be integers: {exc}") from None


def _all_edge_keys(H: LayeredHypergraph) -> list[EdgeKey]:
    return [(layer, e) for layer, e in H.edges()]


def _pair_buckets(H: LayeredHypergraph) -> dict[tuple[int, int], list[EdgeKey]]:
    """vertex pair -> edges containing it, across every layer."""
    buckets: dict[tuple[int, int], list[EdgeKey]] = {}
    for layer, e in H.edges():
        for pair in itertools.combinations(e, 2):
            buckets.setdefault(pair, []).append((layer, e))
    return buckets


def _linear_three_iter(buckets: dict[tuple[int, int], list[EdgeKey]]):
    """Yield linear 3-cycles once each, in deterministic order, from the
    pair buckets of a hypergraph.

    The meeting vertices of a linear 3-cycle form a triangle in the graph of
    covered vertex pairs, so enumeration walks those triangles and filters
    edge combinations by the exact-singleton conditions.
    """
    adj: dict[int, set[int]] = {}
    for a, b in buckets:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    for a, b in sorted(buckets):
        common = adj[a] & adj[b]
        for c in sorted(v for v in common if v > b):
            if (a, c) not in buckets or (b, c) not in buckets:
                continue
            # roles: e_ab meets e_ac at a, e_ab meets e_bc at b, e_ac meets e_bc at c
            for ke_ab in sorted(buckets[(a, b)]):
                set_ab = set(ke_ab[1])
                if c in set_ab:
                    continue
                for ke_ac in sorted(buckets[(a, c)]):
                    if ke_ac == ke_ab:
                        continue
                    set_ac = set(ke_ac[1])
                    if b in set_ac or len(set_ab & set_ac) != 1:
                        continue
                    for ke_bc in sorted(buckets[(b, c)]):
                        if ke_bc == ke_ab or ke_bc == ke_ac:
                            continue
                        set_bc = set(ke_bc[1])
                        if a in set_bc:
                            continue
                        if len(set_ab & set_bc) != 1 or len(set_ac & set_bc) != 1:
                            continue
                        edges = sorted([ke_ab, ke_ac, ke_bc])
                        h2 = sum(1 for layer, _ in edges if layer == 2)
                        yield CycleWitness(
                            kind="linear_three",
                            edges=edges,
                            meeting=(a, b, c),
                            h2_count=h2,
                        )


def _subset_buckets(H: LayeredHypergraph, ell: int) -> dict[Edge, list[EdgeKey]]:
    buckets: dict[Edge, list[EdgeKey]] = {}
    for layer, e in H.edges():
        if len(e) < ell:
            continue
        for sub in itertools.combinations(e, ell):
            buckets.setdefault(sub, []).append((layer, e))
    return buckets


def _replay_overlap_iter(buckets: dict[tuple[int, int], list[EdgeKey]]):
    """Yield (edge, edge, shared vertices) for every pair of edges sharing at
    least two vertices, once each, from the pair buckets of a hypergraph.

    A pair sharing j vertices sits in C(j, 2) buckets; it is emitted only
    from its lexicographically least shared pair, in sorted bucket order.
    """
    for pair in sorted(buckets):
        entries = buckets[pair]
        if len(entries) < 2:
            continue
        entries = sorted(entries)
        for ka, kb in itertools.combinations(entries, 2):
            shared = tuple(sorted(set(ka[1]) & set(kb[1])))
            if shared[:2] == pair:
                yield ka, kb, shared


def _replay_two_cycle_iter(H: LayeredHypergraph, ell: int | None):
    """Yield (2,l)-cycles in deterministic order.

    With ell fixed, a pair sharing exactly ell vertices sits in exactly one
    shared ell-subset bucket, so the pass below emits each cycle once.  With
    ell None, every exact size >= 2 is reported, from ``_overlap_iter``.
    """
    if ell is not None:
        if ell < 2:
            raise InvalidArguments(f"two-cycle overlap must be >= 2, got {ell}")
        buckets = _subset_buckets(H, ell)
        for sub in sorted(buckets):
            entries = buckets[sub]
            if len(entries) < 2:
                continue
            entries = sorted(entries)
            for (la, ea), (lb, eb) in itertools.combinations(entries, 2):
                if (la, ea) == (lb, eb):
                    continue
                if _inter_size(ea, eb) == ell:
                    yield CycleWitness(
                        kind="two_cycle",
                        ell=ell,
                        edges=[(la, ea), (lb, eb)],
                        meeting=sub,
                    )
        return
    for ka, kb, shared in _replay_overlap_iter(_pair_buckets(H)):
        yield CycleWitness(kind="two_cycle", ell=len(shared), edges=[ka, kb], meeting=shared)


def replay_list_two_cycles(H: LayeredHypergraph, ell: int | None = None, limit: int | None = None) -> list[CycleWitness]:
    """All (2,l)-cycles, mixed layers included; ell None means any l >= 2.

    ``limit`` truncates the enumeration deterministically.
    """
    out = []
    for w in _replay_two_cycle_iter(H, ell):
        out.append(w)
        if limit is not None and len(out) >= limit:
            break
    return out


def replay_find_linear_three_cycles(H: LayeredHypergraph, limit: int | None = None) -> list[CycleWitness]:
    """Linear 3-cycles with their layer-2 edge counts in ``h2_count``."""
    out = []
    for w in _linear_three_iter(_pair_buckets(H)):
        out.append(w)
        if limit is not None and len(out) >= limit:
            break
    return out


def replay_check_property_vprime(H: LayeredHypergraph, limit: int | None = None) -> list[CycleWitness]:
    """Triples with |e1 & e2| = |e2 & e3| = l-1 and |e1 & e3| = l-2, l >= 3.

    Edges may come from any layers.  In a hypergraph satisfying bouquet
    conditions i), ii), v) no such triple exists; this detector checks the
    pattern directly.
    """
    keys = sorted(_all_edge_keys(H))
    buckets = _pair_buckets(H)
    out: list[CycleWitness] = []
    for mid_key in keys:
        mid = mid_key[1]
        partners: dict[EdgeKey, int] = {}
        seen: set[EdgeKey] = set()
        for pair in itertools.combinations(mid, 2):
            for other in buckets.get(pair, ()):
                if other != mid_key and other not in seen:
                    seen.add(other)
                    partners[other] = _inter_size(other[1], mid)
        plist = sorted(partners)
        for i, ka in enumerate(plist):
            s = partners[ka]
            if s < 2:
                continue
            for kb in plist[i + 1 :]:
                if partners[kb] != s:
                    continue
                if _inter_size(ka[1], kb[1]) == s - 1:
                    out.append(
                        CycleWitness(
                            kind="vprime",
                            ell=s + 1,
                            edges=sorted([ka, mid_key, kb]),
                            meeting=tuple(sorted(set(ka[1]) & set(kb[1]))),
                        )
                    )
                    if limit is not None and len(out) >= limit:
                        return out
    return out


# -- the bouquet check and contraction before their rewrites -------------------
#
# Verbatim copies: check_bouquet with a whole-graph edge adjacency built
# before the clean 4-cycle scan, its own property i/ii overlap loop and its
# own layer-3 buckets for property v; contract with the all-pairs nesting
# loop.  The rewrites must give equal reports, witnesses, emission order,
# bags and cleaned layers.


def _replay_edge_adjacency(H: LayeredHypergraph) -> tuple[list[EdgeKey], dict[EdgeKey, list[EdgeKey]]]:
    keys = sorted(_all_edge_keys(H))
    by_vertex: dict[int, list[EdgeKey]] = {}
    for key in keys:
        for v in key[1]:
            by_vertex.setdefault(v, []).append(key)
    adj: dict[EdgeKey, list[EdgeKey]] = {}
    for key in keys:
        seen: set[EdgeKey] = set()
        for v in key[1]:
            for other in by_vertex[v]:
                if other != key:
                    seen.add(other)
        adj[key] = sorted(seen)
    return keys, adj


def replay_clean_four_iter(H: LayeredHypergraph):
    """Yield clean 4-cycles once each.

    For every middle edge, paths e1 - mid - e3 with e1 & e3 = {} are bucketed
    by the endpoint pair; two middles for one endpoint pair that are
    themselves disjoint close a clean cycle.  Each cycle shows up under both
    of its opposite pairs, so results are deduplicated by edge set.
    """
    _, adj = _replay_edge_adjacency(H)
    buckets: dict[tuple[EdgeKey, EdgeKey], list[EdgeKey]] = {}
    emitted: set[frozenset[EdgeKey]] = set()
    for mid in sorted(adj):
        neighbors = adj[mid]
        smid = set(mid[1])
        for i, e1 in enumerate(neighbors):
            s1 = set(e1[1])
            for e3 in neighbors[i + 1 :]:
                if not s1.isdisjoint(e3[1]):
                    continue
                pair = (e1, e3)
                prior = buckets.get(pair)
                if prior is None:
                    buckets[pair] = [mid]
                    continue
                for other_mid in prior:
                    if not smid.isdisjoint(other_mid[1]):
                        continue
                    key = frozenset((e1, e3, mid, other_mid))
                    if len(key) < 4 or key in emitted:
                        continue
                    emitted.add(key)
                    yield _orient_clean_cycle((e1, other_mid, e3, mid))
                prior.append(mid)


def replay_find_clean_four_cycles(H: LayeredHypergraph, limit: int | None = None) -> list[CycleWitness]:
    """``find_clean_four_cycles`` over ``replay_clean_four_iter``."""
    out = []
    for w in replay_clean_four_iter(H):
        out.append(w)
        if limit is not None and len(out) >= limit:
            break
    if limit is None:
        out.sort(key=CycleWitness.sort_key)
    return out


def _replay_property_v_iter(H: LayeredHypergraph):
    """Layer-3 triples with overlap pattern (2, 2, 1); the middle edge is the
    unique one meeting both others in two vertices."""
    edges3 = sorted(set(H.layers.get(3, [])))
    if len(edges3) < 3:
        return
    buckets: dict[tuple[int, int], list[Edge]] = {}
    for e in edges3:
        for pair in itertools.combinations(e, 2):
            buckets.setdefault(pair, []).append(e)
    for mid in edges3:
        partners: list[Edge] = []
        seen: set[Edge] = set()
        for pair in itertools.combinations(mid, 2):
            for other in buckets.get(pair, ()):
                if other != mid and other not in seen and _inter_size(other, mid) == 2:
                    seen.add(other)
                    partners.append(other)
        partners.sort()
        for e1, e3 in itertools.combinations(partners, 2):
            if _inter_size(e1, e3) == 1:
                yield CycleWitness(
                    kind="property_v",
                    edges=sorted([(3, e1), (3, mid), (3, e3)]),
                    meeting=tuple(sorted(set(e1) & set(e3))),
                )


def replay_check_bouquet(H: LayeredHypergraph) -> BouquetReport:
    """Evaluate the five bouquet conditions; first witness per violation.

    Properties iii) and iv) trigger full cycle scans, so on large inputs this
    costs what the cycle detectors cost.
    """
    violations: list[tuple[str, object]] = []

    buckets = _pair_buckets(H)
    witness_i = None
    witness_ii = None
    for pair in sorted(buckets):
        entries = buckets[pair]
        if len(entries) < 2:
            continue
        entries = sorted(entries)
        for (la, ea), (lb, eb) in itertools.combinations(entries, 2):
            shared = tuple(sorted(set(ea) & set(eb)))
            if shared[:2] != pair:
                continue  # count each pair of edges once, from its least shared pair
            if la != lb:
                if witness_i is None:
                    witness_i = CycleWitness(
                        kind="cross_layer_overlap", edges=[(la, ea), (lb, eb)], meeting=shared, ell=len(shared)
                    )
            else:
                if len(shared) != la - 1 and witness_ii is None:
                    witness_ii = CycleWitness(
                        kind="within_layer_overlap", edges=[(la, ea), (lb, eb)], meeting=shared, ell=len(shared)
                    )
        if witness_i is not None and witness_ii is not None:
            break
    if witness_i is not None:
        violations.append(("i", witness_i))
    if witness_ii is not None:
        violations.append(("ii", witness_ii))

    for w in _linear_three_iter(buckets):
        if w.h2_count <= 1:
            violations.append(("iii", w))
            break

    for w in replay_clean_four_iter(H):
        violations.append(("iv", w))
        break

    for w in _replay_property_v_iter(H):
        violations.append(("v", w))
        break

    return BouquetReport(holds=not violations, violations=violations)


def replay_contract(H: LayeredHypergraph, vstar) -> tuple[MultiEdgeBag, LayeredHypergraph]:
    """Contract every edge of H onto a vertex subset and clean the result.

    The bag holds all contractions e & vstar with at least 2 vertices.  The
    cleaned hypergraph (same vertex ids as H) keeps one copy of each distinct
    contraction and then discards any contraction that properly contains
    another surviving one, so no edge of the result nests inside a smaller
    edge.  Contractions of size <= 1 are dropped and counted.
    """
    vset = _vertex_set(vstar)
    for v in vset:
        if type(v) is not int or not (0 <= v < H.n):
            _as_vertex(v, H.n)
    bag = MultiEdgeBag()
    for layer, e in H.edges():
        ce = tuple(v for v in e if v in vset)
        if len(ce) >= 2:
            bag.edges.append(ce)
            bag.sources.append((layer, e))
        else:
            bag.dropped_small += 1
    distinct = set(bag.edges)
    # drop proper supersets of surviving contractions, smallest first
    by_size = sorted(distinct, key=len)
    kept: set[Edge] = set()
    for ce in by_size:
        ce_set = set(ce)
        nested = False
        for other in kept:
            if len(other) < len(ce) and set(other) <= ce_set:
                nested = True
                break
        if not nested:
            kept.add(ce)
    cleaned = LayeredHypergraph(H.n, H.k)
    for ce in sorted(kept, key=lambda e: (len(e), e)):
        cleaned.add_edge(ce)
    return bag, cleaned


# -- the l-subset counts before they shared one count in core ------------------
#
# Verbatim copies, renamed: ``LayeredHypergraph.max_min_degree``'s dict loop,
# the pipelines' ``_heavy_light`` with the forbidden-gap loop and graph build
# of ``pipeline_degree_gap``, and ``common_neighbor_max``, as they were before
# all of them read the runs of ``core.subset_runs``.


def replay_max_min_degree(H: LayeredHypergraph, layer: int, ell: int) -> tuple[int, int]:
    """(max, min) degree over ell-subsets within one layer.

    The max ranges over ell-subsets of edges (any uncovered subset has
    degree 0, so this loses nothing).  The min ranges over *all*
    ell-subsets of the vertex set, hence is 0 as soon as some ell-subset
    lies in no edge.  An empty layer reports (0, 0).

    Raises
    ------
    InvalidArguments : layer outside 2..k or ell not in 0..layer-1
    """
    if layer not in H.layers:
        raise InvalidArguments(f"layer {layer} outside 2..{H.k}")
    if not (0 <= ell < layer):
        raise InvalidArguments(f"ell={ell} must satisfy 0 <= ell < {layer}")
    edges = H.layers[layer]
    if not edges:
        return (0, 0)
    if ell == 0:
        m = len(edges)
        return (m, m)
    counts: dict[Edge, int] = {}
    for e in edges:
        for sub in itertools.combinations(e, ell):
            counts[sub] = counts.get(sub, 0) + 1
    dmax = max(counts.values())
    total_subsets = math.comb(H.n, ell)
    dmin = min(counts.values()) if len(counts) == total_subsets else 0
    return (dmax, dmin)


def replay_heavy_light(H: LayeredHypergraph, cut: float) -> tuple[list, list, Counter]:
    """(heavy (k-1)-sets of degree >= cut, sorted; the edges containing none
    of them; the degree of every (k-1)-set inside an edge) of a k-uniform H."""
    sub_deg: Counter = Counter()
    for _, e in H.edges():
        sub_deg.update(combinations(e, H.k - 1))
    heavy = sorted(s for s, c in sub_deg.items() if c >= cut)
    heavy_set = set(heavy)
    light = [
        e
        for _, e in H.edges()
        if not any(s in heavy_set for s in combinations(e, H.k - 1))
    ]
    return heavy, light, sub_deg


def replay_degree_gap_split(H: LayeredHypergraph, d: float, case: int, epsilon: float | None = None) -> LayeredHypergraph:
    """``pipeline_degree_gap`` from its heavy/light split to the graph HH the
    rounds start from, under the default config: the (k-2)-degree check, the
    forbidden-gap check and (case 2) the clean-4 check raise as they did."""
    k = H.k
    n = H.n
    ratio = n / d
    eps_eff = min(epsilon, 1 / (4 * k)) if case == 1 else None

    heavy_cut = n ** ((k - 2) / (k - 1)) * d ** (1 / (k - 1))
    heavy, light, sub_deg = replay_heavy_light(H, heavy_cut)

    observed = replay_max_min_degree(H, k, k - 2)[0]
    if observed > d * H.n:
        raise PreconditionFailed(
            f"max ({k - 2})-set degree {observed} exceeds d*n = {d * H.n:.3f}"
        )
    if case == 1:
        gap_lo = n ** ((k - 2) / (k - 1) - eps_eff) * d ** (1 / (k - 1) + eps_eff)
    else:
        gap_lo = heavy_cut / math.log(ratio) ** (k + 1)
    for s, c in sub_deg.items():
        if gap_lo < c < heavy_cut:
            raise PreconditionFailed(
                f"({k - 1})-set degree {c} falls in the forbidden gap "
                f"({gap_lo:.4f}, {heavy_cut:.4f})",
                witness=s,
            )
    if case == 2 and find_clean_four_cycles(H, limit=1):
        raise PreconditionFailed("case 2 needs a clean-4-free input")

    HH = LayeredHypergraph(n, k)
    for e in heavy + light:
        HH.add_edge(e)
    return HH


def replay_common_neighbor_max(H: LayeredHypergraph, layer: int | None = None) -> int:
    """Largest number of common completions shared by two vertices.

    For a single layer of i-uniform edges this is the maximum over vertex
    pairs x != y of the number of (i-1)-sets S with S + {x} and S + {y} both
    edges.  With ``layer`` omitted, the sole nonempty layer is used; an
    edgeless hypergraph reports 0.
    """
    if layer is None:
        nonempty = [i for i in range(2, H.k + 1) if H.layers[i]]
        if not nonempty:
            return 0
        if len(nonempty) > 1:
            raise InvalidArguments(f"multiple nonempty layers {nonempty}; pass layer explicitly")
        layer = nonempty[0]
    if layer not in H.layers:
        raise InvalidArguments(f"layer {layer} outside 2..{H.k}")
    completions: dict[Edge, list[int]] = {}
    for e in sorted(set(H.layers[layer])):
        for x in e:
            rest = tuple(v for v in e if v != x)
            completions.setdefault(rest, []).append(x)
    pair_counts: dict[tuple[int, int], int] = {}
    best = 0
    for rest in sorted(completions):
        ext = sorted(completions[rest])
        if len(ext) < 2:
            continue
        for x, y in itertools.combinations(ext, 2):
            count = pair_counts.get((x, y), 0) + 1
            pair_counts[(x, y)] = count
            if count > best:
                best = count
    return best


# -- the edge scans and the per-attempt round before their rewrites ------------
#
# Verbatim copies, renamed: ``LayeredHypergraph.induce`` and ``is_independent``
# as whole-graph edge scans, before they counted the set's incidence entries
# (``_degrees_inside`` above is the pipelines' ``_degrees_within`` of that
# time); ``akpss_step`` and ``akpss_run`` as they
# were before the round's caps, completion and N(B) were built once per round,
# with every attempt redoing them.  The replayed round reaches induce and the
# independence test through the scans here, so it keeps comparing against the
# old code end to end.


def replay_induce(H: LayeredHypergraph, vertices) -> tuple[LayeredHypergraph, dict[int, int]]:
    """Subhypergraph on a vertex subset, relabeled to 0..|U|-1.

    Keeps exactly the edges fully inside the subset.  Returns the new
    hypergraph and the old->new relabeling map (ascending ids map to
    ascending ids).
    """
    uset = _vertex_ids(vertices, H.n)
    u = sorted(uset)
    old_to_new = {v: i for i, v in enumerate(u)}
    sub = LayeredHypergraph(len(u), H.k)
    for i in range(2, H.k + 1):
        for e in H.layers[i]:
            if all(v in uset for v in e):
                sub.add_edge(tuple(old_to_new[v] for v in e))
    return sub, old_to_new


def replay_is_independent(H: LayeredHypergraph, vertices) -> tuple[bool, Edge | None]:
    """Whether no edge lies inside the set; returns a witness edge if one does."""
    s = _vertex_ids(vertices, H.n)
    for i in range(2, H.k + 1):
        for e in H.layers[i]:
            if all(v in s for v in e):
                return False, e
    return True, None


def replay_akpss_step(H, sched, m, rng, force_sample=None, collect_contraction_data=False):
    """Run round m+1 on H (the round-m graph). Returns the next graph, the
    old->new vertex map, and the StepState.

    force_sample bypasses the coin flips for C (tests). Raises RoundCollapsed
    when no vertex survives; the exception carries the state so the caller
    can still bank the harvested set.
    """
    import numpy as np

    from hyperind.algorithms.akpss import StepState, mu_i_to_j
    from hyperind.algorithms.regular import almost_regular_complete, cap_excess
    from hyperind.core import contract
    from hyperind.errors import RoundCollapsed

    n = H.n
    k = H.k
    eps = sched.epsilon

    vertex_caps = {i: sched.vertex_cap(m, i) for i in range(2, k + 1)}
    pair_caps = {i: sched.pair_cap(m, i) for i in range(3, k + 1)}
    cap_lifts = cap_excess(H, vertex_caps, pair_caps)
    for kind, i, _, observed in cap_lifts:
        (vertex_caps if kind == "vertex" else pair_caps)[i] = observed

    H2, irregular, comp_info = almost_regular_complete(
        H, vertex_caps, pair_caps, check_input=False
    )

    p = sched.p_at(m + 1)
    clamped = False
    if p > 1.0:
        p = 1.0
        clamped = True
    if force_sample is not None:
        sampled = set(force_sample)
    else:
        coins = rng.random(n)
        sampled = set(int(x) for x in np.nonzero(coins < p)[0])

    dominated: set[int] = set()
    for _, e in H2.edges():
        missing = [v for v in e if v not in sampled]
        if not missing:
            dominated.update(e)
        elif len(missing) == 1:
            dominated.add(missing[0])

    nb = H2.neighborhood(irregular, 1)
    vprime = set(range(n)) - irregular - sampled - dominated

    # One pass over edges accumulates every deg_{i->j}(x) at once.  The
    # membership requirement is on the link e - {x}, not on x itself, so an
    # edge with exactly one vertex outside vprime | sampled counts for that
    # vertex only.
    deg_ij: dict[tuple[int, int], dict[int, int]] = {}
    for layer, e in H2.edges():
        n_v = 0
        outside: list[int] = []
        for v in e:
            if v in vprime:
                n_v += 1
            elif v not in sampled:
                outside.append(v)
        if len(outside) > 1:
            continue
        if len(outside) == 1:
            x = outside[0]
            bucket = deg_ij.setdefault((layer, n_v + 1), {})
            bucket[x] = bucket.get(x, 0) + 1
        else:
            for v in e:
                j = n_v + 1 - (1 if v in vprime else 0)
                bucket = deg_ij.setdefault((layer, j), {})
                bucket[v] = bucket.get(v, 0) + 1

    thresh_factor = (1.0 + eps / 4.0) ** 2
    overflow: set[int] = set()
    z_domain = set(range(n)) - nb - sampled
    for (i, j), bucket in sorted(deg_ij.items()):
        if j < 2:
            continue
        for x, value in bucket.items():
            if x in z_domain and value > thresh_factor * mu_i_to_j(H2, x, p, i, j):
                overflow.add(x)

    waste = nb | overflow
    independent = sampled - dominated - waste
    survivors = set(range(n)) - sampled - dominated - waste

    keep = survivors | independent
    sub = LayeredHypergraph(n, k)
    for layer, e in H2.edges():
        if all(v in keep for v in e):
            sub.add_edge(e)
    bag, cleaned = contract(sub, survivors)
    H_next, old_to_new = replay_induce(cleaned, sorted(survivors))

    diagnostics = {
        "p": p,
        "p_clamped": clamped,
        "cap_lifts": cap_lifts,
        "completion": comp_info,
        "completed_edges": H2.num_edges(),
        "sampled_raw": len(sampled),
        "independent_pre_waste": len(sampled - irregular - dominated),
        "vprime": len(vprime),
        "neighborhood_irregular": len(nb),
        "bag_edges": len(bag.edges),
        "bag_dropped_small": bag.dropped_small,
        "cleaned_edges": cleaned.num_edges(),
        "deg_ij_max": {
            key: max(bucket.values()) for key, bucket in sorted(deg_ij.items())
        },
    }
    if collect_contraction_data:
        diagnostics["deg_ij"] = deg_ij
        diagnostics["vprime_set"] = frozenset(vprime)
        diagnostics["completed"] = H2

    state = StepState(
        m=m,
        sampled=frozenset(sampled),
        dominated=frozenset(dominated),
        irregular=frozenset(irregular),
        overflow=frozenset(overflow),
        waste=frozenset(waste),
        independent=frozenset(independent),
        survivors=frozenset(survivors),
        diagnostics=diagnostics,
    )
    if not survivors:
        raise RoundCollapsed(f"round {m + 1} left no survivors", state=state)
    return H_next, old_to_new, state


def replay_akpss_run(H, sched, seed, retries_per_round=16, verify_rounds=False, check_input=True):
    """Drive replay_akpss_step for the scheduled number of rounds and return a
    verified certificate.

    Each round is retried with fresh coins until the survivor count lands in
    the scheduled window, the harvest reaches (1-eps) n gamma / (e t), and
    the overflow stays under eps gamma n / (3 e t); after retries_per_round
    attempts the attempt with the largest harvest wins.  Streams are derived
    from (seed, "round", m, "attempt", a), so runs are reproducible.
    """
    from hyperind.algorithms.akpss import MAX_RETRIES, RunCertificate, StepState
    from hyperind.algorithms.regular import cap_excess
    from hyperind.core import check_integer
    from hyperind.errors import RoundCollapsed
    from hyperind.rng import stream
    from hyperind.structure import check_bouquet

    check_integer("retries_per_round", retries_per_round, 1, MAX_RETRIES)
    warnings: list[str] = []
    if check_input:
        report = check_bouquet(H)
        if not report.holds:
            raise PreconditionFailed(
                "input violates the short-cycle conditions", witness=report
            )
    excess = cap_excess(
        H,
        {i: sched.vertex_cap(0, i) for i in range(2, H.k + 1)},
        {i: sched.pair_cap(0, i) for i in range(3, H.k + 1)},
    )
    # layer by layer; the sort is stable, so a layer's vertex excess stays first
    for kind, i, cap, observed in sorted(excess, key=lambda lift: lift[1]):
        if kind == "vertex":
            msg = f"layer {i} max degree {observed} exceeds round-0 cap {cap}"
        else:
            msg = f"layer {i} max ({i - 1})-set degree {observed} exceeds cap {cap}"
        if sched.strict:
            raise PreconditionFailed(msg)
        warnings.append(msg)

    current = H
    to_original = list(range(H.n))
    harvested: set[int] = set()
    rounds: list[dict] = []
    collapsed = False

    for m in range(sched.M):
        n_m = current.n
        if n_m == 0:
            warnings.append(f"round {m + 1}: no vertices left, stopping early")
            break
        gamma = sched.gamma_at(m + 1)
        t_prev = sched.t[m]
        harvest_floor = (1 - sched.epsilon) * n_m * gamma / (math.e * t_prev)
        overflow_cap = sched.epsilon * gamma * n_m / (3 * math.e * t_prev)

        best: tuple[LayeredHypergraph, dict[int, int], StepState] | None = None
        best_good = False
        attempts_used = 0
        for attempt in range(retries_per_round):
            attempts_used = attempt + 1
            rng = stream(seed, "round", m, "attempt", attempt)
            try:
                result = replay_akpss_step(current, sched, m, rng)
            except RoundCollapsed as rc:
                # n_lo[m+1] > 0, so a collapsed attempt never hits the window
                result = (LayeredHypergraph(0, H.k), {}, rc.state)
            h_next, relabel, state = result
            good_window = sched.n_lo[m + 1] <= h_next.n <= sched.n_hi[m + 1]
            good_harvest = len(state.independent) >= harvest_floor
            good_overflow = len(state.overflow) <= overflow_cap
            if best is None or len(state.independent) > len(best[2].independent):
                best = result
            if good_window and good_harvest and good_overflow:
                best = result
                best_good = True
                break

        assert best is not None
        h_next, relabel, state = best
        round_info = {
            "round": m + 1,
            "n_before": n_m,
            "n_after": h_next.n,
            "attempts": attempts_used,
            "good": best_good,
            "window": (sched.n_lo[m + 1], sched.n_hi[m + 1]),
            "harvest_floor": harvest_floor,
            "overflow_cap": overflow_cap,
            "sampled": len(state.sampled),
            "dominated": len(state.dominated),
            "irregular": len(state.irregular),
            "overflow": len(state.overflow),
            "waste": len(state.waste),
            "harvested": len(state.independent),
            "cap_lifts": state.diagnostics.get("cap_lifts", []),
        }
        if not best_good:
            warnings.append(
                f"round {m + 1}: no attempt hit all windows after "
                f"{attempts_used} tries, kept the largest harvest"
            )
        harvested.update(to_original[x] for x in state.independent)
        if verify_rounds:
            round_info["structure_ok"] = check_bouquet(h_next).holds

        if not state.survivors or h_next.n == 0:
            rounds.append(round_info)
            collapsed = True
            warnings.append(f"round {m + 1}: graph collapsed, stopping early")
            break

        next_map = [0] * h_next.n
        for old, new in relabel.items():
            next_map[new] = to_original[old]
        to_original = next_map
        current = h_next
        rounds.append(round_info)

    result_set = tuple(sorted(harvested))
    ok, witness = replay_is_independent(H, result_set)
    if not ok:
        raise AssertionError(
            f"harvested set spans an edge, this is a bug: {witness}"
        )
    return RunCertificate(
        algorithm="akpss",
        independent_set=result_set,
        verified=True,
        rounds=rounds,
        diagnostics={
            "rounds_completed": len(rounds),
            "rounds_scheduled": sched.M,
            "collapsed": collapsed,
            "final_n": current.n if not collapsed else 0,
        },
        warnings=warnings,
    )
