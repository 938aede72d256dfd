"""Short-cycle detection and the bouquet property.

The cycle taxonomy this module works with:

* (2,l)-cycle: two distinct edges, any layers, sharing exactly l >= 2
  vertices.
* linear 3-cycle: three edges whose pairwise intersections are three
  distinct singletons.
* clean 4-cycle: four edges e1..e4 with nonempty consecutive intersections
  (indices mod 4) whose opposite pairs are disjoint, e1 & e3 = e2 & e4 = {}.

The bouquet property bundles five conditions on a layered hypergraph:

  i)   edges from different layers meet in at most one vertex;
  ii)  two layer-i edges meet in 0, 1, or i-1 vertices;
  iii) every linear 3-cycle uses at least two layer-2 edges;
  iv)  no clean 4-cycle;
  v)   no layer-3 triple with |e1 & e2| = |e2 & e3| = 2 and |e1 & e3| = 1.

A strengthened form of v) for every uniformity (the v' pattern,
|e1 & e2| = |e2 & e3| = l-1 with |e1 & e3| = l-2) follows from i), ii), v);
``check_property_vprime`` detects it directly.

Every detector is a lazy stream of witnesses in a fixed order, read in one
way (``_take``).  The (2,l)-cycle streams are built on the shared-subset
index (``_shared_buckets``), which holds only the l-subsets lying in two or
more edges; it is built on the runs of ``core.subset_runs``, the one count
of l-subsets of edges, as is ``common_neighbor_max``.  ``check_bouquet``,
the linear 3-cycle scan and the v' scan read covered pairs off the forward
pair index (``_PairIndex``), which maps a vertex a to the keys of the edges
through a and each later vertex b; a vertex's map is built from its
incidence list the first time it is read, so a scan that stops early
builds only the maps it walked.  ``_closes_violation`` decides one
candidate edge against a clean graph from its incidence lists alone, with
no index.  A ``limit`` argument reads a prefix of a stream: ``None`` means
every witness, ``0`` none, and a negative or non-integer limit raises
InvalidArguments.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core import LayeredHypergraph, _vertex_ids, check_integer, subset_runs
from .errors import InvalidArguments

__all__ = [
    "CycleWitness",
    "BouquetReport",
    "Classification",
    "count_two_cycles",
    "list_two_cycles",
    "find_linear_three_cycles",
    "find_clean_four_cycles",
    "check_bouquet",
    "check_property_vprime",
    "link_components",
    "classify_intersecting_family",
    "common_neighbor_max",
]

Edge = tuple[int, ...]
EdgeKey = tuple[int, Edge]  # (layer, sorted vertex tuple)


@dataclass
class CycleWitness:
    """One concrete short cycle.

    ``edges`` holds (layer, edge) pairs; ``meeting`` the distinguished
    meeting vertices (the shared set for a 2-cycle, one vertex per
    consecutive pair for the longer cycles).  ``h2_count`` is the number of
    participating layer-2 edges (only meaningful for linear 3-cycles).
    """

    kind: str
    edges: list[EdgeKey]
    meeting: tuple[int, ...]
    ell: int | None = None
    h2_count: int = 0

    def sort_key(self):
        return tuple(self.edges)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ell": self.ell,
            "edges": [[layer, list(e)] for layer, e in self.edges],
            "meeting": list(self.meeting),
            "h2_count": self.h2_count,
        }


@dataclass
class BouquetReport:
    """Outcome of ``check_bouquet``: first witness per violated property."""

    holds: bool
    violations: list[tuple[str, CycleWitness]] = field(default_factory=list)

    def violated_properties(self) -> list[str]:
        return [prop for prop, _ in self.violations]

    def to_dict(self) -> dict:
        violations = [{"property": prop, "witness": w.to_dict()} for prop, w in self.violations]
        return {"holds": self.holds, "violations": violations}


@dataclass
class Classification:
    """Result of the clique/sunflower dichotomy for an intersecting family."""

    kind: str  # "clique" | "sunflower" | "not_applicable"
    uniformity: int | None = None
    core: Edge | None = None
    witness: object = None
    reason: str | None = None


# -- shared indexes and reader ------------------------------------------------


class _PairIndex(dict):
    """The forward pair index of H: vertex a -> {b: the sorted (layer, edge)
    keys of H holding both a and b}, for the vertices b > a that share an
    edge with a, in ascending b.

    A vertex's map is built from ``H.incidence[a]`` alone the first time it
    is read, and kept; an edge whose last vertex is a adds nothing to it.
    ``vertices`` lists the vertices with edges, ascending, found in one
    C-level pass over the incidence lists; the walks pass over the rest.
    """

    __slots__ = ("layers", "incidence", "vertices")

    def __init__(self, H: LayeredHypergraph):
        super().__init__()
        self.layers = H.layers
        self.incidence = H.incidence
        self.vertices = list(itertools.compress(range(H.n), H.incidence))

    def __missing__(self, a: int) -> dict[int, list[EdgeKey]]:
        layers = self.layers
        # (b, key) for each later vertex b of each edge through a, sorted
        # once: ascending b, and each b's keys in sorted order
        pairs = [(b, key) for i, idx in self.incidence[a] for key in ((i, layers[i][idx]),) for b in key[1] if b > a]
        pairs.sort()
        fwd = self[a] = {}
        for b, key in pairs:
            if b in fwd:
                fwd[b].append(key)
            else:
                fwd[b] = [key]
        return fwd


def _shared_pairs(index: _PairIndex):
    """((a, b), keys) for the vertex pairs a < b lying in two or more edges,
    in sorted pair order, read off ``index``."""
    return (((a, b), keys) for a in index.vertices for b, keys in index[a].items() if len(keys) > 1)


def _shared_buckets(H: LayeredHypergraph, ell: int) -> dict[Edge, list[EdgeKey]]:
    """vertex ell-subset -> the (layer, edge) keys of H containing it, for the
    subsets lying in two or more edges, in ``H.edges()`` order; the keys are
    the tuples ``H.edges()`` yields, shared by every bucket of an edge.

    The runs of ``subset_runs`` over the layers of at least ell keep their
    owners in ``H.edges()`` order; only runs of two or more become buckets.
    """
    keys = list(H.edges())
    owners = [np.empty(0, dtype=np.int64)]  # no layer reaches an ell above k
    first = 0  # rank in ``keys`` of the layer's first edge
    for i in range(2, H.k + 1):
        if i >= ell:
            owners.append(np.repeat(np.arange(first, first + len(H.layers[i])), math.comb(i, ell)))
        first += len(H.layers[i])
    subsets, order, bounds = subset_runs([H.layers[i] for i in range(ell, H.k + 1)], ell)
    owner = np.concatenate(owners)[order].tolist()
    shared = np.flatnonzero(np.diff(bounds) >= 2)
    starts, ends = bounds[shared], bounds[shared + 1]
    return {
        tuple(sub): [keys[g] for g in owner[a:b]]
        for sub, a, b in zip(subsets[starts].tolist(), starts.tolist(), ends.tolist())
    }


def _take(stream, limit: int | None) -> list:
    """The first ``limit`` items of a witness stream; ``None`` takes all."""
    if limit is not None:
        check_integer("limit", limit, least=0)
    return list(itertools.islice(stream, limit))


def _inter_size(a: Edge, b: Edge) -> int:
    sb = set(b)
    return sum(1 for v in a if v in sb)


# -- 2-cycles -----------------------------------------------------------------


def _overlap_iter(buckets, ell: int | None = None):
    """Yield (edge, edge, shared vertices) for pairs of edges sharing at
    least two vertices, once each, in the order of ``buckets``, an iterable
    of (vertex subset, keys of the two or more edges holding it) in sorted
    subset order.

    With ell None the buckets are pair buckets, and a pair sharing j
    vertices, which sits in C(j, 2) of them, is emitted from its
    lexicographically least shared pair.  With ell fixed they are ell-subset
    buckets, and only pairs sharing exactly ell vertices are emitted, from
    the one bucket of their shared set.
    """
    for sub, entries in buckets:
        for ka, kb in itertools.combinations(sorted(entries), 2):
            shared = tuple(sorted(set(ka[1]) & set(kb[1])))
            if (shared[:2] == sub) if ell is None else (len(shared) == ell):
                yield ka, kb, shared


def _two_cycle_iter(H: LayeredHypergraph, ell: int | None):
    """(2,l)-cycles in deterministic order; ell None reports every exact
    size >= 2.  A bad ell raises here, not at the first witness.

    Only buckets of two or more edges can hold a witness, and the pair of
    edges sharing j >= 2 vertices sits in the bucket of its least shared
    pair, so ``_overlap_iter`` meets the same witnesses in the shared-subset
    index as in the buckets of every covered pair.
    """
    if ell is not None:
        check_integer("ell", ell, least=2)
    return (
        CycleWitness(kind="two_cycle", ell=len(shared), edges=[ka, kb], meeting=shared)
        for ka, kb, shared in _overlap_iter(sorted(_shared_buckets(H, ell or 2).items()), ell)
    )


def list_two_cycles(H: LayeredHypergraph, ell: int | None = None, limit: int | None = None) -> list[CycleWitness]:
    """All (2,l)-cycles, mixed layers included; ell None means any l >= 2.

    ``limit`` truncates the enumeration deterministically.
    """
    return _take(_two_cycle_iter(H, ell), limit)


def count_two_cycles(H: LayeredHypergraph, ell: int) -> int:
    """Exact number of unordered edge pairs sharing exactly ell vertices."""
    return sum(1 for _ in _two_cycle_iter(H, ell))


# -- linear 3-cycles ----------------------------------------------------------


def _linear_three_iter(index: _PairIndex):
    """Yield linear 3-cycles once each, in deterministic order, from the
    forward pair index of a hypergraph.

    The meeting vertices a < b < c of a linear 3-cycle form a triangle in
    the graph of covered vertex pairs, so enumeration walks the covered
    pairs (a, b) in sorted order, takes each c covered with both a and b
    from the keys of their forward maps, and filters edge combinations by
    the exact-singleton conditions.  Up to its first witness the scan
    builds the maps of the vertices a it has walked and of their later
    neighbours b.
    """
    for a in index.vertices:
        fwd_a = index[a]
        for b, keys_ab in fwd_a.items():
            fwd_b = index[b]
            for c in sorted(fwd_a.keys() & fwd_b.keys()):
                # roles: e_ab meets e_ac at a, e_ab meets e_bc at b, e_ac meets
                # e_bc at c; none holds all of a, b, c, so the three differ
                acs = bcs = None
                for ke_ab in keys_ab:
                    if c in ke_ab[1]:
                        continue
                    set_ab = set(ke_ab[1])
                    if acs is None:  # the candidates for e_ac and e_bc, with their vertex sets
                        acs = [(key, set(key[1])) for key in fwd_a[c] if b not in key[1]]
                        bcs = [(key, set(key[1])) for key in fwd_b[c] if a not in key[1]]
                    for ke_ac, set_ac in acs:
                        if len(set_ab & set_ac) != 1:
                            continue
                        for ke_bc, set_bc in bcs:
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


def find_linear_three_cycles(H: LayeredHypergraph, limit: int | None = None) -> list[CycleWitness]:
    """Linear 3-cycles with their layer-2 edge counts in ``h2_count``."""
    return _take(_linear_three_iter(_PairIndex(H)), limit)


# -- clean 4-cycles -----------------------------------------------------------


def _orient_clean_cycle(quad: tuple[EdgeKey, EdgeKey, EdgeKey, EdgeKey]) -> CycleWitness:
    """Build the canonical witness for a clean 4-cycle given (e1,e2,e3,e4)
    where {e1,e3} and {e2,e4} are the disjoint opposite pairs."""
    e1, e2, e3, e4 = quad
    opposite = {e1: e3, e3: e1, e2: e4, e4: e2}
    first = min(quad)
    other_pair = (e2, e4) if first in (e1, e3) else (e1, e3)
    second = min(other_pair)
    cycle = [first, second, opposite[first], opposite[second]]
    meeting = []
    for idx in range(4):
        a = set(cycle[idx][1])
        b = set(cycle[(idx + 1) % 4][1])
        meeting.append(min(a & b))
    return CycleWitness(kind="clean_four", edges=cycle, meeting=tuple(meeting))


def _clean_four_iter(H: LayeredHypergraph):
    """Yield clean 4-cycles once each, middle edges in sorted order.

    At middle ``mid`` the scan yields, in lexicographic order, the triples
    (e1, e3, x) with e1 < e3 disjoint neighbours of ``mid`` and x < mid
    disjoint from ``mid`` and meeting both: the cycle e1 - mid - e3 - x.  A
    cycle meets this pattern once per diagonal, {x, mid} or {e1, e3}, at the
    larger edge of that diagonal.  Only the earlier one, where x < mid < e3,
    yields it, so no set of emitted cycles is kept.

    Edges go by rank in sorted key order.  The vertex index is built once,
    an edge's neighbour set when first needed.  The candidates x at ``mid``
    are read off ascending prefixes of the vertex index at the vertices of
    its later neighbours, and ``heapq.merge`` interleaves each candidate's
    triples (``_closing_pairs``).  Up to its first witness the scan costs,
    for each middle up to the witness's, its later neighbours' vertices,
    its candidates and the neighbours they share with it, plus one closing
    pair per candidate at the witness's middle, not every triple there.
    """
    keys = sorted(H.edges())
    vsets = [set(e) for _, e in keys]
    by_vertex: dict[int, list[int]] = {}
    for rank, (_, e) in enumerate(keys):
        for v in e:
            by_vertex.setdefault(v, []).append(rank)
    near: list[set[int] | None] = [None] * len(keys)

    def neighbors(rank: int) -> set[int]:
        found = near[rank]
        if found is None:
            found = set()
            for v in keys[rank][1]:
                found.update(by_vertex[v])
            found.discard(rank)
            near[rank] = found
        return found

    for mid, smid in enumerate(vsets):
        around = neighbors(mid)
        reach: set[int] = set()
        for e3 in around:
            if e3 > mid:
                reach.update(keys[e3][1])
        candidates: set[int] = set()
        for v in reach - smid:
            owners = by_vertex[v]
            candidates.update(owners[: bisect_left(owners, mid)])
        streams = []
        for x in candidates:
            if smid.isdisjoint(vsets[x]):
                common = (near[x] or neighbors(x)) & around
                if len(common) > 1 and max(common) > mid:
                    streams.append(_closing_pairs(sorted(common), mid, x, vsets))
        if streams:
            for e1, e3, x in heapq.merge(*streams):
                yield _orient_clean_cycle((keys[e1], keys[x], keys[e3], keys[mid]))


def _closing_pairs(common: list[int], mid: int, x: int, vsets: list[set[int]]):
    """The triples (e1, e3, x) of ``_clean_four_iter`` at ``mid`` for one
    candidate x, in lexicographic order; ``common`` is the sorted list of
    the neighbours x shares with ``mid``."""
    start = bisect_right(common, mid)
    for i, e1 in enumerate(common):
        s1 = vsets[e1]
        for e3 in common[max(i + 1, start) :]:
            if s1.isdisjoint(vsets[e3]):
                yield e1, e3, x


def find_clean_four_cycles(H: LayeredHypergraph, limit: int | None = None) -> list[CycleWitness]:
    """Clean 4-cycles, one witness per dihedral equivalence class; sorted
    when ``limit`` is None, in scan order otherwise."""
    out = _take(_clean_four_iter(H), limit)
    if limit is None:
        out.sort(key=CycleWitness.sort_key)
    return out


# -- bouquet ------------------------------------------------------------------


def _property_v_iter(H: LayeredHypergraph, index: _PairIndex):
    """Layer-3 triples with overlap pattern (2, 2, 1); the middle edge is the
    unique one meeting both others in two vertices.  ``index`` is the
    forward pair index of H, of which only the layer-3 entries are read."""
    edges3 = sorted(set(H.layers.get(3, [])))
    if len(edges3) < 3:
        return
    for mid in edges3:
        x, y, z = mid
        # another layer-3 edge meeting mid in two vertices sits in exactly
        # one of mid's three pair buckets, next to mid
        partners = []
        for keys in (index[x][y], index[x][z], index[y][z]):
            if len(keys) > 1:
                partners += [other for layer, other in keys if layer == 3 and other != mid]
        partners.sort()
        for e1, e3 in itertools.combinations(partners, 2):
            if _inter_size(e1, e3) == 1:
                yield CycleWitness(
                    kind="property_v",
                    edges=sorted([(3, e1), (3, mid), (3, e3)]),
                    meeting=tuple(sorted(set(e1) & set(e3))),
                )


def check_bouquet(H: LayeredHypergraph) -> BouquetReport:
    """Evaluate the five bouquet conditions; first witness per violation.

    Every scan stops at its property's first witness, so an input that
    violates early is cheap.  Up to their first witnesses the i)/ii)
    overlap walk and the linear 3-cycle scan cost the forward maps of the
    pair index (``_PairIndex``) they read, each built from one vertex's
    incidence list: those of the vertices walked and, for iii), of their
    later neighbours; the v) scan reads the maps of the vertices of the
    layer-3 edges up to its witness's middle edge.  The clean 4-cycle scan
    costs the middle edges up to its first witness's and one closing pair
    per candidate there (see ``_clean_four_iter``), however many cycles the
    graph holds.  Beyond that the check makes one C-level pass over the
    incidence lists, to find the vertices with edges.  A clean input pays
    for the full scans: the linear 3-cycle and clean 4-cycle scans cost
    what the cycle detectors cost.
    """
    index = _PairIndex(H)
    # with one nonempty layer, no pair of edges can violate i)
    single_layer = sum(1 for i in range(2, H.k + 1) if H.layers[i]) < 2
    witness_i = None
    witness_ii = None
    for ka, kb, shared in _overlap_iter(_shared_pairs(index)):
        if ka[0] != kb[0]:
            if witness_i is None:
                witness_i = CycleWitness(kind="cross_layer_overlap", edges=[ka, kb], meeting=shared, ell=len(shared))
        elif len(shared) != ka[0] - 1 and witness_ii is None:
            witness_ii = CycleWitness(kind="within_layer_overlap", edges=[ka, kb], meeting=shared, ell=len(shared))
        if witness_ii is not None and (witness_i is not None or single_layer):
            break
    # the pair index is read by every scan but iv), which builds and drops
    # its own edge index
    witness_iii = next((w for w in _linear_three_iter(index) if w.h2_count <= 1), None)
    witness_iv = next(_clean_four_iter(H), None)
    witness_v = next(_property_v_iter(H, index), None)
    found = zip(("i", "ii", "iii", "iv", "v"), (witness_i, witness_ii, witness_iii, witness_iv, witness_v))
    violations = [(prop, w) for prop, w in found if w is not None]
    return BouquetReport(holds=not violations, violations=violations)


def _closes_violation(H: LayeredHypergraph, e: Edge) -> bool:
    """Whether H plus the new edge ``e``, a sorted tuple of vertex ids of H
    not yet in H, breaks one of conditions i)-v), given that H satisfies
    all five.

    Each of conditions i)-v) forbids a set of 2, 3 or 4 edges, decided by
    those edges alone.  H is clean, so every forbidden set of H + e contains
    e, and only those are enumerated, straight from ``H.incidence``:
    the partners of e (edges meeting it, counted with the number of
    vertices they share with it) decide i), ii) and v); pairs of partners
    through one vertex outside e decide iii); and iv) tags each edge
    disjoint from e with the partners it meets there.
    """
    size = len(e)
    layers, incidence = H.layers, H.incidence
    meets: dict[tuple[int, int], int] = {}
    for v in e:
        for key in incidence[v]:
            meets[key] = meets.get(key, 0) + 1
    # i), ii): a partner sharing two or more vertices must be in e's layer
    # and share size - 1 of them
    for (layer, _), m in meets.items():
        if m >= 2 and (layer != size or m != size - 1):
            return True
    partners = {key: set(layers[key[0]][key[1]]) for key in meets}
    # v): two layer-3 edges sharing pairs with e and one vertex with each
    # other (e in the middle), or one sharing a pair with e and a pair with
    # a layer-3 edge that meets e once (e at an end)
    if size == 3:
        pair_mates = [s for key, s in partners.items() if key[0] == 3 and meets[key] == 2]
        single_mates = [s for key, s in partners.items() if key[0] == 3 and meets[key] == 1]
        for a, s in enumerate(pair_mates):
            if any(len(s & t) == 1 for t in pair_mates[a + 1 :]):
                return True
            if any(len(s & t) == 2 for t in single_mates):
                return True
    # the partners through each vertex outside e
    outside: dict[int, list[tuple[int, int]]] = {}
    for key, s in partners.items():
        for w in s.difference(e):
            outside.setdefault(w, []).append(key)
    # iii): partners f, g meeting e once each and each other only at w form
    # a linear 3-cycle with e (their vertices in e differ, or f & g would
    # hold it too); it is allowed with two or more layer-2 edges
    for w, keys in outside.items():
        singles = [key for key in keys if meets[key] == 1]
        for a, f in enumerate(singles):
            for g in singles[a + 1 :]:
                if (size == 2) + (f[0] == 2) + (g[0] == 2) <= 1 and len(partners[f] & partners[g]) == 1:
                    return True
    # iv): an edge x disjoint from e meeting two disjoint partners closes a
    # clean 4-cycle e - f - x - g
    tags: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for w, keys in outside.items():
        for x in incidence[w]:
            if x not in meets:
                tags.setdefault(x, set()).update(keys)
    for met in tags.values():
        if len(met) >= 2:
            sets = [partners[key] for key in met]
            for a, s in enumerate(sets):
                if any(s.isdisjoint(t) for t in sets[a + 1 :]):
                    return True
    return False


def check_property_vprime(H: LayeredHypergraph, limit: int | None = None) -> list[CycleWitness]:
    """Triples with |e1 & e2| = |e2 & e3| = l-1 and |e1 & e3| = l-2, l >= 3.

    Edges may come from any layers.  In a hypergraph satisfying bouquet
    conditions i), ii), v) no such triple exists; this detector checks the
    pattern directly.
    """
    return _take(_vprime_iter(H), limit)


def _vprime_iter(H: LayeredHypergraph):
    """v' triples, middle edges in sorted order, partner pairs sorted."""
    index = _PairIndex(H)
    for mid_key in sorted(H.edges()):
        mid = mid_key[1]
        partners: dict[EdgeKey, int] = {}
        for a, b in itertools.combinations(mid, 2):
            for other in index[a][b]:
                if other != mid_key and other not in partners:
                    partners[other] = _inter_size(other[1], mid)
        plist = sorted(partners)
        for i, ka in enumerate(plist):
            s = partners[ka]
            if s < 2:
                continue
            for kb in plist[i + 1 :]:
                if partners[kb] == s and _inter_size(ka[1], kb[1]) == s - 1:
                    yield CycleWitness(
                        kind="vprime",
                        ell=s + 1,
                        edges=sorted([ka, mid_key, kb]),
                        meeting=tuple(sorted(set(ka[1]) & set(kb[1]))),
                    )


# -- links and families --------------------------------------------------------


def link_components(H: LayeredHypergraph, x: int) -> list[list[tuple[int, Edge]]]:
    """Connected components of the link of x under shared-vertex adjacency.

    Components are sorted by their least element; inside a bouquet
    hypergraph every component of size >= 2 stays within one layer.
    """
    elements = H.link(x)
    parent = list(range(len(elements)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    by_vertex: dict[int, list[int]] = {}
    for idx, (_, residue) in enumerate(elements):
        for v in residue:
            by_vertex.setdefault(v, []).append(idx)
    for members in by_vertex.values():
        for other in members[1:]:
            union(members[0], other)
    groups: dict[int, list[tuple[int, Edge]]] = {}
    for idx, element in enumerate(elements):
        groups.setdefault(find(idx), []).append(element)
    components = [sorted(group) for group in groups.values()]
    components.sort(key=lambda group: group[0])
    return components


def classify_intersecting_family(family) -> Classification:
    """Clique/sunflower dichotomy for a pairwise-overlapping edge family.

    Precondition: every pair of distinct members shares at least two
    vertices (violations raise InvalidArguments).  Mixed uniformities, or a
    pair meeting in other than i-1 vertices, yield ``not_applicable`` with a
    witness pair.  A single edge counts as a sunflower whose core is the
    edge itself; when both descriptions fit (two edges), sunflower wins.
    An edge with a repeated vertex raises InvalidArguments, and an id that
    is not a nonnegative integer InvalidVertex.
    """
    try:
        family = [tuple(e) for e in family]
    except TypeError:
        raise InvalidArguments(f"family must be an iterable of edges, got {family!r}") from None
    for e in family:
        _vertex_ids(e, math.inf)  # no graph bounds the ids from above
    edges = sorted(set(tuple(sorted(e)) for e in family))
    if not edges:
        raise InvalidArguments("family must contain at least one edge")
    for e in edges:
        if len(set(e)) != len(e):
            raise InvalidArguments(f"repeated vertex in edge {e}")
    sizes = sorted(set(len(e) for e in edges))
    if len(sizes) > 1:
        small = next(e for e in edges if len(e) == sizes[0])
        big = next(e for e in edges if len(e) == sizes[-1])
        return Classification(kind="not_applicable", witness=(small, big), reason="mixed uniformities")
    i = sizes[0]
    if i < 2:
        raise InvalidArguments(f"edges must have at least 2 vertices, got {i}")
    if len(edges) == 1:
        return Classification(kind="sunflower", uniformity=i, core=edges[0])
    for ea, eb in itertools.combinations(edges, 2):
        overlap = _inter_size(ea, eb)
        if overlap < 2:
            raise InvalidArguments(f"family is not pairwise >= 2 intersecting: {ea} vs {eb}")
        if overlap != i - 1:
            return Classification(
                kind="not_applicable", uniformity=i, witness=(ea, eb), reason=f"pair shares {overlap} != {i - 1}"
            )
    core = set(edges[0])
    for e in edges[1:]:
        core &= set(e)
    if len(core) == i - 1:
        return Classification(kind="sunflower", uniformity=i, core=tuple(sorted(core)))
    union: set[int] = set()
    for e in edges:
        union |= set(e)
    if len(union) <= i + 1:
        return Classification(kind="clique", uniformity=i)
    first = edges[0]
    breaker = next(e for e in edges if len(core & set(e)) < i - 1 or not set(e) <= union)
    return Classification(kind="not_applicable", uniformity=i, witness=(first, breaker), reason="no common core and not inside an (i+1)-set")


def common_neighbor_max(H: LayeredHypergraph, layer: int | None = None) -> int:
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
    check_integer("layer", layer, 2, H.k)
    edges = H.layers[layer]
    _, order, bounds = subset_runs([edges], layer - 1)
    # a run's completions: the c-th (i-1)-subset of an edge omits vertex i-1-c
    completion = np.array(edges, dtype=np.int64).reshape(-1, layer)[:, ::-1].ravel()[order].tolist()
    # completion sets of two or more, grouped by size; their equal pairs form runs
    by_size: dict[int, list[Edge]] = {}
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if b - a >= 2:
            by_size.setdefault(b - a, []).append(tuple(sorted(completion[a:b])))
    pair_runs = np.diff(subset_runs(by_size.values(), 2)[2])
    return int(pair_runs.max()) if len(pair_runs) else 0


def prune_short_cycles(
    H: LayeredHypergraph,
    keep: set[int],
    two_ells: tuple[int, ...] = (),
    linear3: bool = False,
    clean4: bool = False,
    batch: int | None = 512,
) -> tuple[set[int], dict]:
    """Delete the lowest vertex of each detected cycle, in batches, until the
    graph induced on the kept vertices is clean for the requested kinds.

    Each pass takes up to ``batch`` cycles of each kind from the graph
    induced on the vertices kept at the start of the pass.  Vertex deletion
    never creates new cycles, so kinds cleared in an earlier pass stay
    cleared.  Returns (surviving vertex ids, info) where info counts passes
    and witnesses seen per kind.

    The (2,l)-cycle streams are built once, on the graph induced on
    ``keep``, and resumed from pass to pass; a cycle through a deleted
    vertex is skipped.  This takes the same cycles as enumerating afresh
    each pass: inducing keeps the vertex order, so the survivors' cycles
    come in the order of the first graph, and every cycle before the resume
    point was taken (its lowest vertex deleted) or already broken.  Linear
    3-cycles and clean 4-cycles are found anew on the survivors each pass.
    A resumed stream would walk every cycle of the first graph, dead or
    alive, and on dense inputs a clean 4-cycle stream over the first graph
    costs far more than the passes it would save: a ``gen_gnp(14, 3, 0.5)``
    draw holds about 10^6 clean 4-cycles, and fresh passes read a few
    thousand of them before the survivors are clean.

    ``batch`` is None (take every cycle in one pass) or at least 1.
    """
    if batch is not None:
        check_integer("batch", batch, least=1)
    deleted = {"two_cycle": 0, "linear_three": 0, "clean_four": 0}
    passes = 0
    order = sorted(_vertex_ids(keep, H.n))
    # inducing on every vertex re-adds each edge in the same order, so H serves
    full = order == list(range(H.n)) and all(type(v) is int for v in order)
    base = H if full else H.induce(order)[0]
    streams = [_two_cycle_iter(base, ell) for ell in two_ells]
    alive = [True] * base.n
    while True:
        passes += 1
        doomed: set[int] = set()
        for stream in streams:
            live = (w for w in stream if all(alive[v] for _, e in w.edges for v in e))
            for w in _take(live, batch):
                doomed.add(min(v for _, e in w.edges for v in e))
                deleted["two_cycle"] += 1
        if linear3 or clean4:
            survivors = [v for v in range(base.n) if alive[v]]
            sub = base if len(survivors) == base.n else base.induce(survivors)[0]
        if linear3:
            for w in find_linear_three_cycles(sub, limit=batch):
                doomed.add(survivors[min(v for _, e in w.edges for v in e)])
                deleted["linear_three"] += 1
        if clean4:
            for w in find_clean_four_cycles(sub, limit=batch):
                doomed.add(survivors[min(v for _, e in w.edges for v in e)])
                deleted["clean_four"] += 1
        if not doomed:
            break
        for v in doomed:
            alive[v] = False
    return {order[v] for v in range(base.n) if alive[v]}, {"passes": passes, "witnesses": deleted}
