"""Layered hypergraphs and their basic queries.

A layered hypergraph on vertex set {0, ..., n-1} holds one edge family per
uniformity i = 2..k.  Edges are sorted vertex tuples; each layer rejects
duplicates, so the families are plain sets.  All mutation goes through
three mutators: ``add_edge``, ``_extend_layer`` (its unchecked bulk form for
edges known to be valid and new) and ``pop_edge``.  Code outside them reads
``layers`` and ``incidence`` and never writes them.

Every query below is read-only, apart from one memo: ``_layer_runs`` keeps the
l-subset runs of a layer (``subset_runs``) per (layer, l), stamped with the
layer's length.  ``add_edge`` and ``_extend_layer`` only lengthen a layer, so
they outdate its entries without touching the memo; ``pop_edge`` can bring a
length back with other edges, so it clears the memo.  Two threads filling one
entry store equal values, so the queries stay safe to call concurrently.

The on-disk format is line-oriented:

    H k=4 n=10
    # comment lines start with '#'
    0 1 2
    0 3 4 5

The first line fixes k and n; every following non-comment line is one edge.
``write_file`` emits layers in ascending uniformity and edges in lexicographic
order, so read -> write round trips are byte identical.

``read_file`` refuses headers with more than ``MAX_FILE_VERTICES`` vertices or
a uniformity above ``MAX_FILE_UNIFORMITY`` before it allocates anything: the
graph holds one incidence list per vertex and one layer per uniformity, so an
unchecked header such as ``H k=3 n=10^12`` would exhaust memory before the
first edge is read.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArguments, InvalidUniformity, InvalidVertex, ParseError

__all__ = [
    "MAX_FILE_UNIFORMITY",
    "MAX_FILE_VERTICES",
    "LayeredHypergraph",
    "MultiEdgeBag",
    "contract",
    "read_file",
    "write_file",
]

Edge = tuple[int, ...]

# header limits of read_file; see the module docstring
MAX_FILE_VERTICES = 10**7
MAX_FILE_UNIFORMITY = 64


def check_integer(name: str, value, least: int | None = None, most: int | None = None) -> None:
    """InvalidArguments unless ``value`` is an integer in least..most; a bool
    is not one, and an end left None is open."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArguments(f"{name} must be an integer, got {value!r}")
    if (least is not None and value < least) or (most is not None and value > most):
        span = f"{'' if least is None else least}..{'' if most is None else most}"
        raise InvalidArguments(f"{name} must lie in {span}, got {value}")


def check_real(name: str, value, above: float | None = None) -> None:
    """InvalidArguments unless ``value`` is a finite real number, greater
    than ``above`` when that is given; a bool is not one, nor an integer
    beyond the range of a float."""
    try:
        real = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        real = False
    if not real:
        raise InvalidArguments(f"{name} must be a finite real number, got {value!r}")
    if above is not None and value <= above:
        raise InvalidArguments(f"{name} must exceed {above}, got {value!r}")


def _as_vertex(v, n: int) -> int:
    """A vertex id of a graph on n vertices as a plain int, or InvalidVertex.

    Index-like ids (numpy integers) pass; bools and non-integers do not.
    The read-only queries test ``type(v) is int and 0 <= v < n`` first and
    call this only for ids that fail it.
    """
    if isinstance(v, bool):
        raise InvalidVertex(f"vertex id {v!r} is a bool, not an integer")
    try:
        v = operator.index(v)
    except TypeError:
        raise InvalidVertex(f"vertex id {v!r} is not an integer") from None
    if not (0 <= v < n):
        raise InvalidVertex(f"vertex {v} outside 0..{n - 1}")
    return v


def _vertex_ids(vertices, n: int) -> set:
    """set(vertices) once every id is a vertex of a graph on n vertices;
    unhashable ids and ids ``_as_vertex`` rejects raise InvalidVertex."""
    try:
        ids = set(vertices)
    except TypeError as exc:
        raise InvalidVertex(f"vertex ids must be integers: {exc}") from None
    for v in ids:
        if type(v) is not int or not (0 <= v < n):
            _as_vertex(v, n)
    return ids


def subset_runs(layers, ell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted rows, their stacking order, run bounds) of the ell-subsets
    (ell >= 1) of the edges in ``layers``, lists of sorted edges of one size
    each: rows stacked edge after edge in ``combinations`` order, then one
    stable ``np.lexsort``.  Run j, rows bounds[j]:bounds[j+1], is one subset
    and its owners in stacking order; ``np.diff(bounds)`` are the degrees."""
    blocks = [np.empty((0, ell), dtype=np.int64)]
    for edges in layers:
        if edges:
            cols = list(itertools.combinations(range(len(edges[0])), ell))
            blocks.append(np.array(edges, dtype=np.int64)[:, cols].reshape(-1, ell))
    subsets = np.concatenate(blocks)
    order = np.lexsort(subsets.T[::-1])
    subsets = subsets[order]
    starts = np.ones(len(subsets), dtype=bool)
    starts[1:] = (subsets[1:] != subsets[:-1]).any(axis=1)
    return subsets, order, np.append(np.flatnonzero(starts), len(subsets))


class LayeredHypergraph:
    """Vertex set {0..n-1} with one edge layer per uniformity 2..k.

    Parameters
    ----------
    n : number of vertices (may be 0)
    k : maximum uniformity, k >= 2
    """

    __slots__ = ("n", "k", "layers", "_edge_sets", "incidence", "_runs")

    def __init__(self, n: int, k: int):
        check_integer("n", n, least=0)
        check_integer("k", k)
        if k < 2:
            raise InvalidUniformity(f"k must be at least 2, got {k}")
        self.n = n
        self.k = k
        self.layers: dict[int, list[Edge]] = {i: [] for i in range(2, k + 1)}
        self._edge_sets: dict[int, set[Edge]] = {i: set() for i in range(2, k + 1)}
        # vertex -> list of (layer, index into layers[layer])
        self.incidence: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        # (layer, ell) -> (layer length, subset_runs of the layer); see _layer_runs
        self._runs: dict[tuple[int, int], tuple[int, tuple]] = {}

    # -- construction -----------------------------------------------------

    def add_edge(self, vertices) -> bool:
        """Insert an edge; return True if new, False if already present.

        Raises
        ------
        InvalidUniformity : len(vertices) outside 2..k or repeated vertices
        InvalidVertex : any id that is a bool, not an integer, or outside
            0..n-1

        Every check runs before the first write, so a rejected edge leaves
        the graph unchanged.
        """
        try:
            edge = tuple(sorted(vertices))
        except TypeError:  # ids that do not compare with each other
            edge = tuple(vertices)
        size = len(edge)
        if size < 2 or size > self.k:
            raise InvalidUniformity(f"edge size {size} outside 2..{self.k}")
        # fast path: plain ints strictly increasing from 0 up, so no repeats;
        # any other id type, a repeat or a negative id takes the checked path
        prev = -1
        for v in edge:
            if type(v) is not int or v <= prev:
                edge = self._checked_edge(edge)
                break
            prev = v
        else:
            if prev >= self.n:
                raise InvalidVertex(f"vertex {prev} outside 0..{self.n - 1}")
        if edge in self._edge_sets[size]:
            return False
        self._edge_sets[size].add(edge)
        idx = len(self.layers[size])
        self.layers[size].append(edge)
        for v in edge:
            self.incidence[v].append((size, idx))
        return True

    def _checked_edge(self, edge) -> Edge:
        """The sorted tuple of plain int ids of an edge, or the error."""
        ids = [_as_vertex(v, self.n) for v in edge]
        if len(set(ids)) != len(ids):
            raise InvalidUniformity(f"repeated vertex in edge {edge}")
        return tuple(sorted(ids))

    def _extend_layer(self, size: int, edges: list[Edge]) -> None:
        """``add_edge`` of each edge in turn, unchecked: the caller knows the
        edges to be sorted tuples of plain int ids in 0..n-1, all of one size
        in 2..k, pairwise distinct and not yet in the graph."""
        layer = self.layers[size]
        incidence = self.incidence
        for idx, edge in enumerate(edges, len(layer)):
            entry = (size, idx)
            for v in edge:
                incidence[v].append(entry)
        layer.extend(edges)
        self._edge_sets[size].update(edges)

    def pop_edge(self, layer: int) -> Edge:
        """Remove and return the most recently added edge of the layer.

        Only the newest edge per layer can go: earlier removals would shift
        the indices the incidence lists point at.
        """
        if layer not in self.layers or not self.layers[layer]:
            raise InvalidArguments(f"layer {layer} has no edge to remove")
        self._runs.clear()
        edge = self.layers[layer].pop()
        idx = len(self.layers[layer])
        self._edge_sets[layer].discard(edge)
        for v in edge:
            self.incidence[v].remove((layer, idx))
        return edge

    def copy(self) -> "LayeredHypergraph":
        other = LayeredHypergraph(self.n, self.k)
        for i in range(2, self.k + 1):
            other.layers[i] = list(self.layers[i])
            other._edge_sets[i] = set(self._edge_sets[i])
        other.incidence = [list(entries) for entries in self.incidence]
        return other

    # -- basic queries -----------------------------------------------------

    def edges(self):
        """Iterate over (layer, edge) pairs, layers ascending, insertion order."""
        for i in range(2, self.k + 1):
            for e in self.layers[i]:
                yield i, e

    def num_edges(self) -> int:
        return sum(len(self.layers[i]) for i in range(2, self.k + 1))

    def layer_sizes(self) -> dict[int, int]:
        return {i: len(self.layers[i]) for i in range(2, self.k + 1)}

    def has_edge(self, vertices) -> bool:
        """Whether the vertex set is an edge; ids that cannot be sorted and
        hashed raise InvalidVertex, and ids outside 0..n-1 are in no edge."""
        try:
            edge = tuple(sorted(vertices))
            return 2 <= len(edge) <= self.k and edge in self._edge_sets[len(edge)]
        except TypeError as exc:
            raise InvalidVertex(f"vertex ids must be integers: {exc}") from None

    def edge_at(self, layer: int, idx: int) -> Edge:
        """Edge number idx of one layer; InvalidArguments for a layer
        outside 2..k or an idx outside 0..len-1."""
        check_integer("layer", layer, 2, self.k)
        edges = self.layers[layer]
        check_integer("idx", idx, 0, len(edges) - 1)
        return edges[idx]

    def deg(self, vertices) -> int:
        """Number of edges (all layers) containing every vertex of the set.

        deg of the empty set is the total edge count.
        """
        s = _vertex_ids(vertices, self.n)
        if not s:
            return self.num_edges()
        s = tuple(sorted(s))
        # scan the smallest incidence list among the queried vertices
        pivot = min(s, key=lambda v: len(self.incidence[v]))
        if len(s) == 1:
            return len(self.incidence[pivot])
        rest = [v for v in s if v != pivot]
        count = 0
        for layer, idx in self.incidence[pivot]:
            e = self.layers[layer][idx]
            if all(v in e for v in rest):
                count += 1
        return count

    def max_min_degree(self, layer: int, ell: int) -> tuple[int, int]:
        """(max, min) degree over ell-subsets within one layer.

        The max ranges over ell-subsets of edges (any uncovered subset has
        degree 0, so this loses nothing).  The min ranges over *all*
        ell-subsets of the vertex set, hence is 0 as soon as some ell-subset
        lies in no edge.  An empty layer reports (0, 0).

        Raises
        ------
        InvalidArguments : layer or ell not an integer, layer outside 2..k
            or ell not in 0..layer-1
        """
        check_integer("layer", layer, 2, self.k)
        check_integer("ell", ell, 0, layer - 1)
        edges = self.layers[layer]
        if not edges:
            return (0, 0)
        if ell == 0:
            m = len(edges)
            return (m, m)
        counts = np.diff(self._layer_runs(layer, ell)[2])
        covered = len(counts) == math.comb(self.n, ell)  # every ell-subset lies in an edge
        return (int(counts.max()), int(counts.min()) if covered else 0)

    def _layer_runs(self, layer: int, ell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``subset_runs`` of one layer's ell-subsets, counted once per graph
        state (see the module docstring); the arrays are read-only."""
        edges = self.layers[layer]
        hit = self._runs.get((layer, ell))
        if hit is not None and hit[0] == len(edges):
            return hit[1]
        runs = subset_runs([edges], ell)
        for array in runs:
            array.flags.writeable = False
        self._runs[layer, ell] = (len(edges), runs)
        return runs

    def link(self, x: int) -> list[tuple[int, Edge]]:
        """Residues e \\ {x} of the edges through x, tagged with their layer.

        Residues of distinct edges through x are themselves distinct, so the
        result is duplicate-free by construction.
        """
        if type(x) is not int or not (0 <= x < self.n):
            _as_vertex(x, self.n)
        out = []
        for layer, idx in self.incidence[x]:
            e = self.layers[layer][idx]
            out.append((layer, tuple(v for v in e if v != x)))
        out.sort()
        return out

    def closed_neighborhood(self, x: int) -> set[int]:
        """{x} plus every vertex sharing an edge with x."""
        if type(x) is not int or not (0 <= x < self.n):
            _as_vertex(x, self.n)
        out = {x}
        for layer, idx in self.incidence[x]:
            out.update(self.layers[layer][idx])
        return out

    def neighborhood(self, vertices, radius: int = 1) -> set[int]:
        """Iterated closed neighborhood of a vertex set.

        radius 0 returns the set itself; radius r applies the closed
        neighborhood r times.
        """
        check_integer("radius", radius, least=0)
        current = _vertex_ids(vertices, self.n)
        for _ in range(radius):
            nxt = set(current)
            for v in current:
                for layer, idx in self.incidence[v]:
                    nxt.update(self.layers[layer][idx])
            if len(nxt) == len(current):
                break
            current = nxt
        return current

    def distance(self, x: int, y: int) -> int | None:
        """BFS distance where one hop crosses one edge; None if unreachable."""
        for v in (x, y):
            if type(v) is not int or not (0 <= v < self.n):
                _as_vertex(v, self.n)
        if x == y:
            return 0
        seen = {x}
        frontier = deque([(x, 0)])
        while frontier:
            v, d = frontier.popleft()
            for layer, idx in self.incidence[v]:
                for w in self.layers[layer][idx]:
                    if w == y:
                        return d + 1
                    if w not in seen:
                        seen.add(w)
                        frontier.append((w, d + 1))
        return None

    # -- derived hypergraphs ------------------------------------------------

    def _edges_inside(self, uset: set) -> list[tuple[int, int]]:
        """(layer, index) of every edge inside a vertex set, in edge order:
        an edge lies inside iff the set holds all ``layer`` of its vertices,
        so the set's incidence entries count it that many times."""
        hits = Counter(itertools.chain.from_iterable(map(self.incidence.__getitem__, uset)))
        return sorted(entry for entry, count in hits.items() if count == entry[0])

    def induce(self, vertices) -> tuple["LayeredHypergraph", dict[int, int]]:
        """Subhypergraph on a vertex subset, relabeled to 0..|U|-1.

        Keeps exactly the edges fully inside the subset, in edge order.
        Returns the new hypergraph and the old->new relabeling map
        (ascending ids map to ascending ids).  The edges are found from the
        subset's incidence lists, so the cost is the subset's total degree
        plus the kept edges, not the size of the whole graph.
        """
        uset = _vertex_ids(vertices, self.n)
        u = sorted(uset)
        old_to_new = {v: i for i, v in enumerate(u)}
        sub = LayeredHypergraph(len(u), self.k)
        layers = self.layers
        for layer, idx in self._edges_inside(uset):
            sub.add_edge(tuple(old_to_new[v] for v in layers[layer][idx]))
        return sub, old_to_new

    def is_independent(self, vertices) -> tuple[bool, Edge | None]:
        """Whether no edge lies inside the set; returns a witness edge if one
        does, the first in edge order (layers ascending, insertion order).

        The cost is the set's total degree, not the size of the whole graph.
        """
        inside = self._edges_inside(_vertex_ids(vertices, self.n))
        if inside:
            layer, idx = inside[0]
            return False, self.layers[layer][idx]
        return True, None

    # -- canonical form ------------------------------------------------------

    def canonical_layers(self) -> dict[int, list[Edge]]:
        """Layers with edges in lexicographic order (the on-disk order)."""
        return {i: sorted(self.layers[i]) for i in range(2, self.k + 1)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayeredHypergraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.k == other.k
            and all(self._edge_sets[i] == other._edge_sets.get(i, set()) for i in self._edge_sets)
        )

    def __repr__(self) -> str:
        sizes = ", ".join(f"{i}:{len(self.layers[i])}" for i in range(2, self.k + 1))
        return f"LayeredHypergraph(n={self.n}, k={self.k}, edges={{{sizes}}})"


@dataclass
class MultiEdgeBag:
    """Raw outcome of contracting edges onto a vertex subset.

    ``edges`` keeps one entry per source edge whose contraction has at least
    two vertices, multiplicities and nesting included.  ``sources`` aligns
    with ``edges`` and records the (layer, original edge) each entry came
    from.  ``dropped_small`` counts contractions of size <= 1, which carry no
    constraint and are discarded.
    """

    edges: list[Edge] = field(default_factory=list)
    sources: list[tuple[int, Edge]] = field(default_factory=list)
    dropped_small: int = 0

    def multiplicity(self, edge) -> int:
        target = tuple(sorted(edge))
        return sum(1 for e in self.edges if e == target)


def contract(H: LayeredHypergraph, vstar) -> tuple[MultiEdgeBag, LayeredHypergraph]:
    """Contract every edge of H onto a vertex subset and clean the result.

    The bag holds all contractions e & vstar with at least 2 vertices.  The
    cleaned hypergraph (same vertex ids as H) keeps one copy of each distinct
    contraction and then discards any contraction that properly contains
    another surviving one, so no edge of the result nests inside a smaller
    edge.  Contractions of size <= 1 are dropped and counted.
    """
    vset = _vertex_ids(vstar, H.n)
    bag = MultiEdgeBag()
    for layer, e in H.edges():
        ce = tuple(v for v in e if v in vset)
        if len(ce) >= 2:
            bag.edges.append(ce)
            bag.sources.append((layer, e))
        else:
            bag.dropped_small += 1
    # a contraction can only contain a kept one of strictly smaller size
    by_size: dict[int, list[Edge]] = {}
    for ce in set(bag.edges):
        by_size.setdefault(len(ce), []).append(ce)
    kept: dict[int, list[Edge]] = {}
    for size in sorted(by_size):
        smaller = [set(other) for group in kept.values() for other in group]
        kept[size] = [ce for ce in by_size[size] if not any(map(set(ce).issuperset, smaller))]
    cleaned = LayeredHypergraph(H.n, H.k)
    for size in sorted(kept):
        for ce in sorted(kept[size]):
            cleaned.add_edge(ce)
    return bag, cleaned


# -- file format ------------------------------------------------------------


def write_file(H: LayeredHypergraph, path: str) -> None:
    """Write in the canonical text format (layers ascending, edges sorted)."""
    lines = [f"H k={H.k} n={H.n}"]
    canon = H.canonical_layers()
    for i in range(2, H.k + 1):
        for e in canon[i]:
            lines.append(" ".join(str(v) for v in e))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_file(path: str) -> LayeredHypergraph:
    """Parse the text format; see the module docstring for the grammar.

    Raises
    ------
    ParseError : malformed header or edge line (carries the line number),
        a header over ``MAX_FILE_VERTICES`` or ``MAX_FILE_UNIFORMITY``, or
        text that is not UTF-8
    InvalidVertex / InvalidUniformity : structurally invalid edge
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw_lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"file is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    header_idx = None
    for lineno, raw in enumerate(raw_lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        header_idx = lineno
        break
    if header_idx is None:
        raise ParseError("missing header line 'H k=<k> n=<n>'")
    header = raw_lines[header_idx - 1].strip()
    parts = header.split()
    if len(parts) != 3 or parts[0] != "H" or not parts[1].startswith("k=") or not parts[2].startswith("n="):
        raise ParseError("header must be 'H k=<k> n=<n>'", line=header_idx)
    try:
        k = int(parts[1][2:])
        n = int(parts[2][2:])
    except ValueError:
        raise ParseError("header k and n must be integers", line=header_idx) from None
    if n > MAX_FILE_VERTICES:
        raise ParseError(f"n={n} exceeds the limit of {MAX_FILE_VERTICES} vertices", line=header_idx)
    if k > MAX_FILE_UNIFORMITY:
        raise ParseError(f"k={k} exceeds the limit of uniformity {MAX_FILE_UNIFORMITY}", line=header_idx)
    try:
        H = LayeredHypergraph(n, k)
    except (InvalidArguments, InvalidUniformity) as exc:
        raise ParseError(str(exc), line=header_idx) from None
    for lineno in range(header_idx + 1, len(raw_lines) + 1):
        text = raw_lines[lineno - 1].strip()
        if not text or text.startswith("#"):
            continue
        try:
            vertices = [int(tok) for tok in text.split()]
        except ValueError:
            raise ParseError(f"non-integer token in edge line {text!r}", line=lineno) from None
        if len(set(vertices)) != len(vertices):
            raise ParseError(f"repeated vertex in edge line {text!r}", line=lineno)
        for v in vertices:
            if not (0 <= v < n):
                raise InvalidVertex(f"line {lineno}: vertex {v} outside 0..{n - 1}")
        if not (2 <= len(vertices) <= k):
            raise InvalidUniformity(f"line {lineno}: edge size {len(vertices)} outside 2..{k}")
        H.add_edge(vertices)
    return H
