import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperind import core
from hyperind.algorithms.pipelines import _degrees_within
from hyperind.core import (
    MAX_FILE_UNIFORMITY,
    MAX_FILE_VERTICES,
    LayeredHypergraph,
    contract,
    read_file,
    subset_runs,
    write_file,
)
from hyperind.errors import (
    InvalidArguments,
    InvalidUniformity,
    InvalidVertex,
    ParseError,
)
from hyperind.rng import stream

from oracles import (
    _degrees_inside,
    brute_deg,
    brute_max_min_degree,
    random_count_graph,
    random_layered,
    replay_contract,
    replay_induce,
    replay_is_independent,
    replay_max_min_degree,
)


def small_graph():
    H = LayeredHypergraph(8, 4)
    H.add_edge((0, 1))
    H.add_edge((1, 2, 3))
    H.add_edge((3, 4, 5, 6))
    H.add_edge((0, 2, 5))
    return H


def test_add_edge_dedupes_and_sorts():
    H = LayeredHypergraph(5, 3)
    assert H.add_edge((2, 0, 1))
    assert not H.add_edge((0, 1, 2))
    assert H.layers[3] == [(0, 1, 2)]
    assert H.num_edges() == 1


def test_add_edge_validation():
    H = LayeredHypergraph(5, 3)
    with pytest.raises(InvalidUniformity):
        H.add_edge((0,))
    with pytest.raises(InvalidUniformity):
        H.add_edge((0, 1, 2, 3))
    with pytest.raises(InvalidUniformity):
        H.add_edge((1, 1))
    with pytest.raises(InvalidVertex):
        H.add_edge((0, 5))
    with pytest.raises(InvalidArguments):
        LayeredHypergraph(-1, 3)
    with pytest.raises(InvalidUniformity):
        LayeredHypergraph(4, 1)


@pytest.mark.parametrize("n, k", [(True, 3), (False, 3), (10.0, 3), (10, 3.0), ("10", 3), (10, True), (None, 3)])
def test_constructor_rejects_non_integer_sizes(n, k):
    with pytest.raises(InvalidArguments, match="must be an integer"):
        LayeredHypergraph(n, k)


def test_constructor_takes_numpy_integer_sizes():
    H = LayeredHypergraph(np.int64(5), np.int32(3))
    assert H.add_edge((0, 4, 2))
    assert len(H.incidence) == 5 and sorted(H.layers) == [2, 3]


@pytest.mark.parametrize(
    "bad", [(0.5, 1), (True, 2), (0, False), ("1", 2), (None, 1), (1, 2.0), (0, 1, -1)]
)
def test_add_edge_rejects_bad_ids_before_writing(bad):
    H = small_graph()
    before = H.copy()
    with pytest.raises(InvalidVertex):
        H.add_edge(bad)
    assert H == before
    assert H.layers == before.layers
    assert H.incidence == before.incidence


def test_add_edge_stores_index_like_ids_as_ints(tmp_path):
    H = LayeredHypergraph(5, 3)
    assert H.add_edge((np.int64(3), 1))
    assert not H.add_edge((1, 3))
    (edge,) = H.layers[2]
    assert edge == (1, 3) and all(type(v) is int for v in edge)
    path = tmp_path / "ids.hg"
    write_file(H, path)
    assert read_file(path) == H


def test_pop_edge_restores_previous_state():
    H = LayeredHypergraph(6, 3)
    H.add_edge((0, 1, 2))
    before = H.copy()
    H.add_edge((2, 3, 4))
    popped = H.pop_edge(3)
    assert popped == (2, 3, 4)
    assert H == before
    assert H.incidence[3] == []
    with pytest.raises(InvalidArguments):
        H.pop_edge(2)


def test_deg_and_incidence():
    H = small_graph()
    assert H.deg([1]) == 2
    assert H.deg([0]) == 2
    assert H.deg([3]) == 2
    assert H.deg([1, 2]) == 1
    assert H.deg([0, 7]) == 0
    assert H.deg([]) == H.num_edges() == 4
    with pytest.raises(InvalidVertex):
        H.deg([9])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_deg_matches_brute_force(seed):
    rng = stream(seed, "core-deg")
    H = random_layered(rng, n=10, k=4, edges=18)
    for v in range(H.n):
        assert H.deg([v]) == brute_deg(H, [v])
    for pair in ((0, 1), (2, 5), (7, 9)):
        assert H.deg(pair) == brute_deg(H, pair)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_max_min_degree_matches_brute_force(seed):
    rng = stream(seed, "core-mmd")
    H = random_layered(rng, n=9, k=4, edges=14)
    for layer in range(2, 5):
        for ell in range(layer):
            assert H.max_min_degree(layer, ell) == brute_max_min_degree(H, layer, ell)


@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
@settings(max_examples=80, deadline=None)
def test_max_min_degree_matches_dict_loop_replay(seed, k):
    # the dict loop before the one subset count in core: equal (max, min),
    # as Python ints, on empty layers and fully covered vertex sets too
    H = random_count_graph(stream(seed, "core-mmd-replay", k), k)
    for layer in range(2, k + 1):
        for ell in range(layer):
            got = H.max_min_degree(layer, ell)
            assert got == replay_max_min_degree(H, layer, ell)
            assert [type(x) for x in got] == [int, int]


@given(
    st.integers(2, 5),
    st.lists(
        st.tuples(
            st.sampled_from(["add", "extend", "pop", "query"]), st.integers(2, 5), st.integers(0, 2**31 - 1)
        ),
        max_size=40,
    ),
)
@settings(max_examples=80, deadline=None)
def test_max_min_degree_memo_follows_every_mutator(k, ops):
    # the memoised l-subset runs against the dict loop at each query; runs of
    # mutations between queries reach a pop then an add, which brings a layer
    # back to a length it had when the memo was filled
    H = LayeredHypergraph(k + 3, k)
    for op, layer, seed in ops + [("query", 2, 0)]:
        rng = stream(seed, "core-memo")
        layer = min(layer, k)
        if op == "query":
            for i in range(2, k + 1):
                for ell in range(i):
                    assert H.max_min_degree(i, ell) == replay_max_min_degree(H, i, ell)
        elif op == "add":
            H.add_edge(tuple(int(v) for v in rng.choice(H.n, size=layer, replace=False)))
        elif op == "extend":
            fresh = {tuple(sorted(int(v) for v in rng.choice(H.n, size=layer, replace=False))) for _ in range(3)}
            H._extend_layer(layer, sorted(e for e in fresh if not H.has_edge(e)))
        elif H.layers[layer]:
            H.pop_edge(layer)


def test_pop_then_add_recounts_the_layer():
    # the layer is back at the length its memo entry was stamped with
    H = LayeredHypergraph(6, 3)
    H.add_edge((0, 1, 2))
    H.add_edge((3, 4, 5))
    assert H.max_min_degree(3, 1) == (1, 1)
    H.pop_edge(3)
    H.add_edge((0, 1, 3))
    assert H.max_min_degree(3, 1) == replay_max_min_degree(H, 3, 1) == (2, 0)


@pytest.mark.parametrize("kind", ["covered", "uncovered", "empty"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_vertex_degrees_match_the_subset_run_count(kind, k):
    # ell = 1 counts with one bincount of the layer array; the subset runs
    # give the same (max, min), with min 0 unless every vertex is covered
    rng = stream(k, "core-bincount", kind)
    n = 3 * k + (kind == "uncovered")  # the extra vertex lies in no edge
    H = LayeredHypergraph(n, k)
    if kind != "empty":
        for start in range(0, 3 * k, k):
            H.add_edge(tuple(range(start, start + k)))
        for _ in range(8):
            H.add_edge(tuple(int(v) for v in rng.choice(3 * k, size=k, replace=False)))
    elif k > 2:
        H.add_edge((0, 1))  # edges in another layer only
    expect = (0, 0)
    if kind != "empty":
        counts = np.diff(subset_runs([H.layers[k]], 1)[2])
        assert (len(counts) == n) == (kind == "covered")
        expect = (int(counts.max()), int(counts.min()) if kind == "covered" else 0)
    assert H.max_min_degree(k, 1) == expect == replay_max_min_degree(H, k, 1)


def test_layer_array_goes_stale_with_every_mutator():
    H = LayeredHypergraph(6, 3)

    def fresh(layer):
        array = H._layer_array(layer)
        assert not array.flags.writeable
        assert array.dtype == np.int64 and array.shape == (len(H.layers[layer]), layer)
        assert array.tolist() == [list(e) for e in H.layers[layer]]
        return array

    empty = fresh(3)
    assert fresh(3) is empty  # memoised while the layer stands still
    H.add_edge((0, 1, 2))
    assert fresh(3).tolist() == [[0, 1, 2]]
    H._extend_layer(3, [(1, 2, 3), (3, 4, 5)])
    assert fresh(3).tolist() == [[0, 1, 2], [1, 2, 3], [3, 4, 5]]
    assert fresh(2).shape == (0, 2)
    H.pop_edge(3)
    H.add_edge((0, 4, 5))  # back at the length the memo entry was stamped with
    assert fresh(3).tolist() == [[0, 1, 2], [1, 2, 3], [0, 4, 5]]


def test_max_min_degree_argument_checks():
    H = small_graph()
    for layer, ell in ((5, 1), (3, 3), (4, 1.0), (4, True), (4.0, 2), (True, 1), (4, "1")):
        with pytest.raises(InvalidArguments):
            H.max_min_degree(layer, ell)
    assert H.max_min_degree(np.int64(4), np.int64(1)) == H.max_min_degree(4, 1) == (1, 0)


def test_link_and_neighborhoods():
    H = small_graph()
    assert H.link(0) == [(2, (1,)), (3, (2, 5))]
    assert H.closed_neighborhood(0) == {0, 1, 2, 5}
    assert H.neighborhood({0}, 0) == {0}
    assert H.neighborhood({0}, 1) == {0, 1, 2, 5}
    # radius-2 ball picks up everything reachable through two edges
    assert H.neighborhood({0}, 2) == {0, 1, 2, 3, 4, 5, 6}


@pytest.mark.parametrize("radius", [2.5, True, "1", None, -1])
def test_neighborhood_checks_radius(radius):
    with pytest.raises(InvalidArguments, match="radius"):
        small_graph().neighborhood({0}, radius)


def test_edge_at_checks_layer_and_index():
    H = small_graph()
    assert H.edge_at(3, 1) == (0, 2, 5)
    assert H.edge_at(np.int64(4), np.int64(0)) == (3, 4, 5, 6)
    for layer, idx in ((1, 0), (5, 0), (3, 2), (3, -1), (2, 1), (3, 1.0), (True, 0)):
        with pytest.raises(InvalidArguments):
            H.edge_at(layer, idx)


def test_distance():
    H = small_graph()
    assert H.distance(0, 0) == 0
    assert H.distance(0, 1) == 1
    assert H.distance(0, 4) == 2
    assert H.distance(0, 7) is None
    with pytest.raises(InvalidVertex):
        H.distance(0, 100)


def test_induce_keeps_inside_edges():
    H = small_graph()
    sub, old_to_new = H.induce([0, 1, 2, 3, 5])
    assert sub.n == 5
    assert old_to_new == {0: 0, 1: 1, 2: 2, 3: 3, 5: 4}
    assert sub.has_edge((0, 1))
    assert sub.has_edge((1, 2, 3))
    assert sub.has_edge((0, 2, 4))
    assert sub.num_edges() == 3  # the 4-edge lost vertices 4 and 6


def test_is_independent_witness():
    H = small_graph()
    ok, witness = H.is_independent({0, 3, 7})
    assert ok and witness is None
    ok, witness = H.is_independent({1, 2, 3})
    assert not ok and witness == (1, 2, 3)


# each read-only query, given one vertex id v alongside valid ones
@given(st.integers(0, 2**31 - 1), st.integers(2, 5), st.floats(0, 1))
@settings(max_examples=120, deadline=None)
def test_edge_queries_match_edge_scan_replay(seed, k, share):
    # induce, is_independent and the pipelines' _degrees_within from the
    # incidence lists, against the old whole-graph scans: equal layers and
    # incidence order, relabel map, first witness and per-vertex counts
    rng = stream(seed, "core-inside", k)
    H = random_count_graph(rng, k)
    drawn = {v for v in range(H.n) if rng.random() < share}
    for U in (set(), drawn, set(range(H.n))):
        sub, relabel = H.induce(U)
        expect, expect_relabel = replay_induce(H, U)
        assert (sub.n, sub.layers, sub.incidence) == (expect.n, expect.layers, expect.incidence)
        assert relabel == expect_relabel
        assert H.is_independent(U) == replay_is_independent(H, U)
        within = _degrees_within(H, U)
        assert within == _degrees_inside(H, U)
        assert [list(b.items()) for b in within.values()] == [
            list(b.items()) for b in _degrees_inside(H, U).values()
        ]


QUERIES = {
    "deg": lambda H, v: H.deg([v, 1]),
    "neighborhood": lambda H, v: H.neighborhood([v, 1], 2),
    "closed_neighborhood": lambda H, v: H.closed_neighborhood(v),
    "is_independent": lambda H, v: H.is_independent([v, 3]),
    "induce": lambda H, v: H.induce([v, 1, 2]),
    "link": lambda H, v: H.link(v),
    "distance": lambda H, v: H.distance(4, v),
    "contract": lambda H, v: contract(H, [v, 1, 2]),
}


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_queries_reject_non_integer_ids(query):
    H = small_graph()
    for bad in (0.5, 1.5, True, False, "1", None, (0,), [1], {1}):
        with pytest.raises(InvalidVertex):
            QUERIES[query](H, bad)
    # index-like ids answer as plain ints do
    assert QUERIES[query](H, np.int64(0)) == QUERIES[query](H, 0)


@pytest.mark.parametrize("bad", [5, None, [1, "a"], [[0], [1]]], ids=["int", "none", "mixed", "unhashable"])
def test_has_edge_rejects_ids_it_cannot_sort(bad):
    H = small_graph()
    with pytest.raises(InvalidVertex):
        H.has_edge(bad)
    assert not H.has_edge((0, 99))  # an id outside 0..n-1 is in no edge


def test_contract_multiplicity_and_nesting():
    H = LayeredHypergraph(7, 4)
    H.add_edge((0, 1, 2, 6))
    H.add_edge((0, 1, 2, 5))
    H.add_edge((0, 1, 3, 4))
    H.add_edge((2, 5, 6))
    bag, cleaned = contract(H, {0, 1, 2})
    # the two 4-edges through {0,1,2} contract to the same triple
    assert bag.multiplicity((0, 1, 2)) == 2
    assert bag.multiplicity((0, 1)) == 1
    assert bag.dropped_small == 1
    # (0,1) nests inside (0,1,2), so only the pair survives cleaning
    assert cleaned.has_edge((0, 1))
    assert not cleaned.has_edge((0, 1, 2))
    assert cleaned.num_edges() == 1
    assert cleaned.n == H.n


@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_contract_matches_all_pairs_replay(seed, k):
    # dense enough that contractions of several sizes nest inside each other
    rng = stream(seed, "core-contract", k)
    n = int(rng.integers(k, 16))
    H = random_layered(rng, n=n, k=k, edges=int(rng.integers(0, 4 * n)))
    vstar = {v for v in range(n) if rng.random() < rng.uniform(0.3, 1.0)}
    bag, cleaned = contract(H, vstar)
    old_bag, old_cleaned = replay_contract(H, vstar)
    assert (bag.edges, bag.sources, bag.dropped_small) == (
        old_bag.edges, old_bag.sources, old_bag.dropped_small
    )
    assert cleaned.layers == old_cleaned.layers
    assert cleaned.incidence == old_cleaned.incidence


def test_contract_rejects_bad_vertices():
    H = small_graph()
    with pytest.raises(InvalidVertex):
        contract(H, {0, 99})


def test_file_round_trip_is_byte_identical(tmp_path):
    H = small_graph()
    p1 = tmp_path / "a.hg"
    p2 = tmp_path / "b.hg"
    write_file(H, str(p1))
    G = read_file(str(p1))
    assert G == H
    write_file(G, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_read_file_accepts_comments_and_blanks(tmp_path):
    p = tmp_path / "c.hg"
    p.write_text("# a comment\n\nH k=3 n=4\n# another\n0 1\n\n1 2 3\n")
    H = read_file(str(p))
    assert H.n == 4 and H.k == 3
    assert H.has_edge((0, 1)) and H.has_edge((1, 2, 3))


def test_read_file_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.hg"
    p.write_text("H k=3\n0 1\n")
    with pytest.raises(ParseError) as err:
        read_file(str(p))
    assert err.value.line == 1

    p.write_text("H k=3 n=4\n0 x\n")
    with pytest.raises(ParseError) as err:
        read_file(str(p))
    assert err.value.line == 2

    p.write_text("H k=3 n=4\n0 9\n")
    with pytest.raises(InvalidVertex):
        read_file(str(p))

    p.write_text("")
    with pytest.raises(ParseError):
        read_file(str(p))


@pytest.mark.parametrize(
    "header",
    [
        "H k=3 n=1000000000000",
        f"H k=3 n={MAX_FILE_VERTICES + 1}",
        f"H k={MAX_FILE_UNIFORMITY + 1} n=10",
        "H k=1000000000000 n=10",
    ],
)
def test_read_file_bounds_header_before_allocating(tmp_path, monkeypatch, header):
    def refuse(n, k):
        raise AssertionError(f"allocated a graph with n={n}, k={k}")

    monkeypatch.setattr(core, "LayeredHypergraph", refuse)
    p = tmp_path / "huge.hg"
    p.write_text(f"# huge\n{header}\n0 1\n")
    with pytest.raises(ParseError) as err:
        read_file(str(p))
    assert err.value.line == 2
    assert "exceeds the limit" in str(err.value)


def test_read_file_header_limits_are_inclusive(tmp_path, monkeypatch):
    reached = []

    def record(n, k):
        reached.append((n, k))
        raise InvalidArguments("recorded")

    monkeypatch.setattr(core, "LayeredHypergraph", record)
    p = tmp_path / "edge.hg"
    p.write_text(f"H k={MAX_FILE_UNIFORMITY} n={MAX_FILE_VERTICES}\n")
    with pytest.raises(ParseError, match="recorded"):
        read_file(str(p))
    assert reached == [(MAX_FILE_VERTICES, MAX_FILE_UNIFORMITY)]


def test_read_file_rejects_non_utf8(tmp_path):
    p = tmp_path / "latin.hg"
    p.write_bytes(b"H k=3 n=4\n0 1\xff\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        read_file(str(p))


FUZZ_SEED_FILE = b"# sample\nH k=4 n=9\n0 1\n2 3 4\n1 5 6 7\n\n# tail\n3 8\n"
FUZZ_TOKENS = [
    b"H", b"k=", b"n=", b"-", b"0", b"9", b"99999999999999999999", b"#",
    b"\n", b" ", b"\t", b"\xff", b"\xc3\xa9", b"\x00", b"1.5", b"x",
]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "replace", "duplicate"]),
            st.integers(0, 10**6),
            st.integers(1, 6),
            st.sampled_from(FUZZ_TOKENS),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=300, deadline=None)
def test_read_file_fuzz_raises_only_typed_errors(tmp_path_factory, edits):
    data = bytearray(FUZZ_SEED_FILE)
    for op, pos, width, token in edits:
        pos %= len(data) + 1
        if op == "insert":
            data[pos:pos] = token
        elif op == "delete":
            del data[pos : pos + width]
        elif op == "replace":
            data[pos : pos + width] = token
        else:
            data[pos:pos] = data[pos : pos + width]
    p = tmp_path_factory.mktemp("fuzz") / "mutated.hg"
    p.write_bytes(bytes(data))
    try:
        H = read_file(str(p))
    except (ParseError, InvalidVertex, InvalidUniformity):
        return
    assert all(len(e) >= 2 and max(e) < H.n for _, e in H.edges())


def test_canonical_layers_sorted():
    H = LayeredHypergraph(5, 3)
    H.add_edge((3, 4))
    H.add_edge((0, 1))
    assert H.canonical_layers()[2] == [(0, 1), (3, 4)]
