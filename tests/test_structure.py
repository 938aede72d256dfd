import itertools
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from hyperind import structure
from hyperind.core import LayeredHypergraph
from hyperind.errors import InvalidArguments, InvalidVertex
from hyperind.generators import gen_gnp
from hyperind.rng import stream
from hyperind.structure import (
    _closes_violation,
    check_bouquet,
    check_property_vprime,
    classify_intersecting_family,
    common_neighbor_max,
    count_two_cycles,
    find_clean_four_cycles,
    find_linear_three_cycles,
    link_components,
    list_two_cycles,
    prune_short_cycles,
)

from oracles import (
    brute_bouquet_violations,
    brute_classify,
    brute_clean_four,
    brute_common_neighbor_max,
    brute_link_components,
    brute_linear_three,
    brute_two_cycles,
    brute_vprime,
    random_count_graph,
    replay_check_bouquet,
    replay_check_property_vprime,
    replay_common_neighbor_max,
    replay_find_clean_four_cycles,
    replay_find_linear_three_cycles,
    replay_layered_bouquet,
    replay_list_two_cycles,
    replay_prune_short_cycles,
    random_layered,
)


# -- hand-built witnesses ------------------------------------------------------


def test_two_cycle_hand_case():
    H = LayeredHypergraph(5, 3)
    H.add_edge((0, 1, 2))
    H.add_edge((0, 1, 3))
    H.add_edge((2, 3, 4))
    found = list_two_cycles(H, ell=2)
    assert len(found) == 1
    w = found[0]
    assert w.kind == "two_cycle" and w.ell == 2
    assert w.meeting == (0, 1)
    assert count_two_cycles(H, 2) == 1
    assert count_two_cycles(H, 3) == 0


def test_two_cycles_mixed_layers_counted():
    H = LayeredHypergraph(4, 3)
    H.add_edge((0, 1))
    H.add_edge((0, 1, 2))
    assert count_two_cycles(H, 2) == 1
    (w,) = list_two_cycles(H)
    assert {layer for layer, _ in w.edges} == {2, 3}


def test_linear_three_hand_case():
    H = LayeredHypergraph(7, 3)
    H.add_edge((0, 1, 4))
    H.add_edge((1, 2, 5))
    H.add_edge((0, 2, 6))
    found = find_linear_three_cycles(H)
    assert len(found) == 1
    assert found[0].meeting == (0, 1, 2)
    assert found[0].h2_count == 0
    # sharing a whole pair is not a linear cycle
    H2 = LayeredHypergraph(5, 3)
    H2.add_edge((0, 1, 2))
    H2.add_edge((1, 2, 3))
    H2.add_edge((0, 2, 4))
    assert find_linear_three_cycles(H2) == []


def test_clean_four_hand_case():
    H = LayeredHypergraph(11, 3)
    H.add_edge((0, 1, 7))
    H.add_edge((1, 2, 8))
    H.add_edge((2, 3, 9))
    H.add_edge((0, 3, 10))
    found = find_clean_four_cycles(H)
    assert len(found) == 1
    edges = [set(e) for _, e in found[0].edges]
    assert edges[0] & edges[2] == set()
    assert edges[1] & edges[3] == set()
    # opposite edges touching kills cleanness
    H2 = LayeredHypergraph(6, 3)
    H2.add_edge((0, 1, 4))
    H2.add_edge((1, 2, 5))
    H2.add_edge((2, 3, 4))  # shares vertex 4 with the first edge
    H2.add_edge((0, 3, 5))
    assert find_clean_four_cycles(H2) == []


def test_property_v_hand_case():
    H = LayeredHypergraph(5, 3)
    H.add_edge((0, 1, 2))
    H.add_edge((1, 2, 3))
    H.add_edge((2, 3, 4))
    report = check_bouquet(H)
    assert not report.holds
    assert "v" in report.violated_properties()
    # and the generalized pattern detector sees it too
    assert len(check_property_vprime(H)) == 1


def test_bouquet_property_i_and_ii():
    H = LayeredHypergraph(6, 4)
    H.add_edge((0, 1, 2))
    H.add_edge((0, 1, 2, 3))  # cross-layer overlap of size 3
    assert check_bouquet(H).violated_properties() == ["i"]
    G = LayeredHypergraph(6, 4)
    G.add_edge((0, 1, 2, 3))
    G.add_edge((0, 1, 4, 5))  # same layer, overlap 2 not in {0, 1, 3}
    assert check_bouquet(G).violated_properties() == ["ii"]


def test_bouquet_property_iii_layer2_exemption():
    # a triangle of pair edges is an allowed linear 3-cycle (three layer-2 edges)
    H = LayeredHypergraph(3, 3)
    H.add_edge((0, 1))
    H.add_edge((1, 2))
    H.add_edge((0, 2))
    assert check_bouquet(H).holds
    # one pair edge plus two triples is not
    G = LayeredHypergraph(7, 3)
    G.add_edge((0, 1))
    G.add_edge((1, 2, 5))
    G.add_edge((0, 2, 6))
    report = check_bouquet(G)
    assert "iii" in report.violated_properties()


def test_bouquet_report_serializes():
    H = LayeredHypergraph(5, 3)
    H.add_edge((0, 1, 2))
    H.add_edge((0, 1, 3))
    H.add_edge((0, 1, 4))
    report = check_bouquet(H)
    assert report.holds  # a sunflower is fine
    d = report.to_dict()
    assert d == {"holds": True, "violations": []}


# -- the limit contract --------------------------------------------------------

DETECTORS = {
    "two_cycles": lambda H, limit: list_two_cycles(H, limit=limit),
    "two_cycles_ell2": lambda H, limit: list_two_cycles(H, ell=2, limit=limit),
    "linear_three": lambda H, limit: find_linear_three_cycles(H, limit=limit),
    "clean_four": lambda H, limit: find_clean_four_cycles(H, limit=limit),
    "vprime": lambda H, limit: check_property_vprime(H, limit=limit),
}


@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_limit_reads_a_prefix_of_the_stream(name):
    detect = DETECTORS[name]
    H = gen_gnp(12, 3, 0.5, stream(1))
    assert len(detect(H, None)) >= 3
    assert detect(H, 0) == []
    first = [w.to_dict() for w in detect(H, 3)]
    assert len(first) == 3
    assert [w.to_dict() for w in detect(H, 2)] == first[:2]
    for limit in (-1, -3):
        with pytest.raises(InvalidArguments, match="limit"):
            detect(H, limit)


def test_prune_rejects_batches_below_one():
    H = gen_gnp(12, 3, 0.5, stream(1))
    for batch in (0, -2):
        with pytest.raises(InvalidArguments, match="batch"):
            prune_short_cycles(H, set(range(H.n)), two_ells=(2,), batch=batch)


@pytest.mark.parametrize("value", [2.5, 2.0, True, False, "2"])
def test_non_integer_limit_ell_and_batch_raise(value):
    H = gen_gnp(12, 3, 0.5, stream(1))
    for name in sorted(DETECTORS):
        with pytest.raises(InvalidArguments, match="limit"):
            DETECTORS[name](H, value)
    with pytest.raises(InvalidArguments, match="ell"):
        list_two_cycles(H, ell=value)
    with pytest.raises(InvalidArguments, match="ell"):
        count_two_cycles(H, value)
    with pytest.raises(InvalidArguments, match="batch"):
        prune_short_cycles(H, set(range(H.n)), two_ells=(2,), batch=value)


def _layers_two_and_four() -> LayeredHypergraph:
    # layer 3 stays empty between two full ones
    H = random_layered(stream(3, "two-and-four"), n=14, k=4, edges=200)
    G = LayeredHypergraph(14, 4)
    for layer, e in H.edges():
        if layer != 3:
            G.add_edge(e)
    return G


DENSE_TWO_CYCLE_INPUTS = {
    "gnp_k3": lambda: gen_gnp(30, 3, 0.2, stream(1, "dense-2cyc")),
    "gnp_k4": lambda: gen_gnp(20, 4, 0.1, stream(2, "dense-2cyc")),
    "gnp_k5": lambda: gen_gnp(14, 5, 0.1, stream(3, "dense-2cyc")),
    "mixed_k4": lambda: random_layered(stream(4, "dense-2cyc"), n=15, k=4, edges=300),
    "mixed_k5": lambda: random_layered(stream(5, "dense-2cyc"), n=18, k=5, edges=400),
    "layers_2_and_4": _layers_two_and_four,
    "empty": lambda: LayeredHypergraph(0, 3),
    "edgeless": lambda: LayeredHypergraph(10, 4),
    "one_edge": lambda: gen_gnp(4, 4, 1.0, stream(6, "dense-2cyc")),
}


@pytest.mark.parametrize("name", sorted(DENSE_TWO_CYCLE_INPUTS))
def test_two_cycles_match_replay_on_dense_inputs(name):
    # hundreds of pairs and subsets shared by many edges, where the
    # shared-subset index does all its grouping
    H = DENSE_TWO_CYCLE_INPUTS[name]()

    def dicts(witnesses):
        return [w.to_dict() for w in witnesses]

    for ell in (None, *range(2, H.k + 2)):
        full = dicts(replay_list_two_cycles(H, ell))
        for limit in (1, 5, None):
            assert dicts(list_two_cycles(H, ell, limit)) == full[:limit]
        if ell is not None:
            assert count_two_cycles(H, ell) == len(full)


@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_detector_streams_match_replay(seed, k):
    # the detectors before they became streams over one bucket index: equal
    # witnesses in equal order, for every limit >= 1 and None
    rng = stream(seed, "struct-stream-replay", k)
    n = int(rng.integers(k + 1, 14))
    H = random_layered(rng, n=n, k=k, edges=int(rng.integers(0, 3 * n)))

    def dicts(witnesses):
        return [w.to_dict() for w in witnesses]

    for limit in (1, 2, 5, None):
        for ell in (None, *range(2, k + 1)):
            assert dicts(list_two_cycles(H, ell, limit)) == dicts(replay_list_two_cycles(H, ell, limit))
        assert dicts(find_linear_three_cycles(H, limit)) == dicts(replay_find_linear_three_cycles(H, limit))
        assert dicts(check_property_vprime(H, limit)) == dicts(replay_check_property_vprime(H, limit))


# -- oracle equivalence --------------------------------------------------------


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_two_cycle_enumeration_matches_oracle(seed):
    rng = stream(seed, "struct-2cyc")
    H = random_layered(rng, n=11, k=4, edges=16)
    expect = brute_two_cycles(H, None)
    got = list_two_cycles(H)
    assert len(got) == len(expect)
    assert {frozenset(w.edges) for w in got} == set(expect)
    for ell in (2, 3):
        assert count_two_cycles(H, ell) == len(brute_two_cycles(H, ell))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_linear_three_matches_oracle(seed):
    rng = stream(seed, "struct-3cyc")
    H = random_layered(rng, n=11, k=4, edges=16)
    got = {frozenset(w.edges) for w in find_linear_three_cycles(H)}
    assert got == set(brute_linear_three(H))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_clean_four_matches_oracle(seed):
    rng = stream(seed, "struct-4cyc")
    H = random_layered(rng, n=12, k=3, edges=14)
    got = {frozenset(w.edges) for w in find_clean_four_cycles(H)}
    assert got == set(brute_clean_four(H))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_bouquet_matches_oracle(seed):
    rng = stream(seed, "struct-bouquet")
    H = random_layered(rng, n=10, k=4, edges=12)
    assert set(check_bouquet(H).violated_properties()) == brute_bouquet_violations(H)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_vprime_matches_oracle(seed):
    rng = stream(seed, "struct-vprime")
    H = random_layered(rng, n=10, k=4, edges=12)
    got = {frozenset(w.edges) for w in check_property_vprime(H)}
    assert got == set(brute_vprime(H))


def _assert_bouquet_replayed(H: LayeredHypergraph, limits=(1, 2, 5, None)) -> None:
    """check_bouquet and find_clean_four_cycles give what they gave before
    the lazy clean 4-cycle scan and the shared overlap pass: equal reports,
    witnesses and emission order."""
    assert check_bouquet(H).to_dict() == replay_check_bouquet(H).to_dict()
    for limit in limits:
        got = [w.to_dict() for w in find_clean_four_cycles(H, limit=limit)]
        assert got == [w.to_dict() for w in replay_find_clean_four_cycles(H, limit=limit)]


@given(st.integers(0, 2**31 - 1), st.integers(2, 5), st.integers(1, 15))
@settings(max_examples=100, deadline=None)
def test_bouquet_matches_replay(seed, k, layers):
    # bit i-2 of ``layers`` keeps layer i, so one or two nonempty layers
    # occur often: the overlap pass may stop early only with one
    rng = stream(seed, "struct-bouquet-replay", k)
    n = int(rng.integers(k + 1, 16))
    H = LayeredHypergraph(n, k)
    for _, e in random_layered(rng, n=n, k=k, edges=int(rng.integers(0, 4 * n))).edges():
        if layers >> (len(e) - 2) & 1:
            H.add_edge(e)
    _assert_bouquet_replayed(H)


def test_bouquet_matches_replay_on_gate_instances():
    # the instances of the acceptance battery's oracle gate
    for i in range(300):
        n = 6 + i % 9
        k = 3 + i % 3
        edges = 40 if (i % 30 == 0 and n >= 10) else 10 + i % 13
        _assert_bouquet_replayed(random_layered(stream(40, "c2", i), n=n, k=k, edges=edges))


def test_bouquet_matches_replay_on_rough_file():
    # a rough 4-uniform input, which violates ii, iii and iv early
    H = gen_gnp(800, 4, 5000 / math.comb(800, 4), stream(1, "struct-rough"))
    assert check_bouquet(H).violated_properties() == ["ii", "iii", "iv"]
    _assert_bouquet_replayed(H, limits=(1, 2, 5))


# the largest n drawn per uniformity: at p = 1 the full v' list of
# gen_gnp(9, 5) holds 83,160 triples and the linear 3-cycle list of
# gen_gnp(11, 3) 55,440 cycles
DENSE_MAX_N = {2: 14, 3: 11, 4: 9, 5: 9}


@given(st.integers(0, 2**31 - 1), st.integers(2, 5), st.floats(0.0, 1.0), st.booleans())
@settings(max_examples=40, deadline=None)
def test_pair_index_scans_match_replay_on_dense_inputs(seed, k, p, mixed):
    # dense and violating inputs, where most covered pairs lie in several
    # edges: the scans on the forward pair index give the witnesses of the
    # all-pairs buckets, in the same order
    rng = stream(seed, "struct-pair-index", k)
    n = int(rng.integers(k + 1, DENSE_MAX_N[k] + 1))
    if mixed:
        H = random_layered(rng, n=n, k=k, edges=int(p * 5 * n))
    else:
        H = gen_gnp(n, k, p, rng)

    def dicts(witnesses):
        return [w.to_dict() for w in witnesses]

    assert check_bouquet(H).to_dict() == replay_check_bouquet(H).to_dict()
    for limit in (None, 1, 10):
        assert dicts(find_linear_three_cycles(H, limit)) == dicts(replay_find_linear_three_cycles(H, limit))
        assert dicts(check_property_vprime(H, limit)) == dicts(replay_check_property_vprime(H, limit))


@pytest.fixture
def built_maps(monkeypatch):
    """The vertices whose forward maps the pair index builds, in order."""
    built: list[int] = []

    class Recording(structure._PairIndex):
        __slots__ = ()

        def __missing__(self, a):
            built.append(a)
            return super().__missing__(a)

    monkeypatch.setattr(structure, "_PairIndex", Recording)
    return built


def test_check_bouquet_on_a_rough_file_builds_few_maps(built_maps):
    # ii) is met at vertex 0 and iii) at its first later neighbour, so the
    # report needs the maps of two of the 800 vertices
    H = gen_gnp(800, 4, 5000 / math.comb(800, 4), stream(1, "struct-rough"))
    assert check_bouquet(H).violated_properties() == ["ii", "iii", "iv"]
    assert 1 <= len(built_maps) <= 2
    assert built_maps[0] == 0


def test_check_bouquet_on_an_edgeless_graph_builds_no_map(built_maps):
    assert check_bouquet(LayeredHypergraph(800, 2)).holds
    assert find_linear_three_cycles(LayeredHypergraph(800, 3)) == []
    assert check_property_vprime(LayeredHypergraph(800, 4)) == []
    assert built_maps == []


# name -> (graph, what the full list is compared with: "brute" for the
# brute-force oracle and the replay, "replay" for the replay alone, None
# where it holds ~10^5-10^6 cycles and only prefixes are compared)
DENSE_CLEAN_FOUR_INPUTS = {
    "gnp_n9_p05": (lambda: gen_gnp(9, 3, 0.5, stream(1, "dense-4cyc")), "brute"),
    "gnp_n10_p06": (lambda: gen_gnp(10, 3, 0.6, stream(2, "dense-4cyc")), "replay"),
    "gnp_n10_k4_p05": (lambda: gen_gnp(10, 4, 0.5, stream(3, "dense-4cyc")), None),
    "gnp_n14_p05": (lambda: gen_gnp(14, 3, 0.5, stream(4, "dense-4cyc")), None),
    "mixed_n10_k4": (lambda: random_layered(stream(5, "dense-4cyc"), n=10, k=4, edges=45), "brute"),
    "mixed_n12_k3": (lambda: random_layered(stream(6, "dense-4cyc"), n=12, k=3, edges=60), "replay"),
    "complete_n12": (lambda: gen_gnp(12, 3, 1.0, stream(7, "dense-4cyc")), None),
}


@pytest.mark.parametrize("name", sorted(DENSE_CLEAN_FOUR_INPUTS))
def test_clean_four_matches_replay_on_dense_inputs(name):
    # every cycle is met under both diagonals, so on these graphs the scan's
    # x < mid < e3 rule drops as many repeats as the replay's emitted set
    build, full = DENSE_CLEAN_FOUR_INPUTS[name]
    H = build()
    assert sum(1 for _ in H.edges()) > 4 * H.n
    assert check_bouquet(H).to_dict() == replay_check_bouquet(H).to_dict()
    for limit in (1, 7, 50) if full is None else (1, 7, 50, None):
        witnesses = find_clean_four_cycles(H, limit=limit)
        expect = replay_find_clean_four_cycles(H, limit=limit)
        assert [w.to_dict() for w in witnesses] == [w.to_dict() for w in expect]
    if full is not None:
        assert len(witnesses) >= 1000
    if full == "brute":
        cycles = [frozenset(w.edges) for w in witnesses]
        assert len(set(cycles)) == len(cycles)
        assert set(cycles) == set(brute_clean_four(H))


def _near_candidate(H: LayeredHypergraph, edges: list, rng) -> tuple:
    """A candidate edge drawn from the vertices of an existing edge f, of an
    edge through a neighbor of f, and of two random vertices; its size is
    f's or a random one in 2..k."""
    f = edges[int(rng.integers(len(edges)))]
    near = sorted(H.neighborhood(f, 1))
    x = near[int(rng.integers(len(near)))]
    layer, idx = H.incidence[x][int(rng.integers(len(H.incidence[x])))]
    pool = set(f) | set(H.layers[layer][idx])
    pool |= set(int(v) for v in rng.choice(H.n, size=2, replace=False))
    size = len(f) if rng.random() < 0.5 else int(rng.integers(2, H.k + 1))
    size = min(size, len(pool))
    return tuple(sorted(int(v) for v in rng.choice(sorted(pool), size=size, replace=False)))


def _anchored_vs_around(seed: int, k: int) -> set[str]:
    """Grow a clean mixed-layer instance with the whole-graph check, then
    try candidates near its edges (``_near_candidate``).  For each new one
    the anchored test must say whether the whole-graph report of the graph
    with it fails; returns the properties behind its rejections."""
    rng = stream(seed, "struct-anchored", k)
    counts = {i: int(rng.integers(0, 13)) for i in range(2, k + 1)}
    H, _ = replay_layered_bouquet(24, k, counts, rng, max_stall=40)
    edges = [e for _, e in H.edges()]
    rejected: set[str] = set()
    for _ in range(12 if edges else 0):
        e = _near_candidate(H, edges, rng)
        if H.has_edge(e):
            continue
        closes = _closes_violation(H, e)
        H.add_edge(e)
        report = check_bouquet(H)
        H.pop_edge(len(e))
        assert closes == (not report.holds)
        rejected.update(report.violated_properties())
    return rejected


@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
@settings(max_examples=80, deadline=None)
def test_anchored_violation_test_matches_local_report(seed, k):
    _anchored_vs_around(seed, k)


def test_anchored_violation_test_rejects_for_every_property():
    rejected = set()
    for k in (2, 3, 4, 5):
        for seed in range(12):
            rejected |= _anchored_vs_around(seed, k)
    assert rejected == {"i", "ii", "iii", "iv", "v"}


@pytest.mark.parametrize(
    "k, edges, candidate, prop",
    [
        (3, [(0, 1)], (0, 1, 2), "i"),
        (3, [(0, 1, 2)], (0, 1, 3), None),  # shares size - 1 in its layer
        (4, [(0, 1, 2, 3)], (0, 1, 4, 5), "ii"),
        (3, [(0, 1, 2), (2, 3, 4)], (0, 4, 5), "iii"),
        (2, [(0, 1), (1, 2)], (0, 2), None),  # three layer-2 edges
        (3, [(0, 1), (1, 2, 3)], (0, 3), None),  # two layer-2 edges
        (3, [(0, 1), (2, 3), (1, 3, 4)], (0, 2, 5), "iv"),
        (3, [(0, 1, 2), (2, 3, 4)], (0, 2, 3), "v"),  # e in the middle
        (3, [(0, 1, 2), (1, 2, 3)], (2, 3, 4), "v"),  # e at an end
    ],
)
def test_anchored_violation_test_hand_cases(k, edges, candidate, prop):
    H = LayeredHypergraph(8, k)
    for f in edges:
        H.add_edge(f)
    assert check_bouquet(H).holds
    closes = _closes_violation(H, candidate)
    H.add_edge(candidate)
    assert closes == (prop is not None)
    assert check_bouquet(H).violated_properties() == ([prop] if prop else [])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_link_components_match_oracle(seed):
    rng = stream(seed, "struct-link")
    H = random_layered(rng, n=10, k=4, edges=14)
    for x in range(H.n):
        assert link_components(H, x) == brute_link_components(H, x)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_common_neighbor_max_matches_oracle(seed):
    rng = stream(seed, "struct-gamma")
    H = LayeredHypergraph(10, 4)
    for _ in range(12):
        e = rng.choice(10, size=3, replace=False)
        H.add_edge(tuple(int(v) for v in e))
    assert common_neighbor_max(H, 3) == brute_common_neighbor_max(H, 3)


@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
@settings(max_examples=80, deadline=None)
def test_common_neighbor_max_matches_dict_replay(seed, k):
    # the completion and pair dicts before the one subset count in core
    H = random_count_graph(stream(seed, "struct-gamma-replay", k), k)
    for layer in range(2, k + 1):
        got = common_neighbor_max(H, layer)
        assert got == replay_common_neighbor_max(H, layer)
        assert type(got) is int


# -- classification ------------------------------------------------------------


def test_classify_sunflower():
    result = classify_intersecting_family([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert result.kind == "sunflower"
    assert result.core == (0, 1)


def test_classify_clique():
    family = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    result = classify_intersecting_family(family)
    assert result.kind == "clique"
    assert result.uniformity == 3


def test_classify_two_edges_prefers_sunflower():
    result = classify_intersecting_family([(0, 1, 2), (0, 1, 3)])
    assert result.kind == "sunflower"
    assert result.core == (0, 1)


def test_classify_not_applicable_cases():
    assert classify_intersecting_family([(0, 1, 2), (0, 1, 2, 3)]).kind == "not_applicable"
    assert classify_intersecting_family([(0, 1, 2, 3), (0, 1, 4, 5)]).kind == "not_applicable"
    with pytest.raises(InvalidArguments):
        classify_intersecting_family([(0, 1, 2), (0, 3, 4)])
    with pytest.raises(InvalidArguments):
        classify_intersecting_family([])


@pytest.mark.parametrize(
    "family, edge",
    [([(0, 0, 1)], "(0, 0, 1)"), ([(0, 0, 1), (0, 0, 2)], "(0, 0, 1)"), ([(0, 1, 2), (3, 1, 3)], "(1, 3, 3)")],
)
def test_classify_rejects_a_repeated_vertex(family, edge):
    with pytest.raises(InvalidArguments, match=re.escape(f"repeated vertex in edge {edge}")):
        classify_intersecting_family(family)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_classify_matches_oracle_on_perturbed_families(seed):
    rng = stream(seed, "struct-classify")
    base = int(rng.integers(3, 6))
    style = int(rng.integers(0, 3))
    if style == 0:  # sunflower with random petals
        core = tuple(range(base - 1))
        family = [core + (base - 1 + j,) for j in range(int(rng.integers(1, 5)))]
    elif style == 1:  # all base-subsets of a (base+1)-set
        family = list(itertools.combinations(range(base + 1), base))
    else:  # perturbed: may break the overlap pattern
        core = tuple(range(base - 1))
        family = [core + (base - 1 + j,) for j in range(3)]
        family.append(tuple(range(1, base + 1)))
    try:
        got = classify_intersecting_family(family)
    except InvalidArguments:
        return  # families violating the pairwise-overlap precondition
    kind, core = brute_classify(family)
    assert got.kind == kind
    if kind == "sunflower":
        assert got.core == core


def test_common_neighbor_max_layer_handling():
    H = LayeredHypergraph(6, 3)
    assert common_neighbor_max(H) == 0
    H.add_edge((0, 1, 2))
    H.add_edge((0, 1, 3))
    assert common_neighbor_max(H) == 1  # single nonempty layer inferred
    H.add_edge((4, 5))
    with pytest.raises(InvalidArguments):
        common_neighbor_max(H)
    assert common_neighbor_max(H, 3) == 1
    for layer in (3.0, True, "3", 4):
        with pytest.raises(InvalidArguments):
            common_neighbor_max(H, layer)


# -- pruning -------------------------------------------------------------------


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_prune_short_cycles_clears_requested_kinds(seed):
    rng = stream(seed, "struct-prune")
    H = random_layered(rng, n=24, k=3, edges=40)
    keep, info = prune_short_cycles(
        H, set(range(H.n)), two_ells=(2,), linear3=True, clean4=True
    )
    assert keep <= set(range(H.n))
    sub, _ = H.induce(sorted(keep))
    assert count_two_cycles(sub, 2) == 0
    assert find_linear_three_cycles(sub) == []
    assert find_clean_four_cycles(sub) == []
    assert info["passes"] >= 1


def test_prune_noop_on_clean_input():
    H = LayeredHypergraph(6, 3)
    H.add_edge((0, 1, 2))
    H.add_edge((3, 4, 5))
    keep, info = prune_short_cycles(H, set(range(6)), two_ells=(2,), linear3=True, clean4=True)
    assert keep == set(range(6))
    assert info["passes"] == 1
    assert sum(info["witnesses"].values()) == 0


def test_prune_uses_the_graph_itself_when_keeping_every_vertex(monkeypatch):
    calls = []
    induce = LayeredHypergraph.induce
    monkeypatch.setattr(LayeredHypergraph, "induce", lambda self, vs: calls.append(self) or induce(self, vs))
    H = LayeredHypergraph(6, 3)
    H.add_edge((0, 1, 2))
    H.add_edge((3, 4, 5))
    kinds = dict(two_ells=(2,), linear3=True, clean4=True)
    assert prune_short_cycles(H, set(range(6)), **kinds)[0] == set(range(6))
    assert calls == []
    assert prune_short_cycles(H, {0, 1, 2, 3}, **kinds)[0] == {0, 1, 2, 3}
    assert calls == [H]
    # ids that are not plain ints still go through induce's checks
    with pytest.raises(InvalidVertex):
        prune_short_cycles(H, {0.0, 1, 2, 3, 4, 5}, **kinds)


@given(
    seed=st.integers(0, 2**31 - 1),
    k=st.integers(2, 5),
    batch=st.sampled_from([1, 2, 3, 8, 512, None]),
    linear3=st.booleans(),
    clean4=st.booleans(),
    ells=st.integers(0, 15),
)
@settings(max_examples=150, deadline=None)
def test_prune_matches_per_pass_replay(seed, k, batch, linear3, clean4, ells):
    # dense enough that the small batches need several passes
    rng = stream(seed, "struct-prune-replay")
    n = int(rng.integers(k + 2, 20))
    H = random_layered(rng, n=n, k=k, edges=int(rng.integers(n, 4 * n)))
    kept = rng.uniform(0.5, 1.0)
    keep = {v for v in range(n) if rng.random() < kept}
    two_ells = tuple(ell for ell in range(2, k + 1) if ells >> (ell - 2) & 1)
    kinds = dict(two_ells=two_ells, linear3=linear3, clean4=clean4, batch=batch)
    assert prune_short_cycles(H, keep, **kinds) == replay_prune_short_cycles(H, keep, **kinds)
