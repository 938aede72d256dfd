"""Baseline solvers and the degree-completion routine."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from hyperind.algorithms import almost_regular_complete, greedy_set, spencer_set
from hyperind.algorithms.basic import MAX_SAMPLES
from hyperind.core import LayeredHypergraph
from hyperind.errors import HyperindError, InvalidArguments, PreconditionFailed
from hyperind.generators import gen_disjoint_cliques, gen_gnp, gen_layered_bouquet
from hyperind.rng import stream

from oracles import brute_alpha, replay_almost_regular_complete


def assert_independent(H, vertices):
    ok, witness = H.is_independent(vertices)
    assert ok, f"set spans edge {witness}"


def assert_maximal(H, vertices):
    chosen = set(vertices)
    for v in range(H.n):
        if v in chosen:
            continue
        ok, _ = H.is_independent(chosen | {v})
        assert not ok, f"vertex {v} could still be added"


def test_greedy_exact_on_disjoint_cliques():
    H, info = gen_disjoint_cliques(20, 3, 5)
    out = greedy_set(H)
    assert len(out) == info["alpha_exact"] == 8
    assert_independent(H, out)
    assert_maximal(H, out)


def test_greedy_mindegree_deterministic():
    rng = stream(99, "greedy-det")
    H = gen_gnp(30, 3, 0.02, rng)
    assert greedy_set(H) == greedy_set(H)


def test_greedy_random_order_seeded():
    H = gen_gnp(30, 3, 0.02, stream(7, "greedy-rand"))
    a = greedy_set(H, rng=stream(7, "order"), order="random")
    b = greedy_set(H, rng=stream(7, "order"), order="random")
    assert a == b
    assert_independent(H, a)
    assert_maximal(H, a)


def test_greedy_edgeless_takes_everything():
    H = LayeredHypergraph(6, 3)
    assert greedy_set(H) == tuple(range(6))


def test_greedy_argument_checks():
    H = LayeredHypergraph(4, 3)
    with pytest.raises(InvalidArguments):
        greedy_set(H, order="fancy")
    with pytest.raises(InvalidArguments):
        greedy_set(H, order="random")  # needs an rng


def test_greedy_never_beats_exact_alpha():
    for seed in range(8):
        rng = stream(seed, "greedy-vs-alpha")
        H = gen_gnp(10, 3, 0.08, rng)
        alpha = brute_alpha(H)
        out = greedy_set(H)
        assert_independent(H, out)
        assert len(out) <= alpha


def test_spencer_requires_enough_samples():
    H = LayeredHypergraph(5, 3)
    with pytest.raises(InvalidArguments):
        spencer_set(H, stream(1, "s"), samples=19)
    spencer_set(H, stream(1, "s"), samples=MAX_SAMPLES)
    with pytest.raises(InvalidArguments, match="samples"):
        spencer_set(H, stream(1, "s"), samples=MAX_SAMPLES + 1)


def test_spencer_trivial_inputs():
    empty = LayeredHypergraph(0, 3)
    assert spencer_set(empty, stream(1, "s")) == ()
    edgeless = LayeredHypergraph(7, 3)
    assert spencer_set(edgeless, stream(1, "s")) == tuple(range(7))


def test_spencer_floor_and_independence():
    # expected size (1 - 1/k) n / d^(1/(k-1)); the relaxed floor with
    # 1 - 2/k leaves room for the deletion step, and min-of-20 sampling
    # should clear it on every run
    for seed in range(10):
        rng = stream(seed, "spencer-floor")
        H = gen_gnp(60, 3, 30 / math.comb(60, 3), rng)
        m = H.num_edges()
        if m == 0:
            continue
        d = 3 * m / 60
        if d < 1.0:
            continue
        out = spencer_set(H, stream(seed, "spencer-run"))
        assert_independent(H, out)
        floor = math.floor((1 - 2 / 3) * math.floor(60 / d ** 0.5))
        assert len(out) >= floor


def test_spencer_deterministic_per_seed():
    H = gen_gnp(50, 4, 60 / math.comb(50, 4), stream(3, "sp-det"))
    a = spencer_set(H, stream(3, "sp-run"))
    b = spencer_set(H, stream(3, "sp-run"))
    assert a == b


def bouquet_input(seed, n=60, k=4, counts=None):
    counts = counts or {2: 8, 3: 6, 4: 5}
    H, info = gen_layered_bouquet(n, k, counts, stream(seed, "arc-input"))
    return H


def caps_above(H):
    caps = {}
    for i in range(2, H.k + 1):
        caps[i] = max(H.max_min_degree(i, 1)[0], 1) + 1
    return caps


def test_complete_requires_all_layer_caps():
    H = LayeredHypergraph(10, 4)
    with pytest.raises(InvalidArguments):
        almost_regular_complete(H, {2: 1, 3: 1})  # no cap for layer 4
    with pytest.raises(InvalidArguments):
        almost_regular_complete(H, {2: 1, 3: 1, 4: -1})


def test_complete_rejects_cycle_heavy_input():
    H = LayeredHypergraph(8, 3)
    H.add_edge((0, 1, 4))
    H.add_edge((1, 2, 5))
    H.add_edge((0, 2, 6))  # linear triangle with no 2-edge support
    with pytest.raises(PreconditionFailed) as err:
        almost_regular_complete(H, {2: 2, 3: 4})
    assert err.value.witness is not None


def test_complete_rejects_overfull_input():
    H = LayeredHypergraph(8, 3)
    H.add_edge((0, 1, 2))
    H.add_edge((0, 3, 4))
    with pytest.raises(PreconditionFailed):
        almost_regular_complete(H, {2: 1, 3: 1})  # vertex 0 already at 2


def test_complete_perfect_matching_case():
    H = LayeredHypergraph(6, 2)
    H2, B, info = almost_regular_complete(H, {2: 1})
    assert B == set()
    assert sorted(e for _, e in H2.edges()) == [(0, 1), (2, 3), (4, 5)]
    assert info["b"] == 2
    assert info["b_bound"] == 2 * 2 * 2 ** 3


def test_complete_zero_cap_layer_left_alone():
    H = LayeredHypergraph(12, 3)
    H2, B, info = almost_regular_complete(H, {2: 1, 3: 0})
    assert info["added_per_layer"][3] == 0
    assert H2.layer_sizes()[3] == 0
    assert B == set()


def test_complete_stalls_when_pair_cap_blocks_everything():
    H = LayeredHypergraph(12, 3)
    H2, B, info = almost_regular_complete(H, {2: 0, 3: 1}, pair_caps={3: 0})
    assert info["stalled_layers"] == [3]
    assert info["added_per_layer"][3] == 0
    assert B == set(range(12))


def test_complete_postconditions():
    for seed in range(6):
        H = bouquet_input(seed)
        caps = caps_above(H)
        H2, B, info = almost_regular_complete(H, caps)

        for layer, edge in H.edges():
            assert H2.has_edge(edge)
        assert H2.n == H.n

        deg = {i: [0] * H2.n for i in range(2, H2.k + 1)}
        for x in range(H2.n):
            for layer, _ in H2.incidence[x]:
                deg[layer][x] += 1
        for i in range(2, H2.k + 1):
            for x in range(H2.n):
                assert deg[i][x] <= caps[i]
                if x not in B:
                    assert deg[i][x] == caps[i]

        b = 1 + sum((i - 1) * caps[i] for i in range(2, H2.k + 1))
        assert info["b"] == b
        assert len(B) <= H2.k * H2.k * b ** 3

        assert check_ok(H2)


def check_ok(H):
    from hyperind.structure import check_bouquet

    return check_bouquet(H).holds


def test_complete_new_pairs_stay_light():
    # fresh edges join vertices that were pairwise far apart, so no pair
    # of vertices gains a second shared edge
    H = bouquet_input(11, n=50, k=3, counts={2: 6, 3: 5})
    caps = caps_above(H)
    pmax = max(H.max_min_degree(3, 2)[0], 1)
    H2, B, info = almost_regular_complete(H, caps, pair_caps={3: pmax})
    assert H2.max_min_degree(3, 2)[0] <= pmax
    assert check_ok(H2)


def _completion_outcome(fn, H, caps, pair_caps, check_input):
    try:
        H2, B, info = fn(H, caps, pair_caps, check_input)
    except HyperindError as exc:
        return type(exc), str(exc)
    return H2.layers, B, info


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_complete_matches_radius_three_replay(data):
    k = data.draw(st.integers(2, 5))
    n = data.draw(st.integers(k, 50))
    counts = {i: data.draw(st.integers(0, 12)) for i in range(2, k + 1)}
    seed = data.draw(st.integers(0, 2**31 - 1))
    H, _ = gen_layered_bouquet(n, k, counts, stream(seed, "arc-eq"), max_stall=40)
    caps = {i: H.max_min_degree(i, 1)[0] + data.draw(st.integers(0, 4)) for i in range(2, k + 1)}
    pair_caps = None
    if data.draw(st.booleans()):
        pair_caps = {}
        for i in range(3, k + 1):
            if data.draw(st.booleans()):
                pair_caps[i] = data.draw(st.sampled_from([0, H.max_min_degree(i, i - 1)[0] + 1]))
    check_input = data.draw(st.booleans())
    got = _completion_outcome(almost_regular_complete, H, caps, pair_caps, check_input)
    expect = _completion_outcome(replay_almost_regular_complete, H, caps, pair_caps, check_input)
    assert got == expect
