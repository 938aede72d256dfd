"""Input families: distributional sanity, postconditions, closed forms."""

import itertools
import math

import numpy as np
import pytest

from hyperind.core import LayeredHypergraph
from hyperind.errors import InvalidArguments
from hyperind.generators import (
    _DRAW_BLOCK,
    _unrank_combinations,
    gen_disjoint_cliques,
    gen_girth5,
    gen_gnp,
    gen_layered_bouquet,
)
from hyperind.rng import stream
from hyperind.structure import (
    check_bouquet,
    count_two_cycles,
    find_clean_four_cycles,
    find_linear_three_cycles,
)

from oracles import (
    brute_alpha,
    replay_girth5,
    replay_gnp,
    replay_layered_bouquet,
    unrank_combination,
)


def plain_state(rng) -> dict:
    """``rng.bit_generator.state`` with its arrays as lists, comparable by ==."""

    def plain(x):
        if isinstance(x, dict):
            return {key: plain(value) for key, value in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x

    return plain(rng.bit_generator.state)


def test_gnp_validation():
    rng = stream(1, "gnp")
    with pytest.raises(InvalidArguments):
        gen_gnp(10, 1, 0.5, rng)
    with pytest.raises(InvalidArguments):
        gen_gnp(-1, 3, 0.5, rng)
    with pytest.raises(InvalidArguments):
        gen_gnp(10, 3, 1.5, rng)
    with pytest.raises(InvalidArguments):
        gen_gnp(10_000, 4, 0.9, rng)  # astronomically many edges


def test_gnp_edge_count_tracks_expectation():
    total = math.comb(30, 3)
    p = 0.05
    sizes = []
    for seed in range(10):
        H = gen_gnp(30, 3, p, stream(seed, "gnp-count"))
        sizes.append(H.num_edges())
    mean = sum(sizes) / len(sizes)
    assert abs(mean - p * total) < 25  # ~5 sigma of the 10-run average


def test_gnp_p_zero_and_one():
    rng = stream(2, "gnp-ends")
    assert gen_gnp(12, 3, 0.0, rng).num_edges() == 0
    H = gen_gnp(7, 3, 1.0, rng)
    got = [e for _, e in H.edges()]
    assert sorted(got) == list(itertools.combinations(range(7), 3))
    assert got == [unrank_combination(idx, 7, 3) for idx in range(math.comb(7, 3))]


@pytest.mark.parametrize("n", range(0, 11))
def test_unrank_every_index_small(n):
    for k in range(1, 6):
        combs = list(itertools.combinations(range(n), k))
        rows = _unrank_combinations(list(range(len(combs))), n, k).tolist()
        for idx, (row, comb) in enumerate(zip(rows, combs, strict=True)):
            assert tuple(row) == comb
            assert unrank_combination(idx, n, k) == comb


# (100, 95): C(100, 50) overflows int64 although C(100, 95) does not
@pytest.mark.parametrize("n, k", [(10**5, 5), (1000, 3), (300, 8), (64, 32), (100, 95)])
def test_unrank_matches_reference_on_large_n(n, k):
    total = math.comb(n, k)
    rng = stream(n, "unrank", k)
    picks = {0, 1, total // 2, total - 2, total - 1}
    picks.update(int(rng.integers(0, 2**62)) * total // 2**62 for _ in range(300))
    if total > 2**63:
        picks.update({2**63 - 1, 2**63, 2**63 + 1})
    picks = sorted(picks)
    rows = _unrank_combinations(picks, n, k).tolist()
    for idx, row in zip(picks, rows, strict=True):
        assert tuple(row) == unrank_combination(idx, n, k)
    assert tuple(rows[-1]) == tuple(range(n - k, n))


@pytest.mark.parametrize("n, k, p", [(30, 3, 0.05), (25, 4, 0.01), (40, 2, 0.3), (12, 5, 0.5)])
def test_gnp_edges_in_reference_unranking_order(n, k, p):
    for seed in range(3):
        rng, replay_rng = stream(seed, "gnp-order"), stream(seed, "gnp-order")
        H = gen_gnp(n, k, p, rng)
        assert H.layers == replay_gnp(n, k, p, replay_rng).layers
        assert plain_state(rng) == plain_state(replay_rng)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64])
@pytest.mark.parametrize(
    "n, k, p",
    [
        (30, 3, 0.05),  # a few hundred edges, all in the first block
        (60, 3, 0.3),  # ~10k edges: full blocks, then the rewind in a later one
        (50, 3, 1e-12),  # no edge: the first value already jumps past the end
        (10_000, 6, 300 / math.comb(10_000, 6)),  # C(n, k) >= 2^63: object ranks
    ],
)
def test_gnp_matches_one_draw_at_a_time(bit_generator, n, k, p):
    rng, replay_rng = (np.random.Generator(bit_generator(7)) for _ in range(2))
    H = gen_gnp(n, k, p, rng)
    R = replay_gnp(n, k, p, replay_rng)
    assert H.layers == R.layers
    assert H.incidence == R.incidence
    assert H == R
    assert plain_state(rng) == plain_state(replay_rng)
    if p == 0.3:
        assert H.num_edges() > _DRAW_BLOCK
    if p == 1e-12:
        assert H.num_edges() == 0


@pytest.mark.parametrize("p", [5e-324, 2.2e-311, 1e-300])
def test_gnp_with_a_vanishing_p_draws_one_gap_and_no_edge(p):
    # below p of about 1e-307 a gap's float quotient passes the largest
    # float; it still lies past every rank
    rng, replay_rng = stream(1, "gnp-tiny-p"), stream(1, "gnp-tiny-p")
    assert gen_gnp(12, 3, p, rng).num_edges() == 0
    replay_rng.random()
    assert plain_state(rng) == plain_state(replay_rng)


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: gen_gnp(True, 2, 0.1, rng),
        lambda rng: gen_gnp(10.0, 3, 0.1, rng),
        lambda rng: gen_gnp(10, 3.0, 0.1, rng),
        lambda rng: gen_gnp(10, 3, "0.1", rng),
        lambda rng: gen_gnp(10, 3, True, rng),
        lambda rng: gen_girth5(30.0, 3, 2.0, rng),
        lambda rng: gen_girth5(30, True, 2.0, rng),
        lambda rng: gen_girth5(30, 3, "2", rng),
        lambda rng: gen_girth5(30, 3, 2.0, rng, batch=2.5),
        lambda rng: gen_girth5(30, 3, 2.0, rng, batch=True),
        lambda rng: gen_disjoint_cliques(10, 3, 2.5),
        lambda rng: gen_disjoint_cliques(10.0, 3, 2),
        lambda rng: gen_disjoint_cliques(10, True, 2),
        lambda rng: gen_layered_bouquet(10.0, 3, {2: 1}, rng),
        lambda rng: gen_layered_bouquet(10, 3, {2: 1, 3: 1.5}, rng),
        lambda rng: gen_layered_bouquet(10, 3, {2: 1, 3: -1}, rng),
        lambda rng: gen_layered_bouquet(10, 3, {2: 1}, rng, vertex_caps={2: "1"}),
        lambda rng: gen_layered_bouquet(10, 3, {2: 1}, rng, vertex_caps={7: 1}),
        lambda rng: gen_layered_bouquet(10, 3, {2: 1}, rng, vertex_caps={1: 1}),
        lambda rng: gen_layered_bouquet(10, 3, {2: 1}, rng, vertex_caps={"2": 1}),
        lambda rng: gen_layered_bouquet(10, 3, {2: 1}, rng, vertex_caps={2.0: 1}),
        lambda rng: gen_layered_bouquet(10, 3, {2: 1}, rng, vertex_caps={2: -1}),
        lambda rng: gen_layered_bouquet(10, 3, {2: 1}, rng, max_stall=-1),
        lambda rng: gen_layered_bouquet(10, 3, {2: 1}, rng, max_stall=0),
        lambda rng: gen_layered_bouquet(10, 3, {2: 1}, rng, max_stall=True),
        lambda rng: gen_layered_bouquet(10, 3, {2: 1}, rng, max_stall=2.5),
        lambda rng: gen_layered_bouquet(10, 3, {2: 1}, rng, max_stall=None),
    ],
)
def test_generators_reject_non_integer_sizes_before_drawing(call):
    rng = stream(1, "bad-size")
    state = plain_state(rng)
    with pytest.raises(InvalidArguments):
        call(rng)
    assert plain_state(rng) == state


def test_gnp_deterministic_per_seed():
    a = gen_gnp(25, 4, 0.01, stream(5, "gnp-det"))
    b = gen_gnp(25, 4, 0.01, stream(5, "gnp-det"))
    assert a == b


def test_girth5_postconditions():
    H, info = gen_girth5(40, 3, 2.5, stream(3, "g5"))
    assert count_two_cycles(H, 2) == 0
    assert find_linear_three_cycles(H, limit=1) == []
    assert find_clean_four_cycles(H, limit=1) == []
    assert check_bouquet(H).holds
    assert info["initial_edges"] >= info["final_edges"]
    assert info["final_n"] == H.n
    assert H.n <= 40


def test_girth5_higher_uniformity():
    H, info = gen_girth5(60, 4, 1.5, stream(4, "g5-k4"))
    for ell in (2, 3):
        assert count_two_cycles(H, ell) == 0
    assert check_bouquet(H).holds


@pytest.mark.parametrize(
    "n, k, t, batch",
    [(200, 3, 4.0, 512), (300, 3, 6.0, 32), (120, 4, 2.0, 16), (60, 5, 1.5, 4), (6, 3, 9.0, 2)],
)
def test_girth5_matches_per_pass_replay(n, k, t, batch):
    for seed in range(2):
        H, info = gen_girth5(n, k, t, stream(seed, "g5-replay"), batch=batch)
        R, expect = replay_girth5(n, k, t, stream(seed, "g5-replay"), batch=batch)
        assert info == expect
        assert H.layers == R.layers


def test_girth5_validation_and_degenerate():
    with pytest.raises(InvalidArguments):
        gen_girth5(30, 3, 0.0, stream(1, "x"))
    H, info = gen_girth5(2, 3, 2.0, stream(1, "x"))
    assert H.n == 2 and H.num_edges() == 0
    assert info["initial_edges"] == 0
    # n < k reports every key a pruned draw reports
    _, full = gen_girth5(30, 3, 2.0, stream(1, "x"))
    assert list(info) == list(full)
    assert info["p"] == 0.0 and info["final_n"] == 2 and info["final_edges"] == 0
    for stage in ("two_cycle_stage", "linear_three_stage", "clean_four_stage"):
        assert info[stage] == {"passes": 1, "witnesses": dict.fromkeys(full[stage]["witnesses"], 0)}


@pytest.mark.parametrize("n", [2, 30])
@pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_girth5_rejects_bad_t_at_every_n(n, t):
    with pytest.raises(InvalidArguments, match=r"^t must (be a finite real number|exceed 0), got"):
        gen_girth5(n, 3, t, stream(1, "x"))


@pytest.mark.parametrize("n", [2, 30])
@pytest.mark.parametrize("batch", [0, -1])
def test_girth5_rejects_batches_below_one_before_drawing(n, batch):
    rng = stream(1, "x")
    state = rng.bit_generator.state
    with pytest.raises(InvalidArguments, match="batch"):
        gen_girth5(n, 3, 2.0, rng, batch=batch)
    assert rng.bit_generator.state == state


def test_girth5_deterministic_per_seed():
    a, _ = gen_girth5(50, 3, 2.0, stream(6, "g5-det"))
    b, _ = gen_girth5(50, 3, 2.0, stream(6, "g5-det"))
    assert a == b


def test_cliques_closed_form_matches_brute_force():
    H, info = gen_disjoint_cliques(11, 3, 4)
    assert info["blocks"] == 2 and info["leftover"] == 3
    assert info["alpha_exact"] == 2 * 2 + 3
    assert brute_alpha(H) == info["alpha_exact"]

    H2, info2 = gen_disjoint_cliques(14, 3, 5)
    assert brute_alpha(H2) == info2["alpha_exact"] == 2 * 2 + 4


def test_cliques_edges_in_reference_unranking_order():
    H, _ = gen_disjoint_cliques(17, 3, 5)
    expect = [
        tuple(b * 5 + v for v in unrank_combination(idx, 5, 3))
        for b in range(3)
        for idx in range(math.comb(5, 3))
    ]
    assert H.layers[3] == expect


def test_cliques_blocks_below_uniformity_are_edgeless():
    H, info = gen_disjoint_cliques(11, 3, 2)
    assert H.num_edges() == 0
    assert info["alpha_exact"] == 11
    assert brute_alpha(H) == 11


def test_cliques_validation():
    with pytest.raises(InvalidArguments):
        gen_disjoint_cliques(10, 1, 3)
    with pytest.raises(InvalidArguments):
        gen_disjoint_cliques(10, 3, 0)
    with pytest.raises(InvalidArguments):
        gen_disjoint_cliques(-2, 3, 3)


def test_bouquet_generator_hits_targets():
    counts = {2: 6, 3: 5, 4: 4}
    H, info = gen_layered_bouquet(30, 4, counts, stream(7, "bq"))
    assert info["achieved"] == counts
    assert info["stalled_layers"] == []
    assert H.layer_sizes() == {2: 6, 3: 5, 4: 4}
    assert check_bouquet(H).holds


def test_bouquet_generator_respects_vertex_caps():
    caps = {2: 2, 3: 2, 4: 2}
    H, info = gen_layered_bouquet(
        40, 4, {2: 8, 3: 6, 4: 5}, stream(8, "bq-caps"), vertex_caps=caps
    )
    for i, cap in caps.items():
        assert H.max_min_degree(i, 1)[0] <= cap
    assert check_bouquet(H).holds


def test_bouquet_generator_reports_stalls():
    H, info = gen_layered_bouquet(
        6, 2, {2: 14}, stream(9, "bq-stall"), max_stall=200
    )
    assert info["stalled_layers"] == [2]
    assert info["achieved"][2] < 14
    assert check_bouquet(H).holds  # whatever landed is still clean


@pytest.mark.parametrize(
    "n, k, counts, caps, seeds",
    [
        (20, 2, {2: 100}, None, 2),
        (30, 3, {2: 15, 3: 60}, None, 2),
        (40, 4, {2: 5, 3: 10, 4: 40}, None, 2),
        (40, 4, {2: 6, 3: 20, 4: 40}, {3: 2, 4: 2}, 2),
        (120, 4, {2: 20, 3: 40, 4: 200}, None, 1),
    ],
)
def test_bouquet_generator_matches_full_check_replay(n, k, counts, caps, seeds):
    # targets far above what fits, so the top layer stalls and the last
    # max_stall candidates of it are all rejected
    for seed in range(seeds):
        H, info = gen_layered_bouquet(
            n, k, counts, stream(seed, "bq-local"), vertex_caps=caps, max_stall=100
        )
        R, expect = replay_layered_bouquet(
            n, k, counts, stream(seed, "bq-local"), vertex_caps=caps, max_stall=100
        )
        assert info == expect
        assert H.layers == R.layers  # same edges in the same insertion order
        assert k in info["stalled_layers"]


def test_bouquet_generator_zero_cap_and_one_stall():
    # a zero cap lets no edge into its layer; a stall limit of 1 gives up
    # on a layer at its first miss
    H, info = gen_layered_bouquet(10, 3, {2: 3, 3: 2}, stream(11, "bq-zero"), vertex_caps={2: 0})
    assert info["achieved"][2] == 0 and info["stalled_layers"] == [2]
    assert info["achieved"][3] == 2
    H, info = gen_layered_bouquet(3, 2, {2: 5}, stream(11, "bq-one"), max_stall=1)
    assert info["achieved"][2] < 5 and info["stalled_layers"] == [2]


def test_bouquet_generator_validation():
    rng = stream(10, "bq-bad")
    with pytest.raises(InvalidArguments):
        gen_layered_bouquet(10, 4, {5: 1}, rng)
    with pytest.raises(InvalidArguments):
        gen_layered_bouquet(10, 4, {2: -1}, rng)
    H, info = gen_layered_bouquet(2, 3, {3: 1}, rng)
    assert info["stalled_layers"] == [3]
    assert info["achieved"][3] == 0
