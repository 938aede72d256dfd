"""The three sampling reductions, on instances small enough to finish fast.

At this scale the inner semi-random stage wakes up with at most zero
scheduled rounds, so certificates lean on the residue structure and the
greedy finisher; all the structural acceptance rules still fire for real.
"""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hyperind.algorithms import (
    PipelineConfig,
    pipeline_degree_gap,
    pipeline_graded_caps,
    pipeline_kminus2,
    pipelines,
)
from hyperind.algorithms.akpss import MAX_RETRIES
from hyperind.core import LayeredHypergraph
from hyperind.errors import InvalidArguments, PreconditionFailed
from hyperind.generators import gen_girth5, gen_gnp
from hyperind.rng import stream
from hyperind.structure import check_bouquet, count_two_cycles

from oracles import (
    brute_common_neighbor_max,
    random_count_graph,
    replay_degree_gap_residue,
    replay_degree_gap_split,
    replay_graded_caps_residue,
    replay_heavy_light,
    replay_kminus2_residue,
)


def gnp4(n, edges, seed):
    p = edges / math.comb(n, 4)
    return gen_gnp(n, 4, p, stream(seed, "pipe-input"))


def clean4_free_input(n=200, t=1.5, seed=31):
    H, _ = gen_girth5(n, 4, t, stream(seed, "pipe-girth"))
    return H


def test_uniformity_is_enforced():
    H = LayeredHypergraph(20, 4)
    H.add_edge((0, 1))
    for fn, args in (
        (pipeline_kminus2, (H, 4.0, 1)),
        (pipeline_degree_gap, (H, 4.0, 1, 1)),
        (pipeline_graded_caps, (H, 3.0, 1, 0.5)),
    ):
        with pytest.raises(InvalidArguments):
            fn(*args)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "2", True])
def test_real_parameters_are_checked_before_any_work(monkeypatch, bad):
    H = gnp4(100, 10, seed=3)

    def work(*args):
        raise AssertionError("work started before the argument checks")

    monkeypatch.setattr(LayeredHypergraph, "max_min_degree", work)
    monkeypatch.setattr(pipelines, "_heavy_light", work)
    for fn, args, kwargs in (
        (pipeline_kminus2, (H, bad, 1), {}),
        (pipeline_degree_gap, (H, bad, 1, 1), {"epsilon": 0.1}),
        (pipeline_degree_gap, (H, 4.0, 1, 1), {"epsilon": bad}),
        (pipeline_degree_gap, (H, 4.0, 2, 1), {"epsilon": bad}),
        (pipeline_graded_caps, (H, bad, 1, 0.5), {}),
        (pipeline_graded_caps, (H, 3.0, 1, bad), {}),
    ):
        with pytest.raises(InvalidArguments, match="must be a finite real number"):
            fn(*args, **kwargs)


@pytest.mark.parametrize("field", ["retries"])
def test_config_bounds_retries(field):
    PipelineConfig(**{field: MAX_RETRIES})
    for value in (0, -3, MAX_RETRIES + 1, 2.5, True, "3"):
        with pytest.raises(InvalidArguments, match=field):
            PipelineConfig(**{field: value})


def test_low_uniformity_is_rejected():
    H = LayeredHypergraph(20, 3)
    with pytest.raises(InvalidArguments):
        pipeline_kminus2(H, 4.0, 1)
    with pytest.raises(InvalidArguments):
        pipeline_degree_gap(H, 4.0, 1, 1, epsilon=0.05)
    with pytest.raises(InvalidArguments):
        pipeline_graded_caps(H, 3.0, 1, 0.5)


def test_kminus2_full_run():
    H = gnp4(300, 60, seed=1)
    cert = pipeline_kminus2(H, 16.0, seed=5)
    assert cert.algorithm == "pipeline_kminus2"
    assert cert.verified
    ok, _ = H.is_independent(cert.independent_set)
    assert ok

    diag = cert.diagnostics
    assert all(c == 0 for c in diag["residue_two_cycles"].values())
    split = diag["split_hypotheses"]
    assert split["common_neighbor_ok"]
    assert split["heavy_pair_degree_ok"]

    res, g1 = replay_kminus2_residue(H, 5, diag)
    assert res.n == diag["residue"]
    for ell in range(2, H.k - 1):
        assert count_two_cycles(res, ell) == 0
    assert brute_common_neighbor_max(g1, H.k - 1) == 0


def test_kminus2_is_deterministic():
    H = gnp4(300, 60, seed=2)
    a = pipeline_kminus2(H, 16.0, seed=9)
    b = pipeline_kminus2(H, 16.0, seed=9)
    assert a.to_dict() == b.to_dict()


def test_kminus2_argument_checks():
    H = gnp4(100, 10, seed=3)
    with pytest.raises(InvalidArguments):
        pipeline_kminus2(H, 0.0, 1)


def test_kminus2_degree_precondition():
    H = LayeredHypergraph(300, 4)
    H.add_edge((0, 1, 2, 3))
    with pytest.raises(PreconditionFailed):
        pipeline_kminus2(H, 0.001, seed=1)  # d n = 0.3 beats nothing
    cert = pipeline_kminus2(
        H, 0.001, seed=1, config=PipelineConfig(trust_preconditions=True)
    )
    assert cert.verified


def test_degree_gap_case1_full_run():
    H = gnp4(300, 50, seed=4)
    cert = pipeline_degree_gap(H, 1.0, 1, seed=11, epsilon=1 / 16)
    assert cert.algorithm == "pipeline_degree_gap"
    assert cert.verified
    ok, _ = H.is_independent(cert.independent_set)
    assert ok
    diag = cert.diagnostics
    assert diag["case"] == 1
    assert diag["residue"] >= 1

    res = replay_degree_gap_residue(H, 1.0, 1, 11, diag)
    assert res.n == diag["residue"]
    assert check_bouquet(res).holds


def test_degree_gap_case2_full_run():
    H = clean4_free_input()
    d = H.n / 2.5  # keeps log(n/d) < 1 so the forbidden gap is empty
    cert = pipeline_degree_gap(H, d, 2, seed=13)
    assert cert.verified
    diag = cert.diagnostics
    assert diag["case"] == 2
    cap = diag["residue_top_degree_cap"]
    assert cap is not None

    res = replay_degree_gap_residue(H, d, 2, 13, diag)
    assert res.n == diag["residue"]
    assert check_bouquet(res).holds
    assert res.max_min_degree(res.k, res.k - 1)[0] <= cap


def test_degree_gap_is_deterministic():
    H = gnp4(300, 50, seed=6)
    a = pipeline_degree_gap(H, 1.0, 1, seed=21, epsilon=1 / 16)
    b = pipeline_degree_gap(H, 1.0, 1, seed=21, epsilon=1 / 16)
    assert a.to_dict() == b.to_dict()


def test_degree_gap_argument_checks():
    H = gnp4(100, 10, seed=7)
    with pytest.raises(InvalidArguments):
        pipeline_degree_gap(H, 4.0, 3, 1)
    with pytest.raises(InvalidArguments):
        pipeline_degree_gap(H, 4.0, 1, 1)  # case 1 without epsilon
    with pytest.raises(InvalidArguments):
        pipeline_degree_gap(H, 4.0, 1, 1, epsilon=0.0)
    with pytest.raises(InvalidArguments):
        pipeline_degree_gap(H, 200.0, 2, 1)  # n/d <= 1


def test_degree_gap_case1_forbidden_gap():
    H = LayeredHypergraph(50, 4)
    for x in range(11):
        H.add_edge((0, 1, 2, 10 + x))  # triple (0,1,2) has degree 11
    with pytest.raises(PreconditionFailed) as err:
        pipeline_degree_gap(H, 1.0, 1, seed=2, epsilon=1 / 16)
    assert err.value.witness == (0, 1, 2)
    cert = pipeline_degree_gap(
        H, 1.0, 1, seed=2, epsilon=1 / 16,
        config=PipelineConfig(trust_preconditions=True),
    )
    assert cert.verified


def test_degree_gap_witness_is_first_gap_set_in_edge_order():
    H = LayeredHypergraph(50, 4)
    for x in range(11):
        H.add_edge((3, 4, 5, 10 + x))  # both triples have degree 11, in the gap
    for x in range(11):
        H.add_edge((0, 1, 2, 21 + x))
    with pytest.raises(PreconditionFailed) as err:
        pipeline_degree_gap(H, 1.0, 1, seed=2, epsilon=1 / 16)
    assert err.value.witness == (3, 4, 5)  # not the least gap set, (0, 1, 2)


class _Rounds(Exception):
    """Raised in place of the semi-random rounds, with the graph they get."""


def _degree_gap_split(H, d, case, epsilon):
    """``pipeline_degree_gap`` up to its rounds: the graph HH they start from."""

    def rounds(H, HH, *args, **kwargs):
        raise _Rounds(HH)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipelines, "_rounds_on_residue", rounds)
        try:
            pipeline_degree_gap(H, d, case, seed=1, epsilon=epsilon)
        except _Rounds as reached:
            return reached.args[0]
    raise AssertionError("the pipeline returned without reaching its rounds")


def _split_outcome(split):
    try:
        HH = split()
    except PreconditionFailed as exc:
        return ("failed", str(exc), exc.witness)
    return ("split", HH.layers, HH.incidence)


@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
@settings(max_examples=200, deadline=None)
def test_heavy_light_and_gap_match_counter_replay(seed, k):
    # the Counter, its second combinations pass and the forbidden-gap loop
    # before the one subset count in core: equal heavy and light lists, the
    # light edges in edge order, equal degrees, and (k >= 4) the same gap
    # witness and message, or the same graph for the rounds
    rng = stream(seed, "pipe-heavy-light", k)
    G = random_count_graph(rng, k)
    H = LayeredHypergraph(G.n, k)  # its top layer: the pipelines take k-uniform inputs
    for e in G.layers[k]:
        H.add_edge(e)
    cut = float(rng.uniform(0.5, 8.0))
    heavy, light, deg = pipelines._heavy_light(H, cut)
    heavy0, light0, sub_deg = replay_heavy_light(H, cut)
    assert heavy == heavy0
    assert light == light0
    assert all(type(v) is int for s in heavy for v in s)
    assert deg.tolist() == [[sub_deg[s] for s in combinations(e, k - 1)] for e in H.layers[k]]
    if k < 4:
        return
    # d near the (k-2)-degree over n, where heavy sets, gaps and passes all occur
    m2 = max(H.max_min_degree(k, k - 2)[0], 1)
    d = min(m2 / H.n * float(rng.uniform(0.7, 4.0)), 0.95 * H.n)
    case = int(rng.integers(1, 3))
    epsilon = float(rng.uniform(0.01, 0.5))
    assert _split_outcome(lambda: _degree_gap_split(H, d, case, epsilon)) == _split_outcome(
        lambda: replay_degree_gap_split(H, d, case, epsilon)
    )


def test_degree_gap_case2_rejects_clean_four():
    H = LayeredHypergraph(14, 4)
    H.add_edge((0, 1, 2, 10))
    H.add_edge((2, 3, 4, 11))
    H.add_edge((4, 5, 6, 12))
    H.add_edge((0, 6, 7, 13))
    with pytest.raises(PreconditionFailed, match="clean-4"):
        pipeline_degree_gap(H, 6.0, 2, seed=2)


def test_graded_caps_full_run():
    H = clean4_free_input(n=300, t=2.0, seed=44)
    cert = pipeline_graded_caps(H, 3.0, seed=15, epsilon=0.5)
    assert cert.algorithm == "pipeline_graded_caps"
    assert cert.verified
    assert all("exceeds cap" not in w for w in cert.warnings)
    ok, _ = H.is_independent(cert.independent_set)
    assert ok
    diag = cert.diagnostics
    assert diag["residue"] >= 1
    assert diag["residue_top_degree"] <= diag["residue_top_degree_cap"]

    res = replay_graded_caps_residue(H, 3.0, 0.5, 15, diag)
    assert res.n == diag["residue"]
    assert check_bouquet(res).holds
    top = res.max_min_degree(res.k, res.k - 1)[0]
    assert top == diag["residue_top_degree"]
    assert top <= diag["residue_top_degree_cap"]


def test_graded_caps_is_deterministic():
    H = clean4_free_input(n=250, t=2.0, seed=45)
    a = pipeline_graded_caps(H, 3.0, seed=16, epsilon=0.5)
    b = pipeline_graded_caps(H, 3.0, seed=16, epsilon=0.5)
    assert a.to_dict() == b.to_dict()


def test_graded_caps_argument_checks():
    H = gnp4(100, 10, seed=8)
    with pytest.raises(InvalidArguments):
        pipeline_graded_caps(H, 1.0, 1, 0.5)  # t must exceed 1
    with pytest.raises(InvalidArguments):
        pipeline_graded_caps(H, 3.0, 1, 0.0)


def test_graded_caps_cap_violation_strict_vs_lax():
    H = LayeredHypergraph(8, 4)
    H.add_edge((0, 1, 2, 3))
    H.add_edge((0, 1, 2, 4))  # triple (0,1,2) has degree 2 > t/(log t)^5
    with pytest.raises(PreconditionFailed):
        pipeline_graded_caps(
            H, 3.0, seed=3, epsilon=0.5,
            config=PipelineConfig(strict_schedule=True),
        )
    cert = pipeline_graded_caps(H, 3.0, seed=3, epsilon=0.5)
    assert any("exceeds cap" in w for w in cert.warnings)
