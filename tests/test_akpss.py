"""Round mechanics of the semi-random algorithm.

Small instances cannot satisfy the completion caps for k >= 3, so those
rounds collapse by design; the k = 2 case has single-digit caps and runs
whole rounds end to end, which is what most tests here lean on.
"""

import dataclasses
import json
import math

import pytest

import hyperind.algorithms.akpss as akpss_module
from hyperind.algorithms import akpss_run, akpss_step, deg_i_to_j, mu_i_to_j
from hyperind.algorithms.akpss import MAX_RETRIES, RoundPrep
from hyperind.algorithms.regular import almost_regular_complete
from hyperind.core import LayeredHypergraph
from hyperind.errors import InvalidArguments, InvalidVertex, PreconditionFailed, RoundCollapsed
from hyperind.generators import gen_layered_bouquet
from hyperind.rng import stream
from hyperind.schedule import build_schedule
from hyperind.structure import check_bouquet

from oracles import replay_akpss_run, replay_almost_regular_complete


def two_layer_sched(n=1000):
    return build_schedule(n, math.e ** 2, 2)


def test_deg_contraction_hand_case():
    H = LayeredHypergraph(7, 4)
    H.add_edge((0, 1, 2))
    H.add_edge((0, 1, 3, 4))
    H.add_edge((0, 5, 6))
    H.add_edge((1, 2, 5))
    vprime = {1, 2}
    sampled = {3, 4, 5}
    assert deg_i_to_j(H, 0, vprime, sampled, 3, 3) == 1
    assert deg_i_to_j(H, 0, vprime, sampled, 3, 2) == 0
    assert deg_i_to_j(H, 0, vprime, sampled, 4, 2) == 1
    assert deg_i_to_j(H, 0, vprime, sampled, 4, 3) == 0
    assert deg_i_to_j(H, 5, vprime, sampled, 3, 3) == 1
    assert deg_i_to_j(H, 5, vprime, sampled, 3, 2) == 0
    assert deg_i_to_j(H, 1, vprime, sampled, 3, 2) == 1


def test_mu_hand_value():
    H = LayeredHypergraph(25, 3)
    for a in range(10):
        H.add_edge((0, 2 * a + 1, 2 * a + 2))
    # C(2,1) * 10 * 0.1 * e^-1
    assert mu_i_to_j(H, 0, 0.1, 3, 2) == pytest.approx(2.0 / math.e)
    assert mu_i_to_j(H, 0, 0.1, 3, 3) == pytest.approx(10 * math.e ** -2)
    assert mu_i_to_j(H, 1, 0.1, 3, 2) == pytest.approx(0.2 / math.e)


@pytest.mark.parametrize("x", [-1, 5, 9, 2.0, None, True, "0"])
def test_contraction_counts_check_the_vertex(x):
    # -1 once read the last vertex's incidence list, as Python indexing does
    H = LayeredHypergraph(5, 3)
    H.add_edge((0, 1, 4))
    H.add_edge((2, 3, 4))
    with pytest.raises(InvalidVertex):
        mu_i_to_j(H, x, 0.5, 3, 2)
    with pytest.raises(InvalidVertex):
        deg_i_to_j(H, x, {0, 1}, {2, 3}, 3, 2)


def run_one_step(n, seed, collect=False):
    H = LayeredHypergraph(n, 2)
    sched = two_layer_sched(n)
    rng = stream(seed, "step")
    return akpss_step(
        H, sched, 0, rng, collect_contraction_data=collect
    ), sched


def test_step_state_consistency():
    (h_next, relabel, state), sched = run_one_step(800, 41, collect=True)
    n = 800
    everyone = set(range(n))

    assert state.independent <= state.sampled
    assert not state.independent & state.dominated
    assert not state.independent & state.waste
    assert not state.survivors & (state.sampled | state.dominated | state.waste)

    H2 = state.diagnostics["completed"]
    nb = H2.neighborhood(state.irregular, 1)
    assert state.waste == nb | state.overflow
    assert (
        state.survivors
        == everyone - state.sampled - state.dominated - state.waste
    )

    dominated = set()
    for _, e in H2.edges():
        missing = [v for v in e if v not in state.sampled]
        if not missing:
            dominated.update(e)
        elif len(missing) == 1:
            dominated.add(missing[0])
    assert state.dominated == dominated

    assert h_next.n == len(state.survivors)
    assert sorted(relabel) == sorted(state.survivors)
    assert sorted(relabel.values()) == list(range(h_next.n))
    assert check_bouquet(h_next).holds
    assert state.diagnostics["p"] == pytest.approx(sched.p_at(1))


def test_step_contraction_degrees_match_direct_count():
    (h_next, relabel, state), sched = run_one_step(600, 17, collect=True)
    H2 = state.diagnostics["completed"]
    vprime = set(state.diagnostics["vprime_set"])
    sampled = set(state.sampled)
    deg_ij = state.diagnostics["deg_ij"]
    for i in range(2, H2.k + 1):
        for j in range(1, i + 1):
            bucket = deg_ij.get((i, j), {})
            for x in range(H2.n):
                direct = deg_i_to_j(H2, x, vprime, sampled, i, j)
                assert bucket.get(x, 0) == direct, (i, j, x)


def test_step_force_sample_is_honored():
    H = LayeredHypergraph(100, 2)
    sched = two_layer_sched(100)
    rng = stream(5, "forced")
    # empty sample: nothing is harvested and projected degrees overshoot
    # their means everywhere, so the round wipes the graph out
    with pytest.raises(RoundCollapsed) as err:
        akpss_step(H, sched, 0, rng, force_sample=set())
    state = err.value.state
    assert state is not None
    assert state.sampled == frozenset()
    assert state.independent == frozenset()
    assert state.survivors == frozenset()


@pytest.mark.parametrize("bad", [10**6, -5, "a", 2.5, True])
def test_step_force_sample_rejects_non_vertices_before_any_work(monkeypatch, bad):
    H = LayeredHypergraph(800, 2)
    sched = two_layer_sched(800)
    _, _, state = akpss_step(H, sched, 0, stream(41, "step"))
    sample = [v for v in sorted(state.sampled) if v != 1]  # True would merge into 1

    def no_completion(*args, **kwargs):
        raise AssertionError("the round was prepared before the ids were checked")

    monkeypatch.setattr(akpss_module, "almost_regular_complete", no_completion)
    with pytest.raises(InvalidVertex):
        akpss_step(H, sched, 0, stream(41, "step"), force_sample=sample + [bad])


def test_step_rejects_a_prep_of_another_round():
    H = LayeredHypergraph(100, 2)
    sched = two_layer_sched(100)
    prep = RoundPrep(H, sched, 0)
    for args in ((H.copy(), sched, 0), (H, two_layer_sched(100), 0), (H, sched, 1)):
        with pytest.raises(InvalidArguments, match="another round"):
            akpss_step(*args, stream(1, "prep"), prep=prep)


def test_run_two_layer_round_end_to_end():
    H = LayeredHypergraph(1000, 2)
    sched = two_layer_sched(1000)
    cert = akpss_run(H, sched, seed=23, retries_per_round=4, verify_rounds=True)
    assert cert.verified
    assert cert.algorithm == "akpss"
    assert len(cert.rounds) == 1
    info = cert.rounds[0]
    assert info["structure_ok"]
    assert info["n_before"] == 1000
    assert info["harvested"] == len(cert.independent_set)
    assert len(cert.independent_set) > 0
    ok, witness = H.is_independent(cert.independent_set)
    assert ok and witness is None


def test_run_is_deterministic():
    sched = two_layer_sched(600)
    certs = []
    for _ in range(2):
        H = LayeredHypergraph(600, 2)
        certs.append(akpss_run(H, sched, seed=77, retries_per_round=2))
    assert certs[0].independent_set == certs[1].independent_set
    assert certs[0].rounds == certs[1].rounds
    assert certs[0].warnings == certs[1].warnings


def test_run_collapse_is_banked_and_reported():
    H, info = gen_layered_bouquet(
        200, 3, {2: 20, 3: 15}, stream(9, "collapse-input")
    )
    sched = build_schedule(200, math.e ** 3, 3)
    cert = akpss_run(H, sched, seed=10, retries_per_round=2)
    assert cert.verified
    assert cert.diagnostics["collapsed"]
    assert any("collapsed" in w for w in cert.warnings)
    assert cert.rounds[-1]["n_after"] == 0
    ok, _ = H.is_independent(cert.independent_set)
    assert ok


def test_run_rejects_cycle_heavy_input():
    H = LayeredHypergraph(9, 3)
    H.add_edge((0, 1, 4))
    H.add_edge((1, 2, 5))
    H.add_edge((0, 2, 6))
    sched = build_schedule(9, math.e ** 2, 3)
    with pytest.raises(PreconditionFailed):
        akpss_run(H, sched, seed=1)


def test_run_rejects_nonpositive_retries():
    H = LayeredHypergraph(9, 3)
    H.add_edge((0, 1, 4))
    H.add_edge((1, 2, 5))
    H.add_edge((0, 2, 6))  # fails the input check, which must not run first
    sched = build_schedule(9, math.e ** 2, 3)
    for retries in (0, -1, MAX_RETRIES + 1, 2.5, True, "3"):
        with pytest.raises(InvalidArguments, match="retries_per_round"):
            akpss_run(H, sched, seed=1, retries_per_round=retries)


def two_stars(petals3):
    """k = 4: vertex 0 in 404 layer-4 edges, vertex c in petals3 layer-3
    edges, all otherwise disjoint.  At T = e^2 the round-0 vertex caps are
    35, 206, 403 and the pair caps of layers 3 and 4 are 0."""
    c = 1 + 3 * 404
    H = LayeredHypergraph(c + 1 + 2 * petals3, 4)
    for a in range(404):
        H.add_edge((0, 1 + 3 * a, 2 + 3 * a, 3 + 3 * a))
    for a in range(petals3):
        H.add_edge((c, c + 1 + 2 * a, c + 2 + 2 * a))
    return H


def test_cap_excess_order_contract():
    H = two_stars(207)  # over the vertex and the pair cap of layers 3 and 4
    sched = build_schedule(H.n, math.e ** 2, 4)
    assert [sched.vertex_cap(0, i) for i in (2, 3, 4)] == [35, 206, 403]
    assert [sched.pair_cap(0, i) for i in (3, 4)] == [0, 0]

    # the round's cap lifts: every vertex lift, then every pair lift
    with pytest.raises(RoundCollapsed) as err:
        akpss_step(H, sched, 0, stream(1, "lifts"))
    assert err.value.state.diagnostics["cap_lifts"] == [
        ("vertex", 3, 206, 207),
        ("vertex", 4, 403, 404),
        ("pair", 3, 0, 1),
        ("pair", 4, 0, 1),
    ]

    # the round-0 audit: layer by layer, the vertex warning first
    audit = [
        "layer 3 max degree 207 exceeds round-0 cap 206",
        "layer 3 max (2)-set degree 1 exceeds cap 0",
        "layer 4 max degree 404 exceeds round-0 cap 403",
        "layer 4 max (3)-set degree 1 exceeds cap 0",
    ]
    cert = akpss_run(H, sched, seed=1, retries_per_round=1)
    assert cert.warnings[:4] == audit
    assert cert.rounds[0]["cap_lifts"] == err.value.state.diagnostics["cap_lifts"]
    json.dumps(cert.to_dict())  # the observed degrees are Python ints
    strict = dataclasses.replace(sched, strict=True)
    with pytest.raises(PreconditionFailed) as first:
        akpss_run(H, strict, seed=1)
    assert str(first.value) == audit[0]
    # a layer-3 pair excess comes before a layer-4 vertex excess
    H3 = two_stars(1)
    strict3 = dataclasses.replace(build_schedule(H3.n, math.e ** 2, 4), strict=True)
    with pytest.raises(PreconditionFailed) as first:
        akpss_run(H3, strict3, seed=1)
    assert str(first.value) == "layer 3 max (2)-set degree 1 exceeds cap 0"

    # the completion's input check raises the first excess in layer order
    with pytest.raises(PreconditionFailed) as first:
        almost_regular_complete(H, {2: 35, 3: 206, 4: 403}, {3: 0, 4: 0})
    assert str(first.value) == "layer 3 has a vertex of degree 207 above cap 206"
    with pytest.raises(PreconditionFailed) as first:
        almost_regular_complete(H, {2: 35, 3: 207, 4: 403}, {3: 0, 4: 0})
    assert str(first.value) == "layer 3 has an (2)-set of degree 1 above cap 0"


@pytest.mark.parametrize("n, seed", [(300, 1), (300, 2), (800, 3), (800, 4)])
def test_run_matches_radius_three_completion(monkeypatch, n, seed):
    H = LayeredHypergraph(n, 2)
    sched = two_layer_sched(n)
    got = akpss_run(H, sched, seed=seed, retries_per_round=2)
    monkeypatch.setattr(akpss_module, "almost_regular_complete", replay_almost_regular_complete)
    expect = akpss_run(H, sched, seed=seed, retries_per_round=2)
    assert got.independent_set == expect.independent_set
    assert got.rounds == expect.rounds
    assert got.warnings == expect.warnings


def _bouquet_k3():
    H, _ = gen_layered_bouquet(200, 3, {2: 60, 3: 60}, stream(3, "replay-bouquet"))
    return H, build_schedule(H.n, math.e ** 3, 3)


@pytest.mark.parametrize(
    "instance",
    [
        lambda: (LayeredHypergraph(300, 2), two_layer_sched(300)),
        lambda: (LayeredHypergraph(800, 2), two_layer_sched(800)),
        _bouquet_k3,
        lambda: (two_stars(207), build_schedule(two_stars(207).n, math.e ** 2, 4)),
    ],
    ids=["edgeless-300", "edgeless-800", "bouquet-k3", "cap-lifts-k4"],
)
@pytest.mark.parametrize("seed, retries", [(1, 2), (2, 3), (5, 4)])
def test_run_matches_per_attempt_replay(instance, seed, retries):
    # one completion per round against the old step, which redid the caps,
    # the completion and N(B) on every attempt
    H, sched = instance()
    got = akpss_run(H, sched, seed=seed, retries_per_round=retries)
    expect = replay_akpss_run(H, sched, seed=seed, retries_per_round=retries)
    assert got.to_dict() == expect.to_dict()


def test_run_warns_on_degrees_above_round_zero_caps():
    H = LayeredHypergraph(40, 2)
    for v in range(1, 9):
        H.add_edge((0, v))  # degree 8 beats the cap of 7 at T = e^2
    sched = two_layer_sched(40)
    assert sched.vertex_cap(0, 2) == 7
    cert = akpss_run(H, sched, seed=3, retries_per_round=2)
    assert any("exceeds round-0 cap" in w for w in cert.warnings)


def test_certificate_serialization_round_trip():
    H = LayeredHypergraph(120, 2)
    sched = two_layer_sched(120)
    cert = akpss_run(H, sched, seed=8, retries_per_round=2)
    d = cert.to_dict()
    assert d["algorithm"] == "akpss"
    assert d["independent_set"] == list(cert.independent_set)
    assert d["verified"] is True
    assert isinstance(d["rounds"], list)
