"""The argument contract of the public entry points.

Every integer argument goes through ``core.check_integer`` and every real
one through ``core.check_real``, before any work: a bool, a float where an
integer belongs, NaN, a string, None (unless it means "no cap") and a value
out of range each raise InvalidArguments (InvalidVertex for a vertex id),
and a graph handed in comes back unchanged.
"""

import math

import pytest

from hyperind.algorithms import (
    PipelineConfig,
    akpss_run,
    almost_regular_complete,
    deg_i_to_j,
    mu_i_to_j,
    pipeline_degree_gap,
    pipeline_graded_caps,
    pipeline_kminus2,
    spencer_set,
)
from hyperind.algorithms.akpss import MAX_RETRIES
from hyperind.algorithms.basic import MAX_SAMPLES
from hyperind.core import LayeredHypergraph
from hyperind.errors import InvalidArguments, InvalidUniformity, InvalidVertex
from hyperind.generators import gen_disjoint_cliques, gen_girth5, gen_gnp, gen_layered_bouquet
from hyperind.rng import spawn_key, stream
from hyperind.schedule import build_schedule, reference_bound
from hyperind.structure import (
    check_property_vprime,
    classify_intersecting_family,
    common_neighbor_max,
    count_two_cycles,
    find_clean_four_cycles,
    find_linear_three_cycles,
    list_two_cycles,
    prune_short_cycles,
)


def mixed_graph():
    H = LayeredHypergraph(8, 4)
    for e in ((0, 1), (1, 2, 3), (3, 4, 5, 6), (0, 5, 7)):
        H.add_edge(e)
    return H


def uniform_graph():
    H = LayeredHypergraph(12, 4)
    for e in ((0, 1, 2, 3), (3, 4, 5, 6), (6, 7, 8, 9)):
        H.add_edge(e)
    return H


G, G4 = mixed_graph(), uniform_graph()
SCHED = build_schedule(100, math.e**4, 3)  # M = 2
RNG = stream(1, "contract")

# what each kind of argument must refuse besides its out-of-range value
INTEGER = (True, 2.5, math.nan, "3", None)
OPTIONAL_INTEGER = (True, 2.5, math.nan, "3")  # None means no cap, or any cycle length
REAL = (True, math.nan, math.inf, "3", None, 10**400)  # 10**400 overflows a float
VERTEX = (True, 2.5, math.nan, "3", None, -1)

# entry point, argument -> (bad values, graph it must leave unchanged, call)
CASES = {
    "LayeredHypergraph n": (INTEGER + (-1,), None, lambda v: LayeredHypergraph(v, 3)),
    "LayeredHypergraph k": (INTEGER, None, lambda v: LayeredHypergraph(5, v)),
    "edge_at layer": (INTEGER + (1, 5), G, lambda v: G.edge_at(v, 0)),
    "edge_at idx": (INTEGER + (-1, 2), G, lambda v: G.edge_at(3, v)),
    "max_min_degree layer": (INTEGER + (1, 5), G, lambda v: G.max_min_degree(v, 1)),
    "max_min_degree ell": (INTEGER + (-1, 3), G, lambda v: G.max_min_degree(3, v)),
    "neighborhood radius": (INTEGER + (-1,), G, lambda v: G.neighborhood({0}, v)),
    "gen_gnp n": (INTEGER + (-1,), None, lambda v: gen_gnp(v, 3, 0.1, RNG)),
    "gen_gnp k": (INTEGER + (1,), None, lambda v: gen_gnp(10, v, 0.1, RNG)),
    "gen_gnp p": (REAL + (-0.5, 1.5), None, lambda v: gen_gnp(10, 3, v, RNG)),
    "gen_girth5 n": (INTEGER + (-1,), None, lambda v: gen_girth5(v, 3, 2.0, RNG)),
    "gen_girth5 k": (INTEGER + (1,), None, lambda v: gen_girth5(30, v, 2.0, RNG)),
    "gen_girth5 t": (REAL + (0.0, -1.0), None, lambda v: gen_girth5(30, 3, v, RNG)),
    "gen_girth5 batch": (OPTIONAL_INTEGER + (0,), None, lambda v: gen_girth5(30, 3, 2.0, RNG, batch=v)),
    "gen_disjoint_cliques n": (INTEGER + (-1,), None, lambda v: gen_disjoint_cliques(v, 3, 4)),
    "gen_disjoint_cliques k": (INTEGER + (1,), None, lambda v: gen_disjoint_cliques(10, v, 4)),
    "gen_disjoint_cliques s": (INTEGER + (0,), None, lambda v: gen_disjoint_cliques(10, 3, v)),
    "gen_layered_bouquet n": (INTEGER + (-1,), None, lambda v: gen_layered_bouquet(v, 3, {2: 1}, RNG)),
    "gen_layered_bouquet k": (INTEGER + (1,), None, lambda v: gen_layered_bouquet(10, v, {2: 1}, RNG)),
    "gen_layered_bouquet counts layer": (
        INTEGER + (1, 4), None, lambda v: gen_layered_bouquet(10, 3, {v: 1}, RNG)
    ),
    "gen_layered_bouquet counts value": (
        INTEGER + (-1,), None, lambda v: gen_layered_bouquet(10, 3, {2: v}, RNG)
    ),
    "gen_layered_bouquet vertex_caps value": (
        INTEGER + (-1,), None, lambda v: gen_layered_bouquet(10, 3, {2: 1}, RNG, vertex_caps={2: v})
    ),
    "gen_layered_bouquet max_stall": (
        INTEGER + (0,), None, lambda v: gen_layered_bouquet(10, 3, {2: 1}, RNG, max_stall=v)
    ),
    "build_schedule N": (INTEGER + (0,), None, lambda v: build_schedule(v, 10.0, 3)),
    "build_schedule T": (REAL + (1.0,), None, lambda v: build_schedule(100, v, 3)),
    "build_schedule k": (INTEGER + (1,), None, lambda v: build_schedule(100, 10.0, v)),
    "Schedule.gamma_at m": (INTEGER + (0, 3), None, lambda v: SCHED.gamma_at(v)),
    "Schedule.p_at m": (INTEGER + (0, 3), None, lambda v: SCHED.p_at(v)),
    "Schedule.vertex_cap m": (INTEGER + (-1, 3), None, lambda v: SCHED.vertex_cap(v, 2)),
    "Schedule.vertex_cap i": (INTEGER + (1, 4), None, lambda v: SCHED.vertex_cap(0, v)),
    "Schedule.pair_cap m": (INTEGER + (-1, 3), None, lambda v: SCHED.pair_cap(v, 3)),
    "Schedule.pair_cap i": (INTEGER + (1, 4), None, lambda v: SCHED.pair_cap(0, v)),
    "reference_bound n": (REAL + (0.0,), None, lambda v: reference_bound(v, 2.0, 3, "log")),
    "reference_bound d_or_t": (REAL, None, lambda v: reference_bound(10.0, v, 3, "log")),
    "reference_bound k": (INTEGER + (1,), None, lambda v: reference_bound(10.0, 2.0, v, "log")),
    "reference_bound which": ((None, 3, "bogus"), None, lambda v: reference_bound(10.0, 2.0, 3, v)),
    "akpss_run retries_per_round": (
        INTEGER + (0, MAX_RETRIES + 1), G, lambda v: akpss_run(G, SCHED, 1, retries_per_round=v)
    ),
    "PipelineConfig retries": (INTEGER + (0, MAX_RETRIES + 1), None, lambda v: PipelineConfig(retries=v)),
    "pipeline_kminus2 d": (REAL + (0.0,), G4, lambda v: pipeline_kminus2(G4, v, 1)),
    "pipeline_degree_gap d": (REAL + (0.0,), G4, lambda v: pipeline_degree_gap(G4, v, 1, 1, epsilon=0.1)),
    "pipeline_degree_gap case": (INTEGER + (0, 3), G4, lambda v: pipeline_degree_gap(G4, 4.0, v, 1, epsilon=0.1)),
    "pipeline_degree_gap epsilon": (REAL + (0.0,), G4, lambda v: pipeline_degree_gap(G4, 4.0, 1, 1, epsilon=v)),
    "pipeline_graded_caps t": (REAL + (1.0,), G4, lambda v: pipeline_graded_caps(G4, v, 1, 0.5)),
    "pipeline_graded_caps epsilon": (REAL + (0.0,), G4, lambda v: pipeline_graded_caps(G4, 3.0, 1, v)),
    "spencer_set samples": (INTEGER + (19, MAX_SAMPLES + 1), G, lambda v: spencer_set(G, RNG, samples=v)),
    "almost_regular_complete vertex cap": (
        INTEGER + (-1,), G, lambda v: almost_regular_complete(G, {2: v, 3: 9, 4: 9})
    ),
    "almost_regular_complete pair cap": (
        INTEGER + (-1,), G, lambda v: almost_regular_complete(G, {2: 9, 3: 9, 4: 9}, {3: v})
    ),
    "list_two_cycles limit": (OPTIONAL_INTEGER + (-1,), G, lambda v: list_two_cycles(G, limit=v)),
    "list_two_cycles ell": (OPTIONAL_INTEGER + (1,), G, lambda v: list_two_cycles(G, ell=v)),
    "count_two_cycles ell": (INTEGER + (1,), G, lambda v: count_two_cycles(G, v)),
    "find_linear_three_cycles limit": (OPTIONAL_INTEGER + (-1,), G, lambda v: find_linear_three_cycles(G, v)),
    "find_clean_four_cycles limit": (OPTIONAL_INTEGER + (-1,), G, lambda v: find_clean_four_cycles(G, v)),
    "check_property_vprime limit": (OPTIONAL_INTEGER + (-1,), G, lambda v: check_property_vprime(G, v)),
    "prune_short_cycles batch": (
        OPTIONAL_INTEGER + (0,), G, lambda v: prune_short_cycles(G, set(range(8)), (2,), batch=v)
    ),
    "common_neighbor_max layer": (OPTIONAL_INTEGER + (1, 5), G, lambda v: common_neighbor_max(G, v)),
    "spawn_key seed": (INTEGER, None, lambda v: spawn_key(v, "x")),
    "spawn_key tuple seed part": (INTEGER, None, lambda v: spawn_key((1, v), "x")),
    "spawn_key path part": ((True, 2.5, math.nan, None), None, lambda v: spawn_key(1, "x", v)),
    "classify_intersecting_family family": ((None, 3, [3, 4]), None, classify_intersecting_family),
}

# ids: vertex id -> (graph, call); a bad id raises InvalidVertex
VERTEX_CASES = {
    "mu_i_to_j x": (G, lambda v: mu_i_to_j(G, v, 0.5, 3, 2)),
    "deg_i_to_j x": (G, lambda v: deg_i_to_j(G, v, {0}, {1}, 3, 2)),
    "neighborhood vertices": (G, lambda v: G.neighborhood({v}, 1)),
    "prune_short_cycles keep": (G, lambda v: prune_short_cycles(G, {0, v}, (2,))),
    "prune_short_cycles keep set": (G, lambda v: prune_short_cycles(G, v, (2,))),
    "classify_intersecting_family ids": (None, lambda v: classify_intersecting_family([(0, v), (0, 1)])),
}


def snapshot(H):
    return None if H is None else (H.canonical_layers(), [list(entries) for entries in H.incidence])


def refusals(bad_values, H, call, error):
    """The bad values ``call`` does not refuse with ``error``, or that change H."""
    before = snapshot(H)
    wrong = []
    for value in bad_values:
        try:
            call(value)
        except error:
            pass
        except Exception as exc:  # a bare TypeError, ValueError, ...
            wrong.append((value, type(exc).__name__))
            continue
        else:
            wrong.append((value, "accepted"))
        if snapshot(H) != before:
            wrong.append((value, "changed the graph"))
    return wrong


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_arguments_raise_invalid_arguments(case):
    bad_values, H, call = CASES[case]
    assert refusals(bad_values, H, call, InvalidArguments) == []


@pytest.mark.parametrize("case", sorted(VERTEX_CASES))
def test_bad_vertex_ids_raise_invalid_vertex(case):
    H, call = VERTEX_CASES[case]
    bad_values = VERTEX if H is None else VERTEX + (H.n,)
    assert refusals(bad_values, H, call, InvalidVertex) == []


def test_uniformity_below_two_stays_invalid_uniformity():
    with pytest.raises(InvalidUniformity):
        LayeredHypergraph(5, 1)


def test_integer_messages_name_the_argument():
    with pytest.raises(InvalidArguments, match=r"^samples must be an integer, got 25\.5$"):
        spencer_set(G, RNG, samples=25.5)
    with pytest.raises(InvalidArguments, match=rf"^samples must lie in 20\.\.{MAX_SAMPLES}, got 19$"):
        spencer_set(G, RNG, samples=19)
    with pytest.raises(InvalidArguments, match=r"^limit must lie in 0\.\., got -1$"):
        list_two_cycles(G, limit=-1)
    with pytest.raises(InvalidArguments, match=r"^d must be a finite real number, got nan$"):
        pipeline_kminus2(G4, math.nan, 1)
    with pytest.raises(InvalidArguments, match=r"^t must exceed 1, got 1\.0$"):
        pipeline_graded_caps(G4, 1.0, 1, 0.5)
