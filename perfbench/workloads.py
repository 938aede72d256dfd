"""The benchmark workloads.

Each workload is a fixed list of instances derived from the workload seed.
An instance walks the path a user waits on: obtain inputs (generate them or
read them from a file), check their structure, and solve them.  Every call
into hyperind goes through ``run(phase, fn, *args)``, which times it under
its phase and counts it as one operation; the callables are looked up on
their modules at call time, so a tracer that rebinds them sees these calls.

An instance returns two things: output counts that must repeat exactly at a
seed, and (n, input edges, returned set) triples for the benchmark's
verifier.  README.md says why each workload is in the benchmark.
"""

from __future__ import annotations

import math
import os
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from hyperind import core, generators, schedule, structure
from hyperind.algorithms import akpss, basic, pipelines


def rng(seed: int, *labels: str | int) -> np.random.Generator:
    """Input stream for one (workload seed, label path); independent of hyperind.rng."""
    words = [zlib.crc32(x.encode()) if isinstance(x, str) else x for x in labels]
    return np.random.default_rng([seed, *words])


def edge_list(H) -> list[tuple[int, ...]]:
    """The input's edges, read straight from its layer lists."""
    return [e for i in sorted(H.layers) for e in H.layers[i]]


def parse_edges(path: str) -> tuple[int, list[tuple[int, ...]]]:
    """(n, edges) of a hypergraph file, parsed without hyperind."""
    n = None
    edges = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if n is None:
                n = int(text.split()[2][2:])
            else:
                edges.append(tuple(int(tok) for tok in text.split()))
    return n, edges


@dataclass
class State:
    """What set-up builds for the timed section."""

    seed: int
    files: list = field(default_factory=list)  # (path, (n, edges parsed by us))
    k3: object = None
    counts: dict = field(default_factory=dict)  # output counts of set-up


# -- generate: gen_girth5 and gen_layered_bouquet ---------------------------

GIRTH5_N, GIRTH5_K, GIRTH5_T = 1000, 3, 8.0
BOUQUET_N, BOUQUET_COUNTS = 600, {2: 200, 3: 200}


def generate_setup(seed: int, workdir: str) -> State:
    for G in (
        generators.gen_girth5(200, GIRTH5_K, GIRTH5_T, rng(seed, "warm-girth5"))[0],
        generators.gen_layered_bouquet(150, 3, {2: 50, 3: 50}, rng(seed, "warm-bouquet"))[0],
    ):
        structure.check_bouquet(G)
        basic.greedy_set(G)
        basic.spencer_set(G, rng(seed, "warm-spencer"))
    return State(seed)


def generate_instance(state: State, i: int, run):
    G, ginfo = run(
        "input", generators.gen_girth5, GIRTH5_N, GIRTH5_K, GIRTH5_T, rng(state.seed, "girth5", i)
    )
    B, binfo = run(
        "input", generators.gen_layered_bouquet, BOUQUET_N, 3, BOUQUET_COUNTS,
        rng(state.seed, "bouquet", i),
    )
    holds = [run("check", structure.check_bouquet, H).holds for H in (G, B)]
    g_greedy = run("solve", basic.greedy_set, G)
    g_spencer = run("solve", basic.spencer_set, G, rng(state.seed, "girth5-spencer", i))
    b_greedy = run("solve", basic.greedy_set, B)
    counts = {
        "girth5": [ginfo["initial_edges"], ginfo["final_n"], ginfo["final_edges"]],
        "bouquet_achieved": binfo["achieved"],
        "bouquet_stalled": binfo["stalled_layers"],
        "holds": holds,
    }
    g_edges = edge_list(G)
    return counts, [(G.n, g_edges, g_greedy), (G.n, g_edges, g_spencer), (B.n, edge_list(B), b_greedy)]


# -- solve: akpss rounds and rough 4-uniform files ---------------------------

ROUNDS_K2_N, ROUNDS_K2_RETRIES = 800, 6
ROUNDS_K3_N, ROUNDS_K3_COUNTS, ROUNDS_K3_RETRIES = 500, {2: 150, 3: 150}, 2
ROUGH_FILES, ROUGH_N, ROUGH_K, ROUGH_EDGES = 8, 800, 4, 5000
PIPELINE_SEEDS = 2


def solve_setup(seed: int, workdir: str) -> State:
    state = State(seed)
    p = ROUGH_EDGES / math.comb(ROUGH_N, ROUGH_K)
    for j in range(ROUGH_FILES):
        H = generators.gen_gnp(ROUGH_N, ROUGH_K, p, rng(seed, "rough", j))
        path = os.path.join(workdir, f"rough-{j}.txt")
        core.write_file(H, path)
        state.files.append((path, parse_edges(path)))
    state.k3, info = generators.gen_layered_bouquet(
        ROUNDS_K3_N, 3, ROUNDS_K3_COUNTS, rng(seed, "rounds-k3")
    )
    state.counts = {"rough_edges": [len(f[1][1]) for f in state.files], "k3_achieved": info["achieved"]}
    warm = core.read_file(state.files[0][0]).induce(range(200))[0]
    structure.check_bouquet(warm)
    basic.greedy_set(warm)
    small = state.k3.induce(range(100))[0]
    akpss.akpss_run(small, schedule.build_schedule(small.n, math.e**3, 3), seed, retries_per_round=1)
    edgeless = core.LayeredHypergraph(100, 2)
    akpss.akpss_run(edgeless, schedule.build_schedule(100, math.e**2, 2), seed, retries_per_round=1)
    return state


def _run_counts(cert) -> list:
    return [
        [r["attempts"] for r in cert.rounds],
        [r["good"] for r in cert.rounds],
        cert.diagnostics["collapsed"],
    ]


def solve_instance(state: State, i: int, run):
    path, (n, rough_edges) = state.files[i]
    # k=2: an edgeless graph, where the round executes for real.
    H2 = run("input", core.LayeredHypergraph, ROUNDS_K2_N, 2)
    R = run("input", core.read_file, path)
    # k=3: the grown bouquet instance from set-up, where the round collapses.
    H3 = state.k3
    holds = [run("check", structure.check_bouquet, H).holds for H in (H2, H3)]
    violated = run("check", structure.check_bouquet, R).violated_properties()

    certs = []
    for H, T, retries in ((H2, math.e**2, ROUNDS_K2_RETRIES), (H3, math.e**3, ROUNDS_K3_RETRIES)):
        sched = run("solve", schedule.build_schedule, H.n, T, H.k)
        certs.append(run("solve", akpss.akpss_run, H, sched, (state.seed, i, H.k), retries_per_round=retries))
    greedy = run("solve", basic.greedy_set, R)
    spencer = run("solve", basic.spencer_set, R, rng(state.seed, "rough-spencer", i))
    pipes = []
    for s in range(PIPELINE_SEEDS):
        pipes.append(run("solve", pipelines.pipeline_kminus2, R, 16, (state.seed, i, s)))
    for s in range(PIPELINE_SEEDS):
        pipes.append(
            run("solve", pipelines.pipeline_degree_gap, R, 1, 1, (state.seed, i, s), epsilon=1 / 16)
        )
    counts = {
        "holds": holds,
        "rough_violated": violated,
        "akpss": [_run_counts(c) for c in certs],
        "pipelines": [[c.diagnostics["attempt"], c.diagnostics["residue"]] for c in pipes],
    }
    checks = [
        (H2.n, edge_list(H2), certs[0].independent_set),
        (H3.n, edge_list(H3), certs[1].independent_set),
    ]
    checks += [(n, rough_edges, s) for s in [greedy, spencer] + [c.independent_set for c in pipes]]
    return counts, checks


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int  # length of the fixed instance list
    setup: Callable  # (seed, workdir) -> State
    instance: Callable  # (state, index, run) -> (counts, checks)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("generate", 8, generate_setup, generate_instance),
        Workload("solve", ROUGH_FILES, solve_setup, solve_instance),
    )
}
