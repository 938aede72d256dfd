"""Vertex-sampling reductions that prepare rough inputs for the finishers.

Each pipeline samples a vertex subset, strips high-degree vertices, deletes
short cycles, trims to a target size, and hands the residue to either the
greedy finisher (pipeline_kminus2) or the semi-random rounds (the other two),
all in one attempt loop (``_attempts``).  All of them return a
RunCertificate whose set is re-verified against the original input,
whatever happened on the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..core import LayeredHypergraph, check_integer, check_real
from ..errors import (
    InvalidArguments,
    PreconditionFailed,
    ResidueNotBouquet,
)
from ..rng import spawn_key, stream
from ..schedule import build_schedule
from ..structure import (
    check_bouquet,
    common_neighbor_max,
    count_two_cycles,
    find_clean_four_cycles,
    prune_short_cycles,
)
from .akpss import MAX_RETRIES, RunCertificate, akpss_run
from .basic import greedy_set


@dataclass
class PipelineConfig:
    retries: int = 16  # a reduction's attempts, and the rounds' retries per round
    trust_preconditions: bool = False
    strict_schedule: bool = False

    def __post_init__(self):
        check_integer("retries", self.retries, 1, MAX_RETRIES)


def _uniform_k(H: LayeredHypergraph) -> int:
    """The input must carry edges in its top layer only, of size k >= 4."""
    sizes = H.layer_sizes()
    for i in range(2, H.k):
        if sizes.get(i, 0) > 0:
            raise InvalidArguments(
                f"expected a {H.k}-uniform input, found edges of size {i}"
            )
    if H.k < 4:
        raise InvalidArguments(f"needs uniformity at least 4, got {H.k}")
    return H.k


def _check_kminus2_degree(H: LayeredHypergraph, k: int, d: float) -> None:
    observed = H.max_min_degree(k, k - 2)[0]
    if observed > d * H.n:
        raise PreconditionFailed(
            f"max ({k - 2})-set degree {observed} exceeds d*n = {d * H.n:.3f}"
        )


def _sample(n: int, p: float, rng: np.random.Generator) -> set[int]:
    coins = rng.random(n)
    return set(int(x) for x in np.nonzero(coins < p)[0])


def _degrees_within(H: LayeredHypergraph, U: set[int]) -> dict[int, dict[int, int]]:
    """Per layer, per vertex: number of edges fully inside U, a set of
    vertex ids; the cost is U's total degree, not the size of H."""
    out: dict[int, dict[int, int]] = {}
    for layer, idx in H._edges_inside(U):
        bucket = out.setdefault(layer, {})
        for v in H.layers[layer][idx]:
            bucket[v] = bucket.get(v, 0) + 1
    return out


def _heavy_light(H: LayeredHypergraph, cut: float) -> tuple[list, list, np.ndarray]:
    """(heavy (k-1)-sets of degree >= cut, sorted; the edges containing none
    of them; per edge, the degrees of its (k-1)-subsets in ``combinations``
    order), edges in edge order, of a k-uniform H."""
    edges = H.layers[H.k]
    subsets, order, bounds = H._layer_runs(H.k, H.k - 1)
    runs = np.diff(bounds)
    deg = np.empty((len(edges), H.k), dtype=np.int64)  # C(k, k-1) = k subsets an edge
    deg.flat[order] = np.repeat(runs, runs)
    heavy = [tuple(s) for s in subsets[bounds[:-1][runs >= cut]].tolist()]
    light = [e for e, hit in zip(edges, (deg >= cut).any(axis=1).tolist()) if not hit]
    return heavy, light, deg


def _attempts(H, G, seed, label, cfg, p, degree_filter, trim_target, finish, **prune):
    """The attempt loop of all three reductions.  Attempt i samples G at
    rate p, drops Z = degree_filter(U), prunes short cycles from U - Z,
    keeps the trim_target smallest survivors and induces G on them;
    ``finish(i, U, Z, prune_info, res)`` gets that residue, None when
    nothing survived, and returns a set in the residue's ids or its reason
    for refusing the residue.  The first set comes back in H's ids,
    re-verified against H; ResidueNotBouquet after cfg.retries refusals."""
    last_fail = ""
    for attempt in range(cfg.retries):
        U = _sample(G.n, p, stream(seed, label, "sample", attempt))
        Z = degree_filter(U)
        survivors, prune_info = prune_short_cycles(G, U - Z, **prune)
        order = sorted(survivors)
        if len(order) > trim_target > 0:
            order = order[:trim_target]
        res = G.induce(order)[0] if order else None
        picked = finish(attempt, U, Z, prune_info, res)
        if isinstance(picked, str):
            last_fail = f"attempt {attempt}: {picked}"
            continue
        final = tuple(sorted(order[x] for x in picked))
        ok, witness = H.is_independent(final)
        if not ok:
            raise AssertionError(f"residue set spans an input edge: {witness}")
        return final
    raise ResidueNotBouquet(
        f"no acceptable residue after {cfg.retries} attempts: {last_fail}"
    )


def pipeline_kminus2(
    H: LayeredHypergraph,
    d: float,
    seed: int | tuple[int, ...],
    config: PipelineConfig | None = None,
) -> RunCertificate:
    """Sample-and-split reduction for k-graphs with every (k-2)-set degree
    at most d*n.  The sampled residue is split into heavy (k-1)-sets and the
    edges avoiding them, and the greedy finisher runs on the union.
    """
    cfg = config or PipelineConfig()
    k = _uniform_k(H)
    check_real("d", d, above=0)
    n = H.n
    warnings: list[str] = []
    if not cfg.trust_preconditions:
        _check_kminus2_degree(H, k, d)
    ratio = n / d
    if ratio <= 1:
        warnings.append(f"n/d = {ratio:.3f} <= 1, the reduction degenerates")

    beta = (3 * k - 2) / (4 * k - 4)  # the split exponent, inside (k/(2k-2), 1)

    p = min(1.0, n ** (-(2 * k - 5) / (2 * k - 3)) * d ** (-2 / (2 * k - 3)))
    M = ratio ** (2 / (2 * k - 3))
    heavy_cut = 3 * k * math.sqrt(M)
    m_target = int(M / 9)

    diag: dict = {
        "p": p,
        "expected_sample": p * n,
        "heavy_cut": heavy_cut,
        "m_target": m_target,
        "split_exponent": beta,
    }

    def heavy_vertices(U):
        deg_u = _degrees_within(H, U).get(k, {})
        return set(v for v in U if deg_u.get(v, 0) >= heavy_cut)

    def split_and_greedy(attempt, U, ustar, prune_info, res):
        m = res.n if res is not None else 0
        if m < m_target:
            warnings.append(f"residue {m} below the trim target {m_target}")
        if res is None:
            return "nothing survived the pruning"
        if m <= 1:
            theta = float(k + 2)
        else:
            theta = max(m ** (1 / (2 * k - 2)) / math.log(m) ** beta, float(k + 2))

        heavy, light, _ = _heavy_light(res, theta)
        G = LayeredHypergraph(m, k)
        G._extend_layer(k - 1, heavy)
        G._extend_layer(k, light)
        g2only = LayeredHypergraph(m, k)
        g2only._extend_layer(k, light)
        diag.update(
            {
                "attempt": attempt,
                "sample": len(U),
                "high_degree_removed": len(ustar),
                "pruning": prune_info,
                "residue": m,
                "heavy_threshold": theta,
                "heavy_sets": len(heavy),
                "light_edges": len(light),
                "residue_two_cycles": {
                    ell: count_two_cycles(res, ell) for ell in range(2, k - 1)
                },
                "split_hypotheses": _split_hypotheses(G, g2only, m, k, beta, heavy),
            }
        )
        return greedy_set(G)

    final = _attempts(
        H, H, seed, "kminus2", cfg, p, heavy_vertices, m_target, split_and_greedy,
        two_ells=tuple(range(2, k - 1)),
    )
    return RunCertificate(
        algorithm="pipeline_kminus2",
        independent_set=final,
        verified=True,
        diagnostics=diag,
        warnings=warnings,
    )


def _split_hypotheses(
    G: LayeredHypergraph,
    g2only: LayeredHypergraph,
    m: int,
    k: int,
    beta: float,
    heavy: list,
) -> dict:
    """Audit data for the heavy/light split: the constants the finisher's
    guarantee wants, evaluated on the actual residue."""
    c_eff = 9 * k
    logm = math.log(m) if m > 1 else 1.0
    D = c_eff * (k - 1) * m ** ((k - 2) / (2 * k - 2)) * logm**beta
    dd = c_eff * math.sqrt(m)
    heavy_deg_max = G.max_min_degree(k - 1, 1)[0] if heavy else 0
    gamma_heavy = common_neighbor_max(G, layer=k - 1) if heavy else 0
    heavy_pair_max = 0
    if heavy:
        heavy_pair_max = max(
            G.max_min_degree(k - 1, i)[0] for i in range(2, k - 1)
        )
    return {
        "D": D,
        "d": dd,
        "omega": dd * (logm / D) ** ((k - 1) / (k - 2)),
        "heavy_degree_max": heavy_deg_max,
        "heavy_degree_ok": heavy_deg_max <= D,
        "heavy_pair_degree_max": heavy_pair_max,
        "heavy_pair_degree_ok": heavy_pair_max <= 1,
        "common_neighbor_max": gamma_heavy,
        "common_neighbor_ok": gamma_heavy == 0,
        "light_count_ok": k * g2only.num_edges() <= dd * m,
        "light_two_cycles": {
            ell: count_two_cycles(g2only, ell) for ell in range(2, k)
        },
    }


def pipeline_degree_gap(
    H: LayeredHypergraph,
    d: float,
    case: int,
    seed: int | tuple[int, ...],
    epsilon: float | None = None,
    config: PipelineConfig | None = None,
) -> RunCertificate:
    """Heavy/light reduction for k-graphs whose (k-1)-set degrees avoid a
    gap below n^((k-2)/(k-1)) d^(1/(k-1)).

    Case 1 needs the gap down to n^(..-eps) d^(..+eps) and deletes all short
    cycles from the sample.  Case 2 needs the gap down to the same cut over
    (log(n/d))^(k+1) plus a clean-4-free input, and keeps (2, k-1)-cycles.
    The two-layer residue goes to the semi-random rounds.
    """
    cfg = config or PipelineConfig()
    k = _uniform_k(H)
    check_real("d", d, above=0)
    if epsilon is not None:
        check_real("epsilon", epsilon, above=0)
    check_integer("case", case, 1, 2)
    n = H.n
    ratio = n / d
    if ratio <= 1:
        raise InvalidArguments(f"needs n/d > 1, got {ratio:.3f}")
    warnings: list[str] = []

    if case == 1:
        if epsilon is None:
            raise InvalidArguments("case 1 needs epsilon")
        eps_eff = min(epsilon, 1 / (4 * k))
        delta = eps_eff / (k + 1)
    else:
        delta = 1 / (8 * k * k)  # the sampling exponent, inside (0, 1/(4k^2))
        eps_eff = None

    heavy_cut = n ** ((k - 2) / (k - 1)) * d ** (1 / (k - 1))
    heavy, light, deg = _heavy_light(H, heavy_cut)

    if not cfg.trust_preconditions:
        _check_kminus2_degree(H, k, d)
        if case == 1:
            gap_lo = n ** ((k - 2) / (k - 1) - eps_eff) * d ** (1 / (k - 1) + eps_eff)
        else:
            gap_lo = heavy_cut / math.log(ratio) ** (k + 1)
        gap = np.flatnonzero((gap_lo < deg) & (deg < heavy_cut))  # in edge order
        if len(gap):
            e, c = divmod(int(gap[0]), k)
            raise PreconditionFailed(
                f"({k - 1})-set degree {deg[e, c]} falls in the forbidden gap "
                f"({gap_lo:.4f}, {heavy_cut:.4f})",
                witness=list(combinations(H.layers[k][e], k - 1))[c],
            )
        if case == 2 and find_clean_four_cycles(H, limit=1):
            raise PreconditionFailed("case 2 needs a clean-4-free input")

    HH = LayeredHypergraph(n, k)
    HH._extend_layer(k - 1, heavy)
    HH._extend_layer(k, light)

    p = min(1.0, n ** (delta - (k - 2) / (k - 1)) * d ** (-delta - 1 / (k - 1)))
    trim_target = int(0.5 * ratio ** (1 / (k - 1) + delta))
    z_cut = {}  # degree filter: 40 p^(i-1) times the layer's max degree
    for i in (k - 1, k):
        d1 = HH.max_min_degree(i, 1)[0] if HH.layer_sizes().get(i, 0) else 0
        z_cut[i] = 40 * p ** (i - 1) * d1
    resid_cap = 2 * ratio**delta / math.log(ratio) ** (k + 1)

    diag: dict = {
        "case": case,
        "delta": delta,
        "epsilon_effective": eps_eff,
        "p": p,
        "heavy_cut": heavy_cut,
        "heavy_sets": len(heavy),
        "light_edges": len(light),
        "trim_target": trim_target,
        "residue_top_degree_cap": resid_cap if case == 2 else None,
    }

    def high_degree(U):
        within = _degrees_within(HH, U)
        return set(
            v
            for i in (k - 1, k)
            for v, c in within.get(i, {}).items()
            if c > z_cut[i]
        )

    return _rounds_on_residue(
        H, HH, seed, "degree_gap", cfg, diag, warnings,
        algorithm="pipeline_degree_gap",
        p=p,
        degree_filter=high_degree,
        two_ells=tuple(range(2, k if case == 1 else k - 1)),
        clean4=case == 1,  # case 1 deletes all short cycles
        trim_target=trim_target,
        T=3 * ratio**delta,
        top_cap=resid_cap if case == 2 else None,
    )


def pipeline_graded_caps(
    H: LayeredHypergraph,
    t: float,
    seed: int | tuple[int, ...],
    epsilon: float,
    config: PipelineConfig | None = None,
) -> RunCertificate:
    """Reduction for k-graphs with graded degree caps: deg <= t^(k-1) per
    vertex, t^(k-i-eps) per i-set for middle i, t/(log t)^(k+1) per
    (k-1)-set, and no clean 4-cycle.  Samples at rate t^(delta-1) with
    delta = eps/(4k), cleans the sample, and runs the semi-random rounds.
    """
    cfg = config or PipelineConfig()
    k = _uniform_k(H)
    check_real("t", t, above=1)
    check_real("epsilon", epsilon, above=0)
    n = H.n
    warnings: list[str] = []
    delta = epsilon / (4 * k)

    caps = {1: t ** (k - 1)}
    for i in range(2, k - 1):
        caps[i] = t ** (k - i - epsilon)
    caps[k - 1] = t / math.log(t) ** (k + 1)
    if not cfg.trust_preconditions:
        for i, cap in sorted(caps.items()):
            observed = H.max_min_degree(k, i)[0]
            if observed > cap:
                msg = f"max {i}-set degree {observed} exceeds cap {cap:.4f}"
                if cfg.strict_schedule:
                    raise PreconditionFailed(msg)
                warnings.append(msg)
        if find_clean_four_cycles(H, limit=1):
            msg = "input has a clean 4-cycle"
            if cfg.strict_schedule:
                raise PreconditionFailed(msg)
            warnings.append(msg)

    p = min(1.0, t ** (delta - 1))
    trim_target = int(0.5 * n * t ** (delta - 1))
    resid_cap = 2 * p * t / math.log(t) ** (k + 1)

    diag: dict = {
        "delta": delta,
        "p": p,
        "trim_target": trim_target,
        "residue_top_degree_cap": resid_cap,
        "caps": caps,
    }

    def high_degree(U):
        within = _degrees_within(H, U).get(k, {})
        return set(
            v for v in U if within.get(v, 0) > 10 * p ** (k - 1) * len(H.incidence[v])
        )

    return _rounds_on_residue(
        H, H, seed, "graded", cfg, diag, warnings,
        algorithm="pipeline_graded_caps",
        p=p,
        degree_filter=high_degree,
        two_ells=tuple(range(2, k - 1)),
        clean4=False,
        trim_target=trim_target,
        T=10 ** (1 / (k - 1)) * t**delta,
        top_cap=resid_cap,
        record_top=True,
    )


def _rounds_on_residue(
    H: LayeredHypergraph,
    G: LayeredHypergraph,
    seed: int | tuple[int, ...],
    label: str,
    cfg: PipelineConfig,
    diag: dict,
    warnings: list[str],
    *,
    algorithm: str,
    p: float,
    degree_filter,
    two_ells: tuple[int, ...],
    clean4: bool,
    trim_target: int,
    T: float,
    top_cap: float | None = None,
    record_top: bool = False,
) -> RunCertificate:
    """The two degree-gap reductions after their set-up: accept a residue
    when check_bouquet holds and its (k-1)-set degrees stay at most top_cap
    (if set), and run the semi-random rounds on it."""
    k = H.k

    def rounds(attempt, U, Z, prune_info, res):
        if res is None:
            return "nothing survived the pruning"
        report = check_bouquet(res)
        if not report.holds:
            return f"residue violates {sorted(report.violated_properties())}"
        if top_cap is not None:
            top = res.max_min_degree(k, k - 1)[0]
            if top > top_cap:
                return f"residue ({k - 1})-set degree {top} above {top_cap:.4f}"

        sched = build_schedule(max(1, res.n), T, k, strict=cfg.strict_schedule)
        warnings.extend(sched.warnings)
        inner = akpss_run(
            res,
            sched,
            spawn_key(seed, label, "akpss", attempt),
            retries_per_round=cfg.retries,
            check_input=False,
        )
        diag.update(
            {
                "attempt": attempt,
                "sample": len(U),
                "degree_filtered": len(Z),
                "pruning": prune_info,
                "residue": res.n,
                **({"residue_top_degree": top} if record_top else {}),
                "schedule": {"T": T, "M": sched.M, "N": res.n},
                "rounds": inner.rounds,
                "inner_diagnostics": inner.diagnostics,
                "greedy_residue_size": len(greedy_set(res)),
            }
        )
        warnings.extend(inner.warnings)
        return inner.independent_set

    final = _attempts(
        H, G, seed, label, cfg, p, degree_filter, trim_target, rounds,
        two_ells=two_ells, linear3=True, clean4=clean4,
    )
    return RunCertificate(
        algorithm=algorithm,
        independent_set=final,
        verified=True,
        rounds=diag["rounds"],
        diagnostics=diag,
        warnings=warnings,
    )
