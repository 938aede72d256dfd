"""Semi-random rounds: complete to near-regular, sample, discard, contract.

One round turns the current graph H_m into H_{m+1} and harvests an
independent slice I_{m+1}:

  1. complete H_m to H~ so degrees match the round caps outside a small B,
  2. sample C with the round probability,
  3. D = vertices forced by almost-covered edges,
  4. Z = vertices whose projected degrees overshoot their means,
  5. W = N(B) | Z is written off, I = C - D - W survives,
  6. contract edges of H~[V* | I] onto V* = V - C - D - W, clean, relabel.

Step 1, with the round caps and the neighbourhood N(B) of step 5, depends on
H_m and m only, never on the coins: a ``RoundPrep`` does it once per round.
Steps 2-6 are the per-attempt coin phase of ``akpss_step``, which takes the
round's RoundPrep or builds its own.

The driver retries each round until the sizes land in the scheduled windows,
keeps the best attempt otherwise, and verifies the final union against the
round-0 input before returning a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import LayeredHypergraph, _as_vertex, _vertex_ids, check_integer, contract
from ..errors import InvalidArguments, PreconditionFailed, RoundCollapsed
from ..rng import stream
from ..schedule import Schedule
from ..structure import check_bouquet
from .regular import almost_regular_complete, cap_excess

# attempts per round here, and per residue in the pipelines
MAX_RETRIES = 1_000


def deg_i_to_j(
    H: LayeredHypergraph,
    x: int,
    vprime: set[int],
    sampled: set[int],
    i: int,
    j: int,
) -> int:
    """Number of layer-i edges at x whose other vertices sit inside
    vprime | sampled with exactly j-1 of them in vprime.

    These are the edges that contract to a j-edge at x when the sampled
    vertices are folded away.
    """
    if type(x) is not int or not (0 <= x < H.n):
        _as_vertex(x, H.n)
    count = 0
    for layer, idx in H.incidence[x]:
        if layer != i:
            continue
        rest = [v for v in H.layers[layer][idx] if v != x]
        in_v = 0
        ok = True
        for v in rest:
            if v in vprime:
                in_v += 1
            elif v not in sampled:
                ok = False
                break
        if ok and in_v == j - 1:
            count += 1
    return count


def mu_i_to_j(H: LayeredHypergraph, x: int, p: float, i: int, j: int) -> float:
    """Expected i->j contraction count at x: C(i-1, j-1) deg_i(x) p^(i-j) e^(1-j)."""
    if type(x) is not int or not (0 <= x < H.n):
        _as_vertex(x, H.n)
    deg = sum(1 for layer, _ in H.incidence[x] if layer == i)
    return math.comb(i - 1, j - 1) * deg * p ** (i - j) * math.e ** (1 - j)


@dataclass
class StepState:
    """Everything one round produced, with the sets in the round's own ids."""

    m: int
    sampled: frozenset[int]
    dominated: frozenset[int]
    irregular: frozenset[int]
    overflow: frozenset[int]
    waste: frozenset[int]
    independent: frozenset[int]
    survivors: frozenset[int]
    diagnostics: dict = field(default_factory=dict)


class RoundPrep:
    """Round m+1's work on the round graph H that the coins do not change,
    shared by the round's attempts, which only read it: the round caps lifted
    to H's degrees where H exceeds them (``cap_lifts``), the completion of H
    under those caps (``completed``, its deficient set B as ``irregular``,
    ``completion`` its info), and N(B) in the completion (``near_irregular``)."""

    __slots__ = ("graph", "sched", "m", "cap_lifts", "completed", "irregular", "completion", "near_irregular")

    def __init__(self, H: LayeredHypergraph, sched: Schedule, m: int):
        k = H.k
        vertex_caps = {i: sched.vertex_cap(m, i) for i in range(2, k + 1)}
        pair_caps = {i: sched.pair_cap(m, i) for i in range(3, k + 1)}
        self.cap_lifts = cap_excess(H, vertex_caps, pair_caps)
        for kind, i, _, observed in self.cap_lifts:
            (vertex_caps if kind == "vertex" else pair_caps)[i] = observed

        self.completed, irregular, self.completion = almost_regular_complete(
            H, vertex_caps, pair_caps, check_input=False
        )
        self.irregular = frozenset(irregular)
        self.near_irregular = frozenset(self.completed.neighborhood(irregular, 1))
        self.graph, self.sched, self.m = H, sched, m


def akpss_step(
    H: LayeredHypergraph,
    sched: Schedule,
    m: int,
    rng: np.random.Generator,
    force_sample: set[int] | None = None,
    collect_contraction_data: bool = False,
    prep: RoundPrep | None = None,
) -> tuple[LayeredHypergraph, dict[int, int], StepState]:
    """Run one attempt at round m+1 on H (the round-m graph). Returns the
    next graph, the old->new vertex map, and the StepState.

    prep is the round's ``RoundPrep(H, sched, m)``; without it the step
    builds its own.  force_sample bypasses the coin flips for C (tests).
    Raises InvalidVertex for a forced id outside 0..n-1 and InvalidArguments
    for a prep of another round, both before any work, and RoundCollapsed
    when no vertex survives; the exception carries the state so the caller
    can still bank the harvested set.
    """
    n = H.n
    k = H.k
    eps = sched.epsilon
    if force_sample is not None:
        sampled = _vertex_ids(force_sample, n)
    if prep is None:
        prep = RoundPrep(H, sched, m)
    elif prep.graph is not H or prep.sched is not sched or prep.m != m:
        raise InvalidArguments(f"prep was built for another round than round {m + 1} of this graph")
    H2, irregular, nb = prep.completed, prep.irregular, prep.near_irregular

    p = sched.p_at(m + 1)
    clamped = False
    if p > 1.0:
        p = 1.0
        clamped = True
    if force_sample is None:
        coins = rng.random(n)
        sampled = set(int(x) for x in np.nonzero(coins < p)[0])

    dominated: set[int] = set()
    for _, e in H2.edges():
        missing = [v for v in e if v not in sampled]
        if not missing:
            dominated.update(e)
        elif len(missing) == 1:
            dominated.add(missing[0])

    vprime = set(range(n)) - irregular - sampled - dominated

    # One pass over edges accumulates every deg_{i->j}(x) at once.  The
    # membership requirement is on the link e - {x}, not on x itself, so an
    # edge with exactly one vertex outside vprime | sampled counts for that
    # vertex only.
    deg_ij: dict[tuple[int, int], dict[int, int]] = {}
    for layer, e in H2.edges():
        n_v = 0
        outside: list[int] = []
        for v in e:
            if v in vprime:
                n_v += 1
            elif v not in sampled:
                outside.append(v)
        if len(outside) > 1:
            continue
        if len(outside) == 1:
            x = outside[0]
            bucket = deg_ij.setdefault((layer, n_v + 1), {})
            bucket[x] = bucket.get(x, 0) + 1
        else:
            for v in e:
                j = n_v + 1 - (1 if v in vprime else 0)
                bucket = deg_ij.setdefault((layer, j), {})
                bucket[v] = bucket.get(v, 0) + 1

    thresh_factor = (1.0 + eps / 4.0) ** 2
    overflow: set[int] = set()
    z_domain = set(range(n)) - nb - sampled
    for (i, j), bucket in sorted(deg_ij.items()):
        if j < 2:
            continue
        for x, value in bucket.items():
            if x in z_domain and value > thresh_factor * mu_i_to_j(H2, x, p, i, j):
                overflow.add(x)

    waste = nb | overflow
    independent = sampled - dominated - waste
    survivors = set(range(n)) - sampled - dominated - waste

    keep = survivors | independent
    sub = LayeredHypergraph(n, k)
    for layer, e in H2.edges():
        if all(v in keep for v in e):
            sub.add_edge(e)
    bag, cleaned = contract(sub, survivors)
    H_next, old_to_new = cleaned.induce(sorted(survivors))

    diagnostics = {
        "p": p,
        "p_clamped": clamped,
        "cap_lifts": prep.cap_lifts,
        "completion": prep.completion,
        "completed_edges": H2.num_edges(),
        "sampled_raw": len(sampled),
        "independent_pre_waste": len(sampled - irregular - dominated),
        "vprime": len(vprime),
        "neighborhood_irregular": len(nb),
        "bag_edges": len(bag.edges),
        "bag_dropped_small": bag.dropped_small,
        "cleaned_edges": cleaned.num_edges(),
        "deg_ij_max": {
            key: max(bucket.values()) for key, bucket in sorted(deg_ij.items())
        },
    }
    if collect_contraction_data:
        diagnostics["deg_ij"] = deg_ij
        diagnostics["vprime_set"] = frozenset(vprime)
        diagnostics["completed"] = H2

    state = StepState(
        m=m,
        sampled=frozenset(sampled),
        dominated=frozenset(dominated),
        irregular=frozenset(irregular),
        overflow=frozenset(overflow),
        waste=frozenset(waste),
        independent=frozenset(independent),
        survivors=frozenset(survivors),
        diagnostics=diagnostics,
    )
    if not survivors:
        raise RoundCollapsed(f"round {m + 1} left no survivors", state=state)
    return H_next, old_to_new, state


@dataclass
class RunCertificate:
    """Verified output of a full run plus per-round audit data."""

    algorithm: str
    independent_set: tuple[int, ...]
    verified: bool
    rounds: list[dict] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "independent_set": list(self.independent_set),
            "verified": self.verified,
            "rounds": self.rounds,
            "diagnostics": self.diagnostics,
            "warnings": self.warnings,
        }


def akpss_run(
    H: LayeredHypergraph,
    sched: Schedule,
    seed: int | tuple[int, ...],
    retries_per_round: int = 16,
    verify_rounds: bool = False,
    check_input: bool = True,
) -> RunCertificate:
    """Drive akpss_step for the scheduled number of rounds and return a
    verified certificate.

    Each round is retried with fresh coins until the survivor count lands in
    the scheduled window, the harvest reaches (1-eps) n gamma / (e t), and
    the overflow stays under eps gamma n / (3 e t); after retries_per_round
    attempts the attempt with the largest harvest wins.  Streams are derived
    from (seed, "round", m, "attempt", a), so runs are reproducible.
    """
    check_integer("retries_per_round", retries_per_round, 1, MAX_RETRIES)
    warnings: list[str] = []
    if check_input:
        report = check_bouquet(H)
        if not report.holds:
            raise PreconditionFailed(
                "input violates the short-cycle conditions", witness=report
            )
    excess = cap_excess(
        H,
        {i: sched.vertex_cap(0, i) for i in range(2, H.k + 1)},
        {i: sched.pair_cap(0, i) for i in range(3, H.k + 1)},
    )
    # layer by layer; the sort is stable, so a layer's vertex excess stays first
    for kind, i, cap, observed in sorted(excess, key=lambda lift: lift[1]):
        if kind == "vertex":
            msg = f"layer {i} max degree {observed} exceeds round-0 cap {cap}"
        else:
            msg = f"layer {i} max ({i - 1})-set degree {observed} exceeds cap {cap}"
        if sched.strict:
            raise PreconditionFailed(msg)
        warnings.append(msg)

    current = H
    to_original = list(range(H.n))
    harvested: set[int] = set()
    rounds: list[dict] = []
    collapsed = False

    for m in range(sched.M):
        n_m = current.n
        if n_m == 0:
            warnings.append(f"round {m + 1}: no vertices left, stopping early")
            break
        gamma = sched.gamma_at(m + 1)
        t_prev = sched.t[m]
        harvest_floor = (1 - sched.epsilon) * n_m * gamma / (math.e * t_prev)
        overflow_cap = sched.epsilon * gamma * n_m / (3 * math.e * t_prev)

        best: tuple[LayeredHypergraph, dict[int, int], StepState] | None = None
        best_good = False
        attempts_used = 0
        prep = RoundPrep(current, sched, m)
        for attempt in range(retries_per_round):
            attempts_used = attempt + 1
            rng = stream(seed, "round", m, "attempt", attempt)
            try:
                result = akpss_step(current, sched, m, rng, prep=prep)
            except RoundCollapsed as rc:
                # n_lo[m+1] > 0, so a collapsed attempt never hits the window
                result = (LayeredHypergraph(0, H.k), {}, rc.state)
            h_next, relabel, state = result
            good_window = sched.n_lo[m + 1] <= h_next.n <= sched.n_hi[m + 1]
            good_harvest = len(state.independent) >= harvest_floor
            good_overflow = len(state.overflow) <= overflow_cap
            if best is None or len(state.independent) > len(best[2].independent):
                best = result
            if good_window and good_harvest and good_overflow:
                best = result
                best_good = True
                break

        assert best is not None
        h_next, relabel, state = best
        round_info = {
            "round": m + 1,
            "n_before": n_m,
            "n_after": h_next.n,
            "attempts": attempts_used,
            "good": best_good,
            "window": (sched.n_lo[m + 1], sched.n_hi[m + 1]),
            "harvest_floor": harvest_floor,
            "overflow_cap": overflow_cap,
            "sampled": len(state.sampled),
            "dominated": len(state.dominated),
            "irregular": len(state.irregular),
            "overflow": len(state.overflow),
            "waste": len(state.waste),
            "harvested": len(state.independent),
            "cap_lifts": state.diagnostics.get("cap_lifts", []),
        }
        if not best_good:
            warnings.append(
                f"round {m + 1}: no attempt hit all windows after "
                f"{attempts_used} tries, kept the largest harvest"
            )
        harvested.update(to_original[x] for x in state.independent)
        if verify_rounds:
            round_info["structure_ok"] = check_bouquet(h_next).holds

        if not state.survivors or h_next.n == 0:
            rounds.append(round_info)
            collapsed = True
            warnings.append(f"round {m + 1}: graph collapsed, stopping early")
            break

        next_map = [0] * h_next.n
        for old, new in relabel.items():
            next_map[new] = to_original[old]
        to_original = next_map
        current = h_next
        rounds.append(round_info)

    result_set = tuple(sorted(harvested))
    ok, witness = H.is_independent(result_set)
    if not ok:
        raise AssertionError(
            f"harvested set spans an edge, this is a bug: {witness}"
        )
    return RunCertificate(
        algorithm="akpss",
        independent_set=result_set,
        verified=True,
        rounds=rounds,
        diagnostics={
            "rounds_completed": len(rounds),
            "rounds_scheduled": sched.M,
            "collapsed": collapsed,
            "final_n": current.n if not collapsed else 0,
        },
        warnings=warnings,
    )
