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
H_m and m only, never on the coins: a ``RoundPrep`` does it once per round,
and also keeps each layer of H~ as an int array, its vertex degrees, and B
and N(B) as boolean masks.  Steps 2-6 are the per-attempt coin phase of
``akpss_step``, which takes the round's RoundPrep or builds its own.  The
phase works on boolean vertex masks indexed by those arrays: D from each
edge's count of unsampled vertices, the deg_{i->j} counts from one bincount
per (i, j), Z from the mu expression of ``mu_i_to_j`` on the degree vector,
and the kept edges from the rows inside C | V*, bulk-inserted in edge order.
``deg_i_to_j`` and ``mu_i_to_j`` stay the per-vertex definitions.

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
    ``completion`` its info), and N(B) in the completion (``near_irregular``).
    For the coin phase it also holds the completion's layers as arrays
    (``arrays``), each layer's vertex degrees (``degrees``), and B and N(B)
    as boolean vertex masks (``irregular_mask``, ``near_mask``)."""

    __slots__ = (
        "graph", "sched", "m", "cap_lifts", "completed", "irregular", "completion", "near_irregular",
        "arrays", "degrees", "irregular_mask", "near_mask",
    )

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

        n = H.n
        self.arrays = {i: self.completed._layer_array(i) for i in range(2, k + 1)}
        self.degrees = {i: np.bincount(E.ravel(), minlength=n) for i, E in self.arrays.items()}
        self.irregular_mask = _mask(self.irregular, n)
        self.near_mask = _mask(self.near_irregular, n)


def _mask(vertices, n: int) -> np.ndarray:
    """The boolean vertex mask of a set of vertex ids in 0..n-1."""
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(vertices, dtype=np.intp, count=len(vertices))] = True
    return mask


def _ids(mask: np.ndarray) -> set[int]:
    """The vertex ids a boolean vertex mask holds, as plain ints."""
    return set(np.flatnonzero(mask).tolist())


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
        in_c = rng.random(n) < p
        sampled = _ids(in_c)
    else:
        in_c = _mask(sampled, n)

    # D: every vertex of an edge inside C, and the one vertex of an edge
    # that misses C in exactly one
    in_d = np.zeros(n, dtype=bool)
    for E in prep.arrays.values():
        out = ~in_c[E]
        missing = out.sum(axis=1)
        in_d[E[missing == 0]] = True
        one = missing == 1
        in_d[E[one][out[one]]] = True

    in_vprime = ~(prep.irregular_mask | in_c | in_d)

    # deg_{i->j}(x) counts layer-i edges at x whose link e - {x} lies inside
    # V' | C with j-1 vertices in V'.  An edge with exactly one vertex
    # outside V' | C counts for that vertex only; an edge with none counts
    # for each of its vertices.  Keys go in ascending (i, j) order.
    deg_ij: dict[tuple[int, int], np.ndarray] = {}
    for i, E in prep.arrays.items():
        in_v = in_vprime[E]
        outside = ~(in_v | in_c[E])
        n_v = in_v.sum(axis=1)
        n_out = outside.sum(axis=1)
        one, none = n_out == 1, n_out == 0
        x = np.concatenate((E[one][outside[one]], E[none].ravel()))
        j = np.concatenate((n_v[one] + 1, (n_v[none][:, None] + 1 - in_v[none]).ravel()))
        for jj in np.unique(j).tolist():
            deg_ij[i, jj] = np.bincount(x[j == jj], minlength=n)

    # Z: vertices outside N(B) | C whose deg_{i->j}, j >= 2, exceeds
    # (1 + eps/4)^2 mu_{i->j}, with mu in mu_i_to_j's operand order
    thresh_factor = (1.0 + eps / 4.0) ** 2
    in_z = np.zeros(n, dtype=bool)
    for (i, j), counts in deg_ij.items():
        if j >= 2:
            mu = math.comb(i - 1, j - 1) * prep.degrees[i] * p ** (i - j) * math.e ** (1 - j)
            in_z |= counts > thresh_factor * mu
    in_z &= ~(prep.near_mask | in_c)

    in_w = prep.near_mask | in_z
    in_i = in_c & ~in_d & ~in_w
    in_s = ~(in_c | in_d | in_w)
    dominated, overflow, waste = _ids(in_d), _ids(in_z), _ids(in_w)
    independent, survivors = _ids(in_i), _ids(in_s)

    keep = in_s | in_i
    sub = LayeredHypergraph(n, k)
    for i, E in prep.arrays.items():
        edges = H2.layers[i]
        sub._extend_layer(i, [edges[r] for r in np.flatnonzero(keep[E].all(axis=1)).tolist()])
    bag, cleaned = contract(sub, survivors)
    H_next, old_to_new = cleaned.induce(sorted(survivors))

    diagnostics = {
        "p": p,
        "p_clamped": clamped,
        "cap_lifts": prep.cap_lifts,
        "completion": prep.completion,
        "completed_edges": H2.num_edges(),
        "sampled_raw": len(sampled),
        "independent_pre_waste": int(np.count_nonzero(in_c & ~prep.irregular_mask & ~in_d)),
        "vprime": int(np.count_nonzero(in_vprime)),
        "neighborhood_irregular": len(nb),
        "bag_edges": len(bag.edges),
        "bag_dropped_small": bag.dropped_small,
        "cleaned_edges": cleaned.num_edges(),
        "deg_ij_max": {key: int(counts.max()) for key, counts in deg_ij.items()},
    }
    if collect_contraction_data:
        diagnostics["deg_ij"] = {
            key: {x: int(counts[x]) for x in np.flatnonzero(counts).tolist()}
            for key, counts in deg_ij.items()
        }
        diagnostics["vprime_set"] = frozenset(_ids(in_vprime))
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
