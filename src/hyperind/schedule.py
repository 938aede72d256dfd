"""Round schedules for the semi-random solver, plus closed-form size bounds.

A schedule is fully determined by (N, T, k): a target horizon T fixes the
accuracy parameter eps = 1/log T, the decay beta = 1/(1+eps), the number of
rounds M = floor(log T / 2), and the nibble sequence

    alpha_0 = (log T)^(1/(k-1)),
    alpha_m = (log T + 1 + beta + ... + beta^(m-1))^(1/(k-1)),

whose increments gamma_m = alpha_m - alpha_{m-1} set the per-round sampling
probabilities p_m = gamma_m / t_{m-1} against the density scale t_m = T/e^m.
Two identities the suite pins down: alpha_{m+1}^(k-1) - alpha_m^(k-1) =
beta^m exactly, and log T <= alpha_m^(k-1) <= 1.5 log T for all m <= M.

The strict parameter regime is (log N)^3 <= T <= N^(1/4k); outside it a lax
schedule still carries well-defined sequences but records a warning, since
the quantitative round guarantees are void there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import check_integer, check_real
from .errors import InvalidArguments, OutOfDomain, OutOfRegime

__all__ = ["Schedule", "build_schedule", "reference_bound", "REFERENCE_KINDS"]


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass
class Schedule:
    """Parameter sequences for one run; index m ranges over 0..M.

    ``alpha``, ``t``, ``n_lo``, ``n_hi`` have M+1 entries; ``gamma`` and
    ``p`` have M entries and are 1-indexed conceptually (gamma[m-1] is
    gamma_m), exposed through ``gamma_at``/``p_at`` to keep indices honest.
    """

    N: int
    T: float
    k: int
    strict: bool
    epsilon: float
    beta: float
    M0: float
    M: int
    alpha: list[float]
    gamma: list[float]
    t: list[float]
    p: list[float]
    n_lo: list[float]
    n_hi: list[float]
    warnings: list[str] = field(default_factory=list)

    def gamma_at(self, m: int) -> float:
        """gamma_m for 1 <= m <= M."""
        check_integer("m", m, 1, self.M)
        return self.gamma[m - 1]

    def p_at(self, m: int) -> float:
        """Sampling probability of round m, p_m = gamma_m / t_{m-1}."""
        check_integer("m", m, 1, self.M)
        return self.p[m - 1]

    def vertex_cap(self, m: int, i: int) -> int:
        """Layer-i vertex degree cap after m rounds (completion target)."""
        check_integer("m", m, 0, self.M)
        check_integer("i", i, 2, self.k)
        value = (
            (1 + self.epsilon) ** m
            * math.comb(self.k - 1, self.k - i)
            * self.alpha[m] ** (self.k - i)
            * self.t[m] ** (i - 1)
        )
        return _round_half_up(value)

    def pair_cap(self, m: int, i: int) -> int:
        """Layer-i cap on (i-1)-set degrees after m rounds."""
        check_integer("m", m, 0, self.M)
        check_integer("i", i, 2, self.k)
        value = (1 + self.epsilon) ** m * self.t[m] / math.log(self.t[m]) ** (i + 1)
        return _round_half_up(value)

    def gamma_window(self) -> tuple[float, float]:
        """The interval every gamma_m is guaranteed to lie in."""
        logT = self.M0
        exponent = (self.k - 2) / (self.k - 1)
        lo = 0.5 / ((self.k - 1) * (1.5 * logT) ** exponent)
        hi = 1.0 / ((self.k - 1) * logT ** exponent)
        return lo, hi

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "T": self.T,
            "k": self.k,
            "strict": self.strict,
            "epsilon": self.epsilon,
            "beta": self.beta,
            "M0": self.M0,
            "M": self.M,
            "alpha": list(self.alpha),
            "gamma": list(self.gamma),
            "t": list(self.t),
            "p": list(self.p),
            "n_lo": list(self.n_lo),
            "n_hi": list(self.n_hi),
            "warnings": list(self.warnings),
        }


def build_schedule(N: int, T: float, k: int, strict: bool = False) -> Schedule:
    """Derive the full round schedule for horizon T on N vertices.

    Raises
    ------
    InvalidArguments : N or k not an integer, N < 1, k < 2, or T not a
        finite real number above 1 (log T must be positive and finite)
    OutOfRegime : strict mode and T outside [(log N)^3, N^(1/4k)]
    """
    check_integer("N", N, least=1)
    check_integer("k", k, least=2)
    check_real("T", T, above=1)
    warnings: list[str] = []
    logN = math.log(N)
    lo_T, hi_T = logN**3, N ** (1 / (4 * k))
    if not (lo_T <= T <= hi_T):
        message = f"T={T:g} outside strict regime [{lo_T:.6g}, {hi_T:.6g}] for N={N}, k={k}"
        if strict:
            raise OutOfRegime(message)
        warnings.append(message)
    logT = math.log(T)
    epsilon = 1.0 / logT
    beta = 1.0 / (1.0 + epsilon)
    M = int(math.floor(logT / 2.0))
    root = 1.0 / (k - 1)
    alpha = [logT**root]
    acc = logT
    for m in range(1, M + 1):
        acc += beta ** (m - 1)
        alpha.append(acc**root)
    gamma = [alpha[m] - alpha[m - 1] for m in range(1, M + 1)]
    t = [T / math.e**m for m in range(M + 1)]
    p = [gamma[m - 1] / t[m - 1] for m in range(1, M + 1)]
    n_lo = [(1 - epsilon) ** (m + 1) * N / math.e**m for m in range(M + 1)]
    n_hi = [(1 + epsilon) ** (m + 1) * N / math.e**m for m in range(M + 1)]
    return Schedule(
        N=N,
        T=float(T),
        k=k,
        strict=strict,
        epsilon=epsilon,
        beta=beta,
        M0=logT,
        M=M,
        alpha=alpha,
        gamma=gamma,
        t=t,
        p=p,
        n_lo=n_lo,
        n_hi=n_hi,
        warnings=warnings,
    )


REFERENCE_KINDS = ("spencer", "loglog", "log", "main")


def reference_bound(n: float, d_or_t: float, k: int, which: str) -> float:
    """Closed-form independence-number reference values.

    which = "spencer":  (1 - 1/k) * n / d^(1/(k-1))        (d = average degree)
    which = "loglog":   (n/d * log log(n/d))^(1/(k-1))     (needs log(n/d) > 1)
    which = "log":      (n/d * log(n/d))^(1/(k-1))         (needs n/d > 1)
    which = "main":     (n/T) * (log T)^(1/(k-1))          (needs T > 1)

    Raises
    ------
    OutOfDomain : the formula is evaluated outside its domain
    InvalidArguments : unknown kind, k not an integer of at least 2, n not
        a finite real above 0, or d_or_t not a finite real
    """
    kind = which.lower() if isinstance(which, str) else which
    if kind not in REFERENCE_KINDS:
        raise InvalidArguments(f"unknown reference kind {which!r}; choose from {REFERENCE_KINDS}")
    check_integer("k", k, least=2)
    check_real("n", n, above=0)
    check_real("d_or_t", d_or_t)
    root = 1.0 / (k - 1)
    if kind == "spencer":
        if d_or_t <= 0:
            raise OutOfDomain("spencer bound needs average degree d > 0")
        return (1.0 - 1.0 / k) * n / d_or_t**root
    if kind == "main":
        if d_or_t <= 1:
            raise OutOfDomain("main bound needs T > 1")
        return (n / d_or_t) * math.log(d_or_t) ** root
    if d_or_t <= 0:
        raise OutOfDomain("ratio n/d needs d > 0")
    ratio = n / d_or_t
    if kind == "log":
        if ratio <= 1:
            raise OutOfDomain(f"log bound needs n/d > 1, got {ratio:g}")
        return (ratio * math.log(ratio)) ** root
    # loglog
    if ratio <= math.e or math.log(ratio) <= 1:
        raise OutOfDomain(f"loglog bound needs log(n/d) > 1, got n/d = {ratio:g}")
    return (ratio * math.log(math.log(ratio))) ** root
