import math

import pytest

from hyperind.errors import InvalidArguments, OutOfDomain, OutOfRegime
from hyperind.schedule import REFERENCE_KINDS, build_schedule, reference_bound

E9 = math.exp(9.0)


def test_frozen_reference_schedule():
    # worked by hand: T = e^9, k = 4 gives eps = 1/9, beta = 9/10, M = 4,
    # alpha_0 = 9^(1/3), alpha_1 = 10^(1/3)
    s = build_schedule(1_000_000, E9, 4)
    assert s.M == 4
    assert s.epsilon == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert s.beta == pytest.approx(0.9, rel=1e-12)
    assert s.alpha[0] == pytest.approx(2.080084, abs=1e-6)
    assert s.alpha[1] == pytest.approx(2.154435, abs=1e-6)
    assert s.gamma_at(1) == pytest.approx(0.074351, abs=1e-6)
    assert s.p_at(1) == pytest.approx(s.gamma_at(1) / s.t[0], rel=1e-12)
    assert s.t[0] == pytest.approx(E9, rel=1e-12)
    assert s.t[2] == pytest.approx(E9 / math.e**2, rel=1e-12)


def test_alpha_increment_identity():
    for k in (3, 4, 6):
        for T in (math.exp(4), math.exp(9), math.exp(12)):
            s = build_schedule(10**6, T, k)
            for m in range(1, s.M + 1):
                inc = s.alpha[m] ** (k - 1) - s.alpha[m - 1] ** (k - 1)
                assert inc == pytest.approx(s.beta ** (m - 1), rel=1e-9)


def test_alpha_window_inequality():
    # log T <= alpha_m^(k-1) <= 1.5 log T along the whole schedule
    for k in range(3, 9):
        for j in range(3, 13):
            s = build_schedule(10**6, math.exp(j), k)
            for m in range(s.M + 1):
                v = s.alpha[m] ** (k - 1)
                assert s.M0 - 1e-9 <= v <= 1.5 * s.M0 + 1e-9


def test_gamma_window():
    for k in (3, 5, 8):
        s = build_schedule(10**6, math.exp(10), k)
        lo, hi = s.gamma_window()
        for m in range(1, s.M + 1):
            assert lo <= s.gamma_at(m) <= hi


def test_index_accessors_guard_range():
    s = build_schedule(1000, math.exp(6), 3)
    assert s.M == 3
    with pytest.raises(InvalidArguments):
        s.gamma_at(0)
    with pytest.raises(InvalidArguments):
        s.p_at(s.M + 1)
    with pytest.raises(InvalidArguments):
        s.vertex_cap(s.M + 1, 2)
    with pytest.raises(InvalidArguments):
        s.pair_cap(0, s.k + 1)


def test_caps_round_half_up():
    s = build_schedule(1000, math.exp(6), 3)
    # round 0 vertex cap for the top layer is t_0^2 with unit prefactors
    expect = math.floor((math.comb(2, 0) * s.alpha[0] ** 0 * s.t[0] ** 2) + 0.5)
    assert s.vertex_cap(0, 3) == expect
    expect2 = math.floor((2 * s.alpha[0] * s.t[0]) + 0.5)
    assert s.vertex_cap(0, 2) == expect2
    pair = math.floor(s.t[0] / math.log(s.t[0]) ** 4 + 0.5)
    assert s.pair_cap(0, 3) == pair


def test_windows_shrink_by_e():
    s = build_schedule(10**6, math.exp(8), 4)
    for m in range(s.M + 1):
        assert s.n_lo[m] == pytest.approx((1 - s.epsilon) ** (m + 1) * s.N / math.e**m, rel=1e-12)
        assert s.n_hi[m] == pytest.approx((1 + s.epsilon) ** (m + 1) * s.N / math.e**m, rel=1e-12)
        assert s.n_lo[m] < s.n_hi[m]


def test_strict_regime_gate():
    # (log N)^3 <= T <= N^(1/4k) needs astronomically large N; the window is
    # nonempty once log N reaches about 200 at k = 3
    N = math.exp(250)
    T = math.log(N) ** 3 * 1.5
    assert T <= N ** (1 / 12)
    s = build_schedule(int(N), T, 3, strict=True)
    assert s.warnings == []
    with pytest.raises(OutOfRegime):
        build_schedule(1000, 500.0, 3, strict=True)
    lax = build_schedule(1000, 500.0, 3, strict=False)
    assert len(lax.warnings) == 1


def test_build_schedule_argument_checks():
    with pytest.raises(InvalidArguments):
        build_schedule(0, 9.0, 3)
    with pytest.raises(InvalidArguments):
        build_schedule(10, 1.0, 3)
    with pytest.raises(InvalidArguments):
        build_schedule(10, 9.0, 1)
    for T in (math.inf, math.nan, -math.inf):
        with pytest.raises(InvalidArguments):
            build_schedule(10, T, 3)
    for N, T, k in ((True, 9.0, 3), (10.5, 9.0, 3), (10, 9.0, 2.5), (10, "5", 3), (10, True, 3)):
        with pytest.raises(InvalidArguments):
            build_schedule(N, T, k)


def test_to_dict_round_trips_fields():
    s = build_schedule(512, math.exp(5), 4)
    d = s.to_dict()
    assert d["M"] == s.M
    assert d["alpha"] == s.alpha
    assert d["gamma"] == s.gamma
    assert len(d["t"]) == s.M + 1


def test_reference_bounds_frozen_values():
    assert reference_bound(100, 4.0, 3, "spencer") == pytest.approx(100 * (2 / 3) / 2.0)
    assert reference_bound(1e6, E9, 4, "main") == pytest.approx(256.70, abs=0.01)
    assert reference_bound(100, 1.0, 3, "log") == pytest.approx(math.sqrt(100 * math.log(100)))
    v = reference_bound(1000, 1.0, 3, "loglog")
    assert v == pytest.approx(math.sqrt(1000 * math.log(math.log(1000))))


def test_reference_bounds_domain_errors():
    with pytest.raises(OutOfDomain):
        reference_bound(100, 0.0, 3, "spencer")
    with pytest.raises(OutOfDomain):
        reference_bound(100, 1.0, 3, "main")
    with pytest.raises(OutOfDomain):
        reference_bound(100, 100.0, 3, "log")
    with pytest.raises(OutOfDomain):
        # n/d = 2 < e sits outside the loglog domain
        reference_bound(100, 50.0, 3, "loglog")
    with pytest.raises(InvalidArguments):
        reference_bound(100, 2.0, 3, "unknown")
    assert set(REFERENCE_KINDS) == {"spencer", "loglog", "log", "main"}
