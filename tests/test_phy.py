import numpy as np
import pytest

from pilotadapt.channel import ChannelRealization, PilotSpacing
from pilotadapt.core import SystemConfig
from pilotadapt.errors import DegenerateChannelError
from pilotadapt.patterns import build_pattern
from pilotadapt.phy import downlink_sinr, mrc_combiner, mrt_precoder, uplink_sinr
from pilotadapt.scheduling import ScheduleAssignment, evaluate_schedule

from conftest import random_channels, rb_rate, tiny_numerology
from oracles import oracle_rb_rate


def _cfg(m, sigma2=1.0, n_rbs=1, mux=4):
    return SystemConfig(
        num_rbs=n_rbs, num_antennas=m, max_mux=mux,
        ul_power=1.0, dl_power=1.0, noise_power=sigma2,
    )


def test_uplink_sinr_hand_example():
    # h = [1, 1]: |w^H h|^2 = 4, noise 2*2 = 4 -> SINR = 1
    cfg = _cfg(2, sigma2=2.0)
    assert uplink_sinr([np.array([1.0, 1.0])], 0, [1.0], cfg) == pytest.approx(1.0)


def test_uplink_sinr_single_user_closed_form():
    rng = np.random.default_rng(0)
    cfg = _cfg(4, sigma2=0.7)
    h = random_channels(rng, 4)
    expected = np.linalg.norm(h) ** 2 / 0.7
    assert uplink_sinr([h], 0, [1.0], cfg) == pytest.approx(expected)


def test_uplink_orthogonal_interferer_is_free():
    cfg = _cfg(2, sigma2=1.0)
    h1, h2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert uplink_sinr([h1, h2], 0, [1.0, 1.0], cfg) == pytest.approx(
        uplink_sinr([h1], 0, [1.0], cfg)
    )


def test_downlink_sinr_hand_example():
    # M = 2, h = [1, i]: |w^H h|^2 = 8, denominator 4 -> SINR = 2
    cfg = _cfg(2, sigma2=1.0)
    assert downlink_sinr([np.array([1.0, 1.0j])], 0, [1.0], cfg) == pytest.approx(2.0)


def test_downlink_single_user_closed_form():
    rng = np.random.default_rng(1)
    cfg = _cfg(8, sigma2=0.3)
    h = random_channels(rng, 8)
    expected = np.linalg.norm(h) ** 2 / 0.3
    assert downlink_sinr([h], 0, [1.0], cfg) == pytest.approx(expected)


def test_downlink_orthogonal_interferer_is_free():
    cfg = _cfg(2, sigma2=1.0)
    h1, h2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert downlink_sinr([h1, h2], 0, [1.0, 1.0], cfg) == pytest.approx(
        downlink_sinr([h1], 0, [1.0], cfg)
    )


def test_beamformer_conventions():
    rng = np.random.default_rng(2)
    h = random_channels(rng, 16)
    assert np.array_equal(mrc_combiner(h), h)
    w = mrt_precoder(h, 16)
    assert np.linalg.norm(w) == pytest.approx(16.0)
    with pytest.raises(DegenerateChannelError):
        mrt_precoder(np.zeros(4, dtype=complex), 4)


def test_uplink_scale_invariance():
    # rescaling the combiner by any nonzero complex scalar leaves SINR unchanged
    rng = np.random.default_rng(3)
    cfg = _cfg(4, sigma2=0.5)
    h = [random_channels(rng, 4) for _ in range(3)]
    base = uplink_sinr(h, 1, [1.0, 0.8, 1.3], cfg)
    for scale in (2.0, -0.5, 1.7j, 0.3 - 0.9j):
        scaled = uplink_sinr(h, 1, [1.0, 0.8, 1.3], cfg, w=scale * h[1])
        assert scaled == pytest.approx(base, rel=1e-12)


def test_added_interferer_never_helps():
    rng = np.random.default_rng(4)
    cfg = _cfg(6, sigma2=0.2)
    for _ in range(20):
        h = [random_channels(rng, 6) for _ in range(3)]
        eta = list(rng.uniform(0.5, 2.0, 3))
        for direction, fn in (("ul", uplink_sinr), ("dl", downlink_sinr)):
            two = fn(h[:2], 0, eta[:2], cfg)
            three = fn(h, 0, eta, cfg)
            assert three <= two + 1e-12


def _realization_from_array(h, n_s, n_sc):
    num = tiny_numerology(n_s, n_sc)
    return ChannelRealization.from_channels(h, num)


def test_rb_rate_unit_sinr_cases():
    # one user, |h| = 1 on a single antenna, eta*P = sigma2 -> SINR = 1 everywhere
    n_s, n_sc = 2, 2
    h = np.ones((1, 1, n_s, n_sc, 1), dtype=complex)
    real = _realization_from_array(h, n_s, n_sc)
    cfg = _cfg(1, sigma2=1.0)
    assert rb_rate(real, 0, [0], None, cfg, "uplink") == pytest.approx(1.0)
    # a pattern covering half the REs halves the rate
    num = tiny_numerology(n_s, n_sc)
    half = build_pattern(PilotSpacing(2, 1), num, 1)
    assert half.size == n_s * n_sc // 2
    assert rb_rate(real, 0, [0], half, cfg, "uplink") == pytest.approx(0.5)


def test_rb_rate_matches_straight_line_oracle():
    rng = np.random.default_rng(5)
    for direction in ("uplink", "downlink"):
        for _ in range(5):
            m, u, n_s, n_sc = 4, 3, 3, 4
            h = random_channels(rng, u, 1, n_s, n_sc, m)
            eta = rng.uniform(0.5, 2.0, u)
            real = _realization_from_array(h, n_s, n_sc)
            cfg = _cfg(m, sigma2=0.4, mux=4)
            num = tiny_numerology(n_s, n_sc)
            pat = build_pattern(PilotSpacing(3, 2), num, 1)
            got = rb_rate(real, 0, [0, 1, 2], pat, cfg, direction, fadings=eta)
            want = oracle_rb_rate(
                h[:, 0].tolist(), list(eta), pat.positions, 1.0, 0.4, direction
            )
            assert got == pytest.approx(want, rel=1e-12)


def test_rb_rate_overhead_monotonicity():
    rng = np.random.default_rng(6)
    m, u, n_s, n_sc = 4, 2, 4, 4
    h = random_channels(rng, u, 1, n_s, n_sc, m)
    real = _realization_from_array(h, n_s, n_sc)
    cfg = _cfg(m, sigma2=0.5)
    num = tiny_numerology(n_s, n_sc)
    small = build_pattern(PilotSpacing(4, 4), num, 1)
    big = build_pattern(PilotSpacing(2, 2), num, 1)
    assert big.size > small.size
    r_small = rb_rate(real, 0, [0, 1], small, cfg, "uplink")
    r_big = rb_rate(real, 0, [0, 1], big, cfg, "uplink")
    r_none = rb_rate(real, 0, [0, 1], None, cfg, "uplink")
    assert r_none > r_small > r_big


def test_rb_rate_rejects_overloaded_set():
    rng = np.random.default_rng(7)
    h = random_channels(rng, 3, 1, 2, 2, 2)
    real = _realization_from_array(h, 2, 2)
    cfg = _cfg(2, mux=2)
    overfull = ScheduleAssignment(
        rb_users=((0, 1, 2),), rb_patterns=(None,), rb_groups=(None,), mode="conventional"
    )
    with pytest.raises(ValueError):
        evaluate_schedule(real, overfull, cfg, "uplink")


def test_degenerate_channel_raises():
    cfg = _cfg(2)
    with pytest.raises(DegenerateChannelError):
        uplink_sinr([np.zeros(2, dtype=complex)], 0, [1.0], cfg)
    with pytest.raises(DegenerateChannelError):
        downlink_sinr([np.zeros(2, dtype=complex)], 0, [1.0], cfg)
