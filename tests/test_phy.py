import itertools
from dataclasses import replace

import numpy as np
import pytest

from pilotadapt.core import SystemConfig
from pilotadapt.errors import DegenerateChannelError
from pilotadapt.patterns import PilotSpacing, build_pattern
from pilotadapt.phy import pair_terms, subset_sinr
from pilotadapt.scheduling import RbRateCalculator, ScheduleAssignment, evaluate_schedule

from conftest import kernel_sinr, no_pilots, random_channels, rb_rate, tiny_numerology
from oracles import (
    StoredGrams,
    oracle_downlink_sinr,
    oracle_grams,
    oracle_rb_rate,
    oracle_uplink_sinr,
)


def _cfg(m, sigma2=1.0, n_rbs=1, mux=4):
    return SystemConfig(
        num_rbs=n_rbs, num_antennas=m, max_mux=mux,
        ul_power=1.0, dl_power=1.0, noise_power=sigma2,
    )


def test_uplink_sinr_hand_example():
    # h = [1, 1]: |w^H h|^2 = 4, noise 2*2 = 4 -> SINR = 1
    cfg = _cfg(2, sigma2=2.0)
    assert kernel_sinr(np.array([[[1.0, 1.0]]]), [1.0], cfg, "uplink")[0, 0] == pytest.approx(1.0)


def test_uplink_sinr_single_user_closed_form():
    rng = np.random.default_rng(0)
    cfg = _cfg(4, sigma2=0.7)
    h = random_channels(rng, 4)
    expected = np.linalg.norm(h) ** 2 / 0.7
    assert kernel_sinr(h[None, None], [1.0], cfg, "uplink")[0, 0] == pytest.approx(expected)


def _orthogonal_interferer_is_free(direction):
    cfg = _cfg(2, sigma2=1.0)
    h1, h2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    pair = kernel_sinr(np.array([[h1, h2]]), [1.0, 1.0], cfg, direction)
    alone = kernel_sinr(np.array([[h1]]), [1.0], cfg, direction)
    assert pair[0, 0] == pytest.approx(alone[0, 0])


def test_uplink_orthogonal_interferer_is_free():
    _orthogonal_interferer_is_free("uplink")


def test_downlink_sinr_hand_example():
    # M = 2, h = [1, i]: |w^H h|^2 = 8, denominator 4 -> SINR = 2
    cfg = _cfg(2, sigma2=1.0)
    got = kernel_sinr(np.array([[[1.0, 1.0j]]]), [1.0], cfg, "downlink")[0, 0]
    assert got == pytest.approx(2.0)


def test_downlink_single_user_closed_form():
    rng = np.random.default_rng(1)
    cfg = _cfg(8, sigma2=0.3)
    h = random_channels(rng, 8)
    expected = np.linalg.norm(h) ** 2 / 0.3
    assert kernel_sinr(h[None, None], [1.0], cfg, "downlink")[0, 0] == pytest.approx(expected)


def test_downlink_orthogonal_interferer_is_free():
    _orthogonal_interferer_is_free("downlink")


def test_added_interferer_never_helps():
    rng = np.random.default_rng(4)
    cfg = _cfg(6, sigma2=0.2)
    for _ in range(20):
        h = np.array([[random_channels(rng, 6) for _ in range(3)]])
        eta = list(rng.uniform(0.5, 2.0, 3))
        for direction in ("uplink", "downlink"):
            two = kernel_sinr(h[:, :2], eta[:2], cfg, direction)[0, 0]
            three = kernel_sinr(h, eta, cfg, direction)[0, 0]
            assert three <= two + 1e-12


def test_pair_terms_match_per_re_oracles():
    """Every user's SINR on every RE equals the straight-line MRC/MRT
    formulas, for the full user set and for a batch of subsets."""
    rng = np.random.default_rng(8)
    m, u, n_s, n_sc = 5, 4, 3, 2
    cfg = SystemConfig(
        num_rbs=1, num_antennas=m, max_mux=u,
        ul_power=1.3, dl_power=0.7, noise_power=0.4,
    )
    subsets = np.array([[0, 1, 2, 3], [3, 1, 0, 2]])
    data = np.ones((n_s, n_sc), dtype=bool)
    for _ in range(5):
        h = random_channels(rng, u, 1, n_s, n_sc, m)
        eta = rng.uniform(0.3, 3.0, u)
        gram = _realization_from_array(h, n_s, n_sc, cfg, eta).gram(0)
        for direction in ("uplink", "downlink"):
            terms = pair_terms(*gram, eta, cfg, direction, data)
            got = subset_sinr(terms, subsets).reshape(len(subsets), u, n_s, n_sc)
            p = cfg.power(direction)
            for b, users in enumerate(subsets):
                for t in range(n_s):
                    for n in range(n_sc):
                        h_set = [h[j, 0, t, n] for j in users]
                        fad = list(eta[users])
                        for i in range(len(users)):
                            if direction == "uplink":
                                want = oracle_uplink_sinr(h_set, i, fad, p, 0.4)
                            else:
                                want = oracle_downlink_sinr(h_set, i, fad, p, 0.4, m)
                            assert got[b, i, t, n] == pytest.approx(want, rel=1e-12)


def test_subset_rates_match_per_re_oracles_on_data_res():
    """Under a pilot pattern, the calculator's rate of every subset of every
    size up to max_mux equals the per-RE oracles summed over the data REs."""
    rng = np.random.default_rng(10)
    m, u, n_s, n_sc, mux = 4, 5, 4, 3, 3
    cfg = SystemConfig(
        num_rbs=1, num_antennas=m, max_mux=mux,
        ul_power=1.3, dl_power=0.7, noise_power=0.4,
    )
    pat = build_pattern(PilotSpacing(2, 3), tiny_numerology(n_s, n_sc), mux)
    assert 0 < pat.size < n_s * n_sc
    for _ in range(3):
        h = random_channels(rng, u, 1, n_s, n_sc, m)
        eta = rng.uniform(0.3, 3.0, u)
        real = _realization_from_array(h, n_s, n_sc, cfg, eta)
        for direction in ("uplink", "downlink"):
            calc = RbRateCalculator(real, 0, pat, direction)
            p = cfg.power(direction)
            for size in range(1, mux + 1):
                subsets = np.array(list(itertools.combinations(range(u), size)))
                got = calc.rates_for_subsets(subsets)
                for rate, users in zip(got, subsets):
                    want = oracle_rb_rate(
                        h[users, 0].tolist(), list(eta[users]), pat.positions, p, 0.4,
                        direction,
                    )
                    assert rate == pytest.approx(want, rel=1e-12)


def _realization_from_array(h, n_s, n_sc, cfg, gains=None):
    """StoredGrams over h's Grams, under cfg on an n_s x n_sc grid; unit
    gains by default."""
    gains = np.ones(len(h)) if gains is None else gains
    return StoredGrams(oracle_grams(h), replace(cfg, numerology=tiny_numerology(n_s, n_sc)), gains)


def test_rb_rate_unit_sinr_cases():
    # one user, |h| = 1 on a single antenna, eta*P = sigma2 -> SINR = 1 everywhere
    n_s, n_sc = 2, 2
    h = np.ones((1, 1, n_s, n_sc, 1), dtype=complex)
    cfg = _cfg(1, sigma2=1.0)
    real = _realization_from_array(h, n_s, n_sc, cfg)
    assert rb_rate(real, 0, [0], no_pilots(real.cfg.numerology, 1), "uplink") == pytest.approx(1.0)
    # a pattern covering half the REs halves the rate
    num = tiny_numerology(n_s, n_sc)
    half = build_pattern(PilotSpacing(2, 1), num, 1)
    assert half.size == n_s * n_sc // 2
    assert rb_rate(real, 0, [0], half, "uplink") == pytest.approx(0.5)


def test_rb_rate_matches_straight_line_oracle():
    rng = np.random.default_rng(5)
    for direction in ("uplink", "downlink"):
        for _ in range(5):
            m, u, n_s, n_sc = 4, 3, 3, 4
            h = random_channels(rng, u, 1, n_s, n_sc, m)
            eta = rng.uniform(0.5, 2.0, u)
            cfg = _cfg(m, sigma2=0.4, mux=4)
            real = _realization_from_array(h, n_s, n_sc, cfg, eta)
            num = tiny_numerology(n_s, n_sc)
            pat = build_pattern(PilotSpacing(3, 2), num, u)
            got = rb_rate(real, 0, [0, 1, 2], pat, direction)
            want = oracle_rb_rate(
                h[:, 0].tolist(), list(eta), pat.positions, 1.0, 0.4, direction
            )
            assert got == pytest.approx(want, rel=1e-12)


def test_rb_rate_overhead_monotonicity():
    rng = np.random.default_rng(6)
    m, u, n_s, n_sc = 4, 2, 4, 4
    h = random_channels(rng, u, 1, n_s, n_sc, m)
    cfg = _cfg(m, sigma2=0.5)
    real = _realization_from_array(h, n_s, n_sc, cfg)
    num = tiny_numerology(n_s, n_sc)
    small = build_pattern(PilotSpacing(4, 4), num, u)
    big = build_pattern(PilotSpacing(2, 2), num, u)
    assert big.size > small.size
    r_small = rb_rate(real, 0, [0, 1], small, "uplink")
    r_big = rb_rate(real, 0, [0, 1], big, "uplink")
    r_none = rb_rate(real, 0, [0, 1], no_pilots(real.cfg.numerology, u), "uplink")
    assert r_none > r_small > r_big


def test_rb_rate_rejects_overloaded_set():
    rng = np.random.default_rng(7)
    h = random_channels(rng, 3, 1, 2, 2, 2)
    cfg = _cfg(2, mux=2)
    real = _realization_from_array(h, 2, 2, cfg)
    overfull = ScheduleAssignment(
        rb_users=((0, 1, 2),), rb_patterns=(no_pilots(real.cfg.numerology, 2),)
    )
    with pytest.raises(ValueError, match="3 users exceed the multiplexing cap 2"):
        evaluate_schedule(real, overfull, "uplink")


def test_degenerate_channel_raises():
    # user 1 has a zero channel on one RE of the RB
    rng = np.random.default_rng(9)
    h = random_channels(rng, 2, 1, 2, 2, 3)
    h[1, 0, 1, 0] = 0.0
    cfg = _cfg(3, mux=2)
    real = _realization_from_array(h, 2, 2, cfg)
    for direction in ("uplink", "downlink"):
        calc = RbRateCalculator(real, 0, no_pilots(real.cfg.numerology, 2), direction)
        assert calc.rates_for_subsets([[0]])[0] > 0.0
        with pytest.raises(DegenerateChannelError):
            calc.rates_for_subsets([[0, 1]])


def test_degenerate_channel_on_pilot_re_raises():
    """A zero channel on a pilot RE still makes the user unschedulable,
    although the rates read only the data REs."""
    rng = np.random.default_rng(11)
    n_s, n_sc = 2, 2
    pat = build_pattern(PilotSpacing(2, 2), tiny_numerology(n_s, n_sc), 2)
    t, n = pat.positions[0]
    h = random_channels(rng, 3, 1, n_s, n_sc, 3)
    h[1, 0, t, n] = 0.0
    cfg = _cfg(3, mux=2)
    real = _realization_from_array(h, n_s, n_sc, cfg)
    for direction in ("uplink", "downlink"):
        calc = RbRateCalculator(real, 0, pat, direction)
        assert np.all(calc.rates_for_subsets([[0], [2]]) > 0.0)
        assert calc.rates_for_subsets([[0, 2]])[0] > 0.0
        for users in ([1], [0, 1]):
            with pytest.raises(DegenerateChannelError):
                calc.rates_for_subsets([users])
