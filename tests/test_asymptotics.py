import math

import numpy as np
import pytest

from pilotadapt.asymptotics import deterministic_sinr, gain_bound, sinr_bar
from pilotadapt.core import FadingSpec, Numerology, SystemConfig
from pilotadapt.errors import ConfigurationError


def _cfg(m=100, u=10, power=1.0, noise=1.0, **kwargs):
    return SystemConfig(
        num_rbs=1, num_antennas=m, max_mux=u,
        ul_power=power, dl_power=power, noise_power=noise, **kwargs,
    )


def test_deterministic_sinr_hand_example():
    # P = 1, sigma2 = 1, M = 100, U = 10, eta = 1 -> 1/(0.01 + 0.1)
    got = deterministic_sinr(_cfg(), "uplink", 1.0, 1.0)
    assert got == pytest.approx(1.0 / 0.11)


def test_deterministic_sinr_directions_agree_at_equal_eta():
    ul = deterministic_sinr(_cfg(), "uplink", 1.0, 1.0)
    dl = deterministic_sinr(_cfg(), "downlink", 1.0, 1.0)
    assert ul == pytest.approx(dl)


def test_deterministic_sinr_noise_free_limit():
    cfg = _cfg(m=50, noise=1e-300)
    assert deterministic_sinr(cfg, "uplink", 1.0, 1.0) == pytest.approx(5.0)


def test_sinr_bar_point_mass_identity():
    det = deterministic_sinr(_cfg(), "uplink", 1.0, 1.0)
    bar = sinr_bar(_cfg(), "uplink", FadingSpec(kind="constant", value=1.0))
    assert abs(bar - det) < 1e-12


def test_sinr_bar_two_point_fading():
    # straight-line evaluation of the exponential-of-expected-log form
    spec = FadingSpec(kind="explicit", values=(0.5, 2.0))
    eta_bar = 1.25
    den = 1.0 / 100 + (10 / 100) * eta_bar
    expect_log = 0.5 * (math.log2(1.0 + 0.5 / den) + math.log2(1.0 + 2.0 / den))
    want = 2.0**expect_log - 1.0
    assert sinr_bar(_cfg(), "uplink", spec) == pytest.approx(want, rel=1e-12)


def test_sinr_bar_jensen_direction():
    spec = FadingSpec(kind="explicit", values=(0.25, 0.5, 1.0, 2.5))
    bar = sinr_bar(_cfg(), "uplink", spec)
    mean_det = np.mean(
        [deterministic_sinr(_cfg(), "uplink", e, spec.mean()) for e in spec.values]
    )
    assert bar <= mean_det


def test_gain_bound_examples():
    assert gain_bound([0.25] * 4, [0.1] * 4) == pytest.approx(0.0)
    got = gain_bound([0.25] * 4, [1 / 24, 1 / 12, 1 / 6, 1 / 3])
    assert got == pytest.approx(0.265625, rel=1e-12)
    assert gain_bound([1.0, 0.0], [0.05, 0.3]) == pytest.approx(
        (1.0 * 0.95 + 0.0) / 0.7 - 1.0
    )
    assert gain_bound([1.0], [0.2]) == pytest.approx(0.0)


def test_gain_bound_monotone_in_max_overhead():
    rhos = [0.05, 0.1, 0.2, 0.25]
    base = gain_bound([0.25] * 4, rhos)
    higher = gain_bound([0.25] * 4, [0.05, 0.1, 0.2, 0.35])
    assert higher > base


def test_gain_bound_nonnegative_randomized():
    rng = np.random.default_rng(17)
    for _ in range(200):
        g = rng.dirichlet(np.ones(4))
        rho = rng.uniform(0.0, 0.9, 4)
        assert gain_bound(g, rho) >= -1e-12


def test_model_validations():
    """The limits refuse U >= M, U >= REs per RB and fractions off 1."""
    with pytest.raises(ConfigurationError, match="U = 64, M = 64 and 168 REs"):
        deterministic_sinr(_cfg(m=64, u=64), "uplink", 1.0, 1.0)
    with pytest.raises(ConfigurationError, match="U = 8, M = 2"):
        sinr_bar(_cfg(m=2, u=8), "downlink", FadingSpec(kind="lognormal", spread_db=3.0))
    small_rb = Numerology(1e-3 / 14, 15e3, 2, 2)
    with pytest.raises(ConfigurationError, match="U = 4, M = 64 and 4 REs"):
        deterministic_sinr(_cfg(m=64, u=4, numerology=small_rb), "uplink", 1.0, 1.0)
    with pytest.raises(ConfigurationError, match="sum to 1"):
        gain_bound((0.5, 0.2), (0.1, 0.2))
    with pytest.raises(ConfigurationError, match="direction"):
        deterministic_sinr(_cfg(), "sideways", 1.0, 1.0)


def test_model_from_system():
    """M, U, each direction's power and the noise all come from the
    SystemConfig; test_model_validations checks its REs per RB."""
    cfg = SystemConfig(
        num_rbs=4, num_antennas=64, max_mux=4,
        ul_power=1.0, dl_power=2.0, noise_power=0.1,
    )
    dl = deterministic_sinr(cfg, "downlink", 1.0, 1.0)
    assert dl == 2.0 / (0.1 / 64 + (4 / 64) * 1.0 * 2.0)
    ul = deterministic_sinr(cfg, "uplink", 1.0, 1.0)
    assert ul == 1.0 / (0.1 / 64 + (4 / 64) * 1.0 * 1.0)
    assert sinr_bar(cfg, "downlink", FadingSpec()) == pytest.approx(dl, rel=1e-12)


def test_mrc_sinr_approaches_deterministic_equivalent():
    """Mean uplink SINR (dB scale) closes in on the closed form as M grows."""
    from conftest import kernel_sinr, random_channels

    u, sigma2, n_re = 8, 0.1, 300
    rng = np.random.default_rng(77)
    errs = []
    for m in (32, 64, 128):
        cfg = SystemConfig(
            num_rbs=1, num_antennas=m, max_mux=u,
            ul_power=1.0, dl_power=1.0, noise_power=sigma2,
        )
        h = random_channels(rng, n_re, u, m)
        samples = kernel_sinr(h, [1.0] * u, cfg, "uplink")
        det_db = 10.0 * np.log10(deterministic_sinr(cfg, "uplink", 1.0, 1.0))
        mean_db = np.mean(10.0 * np.log10(samples))
        errs.append(abs(mean_db - det_db) / abs(det_db))
    assert errs[0] > errs[1] > errs[2]
