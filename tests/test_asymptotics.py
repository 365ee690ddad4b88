import math

import numpy as np
import pytest

from pilotadapt.asymptotics import (
    AsymptoticModel,
    asymptotic_rates,
    deterministic_sinr,
    gain_bound,
    sinr_bar,
)
from pilotadapt.core import FadingSpec
from pilotadapt.errors import ConfigurationError


def _model(direction="uplink", fading=None, power=1.0, noise=1.0, gammas=(1.0,)):
    return AsymptoticModel(
        alpha=0.1,
        beta=0.05,
        gammas=gammas,
        fading=fading or FadingSpec(),
        direction=direction,
        power=power,
        noise_power=noise,
    )


def test_deterministic_sinr_hand_example():
    # P = 1, sigma2 = 1, M = 100, U = 10, eta = 1 -> 1/(0.01 + 0.1)
    model = _model()
    got = deterministic_sinr(model, 1.0, 1.0, 100, 10)
    assert got == pytest.approx(1.0 / 0.11)


def test_deterministic_sinr_directions_agree_at_equal_eta():
    ul = deterministic_sinr(_model("uplink"), 1.0, 1.0, 100, 10)
    dl = deterministic_sinr(_model("downlink"), 1.0, 1.0, 100, 10)
    assert ul == pytest.approx(dl)


def test_deterministic_sinr_noise_free_limit():
    model = _model(noise=1e-300)
    assert deterministic_sinr(model, 1.0, 1.0, 50, 10) == pytest.approx(5.0)


def test_sinr_bar_point_mass_identity():
    model = _model(fading=FadingSpec(kind="constant", value=1.0))
    det = deterministic_sinr(model, 1.0, 1.0, 100, 10)
    assert abs(sinr_bar(model, 100, 10) - det) < 1e-12


def test_sinr_bar_two_point_fading():
    # straight-line evaluation of the exponential-of-expected-log form
    spec = FadingSpec(kind="explicit", values=(0.5, 2.0))
    model = _model(fading=spec)
    eta_bar = 1.25
    den = 1.0 / 100 + (10 / 100) * eta_bar
    expect_log = 0.5 * (math.log2(1.0 + 0.5 / den) + math.log2(1.0 + 2.0 / den))
    want = 2.0**expect_log - 1.0
    assert sinr_bar(model, 100, 10) == pytest.approx(want, rel=1e-12)


def test_sinr_bar_jensen_direction():
    spec = FadingSpec(kind="explicit", values=(0.25, 0.5, 1.0, 2.5))
    model = _model(fading=spec)
    bar = sinr_bar(model, 100, 10)
    mean_det = np.mean(
        [deterministic_sinr(model, e, spec.mean(), 100, 10) for e in spec.values]
    )
    assert bar <= mean_det


def test_asymptotic_rates_single_group_equal():
    model = _model(gammas=(1.0,))
    grp, conv = asymptotic_rates(model, [32], 168, 64, 4)
    assert grp == pytest.approx(conv)


def test_asymptotic_rates_straight_line_oracle():
    gammas = (0.25, 0.25, 0.25, 0.25)
    model = _model(gammas=gammas)
    sizes = [4, 8, 16, 32]
    n_re = 168
    m, u = 64, 4
    grp, conv = asymptotic_rates(model, sizes, n_re, m, u)
    log_term = math.log2(1.0 + sinr_bar(model, m, u))
    want_grp = sum(0.25 * (1.0 - s / n_re) for s in sizes) * log_term
    want_conv = (1.0 - 32 / n_re) * log_term
    assert grp == pytest.approx(want_grp, rel=1e-12)
    assert conv == pytest.approx(want_conv, rel=1e-12)
    assert grp >= conv


def test_asymptotic_rates_vanish_with_sinr():
    model = _model(noise=1e12)  # sinr_bar ~ 0
    grp, conv = asymptotic_rates(model, [4], 168, 64, 4)
    assert grp == pytest.approx(0.0, abs=1e-9)
    assert conv == pytest.approx(0.0, abs=1e-9)


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
    with pytest.raises(ConfigurationError):
        AsymptoticModel(1.5, 0.1, (1.0,), FadingSpec(), "uplink", 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        AsymptoticModel(0.1, 0.1, (0.5, 0.2), FadingSpec(), "uplink", 1.0, 1.0)


def test_model_from_system():
    from pilotadapt.core import SystemConfig

    cfg = SystemConfig(
        num_rbs=4, num_antennas=64, max_mux=4,
        ul_power=1.0, dl_power=2.0, noise_power=0.1,
    )
    model = AsymptoticModel.from_system(cfg, (0.25,) * 4, FadingSpec(), "downlink")
    assert model.alpha == pytest.approx(4 / 64)
    assert model.beta == pytest.approx(4 / 168)
    assert model.power == 2.0
    assert model.noise_power == 0.1


def test_mrc_sinr_approaches_deterministic_equivalent():
    """Mean uplink SINR (dB scale) closes in on the closed form as M grows."""
    from pilotadapt.core import SystemConfig

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
        model = _model(noise=sigma2)
        det_db = 10.0 * np.log10(deterministic_sinr(model, 1.0, 1.0, m, u))
        mean_db = np.mean(10.0 * np.log10(samples))
        errs.append(abs(mean_db - det_db) / abs(det_db))
    assert errs[0] > errs[1] > errs[2]
