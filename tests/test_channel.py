import numpy as np
import pytest
from scipy.special import j0

from pilotadapt.channel import (
    ChannelProfile,
    PilotSpacing,
    builtin_profiles,
    generate_realization,
    max_spacing,
)
from pilotadapt.core import FadingSpec, Numerology, SystemConfig, build_population
from pilotadapt.errors import ConfigurationError, UnsupportableProfileError


def test_max_spacing_etu300(num):
    sp = max_spacing(ChannelProfile("ETU300", 300.0, 4.69e-6), num)
    assert (sp.time_spacing_symbols, sp.freq_spacing_subcarriers) == (11, 3)


def test_max_spacing_epa5_clamps_to_grid(num):
    sp = max_spacing(ChannelProfile("EPA5", 5.0, 0.41e-6), num)
    assert (sp.time_spacing_symbols, sp.freq_spacing_subcarriers) == (14, 12)
    # the unclamped floors are visible on a grid large enough not to clamp
    wide = Numerology(num.symbol_duration_s, num.subcarrier_spacing_hz, 1000, 100)
    sp = max_spacing(ChannelProfile("EPA5", 5.0, 0.41e-6), wide)
    assert (sp.time_spacing_symbols, sp.freq_spacing_subcarriers) == (700, 40)


def test_max_spacing_unit_boundary(num):
    f = 1.0 / (4.0 * num.symbol_duration_s)
    tau = 1.0 / (4.0 * num.subcarrier_spacing_hz)
    sp = max_spacing(ChannelProfile("edge", f, tau), num)
    assert (sp.time_spacing_symbols, sp.freq_spacing_subcarriers) == (1, 1)


def test_max_spacing_unsupportable(num):
    with pytest.raises(UnsupportableProfileError):
        max_spacing(ChannelProfile("too-fast", 1.0 / (2.0 * num.symbol_duration_s), 1e-9), num)


def test_max_spacing_antitone(num):
    rng = np.random.default_rng(4)
    for _ in range(100):
        f = rng.uniform(5.0, 800.0)
        tau = rng.uniform(0.05e-6, 4.69e-6)
        base = max_spacing(ChannelProfile("a", f, tau), num)
        worse = max_spacing(ChannelProfile("b", f * rng.uniform(1.0, 3.0), tau), num)
        assert worse.time_spacing_symbols <= base.time_spacing_symbols
        worse = max_spacing(ChannelProfile("c", f, tau * rng.uniform(1.0, 3.0)), num)
        assert worse.freq_spacing_subcarriers <= base.freq_spacing_subcarriers


def test_builtin_profiles_table(num):
    profs = builtin_profiles()
    assert [p.name for p in profs] == ["EPA5", "EVA70", "ETU70", "ETU300"]
    assert profs[0].max_doppler_hz == 5.0
    assert profs[0].max_delay_spread_s == 0.41e-6
    assert profs[3].max_doppler_hz == 300.0
    assert profs[3].max_delay_spread_s == 4.69e-6
    assert max(p.max_delay_spread_s for p in profs) == 4.69e-6
    assert max(p.max_doppler_hz for p in profs) == 300.0


def test_profile_validations():
    with pytest.raises(ConfigurationError):
        ChannelProfile("bad", -1.0, 1e-6)
    with pytest.raises(ConfigurationError):
        ChannelProfile("bad", 10.0, 1e-6, taps=((0.0, 0.4), (1e-6, 0.4)))  # sums to 0.8
    with pytest.raises(ConfigurationError):
        ChannelProfile("bad", 10.0, 1e-6, taps=((2e-6, 1.0),))  # delay beyond spread


def test_default_bracket_pdp():
    prof = ChannelProfile("x", 70.0, 2.51e-6)
    assert prof.taps == ((0.0, 0.5), (2.51e-6, 0.5))


def _one_user_realization(profile, cfg, seed):
    pop = build_population([1], FadingSpec(), seed=0)
    return generate_realization(pop, [profile], cfg, seed=seed)


def test_static_flat_channel_constant(num):
    prof = ChannelProfile("static-flat", 1e-9, 1e-12, taps=((0.0, 1.0),))
    cfg = SystemConfig(num_rbs=1, num_antennas=3, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=1.0)
    real = _one_user_realization(prof, cfg, seed=5)
    h = real.h[0, 0]  # (T, N, M)
    assert np.allclose(h, h[0, 0][None, None, :], atol=1e-9)


def test_realization_seed_determinism(num, profiles):
    pop = build_population([2, 2, 2, 2], FadingSpec(), seed=1)
    cfg = SystemConfig(num_rbs=2, num_antennas=4, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=1.0)
    a = generate_realization(pop, profiles, cfg, seed=9)
    b = generate_realization(pop, profiles, cfg, seed=9)
    assert np.array_equal(a.h, b.h)
    c = generate_realization(pop, profiles, cfg, seed=10)
    assert not np.array_equal(a.h, c.h)


def test_time_autocorrelation_matches_bessel(num):
    # lag-1 autocorrelation over 10^4 independent series
    prof = ChannelProfile("ETU300", 300.0, 4.69e-6)
    cfg = SystemConfig(num_rbs=100, num_antennas=100, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=1.0)
    real = _one_user_realization(prof, cfg, seed=2)
    x = real.h[0, :, :, 0, :]  # (rb, t, m) at one subcarrier
    emp = np.mean(x[:, :-1, :].conj() * x[:, 1:, :]) / np.mean(np.abs(x) ** 2)
    theo = j0(2 * np.pi * prof.max_doppler_hz * num.symbol_duration_s)
    assert abs(emp.real - theo) < 0.05
    assert abs(emp.imag) < 0.05


def test_frequency_correlation_matches_pdp_transform(num):
    prof = ChannelProfile("ETU300", 300.0, 4.69e-6)
    cfg = SystemConfig(num_rbs=100, num_antennas=100, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=1.0)
    real = _one_user_realization(prof, cfg, seed=8)
    y = real.h[0, :, 0, :, :]  # (rb, n, m) at one symbol
    dn = 3
    emp = np.mean(y[:, dn:, :] * y[:, :-dn, :].conj()) / np.mean(np.abs(y) ** 2)
    theo = np.sum(
        prof.tap_powers()
        * np.exp(-2j * np.pi * dn * num.subcarrier_spacing_hz * prof.tap_delays())
    )
    assert abs(emp - theo) < 0.05


def test_unit_power_and_zero_mean(num):
    prof = ChannelProfile("EVA70", 70.0, 2.51e-6)
    cfg = SystemConfig(num_rbs=50, num_antennas=50, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=1.0)
    real = _one_user_realization(prof, cfg, seed=13)
    h = real.h[0]
    n = h.size
    # |h|^2 has unit mean and ~unit std; means within 3 standard errors
    assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 3.0 / np.sqrt(n / 168)  # REs correlated within an RB
    assert abs(np.mean(h)) < 0.05


def test_doppler_band_limitation(num):
    # periodogram energy of a long series concentrates inside [-f, f]
    from pilotadapt.channel import generate_single_grid

    prof = ChannelProfile("ETU300", 300.0, 4.69e-6)
    n_t = 4096
    rng = np.random.default_rng(21)
    series = generate_single_grid(prof, n_t, 1, num, rng)[:, 0, 0]
    spec = np.abs(np.fft.fft(series)) ** 2
    freqs = np.fft.fftfreq(n_t, d=num.symbol_duration_s)
    margin = 10.0 / (n_t * num.symbol_duration_s)  # leakage allowance
    inside = np.abs(freqs) <= prof.max_doppler_hz + margin
    assert spec[inside].sum() / spec.sum() > 0.99


def test_realization_immutable(num, profiles):
    pop = build_population([1, 1, 1, 1], FadingSpec(), seed=0)
    cfg = SystemConfig(num_rbs=1, num_antennas=2, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=1.0)
    real = generate_realization(pop, profiles, cfg, seed=0)
    with pytest.raises(ValueError):
        real.h[0, 0, 0, 0, 0] = 0.0


def test_gram_matches_direct_inner_products(num, profiles):
    pop = build_population([2, 1, 1, 1], FadingSpec(), seed=0)
    cfg = SystemConfig(num_rbs=2, num_antennas=5, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=1.0)
    real = generate_realization(pop, profiles, cfg, seed=3)
    for rb in range(cfg.num_rbs):
        cross, norms = real.gram(rb)
        h = real.h[:, rb]  # (K, T, N, M)
        inner = np.einsum("ktnm,jtnm->kjtn", h.conj(), h)
        assert np.allclose(cross, np.abs(inner) ** 2, rtol=1e-12, atol=0.0)
        assert np.allclose(norms, np.sum(np.abs(h) ** 2, axis=-1), rtol=1e-12, atol=0.0)
        assert real.gram(rb)[0] is cross  # cached, not rebuilt
        with pytest.raises(ValueError):
            cross[0, 0, 0, 0] = 0.0
    assert "_grams" not in repr(real)
