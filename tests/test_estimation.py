import math

import numpy as np
import pytest
from scipy.stats import binomtest

from pilotadapt.cli import main as cli_main
from pilotadapt.estimation import interpolation_nmse
from pilotadapt.patterns import ChannelProfile, PilotSpacing, builtin_profiles

from oracles import oracle_single_grid

# NMSE accepted at the rule-derived spacing: twice the measured ETU300 NMSE
# at its own maximum spacing (0.042, about -13.8 dB).
NMSE_THRESHOLD = 0.084


def _time_fallback_nmse(prof, num, freq_spacing, trials, seed):
    """NMSE of the estimate that one time anchor leaves: symbol 0 linearly
    interpolated over frequency from its anchors every `freq_spacing`
    subcarriers (its (0, 0) value everywhere when that leaves one anchor)
    and held over all symbols, on the grids `interpolation_nmse` draws."""
    n_t, n_f = 4 * num.symbols_per_rb, 4 * num.subcarriers_per_rb
    f_anchors = np.arange(0, n_f, freq_spacing)
    mask = np.ones((n_t, n_f), dtype=bool)
    mask[0, f_anchors] = False
    err = power = 0.0
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, t))))
        h = oracle_single_grid(prof, n_t, n_f, num, rng)[:, :, 0]
        row = h[0, f_anchors]
        est_row = np.interp(np.arange(n_f), f_anchors, row.real) + 1j * np.interp(
            np.arange(n_f), f_anchors, row.imag
        )
        est = np.broadcast_to(est_row, (n_t, n_f))
        err += np.sum(np.abs(est[mask] - h[mask]) ** 2)
        power += np.sum(np.abs(h[mask]) ** 2)
    return err / power


def test_static_flat_channel_zero_error(num):
    prof = ChannelProfile("static-flat", 1e-9, 1e-12, taps=((0.0, 1.0),))
    [nmse] = interpolation_nmse(prof, [PilotSpacing(11, 3)], num, trials=3, seed=0)
    assert nmse < 1e-20


def test_every_re_pilot_zero_error(num):
    prof = builtin_profiles()[3]
    [nmse] = interpolation_nmse(prof, [PilotSpacing(1, 1)], num, trials=2, seed=0)
    assert nmse == 0.0


def test_rule_spacing_meets_threshold(num):
    prof = builtin_profiles()[3]  # worst-case statistics
    [nmse] = interpolation_nmse(prof, [PilotSpacing(11, 3)], num, trials=60, seed=1)
    assert nmse < NMSE_THRESHOLD


def test_doubled_spacing_distinctly_worse(num):
    prof = builtin_profiles()[3]
    [base] = interpolation_nmse(prof, [PilotSpacing(11, 3)], num, trials=60, seed=9)
    [doubled] = interpolation_nmse(prof, [PilotSpacing(22, 6)], num, trials=60, seed=9)
    assert 10.0 * math.log10(doubled) - 10.0 * math.log10(base) >= 3.0


def test_monotone_in_each_spacing_axis(num):
    # paired seeds, sign test at 95%
    prof = builtin_profiles()[3]
    pairs = [
        (PilotSpacing(11, 3), PilotSpacing(22, 3)),
        (PilotSpacing(11, 3), PilotSpacing(11, 6)),
    ]
    trials = 60
    for tight, loose in pairs:
        wins = 0
        for t in range(trials):
            a, b = interpolation_nmse(prof, [tight, loose], num, trials=1, seed=1000 + t)
            wins += a < b
        assert binomtest(wins, trials, 0.5, alternative="greater").pvalue < 0.05


def test_nearest_neighbor_fallback_reported(num):
    prof = builtin_profiles()[0]
    # one anchor per axis on the 56 x 48 grid of 4 x 4 blocks: the estimate
    # is h[0, 0] everywhere
    [nmse] = interpolation_nmse(prof, [PilotSpacing(56, 48)], num, trials=2, seed=0)
    assert nmse == pytest.approx(_time_fallback_nmse(prof, num, 48, trials=2, seed=0), rel=1e-9)


def test_spacing_beyond_grid_falls_back(num):
    # one time anchor: symbol 0, interpolated over frequency, on every symbol
    prof = builtin_profiles()[0]
    [nmse] = interpolation_nmse(prof, [PilotSpacing(100, 3)], num, trials=1, seed=0)
    assert nmse == pytest.approx(_time_fallback_nmse(prof, num, 3, trials=1, seed=0), rel=1e-9)
    assert nmse >= 0.0


def test_report_db_value(num, capsys):
    prof = builtin_profiles()[3]
    assert cli_main(["validate-estimation", "--trials", "10", "--seed", "3"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "profile,spacing_t,spacing_f,nmse,nmse_db"
    for line in lines:
        nmse, nmse_db = map(float, line.split(",")[3:])
        assert nmse_db == pytest.approx(10.0 * np.log10(nmse))
    # the rule row of the last profile, ETU300, is that spacing's NMSE over 10 trials
    [nmse] = interpolation_nmse(prof, [PilotSpacing(11, 3)], num, trials=10, seed=3)
    assert lines[-2] == f"{prof.name},11,3,{nmse},{10.0 * math.log10(nmse)}"


def test_spacings_share_their_draws(num):
    """Rating two spacings in one call equals rating each alone: every trial
    draws its grid once, from the same seed, whatever the spacings."""
    a, b = PilotSpacing(11, 3), PilotSpacing(22, 6)
    for prof in builtin_profiles():
        both = interpolation_nmse(prof, [a, b], num, trials=4, seed=5)
        alone = interpolation_nmse(prof, [a], num, trials=4, seed=5)
        alone += interpolation_nmse(prof, [b], num, trials=4, seed=5)
        assert both == alone

