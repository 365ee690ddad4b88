import numpy as np
import pytest
from scipy.stats import binomtest

from pilotadapt.estimation import interpolation_nmse
from pilotadapt.patterns import ChannelProfile, PilotSpacing, builtin_profiles

# NMSE accepted at the rule-derived spacing: twice the measured ETU300 NMSE
# at its own maximum spacing (0.042, about -13.8 dB).
NMSE_THRESHOLD = 0.084


def test_static_flat_channel_zero_error(num):
    prof = ChannelProfile("static-flat", 1e-9, 1e-12, taps=((0.0, 1.0),))
    report = interpolation_nmse(prof, PilotSpacing(11, 3), num, trials=3, seed=0)
    assert report.nmse < 1e-20


def test_every_re_pilot_zero_error(num):
    prof = builtin_profiles()[3]
    report = interpolation_nmse(prof, PilotSpacing(1, 1), num, trials=2, seed=0)
    assert report.nmse == 0.0


def test_rule_spacing_meets_threshold(num):
    prof = builtin_profiles()[3]  # worst-case statistics
    report = interpolation_nmse(prof, PilotSpacing(11, 3), num, trials=60, seed=1)
    assert report.nmse < NMSE_THRESHOLD


def test_doubled_spacing_distinctly_worse(num):
    prof = builtin_profiles()[3]
    base = interpolation_nmse(prof, PilotSpacing(11, 3), num, trials=60, seed=9)
    doubled = interpolation_nmse(prof, PilotSpacing(22, 6), num, trials=60, seed=9)
    assert doubled.nmse_db - base.nmse_db >= 3.0


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
            a = interpolation_nmse(prof, tight, num, trials=1, seed=1000 + t)
            b = interpolation_nmse(prof, loose, num, trials=1, seed=1000 + t)
            wins += a.nmse < b.nmse
        assert binomtest(wins, trials, 0.5, alternative="greater").pvalue < 0.05


def test_nearest_neighbor_fallback_reported(num):
    prof = builtin_profiles()[0]
    # one anchor per axis on the 56 x 48 grid of 4 x 4 blocks
    report = interpolation_nmse(prof, PilotSpacing(56, 48), num, trials=2, seed=0)
    assert report.nearest_neighbor_axes == ("time", "frequency")


def test_spacing_beyond_grid_falls_back(num):
    # one anchor per axis: nearest-neighbor everywhere, reported in the output
    prof = builtin_profiles()[0]
    report = interpolation_nmse(prof, PilotSpacing(100, 3), num, trials=1, seed=0)
    assert "time" in report.nearest_neighbor_axes
    assert report.nmse >= 0.0


def test_report_db_value(num):
    prof = builtin_profiles()[3]
    report = interpolation_nmse(prof, PilotSpacing(11, 3), num, trials=10, seed=3)
    assert report.nmse_db == pytest.approx(10.0 * np.log10(report.nmse))
    assert report.trials == 10
