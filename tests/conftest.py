from dataclasses import astuple, replace

import numpy as np
import pytest

from pilotadapt.cli import table_text
from pilotadapt.core import Numerology, SystemConfig, lte_numerology
from pilotadapt.experiments import CSV_HEADER
from pilotadapt.patterns import PilotPattern, PilotSpacing, builtin_profiles
from pilotadapt.phy import pair_terms, subset_sinr
from pilotadapt.scheduling import RbRateCalculator

from oracles import StoredGrams, oracle_grams


@pytest.fixture(scope="session")
def num():
    return lte_numerology()


@pytest.fixture(scope="session")
def profiles():
    return builtin_profiles()


@pytest.fixture
def small_cfg():
    return SystemConfig(
        num_rbs=2, num_antennas=4, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1
    )


def rows_csv(rows) -> str:
    """Result rows as the CSV that `simulate` writes."""
    return table_text(CSV_HEADER.split(","), [astuple(r) for r in rows], "csv")


def tiny_numerology(n_s: int, n_sc: int) -> Numerology:
    """Small grid with the standard symbol/SC scales."""
    return Numerology(
        symbol_duration_s=1e-3 / 14,
        subcarrier_spacing_hz=15e3,
        symbols_per_rb=n_s,
        subcarriers_per_rb=n_sc,
    )


def no_pilots(num: Numerology, mux: int) -> PilotPattern:
    """A pattern with no pilot REs: every RE of the block carries data, for
    up to `mux` users."""
    n_s, n_sc = num.symbols_per_rb, num.subcarriers_per_rb
    return PilotPattern(PilotSpacing(n_s, n_sc), (), mux, n_s, n_sc)


def random_channels(rng: np.random.Generator, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def rb_rate(real, rb, users, pattern, direction):
    """Spectral efficiency of one RB's user set, with the realization's gains."""
    calc = RbRateCalculator(real, rb, pattern, direction)
    return float(calc.rates_for_subsets([users])[0])


def kernel_sinr(h, fadings, cfg, direction):
    """Per-RE SINRs (U, REs) of channels h (REs, U, M) through the pair-term
    kernel, with the REs laid out as the symbols of one subcarrier."""
    h = np.asarray(h)
    n_re, u = h.shape[:2]
    channels = h.transpose(1, 0, 2)[:, None, :, None, :]
    cfg = replace(cfg, numerology=tiny_numerology(n_re, 1))
    real = StoredGrams(oracle_grams(channels), cfg, fadings)
    data = np.ones((n_re, 1), dtype=bool)
    terms = pair_terms(*real.gram(0), real.gains, real.cfg, direction, data)
    return subset_sinr(terms, np.arange(u)[None])[0]
