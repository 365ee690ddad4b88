"""Acceptance suite: one test per release criterion, printed as PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 4 (superiority over the exact-search baseline at M=64, U_mux=4) is
implemented exactly as stated and is expected to FAIL: a true per-realization
exact partition search exploits the RB-coherent interference of slow-fading
users and gains ~25% over random partitions at M=64, which outweighs the
grouping scheme's pilot-overhead advantage at U_mux=4 (~12%). The gap shrinks
as M grows (the crossover sits near M ~ 2000 at U_mux=4) and the superiority
claim does hold against the scalable greedy baseline at U_mux=7 (criterion 5,
measured +11% at M=64 rising to +13% at M=112, bounded by 26.6%).
"""

import math
from dataclasses import replace

import numpy as np
from scipy.special import j0
from scipy.stats import binomtest

from pilotadapt.asymptotics import deterministic_sinr, gain_bound
from pilotadapt.channel import generate_realization
from pilotadapt.config import ExperimentConfig
from pilotadapt.core import FadingSpec, SystemConfig, build_population, lte_numerology
from pilotadapt.errors import NoDataRoomError
from pilotadapt.estimation import interpolation_nmse
from pilotadapt.experiments import run_sweep
from pilotadapt.patterns import (
    ChannelProfile,
    PilotPattern,
    PilotSpacing,
    build_pattern,
    builtin_profiles,
    conventional_pattern,
    default_registry,
    max_spacing,
    select_pattern_for_group,
)
from pilotadapt.scheduling import (
    conventional_schedule_exact,
    conventional_schedule_greedy,
    evaluate_schedule,
    grouping_schedule,
)

from conftest import kernel_sinr, no_pilots, random_channels, rb_rate, rows_csv, tiny_numerology
from oracles import StoredGrams, draw_channels, oracle_grams, oracle_rb_rate
from test_scheduler import exhaustive_best, rated


def _report(criterion: int | str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------


def test_criterion_1_formula_fidelity():
    """The per-RB rate kernel matches a straight-line re-implementation."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        n_s = int(rng.integers(2, 7))
        n_sc = int(rng.integers(2, min(6, 24 // n_s) + 1))
        m = int(rng.integers(1, 9))
        u = int(rng.integers(1, 5))
        direction = "uplink" if i % 2 == 0 else "downlink"
        num = tiny_numerology(n_s, n_sc)
        h = random_channels(rng, u, 1, n_s, n_sc, m)
        eta = rng.uniform(0.5, 2.0, u)
        sigma2 = float(rng.uniform(0.05, 2.0))
        cfg = SystemConfig(
            num_rbs=1, num_antennas=m, max_mux=4,
            ul_power=1.0, dl_power=1.0, noise_power=sigma2, numerology=num,
        )
        real = StoredGrams(oracle_grams(h), cfg, eta)
        if i % 3 == 0:
            pattern = no_pilots(num, u)
        else:
            spacing = PilotSpacing(int(rng.integers(1, n_s + 1)), int(rng.integers(1, n_sc + 1)))
            try:
                # the single-layer positions, carrying the u users rated
                mask = build_pattern(spacing, num, 1)
                pattern = PilotPattern(mask.spacing, mask.positions, u, n_s, n_sc)
            except NoDataRoomError:
                pattern = no_pilots(num, u)
        got = rb_rate(real, 0, list(range(u)), pattern, direction)
        want = oracle_rb_rate(
            h[:, 0].tolist(), list(eta), pattern.positions, 1.0, sigma2, direction
        )
        if want != 0.0:
            worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-10
    _report(1, ok, f"max relative error vs straight-line oracle {worst:.3e} (<= 1e-10)")
    assert ok


def test_criterion_2_scheduler_exactness():
    """Subset DP equals brute-force partition enumeration on 50 instances."""
    profiles = builtin_profiles()
    worst = 0.0
    for seed in range(50):
        pop = build_population([2, 2, 2, 2], profiles, FadingSpec(), seed=seed)
        cfg = SystemConfig(
            num_rbs=2, num_antennas=4, max_mux=4,
            ul_power=1.0, dl_power=1.0, noise_power=0.1,
        )
        real = generate_realization(pop, cfg, seed=1000 + seed)
        pattern = conventional_pattern(default_registry(profiles, cfg.numerology, 4))
        direction = "uplink" if seed % 2 == 0 else "downlink"
        _, dp = rated(conventional_schedule_exact, real, pattern, direction)
        bf = exhaustive_best(real, pattern, direction)
        worst = max(worst, abs(dp - bf))
    ok = worst <= 1e-12
    _report(2, ok, f"max |DP - brute force| = {worst:.3e} over 50 instances (<= 1e-12)")
    assert ok


def test_criterion_3_deterministic_equivalent_convergence():
    """Mean per-RE SINR approaches the closed-form equivalent as M grows.

    The SINRs come from `phy.pair_terms` and `phy.subset_sinr`, the kernel
    behind every rate.
    SINRs are compared on the decibel scale (mean of 10*log10(SINR) against
    the closed form in dB): the mean of the linear SINR keeps an
    M-independent Jensen gap of ~30% from the U-user closed form at fixed
    U = 8, so the stated shrinking tolerances are checkable only in dB.
    """
    u, n_re = 8, 500
    sigma2 = 0.1  # eta * P / sigma2 = 10 dB with eta = P = 1
    errors = {}
    rng = np.random.default_rng(300)
    for m in (64, 256):
        cfg = SystemConfig(
            num_rbs=1, num_antennas=m, max_mux=u,
            ul_power=1.0, dl_power=1.0, noise_power=sigma2,
        )
        h = random_channels(rng, n_re, u, m)
        eta = [1.0] * u
        for direction in ("uplink", "downlink"):
            samples = kernel_sinr(h, eta, cfg, direction)
            det = deterministic_sinr(cfg, direction, 1.0, 1.0)
            mean_db = float(np.mean(10.0 * np.log10(samples)))
            det_db = 10.0 * math.log10(det)
            errors[(direction, m)] = abs(mean_db - det_db) / abs(det_db)
    ok = True
    detail = []
    for direction in ("uplink", "downlink"):
        e64, e256 = errors[(direction, 64)], errors[(direction, 256)]
        ok &= e64 <= 0.15 and e256 <= 0.08 and e256 < e64
        detail.append(f"{direction}: {e64:.3f}@M=64 (<=0.15), {e256:.3f}@M=256 (<=0.08)")
    _report(3, ok, "; ".join(detail))
    assert ok


def test_criterion_4_superiority_vs_exact_baseline():
    """Grouping vs the exact conventional baseline at M=64, U_mux=4.

    Faithful to the stated protocol; expected to FAIL (see module docstring):
    the exact baseline's partition-selection gain at M=64 exceeds the
    grouping overhead advantage at U_mux=4.
    """
    profiles = builtin_profiles()
    num = lte_numerology()
    pop = build_population([4, 4, 4, 4], profiles, FadingSpec(), seed=0)
    cfg = SystemConfig(
        num_rbs=4, num_antennas=64, max_mux=4,
        ul_power=1.0, dl_power=1.0, noise_power=0.1,
    )
    registry = default_registry(profiles, num, 4)
    pattern = conventional_pattern(registry)

    grp, conv = [], []
    for trial in range(10):
        real = generate_realization(pop, cfg, seed=4000 + trial)
        _, r_conv = rated(conventional_schedule_exact, real, pattern, "uplink")
        assign = grouping_schedule(
            pop, cfg, registry, "random", np.random.default_rng(trial)
        )
        r_grp = evaluate_schedule(real, assign, "uplink")
        grp.append(r_grp)
        conv.append(r_conv)
    diff = np.array(grp) - np.array(conv)
    wins = int(np.sum(diff > 0))
    mean = float(diff.mean())
    se = float(diff.std(ddof=1) / math.sqrt(diff.size))
    ok = wins >= 9 and mean > 2 * se
    _report(
        4,
        ok,
        f"wins {wins}/10 (need >=9), mean diff {mean:+.3f} vs 2*SE {2 * se:.3f}; "
        f"mean gain {float(np.mean(np.array(grp) / np.array(conv) - 1)):+.2%} "
        f"(exact baseline outsearches grouping at M=64, U=4; see module docstring)",
    )
    assert ok


def test_criterion_4a_overhead_factor_meets_the_bound():
    """The paper's claim where it holds: on one partition, the grouping
    patterns rate (1 + bound) times what the conventional pattern rates.

    The factor R_grp / R_fix, with R_fix the grouping partition rated under
    the conventional pattern, is the overhead gain; criterion 4 fails on
    the exact baseline's partition, not on this factor. Checked on
    criterion 4's seeds in both directions and on criterion 5's setting at
    M = 64 and 112, each within 3 SE of its trials' mean.
    """
    profiles = builtin_profiles()
    num = lte_numerology()
    settings = [  # (U_mux, trials, first realization seed, M, direction)
        (4, 10, 4000, 64, "uplink"),
        (4, 10, 4000, 64, "downlink"),
        (7, 20, 5000, 64, "uplink"),
        (7, 20, 5000, 112, "uplink"),
        (7, 20, 5000, 64, "downlink"),
    ]
    ok, detail = True, []
    for mux, trials, first_seed, m, direction in settings:
        pop = build_population([mux] * 4, profiles, FadingSpec(), seed=0)
        cfg = SystemConfig(
            num_rbs=4, num_antennas=m, max_mux=mux,
            ul_power=1.0, dl_power=1.0, noise_power=0.1,
        )
        registry = default_registry(profiles, num, mux)
        fixed = (conventional_pattern(registry),) * cfg.num_rbs
        rhos = [select_pattern_for_group(registry, p, num).overhead_ratio for p in profiles]
        want = 1.0 + gain_bound((0.25,) * 4, rhos)
        factors = []
        for trial in range(trials):
            real = generate_realization(pop, cfg, seed=first_seed + trial)
            assign = grouping_schedule(
                pop, cfg, registry, "random", np.random.default_rng(trial)
            )
            r_fix = evaluate_schedule(real, replace(assign, rb_patterns=fixed), direction)
            factors.append(evaluate_schedule(real, assign, direction) / r_fix)
        mean = float(np.mean(factors))
        se = float(np.std(factors, ddof=1) / math.sqrt(trials))
        ok &= abs(mean - want) <= 3 * se
        detail.append(f"U={mux} M={m} {direction} {mean:.5f} +- {se:.5f} vs {want:.5f}")
    _report("4a", ok, "R_grp/R_fix vs 1 + bound (within 3 SE): " + "; ".join(detail))
    assert ok


def test_criterion_5_gain_behavior():
    """Relative gain vs the greedy baseline grows from M=64 to M=112 at U=7.

    The true difference between the two means is ~+1.9 percentage points, so
    the comparison needs a few hundred paired trials to resolve reliably; the
    pairing uses common random numbers (the M=64 system sees the first 64
    antennas of the M=112 draw).
    """
    profiles = builtin_profiles()
    num = lte_numerology()
    mux, trials = 7, 200
    pop = build_population([7, 7, 7, 7], profiles, FadingSpec(), seed=0)
    registry = default_registry(profiles, num, mux)
    pattern = conventional_pattern(registry)
    gammas = (0.25,) * 4
    rhos = [
        select_pattern_for_group(registry, p, num).overhead_ratio for p in profiles
    ]
    bound = gain_bound(gammas, rhos)

    cfg112 = SystemConfig(
        num_rbs=4, num_antennas=112, max_mux=mux,
        ul_power=1.0, dl_power=1.0, noise_power=0.1,
    )
    cfg64 = SystemConfig(
        num_rbs=4, num_antennas=64, max_mux=mux,
        ul_power=1.0, dl_power=1.0, noise_power=0.1,
    )
    gains = {64: [], 112: []}
    for trial in range(trials):
        # the grouping does not depend on M or the channel; drawn first, its
        # users are built with the greedy's, so each RB is built once
        assign = grouping_schedule(
            pop, cfg64, registry, "random", np.random.default_rng(trial)
        )
        # common random numbers: the M=64 system is the first 64 antennas of
        # the M=112 one, because antennas are drawn in order from one
        # generator per (seed, user, RB)
        real112 = generate_realization(
            pop, cfg112, seed=5000 + trial, include=assign.rb_users
        )
        real64 = generate_realization(
            pop, cfg64, seed=5000 + trial, include=assign.rb_users
        )
        for m, real, cfg in ((64, real64, cfg64), (112, real112, cfg112)):
            _, r_conv = rated(conventional_schedule_greedy, real, pattern, "uplink")
            r_grp = evaluate_schedule(real, assign, "uplink")
            gains[m].append(r_grp / r_conv - 1.0)

    mean64, mean112 = np.mean(gains[64]), np.mean(gains[112])
    se64 = np.std(gains[64], ddof=1) / math.sqrt(trials)
    se112 = np.std(gains[112], ddof=1) / math.sqrt(trials)
    ok = (
        mean112 > mean64
        and mean64 <= bound + 3 * se64
        and mean112 <= bound + 3 * se112
    )
    _report(
        5,
        ok,
        f"gain {mean64:+.2%}@M=64 -> {mean112:+.2%}@M=112 (must increase), "
        f"bound {bound:.2%} (+3 SE)",
    )
    assert ok


def test_criterion_6_pattern_algebra():
    """Count identity, distinctness, cardinality, and feasibility, 1000 draws."""
    rng = np.random.default_rng(606)
    checked = 0
    while checked < 1000:
        n_s = int(rng.integers(2, 15))
        n_sc = int(rng.integers(2, 13))
        num = tiny_numerology(n_s, n_sc)
        mux = int(rng.integers(1, 8))
        profs = [
            ChannelProfile(
                f"p{i}",
                float(rng.uniform(2.0, 900.0)),
                float(rng.uniform(0.05e-6, 4.69e-6)),
            )
            for i in range(int(rng.integers(1, 6)))
        ]
        try:
            registry = default_registry(profs, num, mux)
        except NoDataRoomError:
            continue
        assert len({p.spacing for p in registry.patterns}) == len(registry.patterns)
        assert len(registry.patterns) <= len(profs)
        for pat in registry.patterns:
            want = (
                math.ceil(n_s / pat.spacing.time_spacing_symbols)
                * math.ceil(n_sc / pat.spacing.freq_spacing_subcarriers)
                * mux
            )
            assert pat.size == want
            assert len(set(pat.positions)) == pat.size
        for prof in profs:
            sel = select_pattern_for_group(registry, prof, num)
            limit = max_spacing(prof, num)
            assert sel.spacing.time_spacing_symbols <= limit.time_spacing_symbols
            assert sel.spacing.freq_spacing_subcarriers <= limit.freq_spacing_subcarriers
        checked += 1
    _report(6, True, "count identity, distinctness, cardinality, feasibility on 1000 draws")


def test_criterion_7_channel_statistics():
    """Autocorrelation and frequency correlation match theory for all profiles."""
    num = lte_numerology()
    worst_t, worst_f = 0.0, 0.0
    for prof in builtin_profiles():
        pop = build_population([1], [prof], FadingSpec(), seed=0)
        cfg = SystemConfig(
            num_rbs=100, num_antennas=100, max_mux=4,
            ul_power=1.0, dl_power=1.0, noise_power=1.0,
        )
        h = np.stack([draw_channels(pop, cfg, 700, rb)[0] for rb in range(cfg.num_rbs)])
        x = h[:, :, 0, :]  # (rb, t, m): 10^4 series
        denom = np.mean(np.abs(x) ** 2)
        for lag in (1, 3, 7, 13):
            emp = np.mean(x[:, :-lag, :].conj() * x[:, lag:, :]) / denom
            theo = j0(2 * np.pi * prof.max_doppler_hz * num.symbol_duration_s * lag)
            worst_t = max(worst_t, abs(emp - theo))
        y = h[:, 0, :, :]  # (rb, n, m)
        denom = np.mean(np.abs(y) ** 2)
        for dn in (1, 3, 6, 11):
            emp = np.mean(y[:, dn:, :] * y[:, :-dn, :].conj()) / denom
            delays, powers = np.array(prof.taps).T
            theo = np.sum(powers * np.exp(-2j * np.pi * dn * num.subcarrier_spacing_hz * delays))
            worst_f = max(worst_f, abs(emp - theo))
    ok = worst_t < 0.05 and worst_f < 0.05
    _report(
        7,
        ok,
        f"max |autocorr - J0| = {worst_t:.4f}, max |freq corr - PDP transform| = "
        f"{worst_f:.4f} (< 0.05, 10^4 samples, all four profiles)",
    )
    assert ok


def test_criterion_8_sampling_rule_validation():
    """ETU300 interpolation NMSE: rule spacing beats doubled spacing by >= 3 dB."""
    num = lte_numerology()
    prof = builtin_profiles()[3]
    rule, doubled = PilotSpacing(11, 3), PilotSpacing(22, 6)
    trials = 200
    nmse_rule, nmse_doubled, wins = [], [], 0
    for t in range(trials):
        a, b = interpolation_nmse(prof, [rule, doubled], num, trials=1, seed=8000 + t)
        nmse_rule.append(a)
        nmse_doubled.append(b)
        wins += a < b
    gap_db = 10.0 * math.log10(np.mean(nmse_doubled) / np.mean(nmse_rule))
    pvalue = binomtest(wins, trials, 0.5, alternative="greater").pvalue
    ok = gap_db >= 3.0 and pvalue < 0.05
    _report(
        8,
        ok,
        f"gap {gap_db:.2f} dB (>= 3), sign test {wins}/{trials} wins, p = {pvalue:.2e} (< 0.05)",
    )
    assert ok


def test_criterion_9_reproducibility(monkeypatch):
    """Identical (config, seed) gives byte-identical CSV, for 1 and N workers."""
    cfg = ExperimentConfig(
        m_list=(8, 16), u_mux_list=(4,), trials=2, num_rbs=2,
        direction="both", scheduler="greedy", seed=12,
    )
    monkeypatch.setenv("PILOTADAPT_WORKERS", "1")
    first = rows_csv(run_sweep(cfg))
    second = rows_csv(run_sweep(cfg))
    monkeypatch.setenv("PILOTADAPT_WORKERS", "4")
    third = rows_csv(run_sweep(cfg))
    ok = first == second == third
    _report(9, ok, f"byte-identical CSV across reruns and worker counts ({len(first)} bytes)")
    assert ok
