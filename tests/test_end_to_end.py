"""End to end: `run_sweep`'s rows against a pipeline built from the oracles.

The oracle side writes out the glue that the sweep owns: each trial's seed,
the noise power from `snr_db` and the fading mean, the fixed pattern, each
group's RBs (the ceil ownership rule) and pattern, the dealer that picks its
users, the greedy, the direction loop and the gain bound. It draws the
channels with `draw_channels`, rates every user set with `oracle_rb_rate` and
finds the exact partition with `oracle_exact_partition`. From the library it
takes only the config reader, `SystemConfig`, `build_population`,
`build_pattern` and `max_spacing`, which have tests of their own, and nothing
from `pilotadapt.experiments` or `pilotadapt.scheduling` but the `run_sweep`
under test. Rows must agree in every integer and string column, and within 1e-9
relative in R_grp, R_conv, rel_gain and bound.
"""

import functools
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from pilotadapt.config import config_from_dict
from pilotadapt.core import SystemConfig, build_population
from pilotadapt.experiments import run_sweep
from pilotadapt.patterns import build_pattern, max_spacing

from oracles import (
    draw_channels, oracle_conventional_pattern, oracle_exact_partition, oracle_rb_rate
)

RTOL = 1e-9

# name -> (config, the schedulers its rows are checked under)
GRIDS = {
    # groups pair with RBs one to one; lognormal gains reach every rate
    "paired": (dict(m_list=[4, 8], u_mux_list=[2], trials=1, num_rbs=4, direction="both",
                    fading={"kind": "lognormal", "spread_db": 6.0}, seed=11), ("exact", "greedy")),
    # auto sizes (3, 2, 2, 2) on 3 RBs: the ETU300 group owns no RB
    "unpaired": (dict(m_list=[4], u_mux_list=[3], trials=2, num_rbs=3, picker="round_robin",
                      seed=5), ("greedy",)),
    # group 0 owns two RBs and deals its four users over them, so the random
    # picker's generator decides which users share an RB
    "dealt": (dict(m_list=[4], u_mux_list=[2], trials=2, num_rbs=3, group_sizes=[4, 2, 0, 0],
                   seed=3), ("exact",)),
}


def _noise_power(cfg):
    """sigma^2 that sets mean(eta) * P_ul / sigma^2 to snr_db, with the
    lognormal mean value * exp(s^2 / 2), s = spread_db * ln(10) / 10."""
    s = cfg.fading.spread_db * math.log(10.0) / 10.0
    return cfg.fading.value * math.exp(s * s / 2.0) * cfg.ul_power / 10.0 ** (cfg.snr_db / 10.0)


def _owners(sizes, n_rbs):
    """Group of each RB: group g owns (ceil(R |G_<g| / K), ceil(R |G_<=g| / K)]."""
    k = sum(sizes)
    ends = [sum(sizes[: g + 1]) for g in range(len(sizes))]
    return [
        min(g for g, end in enumerate(ends) if rb < math.ceil(n_rbs * end / k))
        for rb in range(n_rbs)
    ]


def _grouping(sizes, owners, mux, picker, rng):
    """Each RB's users: its group's dealer hands out the members round after
    round, shuffled at the start of each round under the random picker, and
    an RB skips a member it already holds."""
    firsts = [sum(sizes[:g]) for g in range(len(sizes))]
    queues = {}
    rb_users = []
    for g in owners:
        members = list(range(firsts[g], firsts[g] + sizes[g]))
        queue = queues.setdefault(g, [])
        picked = set()
        while len(picked) < min(mux, len(members)):
            if not queue:
                queue.extend(members)
                if picker == "random":
                    rng.shuffle(queue)
            picked.add(queue.pop(0))
        rb_users.append(tuple(sorted(picked)))
    return rb_users


def _greedy(rate, k, n_rbs):
    """RBs in order; balanced sizes, larger first; best marginal user, lowest id on ties."""
    remaining = list(range(k))
    parts = []
    for rb in range(n_rbs):
        current = ()
        for _ in range(k // n_rbs + (rb < k % n_rbs)):
            best = max(remaining, key=lambda u: rate(rb, tuple(sorted(current + (u,)))))
            remaining.remove(best)
            current = tuple(sorted(current + (best,)))
        parts.append(current)
    return parts


def _oracle_rows(cfg, schedulers):
    """Each scheduler's rows of the sweep `cfg`, sorted as `run_sweep` sorts
    them; the schedulers share the draws and the rates."""
    num, profiles = cfg.numerology, list(cfg.profiles)
    sigma2 = _noise_power(cfg)
    rows = {scheduler: [] for scheduler in schedulers}
    for mi, m in enumerate(cfg.m_list):
        for ui, mux in enumerate(cfg.u_mux_list):
            sizes = cfg.sizes_for(mux)
            k, n_rbs = sum(sizes), cfg.num_rbs
            fixed = oracle_conventional_pattern(profiles, num, mux)
            patterns = [build_pattern(max_spacing(p, num), num, mux) for p in profiles]
            rho_fixed = fixed.size / num.res_per_rb
            bound = sum(
                s / k * (1.0 - p.size / num.res_per_rb) for s, p in zip(sizes, patterns)
            ) / (1.0 - rho_fixed) - 1.0
            owners = _owners(sizes, n_rbs)
            for trial in range(cfg.trials):
                sequence = np.random.SeedSequence((cfg.seed, mi, ui, trial))
                seed = int(sequence.generate_state(1, np.uint64)[0])
                pop = build_population(sizes, profiles, cfg.fading, seed=seed)
                rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
                grouped = _grouping(sizes, owners, mux, cfg.picker, rng)
                cell = SystemConfig(
                    num_rbs=n_rbs, num_antennas=m, max_mux=mux, ul_power=cfg.ul_power,
                    dl_power=cfg.dl_power, noise_power=sigma2, numerology=num,
                )
                h = [draw_channels(pop, cell, seed, rb).tolist() for rb in range(n_rbs)]
                for direction in cfg.directions():
                    power = cfg.ul_power if direction == "uplink" else cfg.dl_power

                    @functools.cache
                    def rate(rb, users, positions=fixed.positions):
                        if not users:
                            return 0.0
                        return oracle_rb_rate(
                            [h[rb][u] for u in users], [pop.gains[u] for u in users],
                            positions, power, sigma2, direction,
                        )

                    r_grp = sum(
                        rate(rb, users, patterns[owners[rb]].positions)
                        for rb, users in enumerate(grouped)
                    ) / n_rbs
                    for scheduler in schedulers:
                        if scheduler == "exact":
                            conv, _ = oracle_exact_partition(rate, k, n_rbs, mux)
                        else:
                            conv = _greedy(rate, k, n_rbs)
                        r_conv = sum(rate(rb, users) for rb, users in enumerate(conv)) / n_rbs
                        rows[scheduler].append(
                            (m, mux, trial, direction, r_grp, r_conv, r_grp / r_conv - 1.0, bound,
                             scheduler, seed)
                        )
    return {scheduler: sorted(r, key=lambda row: row[:4]) for scheduler, r in rows.items()}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_sweep_rows_match_the_oracle_pipeline(name):
    grid, schedulers = GRIDS[name]
    cfg = config_from_dict(grid)
    oracle = _oracle_rows(cfg, schedulers)
    for scheduler in schedulers:
        want = oracle[scheduler]
        got = [astuple(r) for r in run_sweep(replace(cfg, scheduler=scheduler))]
        assert len(got) == len(want) == len(cfg.m_list) * cfg.trials * len(cfg.directions())
        for g, w in zip(got, want):
            assert g[:4] == w[:4] and g[8:] == w[8:], (g, w)
            for a, b in zip(g[4:8], w[4:8]):
                assert math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0), (g, w)
