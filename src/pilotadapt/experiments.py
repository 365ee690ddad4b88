"""Experiment orchestration: seeded sweeps and their result rows.

One row is produced per (M, mux order, trial, direction). Each trial derives
its own seed from the master seed and the sweep indices, so trials can run on
any number of workers and still produce byte-identical output files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import generate_realization
from .config import ExperimentConfig
from .core import build_population
from .errors import ConfigurationError
from .patterns import conventional_pattern, default_registry
from .scheduling import (
    check_exact_budget,
    check_users_fit,
    conventional_schedule_exact,
    conventional_schedule_greedy,
    evaluate_schedule,
    grouping_schedule,
    power_error,
)

# one column per `ResultRow` field, in field order
CSV_HEADER = "M,U_mux,trial,direction,R_grp,R_conv,rel_gain,bound,scheduler,seed"
WORKERS_ENV_VAR = "PILOTADAPT_WORKERS"


@dataclass(frozen=True)
class ResultRow:
    m: int
    u_mux: int
    trial: int
    direction: str
    r_grp: float
    r_conv: float
    rel_gain: float
    bound: float
    scheduler: str
    seed: int


def trial_seed(master_seed: int, m_index: int, u_index: int, trial: int) -> int:
    """Stable per-trial seed mixing the sweep position into the master seed."""
    ss = np.random.SeedSequence((master_seed, m_index, u_index, trial))
    return int(ss.generate_state(1, np.uint64)[0])


def _num_workers() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{WORKERS_ENV_VAR} must be an integer") from exc
    if n < 1:
        raise ConfigurationError(f"{WORKERS_ENV_VAR} must be at least 1, got {n}")
    return n


def run_trial(cfg: ExperimentConfig, m: int, mux: int, trial: int, seed: int) -> list[ResultRow]:
    """Evaluate one realization: grouping vs conventional, per direction.

    The population carries the profiles that the grouping and the draw read.
    Both directions share the draw and one grouping assignment, which does not
    depend on the channel; every rating reads the cell config and gains from the
    realization. The conventional scheduler picks its assignment per direction,
    and `evaluate_schedule` rates both, so R_grp and R_conv come from one
    function. Each RB's Gram is built on request for the users the scheduler
    rates there and the grouping's, and rebuilt only when a request leaves that
    set: once per RB for the exact DP (every user) and a greedy run in one
    direction, at most once per RB and direction for greedy runs in both.
    """
    pop = build_population(cfg.sizes_for(mux), cfg.profiles, cfg.fading, seed=seed)
    sys_cfg = cfg.system_config(m, mux)
    registry = default_registry(cfg.profiles, cfg.numerology, mux)
    pattern = conventional_pattern(registry)
    picker_rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    assignment = grouping_schedule(pop, sys_cfg, registry, cfg.picker, picker_rng)
    realization = generate_realization(pop, sys_cfg, seed=seed, include=assignment.rb_users)
    bound = cfg.gain_bound(mux)

    # looked up per call, so that wrappers installed on the module are used
    schedule = (
        conventional_schedule_exact if cfg.scheduler == "exact" else conventional_schedule_greedy
    )
    rows = []
    for direction in cfg.directions():
        conventional = schedule(realization, pattern, direction)
        r_conv = evaluate_schedule(realization, conventional, direction)
        r_grp = evaluate_schedule(realization, assignment, direction)
        rel_gain = r_grp / r_conv - 1.0 if r_conv > 0.0 else math.nan
        if not math.isfinite(rel_gain):
            problem = f"rates R_grp = {r_grp!r} and R_conv = {r_conv!r} give no finite gain"
            raise power_error(sys_cfg, direction, problem, fix="raise")
        rows.append(
            ResultRow(
                m=m,
                u_mux=mux,
                trial=trial,
                direction=direction,
                r_grp=r_grp,
                r_conv=r_conv,
                rel_gain=rel_gain,
                bound=bound,
                scheduler=cfg.scheduler,
                seed=seed,
            )
        )
    return rows


def run_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Rows of both schemes over the (M, U_mux, trial, direction) grid.

    Every row carries the registry gain bound of its sweep point. The sweep
    is refused before any trial runs if the users of one of its points do not
    fit the RBs, or, for the exact scheduler, if it exceeds the exact search
    budget.
    """
    for mux in cfg.u_mux_list:
        k = sum(cfg.sizes_for(mux))
        check_users_fit(k, cfg.num_rbs, mux)
        if cfg.scheduler == "exact":
            check_exact_budget(k, cfg.num_rbs, mux)
    tasks = [
        (m, mux, trial, trial_seed(cfg.seed, mi, ui, trial))
        for mi, m in enumerate(cfg.m_list)
        for ui, mux in enumerate(cfg.u_mux_list)
        for trial in range(cfg.trials)
    ]
    workers = _num_workers()
    if workers == 1:
        nested = [run_trial(cfg, *t) for t in tasks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(lambda t: run_trial(cfg, *t), tasks))
    rows = [row for group in nested for row in group]
    rows.sort(key=lambda r: (r.m, r.u_mux, r.trial, r.direction))
    return rows


def summarize_gains(rows: list[ResultRow]) -> list[dict]:
    """Mean relative gain and standard error (NaN for one trial) per (direction, M, U_mux)."""
    keys = sorted({(r.direction, r.m, r.u_mux) for r in rows})
    out = []
    for direction, m, mux in keys:
        matching = [r for r in rows if (r.direction, r.m, r.u_mux) == (direction, m, mux)]
        arr = np.asarray([r.rel_gain for r in matching])
        se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.nan
        out.append(
            {
                "direction": direction,
                "M": m,
                "U_mux": mux,
                "mean_rel_gain": float(arr.mean()),
                "stderr_rel_gain": se,
                "bound": matching[0].bound,
                "trials": int(arr.size),
            }
        )
    return out
