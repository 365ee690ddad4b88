"""Experiment orchestration: seeded sweeps and their result rows.

One row is produced per (M, mux order, trial, direction). Each trial derives
its own seed from the master seed and the sweep indices, so trials can run on
any number of workers and still produce byte-identical output files.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import generate_realization
from .config import ExperimentConfig
from .core import SystemConfig, UserPopulation, build_population
from .errors import ConfigurationError
from .patterns import PatternRegistry, conventional_pattern, default_registry
from .scheduling import (
    ScheduleAssignment,
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


@dataclass(frozen=True)
class DirectionResult:
    """One direction of a trial: the conventional scheduler's assignment, and
    the rates of the grouping (R_grp) and of that assignment (R_conv)."""

    direction: str
    conventional: ScheduleAssignment
    r_grp: float
    r_conv: float

    @property
    def rel_gain(self) -> float:
        return self.r_grp / self.r_conv - 1.0 if self.r_conv > 0.0 else math.nan


@dataclass(frozen=True)
class TrialRecord:
    """What a trial's rows are made from: the grouping assignment, which
    every direction shares, and one `DirectionResult` per direction, in the
    order the directions were given."""

    grouping: ScheduleAssignment
    directions: tuple[DirectionResult, ...]


def simulate_trial(
    pop: UserPopulation,
    sys_cfg: SystemConfig,
    registry: PatternRegistry,
    *,
    scheduler: str,
    picker: str,
    picker_rng: np.random.Generator | None,
    directions: Sequence[str],
    draw_seed: int,
) -> TrialRecord:
    """Evaluate one realization: grouping vs conventional, per direction.

    The population carries the profiles that the grouping and the draw read.
    `picker` and `picker_rng` pick the grouping's users, and `draw_seed` seeds
    the draw. Both directions share the draw and one grouping assignment,
    which does not depend on the channel; every rating reads the cell config
    and gains from the realization. The conventional scheduler ("exact" or
    "greedy") picks its assignment under the registry's densest pattern per
    direction, and `evaluate_schedule` rates both, so R_grp and R_conv come
    from one function. Each RB's Gram is built on request for the users the
    scheduler rates there and the grouping's, and rebuilt only when a request
    leaves that set: once per RB for the exact DP (every user) and a greedy
    run in one direction, at most once per RB and direction for greedy runs
    in both.
    """
    if scheduler not in ("exact", "greedy"):
        raise ConfigurationError(f"unknown scheduler {scheduler!r}")
    pattern = conventional_pattern(registry)
    assignment = grouping_schedule(pop, sys_cfg, registry, picker, picker_rng)
    realization = generate_realization(pop, sys_cfg, seed=draw_seed, include=assignment.rb_users)
    # looked up per call, so that wrappers installed on the module are used
    schedule = conventional_schedule_exact if scheduler == "exact" else conventional_schedule_greedy
    results = []
    for direction in directions:
        conventional = schedule(realization, pattern, direction)
        r_conv = evaluate_schedule(realization, conventional, direction)
        r_grp = evaluate_schedule(realization, assignment, direction)
        result = DirectionResult(direction, conventional, r_grp, r_conv)
        if not math.isfinite(result.rel_gain):
            problem = f"rates R_grp = {r_grp!r} and R_conv = {r_conv!r} give no finite gain"
            raise power_error(sys_cfg, direction, problem, fix="raise")
        results.append(result)
    return TrialRecord(assignment, tuple(results))


def sweep_trial(cfg: ExperimentConfig, m: int, mux: int, seed: int) -> TrialRecord:
    """The trial of sweep point (m, mux) at row seed `seed`: the population,
    the picker's generator and the draw all derive from that one seed."""
    return simulate_trial(
        build_population(cfg.sizes_for(mux), cfg.profiles, cfg.fading, seed=seed),
        cfg.system_config(m, mux),
        default_registry(cfg.profiles, cfg.numerology, mux),
        scheduler=cfg.scheduler,
        picker=cfg.picker,
        picker_rng=np.random.default_rng(np.random.SeedSequence((seed, 1))),
        directions=cfg.directions(),
        draw_seed=seed,
    )


def run_trial(cfg: ExperimentConfig, m: int, mux: int, trial: int, seed: int) -> list[ResultRow]:
    """The rows of one trial of the sweep, one per direction (`sweep_trial`)."""
    record = sweep_trial(cfg, m, mux, seed)
    bound = cfg.gain_bound(mux)
    return [
        ResultRow(m, mux, trial, d.direction, d.r_grp, d.r_conv, d.rel_gain, bound,
                  cfg.scheduler, seed)
        for d in record.directions
    ]


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
