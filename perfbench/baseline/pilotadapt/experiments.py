"""Experiment orchestration: config ingestion, seeded sweeps, persistence.

One row is produced per (M, mux order, trial, direction). Each trial derives
its own seed from the master seed and the sweep indices, so trials can run on
any number of workers and still produce byte-identical output files.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .asymptotics import gain_bound
from .channel import ChannelProfile, builtin_profiles, generate_realization
from .core import FadingSpec, Numerology, SystemConfig, build_population, group_fractions, lte_numerology
from .errors import ConfigurationError, ExactSearchBudgetError
from .patterns import conventional_pattern, default_registry
from .scheduling import (
    conventional_schedule_exact,
    conventional_schedule_greedy,
    evaluate_schedule,
    grouping_schedule,
)

CSV_HEADER = "M,U_mux,trial,direction,R_grp,R_conv,rel_gain,bound,scheduler,seed"
WORKERS_ENV_VAR = "PILOTADAPT_WORKERS"


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition; see README for the config-file key reference."""

    m_list: tuple[int, ...] = (64,)
    u_mux_list: tuple[int, ...] = (4,)
    trials: int = 10
    num_rbs: int = 4
    direction: str = "uplink"  # uplink | downlink | both
    scheduler: str = "exact"  # exact | greedy
    picker: str = "random"
    snr_db: float = 10.0
    ul_power: float = 1.0
    dl_power: float = 1.0
    noise_power: float | None = None  # derived from snr_db when omitted
    group_sizes: str | tuple[int, ...] = "auto"
    profiles: str | tuple[ChannelProfile, ...] = "table1"
    fading: FadingSpec = field(default_factory=FadingSpec)
    numerology: Numerology = field(default_factory=lte_numerology)
    seed: int = 0
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if not self.m_list or not self.u_mux_list:
            raise ConfigurationError("m_list and u_mux_list must be non-empty")
        if self.trials < 1:
            raise ConfigurationError("trials must be at least 1")
        if self.direction not in ("uplink", "downlink", "both"):
            raise ConfigurationError(f"unknown direction {self.direction!r}")
        if self.scheduler not in ("exact", "greedy"):
            raise ConfigurationError(f"unknown scheduler {self.scheduler!r}")
        if self.format not in ("csv", "json"):
            raise ConfigurationError(f"unknown output format {self.format!r}")

    def resolved_profiles(self) -> list[ChannelProfile]:
        if self.profiles == "table1":
            return builtin_profiles()
        return list(self.profiles)

    def derived_noise_power(self) -> float:
        if self.noise_power is not None:
            return self.noise_power
        # snr_db fixes mean(eta)*P_ul / sigma^2
        return self.fading.mean() * self.ul_power / 10.0 ** (self.snr_db / 10.0)

    def sizes_for(self, mux: int) -> list[int]:
        if self.group_sizes != "auto":
            return list(self.group_sizes)
        # auto sizing: K = N_RB * U_mux users, split evenly over the groups
        k = self.num_rbs * mux
        g = len(self.resolved_profiles())
        base, extra = divmod(k, g)
        return [base + (1 if i < extra else 0) for i in range(g)]

    def directions(self) -> list[str]:
        if self.direction == "both":
            return ["uplink", "downlink"]
        return [self.direction]


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

    def as_record(self) -> dict:
        return {
            "M": self.m,
            "U_mux": self.u_mux,
            "trial": self.trial,
            "direction": self.direction,
            "R_grp": self.r_grp,
            "R_conv": self.r_conv,
            "rel_gain": self.rel_gain,
            "bound": self.bound,
            "scheduler": self.scheduler,
            "seed": self.seed,
        }


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
    return max(1, n)


def run_trial(
    cfg: ExperimentConfig, m: int, mux: int, trial: int, seed: int
) -> list[ResultRow]:
    """Evaluate one realization: grouping vs conventional, per direction."""
    profiles = cfg.resolved_profiles()
    sizes = cfg.sizes_for(mux)
    pop = build_population(sizes, cfg.fading, seed=seed)
    sys_cfg = SystemConfig(
        num_rbs=cfg.num_rbs,
        num_antennas=m,
        max_mux=mux,
        ul_power=cfg.ul_power,
        dl_power=cfg.dl_power,
        noise_power=cfg.derived_noise_power(),
        numerology=cfg.numerology,
    )
    registry = default_registry(profiles, cfg.numerology, mux)
    pattern = conventional_pattern(profiles, cfg.numerology, mux)
    realization = generate_realization(pop, profiles, sys_cfg, seed=seed)
    fadings = pop.fadings()

    gammas = group_fractions(pop)
    rhos = _group_overheads(registry, profiles, cfg.numerology)
    bound = gain_bound(gammas, rhos)

    rows = []
    for direction in cfg.directions():
        if cfg.scheduler == "exact":
            try:
                _, r_conv = conventional_schedule_exact(
                    realization, pop, sys_cfg, pattern, direction
                )
            except ExactSearchBudgetError as exc:
                raise ExactSearchBudgetError(
                    f"{exc} (set scheduler = \"greedy\" in the experiment config)"
                ) from exc
        else:
            _, r_conv = conventional_schedule_greedy(
                realization, pop, sys_cfg, pattern, direction
            )
        picker_rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        assignment = grouping_schedule(
            pop, sys_cfg, registry, profiles, cfg.picker, picker_rng
        )
        r_grp = evaluate_schedule(
            realization, assignment, sys_cfg, direction, fadings=fadings
        )
        rows.append(
            ResultRow(
                m=m,
                u_mux=mux,
                trial=trial,
                direction=direction,
                r_grp=r_grp,
                r_conv=r_conv,
                rel_gain=r_grp / r_conv - 1.0,
                bound=bound,
                scheduler=cfg.scheduler,
                seed=seed,
            )
        )
    return rows


def _group_overheads(registry, profiles, num) -> list[float]:
    from .patterns import select_pattern_for_group

    return [
        select_pattern_for_group(registry, prof, num).overhead_ratio
        for prof in profiles
    ]


def _run_grid(cfg: ExperimentConfig) -> list[ResultRow]:
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
        with ThreadPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(lambda t: run_trial(cfg, *t), tasks))
    rows = [row for group in nested for row in group]
    rows.sort(key=lambda r: (r.m, r.u_mux, r.trial, r.direction))
    return rows


def run_fig3(cfg: ExperimentConfig) -> list[ResultRow]:
    """Spectral efficiency of both schemes over the (M, U_mux, trial) grid."""
    return _run_grid(cfg)


def run_fig4(cfg: ExperimentConfig) -> list[ResultRow]:
    """Relative-gain sweep; every row carries the registry gain bound."""
    return _run_grid(cfg)


def replay_row(cfg: ExperimentConfig, row: ResultRow) -> ResultRow:
    """Recompute a row from its own seed; equal to the original by construction."""
    sub = replace(cfg, direction=row.direction)
    rows = run_trial(sub, row.m, row.u_mux, row.trial, row.seed)
    return rows[0]


def summarize_gains(rows: list[ResultRow]) -> list[dict]:
    """Mean relative gain and standard error per (direction, M, U_mux)."""
    keys = sorted({(r.direction, r.m, r.u_mux) for r in rows})
    out = []
    for direction, m, mux in keys:
        matching = [r for r in rows if (r.direction, r.m, r.u_mux) == (direction, m, mux)]
        arr = np.asarray([r.rel_gain for r in matching])
        se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
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


def rows_to_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        rec = r.as_record()
        lines.append(
            ",".join(str(rec[k]) for k in CSV_HEADER.split(","))
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[ResultRow]) -> str:
    return json.dumps([r.as_record() for r in rows], indent=2) + "\n"


def write_rows(rows: list[ResultRow], path: str, fmt: str = "csv") -> None:
    text = rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows)
    with open(path, "w", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# config files: flat key = value text, or JSON with the same keys

_LIST_KEYS = {"m_list", "u_mux_list", "group_sizes"}
_INT_KEYS = {"trials", "num_rbs", "seed"}
_FLOAT_KEYS = {"snr_db", "ul_power", "dl_power", "noise_power"}
_STR_KEYS = {"direction", "scheduler", "picker", "fading", "out", "format", "profiles"}
_NUMEROLOGY_KEYS = {
    "symbol_duration_s",
    "subcarrier_spacing_hz",
    "symbols_per_rb",
    "subcarriers_per_rb",
}


def parse_flat_config(text: str) -> dict:
    """Parse the flat `key = value` format (strings, numbers, [lists])."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        out[key] = _parse_scalar_or_list(value, lineno)
    return out


def _parse_scalar_or_list(value: str, lineno: int):
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(v.strip(), lineno) for v in inner.split(",")]
    return _parse_scalar(value, lineno)


def _parse_scalar(value: str, lineno: int):
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value  # bare string


def load_config(path: str) -> ExperimentConfig:
    """Read an experiment config from a flat text or JSON file."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        data = json.loads(text)
    else:
        data = parse_flat_config(text)
    return config_from_dict(data)


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    kwargs: dict = {}

    numerology_kwargs = {}
    for key in list(data):
        if key in _NUMEROLOGY_KEYS:
            numerology_kwargs[key] = data.pop(key)
    if numerology_kwargs:
        base = lte_numerology()
        kwargs["numerology"] = replace(base, **numerology_kwargs)

    if "fading" in data:
        kwargs["fading"] = _parse_fading(data.pop("fading"))
    if "profiles" in data:
        kwargs["profiles"] = _parse_profiles(data.pop("profiles"))
    if "group_sizes" in data:
        gs = data.pop("group_sizes")
        kwargs["group_sizes"] = gs if gs == "auto" else tuple(int(s) for s in gs)

    for key, value in data.items():
        if key in _LIST_KEYS:
            kwargs[key] = tuple(value)
        elif key in _INT_KEYS:
            kwargs[key] = int(value)
        elif key in _FLOAT_KEYS:
            kwargs[key] = float(value)
        elif key in _STR_KEYS:
            kwargs[key] = value
        else:
            raise ConfigurationError(f"unknown config key {key!r}")
    return ExperimentConfig(**kwargs)


def _parse_fading(value) -> FadingSpec:
    if isinstance(value, dict):
        return FadingSpec(
            kind=value.get("kind", "constant"),
            value=value.get("value", 1.0),
            spread_db=value.get("spread_db", 0.0),
            values=tuple(value.get("values", ())),
        )
    if value == "constant":
        return FadingSpec()
    if isinstance(value, str) and value.startswith("lognormal:"):
        return FadingSpec(kind="lognormal", spread_db=float(value.split(":", 1)[1]))
    if isinstance(value, str) and value.startswith("explicit:"):
        vals = tuple(float(v) for v in value.split(":", 1)[1].split(","))
        return FadingSpec(kind="explicit", values=vals)
    raise ConfigurationError(f"cannot parse fading spec {value!r}")


def _parse_profiles(value):
    if value == "table1":
        return "table1"
    if isinstance(value, list):
        # JSON form: list of dicts with optional tap tables
        profs = []
        for entry in value:
            taps = tuple((float(d), float(p)) for d, p in entry.get("taps", ()))
            profs.append(
                ChannelProfile(
                    name=entry["name"],
                    max_doppler_hz=float(entry["max_doppler_hz"]),
                    max_delay_spread_s=float(entry["max_delay_spread_s"]),
                    taps=taps,
                )
            )
        return tuple(profs)
    raise ConfigurationError(
        "profiles must be \"table1\" or (JSON configs only) a list of profile objects"
    )
