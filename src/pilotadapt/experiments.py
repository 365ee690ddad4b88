"""Experiment orchestration: config ingestion, seeded sweeps, persistence.

One row is produced per (M, mux order, trial, direction). Each trial derives
its own seed from the master seed and the sweep indices, so trials can run on
any number of workers and still produce byte-identical output files.
"""

from __future__ import annotations

import json
import math
import os
import tomllib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .asymptotics import gain_bound
from .channel import ChannelProfile, builtin_profiles, generate_realization
from .core import FadingSpec, Numerology, SystemConfig, build_population, lte_numerology
from .errors import ConfigurationError, ExactSearchBudgetError
from .patterns import conventional_pattern, default_registry, group_overheads
from .scheduling import (
    check_exact_budget,
    check_users_fit,
    conventional_schedule_exact,
    conventional_schedule_greedy,
    evaluate_schedule,
    grouping_schedule,
    power_error,
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
    format: str | None = None  # None: each command's own default

    def __post_init__(self):
        if not self.m_list or not self.u_mux_list:
            raise ConfigurationError("m_list and u_mux_list must be non-empty")
        for key in ("m_list", "u_mux_list"):
            if min(getattr(self, key)) < 1:
                raise ConfigurationError(f"every {key} entry must be at least 1")
        if self.num_rbs < 1:
            raise ConfigurationError("num_rbs must be at least 1")
        if self.trials < 1:
            raise ConfigurationError("trials must be at least 1")
        if self.direction not in ("uplink", "downlink", "both"):
            raise ConfigurationError(f"unknown direction {self.direction!r}")
        if self.scheduler not in ("exact", "greedy"):
            raise ConfigurationError(f"unknown scheduler {self.scheduler!r}")
        if self.format not in (None, "csv", "json"):
            raise ConfigurationError(f"unknown output format {self.format!r}")
        if self.picker not in ("random", "round_robin"):
            raise ConfigurationError(f"unknown user picker {self.picker!r}")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        sizes = self.sizes_for(1)
        groups, profiles = len(sizes), len(self.resolved_profiles())
        if groups != profiles:
            raise ConfigurationError(
                f"group_sizes gives {groups} sizes but profiles has {profiles} entries; "
                "give one group size per profile"
            )
        if min(sizes) < 0 or sum(sizes) < 1:
            raise ConfigurationError(
                f"group_sizes must be non-negative with at least one user, got {sizes}"
            )
        noise = self.derived_noise_power()
        if not (math.isfinite(noise) and noise > 0.0):
            raise ConfigurationError(
                f"noise power must be finite and positive, got {noise} "
                f"(snr_db = {self.snr_db}, noise_power = {self.noise_power})"
            )

    def resolved_profiles(self) -> list[ChannelProfile]:
        if self.profiles == "table1":
            return builtin_profiles()
        return list(self.profiles)

    def derived_noise_power(self) -> float:
        if self.noise_power is not None:
            return self.noise_power
        # snr_db fixes mean(eta)*P_ul / sigma^2; nan when out of float range
        try:
            return self.fading.mean() * self.ul_power / 10.0 ** (self.snr_db / 10.0)
        except (OverflowError, ZeroDivisionError):
            return math.nan

    def sizes_for(self, mux: int) -> list[int]:
        if self.group_sizes != "auto":
            return list(self.group_sizes)
        # auto sizing: K = N_RB * U_mux users, split evenly over the groups
        k = self.num_rbs * mux
        g = len(self.resolved_profiles())
        base, extra = divmod(k, g)
        return [base + (1 if i < extra else 0) for i in range(g)]

    def system_config(self, m: int, mux: int) -> SystemConfig:
        """Cell parameters of the sweep point with M antennas and mux order U."""
        return SystemConfig(
            num_rbs=self.num_rbs,
            num_antennas=m,
            max_mux=mux,
            ul_power=self.ul_power,
            dl_power=self.dl_power,
            noise_power=self.derived_noise_power(),
            numerology=self.numerology,
        )

    def gain_bound(self, mux: int) -> float:
        """Large-system gain bound of the sweep points at mux order `mux`:
        each group's share of `sizes_for(mux)` against the overhead of the
        registry pattern it is given."""
        profiles = self.resolved_profiles()
        registry = default_registry(profiles, self.numerology, mux)
        sizes = self.sizes_for(mux)
        k = sum(sizes)
        return gain_bound(
            [size / k for size in sizes], group_overheads(registry, profiles, self.numerology)
        )

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
    if n < 1:
        raise ConfigurationError(f"{WORKERS_ENV_VAR} must be at least 1, got {n}")
    return n


def run_trial(
    cfg: ExperimentConfig, m: int, mux: int, trial: int, seed: int
) -> list[ResultRow]:
    """Evaluate one realization: grouping vs conventional, per direction.

    Both directions share the realization and one grouping assignment,
    which does not depend on the channel. Each RB's Gram is built on
    request for the users the scheduler rates there and the grouping's,
    and rebuilt only when a request leaves that set: once per RB for the
    exact DP (every user) and a greedy run in one direction, at most once
    per RB and direction for greedy runs in both.
    """
    profiles = cfg.resolved_profiles()
    pop = build_population(cfg.sizes_for(mux), cfg.fading, seed=seed)
    sys_cfg = cfg.system_config(m, mux)
    registry = default_registry(profiles, cfg.numerology, mux)
    pattern = conventional_pattern(profiles, cfg.numerology, mux)
    picker_rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    assignment = grouping_schedule(pop, sys_cfg, registry, profiles, cfg.picker, picker_rng)
    realization = generate_realization(
        pop, profiles, sys_cfg, seed=seed, include=assignment.rb_users
    )
    fadings = pop.fadings()
    bound = cfg.gain_bound(mux)

    rows = []
    for direction in cfg.directions():
        if cfg.scheduler == "exact":
            _, r_conv = conventional_schedule_exact(
                realization, pop, sys_cfg, pattern, direction
            )
        else:
            _, r_conv = conventional_schedule_greedy(
                realization, pop, sys_cfg, pattern, direction
            )
        r_grp = evaluate_schedule(
            realization, assignment, sys_cfg, direction, fadings=fadings
        )
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
            try:
                check_exact_budget(k, cfg.num_rbs, mux)
            except ExactSearchBudgetError as exc:
                raise ExactSearchBudgetError(
                    f"{exc} (set scheduler = \"greedy\" in the experiment config)"
                ) from exc
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


def replay_row(cfg: ExperimentConfig, row: ResultRow) -> ResultRow:
    """Recompute a row of a sweep of `cfg` from its own seed. The trial
    reruns under the sweep's own config, so it makes the same Gram
    requests and the row is equal to the original bit for bit."""
    rows = run_trial(cfg, row.m, row.u_mux, row.trial, row.seed)
    return next(r for r in rows if r.direction == row.direction)


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


# ---------------------------------------------------------------------------
# config files: TOML, or JSON with the same keys


def load_config(path: str) -> ExperimentConfig:
    """Read an experiment config from a TOML or JSON file."""
    try:
        with open(path) as fh:
            text = fh.read()
        data = json.loads(text) if path.endswith(".json") else tomllib.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError, tomllib.TOMLDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate every key's type and build the config; bad input raises
    ConfigurationError, never a coercion."""
    if not isinstance(data, dict):
        raise ConfigurationError("a config must be a mapping of keys to values")
    kwargs: dict = {}
    numerology: dict = {}
    for key, value in data.items():
        if key in _NUMEROLOGY_KEYS:
            numerology[key] = _NUMEROLOGY_KEYS[key](key, value)
        elif key in _KEYS:
            kwargs[key] = _KEYS[key](key, value)
        else:
            raise ConfigurationError(f"unknown config key {key!r}")
    if numerology:
        kwargs["numerology"] = replace(lte_numerology(), **numerology)
    return ExperimentConfig(**kwargs)


def _int(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return value


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigurationError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _str(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{key} must be a string, got {value!r}")
    return value


def _int_list(key: str, value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ConfigurationError(f"{key} must be a list of integers, got {value!r}")
    return tuple(_int(key, v) for v in value)


def _parse_group_sizes(key: str, value):
    return value if value == "auto" else _int_list(key, value)


def _parse_fading(key: str, value) -> FadingSpec:
    if isinstance(value, dict):
        unknown = set(value) - {"kind", "value", "spread_db", "values"}
        if unknown:
            raise ConfigurationError(f"unknown fading keys {sorted(unknown)}")
        values = value.get("values", [])
        if not isinstance(values, list):
            raise ConfigurationError(f"fading values must be a list, got {values!r}")
        return FadingSpec(
            kind=_str("fading kind", value.get("kind", "constant")),
            value=_number("fading value", value.get("value", 1.0)),
            spread_db=_number("fading spread_db", value.get("spread_db", 0.0)),
            values=tuple(_number("fading values", v) for v in values),
        )
    if value == "constant":
        return FadingSpec()
    kind, _, arg = _str(key, value).partition(":")
    try:
        if kind == "lognormal":
            return FadingSpec(kind="lognormal", spread_db=_number(key, float(arg)))
        if kind == "explicit":
            vals = tuple(_number(key, float(v)) for v in arg.split(","))
            return FadingSpec(kind="explicit", values=vals)
    except ValueError:
        pass
    raise ConfigurationError(f"cannot parse fading spec {value!r}")


def _parse_profiles(key: str, value):
    if value == "table1":
        return "table1"
    if not isinstance(value, list) or not value:
        raise ConfigurationError(
            "profiles must be \"table1\" or a non-empty list of profile tables"
        )
    # a list of tables (JSON objects) with optional tap tables
    profs = []
    for entry in value:
        if not isinstance(entry, dict) or not _PROFILE_KEYS <= set(entry):
            raise ConfigurationError(
                f"each profile needs {', '.join(sorted(_PROFILE_KEYS))}, got {entry!r}"
            )
        unknown = set(entry) - _PROFILE_KEYS - {"taps"}
        if unknown:
            raise ConfigurationError(f"unknown profile keys {sorted(unknown)}")
        taps = entry.get("taps", [])
        if not isinstance(taps, list) or not all(
            isinstance(t, list) and len(t) == 2 for t in taps
        ):
            raise ConfigurationError(f"profile taps must be [delay_s, power] rows, got {taps!r}")
        profs.append(
            ChannelProfile(
                name=_str("profile name", entry["name"]),
                max_doppler_hz=_number("max_doppler_hz", entry["max_doppler_hz"]),
                max_delay_spread_s=_number("max_delay_spread_s", entry["max_delay_spread_s"]),
                taps=tuple((_number("tap delay", d), _number("tap power", p)) for d, p in taps),
            )
        )
    return tuple(profs)


_PROFILE_KEYS = {"name", "max_doppler_hz", "max_delay_spread_s"}
# config key -> validating parser(key, value)
_KEYS = {
    "m_list": _int_list,
    "u_mux_list": _int_list,
    "group_sizes": _parse_group_sizes,
    "trials": _int,
    "num_rbs": _int,
    "seed": _int,
    "snr_db": _number,
    "ul_power": _number,
    "dl_power": _number,
    "noise_power": _number,
    "direction": _str,
    "scheduler": _str,
    "picker": _str,
    "out": _str,
    "format": _str,
    "fading": _parse_fading,
    "profiles": _parse_profiles,
}
_NUMEROLOGY_KEYS = {
    "symbol_duration_s": _number,
    "subcarrier_spacing_hz": _number,
    "symbols_per_rb": _int,
    "subcarriers_per_rb": _int,
}
