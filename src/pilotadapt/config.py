"""Experiment configuration: the sweep schema and config-file reading.

A config is TOML, or JSON with the same keys (see README for the key
reference). Every value is type-checked, never coerced; bad input raises
ConfigurationError. This module imports no scheduling, sweep or estimation
code, so a command that only reads a config and builds patterns loads none.
"""

from __future__ import annotations

import json
import math
import tomllib
from dataclasses import dataclass, field, replace

from .core import FadingSpec, Numerology, SystemConfig, balanced_sizes, lte_numerology
from .errors import ConfigurationError
from .patterns import ChannelProfile, PatternRegistry, builtin_profiles, select_pattern_for_group


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
    profiles: str | tuple[ChannelProfile, ...] = "table1"  # "table1": builtin_profiles()
    fading: FadingSpec = field(default_factory=FadingSpec)
    numerology: Numerology = field(default_factory=lte_numerology)
    seed: int = 0
    out: str | None = None
    format: str | None = None  # None: each command's own default

    def __post_init__(self):
        if self.profiles == "table1":
            object.__setattr__(self, "profiles", tuple(builtin_profiles()))
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
        profs = self.profiles
        if not (isinstance(profs, (tuple, list)) and profs) or not all(
            isinstance(p, ChannelProfile) for p in profs
        ):
            raise ConfigurationError(f'profiles must be "table1" or ChannelProfiles, got {profs!r}')
        sizes = self.sizes_for(1)
        groups, profiles = len(sizes), len(self.profiles)
        if groups != profiles:
            raise ConfigurationError(
                f"group_sizes gives {groups} sizes but profiles has {profiles} entries; "
                "give one group size per profile"
            )
        if min(sizes) < 0 or sum(sizes) < 1:
            raise ConfigurationError(
                f"group_sizes must be non-negative with at least one user, got {sizes}"
            )
        for key in ("ul_power", "dl_power"):
            if not 0 < (value := getattr(self, key)) < math.inf:
                raise ConfigurationError(f"{key} must be finite and positive, got {value!r}")
        noise = self.derived_noise_power()
        if not (math.isfinite(noise) and noise > 0.0):
            raise ConfigurationError(
                f"noise power must be finite and positive, got {noise} "
                f"(snr_db = {self.snr_db}, noise_power = {self.noise_power})"
            )

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
        return balanced_sizes(self.num_rbs * mux, len(self.profiles))

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

    def gain_bound(self, mux: int, registry: PatternRegistry) -> float:
        """The gain bound at mux order `mux` for `registry`, the
        `default_registry` of that order: each group's share of
        `sizes_for(mux)` against the overhead of the registry pattern it is
        given."""
        from .asymptotics import gain_bound

        registry.check_mux_order(mux)
        sizes = self.sizes_for(mux)
        k = sum(sizes)
        return gain_bound(
            [size / k for size in sizes],
            [
                select_pattern_for_group(registry, p, self.numerology).overhead_ratio
                for p in self.profiles
            ],
        )

    def directions(self) -> list[str]:
        if self.direction == "both":
            return ["uplink", "downlink"]
        return [self.direction]


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
        if not isinstance(taps, list) or not all(isinstance(t, list) and len(t) == 2 for t in taps):
            raise ConfigurationError(f"profile taps must be [delay_s, power] rows, got {taps!r}")
        if "taps" in entry and not taps:
            raise ConfigurationError(f"profile {entry['name']!r} has an empty tap table")
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
