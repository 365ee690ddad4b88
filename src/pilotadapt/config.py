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
from dataclasses import dataclass, field, fields, replace

from .core import FadingSpec, Numerology, SystemConfig, balanced_sizes, lte_numerology
from .errors import ConfigurationError
from .patterns import ChannelProfile, builtin_profiles, default_registry, select_pattern_for_group


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

    def __post_init__(self):
        if self.profiles == "table1":
            object.__setattr__(self, "profiles", tuple(builtin_profiles()))
        if not self.m_list or not self.u_mux_list:
            raise ConfigurationError("m_list and u_mux_list must be non-empty")
        for key in ("m_list", "u_mux_list"):
            values = getattr(self, key)
            if min(values) < 1:
                raise ConfigurationError(f"every {key} entry must be at least 1")
            if repeated := sorted({v for v in values if values.count(v) > 1}):
                raise ConfigurationError(f"{key} repeats {repeated}: its entries must be distinct")
        if self.num_rbs < 1:
            raise ConfigurationError("num_rbs must be at least 1")
        if self.trials < 1:
            raise ConfigurationError("trials must be at least 1")
        if self.direction not in ("uplink", "downlink", "both"):
            raise ConfigurationError(f"unknown direction {self.direction!r}")
        if self.scheduler not in ("exact", "greedy"):
            raise ConfigurationError(f"unknown scheduler {self.scheduler!r}")
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

    def gain_bound(self, mux: int) -> float:
        """The gain bound at mux order `mux`: each group's share of
        `sizes_for(mux)` against the overhead of the pattern it is given in
        the `default_registry` of that order."""
        from .asymptotics import gain_bound

        registry = default_registry(self.profiles, self.numerology, mux)
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
    """Read an experiment config from a TOML or JSON file. A key given twice
    in one table or object is refused in either format."""
    try:
        with open(path) as fh:
            text = fh.read()
        if path.endswith(".json"):
            data = json.loads(text, object_pairs_hook=_json_object)
        else:
            data = tomllib.loads(text)
    except ValueError as exc:  # undecodable text, bad JSON or TOML, or a repeated key
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def _json_object(pairs: list) -> dict:
    """One JSON object's (key, value) pairs as a dict; a repeated key is
    refused (ValueError), where `json` would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate every key's type and build the config; bad input raises
    ConfigurationError, never a coercion."""
    kwargs = _table("config", data, _KEYS)
    numerology = {f.name: kwargs.pop(f.name) for f in fields(Numerology) if f.name in kwargs}
    if numerology:
        kwargs["numerology"] = replace(lte_numerology(), **numerology)
    return ExperimentConfig(**kwargs)


def _table(name: str, value, parsers: dict, required=()) -> dict:
    """Each key of the table `value` run through its parser(label, value),
    with the key as label at the top level and `name key` in a nested
    table. A value that is not a table, an unknown key and a missing
    required key are refused; a key left out keeps its dataclass default."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{name} must be a table of keys to values, got {value!r}")
    if unknown := sorted(set(value) - set(parsers)):
        raise ConfigurationError(f"unknown {name} keys {unknown}")
    if missing := [key for key in required if key not in value]:
        raise ConfigurationError(f"missing {name} keys {missing} in {value!r}")
    prefix = "" if name == "config" else f"{name} "
    return {key: parsers[key](prefix + key, v) for key, v in value.items()}


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


def _tap(key: str, value) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigurationError(f"{key} must be [delay_s, power] rows, got the row {value!r}")
    return _number("tap delay", value[0]), _number("tap power", value[1])


def _list(item, items: str):
    """The parser of a list whose entries `item` parses; `items` names them."""

    def parse(key: str, value) -> tuple:
        if not isinstance(value, list):
            raise ConfigurationError(f"{key} must be a list of {items}, got {value!r}")
        return tuple(item(key, v) for v in value)

    return parse


_int_list = _list(_int, "integers")


def _parse_group_sizes(key: str, value):
    return value if value == "auto" else _int_list(key, value)


def _parse_fading(key: str, value) -> FadingSpec:
    if isinstance(value, str):  # a kind name stands for the table {kind = name}
        value = {"kind": value}
    return FadingSpec(**_table("fading", value, _FADING_KEYS))


def _parse_profiles(key: str, value):
    if value == "table1":
        return "table1"
    if not isinstance(value, list) or not value:
        raise ConfigurationError(
            "profiles must be \"table1\" or a non-empty list of profile tables"
        )
    profs = []
    for entry in value:
        kwargs = _table("profile", entry, _PROFILE_KEYS, required=_PROFILE_REQUIRED)
        if kwargs.get("taps") == ():
            raise ConfigurationError(f"profile {kwargs['name']!r} has an empty tap table")
        profs.append(ChannelProfile(**kwargs))
    return tuple(profs)


# config key -> validating parser(key, value); the Numerology fields set
# the config's numerology
_KEYS = {
    **dict.fromkeys(("m_list", "u_mux_list"), _int_list),
    **dict.fromkeys(("trials", "num_rbs", "seed", "symbols_per_rb", "subcarriers_per_rb"), _int),
    **dict.fromkeys(("snr_db", "ul_power", "dl_power", "noise_power", "symbol_duration_s",
                     "subcarrier_spacing_hz"), _number),
    **dict.fromkeys(("direction", "scheduler", "picker"), _str),
    "group_sizes": _parse_group_sizes,
    "fading": _parse_fading,
    "profiles": _parse_profiles,
}
_FADING_KEYS = {
    "kind": _str,
    "value": _number,
    "spread_db": _number,
    "values": _list(_number, "numbers"),
}
_PROFILE_KEYS = {
    "name": _str,
    "max_doppler_hz": _number,
    "max_delay_spread_s": _number,
    "taps": _list(_tap, "[delay_s, power] rows"),
}
_PROFILE_REQUIRED = ("name", "max_doppler_hz", "max_delay_spread_s")
