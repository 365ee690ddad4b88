"""System-wide configuration, user population, and link-budget data.

All types here are immutable after construction and safe to share across
parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class Numerology:
    """OFDM grid geometry of one resource block."""

    symbol_duration_s: float
    subcarrier_spacing_hz: float
    symbols_per_rb: int
    subcarriers_per_rb: int

    def __post_init__(self):
        if self.symbol_duration_s <= 0 or self.subcarrier_spacing_hz <= 0:
            raise ConfigurationError("symbol duration and subcarrier spacing must be positive")
        if self.symbols_per_rb < 1 or self.subcarriers_per_rb < 1:
            raise ConfigurationError("grid dimensions must be at least 1")

    @property
    def res_per_rb(self) -> int:
        return self.symbols_per_rb * self.subcarriers_per_rb


def lte_numerology() -> Numerology:
    """Default grid: 14 symbols x 12 subcarriers, 15 kHz spacing, 1 ms subframe."""
    return Numerology(
        symbol_duration_s=1e-3 / 14,
        subcarrier_spacing_hz=15e3,
        symbols_per_rb=14,
        subcarriers_per_rb=12,
    )


@dataclass(frozen=True)
class SystemConfig:
    """Cell-level parameters shared by every module."""

    num_rbs: int
    num_antennas: int
    max_mux: int
    ul_power: float
    dl_power: float
    noise_power: float
    numerology: Numerology = field(default_factory=lte_numerology)

    def __post_init__(self):
        if self.num_rbs < 1 or self.num_antennas < 1 or self.max_mux < 1:
            raise ConfigurationError("num_rbs, num_antennas and max_mux must be at least 1")
        if min(self.ul_power, self.dl_power, self.noise_power) <= 0:
            raise ConfigurationError("powers must be strictly positive")

    def power(self, direction: str) -> float:
        if direction == "uplink":
            return self.ul_power
        if direction == "downlink":
            return self.dl_power
        raise ConfigurationError(f"unknown direction {direction!r}")


@dataclass(frozen=True)
class FadingSpec:
    """Distribution of the large-scale fading gain (linear power units).

    kind:
        "constant"  -- every user gets `value`.
        "lognormal" -- gain in dB is Gaussian with mean 10*log10(value) and
                       standard deviation `spread_db`.
        "explicit"  -- gains drawn uniformly from `values` (or cycled when a
                       population is built with as many users as values).
    """

    kind: str = "constant"
    value: float = 1.0
    spread_db: float = 0.0
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("constant", "lognormal", "explicit"):
            raise ConfigurationError(f"unknown fading kind {self.kind!r}")
        if self.kind == "explicit":
            if not self.values or min(self.values) <= 0:
                raise ConfigurationError("explicit fading needs positive values")
        elif self.value <= 0:
            raise ConfigurationError("fading gain must be positive")
        if not self.spread_db >= 0.0:
            raise ConfigurationError(f"fading spread_db must be non-negative, got {self.spread_db}")
        try:
            finite = math.isfinite(self.mean())
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigurationError(f"fading spread_db {self.spread_db} makes the mean gain overflow")

    def mean(self) -> float:
        """E[eta] in linear units."""
        if self.kind == "constant":
            return self.value
        if self.kind == "explicit":
            return float(np.mean(self.values))
        # lognormal: eta = value * 10^(spread_db*Z/10)
        s = self.spread_db * math.log(10.0) / 10.0
        return self.value * math.exp(0.5 * s * s)

    def expect(self, func, quad_points: int = 96) -> float:
        """E[func(eta)] via quadrature (lognormal) or direct averaging."""
        if self.kind == "constant":
            return float(func(self.value))
        if self.kind == "explicit":
            return float(np.mean([func(v) for v in self.values]))
        nodes, weights = np.polynomial.hermite_e.hermegauss(quad_points)
        s = self.spread_db * math.log(10.0) / 10.0
        etas = self.value * np.exp(s * nodes)
        vals = np.array([func(e) for e in etas])
        return float(np.sum(weights * vals) / math.sqrt(2.0 * math.pi))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "constant":
            return np.full(n, self.value)
        if self.kind == "explicit":
            if len(self.values) == n:
                return np.asarray(self.values, dtype=float)
            return rng.choice(np.asarray(self.values, dtype=float), size=n, replace=True)
        db = rng.normal(0.0, self.spread_db, size=n)
        return self.value * 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class User:
    id: int
    group_id: int
    large_scale_fading: float

    def __post_init__(self):
        if self.large_scale_fading <= 0:
            raise ConfigurationError("large-scale fading must be positive")


@dataclass(frozen=True)
class UserPopulation:
    """All users of the cell, partitioned into statistics groups."""

    users: tuple[User, ...]
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        ids = [u.id for u in self.users]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate user ids")
        flat = [k for g in self.groups for k in g]
        if sorted(flat) != sorted(ids):
            raise ConfigurationError("groups must partition the user set")

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def fadings(self) -> np.ndarray:
        """Large-scale gains indexed by user id order in `users`."""
        return np.array([u.large_scale_fading for u in self.users])


def build_population(
    group_sizes: Sequence[int],
    fading_spec: FadingSpec,
    seed: int = 0,
) -> UserPopulation:
    """Create users with group labels and large-scale fading gains.

    User ids are 0..K-1, assigned group by group in order.
    """
    if not group_sizes or any(s < 0 for s in group_sizes):
        raise ConfigurationError("group sizes must be non-negative and non-empty")
    total = int(sum(group_sizes))
    if total < 1:
        raise ConfigurationError("population must contain at least one user")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    etas = fading_spec.sample(total, rng)

    users = []
    groups = []
    uid = 0
    for g, size in enumerate(group_sizes):
        members = []
        for _ in range(size):
            users.append(User(id=uid, group_id=g, large_scale_fading=float(etas[uid])))
            members.append(uid)
            uid += 1
        groups.append(tuple(members))
    return UserPopulation(users=tuple(users), groups=tuple(groups))


def group_fractions(pop: UserPopulation) -> tuple[float, ...]:
    """Share of users per group; sums to 1."""
    k = pop.num_users
    return tuple(len(g) / k for g in pop.groups)
