"""System-wide configuration, user population, and link-budget data.

All types here are immutable after construction and safe to share across
parallel workers. numpy is imported only inside the code that computes with
it, so `patterns`, and `asymptotics` at constant fading, never load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Sequence

from .errors import ConfigurationError

if TYPE_CHECKING:  # annotations only: the profiles live in `patterns`
    from .patterns import ChannelProfile

# Gauss-Hermite nodes of `FadingSpec.expect` over a lognormal fading spread
_QUAD_POINTS = 96
# the `FadingSpec` fields each fading kind reads; the others keep their defaults
_FADING_READS = {
    "constant": ("value",),
    "lognormal": ("value", "spread_db"),
    "explicit": ("values",),
}


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
        for key in ("ul_power", "dl_power", "noise_power"):
            if not 0 < (value := getattr(self, key)) < math.inf:
                raise ConfigurationError(f"{key} must be finite and positive, got {value!r}")

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
        "explicit"  -- gains drawn uniformly from `values`, or `values` in
                       order when a population has as many users as values.
    A field that the kind does not read must keep its default.
    """

    kind: str = "constant"
    value: float = 1.0
    spread_db: float = 0.0
    values: tuple[float, ...] = ()

    def __post_init__(self):
        # held as a tuple, so the spec stays hashable and immutable whatever
        # sequence it got
        try:
            object.__setattr__(self, "values", tuple(self.values))
        except TypeError:
            raise ConfigurationError(
                f"fading values must be a sequence of numbers, got {self.values!r}"
            ) from None
        reads = _FADING_READS.get(self.kind)
        if reads is None:
            raise ConfigurationError(f"unknown fading kind {self.kind!r}")
        for f in fields(self)[1:]:  # the fields after `kind`
            if f.name not in reads and (got := getattr(self, f.name)) != f.default:
                raise ConfigurationError(f"{self.kind} fading does not read {f.name}, got {got}")
        if self.kind == "explicit":
            if not self.values:
                raise ConfigurationError("explicit fading needs at least one value")
            try:
                valid = all(v > 0 and math.isfinite(v) for v in self.values)
            except TypeError:  # a value that is not a number
                valid = False
            if not valid:
                raise ConfigurationError(
                    f"explicit fading values must be finite and positive, got {self.values}"
                )
        elif not (self.value > 0 and math.isfinite(self.value)):
            raise ConfigurationError(f"fading value must be finite and positive, got {self.value}")
        if not self.spread_db >= 0.0:
            raise ConfigurationError(f"fading spread_db must be non-negative, got {self.spread_db}")
        try:
            finite = math.isfinite(self.mean())
        except OverflowError:
            finite = False
        if not finite:
            source = "values" if self.kind == "explicit" else "spread_db"
            raise ConfigurationError(
                f"the mean gain of fading {source} {getattr(self, source)} overflows"
            )

    def mean(self) -> float:
        """E[eta] in linear units."""
        if self.kind == "constant":
            return self.value
        if self.kind == "explicit":
            return math.fsum(self.values) / len(self.values)
        # lognormal, eta = value * 10^(spread_db*Z/10)
        s = self.spread_db * math.log(10.0) / 10.0
        return self.value * math.exp(0.5 * s * s)

    def expect(self, func) -> float:
        """E[func(eta)] via quadrature (lognormal) or direct averaging."""
        if self.kind == "constant":
            return float(func(self.value))
        import numpy as np

        if self.kind == "explicit":
            return float(np.mean([func(v) for v in self.values]))
        nodes, weights = np.polynomial.hermite_e.hermegauss(_QUAD_POINTS)
        s = self.spread_db * math.log(10.0) / 10.0
        etas = self.value * np.exp(s * nodes)
        vals = np.array([func(e) for e in etas])
        return float(np.sum(weights * vals) / math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class UserPopulation:
    """Users 0..K-1 of the cell: the statistics groups that partition them,
    each user's large-scale fading gain (linear power units), and group g's
    channel profile profiles[g]."""

    groups: tuple[tuple[int, ...], ...]
    gains: tuple[float, ...]
    profiles: tuple[ChannelProfile, ...]

    def __post_init__(self):
        k = len(self.gains)
        if k < 1:
            raise ConfigurationError("population must contain at least one user")
        if sorted(u for g in self.groups for u in g) != list(range(k)):
            raise ConfigurationError(f"groups {self.groups} must partition users 0..{k - 1}")
        if len(self.profiles) != len(self.groups):
            raise ConfigurationError(f"{len(self.groups)} groups but {len(self.profiles)} profiles")
        bad = [g for g in self.gains if not (g > 0 and math.isfinite(g))]
        if bad:
            raise ConfigurationError(f"large-scale gains must be finite and positive, got {bad}")

    @property
    def num_users(self) -> int:
        return len(self.gains)


def balanced_sizes(total: int, parts: int) -> list[int]:
    """`total` split into `parts` sizes within one of each other, larger first."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def build_population(
    group_sizes: Sequence[int],
    profiles: Sequence[ChannelProfile],
    fading_spec: FadingSpec,
    seed: int,
) -> UserPopulation:
    """Users 0..K-1, numbered group by group in order, with large-scale
    fading gains drawn from `fading_spec`; group g has profiles[g]."""
    import numpy as np

    if any(s < 0 for s in group_sizes):
        raise ConfigurationError(f"group sizes must be non-negative, got {list(group_sizes)}")
    ends = list(itertools.accumulate(group_sizes, initial=0))
    k, kind = ends[-1], fading_spec.kind
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if kind == "constant":
        gains = np.full(k, fading_spec.value)
    elif kind == "explicit":
        values = np.asarray(fading_spec.values, dtype=float)
        gains = values if len(values) == k else rng.choice(values, size=k, replace=True)
    else:
        db = rng.normal(0.0, fading_spec.spread_db, size=k)
        gains = fading_spec.value * 10.0 ** (db / 10.0)
    return UserPopulation(
        groups=tuple(tuple(range(a, b)) for a, b in zip(ends, ends[1:])),
        gains=tuple(map(float, gains)),
        profiles=tuple(profiles),
    )
