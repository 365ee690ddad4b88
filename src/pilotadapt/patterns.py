"""Statistics profiles, pilot pattern construction, the admissible registry,
and per-group selection.

A profile is a (max Doppler, max delay spread) class with a power-delay
profile. The densest pilot spacing a profile tolerates follows the 2x-Nyquist
rule for band-limited WSS processes:

    spacing_time = floor(1 / (4 * f_doppler * T_symbol))
    spacing_freq = floor(1 / (4 * tau_max  * delta_f))

each clamped to the resource-block grid.

A pattern places pilot clusters on a regular anchor lattice. Every anchor
carries one pilot resource element per multiplexed user, so the total count is

    |P| = ceil(N_s / spacing_t) * ceil(N_sc / spacing_f) * mux_order

Cluster REs are packed contiguously along the frequency axis starting at the
anchor, wrapping into the next symbol column at the grid edge; when clusters
are wider than the anchor spacing the scan simply continues at the next free
RE. The count alone sets the overhead, but the packing moves the rates, since
it decides which REs carry data: `build_pattern` fixes it, and every pinned
output depends on it. A `PilotPattern` refuses positions that repeat or lie
off its grid, and positions that leave no data RE.

Note on the classic 4-layer LTE-Advanced pattern: its 24 pilot REs correspond
to spacing (7, 4) on the 14x12 grid; the worst-case spacing rule at
(300 Hz, 4.69 us) with the same numerology gives (11, 3) and 32 REs instead.
Both are constructible here; the registry defaults to the rule-derived one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .core import Numerology
from .errors import (
    ConfigurationError, InfeasibleRegistryError, NoDataRoomError, UnsupportableProfileError
)


def _tap_row(row) -> tuple[float, float]:
    """A (delay_s, power) tap row as a tuple, if it is a pair of finite numbers."""
    try:
        delay, power = row
        if math.isfinite(delay) and math.isfinite(power):
            return delay, power
    except (TypeError, ValueError):
        pass
    raise ConfigurationError(
        f"taps must be (delay_s, power) pairs of finite numbers, got the row {row!r}"
    )


@dataclass(frozen=True)
class ChannelProfile:
    """Second-order statistics class: Doppler, delay spread, power-delay profile."""

    name: str
    max_doppler_hz: float
    max_delay_spread_s: float
    taps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        # the name is the one free-text field a table writes, unquoted in CSV
        if any(c in self.name for c in ',"\r\n'):
            raise ConfigurationError(f"profile name {self.name!r} holds a comma, quote or newline")
        if self.max_doppler_hz <= 0 or self.max_delay_spread_s <= 0:
            raise ConfigurationError("Doppler and delay spread must be positive")
        # rows held as tuples, so the profile stays hashable and immutable
        # whatever sequences it got; the default is the bracket PDP, equal-power
        # taps at the delay-support endpoints
        taps = tuple(map(_tap_row, self.taps)) or ((0.0, 0.5), (self.max_delay_spread_s, 0.5))
        object.__setattr__(self, "taps", taps)
        total = sum(p for _, p in taps)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError("tap powers must sum to 1")
        for delay, power in taps:
            if delay < 0 or delay > self.max_delay_spread_s + 1e-15:
                raise ConfigurationError("tap delays must lie in [0, max_delay_spread]")
            if power < 0:
                raise ConfigurationError("tap powers must be non-negative")


@dataclass(frozen=True)
class PilotSpacing:
    """Regular pilot spacing in OFDM symbols and subcarriers."""

    time_spacing_symbols: int
    freq_spacing_subcarriers: int

    def __post_init__(self):
        if self.time_spacing_symbols < 1 or self.freq_spacing_subcarriers < 1:
            raise ConfigurationError("pilot spacings must be at least 1")


def _spacing_limit(product: float, grid: int) -> int:
    """floor(1 / product), at most `grid`. A product that underflows to zero
    or to a subnormal whose inverse is infinite tolerates the whole grid, as
    any product below 1 / grid does."""
    x = min(1.0 / product, grid) if product else grid
    # values landing on integers up to float error must not fall one short
    return int(math.floor(x * (1.0 + 1e-12) + 1e-12))


def max_spacing(profile: ChannelProfile, num: Numerology) -> PilotSpacing:
    """Largest pilot spacing the profile tolerates, clamped to the grid."""
    t = _spacing_limit(4.0 * profile.max_doppler_hz * num.symbol_duration_s, num.symbols_per_rb)
    f = _spacing_limit(
        4.0 * profile.max_delay_spread_s * num.subcarrier_spacing_hz, num.subcarriers_per_rb
    )
    if t < 1 or f < 1:
        raise UnsupportableProfileError(
            f"profile {profile.name!r} varies faster than one symbol/subcarrier "
            f"of the numerology (spacings {t}, {f})"
        )
    return PilotSpacing(time_spacing_symbols=t, freq_spacing_subcarriers=f)


def builtin_profiles() -> list[ChannelProfile]:
    """The four standard mobility/dispersion classes used throughout."""
    return [
        ChannelProfile("EPA5", 5.0, 0.41e-6),
        ChannelProfile("EVA70", 70.0, 2.51e-6),
        ChannelProfile("ETU70", 70.0, 4.69e-6),
        ChannelProfile("ETU300", 300.0, 4.69e-6),
    ]


@dataclass(frozen=True)
class PilotPattern:
    """Distinct pilot RE positions on one resource block's grid, leaving data room."""

    spacing: PilotSpacing
    positions: tuple[tuple[int, int], ...]
    mux_order: int
    num_symbols: int
    num_subcarriers: int

    def __post_init__(self):
        grid = {(t, n) for t in range(self.num_symbols) for n in range(self.num_subcarriers)}
        if len(grid.intersection(self.positions)) < self.size:
            raise ConfigurationError(f"pilot positions must be distinct REs of the "
                                     f"{self.num_symbols}x{self.num_subcarriers} grid")
        if self.size == len(grid):
            raise NoDataRoomError("pattern covers every RE of the block")

    @property
    def size(self) -> int:
        return len(self.positions)

    @property
    def overhead_ratio(self) -> float:
        return self.size / (self.num_symbols * self.num_subcarriers)

    def grid_string(self) -> str:
        """Text map, rows = subcarriers (low index on top), columns = symbols."""
        ps = set(self.positions)
        rows = []
        for n in range(self.num_subcarriers):
            rows.append(
                "".join("P" if (t, n) in ps else "." for t in range(self.num_symbols))
            )
        return "\n".join(rows)


@dataclass(frozen=True)
class PatternRegistry:
    """The admissible pattern set: not empty, spacings pairwise distinct."""

    patterns: tuple[PilotPattern, ...]

    def __post_init__(self):
        if not self.patterns:
            raise InfeasibleRegistryError("registry is empty")
        spacings = [p.spacing for p in self.patterns]
        if len(set(spacings)) != len(spacings):
            raise ConfigurationError("registry patterns must have distinct spacings")

    def check_mux_order(self, mux: int) -> None:
        """Raise ConfigurationError unless every pattern is built for `mux` users."""
        orders = sorted({p.mux_order for p in self.patterns})
        if orders != [mux]:
            raise ConfigurationError(f"registry built for mux orders {orders}, not {mux}")


def _anchor_positions(spacing: PilotSpacing, num: Numerology) -> list[tuple[int, int]]:
    n_t = -(-num.symbols_per_rb // spacing.time_spacing_symbols)
    n_f = -(-num.subcarriers_per_rb // spacing.freq_spacing_subcarriers)
    return [
        (a * spacing.time_spacing_symbols, b * spacing.freq_spacing_subcarriers)
        for a in range(n_t)
        for b in range(n_f)
    ]


def _sparsest_first(p: PilotPattern) -> tuple[int, int, int]:
    """Sort key: fewest pilot REs, then larger time, then larger frequency spacing."""
    return (p.size, -p.spacing.time_spacing_symbols, -p.spacing.freq_spacing_subcarriers)


def build_pattern(spacing: PilotSpacing, num: Numerology, mux: int) -> PilotPattern:
    """Place pilot clusters of `mux` REs on the anchor lattice of `spacing`."""
    n_s, n_sc = num.symbols_per_rb, num.subcarriers_per_rb
    if not (1 <= spacing.time_spacing_symbols <= n_s):
        raise ConfigurationError(f"time spacing must lie in [1, {n_s}]")
    if not (1 <= spacing.freq_spacing_subcarriers <= n_sc):
        raise ConfigurationError(f"frequency spacing must lie in [1, {n_sc}]")
    if mux < 1:
        raise ConfigurationError("mux order must be at least 1")

    anchors = _anchor_positions(spacing, num)
    total = len(anchors) * mux
    n_re = num.res_per_rb
    if total >= n_re:
        raise NoDataRoomError(
            f"{total} pilot REs would leave no data room on a {n_s}x{n_sc} block"
        )

    occupied: set[int] = set()
    positions: list[tuple[int, int]] = []
    for t0, n0 in anchors:
        flat = t0 * n_sc + n0
        placed = 0
        while placed < mux:
            idx = flat % n_re
            if idx not in occupied:
                occupied.add(idx)
                positions.append((idx // n_sc, idx % n_sc))
                placed += 1
            flat += 1

    return PilotPattern(
        spacing=spacing,
        positions=tuple(sorted(positions)),
        mux_order=mux,
        num_symbols=n_s,
        num_subcarriers=n_sc,
    )


def conventional_pattern(registry: PatternRegistry) -> PilotPattern:
    """Fixed worst-case pattern: the registry's densest, the last under
    `_sparsest_first`. Ties between equally sized patterns break toward the
    smaller time spacing, then the smaller frequency spacing."""
    return max(registry.patterns, key=_sparsest_first)


def default_registry(
    profiles: Sequence[ChannelProfile], num: Numerology, mux: int
) -> PatternRegistry:
    """One pattern per distinct per-profile spacing, sparsest first."""
    if not profiles:
        raise ConfigurationError("need at least one channel profile")
    spacings = []
    for prof in profiles:
        sp = max_spacing(prof, num)
        if sp not in spacings:
            spacings.append(sp)
    patterns = sorted((build_pattern(sp, num, mux) for sp in spacings), key=_sparsest_first)
    return PatternRegistry(patterns=tuple(patterns))


def select_pattern_for_group(
    registry: PatternRegistry, group_profile: ChannelProfile, num: Numerology
) -> PilotPattern:
    """Sparsest registry pattern that is still dense enough for the profile.

    Feasible patterns have spacings no larger than the profile's maxima on
    both axes; among them the fewest pilot REs wins, ties broken by the larger
    time spacing, then the larger frequency spacing.
    """
    limit = max_spacing(group_profile, num)
    feasible = [
        p
        for p in registry.patterns
        if p.spacing.time_spacing_symbols <= limit.time_spacing_symbols
        and p.spacing.freq_spacing_subcarriers <= limit.freq_spacing_subcarriers
    ]
    if not feasible:
        raise InfeasibleRegistryError(
            f"no registry pattern is feasible for profile {group_profile.name!r}"
        )
    return min(feasible, key=_sparsest_first)


def pattern_to_dict(pattern: PilotPattern) -> dict:
    """JSON-friendly description of a pattern."""
    return {
        "spacing": [
            pattern.spacing.time_spacing_symbols,
            pattern.spacing.freq_spacing_subcarriers,
        ],
        "mux_order": pattern.mux_order,
        "grid": [pattern.num_symbols, pattern.num_subcarriers],
        "size": pattern.size,
        "overhead_ratio": pattern.overhead_ratio,
        "positions": [list(p) for p in pattern.positions],
    }
