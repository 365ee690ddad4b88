"""Pilot pattern construction, the admissible registry, and per-group selection.

A pattern places pilot clusters on a regular anchor lattice. Every anchor
carries one pilot resource element per multiplexed user, so the total count is

    |P| = ceil(N_s / spacing_t) * ceil(N_sc / spacing_f) * mux_order

Cluster REs are packed contiguously along the frequency axis starting at the
anchor, wrapping into the next symbol column at the grid edge; when clusters
are wider than the anchor spacing the scan simply continues at the next free
RE. Only the count and the anchor spacing affect overhead and spectral
efficiency, so any deterministic packing is equivalent.

Note on the classic 4-layer LTE-Advanced pattern: its 24 pilot REs correspond
to spacing (7, 4) on the 14x12 grid; the worst-case spacing rule at
(300 Hz, 4.69 us) with the same numerology gives (11, 3) and 32 REs instead.
Both are constructible here; the registry defaults to the rule-derived one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import ChannelProfile, PilotSpacing, max_spacing
from .core import Numerology
from .errors import ConfigurationError, InfeasibleRegistryError, NoDataRoomError


@dataclass(frozen=True)
class PilotPattern:
    """A set of pilot RE positions on one resource block."""

    spacing: PilotSpacing
    positions: tuple[tuple[int, int], ...]
    mux_order: int
    num_symbols: int
    num_subcarriers: int

    @property
    def size(self) -> int:
        return len(self.positions)

    @property
    def overhead_ratio(self) -> float:
        return self.size / (self.num_symbols * self.num_subcarriers)

    def position_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.positions)

    def grid_string(self) -> str:
        """Text map, rows = subcarriers (low index on top), columns = symbols."""
        ps = self.position_set()
        rows = []
        for n in range(self.num_subcarriers):
            rows.append(
                "".join("P" if (t, n) in ps else "." for t in range(self.num_symbols))
            )
        return "\n".join(rows)


@dataclass(frozen=True)
class PatternRegistry:
    """The admissible pattern set; spacings are pairwise distinct."""

    patterns: tuple[PilotPattern, ...]

    def __post_init__(self):
        spacings = [p.spacing for p in self.patterns]
        if len(set(spacings)) != len(spacings):
            raise ConfigurationError("registry patterns must have distinct spacings")

    @property
    def size(self) -> int:
        return len(self.patterns)


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
    if not registry.patterns:
        raise InfeasibleRegistryError("registry is empty")
    return max(registry.patterns, key=_sparsest_first)


def default_registry(
    profiles: list[ChannelProfile], num: Numerology, mux: int
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
    if not registry.patterns:
        raise InfeasibleRegistryError("registry is empty")
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


def group_overheads(
    registry: PatternRegistry, profiles: list[ChannelProfile], num: Numerology
) -> list[float]:
    """Pilot overhead ratio of each group's selected pattern, in profile order."""
    return [select_pattern_for_group(registry, p, num).overhead_ratio for p in profiles]


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
