"""User-to-RB scheduling: conventional exact/greedy baselines and grouping mode.

The conventional baseline partitions all users into per-RB sets of size at
most max_mux and maximizes the mean per-RB spectral efficiency under the fixed
worst-case pilot pattern. The exact optimizer is a dynamic program over user
subsets (stage = RB index, state = set of already-scheduled users); it refuses
instances beyond its transition budget instead of silently approximating.

The grouping scheduler pre-assigns RBs to statistics groups with the fixed
fair mapping: group g owns the RB indices in

    ( ceil(N_RB * |G_1..g-1| / K),  ceil(N_RB * |G_1..g| / K) ]

then gives each owned RB the group's registry pattern and a user subset drawn
from that group only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channel import ChannelProfile, ChannelRealization
from .core import SystemConfig, UserPopulation
from .errors import ConfigurationError, ExactSearchBudgetError
from .patterns import PatternRegistry, PilotPattern, select_pattern_for_group
from .phy import RateReport, _data_mask, _rb_sinr, rb_spectral_efficiency, sinr_from_gram

# transition cap for the exact DP; K=16 balanced needs ~1.8e6
MAX_DP_TRANSITIONS = 30_000_000


@dataclass(frozen=True)
class ScheduleAssignment:
    """Per-RB user sets, pilot patterns, and (in grouping mode) group labels."""

    rb_users: tuple[tuple[int, ...], ...]
    rb_patterns: tuple[PilotPattern, ...]
    rb_groups: tuple[int | None, ...]
    mode: str

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "rbs": [
                {
                    "group": g,
                    "spacing": [
                        p.spacing.time_spacing_symbols,
                        p.spacing.freq_spacing_subcarriers,
                    ],
                    "users": list(u),
                }
                for u, p, g in zip(self.rb_users, self.rb_patterns, self.rb_groups)
            ],
        }


class RbRateCalculator:
    """Fast per-RB subset rates from the realization's cached Gram."""

    def __init__(
        self,
        realization: ChannelRealization,
        rb: int,
        cfg: SystemConfig,
        pattern: PilotPattern | None,
        direction: str,
        fadings: np.ndarray,
    ):
        num = realization.numerology
        self._cross, self._norms = realization.gram(rb)
        self._mask = _data_mask(pattern, num.symbols_per_rb, num.subcarriers_per_rb)
        self._n_re = num.res_per_rb
        self._eta = np.asarray(fadings, dtype=float)
        self._cfg = cfg
        self._direction = direction

    def rate(self, users: tuple[int, ...]) -> float:
        if not users:
            return 0.0
        return float(self.rates_for_subsets(np.asarray([users]))[0])

    def rates_for_subsets(self, subsets: np.ndarray) -> np.ndarray:
        """RB rates of many equally sized user subsets at once.

        subsets: integer array (batch, subset_size) of user ids.
        """
        subsets = np.asarray(subsets)
        cross = self._cross[subsets[:, :, None], subsets[:, None, :]]  # (B, s, s, T, N)
        sinr = sinr_from_gram(
            cross, self._norms[subsets], self._eta[subsets], self._cfg, self._direction
        )
        rates = np.log2(1.0 + sinr[:, :, self._mask]).sum(axis=(1, 2))
        return rates / self._n_re


class _SubsetRateTable:
    """Per-RB rates of all user subsets of each size, built lazily and batched."""

    _CHUNK = 512

    def __init__(self, calc: RbRateCalculator, num_users: int):
        self._calc = calc
        self._k = num_users
        self._by_size: dict[int, dict[tuple[int, ...], float]] = {}

    def rate(self, subset: tuple[int, ...]) -> float:
        if not subset:
            return 0.0
        size = len(subset)
        if size not in self._by_size:
            subsets = list(combinations(range(self._k), size))
            rates = np.empty(len(subsets))
            arr = np.asarray(subsets)
            for lo in range(0, len(subsets), self._CHUNK):
                hi = lo + self._CHUNK
                rates[lo:hi] = self._calc.rates_for_subsets(arr[lo:hi])
            self._by_size[size] = dict(zip(subsets, rates))
        return self._by_size[size][subset]


def _partition_sizes(k: int, n_rbs: int, mux: int) -> list[int]:
    """Balanced target sizes (used by the greedy baseline)."""
    sizes = []
    left = k
    for r in range(n_rbs):
        take = min(mux, math.ceil(left / (n_rbs - r)))
        sizes.append(take)
        left -= take
    return sizes


def _make_calculators(realization, cfg, pattern, direction, fadings):
    return [
        RbRateCalculator(realization, rb, cfg, pattern, direction, fadings)
        for rb in range(cfg.num_rbs)
    ]


def conventional_schedule_exact(
    realization: ChannelRealization,
    pop: UserPopulation,
    cfg: SystemConfig,
    pattern: PilotPattern,
    direction: str,
) -> tuple[ScheduleAssignment, float]:
    """Optimal user partition under the fixed pattern, by subset DP.

    Raises ExactSearchBudgetError when the instance exceeds the transition
    budget; callers must switch to the greedy scheduler explicitly.
    """
    k = pop.num_users
    n_rbs, mux = cfg.num_rbs, cfg.max_mux
    if k > n_rbs * mux:
        raise ConfigurationError(f"{k} users cannot fit {n_rbs} RBs x {mux} layers")
    if k < 1:
        raise ConfigurationError("need at least one user")

    est = _estimate_transitions(k, n_rbs, mux)
    if est > MAX_DP_TRANSITIONS:
        raise ExactSearchBudgetError(
            f"~{est:.0f} DP transitions exceed the budget {MAX_DP_TRANSITIONS}; "
            "use the greedy scheduler"
        )

    fadings = pop.fadings()
    calcs = _make_calculators(realization, cfg, pattern, direction, fadings)
    tables = [_SubsetRateTable(c, k) for c in calcs]

    all_users = list(range(k))
    # best[mask] = (value, chosen subsets) with popcount(mask) users placed in
    # the first `stage` RBs
    best: dict[int, tuple[float, tuple[tuple[int, ...], ...]]] = {0: (0.0, ())}
    for stage in range(n_rbs):
        rbs_left_after = n_rbs - stage - 1
        table = tables[stage]
        nxt: dict[int, tuple[float, tuple[tuple[int, ...], ...]]] = {}
        for mask, (value, chosen) in best.items():
            free = [u for u in all_users if not (mask >> u) & 1]
            lo = max(0, len(free) - rbs_left_after * mux)
            hi = min(mux, len(free))
            for size in range(lo, hi + 1):
                for subset in combinations(free, size):
                    sub_mask = mask
                    for u in subset:
                        sub_mask |= 1 << u
                    cand = value + table.rate(subset)
                    cur = nxt.get(sub_mask)
                    if cur is None or cand > cur[0]:
                        nxt[sub_mask] = (cand, chosen + (subset,))
        best = nxt

    full = (1 << k) - 1
    value, chosen = best[full]
    assignment = ScheduleAssignment(
        rb_users=chosen,
        rb_patterns=tuple([pattern] * n_rbs),
        rb_groups=tuple([None] * n_rbs),
        mode="conventional",
    )
    return assignment, value / n_rbs


def _estimate_transitions(k: int, n_rbs: int, mux: int) -> float:
    """Count the (state, subset) pairs the DP will visit.

    States with c users placed are bounded by C(k, c); subset sizes are
    constrained so the remaining users still fit the remaining RBs.
    """
    total = 0.0
    levels = {0}
    for r in range(n_rbs):
        nxt: set[int] = set()
        for c in levels:
            free = k - c
            lo = max(0, free - (n_rbs - r - 1) * mux)
            hi = min(mux, free)
            for size in range(lo, hi + 1):
                total += math.comb(k, c) * math.comb(free, size)
                nxt.add(c + size)
        levels = nxt
    return total


def conventional_schedule_greedy(
    realization: ChannelRealization,
    pop: UserPopulation,
    cfg: SystemConfig,
    pattern: PilotPattern,
    direction: str,
) -> tuple[ScheduleAssignment, float]:
    """Deterministic greedy baseline: fill RBs in order, best marginal user first.

    Ties break toward the lowest user id. The rate never exceeds the exact
    optimum.
    """
    k = pop.num_users
    n_rbs, mux = cfg.num_rbs, cfg.max_mux
    if k > n_rbs * mux:
        raise ConfigurationError(f"{k} users cannot fit {n_rbs} RBs x {mux} layers")
    fadings = pop.fadings()
    calcs = _make_calculators(realization, cfg, pattern, direction, fadings)
    sizes = _partition_sizes(k, n_rbs, mux)

    remaining = list(range(k))
    chosen: list[tuple[int, ...]] = []
    total = 0.0
    for rb in range(n_rbs):
        current: tuple[int, ...] = ()
        current_rate = 0.0
        for _ in range(sizes[rb]):
            best_gain, best_user, best_rate = None, None, None
            for u in remaining:
                cand = calcs[rb].rate(current + (u,))
                gain = cand - current_rate
                if best_gain is None or gain > best_gain:
                    best_gain, best_user, best_rate = gain, u, cand
            current = tuple(sorted(current + (best_user,)))
            current_rate = best_rate
            remaining.remove(best_user)
        chosen.append(current)
        total += current_rate

    assignment = ScheduleAssignment(
        rb_users=tuple(chosen),
        rb_patterns=tuple([pattern] * n_rbs),
        rb_groups=tuple([None] * n_rbs),
        mode="conventional",
    )
    return assignment, total / n_rbs


def group_rb_ownership(pop: UserPopulation, num_rbs: int) -> list[int]:
    """Group label per RB index under the fixed fair pre-assignment."""
    k = pop.num_users
    owners = []
    cum = 0
    bounds = []
    for g in range(pop.num_groups):
        cum += len(pop.groups[g])
        bounds.append(math.ceil(num_rbs * cum / k))
    prev = 0
    for g, b in enumerate(bounds):
        owners.extend([g] * (b - prev))
        prev = b
    if len(owners) != num_rbs:
        raise ConfigurationError("RB pre-assignment did not cover all RBs")
    return owners


def grouping_schedule(
    pop: UserPopulation,
    cfg: SystemConfig,
    registry: PatternRegistry,
    profiles: list[ChannelProfile],
    user_picker: str = "random",
    rng: np.random.Generator | None = None,
) -> ScheduleAssignment:
    """Grouping-based pattern adaptation and scheduling.

    Each owned RB takes min(max_mux, group size) users from its group. The
    random picker deals group members without replacement across the group's
    RBs (re-drawing from the full group only once its members are exhausted,
    never repeating a user within one RB); round_robin cycles members
    deterministically.
    """
    if user_picker not in ("random", "round_robin"):
        raise ConfigurationError(f"unknown user picker {user_picker!r}")
    if user_picker == "random" and rng is None:
        rng = np.random.default_rng(0)

    owners = group_rb_ownership(pop, cfg.num_rbs)
    num = cfg.numerology

    rb_users: list[tuple[int, ...]] = []
    rb_patterns: list[PilotPattern] = []
    pools: dict[int, list[int]] = {}
    for rb, g in enumerate(owners):
        members = list(pop.groups[g])
        if not members:
            raise ConfigurationError(f"group {g} owns RB {rb} but has no users")
        take = min(cfg.max_mux, len(members))
        if g not in pools:
            pools[g] = _shuffled(members, user_picker, rng)
        picked: list[int] = []
        while len(picked) < take:
            if not pools[g]:
                pools[g] = _shuffled(members, user_picker, rng)
            u = pools[g].pop(0)
            if u not in picked:
                picked.append(u)
        rb_users.append(tuple(sorted(picked)))
        rb_patterns.append(select_pattern_for_group(registry, profiles[g], num))

    return ScheduleAssignment(
        rb_users=tuple(rb_users),
        rb_patterns=tuple(rb_patterns),
        rb_groups=tuple(owners),
        mode="grouping",
    )


def _shuffled(members: list[int], picker: str, rng) -> list[int]:
    if picker == "round_robin":
        return list(members)
    order = list(members)
    rng.shuffle(order)
    return order


def rate_report(
    realization: ChannelRealization,
    assignment: ScheduleAssignment,
    cfg: SystemConfig,
    direction: str,
    fadings: np.ndarray | None = None,
    collect_sinr: bool = False,
) -> RateReport:
    """Per-RB spectral efficiencies of an assignment, optionally with SINRs."""
    if fadings is None:
        fadings = np.ones(realization.num_users)
    rates = []
    samples = [] if collect_sinr else None
    for rb, (users, pattern) in enumerate(zip(assignment.rb_users, assignment.rb_patterns)):
        rates.append(
            rb_spectral_efficiency(
                realization, rb, users, pattern, cfg, direction, fadings=fadings
            )
        )
        if collect_sinr:
            samples.append(_rb_sinr(realization, rb, users, cfg, direction, fadings))
    return RateReport(
        rb_rates=tuple(rates),
        direction=direction,
        sinr_samples=tuple(samples) if collect_sinr else None,
    )


def evaluate_schedule(
    realization: ChannelRealization,
    assignment: ScheduleAssignment,
    cfg: SystemConfig,
    direction: str,
    fadings: np.ndarray | None = None,
) -> float:
    """Mean per-RB spectral efficiency of an assignment."""
    report = rate_report(realization, assignment, cfg, direction, fadings=fadings)
    return report.mean_rate
