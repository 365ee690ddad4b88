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
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channel import ChannelProfile, ChannelRealization
from .core import SystemConfig, UserPopulation
from .errors import ConfigurationError, ExactSearchBudgetError, NoDataRoomError
from .patterns import PatternRegistry, PilotPattern, select_pattern_for_group
from .phy import pair_terms, subset_sinr

# cost cap for the exact DP, in (state, subset) transitions, where one row
# a subset-rate table gathers counts as _TABLE_ROW_COST transitions; K=16
# balanced on 4 RBs costs ~1.8e6, K=20 on 4 RBs x 5 layers ~1.1e8
MAX_DP_TRANSITIONS = 130_000_000
# ~600 ns per gathered pair-term row (168 REs at most) against ~75 ns per
# transition, the slowest of each measured on 2-core x86 at K = 14..20
_TABLE_ROW_COST = 8
# user cap for the exact DP: each stage holds four dense 2^K float64/int64
# arrays, 512 MiB at K = 24, however few transitions the instance has
MAX_DP_USERS = 24
# rows per rates_for_subsets call when filling a subset rate table
_RATE_CHUNK = 512
# (state, subset) transitions max-scattered at once by the exact DP
_DP_CHUNK = 16_384


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
    """Per-RB spectral efficiency of user subsets, from the realization's
    Gram: log2(1 + SINR) of every scheduled user summed over the
    data REs (those outside `pattern`; all of them when it is None) and
    divided by the block's full RE count. The RB's pair terms are built
    once, so each subset costs one gather-sum.

    `users` restricts the pair terms to the users that subsets may contain
    (all of them when None); subsets still name users by id.
    """

    def __init__(
        self,
        realization: ChannelRealization,
        rb: int,
        cfg: SystemConfig,
        pattern: PilotPattern | None,
        direction: str,
        fadings: np.ndarray,
        users: Sequence[int] | None = None,
    ):
        num = realization.numerology
        data = _data_mask(pattern, num.symbols_per_rb, num.subcarriers_per_rb)
        k = realization.num_users
        users = np.arange(k) if users is None else np.asarray(users, dtype=np.intp)
        cross, norms = realization.grams[rb]
        cross, norms = cross[users[:, None], users], norms[users]
        fadings = np.asarray(fadings)[users]
        self._local = np.full(k, -1, dtype=np.intp)  # user id -> row of the pair terms
        self._local[users] = np.arange(len(users))
        self._terms = pair_terms(cross, norms, fadings, cfg, direction, data)
        self._scale = 1.0 / (math.log(2.0) * num.res_per_rb)

    def rates_for_subsets(self, subsets: np.ndarray) -> np.ndarray:
        """RB rates of many equally sized user subsets at once.

        subsets: integer array (batch, subset_size) of user ids; rows of
        size 0 (empty RBs) rate 0.
        """
        subsets = self._local[np.asarray(subsets, dtype=np.intp)]
        if (subsets < 0).any():
            raise ValueError("subset names a user outside the calculator's users")
        sinr = subset_sinr(self._terms, subsets)
        return np.log1p(sinr, out=sinr).sum(axis=(1, 2)) * self._scale


def _data_mask(pattern: PilotPattern | None, n_s: int, n_sc: int) -> np.ndarray:
    mask = np.ones((n_s, n_sc), dtype=bool)
    if pattern is not None:
        for t, n in pattern.positions:
            mask[t, n] = False
        if not mask.any():
            raise NoDataRoomError("pattern covers every RE of the block")
    return mask


def _partition_sizes(k: int, n_rbs: int, mux: int) -> list[int]:
    """Balanced target sizes (used by the greedy baseline)."""
    sizes = []
    left = k
    for r in range(n_rbs):
        take = min(mux, math.ceil(left / (n_rbs - r)))
        sizes.append(take)
        left -= take
    return sizes


def conventional_schedule_exact(
    realization: ChannelRealization,
    pop: UserPopulation,
    cfg: SystemConfig,
    pattern: PilotPattern,
    direction: str,
) -> tuple[ScheduleAssignment, float]:
    """Optimal user partition under the fixed pattern, by a dense subset DP.

    Stage r places users on RB r; a state is the bitmask of users placed so
    far. Each stage holds dense length-2^K arrays (the RB's subset rates, the
    state values and the backpointers), so memory is O(2^K) per stage, and
    the (state, subset) transitions are max-scattered in chunks of at most
    _DP_CHUNK. Only the reached states' chosen subsets outlive their stage.

    Ties go to the first transition in (popcount of the state, state mask,
    subset size, lexicographic subset) order; later transitions must be
    strictly better to replace it.

    Raises ExactSearchBudgetError when the instance exceeds the transition
    budget; callers must switch to the greedy scheduler explicitly.
    """
    k = pop.num_users
    n_rbs, mux = cfg.num_rbs, cfg.max_mux
    check_users_fit(k, n_rbs, mux)
    if k < 1:
        raise ConfigurationError("need at least one user")
    check_exact_budget(k, n_rbs, mux)

    fadings = pop.fadings()
    value = np.full(1 << k, -np.inf)
    value[0] = 0.0
    states = np.zeros(1, dtype=np.int64)
    backs = []  # per stage: (reached state masks ascending, chosen subset masks)
    for stage in range(n_rbs):
        # one stage's pair terms at a time: each RB's are (K, K, data REs)
        calc = RbRateCalculator(realization, stage, cfg, pattern, direction, fadings)
        room = (n_rbs - stage - 1) * mux  # users the later RBs can still take
        value, states, subs = _dp_stage(value, states, calc, k, mux, room)
        backs.append((states, subs))

    mask = full = (1 << k) - 1
    chosen = []
    for reached, subs in reversed(backs):
        sub = int(subs[np.searchsorted(reached, mask)])
        chosen.append(tuple(u for u in range(k) if (sub >> u) & 1))
        mask ^= sub
    assignment = ScheduleAssignment(
        rb_users=tuple(reversed(chosen)),
        rb_patterns=tuple([pattern] * n_rbs),
        rb_groups=tuple([None] * n_rbs),
        mode="conventional",
    )
    return assignment, value[full] / n_rbs


def _dp_stage(value, states, calc, k, mux, room):
    """One RB of the exact DP.

    Gives the RB every subset of each state's free users that leaves at most
    `room` users for the later RBs. Returns the dense next-stage values, the
    reached states in ascending mask order and the subset each one took.
    """
    counts = np.zeros(len(states), dtype=np.int64)
    for u in range(k):
        counts += (states >> u) & 1
    sizes = {
        c: range(max(0, k - c - room), min(mux, k - c) + 1) for c in np.unique(counts).tolist()
    }
    rate = _subset_rates(calc, k, {s for r in sizes.values() for s in r})
    nxt = np.full(1 << k, -np.inf)
    back = np.full(1 << k, -1, dtype=np.int64)
    for c, size_range in sizes.items():
        tables = [_combinations(k - c, s) for s in size_range]
        group = states[counts == c]
        step = max(1, _DP_CHUNK // sum(len(t) for t in tables))
        for lo in range(0, len(group), step):
            _relax(group[lo : lo + step], k, tables, value, rate, nxt, back)
    reached = np.flatnonzero(back >= 0)
    return nxt, reached, back[reached]


def _relax(src, k, tables, value, rate, nxt, back):
    """Max-scatter the transitions of the states `src` (all with the same
    popcount) into `nxt`, recording in `back` the subset of every state whose
    value rose. A transition must beat earlier ones strictly to win."""
    n_free = k - bin(int(src[0])).count("1")
    free = np.empty((len(src), n_free), dtype=np.int64)  # free users' bits, ascending
    rest = ((1 << k) - 1) ^ src
    for j in range(n_free):
        free[:, j] = rest & -rest
        rest ^= free[:, j]
    sub = np.concatenate([free[:, t].sum(axis=2) for t in tables], axis=1)
    new = (src[:, None] | sub).ravel()
    cand = (value[src][:, None] + rate[sub]).ravel()
    sub = sub.ravel()
    before = nxt[new]
    np.maximum.at(nxt, new, cand)
    hit = np.flatnonzero((cand == nxt[new]) & (cand > before))
    won, first = np.unique(new[hit], return_index=True)
    back[won] = sub[hit[first]]


def _combinations(n: int, size: int) -> np.ndarray:
    """All size-subsets of range(n) in lexicographic order, one per row."""
    if size == 0:
        return np.zeros((1, 0), dtype=np.intp)  # one empty subset
    return np.array(list(combinations(range(n), size)), dtype=np.intp)


def _subset_rates(calc: RbRateCalculator, k: int, sizes: set[int]) -> np.ndarray:
    """One RB's rate of every user subset with a size in `sizes`, indexed by
    subset bitmask; 0 for the empty subset and for masks of other sizes."""
    rate = np.zeros(1 << k)
    bits = 1 << np.arange(k)
    for size in sorted(sizes - {0}):
        subsets = _combinations(k, size)
        masks = bits[subsets].sum(axis=1)
        for lo in range(0, len(subsets), _RATE_CHUNK):
            hi = lo + _RATE_CHUNK
            rate[masks[lo:hi]] = calc.rates_for_subsets(subsets[lo:hi])
    return rate


def check_users_fit(k: int, n_rbs: int, mux: int) -> None:
    """Raise ConfigurationError if K users exceed n_rbs RBs x mux layers."""
    if k > n_rbs * mux:
        raise ConfigurationError(f"{k} users cannot fit {n_rbs} RBs x {mux} layers")


def check_exact_budget(k: int, n_rbs: int, mux: int) -> None:
    """Raise ExactSearchBudgetError if the exact DP on K users, n_rbs RBs and
    mux layers would cost more than MAX_DP_TRANSITIONS transitions or need
    dense tables for more than MAX_DP_USERS users."""
    est = _estimate_transitions(k, n_rbs, mux)
    if est > MAX_DP_TRANSITIONS:
        raise ExactSearchBudgetError(
            f"~{est:.0f} DP transitions (subset-rate tables included) exceed the "
            f"budget {MAX_DP_TRANSITIONS}; "
            "use the greedy scheduler"
        )
    if k > MAX_DP_USERS:
        raise ExactSearchBudgetError(
            f"{k} users need DP tables of 2^{k} entries, above 2^{MAX_DP_USERS}; "
            "use the greedy scheduler"
        )


def _estimate_transitions(k: int, n_rbs: int, mux: int) -> float:
    """Count the (state, subset) pairs the DP will visit, plus
    _TABLE_ROW_COST for each of the s^2 pair-term rows that each stage's
    rate table gathers per size-s subset.

    States with c users placed are bounded by C(k, c); subset sizes are
    constrained so the remaining users still fit the remaining RBs.
    """
    total = 0.0
    levels = {0}
    for r in range(n_rbs):
        nxt: set[int] = set()
        sizes: set[int] = set()
        for c in levels:
            free = k - c
            lo = max(0, free - (n_rbs - r - 1) * mux)
            hi = min(mux, free)
            for size in range(lo, hi + 1):
                total += math.comb(k, c) * math.comb(free, size)
                nxt.add(c + size)
                sizes.add(size)
        total += _TABLE_ROW_COST * sum(math.comb(k, s) * s * s for s in sizes)
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
    check_users_fit(k, n_rbs, mux)
    fadings = pop.fadings()
    sizes = _partition_sizes(k, n_rbs, mux)

    remaining = list(range(k))
    chosen: list[tuple[int, ...]] = []
    total = 0.0
    for rb in range(n_rbs):
        # only the users still unscheduled can join this RB
        calc = RbRateCalculator(realization, rb, cfg, pattern, direction, fadings, remaining)
        current: tuple[int, ...] = ()
        current_rate = 0.0
        for _ in range(sizes[rb]):
            cands = calc.rates_for_subsets([current + (u,) for u in remaining])
            best = int(np.argmax(cands - current_rate))  # first maximum: lowest id
            current = tuple(sorted(current + (remaining.pop(best),)))
            current_rate = float(cands[best])
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


def evaluate_schedule(
    realization: ChannelRealization,
    assignment: ScheduleAssignment,
    cfg: SystemConfig,
    direction: str,
    fadings: np.ndarray | None = None,
) -> float:
    """Mean per-RB spectral efficiency of an assignment; `fadings` defaults
    to unit gains."""
    if fadings is None:
        fadings = np.ones(realization.num_users)
    rates = []
    for rb, (users, pattern) in enumerate(zip(assignment.rb_users, assignment.rb_patterns)):
        if len(users) > cfg.max_mux:
            raise ValueError(f"{len(users)} users exceed the multiplexing cap {cfg.max_mux}")
        calc = RbRateCalculator(realization, rb, cfg, pattern, direction, fadings, users)
        rates.append(calc.rates_for_subsets([users])[0])
    return float(np.mean(rates))
