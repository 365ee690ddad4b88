"""User-to-RB scheduling: conventional exact/greedy baselines and grouping mode.

Every scheduler returns a `ScheduleAssignment`, and `evaluate_schedule`
rates any of them: it is the one function that gives a schedule's rate.

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

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations, groupby

import numpy as np

from .channel import ChannelRealization, integer_ids
from .core import SystemConfig, UserPopulation, balanced_sizes
from .errors import ConfigurationError, ExactSearchBudgetError
from .patterns import PatternRegistry, PilotPattern, select_pattern_for_group
from .phy import pair_terms, subset_sinr

# cost cap for the exact DP, in (state, subset) transitions, where one row
# a subset-rate table gathers counts as _TABLE_ROW_COST transitions; K=16
# balanced on 4 RBs costs ~3.2e6 and K=20 on 4 RBs x 5 layers ~1.12e8, which
# fits, while K=16 on 3 RBs x 10 layers (~1.7e8) does not
MAX_DP_TRANSITIONS = 130_000_000
# in the table-heavy calls near the cap a gathered pair-term row took 150-195
# ns (159 pooled) against 12-14 ns (12.7) per transition, on 2-core x86 at
# K = 14..20; rows of smaller subsets cost more each (~570 ns at 3 users),
# but their tables are small
_TABLE_ROW_COST = 12
# user cap for the exact DP: each stage holds three dense 2^K float64 arrays
# and a 2^K-byte popcount table, ~400 MiB at K = 24, however few transitions
# the instance has
MAX_DP_USERS = 24
# rows per rates_for_subsets call when filling a subset rate table: a
# (rows, s, REs) buffer that stays in cache; 64..128 rows were fastest and
# 512 ~1.5x slower at K = 16 and 20
_RATE_CHUNK = 128
# (target state, candidate subset) pairs the exact DP compares at once
_DP_CHUNK = 16_384


@dataclass(frozen=True)
class ScheduleAssignment:
    """Per-RB user sets, pilot patterns and group labels. A conventional
    schedule labels every RB None; a grouping schedule names each RB's
    owning group. No RB lists a user twice, but a user may sit on several."""

    rb_users: tuple[tuple[int, ...], ...]
    rb_patterns: tuple[PilotPattern, ...]
    rb_groups: tuple[int | None, ...]

    def __post_init__(self):
        if not len(self.rb_users) == len(self.rb_patterns) == len(self.rb_groups):
            raise ValueError("rb_users, rb_patterns and rb_groups differ in length")
        if any(len(set(users)) < len(users) for users in self.rb_users):
            raise ValueError(f"an RB lists a user twice: {self.rb_users}")

    def to_dict(self) -> dict:
        conventional = all(g is None for g in self.rb_groups)
        return {
            "mode": "conventional" if conventional else "grouping",
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
    Gram: log2(1 + SINR) of every scheduled user summed over the data
    REs (those outside `pattern`) and divided by the block's full RE
    count. The RB's pair terms are built once, so each subset costs one
    gather-sum. It reads only the realization's `cfg` (numerology, powers
    and noise), `gains`, `num_users` and `gram`, and refuses a pattern built
    for another grid than the numerology's before it asks for a Gram.

    `users` restricts the pair terms to the users that subsets may contain
    (all of them when None); subsets name users by id, and any other id is
    refused, as is an id that is not an integer. Neither `users` nor a subset
    may name a user twice, and a subset may hold at most the pattern's
    `mux_order` users, one per pilot layer.
    """

    def __init__(
        self,
        realization: ChannelRealization,
        rb: int,
        pattern: PilotPattern,
        direction: str,
        users: Sequence[int] | None = None,
    ):
        cfg, num = realization.cfg, realization.cfg.numerology
        grid = (num.symbols_per_rb, num.subcarriers_per_rb)
        if (pattern.num_symbols, pattern.num_subcarriers) != grid:
            raise ValueError(f"pattern built for a {pattern.num_symbols}x{pattern.num_subcarriers}"
                             f" grid, but the realization's is {grid[0]}x{grid[1]}")
        if users is not None and len(set(users)) < len(users):
            raise ValueError(f"users name a user twice: {list(users)}")
        data = _data_mask(pattern)
        k = realization.num_users
        cross, norms = realization.gram(rb, users)
        users = np.arange(k) if users is None else np.asarray(users, dtype=np.intp)
        fadings = np.asarray(realization.gains)[users]
        # user id -> row of the pair terms, and slot k, no row, for other ids
        self._local = np.full(k + 1, -1, dtype=np.intp)
        self._local[users] = np.arange(len(users))
        self._power = cfg, direction  # named if a rate overflows
        self._mux = pattern.mux_order
        try:
            with np.errstate(over="raise", invalid="raise"):
                self._terms = pair_terms(cross, norms, fadings, cfg, direction, data)
        except FloatingPointError as exc:
            raise power_error(*self._power, f"rates are not finite ({exc})") from exc
        self._scale = 1.0 / (math.log(2.0) * num.res_per_rb)

    def rates_for_subsets(self, subsets: np.ndarray) -> np.ndarray:
        """RB rates of many equally sized user subsets at once.

        subsets: integer array (batch, subset_size) of user ids; rows of
        size 0 (empty RBs) rate 0.
        """
        # viewed unsigned, a negative id exceeds k, so one minimum sends every id
        # outside 0..k-1 to slot k
        ids = integer_ids(subsets).astype(np.intp, copy=False).view(np.uintp)
        subsets = self._local[np.minimum(ids, len(self._local) - 1)]
        if (subsets < 0).any():
            raise ValueError("subset names a user outside the calculator's users")
        # a row of distinct users equals itself only on the diagonal
        if np.count_nonzero(subsets[:, :, None] == subsets[:, None, :]) > subsets.size:
            raise ValueError("a subset names a user twice")
        if subsets.shape[1] > self._mux:
            raise ValueError(f"subsets of {subsets.shape[1]} users exceed the pattern's "
                             f"mux order {self._mux}")
        try:
            with np.errstate(over="raise", invalid="raise"):
                sinr = subset_sinr(self._terms, subsets)
                return np.log1p(sinr, out=sinr).sum(axis=(1, 2)) * self._scale
        except FloatingPointError as exc:
            raise power_error(*self._power, f"rates are not finite ({exc})") from exc


def power_error(cfg: SystemConfig, direction: str, problem: str, fix: str = "lower"):
    """The ConfigurationError for rates that the direction's power and the
    noise power put out of range. It names both, and says to `fix` ("lower"
    or "raise") the power or to do the opposite to the noise power."""
    key = "ul_power" if direction == "uplink" else "dl_power"
    undo = "raise" if fix == "lower" else "lower"
    return ConfigurationError(
        f"the {direction} {problem} at {key} = {cfg.power(direction)!r} and "
        f"noise_power = {cfg.noise_power!r}; {fix} {key} or {undo} noise_power"
    )


def _data_mask(pattern: PilotPattern) -> np.ndarray:
    mask = np.ones((pattern.num_symbols, pattern.num_subcarriers), dtype=bool)
    for t, n in pattern.positions:
        mask[t, n] = False
    return mask


def conventional_schedule_exact(
    realization: ChannelRealization, pattern: PilotPattern, direction: str
) -> ScheduleAssignment:
    """Optimal partition of the realization's users over its RBs under the
    fixed pattern, by a dense subset DP.

    Stage r places users on RB r; a state is the bitmask of users placed so
    far. Each stage holds dense length-2^K arrays (the RB's subset rates and
    the state values), so memory is O(2^K) per stage. The DP pulls: every
    state the stage can reach takes the best value[state ^ sub] + rate[sub]
    over its candidate subsets, gathered for a chunk of states of one
    popcount as a dense (states, candidates) block of at most _DP_CHUNK
    entries (one state's candidates when they are more). Only the states'
    chosen subsets outlive their stage.

    Ties go to the first transition in (popcount of the state, state mask,
    subset size, lexicographic subset) order; later transitions must be
    strictly better to replace it. Each state's candidates are ordered so
    that the first maximum of its row is that transition.

    Raises ExactSearchBudgetError when the instance exceeds the transition
    budget; callers must switch to the greedy scheduler explicitly.
    """
    k = realization.num_users
    n_rbs, mux = realization.cfg.num_rbs, realization.cfg.max_mux
    check_users_fit(k, n_rbs, mux)
    check_exact_budget(k, n_rbs, mux)

    popcount = _popcounts(k)
    value = np.full(1 << k, -np.inf)
    value[0] = 0.0
    backs = []  # per stage: {popcount: (state masks ascending, chosen subset masks)}
    for stage, plan in enumerate(_stage_plan(k, n_rbs, mux)):
        # one stage's pair terms at a time: each RB's are (K, K, data REs)
        calc = RbRateCalculator(realization, stage, pattern, direction)
        value, back = _dp_stage(value, plan, popcount, calc, k)
        backs.append(back)

    mask = (1 << k) - 1
    chosen = []
    for back in reversed(backs):
        states, subs = back[int(popcount[mask])]
        sub = int(subs[np.searchsorted(states, mask)])
        chosen.append(tuple(u for u in range(k) if (sub >> u) & 1))
        mask ^= sub
    return _conventional(chosen[::-1], pattern)


def _conventional(rb_users: list[tuple[int, ...]], pattern: PilotPattern) -> ScheduleAssignment:
    """The conventional schedule of per-RB user sets: `pattern`, no group."""
    n_rbs = len(rb_users)
    return ScheduleAssignment(tuple(rb_users), (pattern,) * n_rbs, (None,) * n_rbs)


def _stage_plan(k: int, n_rbs: int, mux: int) -> list[dict[int, list[int]]]:
    """Per RB r of the exact DP, {popcount p of a state: the sizes of the
    subsets it takes on RB r, descending}, in ascending p. Before RB r every
    count c of placed users in [max(0, k - (n_rbs - r) * mux), min(k, r * mux)]
    is reached; RB r takes at most mux users and leaves the later RBs no more
    than they can take."""
    plan = []
    for r in range(n_rbs):
        lo, hi = max(0, k - (n_rbs - r) * mux), min(k, r * mux)
        targets = range(max(lo, k - (n_rbs - r - 1) * mux), min(hi + mux, k) + 1)
        # a state of p users came from one of c in [lo, hi], by p - c <= mux
        plan.append({p: list(range(min(p - lo, mux), max(p - hi, 0) - 1, -1)) for p in targets})
    return plan


def _dp_stage(value, plan, popcount, calc, k):
    """One RB of the exact DP, in pull form.

    Every state of a popcount p in `plan` (the RB's `_stage_plan` entry)
    takes the best value[state ^ sub] + rate[sub] over its subsets `sub` of
    the sizes in plan[p]. Returns the dense next-stage values and, per
    popcount p, the states in ascending mask order with the subset each one
    took.
    """
    rate = _subset_rates(calc, k, set().union(*plan.values()))
    nxt = np.full(1 << k, -np.inf)
    back = {}
    for p, size_list in plan.items():
        targets = np.flatnonzero(popcount == p)
        # each size's subsets of range(p) as 0/1 columns, in descending mask order
        masks = np.concatenate([_subset_table(p, s)[1][::-1] for s in size_list])
        members = (masks >> np.arange(p)[:, None] & 1).astype(float)
        step = max(1, _DP_CHUNK // members.shape[1])
        subs = [
            _pull(targets[lo : lo + step], members, value, rate, nxt)
            for lo in range(0, len(targets), step)
        ]
        back[p] = (targets, np.concatenate(subs))
    return nxt, back


def _pull(targets, members, value, rate, nxt):
    """Write into `nxt` the best transition into each of `targets` (states
    of one popcount p) and return the subset each one took.

    Column i of `members` (p, candidates) selects the state bits of candidate
    subset i. The candidates run by subset size descending, then subset mask
    descending, i.e. by (popcount of the source state, source mask)
    ascending, and the first maximum wins."""
    bits = np.empty((len(targets), len(members)))  # the states' bits, ascending
    rest = targets.copy()
    for j in range(len(members)):
        low = rest & -rest
        bits[:, j] = low
        rest ^= low
    # sums of distinct powers of two below 2^53 are exact in float64
    sub = (bits @ members).astype(np.int64)
    cand = value[targets[:, None] ^ sub]
    cand += rate[sub]
    rows, pick = np.arange(len(targets)), cand.argmax(axis=1)
    nxt[targets] = cand[rows, pick]
    return sub[rows, pick]


def _popcounts(k: int) -> np.ndarray:
    """Number of set bits of every mask below 2^k."""
    count = np.zeros(1 << k, dtype=np.uint8)
    for u in range(k):
        count[1 << u : 2 << u] = count[: 1 << u] + 1
    return count


# the exact DP asks for the same (k, size) tables at every stage of every
# call, for its rate tables and its candidate blocks alike; 256 entries hold
# all of a call's when (K + 1) x (mux + 1) <= 256
@functools.lru_cache(maxsize=256)
def _subset_table(k: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """All size-subsets of range(k), one ascending row each, and the bitmask
    of each row, read-only and in ascending mask order; size 0 gives one
    empty row."""
    subsets = np.array(list(combinations(range(k), size)), dtype=np.intp)
    masks = (1 << np.arange(k))[subsets].sum(axis=1)
    order = np.argsort(masks)
    subsets, masks = subsets[order], masks[order]
    subsets.flags.writeable = masks.flags.writeable = False
    return subsets, masks


def _subset_rates(calc: RbRateCalculator, k: int, sizes: set[int]) -> np.ndarray:
    """One RB's rate of every user subset with a size in `sizes`, indexed by
    subset bitmask; 0 for the empty subset and for masks of other sizes."""
    rate = np.zeros(1 << k)
    for size in sorted(sizes - {0}):
        subsets, masks = _subset_table(k, size)
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
        problem = (f"~{est:.0f} DP transitions (subset-rate tables included) exceed the "
                   f"budget {MAX_DP_TRANSITIONS}")
    elif k > MAX_DP_USERS:
        problem = f"{k} users need DP tables of 2^{k} entries, above 2^{MAX_DP_USERS}"
    else:
        return
    raise ExactSearchBudgetError(
        f'{problem}; use the greedy scheduler (set scheduler = "greedy" in the experiment config)'
    )


def _estimate_transitions(k: int, n_rbs: int, mux: int) -> int:
    """Count the (state, subset) pairs the DP will visit, plus
    _TABLE_ROW_COST for each of the s^2 pair-term rows that each stage's
    rate table gathers per size-s subset. Each stage visits every state of
    a popcount p in its plan, with each of its size-s subsets for s in
    plan[p].
    """
    total = 0
    for plan in _stage_plan(k, n_rbs, mux):
        for p, sizes in plan.items():
            total += math.comb(k, p) * sum(math.comb(p, s) for s in sizes)
        sizes = set().union(*plan.values())
        total += _TABLE_ROW_COST * sum(math.comb(k, s) * s * s for s in sizes)
    return total


def conventional_schedule_greedy(
    realization: ChannelRealization, pattern: PilotPattern, direction: str
) -> ScheduleAssignment:
    """Deterministic greedy baseline: fill the realization's RBs in order,
    best marginal user first.

    Ties break toward the lowest user id. The schedule's rate never exceeds
    the exact optimum's.
    """
    k = realization.num_users
    n_rbs, mux = realization.cfg.num_rbs, realization.cfg.max_mux
    check_users_fit(k, n_rbs, mux)
    sizes = balanced_sizes(k, n_rbs)

    remaining = list(range(k))
    chosen: list[tuple[int, ...]] = []
    for rb in range(n_rbs):
        # only the users still unscheduled can join this RB
        calc = RbRateCalculator(realization, rb, pattern, direction, remaining)
        current: tuple[int, ...] = ()
        for _ in range(sizes[rb]):
            cands = calc.rates_for_subsets([current + (u,) for u in remaining])
            best = int(np.argmax(cands))  # first maximum: lowest id
            current = tuple(sorted(current + (remaining.pop(best),)))
        chosen.append(current)
    return _conventional(chosen, pattern)


def group_rb_ownership(pop: UserPopulation, num_rbs: int) -> list[int]:
    """Group label per RB index under the fixed fair pre-assignment.

    The labels are non-decreasing, and the last bound ceil(num_rbs * K / K)
    is num_rbs, so they cover every RB. A group with no users repeats the
    bound before it and owns no RB.
    """
    k = pop.num_users
    owners: list[int] = []
    cum = 0
    for g, members in enumerate(pop.groups):
        cum += len(members)
        owners.extend([g] * (math.ceil(num_rbs * cum / k) - len(owners)))
    return owners


def grouping_schedule(
    pop: UserPopulation,
    cfg: SystemConfig,
    registry: PatternRegistry,
    user_picker: str,
    rng: np.random.Generator | None,
) -> ScheduleAssignment:
    """Grouping-based pattern adaptation and scheduling.

    Each owned RB takes min(max_mux, group size) users from its group and
    the registry pattern of the group's profile in `pop`, selected once per
    group. A dealer per group hands out its members one round after
    another: in order for round_robin, and reshuffled by `rng` at the start
    of each round for random (round_robin reads no `rng`). An RB skips a
    dealt member it already holds, so a round that runs out mid-RB never
    repeats a user within the RB, and its next RB takes up where it left off.
    """
    if user_picker not in ("random", "round_robin"):
        raise ConfigurationError(f"unknown user picker {user_picker!r}")
    registry.check_mux_order(cfg.max_mux)

    def dealt(members):
        while True:
            order = list(members)
            if user_picker == "random":
                rng.shuffle(order)
            yield from order

    owners = group_rb_ownership(pop, cfg.num_rbs)
    rb_users: list[tuple[int, ...]] = []
    rb_patterns: list[PilotPattern] = []
    for g, rbs in groupby(owners):
        members = pop.groups[g]  # non-empty: a group with no users owns no RB
        deal, take = dealt(members), min(cfg.max_mux, len(members))
        pattern = select_pattern_for_group(registry, pop.profiles[g], cfg.numerology)
        for _ in rbs:
            picked: set[int] = set()
            while len(picked) < take:
                picked.add(next(deal))
            rb_users.append(tuple(sorted(picked)))
            rb_patterns.append(pattern)

    return ScheduleAssignment(tuple(rb_users), tuple(rb_patterns), tuple(owners))


def evaluate_schedule(
    realization: ChannelRealization, assignment: ScheduleAssignment, direction: str
) -> float:
    """Mean per-RB spectral efficiency of an assignment, conventional or
    grouping, over the realization's RBs."""
    cfg = realization.cfg
    if len(assignment.rb_users) != cfg.num_rbs:
        raise ValueError(f"{len(assignment.rb_users)} RBs assigned for the {cfg.num_rbs} drawn")
    rates = []
    for rb, (users, pattern) in enumerate(zip(assignment.rb_users, assignment.rb_patterns)):
        if len(users) > cfg.max_mux:
            raise ValueError(f"{len(users)} users exceed the multiplexing cap {cfg.max_mux}")
        calc = RbRateCalculator(realization, rb, pattern, direction, users)
        rates.append(calc.rates_for_subsets([users])[0])
    return float(np.mean(rates))
