import dataclasses
import functools
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotadapt.channel import generate_realization
from pilotadapt.config import ExperimentConfig
from pilotadapt.core import FadingSpec, SystemConfig, UserPopulation, build_population
from pilotadapt.errors import ConfigurationError, ExactSearchBudgetError
from pilotadapt import scheduling
from pilotadapt.patterns import (
    PatternRegistry,
    PilotSpacing,
    build_pattern,
    builtin_profiles,
    conventional_pattern,
    default_registry,
    max_spacing,
    select_pattern_for_group,
)
from pilotadapt.scheduling import (
    MAX_DP_USERS,
    RbRateCalculator,
    ScheduleAssignment,
    check_exact_budget,
    conventional_schedule_exact,
    conventional_schedule_greedy,
    evaluate_schedule,
    group_rb_ownership,
    grouping_schedule,
)

from conftest import rb_rate, tiny_numerology
from oracles import StoredGrams, draw_channels, oracle_exact_partition, oracle_grams


def _instance(seed, k=8, n_rbs=2, m=4, mux=4, sigma2=0.1):
    profiles = builtin_profiles()
    sizes = [k // 4] * 4 if k % 4 == 0 else [k]
    pop = build_population(sizes, profiles[: len(sizes)], FadingSpec(), seed=seed)
    cfg = SystemConfig(
        num_rbs=n_rbs, num_antennas=m, max_mux=mux,
        ul_power=1.0, dl_power=1.0, noise_power=sigma2,
    )
    real = generate_realization(pop, cfg, seed=seed)
    pattern = conventional_pattern(default_registry(profiles, cfg.numerology, mux))
    return pop, cfg, real, pattern, profiles


def rated(schedule, real, pattern, direction):
    """A conventional scheduler's assignment and its `evaluate_schedule` rate."""
    assign = schedule(real, pattern, direction)
    return assign, evaluate_schedule(real, assign, direction)


def test_exact_matches_brute_force():
    for seed in range(5):
        pop, cfg, real, pattern, _ = _instance(seed)
        for direction in ("uplink", "downlink"):
            _, dp = rated(conventional_schedule_exact, real, pattern, direction)
            bf = exhaustive_best(real, pattern, direction)
            assert dp == pytest.approx(bf, abs=1e-12)


def rb_rates(real, pattern, direction):
    """Cached rate(rb, users) of one sorted user tuple on one RB."""
    calcs = [RbRateCalculator(real, rb, pattern, direction) for rb in range(real.cfg.num_rbs)]
    return functools.cache(lambda rb, users: calcs[rb].rates_for_subsets([users])[0])


def exhaustive_best(real, pattern, direction):
    """Best mean rate over every assignment of users to RBs with at most
    max_mux users per RB, empty RBs included; independent of the DP."""
    cfg = real.cfg
    k, n_rbs = real.num_users, cfg.num_rbs
    rate = rb_rates(real, pattern, direction)
    best = -np.inf
    for labels in itertools.product(range(n_rbs), repeat=k):
        parts = [tuple(u for u in range(k) if labels[u] == rb) for rb in range(n_rbs)]
        if max(map(len, parts)) <= cfg.max_mux:
            best = max(best, sum(rate(rb, p) for rb, p in enumerate(parts)) / n_rbs)
    return best


@st.composite
def small_instances(draw):
    mux = draw(st.integers(1, 3))
    n_rbs = draw(st.integers(1, 3))
    k = max(1, min(7, n_rbs * mux) - draw(st.integers(0, 3)))  # free layers when > 0
    seed = draw(st.integers(0, 2**16))
    direction = draw(st.sampled_from(["uplink", "downlink"]))
    profiles = builtin_profiles()
    pop = build_population([k], profiles[:1], FadingSpec(kind="lognormal", spread_db=6.0), seed=seed)
    cfg = SystemConfig(
        num_rbs=n_rbs, num_antennas=4, max_mux=mux,
        ul_power=1.0, dl_power=1.0, noise_power=0.1,
    )
    real = generate_realization(pop, cfg, seed=seed)
    pattern = conventional_pattern(default_registry(profiles, cfg.numerology, mux))
    return pop, cfg, real, pattern, direction


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_instances())
def test_exact_matches_exhaustive_search(instance):
    """K <= n_rbs * mux, so RBs may be left partly or wholly empty. The
    partition, not only the rate, is that of a per-transition dict DP with
    the documented tie order."""
    pop, cfg, real, pattern, direction = instance
    assign, dp = rated(conventional_schedule_exact, real, pattern, direction)
    assert dp == pytest.approx(exhaustive_best(real, pattern, direction), abs=1e-12)
    rate = rb_rates(real, pattern, direction)
    users, _ = oracle_exact_partition(rate, pop.num_users, cfg.num_rbs, cfg.max_mux)
    assert assign.rb_users == users

    placed = [u for users in assign.rb_users for u in users]
    assert sorted(placed) == list(range(pop.num_users))
    assert len(assign.rb_users) == cfg.num_rbs
    assert all(len(users) <= cfg.max_mux for users in assign.rb_users)

    _, greedy = rated(conventional_schedule_greedy, real, pattern, direction)
    assert greedy <= dp + 1e-12


@st.composite
def filled_group_instances(draw):
    """Groups of exactly max_mux users, one RB each, so the grouping
    partition is forced; the users are dealt to the groups in a drawn order."""
    mux = draw(st.integers(1, 4))
    n_rbs = draw(st.integers(1, min(4, 12 // mux)))
    order = draw(st.permutations(range(n_rbs * mux)))
    seed = draw(st.integers(0, 2**16))
    direction = draw(st.sampled_from(["uplink", "downlink"]))
    fading = FadingSpec(kind="lognormal", spread_db=6.0)
    profiles = builtin_profiles()
    gains = build_population([n_rbs * mux], profiles[:1], fading, seed=seed).gains
    groups = tuple(tuple(sorted(order[g * mux : (g + 1) * mux])) for g in range(n_rbs))
    pop = UserPopulation(groups=groups, gains=gains, profiles=tuple(profiles[:n_rbs]))
    cfg = SystemConfig(
        num_rbs=n_rbs, num_antennas=4, max_mux=mux,
        ul_power=1.0, dl_power=1.0, noise_power=0.1,
    )
    real = generate_realization(pop, cfg, seed=seed)
    return pop, cfg, real, profiles, direction


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(filled_group_instances())
def test_exact_beats_the_group_partition(instance):
    """The exact DP searches every partition, the grouping's among them, so
    the grouping partition rated under the conventional pattern (R_fix)
    never beats R_conv. No such bound holds for the greedy."""
    pop, cfg, real, profiles, direction = instance
    registry = default_registry(profiles, cfg.numerology, cfg.max_mux)
    pattern = conventional_pattern(registry)
    grouping = grouping_schedule(pop, cfg, registry, "random", np.random.default_rng(0))
    assert grouping.rb_users == pop.groups
    fixed = dataclasses.replace(grouping, rb_patterns=(pattern,) * cfg.num_rbs)
    r_fix = evaluate_schedule(real, fixed, direction)
    _, r_conv = rated(conventional_schedule_exact, real, pattern, direction)
    assert r_fix <= r_conv * (1 + 1e-12)


@pytest.mark.parametrize(
    "k, n_rbs, mux, expected",
    [
        (6, 3, 2, ((0, 1), (2, 3), (4, 5))),
        (6, 2, 3, ((0, 1, 2), (3, 4, 5))),
        # free layers: the earlier RBs take the smaller subsets
        (5, 3, 2, ((0,), (1, 2), (3, 4))),
        (7, 3, 3, ((0,), (1, 2, 3), (4, 5, 6))),
    ],
)
def test_exact_tie_rule(k, n_rbs, mux, expected):
    """Every user has the all-ones channel on every RB, so the Gram is exact,
    subsets of one size have bit-identical rates and every partition with
    the same RB sizes ties. The DP keeps the first transition in (popcount of
    the state, state mask, subset size, lexicographic subset) order, which
    fills the RBs with the lowest user ids first. The per-transition dict DP
    of `oracle_exact_partition` chooses the same partitions."""
    pop, cfg, real, pattern, _ = _instance(50, k=k, n_rbs=n_rbs, mux=mux)
    same = StoredGrams(
        oracle_grams(np.ones((k, n_rbs, 14, 12, cfg.num_antennas))), real.cfg, pop.gains
    )
    for direction in ("uplink", "downlink"):
        calc = RbRateCalculator(same, 0, pattern, direction)
        rates = calc.rates_for_subsets(np.array(list(itertools.combinations(range(k), mux))))
        assert np.all(rates == rates[0])
        assign = conventional_schedule_exact(same, pattern, direction)
        assert assign.rb_users == expected
        rate = rb_rates(same, pattern, direction)
        assert oracle_exact_partition(rate, k, n_rbs, mux)[0] == expected


def test_greedy_tie_rule():
    """On the all-ones channel every candidate of a step has a bit-identical
    rate, so the greedy's lowest-id tie rule fills the RBs with the lowest
    user ids first."""
    pop, cfg, real, pattern, _ = _instance(50, k=6, n_rbs=3, mux=2)
    same = StoredGrams(
        oracle_grams(np.ones((6, 3, 14, 12, cfg.num_antennas))), real.cfg, pop.gains
    )
    for direction in ("uplink", "downlink"):
        assign = conventional_schedule_greedy(same, pattern, direction)
        assert assign.rb_users == ((0, 1), (2, 3), (4, 5))


def test_exact_dp_memory_is_per_stage():
    """K = 16 users on 16 single-layer RBs: one (RB, 2^K) float64 block is
    8.4 MB. The DP keeps its dense 2^K arrays for one stage at a time, so its
    peak allocation stays under 0.6 of that; a per-RB rate table or an int64
    (or int32) backpointer block would not."""
    k = n_rbs = 16
    pop, cfg, real, pattern, _ = _instance(60, k=k, n_rbs=n_rbs, m=2, mux=1)
    # the first call builds the Grams and finishes numpy's lazy imports
    conventional_schedule_exact(real, pattern, "uplink")
    tracemalloc.start()
    try:
        conventional_schedule_exact(real, pattern, "uplink")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * n_rbs * 2**k * 8


def test_exact_single_rb_is_forced():
    pop, cfg, real, pattern, _ = _instance(3, k=4, n_rbs=1)
    assign, rate = rated(conventional_schedule_exact, real, pattern, "uplink")
    assert assign.rb_users == ((0, 1, 2, 3),)
    calc = RbRateCalculator(real, 0, pattern, "uplink")
    assert rate == pytest.approx(calc.rates_for_subsets([(0, 1, 2, 3)])[0])


def test_exact_rejects_oversized_instance():
    pop, cfg, real, pattern, _ = _instance(1, k=28, n_rbs=4, mux=7)
    with pytest.raises(ExactSearchBudgetError, match="greedy"):
        conventional_schedule_exact(real, pattern, "uplink")


def test_exact_refuses_dense_tables_beyond_user_cap():
    # one RB holding every user is a single transition, but the dense DP
    # would still allocate 2^K-entry tables
    check_exact_budget(MAX_DP_USERS, 1, MAX_DP_USERS)
    with pytest.raises(ExactSearchBudgetError, match="greedy"):
        check_exact_budget(MAX_DP_USERS + 1, 1, MAX_DP_USERS + 1)


def test_exact_budget_counts_subset_tables():
    """K = 20 on 4 RBs x 5 layers fits the budget. K = 16 on 3 RBs x 10
    layers visits fewer DP transitions (4.3e7 against 9.3e7), but its
    subset-rate tables gather 1.1e7 pair-term rows, so it is refused; so is
    K = 24 on 2 RBs x 15 layers, whose tables gather ~4e9."""
    check_exact_budget(20, 4, 5)
    with pytest.raises(ExactSearchBudgetError, match="greedy"):
        check_exact_budget(16, 3, 10)
    with pytest.raises(ExactSearchBudgetError, match="greedy"):
        check_exact_budget(24, 2, 15)


def test_subset_table_is_mask_ordered():
    """One table serves the rate tables and the DP's candidate blocks: every
    size-subset once, each row ascending, its mask the sum of 2^member, the
    masks strictly ascending, and neither array writable."""
    for n in range(11):
        for size in range(n + 1):
            subsets, masks = scheduling._subset_table(n, size)
            assert sorted(map(tuple, subsets)) == list(itertools.combinations(range(n), size))
            assert all(list(row) == sorted(row) for row in subsets)
            assert list(masks) == [sum(1 << int(u) for u in row) for row in subsets]
            assert np.all(np.diff(masks) > 0)
            assert not subsets.flags.writeable and not masks.flags.writeable


@pytest.mark.parametrize("k, n_rbs, mux", [(8, 2, 4), (5, 3, 2), (7, 3, 3), (12, 4, 4)])
def test_exact_budget_counts_the_dp_work(monkeypatch, k, n_rbs, mux):
    """The budget estimate is the number of (state, candidate) pairs the DP
    compares, plus _TABLE_ROW_COST per pair-term row its rate tables gather
    (s^2 per size-s subset)."""
    compared, rows = [], []
    pull, rates = scheduling._pull, RbRateCalculator.rates_for_subsets

    def counting_pull(targets, members, *args):
        compared.append(len(targets) * members.shape[1])
        return pull(targets, members, *args)

    def counting_rates(calc, subsets):
        rows.append(len(subsets) * np.shape(subsets)[1] ** 2)
        return rates(calc, subsets)

    monkeypatch.setattr(scheduling, "_pull", counting_pull)
    monkeypatch.setattr(RbRateCalculator, "rates_for_subsets", counting_rates)
    pop, cfg, real, pattern, _ = _instance(7, k=k, n_rbs=n_rbs, mux=mux)
    conventional_schedule_exact(real, pattern, "uplink")
    table_term = scheduling._TABLE_ROW_COST * sum(rows)
    assert sum(compared) == scheduling._estimate_transitions(k, n_rbs, mux) - table_term


def test_greedy_never_beats_exact():
    for seed in range(4):
        pop, cfg, real, pattern, _ = _instance(10 + seed)
        _, exact = rated(conventional_schedule_exact, real, pattern, "uplink")
        _, greedy = rated(conventional_schedule_greedy, real, pattern, "uplink")
        assert greedy <= exact + 1e-12


def test_greedy_equals_exact_when_forced():
    pop, cfg, real, pattern, _ = _instance(2, k=4, n_rbs=1)
    _, exact = rated(conventional_schedule_exact, real, pattern, "uplink")
    _, greedy = rated(conventional_schedule_greedy, real, pattern, "uplink")
    assert greedy == pytest.approx(exact, abs=1e-12)


def test_greedy_logs_gap_to_exact():
    pop, cfg, real, pattern, _ = _instance(20)
    _, exact = rated(conventional_schedule_exact, real, pattern, "uplink")
    _, greedy = rated(conventional_schedule_greedy, real, pattern, "uplink")
    # no fixed constant asserted; record the measured ratio
    print(f"greedy/exact ratio on seed-20 instance: {greedy / exact:.4f}")
    assert 0.0 < greedy <= exact + 1e-12


def test_rb_ownership_examples():
    profiles = builtin_profiles()
    pop = build_population([4, 4, 4, 4], profiles, FadingSpec(), seed=0)
    assert group_rb_ownership(pop, 4) == [0, 1, 2, 3]
    pop = build_population([6, 3, 3], profiles[:3], FadingSpec(), seed=0)
    assert group_rb_ownership(pop, 4) == [0, 0, 1, 2]
    pop = build_population([5], profiles[:1], FadingSpec(), seed=0)
    assert group_rb_ownership(pop, 3) == [0, 0, 0]


def test_rb_ownership_fairness():
    rng = np.random.default_rng(23)
    for _ in range(100):
        sizes = rng.integers(1, 9, size=int(rng.integers(1, 5))).tolist()
        n_rbs = int(rng.integers(len(sizes), 13))
        pop = build_population(sizes, builtin_profiles()[:1] * len(sizes), FadingSpec(), seed=0)
        owners = group_rb_ownership(pop, n_rbs)
        k = pop.num_users
        for g, group in enumerate(pop.groups):
            share = owners.count(g) / n_rbs
            gamma = len(group) / k
            assert abs(share - gamma) < 1.0 / n_rbs + 1e-12


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(st.integers(0, 12), min_size=1, max_size=6).filter(lambda s: sum(s) >= 1),
    n_rbs=st.integers(1, 40),
)
def test_rb_ownership_covers_every_rb_with_nonempty_groups(sizes, n_rbs):
    """The fair mapping labels every RB, in group order, and only groups
    with users own RBs: group g owns ceil(N cum_g / K) - ceil(N cum_(g-1) / K)
    of them, which is 0 for an empty group and sums to N."""
    pop = build_population(sizes, builtin_profiles()[:1] * len(sizes), FadingSpec(), seed=0)
    owners = group_rb_ownership(pop, n_rbs)
    assert len(owners) == n_rbs
    assert owners == sorted(owners)
    assert all(pop.groups[g] for g in owners)
    k = sum(sizes)
    # ceil(N cum_g / K) in exact integer arithmetic, for g = 0..G
    bounds = [-(-n_rbs * cum // k) for cum in itertools.accumulate(sizes, initial=0)]
    for g in range(len(sizes)):
        assert owners.count(g) == bounds[g + 1] - bounds[g]


def test_grouping_schedule_equal_groups():
    profiles = builtin_profiles()
    pop = build_population([4, 4, 4, 4], profiles, FadingSpec(), seed=0)
    cfg = SystemConfig(num_rbs=4, num_antennas=8, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1)
    registry = default_registry(profiles, cfg.numerology, 4)
    assign = grouping_schedule(pop, cfg, registry, "round_robin", None)
    owners = group_rb_ownership(pop, cfg.num_rbs)
    assert owners == [0, 1, 2, 3]
    # forced sets: each group's four users on its own RB
    assert assign.rb_users == tuple(pop.groups)
    # every RB pattern is feasible for its group (both spacing inequalities)
    for rb, g in enumerate(owners):
        limit = max_spacing(profiles[g], cfg.numerology)
        sp = assign.rb_patterns[rb].spacing
        assert sp.time_spacing_symbols <= limit.time_spacing_symbols
        assert sp.freq_spacing_subcarriers <= limit.freq_spacing_subcarriers
        assert len(assign.rb_users[rb]) <= cfg.max_mux


def test_grouping_disjoint_when_groups_large_enough():
    profiles = builtin_profiles()[:2]
    pop = build_population([8, 8], profiles, FadingSpec(), seed=0)
    cfg = SystemConfig(num_rbs=4, num_antennas=4, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1)
    registry = default_registry(profiles, cfg.numerology, 4)
    rng = np.random.default_rng(3)
    assign = grouping_schedule(pop, cfg, registry, "random", rng)
    all_users = [u for s in assign.rb_users for u in s]
    assert len(all_users) == len(set(all_users))
    for rb, g in enumerate(group_rb_ownership(pop, cfg.num_rbs)):
        assert set(assign.rb_users[rb]) <= set(pop.groups[g])


def test_grouping_small_group_reuses_across_rbs_only():
    profiles = builtin_profiles()[:1]
    pop = build_population([3], profiles, FadingSpec(), seed=0)  # 3 users, 2 RBs x 2 layers
    cfg = SystemConfig(num_rbs=2, num_antennas=4, max_mux=2, ul_power=1.0, dl_power=1.0, noise_power=0.1)
    registry = default_registry(profiles, cfg.numerology, 2)
    rng = np.random.default_rng(5)
    assign = grouping_schedule(pop, cfg, registry, "random", rng)
    for users in assign.rb_users:
        assert len(users) == 2
        assert len(set(users)) == 2  # never repeats a user within an RB


def test_grouping_random_picker_seeded():
    profiles = builtin_profiles()
    pop = build_population([8, 8, 8, 8], profiles, FadingSpec(), seed=0)
    cfg = SystemConfig(num_rbs=4, num_antennas=4, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1)
    registry = default_registry(profiles, cfg.numerology, 4)
    a = grouping_schedule(pop, cfg, registry, "random", np.random.default_rng(9))
    b = grouping_schedule(pop, cfg, registry, "random", np.random.default_rng(9))
    assert a == b


def test_grouping_random_picker_needs_a_generator():
    """The random picker reshuffles each round with the caller's generator;
    without one it is refused up front, not deep inside the dealer."""
    profiles = builtin_profiles()
    pop = build_population([8, 8, 8, 8], profiles, FadingSpec(), seed=0)
    cfg = SystemConfig(num_rbs=4, num_antennas=4, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1)
    registry = default_registry(profiles, cfg.numerology, 4)
    with pytest.raises(ConfigurationError, match="the random picker needs a generator, got None"):
        grouping_schedule(pop, cfg, registry, "random", None)


@pytest.mark.parametrize(
    "picker, picks",
    [
        ("random", ((2, 5, 6), (1, 3, 4), (0, 4, 6), (8, 9), (10, 11, 12))),
        ("round_robin", ((0, 1, 2), (3, 4, 5), (0, 1, 6), (8, 9), (10, 11, 12))),
    ],
)
def test_grouping_deals_a_group_over_its_rbs(monkeypatch, picker, picks):
    """Group 0 (7 users) owns 3 RBs of 3 layers: its members run out on the
    third RB, which starts a new round and skips the user it already
    holds. Group 1 (one user) owns no RB. The picks are pinned, and each
    group's pattern is selected once, however many RBs it owns."""
    profiles = builtin_profiles()
    pop = build_population([7, 1, 2, 4], profiles, FadingSpec(), seed=0)
    cfg = SystemConfig(num_rbs=5, num_antennas=8, max_mux=3, ul_power=1.0, dl_power=1.0, noise_power=0.1)
    registry = default_registry(profiles, cfg.numerology, 3)
    selected = []

    def select(registry, profile, num):
        selected.append(profile)
        return select_pattern_for_group(registry, profile, num)

    monkeypatch.setattr(scheduling, "select_pattern_for_group", select)
    assign = grouping_schedule(pop, cfg, registry, picker, np.random.default_rng(3))
    assert assign.rb_users == picks
    owners = group_rb_ownership(pop, cfg.num_rbs)
    assert owners == [0, 0, 0, 2, 3]
    assert selected == [profiles[0], profiles[2], profiles[3]]
    assert assign.rb_patterns == tuple(
        select_pattern_for_group(registry, profiles[g], cfg.numerology) for g in owners
    )


def test_grouping_dominated_by_exact_when_collapsed():
    # single group, registry collapsed to the worst-case pattern: any grouping
    # schedule is one feasible point of the conventional optimization
    profiles = [builtin_profiles()[3]]
    pop = build_population([8], profiles, FadingSpec(), seed=1)
    cfg = SystemConfig(num_rbs=2, num_antennas=4, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1)
    pattern = conventional_pattern(default_registry(profiles, cfg.numerology, 4))
    registry = PatternRegistry(patterns=(pattern,))
    real = generate_realization(pop, cfg, seed=4)
    _, exact = rated(conventional_schedule_exact, real, pattern, "uplink")
    for picker_seed in range(5):
        assign = grouping_schedule(
            pop, cfg, registry, "random", np.random.default_rng(picker_seed)
        )
        rate = evaluate_schedule(real, assign, "uplink")
        assert rate <= exact + 1e-12


def test_evaluate_schedule_consistency():
    """Rating each RB's users alone matches rating them among all users."""
    pop, cfg, real, pattern, _ = _instance(30)
    assign, ev = rated(conventional_schedule_exact, real, pattern, "uplink")
    rates = [
        rb_rate(real, rb, users, pattern, "uplink")
        for rb, users in enumerate(assign.rb_users)
    ]
    assert ev == pytest.approx(np.mean(rates), abs=1e-12)


def test_evaluate_schedule_empty_rb_contributes_zero():
    pop, cfg, real, pattern, _ = _instance(31, k=4, n_rbs=2)
    only_first = ScheduleAssignment(
        rb_users=((0, 1, 2, 3), ()),
        rb_patterns=(pattern, pattern),
    )
    rate = evaluate_schedule(real, only_first, "uplink")
    solo = rb_rate(real, 0, [0, 1, 2, 3], pattern, "uplink")
    assert rate == pytest.approx(solo / 2.0)


@pytest.mark.parametrize("n_rbs", [2, 5])
def test_evaluate_schedule_refuses_another_rb_count(n_rbs):
    """A 4-RB draw rates only 4-RB assignments: 2 or 5 RBs (the fifth empty)
    would be rated over 2 or 5 RBs."""
    pop, cfg, real, pattern, _ = _instance(34, k=8, n_rbs=4, mux=2)
    users = ((0, 1), (2, 3), (4, 5), (6, 7), ())[:n_rbs]
    assign = ScheduleAssignment(users, (pattern,) * n_rbs)
    with pytest.raises(ValueError, match=f"{n_rbs} RBs assigned for the 4 drawn"):
        evaluate_schedule(real, assign, "uplink")


def test_schedule_assignment_refuses_fields_of_unequal_length():
    """One entry per RB in each field; a shorter field would be cut off by
    the rating's zip."""
    pattern = _instance(35, k=4, n_rbs=4, mux=1)[3]
    with pytest.raises(ValueError, match="differ in length"):
        ScheduleAssignment(((0,), (1,), (2,), (3,)), (pattern,))
    with pytest.raises(ValueError, match="differ in length"):
        ScheduleAssignment(((0,), (1,)), (pattern,) * 3)


def test_schedule_assignment_refuses_a_user_twice_on_one_rb():
    """A user listed twice on an RB would have its rate counted twice; one
    user on two RBs stays allowed (the random picker re-deals a group)."""
    pattern = _instance(35, k=4, n_rbs=2, mux=2)[3]
    with pytest.raises(ValueError, match="lists a user twice"):
        ScheduleAssignment(((0, 0), (1,)), (pattern,) * 2)
    ScheduleAssignment(((0, 1), (0,)), (pattern,) * 2)


def test_calculator_refuses_a_user_twice():
    """A user named twice would have its rate counted twice: the calculator
    refuses it among its `users` and in any row of a subset batch."""
    real = _grid_instance(14, 12)
    pattern = build_pattern(PilotSpacing(7, 6), real.cfg.numerology, 2)
    with pytest.raises(ValueError, match="twice"):
        RbRateCalculator(real, 0, pattern, "uplink", users=[0, 0])
    calc = RbRateCalculator(real, 0, pattern, "uplink")
    for subsets in ([[0, 0]], [[0, 1], [1, 1]], np.array([[1, 0], [0, 0]])):
        with pytest.raises(ValueError, match="twice"):
            calc.rates_for_subsets(subsets)
    pair = calc.rates_for_subsets([[0, 1]])[0]
    assert calc.rates_for_subsets([[1, 0]])[0] == pytest.approx(pair, rel=1e-12)


@pytest.mark.parametrize("users", [None, [0, 2]])
def test_calculator_refuses_user_ids_outside_its_users(users):
    """Ids below 0 would wrap to the last users' rows and ids of K or more
    would index past them; both are refused as users outside the
    calculator's, as is a user of the draw left out of `users`."""
    pop = build_population([3], builtin_profiles()[:1], FadingSpec(), seed=0)
    cfg = SystemConfig(
        num_rbs=1, num_antennas=8, max_mux=3, ul_power=1.0, dl_power=1.0, noise_power=0.1
    )
    real = generate_realization(pop, cfg, seed=0)
    pattern = build_pattern(PilotSpacing(7, 6), cfg.numerology, 1)
    calc = RbRateCalculator(real, 0, pattern, "uplink", users)
    outside = [[-1], [3], [-4], [10**9], [2, -1], [0, 3]]
    if users is not None:
        outside.append([1])
    for subset in outside:
        with pytest.raises(ValueError, match="outside the calculator's users"):
            calc.rates_for_subsets([subset])
    whole = RbRateCalculator(real, 0, pattern, "uplink")
    assert calc.rates_for_subsets([[2]])[0] == whole.rates_for_subsets([[2]])[0]


@pytest.mark.parametrize(
    "subsets, shape", [([[[0, 1]]], "(1, 1, 2)"), ([0, 1], "(2,)"), (5, "()")]
)
def test_calculator_refuses_subsets_that_are_not_a_batch(subsets, shape):
    """Subsets are a (batch, size) array: a 3-D batch would come back as
    per-RE values rather than RB rates, and a flat list or a scalar has no
    rows to rate. Each is refused, naming its shape."""
    profiles = builtin_profiles()
    pop = build_population([4, 4, 4, 4], profiles, FadingSpec(), seed=0)
    cfg = SystemConfig(
        num_rbs=4, num_antennas=8, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1
    )
    real = generate_realization(pop, cfg, seed=7)
    pattern = conventional_pattern(default_registry(profiles, cfg.numerology, 4))
    calc = RbRateCalculator(real, 0, pattern, "uplink")
    message = f"subsets must be a (batch, size) array, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        calc.rates_for_subsets(subsets)


def test_calculator_refuses_subsets_wider_than_its_pattern():
    """A pattern of mux order n carries pilots for n layers, so a wider
    subset would be rated as if its users' channels were estimated: the
    exact DP under a mux-1 pattern rated four users per RB above the mux-4
    pattern it needs. The calculator refuses the subset, naming both
    numbers, and so every scheduler and `evaluate_schedule` do."""
    profiles = builtin_profiles()
    pop = build_population([4, 4, 4, 4], profiles, FadingSpec(), seed=0)
    cfg = SystemConfig(
        num_rbs=4, num_antennas=64, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1
    )
    real = generate_realization(pop, cfg, seed=7)
    narrow = conventional_pattern(default_registry(profiles, cfg.numerology, 1))
    calc = RbRateCalculator(real, 0, narrow, "uplink")
    assert calc.rates_for_subsets([[0], [5]]).shape == (2,)
    with pytest.raises(ValueError, match="subsets of 2 users exceed the pattern's mux order 1"):
        calc.rates_for_subsets([[0, 5]])
    for schedule in (conventional_schedule_exact, conventional_schedule_greedy):
        with pytest.raises(ValueError, match="exceed the pattern's mux order 1"):
            schedule(real, narrow, "uplink")
    assign = ScheduleAssignment(((0, 5),), (narrow,))
    one_rb = generate_realization(pop, dataclasses.replace(cfg, num_rbs=1), seed=7)
    with pytest.raises(ValueError, match="subsets of 2 users exceed the pattern's mux order 1"):
        evaluate_schedule(one_rb, assign, "uplink")


def test_user_ids_that_are_not_integers_are_refused():
    """A float id would be truncated to an integer id, and a bool read as 0
    or 1, so every place that takes user ids refuses them: a subset batch,
    a calculator's `users` (through the realization's `gram`) and a
    realization's `include`. An empty row is still an empty RB."""
    pop = build_population([3], builtin_profiles()[:1], FadingSpec(), seed=0)
    cfg = SystemConfig(
        num_rbs=1, num_antennas=8, max_mux=3, ul_power=1.0, dl_power=1.0, noise_power=0.1
    )
    real = generate_realization(pop, cfg, seed=0)
    pattern = build_pattern(PilotSpacing(7, 6), cfg.numerology, 3)
    calc = RbRateCalculator(real, 0, pattern, "uplink")
    for subsets in ([[0.9]], np.array([[1.7]]), [[True]], np.array([[0.0, 2.0]])):
        with pytest.raises(ValueError, match="are not integers"):
            calc.rates_for_subsets(subsets)
    for users in ([0.5, 1.5], np.array([True, False])):
        with pytest.raises(ValueError, match="are not integers"):
            RbRateCalculator(real, 0, pattern, "uplink", users)
    with pytest.raises(ValueError, match="are not integers"):
        generate_realization(pop, cfg, seed=0, include=[[1.0]])
    assert calc.rates_for_subsets([()]).tolist() == [0.0]
    assert calc.rates_for_subsets(np.array([[1]], dtype=np.uint8))[0] == (
        calc.rates_for_subsets([[1]])[0]
    )


@pytest.mark.parametrize("registry_mux", [1, 7])
def test_registry_of_another_mux_order_is_refused(registry_mux):
    """Pilot counts scale with the mux order, so a registry built for
    another order than the cell's would misstate every grouping rate and the
    gain bound: grouping_schedule refuses it and takes the registry of the
    cell's own order, and the config's gain bound builds that registry
    itself."""
    profiles = builtin_profiles()
    pop = build_population([4, 4, 4, 4], profiles, FadingSpec(), seed=7)
    cfg = SystemConfig(
        num_rbs=4, num_antennas=64, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1
    )
    other = default_registry(profiles, cfg.numerology, registry_mux)
    message = f"registry built for mux orders \\[{registry_mux}\\], not 4"
    with pytest.raises(ConfigurationError, match=message):
        grouping_schedule(pop, cfg, other, "random", np.random.default_rng(0))
    own = default_registry(profiles, cfg.numerology, 4)
    grouping_schedule(pop, cfg, own, "random", np.random.default_rng(0))
    assert ExperimentConfig().gain_bound(4) == pytest.approx(0.125)


def _grid_instance(n_s, n_sc):
    """Users 0 and 1 of one EPA5 group on one RB of an n_s x n_sc grid."""
    profiles = builtin_profiles()
    pop = build_population([2], profiles[:1], FadingSpec(), seed=0)
    cfg = SystemConfig(
        num_rbs=1, num_antennas=8, max_mux=2, ul_power=1.0, dl_power=1.0,
        noise_power=0.1, numerology=tiny_numerology(n_s, n_sc),
    )
    return generate_realization(pop, cfg, seed=0)


@pytest.mark.parametrize("drawn, built", [((14, 12), (7, 6)), ((7, 6), (14, 12))])
def test_pattern_for_another_grid_is_refused(monkeypatch, drawn, built):
    """A pattern built for another grid than the realization's is refused by
    the calculator, and so by every rating, before a Gram is built: a
    smaller one would leave REs out of its mask, a larger one index past
    the grid."""
    real = _grid_instance(*drawn)
    pattern = build_pattern(PilotSpacing(7, 6), tiny_numerology(*built), 2)
    message = "built for a {}x{} grid, but the realization's is {}x{}".format(*built, *drawn)
    with pytest.raises(ValueError, match=message):
        RbRateCalculator(real, 0, pattern, "uplink")
    with pytest.raises(ValueError, match=message):
        evaluate_schedule(real, ScheduleAssignment(((0, 1),), (pattern,)), "uplink")
    for schedule in (conventional_schedule_exact, conventional_schedule_greedy):
        with pytest.raises(ValueError, match=message):
            schedule(real, pattern, "uplink")
    monkeypatch.setattr(type(real), "gram", lambda *args: pytest.fail("a Gram was asked for"))
    with pytest.raises(ValueError, match=message):
        RbRateCalculator(real, 0, pattern, "uplink")


def test_identical_rbs_contribute_equally():
    pop, cfg, real, pattern, profiles = _instance(32, k=4, n_rbs=2)
    h0 = draw_channels(pop, cfg, 32, 0)
    # RB 1 = RB 0
    dup = StoredGrams(oracle_grams(np.stack([h0, h0], axis=1)), real.cfg, pop.gains)
    assign = ScheduleAssignment(
        rb_users=((0, 1), (0, 1)),
        rb_patterns=(pattern, pattern),
    )
    r0 = rb_rate(dup, 0, [0, 1], pattern, "uplink")
    r1 = rb_rate(dup, 1, [0, 1], pattern, "uplink")
    assert r0 == pytest.approx(r1, abs=1e-15)
    rate = evaluate_schedule(dup, assign, "uplink")
    assert rate == pytest.approx(r0, abs=1e-15)


def test_grouping_empty_group_with_rbs_rejected():
    profiles = builtin_profiles()[:2]
    pop = build_population([4, 0], profiles, FadingSpec(), seed=0)
    cfg = SystemConfig(num_rbs=4, num_antennas=4, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1)
    registry = default_registry(profiles, cfg.numerology, 4)
    # group 1 is empty; the fair mapping gives it no RBs, so this succeeds
    grouping_schedule(pop, cfg, registry, "round_robin", None)
    assert all(g == 0 for g in group_rb_ownership(pop, cfg.num_rbs))


def test_conventional_rejects_overflow():
    pop, cfg, real, pattern, _ = _instance(33, k=8, n_rbs=2, mux=3)
    with pytest.raises(ConfigurationError):
        conventional_schedule_exact(real, pattern, "uplink")


def test_grouping_gain_vs_exact_rises_with_antennas():
    """The large-system mechanism: the exact baseline's search advantage is a
    constant rate offset, so the grouping deficit shrinks as log2(M) grows."""
    from pilotadapt.core import lte_numerology

    profiles = builtin_profiles()
    num_rb, mux = 4, 4
    pop = build_population([4, 4, 4, 4], profiles, FadingSpec(), seed=0)
    num = lte_numerology()
    registry = default_registry(profiles, num, mux)
    pattern = conventional_pattern(registry)
    gains = {}
    for m in (64, 256):
        cfg = SystemConfig(num_rbs=num_rb, num_antennas=m, max_mux=mux, ul_power=1.0, dl_power=1.0, noise_power=0.1)
        vals = []
        for trial in range(2):
            real = generate_realization(pop, cfg, seed=600 + trial)
            _, r_conv = rated(conventional_schedule_exact, real, pattern, "uplink")
            assign = grouping_schedule(pop, cfg, registry, "random", np.random.default_rng(trial))
            r_grp = evaluate_schedule(real, assign, "uplink")
            vals.append(r_grp / r_conv - 1.0)
        gains[m] = np.mean(vals)
    assert gains[256] > gains[64]


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
def test_calculator_over_some_users_matches_all_users(direction):
    """Pair terms built for a subset of the users rate that subset's user
    sets bit-identically to the all-users calculator, and refuse others."""
    pop, cfg, real, pattern, _ = _instance(33, k=8, n_rbs=2)
    users = [6, 1, 4, 3]
    for rb in range(cfg.num_rbs):
        full = RbRateCalculator(real, rb, pattern, direction)
        some = RbRateCalculator(real, rb, pattern, direction, users)
        for size in range(len(users) + 1):
            subsets = np.array(list(itertools.combinations(users, size)), dtype=np.intp)
            assert np.array_equal(some.rates_for_subsets(subsets), full.rates_for_subsets(subsets))
        with pytest.raises(ValueError):
            some.rates_for_subsets([[1, 2]])
