import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotadapt.channel import (
    builtin_profiles,
    generate_realization,
    max_spacing,
)
from pilotadapt.core import FadingSpec, SystemConfig, build_population
from pilotadapt.errors import ConfigurationError, ExactSearchBudgetError
from pilotadapt import scheduling
from pilotadapt.patterns import PatternRegistry, conventional_pattern, default_registry
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

from conftest import rb_rate
from oracles import StoredGrams, draw_channels, oracle_exact_partition, oracle_grams


def _instance(seed, k=8, n_rbs=2, m=4, mux=4, sigma2=0.1):
    profiles = builtin_profiles()
    sizes = [k // 4] * 4 if k % 4 == 0 else [k]
    pop = build_population(sizes, FadingSpec(), seed=seed)
    cfg = SystemConfig(
        num_rbs=n_rbs, num_antennas=m, max_mux=mux,
        ul_power=1.0, dl_power=1.0, noise_power=sigma2,
    )
    real = generate_realization(pop, profiles, cfg, seed=seed)
    pattern = conventional_pattern(default_registry(profiles, cfg.numerology, mux))
    return pop, cfg, real, pattern, profiles


def test_exact_matches_brute_force():
    for seed in range(5):
        pop, cfg, real, pattern, _ = _instance(seed)
        for direction in ("uplink", "downlink"):
            _, dp = conventional_schedule_exact(real, pop, cfg, pattern, direction)
            bf = exhaustive_best(real, pop, cfg, pattern, direction)
            assert dp == pytest.approx(bf, abs=1e-12)


def rb_rates(real, pop, cfg, pattern, direction):
    """Cached rate(rb, users) of one sorted user tuple on one RB."""
    calcs = [
        RbRateCalculator(real, rb, cfg, pattern, direction, pop.fadings())
        for rb in range(cfg.num_rbs)
    ]
    return functools.cache(lambda rb, users: calcs[rb].rates_for_subsets([users])[0])


def exhaustive_best(real, pop, cfg, pattern, direction):
    """Best mean rate over every assignment of users to RBs with at most
    max_mux users per RB, empty RBs included; independent of the DP."""
    k, n_rbs = pop.num_users, cfg.num_rbs
    rate = rb_rates(real, pop, cfg, pattern, direction)
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
    pop = build_population([k], FadingSpec(kind="lognormal", spread_db=6.0), seed=seed)
    cfg = SystemConfig(
        num_rbs=n_rbs, num_antennas=4, max_mux=mux,
        ul_power=1.0, dl_power=1.0, noise_power=0.1,
    )
    profiles = builtin_profiles()
    real = generate_realization(pop, profiles[:1], cfg, seed=seed)
    pattern = conventional_pattern(default_registry(profiles, cfg.numerology, mux))
    return pop, cfg, real, pattern, direction


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_instances())
def test_exact_matches_exhaustive_search(instance):
    """K <= n_rbs * mux, so RBs may be left partly or wholly empty. The
    partition, not only the rate, is that of a per-transition dict DP with
    the documented tie order."""
    pop, cfg, real, pattern, direction = instance
    assign, dp = conventional_schedule_exact(real, pop, cfg, pattern, direction)
    assert dp == pytest.approx(exhaustive_best(real, pop, cfg, pattern, direction), abs=1e-12)
    rate = rb_rates(real, pop, cfg, pattern, direction)
    users, total = oracle_exact_partition(rate, pop.num_users, cfg.num_rbs, cfg.max_mux)
    assert assign.rb_users == users
    assert dp == total / cfg.num_rbs

    placed = [u for users in assign.rb_users for u in users]
    assert sorted(placed) == list(range(pop.num_users))
    assert len(assign.rb_users) == cfg.num_rbs
    assert all(len(users) <= cfg.max_mux for users in assign.rb_users)
    achieved = evaluate_schedule(real, assign, cfg, direction, fadings=pop.fadings())
    assert achieved == pytest.approx(dp, abs=1e-12)

    _, greedy = conventional_schedule_greedy(real, pop, cfg, pattern, direction)
    assert greedy <= dp + 1e-12


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
        oracle_grams(np.ones((k, n_rbs, 14, 12, cfg.num_antennas))), real.numerology
    )
    for direction in ("uplink", "downlink"):
        calc = RbRateCalculator(same, 0, cfg, pattern, direction, pop.fadings())
        rates = calc.rates_for_subsets(np.array(list(itertools.combinations(range(k), mux))))
        assert np.all(rates == rates[0])
        assign, _ = conventional_schedule_exact(same, pop, cfg, pattern, direction)
        assert assign.rb_users == expected
        rate = rb_rates(same, pop, cfg, pattern, direction)
        assert oracle_exact_partition(rate, k, n_rbs, mux)[0] == expected


def test_greedy_tie_rule():
    """On the all-ones channel every candidate of a step has a bit-identical
    rate, so the greedy's lowest-id tie rule fills the RBs with the lowest
    user ids first."""
    pop, cfg, real, pattern, _ = _instance(50, k=6, n_rbs=3, mux=2)
    same = StoredGrams(
        oracle_grams(np.ones((6, 3, 14, 12, cfg.num_antennas))), real.numerology
    )
    for direction in ("uplink", "downlink"):
        assign, _ = conventional_schedule_greedy(same, pop, cfg, pattern, direction)
        assert assign.rb_users == ((0, 1), (2, 3), (4, 5))


def test_exact_dp_memory_is_per_stage():
    """K = 16 users on 16 single-layer RBs: one (RB, 2^K) float64 block is
    8.4 MB. The DP keeps its dense 2^K arrays for one stage at a time, so its
    peak allocation stays under 0.6 of that; a per-RB rate table or an int64
    (or int32) backpointer block would not."""
    k = n_rbs = 16
    pop, cfg, real, pattern, _ = _instance(60, k=k, n_rbs=n_rbs, m=2, mux=1)
    # the first call builds the Grams and finishes numpy's lazy imports
    conventional_schedule_exact(real, pop, cfg, pattern, "uplink")
    tracemalloc.start()
    try:
        conventional_schedule_exact(real, pop, cfg, pattern, "uplink")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * n_rbs * 2**k * 8


def test_exact_single_rb_is_forced():
    pop, cfg, real, pattern, _ = _instance(3, k=4, n_rbs=1)
    assign, rate = conventional_schedule_exact(real, pop, cfg, pattern, "uplink")
    assert assign.rb_users == ((0, 1, 2, 3),)
    calc = RbRateCalculator(real, 0, cfg, pattern, "uplink", pop.fadings())
    assert rate == pytest.approx(calc.rates_for_subsets([(0, 1, 2, 3)])[0])


def test_exact_rejects_oversized_instance():
    pop, cfg, real, pattern, _ = _instance(1, k=28, n_rbs=4, mux=7)
    with pytest.raises(ExactSearchBudgetError, match="greedy"):
        conventional_schedule_exact(real, pop, cfg, pattern, "uplink")


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
    conventional_schedule_exact(real, pop, cfg, pattern, "uplink")
    table_term = scheduling._TABLE_ROW_COST * sum(rows)
    assert sum(compared) == scheduling._estimate_transitions(k, n_rbs, mux) - table_term


def test_greedy_never_beats_exact():
    for seed in range(4):
        pop, cfg, real, pattern, _ = _instance(10 + seed)
        _, exact = conventional_schedule_exact(real, pop, cfg, pattern, "uplink")
        _, greedy = conventional_schedule_greedy(real, pop, cfg, pattern, "uplink")
        assert greedy <= exact + 1e-12


def test_greedy_equals_exact_when_forced():
    pop, cfg, real, pattern, _ = _instance(2, k=4, n_rbs=1)
    _, exact = conventional_schedule_exact(real, pop, cfg, pattern, "uplink")
    _, greedy = conventional_schedule_greedy(real, pop, cfg, pattern, "uplink")
    assert greedy == pytest.approx(exact, abs=1e-12)


def test_greedy_logs_gap_to_exact():
    pop, cfg, real, pattern, _ = _instance(20)
    _, exact = conventional_schedule_exact(real, pop, cfg, pattern, "uplink")
    _, greedy = conventional_schedule_greedy(real, pop, cfg, pattern, "uplink")
    # no fixed constant asserted; record the measured ratio
    print(f"greedy/exact ratio on seed-20 instance: {greedy / exact:.4f}")
    assert 0.0 < greedy <= exact + 1e-12


def test_rb_ownership_examples():
    pop = build_population([4, 4, 4, 4], FadingSpec(), seed=0)
    assert group_rb_ownership(pop, 4) == [0, 1, 2, 3]
    pop = build_population([6, 3, 3], FadingSpec(), seed=0)
    assert group_rb_ownership(pop, 4) == [0, 0, 1, 2]
    pop = build_population([5], FadingSpec(), seed=0)
    assert group_rb_ownership(pop, 3) == [0, 0, 0]


def test_rb_ownership_fairness():
    rng = np.random.default_rng(23)
    for _ in range(100):
        sizes = rng.integers(1, 9, size=int(rng.integers(1, 5))).tolist()
        n_rbs = int(rng.integers(len(sizes), 13))
        pop = build_population(sizes, FadingSpec(), seed=0)
        owners = group_rb_ownership(pop, n_rbs)
        k = pop.num_users
        for g, group in enumerate(pop.groups):
            share = owners.count(g) / n_rbs
            gamma = len(group) / k
            assert abs(share - gamma) < 1.0 / n_rbs + 1e-12


def test_grouping_schedule_equal_groups():
    profiles = builtin_profiles()
    pop = build_population([4, 4, 4, 4], FadingSpec(), seed=0)
    cfg = SystemConfig(num_rbs=4, num_antennas=8, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1)
    registry = default_registry(profiles, cfg.numerology, 4)
    assign = grouping_schedule(pop, cfg, registry, profiles, "round_robin")
    assert assign.mode == "grouping"
    assert assign.rb_groups == (0, 1, 2, 3)
    # forced sets: each group's four users on its own RB
    assert assign.rb_users == tuple(pop.groups)
    # every RB pattern is feasible for its group (both spacing inequalities)
    for rb, g in enumerate(assign.rb_groups):
        limit = max_spacing(profiles[g], cfg.numerology)
        sp = assign.rb_patterns[rb].spacing
        assert sp.time_spacing_symbols <= limit.time_spacing_symbols
        assert sp.freq_spacing_subcarriers <= limit.freq_spacing_subcarriers
        assert len(assign.rb_users[rb]) <= cfg.max_mux


def test_grouping_disjoint_when_groups_large_enough():
    profiles = builtin_profiles()[:2]
    pop = build_population([8, 8], FadingSpec(), seed=0)
    cfg = SystemConfig(num_rbs=4, num_antennas=4, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1)
    registry = default_registry(profiles, cfg.numerology, 4)
    rng = np.random.default_rng(3)
    assign = grouping_schedule(pop, cfg, registry, profiles, "random", rng)
    all_users = [u for s in assign.rb_users for u in s]
    assert len(all_users) == len(set(all_users))
    for rb, g in enumerate(assign.rb_groups):
        assert set(assign.rb_users[rb]) <= set(pop.groups[g])


def test_grouping_small_group_reuses_across_rbs_only():
    profiles = builtin_profiles()[:1]
    pop = build_population([3], FadingSpec(), seed=0)  # 3 users, 2 RBs x 2 layers
    cfg = SystemConfig(num_rbs=2, num_antennas=4, max_mux=2, ul_power=1.0, dl_power=1.0, noise_power=0.1)
    registry = default_registry(profiles, cfg.numerology, 2)
    rng = np.random.default_rng(5)
    assign = grouping_schedule(pop, cfg, registry, profiles, "random", rng)
    for users in assign.rb_users:
        assert len(users) == 2
        assert len(set(users)) == 2  # never repeats a user within an RB


def test_grouping_random_picker_seeded():
    profiles = builtin_profiles()
    pop = build_population([8, 8, 8, 8], FadingSpec(), seed=0)
    cfg = SystemConfig(num_rbs=4, num_antennas=4, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1)
    registry = default_registry(profiles, cfg.numerology, 4)
    a = grouping_schedule(pop, cfg, registry, profiles, "random", np.random.default_rng(9))
    b = grouping_schedule(pop, cfg, registry, profiles, "random", np.random.default_rng(9))
    assert a == b


def test_grouping_dominated_by_exact_when_collapsed():
    # single group, registry collapsed to the worst-case pattern: any grouping
    # schedule is one feasible point of the conventional optimization
    profiles = [builtin_profiles()[3]]
    pop = build_population([8], FadingSpec(), seed=1)
    cfg = SystemConfig(num_rbs=2, num_antennas=4, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1)
    pattern = conventional_pattern(default_registry(profiles, cfg.numerology, 4))
    registry = PatternRegistry(patterns=(pattern,))
    real = generate_realization(pop, profiles, cfg, seed=4)
    _, exact = conventional_schedule_exact(real, pop, cfg, pattern, "uplink")
    for picker_seed in range(5):
        assign = grouping_schedule(
            pop, cfg, registry, profiles, "random", np.random.default_rng(picker_seed)
        )
        rate = evaluate_schedule(real, assign, cfg, "uplink", fadings=pop.fadings())
        assert rate <= exact + 1e-12


def test_evaluate_schedule_consistency():
    pop, cfg, real, pattern, _ = _instance(30)
    assign, rate = conventional_schedule_exact(real, pop, cfg, pattern, "uplink")
    ev = evaluate_schedule(real, assign, cfg, "uplink", fadings=pop.fadings())
    assert ev == pytest.approx(rate, abs=1e-12)


def test_evaluate_schedule_empty_rb_contributes_zero():
    pop, cfg, real, pattern, _ = _instance(31, k=4, n_rbs=2)
    only_first = ScheduleAssignment(
        rb_users=((0, 1, 2, 3), ()),
        rb_patterns=(pattern, pattern),
        rb_groups=(None, None),
        mode="conventional",
    )
    rate = evaluate_schedule(real, only_first, cfg, "uplink", fadings=pop.fadings())
    solo = rb_rate(real, 0, [0, 1, 2, 3], pattern, cfg, "uplink", fadings=pop.fadings())
    assert rate == pytest.approx(solo / 2.0)


def test_identical_rbs_contribute_equally():
    pop, cfg, real, pattern, profiles = _instance(32, k=4, n_rbs=2)
    h0 = draw_channels(pop, profiles, cfg, 32, 0)
    # RB 1 = RB 0
    dup = StoredGrams(oracle_grams(np.stack([h0, h0], axis=1)), real.numerology)
    assign = ScheduleAssignment(
        rb_users=((0, 1), (0, 1)),
        rb_patterns=(pattern, pattern),
        rb_groups=(None, None),
        mode="grouping",
    )
    r0 = rb_rate(dup, 0, [0, 1], pattern, cfg, "uplink", fadings=pop.fadings())
    r1 = rb_rate(dup, 1, [0, 1], pattern, cfg, "uplink", fadings=pop.fadings())
    assert r0 == pytest.approx(r1, abs=1e-15)


def test_grouping_empty_group_with_rbs_rejected():
    profiles = builtin_profiles()[:2]
    pop = build_population([4, 0], FadingSpec(), seed=0)
    cfg = SystemConfig(num_rbs=4, num_antennas=4, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1)
    registry = default_registry(profiles, cfg.numerology, 4)
    # group 1 is empty; the fair mapping gives it no RBs, so this succeeds
    assign = grouping_schedule(pop, cfg, registry, profiles, "round_robin")
    assert all(g == 0 for g in assign.rb_groups)


def test_conventional_rejects_overflow():
    pop, cfg, real, pattern, _ = _instance(33, k=8, n_rbs=2, mux=3)
    with pytest.raises(ConfigurationError):
        conventional_schedule_exact(real, pop, cfg, pattern, "uplink")


def test_assignment_json_dump():
    profiles = builtin_profiles()
    pop = build_population([4, 4, 4, 4], FadingSpec(), seed=0)
    cfg = SystemConfig(num_rbs=4, num_antennas=4, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=0.1)
    registry = default_registry(profiles, cfg.numerology, 4)
    assign = grouping_schedule(pop, cfg, registry, profiles, "round_robin")
    dump = assign.to_dict()
    assert dump["mode"] == "grouping"
    assert [rb["group"] for rb in dump["rbs"]] == [0, 1, 2, 3]
    assert dump["rbs"][0]["spacing"] == [14, 12]
    assert dump["rbs"][0]["users"] == [0, 1, 2, 3]


def test_grouping_gain_vs_exact_rises_with_antennas():
    """The large-system mechanism: the exact baseline's search advantage is a
    constant rate offset, so the grouping deficit shrinks as log2(M) grows."""
    from pilotadapt.core import lte_numerology

    profiles = builtin_profiles()
    num_rb, mux = 4, 4
    pop = build_population([4, 4, 4, 4], FadingSpec(), seed=0)
    num = lte_numerology()
    registry = default_registry(profiles, num, mux)
    pattern = conventional_pattern(registry)
    gains = {}
    for m in (64, 256):
        cfg = SystemConfig(num_rbs=num_rb, num_antennas=m, max_mux=mux, ul_power=1.0, dl_power=1.0, noise_power=0.1)
        vals = []
        for trial in range(2):
            real = generate_realization(pop, profiles, cfg, seed=600 + trial)
            _, r_conv = conventional_schedule_exact(real, pop, cfg, pattern, "uplink")
            assign = grouping_schedule(pop, cfg, registry, profiles, "random", np.random.default_rng(trial))
            r_grp = evaluate_schedule(real, assign, cfg, "uplink", fadings=pop.fadings())
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
        full = RbRateCalculator(real, rb, cfg, pattern, direction, pop.fadings())
        some = RbRateCalculator(real, rb, cfg, pattern, direction, pop.fadings(), users)
        for size in range(len(users) + 1):
            subsets = np.array(list(itertools.combinations(users, size)), dtype=np.intp)
            assert np.array_equal(some.rates_for_subsets(subsets), full.rates_for_subsets(subsets))
        with pytest.raises(ValueError):
            some.rates_for_subsets([[1, 2]])
