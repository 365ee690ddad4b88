import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilotadapt.core import Numerology, lte_numerology
from pilotadapt.errors import (
    ConfigurationError,
    InfeasibleRegistryError,
    NoDataRoomError,
    PilotAdaptError,
)
from pilotadapt.patterns import (
    ChannelProfile,
    PatternRegistry,
    PilotPattern,
    PilotSpacing,
    build_pattern,
    conventional_pattern,
    default_registry,
    max_spacing,
    pattern_to_dict,
    select_pattern_for_group,
)

from conftest import tiny_numerology
from oracles import oracle_conventional_pattern


def expected_count(spacing, num, mux):
    import math

    return (
        math.ceil(num.symbols_per_rb / spacing.time_spacing_symbols)
        * math.ceil(num.subcarriers_per_rb / spacing.freq_spacing_subcarriers)
        * mux
    )


def test_build_pattern_counts(num):
    pat = build_pattern(PilotSpacing(11, 3), num, 4)
    assert pat.size == 2 * 4 * 4 == 32
    pat = build_pattern(PilotSpacing(14, 12), num, 4)
    assert pat.size == 4
    # the classic 4-layer pattern size arises at spacing (7, 4)
    pat = build_pattern(PilotSpacing(7, 4), num, 4)
    assert pat.size == 2 * 3 * 4 == 24


@st.composite
def pattern_cases(draw):
    n_s, n_sc = draw(st.integers(1, 20)), draw(st.integers(1, 16))
    spacing = PilotSpacing(draw(st.integers(1, n_s)), draw(st.integers(1, n_sc)))
    return tiny_numerology(n_s, n_sc), spacing, draw(st.integers(1, 8))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pattern_cases())
def test_pattern_count_identity(case):
    """|P| = ceil(N_s / dt) * ceil(N_sc / df) * mux on any grid and spacing,
    with distinct in-grid positions; a pattern that would cover every RE is
    refused."""
    num, spacing, mux = case
    count = expected_count(spacing, num, mux)
    if count >= num.res_per_rb:
        with pytest.raises(NoDataRoomError):
            build_pattern(spacing, num, mux)
        return
    pat = build_pattern(spacing, num, mux)
    assert pat.size == len(set(pat.positions)) == count
    for t, n in pat.positions:
        assert 0 <= t < num.symbols_per_rb and 0 <= n < num.subcarriers_per_rb


def test_build_pattern_positions_distinct_and_in_grid(num):
    pat = build_pattern(PilotSpacing(11, 3), num, 4)
    assert len(set(pat.positions)) == pat.size
    for t, n in pat.positions:
        assert 0 <= t < num.symbols_per_rb
        assert 0 <= n < num.subcarriers_per_rb


def test_build_pattern_no_data_room():
    num = tiny_numerology(2, 2)
    with pytest.raises(NoDataRoomError):
        build_pattern(PilotSpacing(1, 1), num, 1)  # 4 anchors x 1 = all REs
    with pytest.raises(ConfigurationError):
        build_pattern(PilotSpacing(3, 1), num, 1)  # spacing beyond the grid


@pytest.mark.parametrize(
    "positions",
    [((14, 0),), ((20, 0),), ((0, 12),), ((-1, 0),), ((0, -1),), ((0, 0), (0, 0)), ((0, 0, 0),)],
)
def test_pilot_pattern_refuses_positions_that_are_not_distinct_res_of_its_grid(positions):
    """An off-grid position would index past the data mask, a negative one
    would mark the RE it wraps to, and a repeat would count one pilot RE
    twice in `size` and `overhead_ratio`: each is refused, naming the grid."""
    with pytest.raises(ConfigurationError, match="distinct REs of the 14x12 grid"):
        PilotPattern(PilotSpacing(14, 12), positions, 1, 14, 12)


def test_pilot_pattern_refuses_covering_every_re():
    every = tuple((t, n) for t in range(3) for n in range(2))
    with pytest.raises(NoDataRoomError, match="covers every RE of the block"):
        PilotPattern(PilotSpacing(1, 1), every, 1, 3, 2)
    assert PilotPattern(PilotSpacing(1, 1), every[1:], 1, 3, 2).size == 5
    assert PilotPattern(PilotSpacing(3, 2), (), 1, 3, 2).overhead_ratio == 0.0


def test_conventional_pattern_table1(num, profiles):
    pat = conventional_pattern(default_registry(profiles, num, 4))
    assert pat.size == 32
    sp = pat.spacing
    assert (sp.time_spacing_symbols, sp.freq_spacing_subcarriers) == (11, 3)
    assert conventional_pattern(default_registry(profiles, num, 7)).size == 56


def test_conventional_pattern_singleton(num, profiles):
    prof = profiles[1]
    pat = conventional_pattern(default_registry([prof], num, 4))
    ref = build_pattern(max_spacing(prof, num), num, 4)
    assert pat == ref


_RULE_NUMEROLOGIES = [
    lte_numerology(),
    tiny_numerology(2, 2),
    tiny_numerology(7, 6),
    Numerology(1e-3 / 28, 30e3, 14, 12),
]


@st.composite
def conventional_cases(draw):
    """1-5 profiles, one of four numerologies and a mux order. On the LTE
    grid (7, 6) ties (14, 3) and (5, 12) ties (14, 4) in pilot count; 100 us
    fits no grid, and large orders fill the small ones."""
    profiles = [
        ChannelProfile(
            f"p{i}",
            draw(st.sampled_from([5.0, 300.0, 500.0, 600.0, 1000.0])),
            draw(st.sampled_from([0.41e-6, 2.7e-6, 4e-6, 4.69e-6, 8e-6, 1e-4])),
        )
        for i in range(draw(st.integers(1, 5)))
    ]
    return profiles, draw(st.sampled_from(_RULE_NUMEROLOGIES)), draw(st.integers(1, 8))


_TIED = [ChannelProfile("a", 500.0, 2.7e-6), ChannelProfile("b", 5.0, 4.69e-6)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(conventional_cases())
@example((_TIED, lte_numerology(), 2))  # (7, 6) and (14, 3): 4 anchors each
@example((_TIED[::-1], lte_numerology(), 2))
def test_conventional_pattern_is_the_worst_case_rule(case):
    """The registry's densest pattern is the one the worst-case rule picks
    from the profiles themselves: the most pilot REs, ties toward the
    smaller time spacing, then the smaller frequency spacing. Where the rule
    refuses the inputs, registry and pattern refuse them with the same
    error type."""
    profiles, num, mux = case
    try:
        want = oracle_conventional_pattern(profiles, num, mux)
    except PilotAdaptError as exc:
        with pytest.raises(type(exc)):
            conventional_pattern(default_registry(profiles, num, mux))
        return
    assert conventional_pattern(default_registry(profiles, num, mux)) == want


def test_conventional_pattern_of_empty_registry():
    with pytest.raises(InfeasibleRegistryError):
        conventional_pattern(PatternRegistry(patterns=()))


def test_default_registry_table1(num, profiles):
    reg = default_registry(profiles, num, 4)
    assert len(reg.patterns) == 4
    assert [p.size for p in reg.patterns] == [4, 8, 16, 32]
    reg1 = default_registry([profiles[0]], num, 4)
    assert len(reg1.patterns) == 1


def test_registry_dedups_identical_spacings(num):
    # same clamped spacing for both profiles
    a = ChannelProfile("a", 5.0, 0.41e-6)
    b = ChannelProfile("b", 6.0, 0.40e-6)
    assert max_spacing(a, num) == max_spacing(b, num)
    reg = default_registry([a, b], num, 4)
    assert len(reg.patterns) == 1


def test_registry_rejects_duplicate_spacing(num):
    p = build_pattern(PilotSpacing(11, 3), num, 4)
    with pytest.raises(ConfigurationError):
        PatternRegistry(patterns=(p, p))


def test_select_pattern_for_group(num, profiles):
    reg = default_registry(profiles, num, 4)
    epa = select_pattern_for_group(reg, profiles[0], num)
    assert (epa.spacing.time_spacing_symbols, epa.spacing.freq_spacing_subcarriers) == (14, 12)
    assert epa.size == 4
    etu300 = select_pattern_for_group(reg, profiles[3], num)
    assert etu300 == conventional_pattern(default_registry(profiles, num, 4))


def test_select_pattern_forced_choice(num, profiles):
    dense = build_pattern(PilotSpacing(11, 3), num, 4)
    reg = PatternRegistry(patterns=(dense,))
    assert select_pattern_for_group(reg, profiles[0], num) == dense


def test_select_pattern_infeasible(num, profiles):
    sparse = build_pattern(PilotSpacing(14, 12), num, 4)
    reg = PatternRegistry(patterns=(sparse,))
    with pytest.raises(InfeasibleRegistryError):
        select_pattern_for_group(reg, profiles[3], num)


def _random_profiles(rng, count):
    profs = []
    for i in range(count):
        profs.append(
            ChannelProfile(
                f"p{i}",
                float(rng.uniform(2.0, 900.0)),
                float(rng.uniform(0.05e-6, 4.69e-6)),
            )
        )
    return profs


def test_pattern_algebra_randomized(num):
    rng = np.random.default_rng(33)
    for _ in range(100):
        n_s = int(rng.integers(4, 15))
        n_sc = int(rng.integers(4, 13))
        grid = tiny_numerology(n_s, n_sc)
        mux = int(rng.integers(1, 5))
        profs = _random_profiles(rng, int(rng.integers(1, 5)))
        try:
            reg = default_registry(profs, grid, mux)
        except NoDataRoomError:
            continue
        # distinct spacings, bounded size
        assert len({p.spacing for p in reg.patterns}) == len(reg.patterns)
        assert len(reg.patterns) <= len(profs)
        for pat in reg.patterns:
            assert pat.size == expected_count(pat.spacing, grid, mux)
            assert 0.0 < pat.overhead_ratio < 1.0
        for prof in profs:
            sel = select_pattern_for_group(reg, prof, grid)
            limit = max_spacing(prof, grid)
            assert sel.spacing.time_spacing_symbols <= limit.time_spacing_symbols
            assert sel.spacing.freq_spacing_subcarriers <= limit.freq_spacing_subcarriers


def test_selection_dominance(num, profiles):
    # element-wise worse statistics never select a sparser pattern
    reg = default_registry(profiles, num, 4)
    rng = np.random.default_rng(7)
    for _ in range(50):
        # stay within the registry's densest spacing so both profiles are feasible
        f = rng.uniform(5.0, 100.0)
        tau = rng.uniform(0.1e-6, 4.0e-6)
        better = ChannelProfile("b", f, tau)
        worse = ChannelProfile("w", f * rng.uniform(1.0, 3.0), tau * rng.uniform(1.0, 1.15))
        sel_b = select_pattern_for_group(reg, better, num)
        sel_w = select_pattern_for_group(reg, worse, num)
        assert sel_w.size >= sel_b.size


def test_pattern_export(num):
    pat = build_pattern(PilotSpacing(14, 6), num, 4)
    d = pattern_to_dict(pat)
    assert d["size"] == 8
    assert d["spacing"] == [14, 6]
    assert len(d["positions"]) == 8
    grid = pat.grid_string()
    assert grid.count("P") == 8
    assert len(grid.splitlines()) == num.subcarriers_per_rb
