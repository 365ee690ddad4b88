import functools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import j0

from pilotadapt import channel
from pilotadapt.channel import generate_realization, generate_single_grid, unit_phasors
from pilotadapt.core import FadingSpec, Numerology, SystemConfig, build_population
from pilotadapt.errors import ConfigurationError, UnsupportableProfileError
from pilotadapt.patterns import ChannelProfile, PilotSpacing, builtin_profiles, max_spacing

from oracles import StoredGrams, draw_channels, oracle_grams, oracle_single_grid


def test_max_spacing_etu300(num):
    sp = max_spacing(ChannelProfile("ETU300", 300.0, 4.69e-6), num)
    assert (sp.time_spacing_symbols, sp.freq_spacing_subcarriers) == (11, 3)


@pytest.mark.parametrize(
    "doppler, delay, duration",
    [
        (1e-300, 1e-300, None),
        (1e-310, 1e-300, None),  # 4 f T is subnormal: its inverse is inf
        (5e-324, 1e-300, None),  # 4 f T underflows to zero
        (1e-300, 5e-324, None),
        (5e-324, 5e-324, None),
        (70.0, 1e-300, 1e-320),
        (70.0, 1e-300, 1e-300),
    ],
)
def test_max_spacing_full_grid_for_tiny_rates(num, doppler, delay, duration):
    """A Doppler, delay spread or symbol time small enough that 4 f T or
    4 tau df underflows tolerates the whole grid, as 1e-300 does."""
    if duration is not None:
        num = Numerology(duration, num.subcarrier_spacing_hz, 14, 12)
    sp = max_spacing(ChannelProfile("tiny", doppler, delay), num)
    assert (sp.time_spacing_symbols, sp.freq_spacing_subcarriers) == (14, 12)


def test_max_spacing_epa5_clamps_to_grid(num):
    sp = max_spacing(ChannelProfile("EPA5", 5.0, 0.41e-6), num)
    assert (sp.time_spacing_symbols, sp.freq_spacing_subcarriers) == (14, 12)
    # the unclamped floors are visible on a grid large enough not to clamp
    wide = Numerology(num.symbol_duration_s, num.subcarrier_spacing_hz, 1000, 100)
    sp = max_spacing(ChannelProfile("EPA5", 5.0, 0.41e-6), wide)
    assert (sp.time_spacing_symbols, sp.freq_spacing_subcarriers) == (700, 40)


def test_max_spacing_unit_boundary(num):
    f = 1.0 / (4.0 * num.symbol_duration_s)
    tau = 1.0 / (4.0 * num.subcarrier_spacing_hz)
    sp = max_spacing(ChannelProfile("edge", f, tau), num)
    assert (sp.time_spacing_symbols, sp.freq_spacing_subcarriers) == (1, 1)


def test_max_spacing_unsupportable(num):
    with pytest.raises(UnsupportableProfileError):
        max_spacing(ChannelProfile("too-fast", 1.0 / (2.0 * num.symbol_duration_s), 1e-9), num)


def test_max_spacing_antitone(num):
    rng = np.random.default_rng(4)
    for _ in range(100):
        f = rng.uniform(5.0, 800.0)
        tau = rng.uniform(0.05e-6, 4.69e-6)
        base = max_spacing(ChannelProfile("a", f, tau), num)
        worse = max_spacing(ChannelProfile("b", f * rng.uniform(1.0, 3.0), tau), num)
        assert worse.time_spacing_symbols <= base.time_spacing_symbols
        worse = max_spacing(ChannelProfile("c", f, tau * rng.uniform(1.0, 3.0)), num)
        assert worse.freq_spacing_subcarriers <= base.freq_spacing_subcarriers


def test_builtin_profiles_table(num):
    profs = builtin_profiles()
    assert [p.name for p in profs] == ["EPA5", "EVA70", "ETU70", "ETU300"]
    assert profs[0].max_doppler_hz == 5.0
    assert profs[0].max_delay_spread_s == 0.41e-6
    assert profs[3].max_doppler_hz == 300.0
    assert profs[3].max_delay_spread_s == 4.69e-6
    assert max(p.max_delay_spread_s for p in profs) == 4.69e-6
    assert max(p.max_doppler_hz for p in profs) == 300.0


def test_profile_validations():
    with pytest.raises(ConfigurationError):
        ChannelProfile("bad", -1.0, 1e-6)
    with pytest.raises(ConfigurationError):
        ChannelProfile("bad", 10.0, 1e-6, taps=((0.0, 0.4), (1e-6, 0.4)))  # sums to 0.8
    with pytest.raises(ConfigurationError):
        ChannelProfile("bad", 10.0, 1e-6, taps=((2e-6, 1.0),))  # delay beyond spread


def test_default_bracket_pdp():
    prof = ChannelProfile("x", 70.0, 2.51e-6)
    assert prof.taps == ((0.0, 0.5), (2.51e-6, 0.5))


ONE_TAP = ChannelProfile("one-tap", 70.0, 1e-6, taps=((0.0, 1.0),))
THREE_TAP = ChannelProfile("three-tap", 300.0, 4.69e-6, taps=((0.0, 0.5), (1.5e-6, 0.3), (4.69e-6, 0.2)))


def _one_user_channels(profile, cfg, seed):
    """(RBs, T, N, M) channels of a single user of `profile`."""
    pop = build_population([1], [profile], FadingSpec(), seed=0)
    return np.stack(
        [draw_channels(pop, cfg, seed, rb)[0] for rb in range(cfg.num_rbs)]
    )


def _cfg(n_rbs, m):
    return SystemConfig(
        num_rbs=n_rbs, num_antennas=m, max_mux=4, ul_power=1.0, dl_power=1.0, noise_power=1.0
    )


def test_static_flat_channel_constant(num):
    prof = ChannelProfile("static-flat", 1e-9, 1e-12, taps=((0.0, 1.0),))
    h = _one_user_channels(prof, _cfg(1, 3), seed=5)[0]  # (T, N, M)
    assert np.allclose(h, h[0, 0][None, None, :], atol=1e-9)


def test_realization_seed_determinism(num, profiles):
    pop = build_population([2, 2, 2, 2], profiles, FadingSpec(), seed=1)
    cfg = _cfg(2, 4)
    a = generate_realization(pop, cfg, seed=9)
    b = generate_realization(pop, cfg, seed=9)
    c = generate_realization(pop, cfg, seed=10)
    for rb in range(cfg.num_rbs):
        assert np.array_equal(a.gram(rb)[0], b.gram(rb)[0])
        assert np.array_equal(a.gram(rb)[1], b.gram(rb)[1])
        assert not np.array_equal(a.gram(rb)[0], c.gram(rb)[0])
    assert np.array_equal(draw_channels(pop, cfg, 9, 1), draw_channels(pop, cfg, 9, 1))


def test_time_autocorrelation_matches_bessel(num):
    # lag-1 autocorrelation over 10^4 independent series
    prof = ChannelProfile("ETU300", 300.0, 4.69e-6)
    x = _one_user_channels(prof, _cfg(100, 100), seed=2)[:, :, 0, :]  # (rb, t, m) at one subcarrier
    emp = np.mean(x[:, :-1, :].conj() * x[:, 1:, :]) / np.mean(np.abs(x) ** 2)
    theo = j0(2 * np.pi * prof.max_doppler_hz * num.symbol_duration_s)
    assert abs(emp.real - theo) < 0.05
    assert abs(emp.imag) < 0.05


def test_frequency_correlation_matches_pdp_transform(num):
    prof = ChannelProfile("ETU300", 300.0, 4.69e-6)
    y = _one_user_channels(prof, _cfg(100, 100), seed=8)[:, 0, :, :]  # (rb, n, m) at one symbol
    dn = 3
    emp = np.mean(y[:, dn:, :] * y[:, :-dn, :].conj()) / np.mean(np.abs(y) ** 2)
    delays, powers = np.array(prof.taps).T
    theo = np.sum(powers * np.exp(-2j * np.pi * dn * num.subcarrier_spacing_hz * delays))
    assert abs(emp - theo) < 0.05


def test_unit_power_and_zero_mean(num):
    prof = ChannelProfile("EVA70", 70.0, 2.51e-6)
    h = _one_user_channels(prof, _cfg(50, 50), seed=13)
    n = h.size
    # |h|^2 has unit mean and ~unit std; means within 3 standard errors
    assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 3.0 / np.sqrt(n / 168)  # REs correlated within an RB
    assert abs(np.mean(h)) < 0.05


def test_doppler_band_limitation(num):
    # periodogram energy of a long series concentrates inside [-f, f]
    prof = ChannelProfile("ETU300", 300.0, 4.69e-6)
    n_t = 4096
    rng = np.random.default_rng(21)
    series = generate_single_grid(prof, n_t, 1, num, rng)[:, 0, 0]
    spec = np.abs(np.fft.fft(series)) ** 2
    freqs = np.fft.fftfreq(n_t, d=num.symbol_duration_s)
    margin = 10.0 / (n_t * num.symbol_duration_s)  # leakage allowance
    inside = np.abs(freqs) <= prof.max_doppler_hz + margin
    assert spec[inside].sum() / spec.sum() > 0.99


def test_realization_immutable(num, profiles):
    pop = build_population([1, 1, 1, 1], profiles, FadingSpec(), seed=0)
    real = generate_realization(pop, _cfg(1, 2), seed=0)
    cross, norms = real.gram(0)
    for arr in (cross, norms):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 0.0
    with pytest.raises(AttributeError):
        real.numerology = num
    assert not hasattr(real, "h")


def test_gram_arrays_are_read_only(profiles):
    """Builds with and without include sets and their slices all come back
    read-only."""
    pop = build_population([2, 2, 2, 2], profiles, FadingSpec(), seed=0)
    cfg = _cfg(2, 4)
    reals = [
        generate_realization(pop, cfg, seed=1),
        generate_realization(pop, cfg, seed=1, include=((0, 1), (6,))),
    ]
    for real in reals:
        for users in (None, [5, 1, 6], [3]):
            for arr in real.gram(1, users):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0] = 0.0
    with pytest.raises(ValueError, match="outside"):
        reals[1].gram(0, [8])


def test_gram_refuses_an_rb_outside_the_draw(profiles, monkeypatch):
    """RB -1 would serve the held build of the last RB, or fail inside
    numpy on a fresh draw, and RB num_rbs would index past the builds: each
    is refused, naming the RB and the RB count, before anything is built."""
    pop = build_population([2, 1], profiles[:2], FadingSpec(), seed=0)
    held = generate_realization(pop, _cfg(2, 4), seed=1)
    held.gram(1)
    with pytest.raises(ValueError, match="RB -1 outside the 2 RBs of the draw"):
        held.gram(-1)
    fresh = generate_realization(pop, _cfg(2, 4), seed=1)
    monkeypatch.setattr(channel.ChannelRealization, "_build", lambda *args: pytest.fail("built"))
    for rb in (-1, 2, 3):
        with pytest.raises(ValueError, match=f"RB {rb} outside the 2 RBs of the draw"):
            fresh.gram(rb, [0])


def test_gram_refuses_user_ids_that_are_not_a_flat_list(profiles, monkeypatch):
    """Nested ids would come back as a Gram with extra axes ([[0, 1]] as
    cross of shape (1, 1, 2, T, N)), and a single id as no Gram at all:
    each is refused, naming the ids, before anything is built."""
    pop = build_population([3], profiles[:1], FadingSpec(), seed=0)
    real = generate_realization(pop, _cfg(1, 4), seed=1)
    monkeypatch.setattr(channel.ChannelRealization, "_build", lambda *args: pytest.fail("built"))
    for users, shown in (([[0, 1]], "[[0, 1]]"), (np.array([[0], [2]]), "[[0], [2]]"), (1, "1")):
        with pytest.raises(ValueError, match=re.escape(f"user ids {shown} are not a flat list")):
            real.gram(0, users)


@pytest.mark.parametrize(
    "include, match",
    [
        (((0, 1),), "1 user sets for 2 RBs"),
        (((0, 1), (2,), ()), "3 user sets for 2 RBs"),
        (((0, 1), (8,)), "outside 0..7"),
        (((-1,), (2,)), "outside 0..7"),
    ],
)
def test_realization_refuses_include_that_does_not_fit_the_draw(profiles, include, match):
    """include must give one user set per RB of the config, of users 0..K-1."""
    pop = build_population([2, 2, 2, 2], profiles, FadingSpec(), seed=0)
    with pytest.raises(ConfigurationError, match=match):
        generate_realization(pop, _cfg(2, 4), seed=1, include=include)


def test_realization_keeps_the_config_and_gains_it_was_drawn_for(profiles):
    pop = build_population([2, 2], profiles[:2], FadingSpec(kind="lognormal", spread_db=6.0), seed=3)
    cfg = _cfg(2, 4)
    real = generate_realization(pop, cfg, seed=1)
    assert real.cfg is cfg
    assert real.gains == pop.gains
    assert real.num_users == pop.num_users == 4


SUBSET_PROFILES = [ONE_TAP, THREE_TAP, builtin_profiles()[1]]
SUBSET_POP = build_population([2, 1, 2], SUBSET_PROFILES, FadingSpec(), seed=0)


@functools.lru_cache(maxsize=None)
def _full_build(m):
    real = generate_realization(SUBSET_POP, _cfg(2, m), seed=3)
    return [real.gram(rb) for rb in range(2)]


@st.composite
def gram_requests(draw):
    """Antenna count, per-RB include sets and a sequence of (RB, users)
    requests; users come in random order."""
    subsets = st.lists(st.integers(0, SUBSET_POP.num_users - 1), unique=True, max_size=5)
    m = draw(st.sampled_from([5, 40]))
    include = tuple(tuple(sorted(draw(subsets))) for _ in range(2))
    requests = draw(st.lists(st.tuples(st.integers(0, 1), subsets), min_size=1, max_size=6))
    return m, include, requests


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(gram_requests())
@example((5, ((), ()), [(0, [0]), (0, [1]), (0, [0])]))  # a union would keep user 0
def test_gram_of_users_matches_the_full_build(case):
    """A realization serves any users of an RB, in the order asked, as the
    matching sub-block of the full build within rounding; the test stand-in
    `StoredGrams` over the full build must slice it the same way. An RB is
    drawn on its first request and again only when a request leaves its
    built set, each time for the request and include[rb] alone; a last
    request for every user forces that rebuild."""
    m, include, requests = case
    full = _full_build(m)
    stored = StoredGrams(full, _cfg(2, m), SUBSET_POP.gains)
    real = generate_realization(SUBSET_POP, _cfg(2, m), seed=3, include=include)
    built: dict[int, set] = {}
    builds, want_builds = [], []
    build = channel.ChannelRealization._build

    def counting_build(source, rb, users):
        rows, *gram = build(source, rb, users)
        builds.append((rb, set(np.flatnonzero(rows >= 0).tolist())))
        return rows, *gram

    with mock.patch.object(channel.ChannelRealization, "_build", counting_build):
        for rb, users in requests + [(0, None), (1, None)]:
            asked = set(range(SUBSET_POP.num_users) if users is None else users)
            if asked and (rb not in built or not asked <= built[rb]):
                built[rb] = asked | set(include[rb])
                want_builds.append((rb, built[rb]))
            cross, norms = real.gram(rb, users)
            want_cross, want_norms = stored.gram(rb, users)
            n = SUBSET_POP.num_users if users is None else len(users)
            assert cross.shape == want_cross.shape == (n, n, 14, 12)
            assert np.allclose(cross, want_cross, rtol=1e-12, atol=0.0)
            assert np.allclose(norms, want_norms, rtol=1e-12, atol=0.0)
    assert builds == want_builds
    # the last two requests built both RBs for every user, as the full build does
    for rb in range(2):
        assert all(np.array_equal(a, b) for a, b in zip(real.gram(rb), full[rb]))


def test_gram_matches_direct_inner_products():
    """The tap-domain Gram accumulated over antenna blocks equals the
    frequency-domain Gram of the same RB's channels, each user's drawn in
    one `generate_single_grid` call from its (seed, user, RB) generator.
    One-, two- and three-tap users share the blocks, so the padded taps are
    exercised. M = 70 and M = 130 (five blocks, the last of 2 antennas) are
    not multiples of the block size, so each user's stream must continue
    across blocks."""
    profs = [ONE_TAP, THREE_TAP, builtin_profiles()[1]]
    pop = build_population([2, 1, 2], profs, FadingSpec(), seed=0)
    assert 130 % channel._ANTENNA_CHUNK == 2
    for m in (5, 70, 130):
        cfg = _cfg(2, m)
        real = generate_realization(pop, cfg, seed=3)
        assert real.num_users == 5
        h = np.stack([draw_channels(pop, cfg, 3, rb) for rb in range(2)], axis=1)
        for rb, (want_cross, want_norms) in enumerate(oracle_grams(h)):
            cross, norms = real.gram(rb)
            assert np.allclose(cross, want_cross, rtol=1e-12, atol=0.0)
            assert np.allclose(norms, want_norms, rtol=1e-12, atol=0.0)
        assert "array" not in repr(real)


def test_unit_phasors_match_exp():
    rng = np.random.default_rng(17)
    edges = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, np.nextafter(2 * np.pi, 0.0)]
    phases = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 100_000), edges])
    err = np.abs(unit_phasors(phases) - np.exp(1j * phases))
    assert np.max(err) <= 2 * np.finfo(float).eps


@pytest.mark.parametrize("profile", [ONE_TAP, THREE_TAP, builtin_profiles()[1]], ids=lambda p: p.name)
@pytest.mark.parametrize("shape", [(14, 12, 1), (14, 12, 130), (140, 24, 1), (28, 120, 3)])
def test_single_grid_matches_einsum_oracle(num, profile, shape):
    """The matmul kernel equals the step-by-step einsum form on RB-sized,
    estimation-sized (wide) and many-antenna grids."""
    t, n, a = shape
    got = generate_single_grid(profile, t, n, num, np.random.default_rng(7), num_antennas=a)
    want = oracle_single_grid(profile, t, n, num, np.random.default_rng(7), num_antennas=a)
    assert got.shape == want.shape == shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_drawn_blocks_continue_one_stream(num):
    """M = 130 is drawn in several blocks, yet each RB's Gram equals the Gram
    of one einsum-oracle draw of all 130 antennas per user from that user's
    (seed, user, RB) generator."""
    profs = [ONE_TAP, THREE_TAP]
    pop = build_population([1, 2], profs, FadingSpec(), seed=0)
    cfg = _cfg(2, 130)
    assert cfg.num_antennas % channel._ANTENNA_CHUNK != 0
    real = generate_realization(pop, cfg, seed=11)
    h = np.stack([
        np.stack([
            oracle_single_grid(
                profs[g], 14, 12, num,
                np.random.Generator(np.random.PCG64(np.random.SeedSequence((11, k, rb)))),
                num_antennas=130,
            )
            for rb in range(cfg.num_rbs)
        ])
        for g, members in enumerate(pop.groups)
        for k in members
    ])
    for rb, (want_cross, want_norms) in enumerate(oracle_grams(h)):
        cross, norms = real.gram(rb)
        assert np.allclose(cross, want_cross, rtol=1e-12, atol=0.0)
        assert np.allclose(norms, want_norms, rtol=1e-12, atol=0.0)


def test_fewer_antennas_draw_the_leading_antennas(profiles):
    """Common random numbers across M: the M = 64 draw is the first 64
    antennas of the M = 112 draw with the same seed."""
    pop = build_population([2, 2, 2, 2], profiles, FadingSpec(), seed=0)
    for rb in range(2):
        h64 = draw_channels(pop, _cfg(2, 64), 5000, rb)
        h112 = draw_channels(pop, _cfg(2, 112), 5000, rb)
        assert np.max(np.abs(h64 - h112[..., :64])) <= 1e-12


def test_generation_memory_is_per_block(profiles):
    """K = 16 users, M = 256, 4 RBs: one RB's channels take 11 MB. Each RB's
    Gram is accumulated from antenna blocks, so the peak allocation of
    building every RB of a realization stays under half of one RB's
    channels; building any RB's full channel array first would not."""
    pop = build_population([4, 4, 4, 4], profiles, FadingSpec(), seed=0)
    cfg = _cfg(4, 256)

    def build_every_rb(seed):
        real = generate_realization(pop, cfg, seed=seed)
        return [real.gram(rb) for rb in range(cfg.num_rbs)]

    build_every_rb(0)  # warm caches and lazy imports
    one_rb = pop.num_users * 14 * 12 * cfg.num_antennas * 16
    tracemalloc.start()
    try:
        build_every_rb(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * one_rb
