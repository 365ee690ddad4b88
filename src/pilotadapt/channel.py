"""Statistical channel profiles and small-scale fading generation.

A profile is a (max Doppler, max delay spread) class with a power-delay
profile. The densest pilot spacing a profile tolerates follows the 2x-Nyquist
rule for band-limited WSS processes:

    spacing_time = floor(1 / (4 * f_doppler * T_symbol))
    spacing_freq = floor(1 / (4 * tau_max  * delta_f))

each clamped to the resource-block grid. Realizations are tapped-delay-line:
per-tap complex processes with classical Jakes time autocorrelation
J0(2*pi*f*T_s*lag), i.i.d. across antennas and taps.

On one RB, user k's channel is h_k[t, n, m] = sum_l mix_k[n, l] taps_k[m, l, t]:
its tap processes, each rotated per subcarrier by the tap's delay. The rates
need only the per-RB Gram, which is therefore built in the tap domain,

    h_k^H h_j [t, n] = sum_{l, l'} conj(mix_k[n, l]) mix_j[n, l'] G_t[(k, l), (j, l')],
    G_t[(k, l), (j, l')] = sum_m conj(taps_k[m, l, t]) taps_j[m, l', t],

with G_t, a (K L) x (K L) product per symbol, summed over antenna blocks.
That is N / L^2 times fewer flops (3 at N = 12, L = 2) than a K x K product
per (symbol, subcarrier) of the frequency response, which the library never
forms.

A `ChannelRealization`, made only from a population, its profiles and a
seed (`generate_realization`), builds nothing up front: per draw it holds
only each user's factors (Doppler basis and mix). An RB is built on a
request its held build does not cover, for the requested users and the
users the caller said that RB must cover, and the new build replaces the
held one. A user's channels depend only on (seed, user, RB), so a Gram over
fewer users is the full one's sub-block up to rounding. A build forms the
tap-pair weights conj(mix_k) mix_j of its own users. A realization caches
its builds unlocked: one trial uses it, on one thread.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Numerology, SystemConfig, UserPopulation
from .errors import ConfigurationError, UnsupportableProfileError

# Arrival angles per sum-of-sinusoids tap process. 32 equally spaced angles
# keep the quadrature error of the J0 autocorrelation far below test tolerances
# for any Doppler this grid supports.
NUM_ARRIVAL_ANGLES = 32


@dataclass(frozen=True)
class ChannelProfile:
    """Second-order statistics class: Doppler, delay spread, power-delay profile."""

    name: str
    max_doppler_hz: float
    max_delay_spread_s: float
    taps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.max_doppler_hz <= 0 or self.max_delay_spread_s <= 0:
            raise ConfigurationError("Doppler and delay spread must be positive")
        taps = self.taps
        if not taps:
            # bracket PDP: equal-power taps at the delay-support endpoints
            taps = ((0.0, 0.5), (self.max_delay_spread_s, 0.5))
            object.__setattr__(self, "taps", taps)
        total = sum(p for _, p in taps)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError("tap powers must sum to 1")
        for delay, power in taps:
            if delay < 0 or delay > self.max_delay_spread_s + 1e-15:
                raise ConfigurationError("tap delays must lie in [0, max_delay_spread]")
            if power < 0:
                raise ConfigurationError("tap powers must be non-negative")

    def tap_delays(self) -> np.ndarray:
        return np.array([d for d, _ in self.taps])

    def tap_powers(self) -> np.ndarray:
        return np.array([p for _, p in self.taps])


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


@functools.lru_cache(maxsize=64)
def _grid_bases(
    profile: ChannelProfile, num_symbols: int, num_subcarriers: int, num: Numerology
) -> tuple[np.ndarray, np.ndarray]:
    """The random-phase-free factors of `generate_single_grid`.

    basis (n, T): exp(j*2*pi*f_i*t) over the comb of n arrival angles;
    mix (N, L): each tap's per-subcarrier delay rotation, scaled by
    sqrt(tap power / n).
    """
    n = NUM_ARRIVAL_ANGLES
    angles = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    freqs = profile.max_doppler_hz * np.cos(angles)
    times = np.arange(num_symbols) * num.symbol_duration_s
    basis = np.exp(2j * math.pi * np.outer(freqs, times))
    sc = np.arange(num_subcarriers) * num.subcarrier_spacing_hz
    mix = np.exp(-2j * math.pi * np.outer(sc, profile.tap_delays()))
    mix *= np.sqrt(profile.tap_powers() / n)
    basis.flags.writeable = mix.flags.writeable = False
    return basis, mix


def unit_phasors(phases: np.ndarray) -> np.ndarray:
    """exp(j * phases) from the half-angle tangent t = tan(phases / 2):
    (cos, sin) = (1 - t^2, 2t) / (1 + t^2). One tan replaces a cos and a
    sin; the result is within 2 eps of `np.exp(1j * phases)`."""
    # in-place steps: fewer fresh temporaries measured ~3x faster per block
    t = np.multiply(phases, 0.5)
    np.tan(t, out=t)
    t2 = t * t
    denom = t2 + 1.0
    out = np.empty(t.shape, dtype=np.complex128)
    np.divide(np.subtract(1.0, t2, out=t2), denom, out=out.real)
    np.divide(np.add(t, t, out=t), denom, out=out.imag)
    return out


def generate_single_grid(
    profile: ChannelProfile,
    num_symbols: int,
    num_subcarriers: int,
    num: Numerology,
    rng: np.random.Generator,
    num_antennas: int = 1,
) -> np.ndarray:
    """One correlated fading grid of shape (num_symbols, num_subcarriers, antennas).

    Each (antenna, tap) is a sum-of-sinusoids process with Jakes
    autocorrelation and unit power, weighted by the tap's power; the
    frequency response sums the taps with per-subcarrier phase rotations.
    The random phases are drawn antenna-major, so drawing the antennas in
    consecutive blocks from one generator yields the same channels as one
    draw of all of them. Used directly by the estimation-validation
    experiments, which need grids wider than a single resource block.
    """
    basis, mix = _grid_bases(profile, num_symbols, num_subcarriers, num)
    n_taps = mix.shape[1]
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(num_antennas * n_taps, NUM_ARRIVAL_ANGLES))
    taps = (unit_phasors(phases) @ basis).reshape(num_antennas, n_taps, num_symbols)
    return np.matmul(mix, taps.transpose(2, 1, 0))  # (T, N, A)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class ChannelRealization:
    """Per-RB cross powers of one small-scale fading draw.

    `gram(rb, users)` is RB rb's (cross, norms) over `users` (every user
    when None), in the order given: cross of shape (U, U, T, N) with
    cross[a, b] = |h_{users[a]}^H h_{users[b]}|^2 and norms of shape
    (U, T, N) with norms[a] = ||h_{users[a]}||^2, for channels h of unit
    per-entry power (large-scale gains are applied in the SINR
    computation). Both arrays are read-only. Every rate reads only these,
    so the channels themselves are never held. User k's channels on RB rb
    are `generate_single_grid` of its profile with the realization's
    antenna count, drawn from a generator seeded by (seed, k, rb).

    Per draw it holds each user's generator id (ids), own tap count
    (counts) and stacked `_grid_bases`, bases (K, 32, T) and mix (K, N, L)
    with L the largest tap count; a user with fewer taps gets zero mix
    columns for the missing ones. A request is sliced from the RB's held
    build when that build covers it; otherwise the RB is built for the
    request and include[rb] (no extra users when include is None), and the
    new build replaces the held one. Builds are cached without a lock: a
    realization serves one trial on one thread.
    """

    __slots__ = (
        "_numerology", "_num_users", "_built", "mix", "bases", "counts", "ids",
        "seed", "num_antennas", "include",
    )

    def __init__(
        self,
        pop: UserPopulation,
        profiles: list[ChannelProfile],
        cfg: SystemConfig,
        seed: int,
        include=None,
    ):
        if pop.num_groups > len(profiles):
            raise ConfigurationError(
                f"{pop.num_groups} groups but only {len(profiles)} channel profiles"
            )
        num = self._numerology = cfg.numerology
        t, n = num.symbols_per_rb, num.subcarriers_per_rb
        factors = [_grid_bases(profiles[user.group_id], t, n, num) for user in pop.users]
        self.mix = np.zeros(
            (pop.num_users, n, max(m.shape[1] for _, m in factors)), dtype=np.complex128
        )
        for k, (_, m) in enumerate(factors):
            self.mix[k, :, : m.shape[1]] = m
        self.bases = np.stack([basis for basis, _ in factors])
        self.counts = [m.shape[1] for _, m in factors]
        self.ids = [user.id for user in pop.users]
        self._num_users = pop.num_users
        self._built = [None] * cfg.num_rbs
        self.seed, self.num_antennas, self.include = seed, cfg.num_antennas, include

    @property
    def numerology(self) -> Numerology:
        return self._numerology

    @property
    def num_users(self) -> int:
        return self._num_users

    def gram(self, rb: int, users=None) -> tuple[np.ndarray, np.ndarray]:
        want = np.arange(self._num_users) if users is None else np.asarray(users, dtype=np.intp)
        if not want.size:  # nothing to build
            grid = (self._numerology.symbols_per_rb, self._numerology.subcarriers_per_rb)
            return _read_only(np.zeros((0, 0, *grid))), _read_only(np.zeros((0, *grid)))
        if want.min() < 0 or want.max() >= self._num_users:
            raise ValueError(f"users {want.tolist()} outside the {self._num_users} of the draw")
        built = self._built[rb]
        if built is None or (built[0][want] < 0).any():
            built = self._built[rb] = self._build(rb, want)
        rows_of, cross, norms = built
        rows = rows_of[want]
        if np.array_equal(rows, np.arange(len(norms))):
            return cross, norms
        return _read_only(cross[rows[:, None], rows]), _read_only(norms[rows])

    def _build(self, rb: int, users: np.ndarray):
        """Each user's row in a new build of RB rb (-1 for users it leaves
        out), and the build's Gram: `users` and include[rb], with tap-pair
        weights formed from their mix rows."""
        # a mask, not np.union1d: np.unique imports numpy.ma (~15 ms)
        chosen = np.zeros(self._num_users, dtype=bool)
        chosen[users] = True
        if self.include is not None:
            chosen[list(self.include[rb])] = True
        users = np.flatnonzero(chosen)
        rows = np.where(chosen, np.cumsum(chosen) - 1, -1)
        # tap-pair weights (U, U, L*L, N): conj(mix[k, n, l]) * mix[j, n, l']
        per_tap = self.mix[users].transpose(0, 2, 1)  # (U, L, N)
        u, n = len(users), per_tap.shape[2]
        pair = (per_tap.conj()[:, None, :, None] * per_tap[None, :, None]).reshape(u, u, -1, n)
        return rows, *_accumulate_gram(_antenna_blocks(self, rb, users), pair)


# Antennas drawn per block while an RB's Gram is accumulated. A block holds
# the (K, chunk, L, 32) phases, their phasors and the (T, K, L, chunk) taps
# (2.2 MB at K = 28, L = 2), so generation memory does not grow with M. At
# K = 28, blocks of 64 generated as fast at M = 512 and 9% faster at M = 112
# for 3 MB more peak memory; 16 was 7-14% slower and 128 60-75% slower.
_ANTENNA_CHUNK = 32


def _antenna_blocks(real: ChannelRealization, rb: int, users: np.ndarray):
    """The tap processes of `users` (indices into the population) on one
    RB, in blocks of at most _ANTENNA_CHUNK antennas: yields (T, U, L, a)
    arrays, each overwritten by the next. User k's channels are
    real.mix[k] applied over the L axis, so its taps beyond its own count
    carry zero weight.

    Each (user, RB) pair draws its phases from its own generator seeded by
    (seed, user id, rb), in `generate_single_grid`'s antenna-major order, so
    a user's channels do not depend on the block size, on which other users
    are drawn with it, or on how generation is parallelized or ordered. All
    users' phases of a block become taps in one phasor call and one batched
    matmul.
    """
    bases = real.bases[users]
    k, n_taps, m = len(users), real.mix.shape[2], real.num_antennas
    chunk = min(m, _ANTENNA_CHUNK)
    counts = [real.counts[u] for u in users]
    rngs = [
        np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((real.seed, real.ids[u], rb)))
        )
        for u in users
    ]
    # padded taps keep phase 0: finite taps that the zero mix columns cancel
    phases = np.zeros((k, chunk, n_taps, NUM_ARRIVAL_ANGLES))
    block = np.empty((bases.shape[2], k, n_taps, chunk), dtype=np.complex128)
    for start in range(0, m, chunk):
        a = min(chunk, m - start)
        for row, count, rng in zip(phases, counts, rngs):
            row[:a, :count] = rng.uniform(
                0.0, 2.0 * math.pi, size=(a, count, NUM_ARRIVAL_ANGLES)
            )
        taps = np.matmul(unit_phasors(phases[:, :a]).reshape(k, a * n_taps, -1), bases)
        out = block[..., :a]
        out[...] = taps.reshape(k, a, n_taps, -1).transpose(3, 0, 2, 1)
        del taps  # not held while the consumer works on the block
        yield out


def _accumulate_gram(blocks, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cross, norms) of one RB from its tap blocks (T, K, L, a) and the
    tap-pair weights (K, K, L*L, N) of the blocks' users."""
    gram = None  # G_t[(k, l), (j, l')], summed over antenna blocks
    for block in blocks:
        t, k, n_taps, _ = block.shape
        x = block.reshape(t, k * n_taps, -1)
        if gram is None:
            gram = np.zeros((t, k * n_taps, k * n_taps), dtype=np.complex128)
        gram += np.matmul(x.conj(), x.swapaxes(1, 2))
    # one (T, L*L) @ (L*L, N) product per user pair expands the taps to
    # subcarriers, writing h_k^H h_j straight into its (K, K, T, N) layout
    gram = gram.reshape(t, k, n_taps, k, n_taps).transpose(1, 3, 0, 2, 4)
    gram = gram.reshape(k, k, t, n_taps * n_taps)
    inner = np.matmul(gram, weights)
    del gram
    norms = np.einsum("kktn->ktn", inner).real.copy()
    cross = np.square(inner.real)
    cross += np.square(inner.imag, out=inner.imag)  # inner is spent after this
    cross.flags.writeable = norms.flags.writeable = False
    return cross, norms


def generate_realization(
    pop: UserPopulation,
    profiles: list[ChannelProfile],
    cfg: SystemConfig,
    seed: int = 0,
    include=None,
) -> ChannelRealization:
    """The per-user, per-RB fading field, as each RB's Gram on request.

    Fading is independent across users, RBs, antennas, and taps. Nothing is
    built here: RB r is built when a request is not covered by its held
    build, for the requested users and include[r] (none when `include` is
    None), so users that no caller rates are never drawn there. Each Gram
    is accumulated in the tap domain from antenna blocks, so memory stays
    bounded by one block whatever the antenna count.
    """
    return ChannelRealization(pop, profiles, cfg, seed, include)
