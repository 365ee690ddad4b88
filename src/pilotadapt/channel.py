"""Small-scale fading generation for the statistics profiles of `patterns`.

Realizations are tapped-delay-line: per-tap complex processes with classical
Jakes time autocorrelation J0(2*pi*f*T_s*lag), i.i.d. across antennas and
taps.

On one RB, user k's channel is h_k[t, n, m] = sum_l mix_k[n, l] taps_k[m, l, t]:
its tap processes, each rotated per subcarrier by the tap's delay. The rates
need only the per-RB Gram, which is therefore built in the tap domain,

    h_k^H h_j [t, n] = sum_{l, l'} conj(mix_k[n, l]) mix_j[n, l'] G_t[(k, l), (j, l')],
    G_t[(k, l), (j, l')] = sum_m conj(taps_k[m, l, t]) taps_j[m, l', t],

with G_t, a (K L) x (K L) product per symbol, summed over antenna blocks.
That is N / L^2 times fewer flops (3 at N = 12, L = 2) than a K x K product
per (symbol, subcarrier) of the frequency response, which the library never
forms.

A `ChannelRealization`, made only from a population (with its profiles), the
cell config and a seed (`generate_realization`), builds nothing up front: per
draw it holds the config, the gains and each user's factors (Doppler basis and mix).
An RB is built on a request its held build does not cover, for the requested
users and the users the caller said that RB must cover, and the new build
replaces the held one. A user's channels depend only on (seed, user, RB), so a
Gram over fewer users is the full one's sub-block up to rounding. A build forms
the tap-pair weights conj(mix_k) mix_j of its own users. A realization caches
its builds unlocked: one trial uses it, on one thread.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from .core import Numerology, SystemConfig, UserPopulation
from .errors import ConfigurationError

if TYPE_CHECKING:  # annotations only: the profiles live in `patterns`
    from .patterns import ChannelProfile

# Arrival angles per sum-of-sinusoids tap process. 32 equally spaced angles
# keep the quadrature error of the J0 autocorrelation far below test tolerances
# for any Doppler this grid supports.
NUM_ARRIVAL_ANGLES = 32

# Antennas drawn per block while an RB's Gram is accumulated. A block holds
# the (K, chunk, L, 32) phases, their phasors and the (T, K, L, chunk) taps
# (2.2 MB at K = 28, L = 2), so generation memory does not grow with M. At
# K = 28, blocks of 64 generated as fast at M = 512 and 9% faster at M = 112
# for 3 MB more peak memory; 16 was 7-14% slower and 128 60-75% slower.
_ANTENNA_CHUNK = 32


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
    delays, powers = np.array(profile.taps, dtype=float).T
    sc = np.arange(num_subcarriers) * num.subcarrier_spacing_hz
    mix = np.exp(-2j * math.pi * np.outer(sc, delays))
    mix *= np.sqrt(powers / n)
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


def integer_ids(users) -> np.ndarray:
    """`users` as an array of user ids. Ids that are not integers are refused
    (ValueError), as a float id would be truncated and a bool read as 0 or 1;
    an empty list passes, whatever its dtype (`[()]` is float64)."""
    ids = np.asarray(users)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"user ids {ids.tolist()} are not integers")
    return ids


class ChannelRealization:
    """Per-RB cross powers of one small-scale fading draw, with the cell
    `cfg` and the population's large-scale `gains` it was drawn for.

    `gram(rb, users)` is RB rb's (cross, norms) over `users` (every user
    when None), in the order given: cross of shape (U, U, T, N) with
    cross[a, b] = |h_{users[a]}^H h_{users[b]}|^2 and norms of shape
    (U, T, N) with norms[a] = ||h_{users[a]}||^2, for channels h of unit
    per-entry power (the SINR computation applies `gains`). Both arrays
    are read-only. Every rate reads only these, so the channels themselves
    are never held. An RB outside the draw, users that are not a flat list,
    or a user id other than an integer in 0..K-1, is refused with a
    ValueError before any build. User k's channels on RB rb are
    `generate_single_grid` of its profile with cfg's antenna count, drawn
    from a generator seeded by (seed, k, rb).

    A user's profile is pop.profiles[g] of its group g. Per draw it holds
    each user's own tap count (counts) and stacked `_grid_bases`, bases
    (K, 32, T) and mix (K, N, L) with L the largest tap count; a user with
    fewer taps gets zero mix columns for the missing ones. A request is
    sliced from the RB's held build when that build covers it; otherwise
    the RB is built for the request and include[rb] (include gives one
    set of users 0..K-1 per RB, or is None for no extra users), and the
    new build replaces the held one. Builds are cached without a lock: a
    realization serves one trial on one thread.
    """

    __slots__ = ("cfg", "gains", "_built", "mix", "bases", "counts", "seed", "include")

    def __init__(
        self,
        pop: UserPopulation,
        cfg: SystemConfig,
        seed: int,
        include=None,
    ):
        users = range(pop.num_users)
        if include is not None and len(include) != cfg.num_rbs:
            raise ConfigurationError(f"include has {len(include)} user sets for {cfg.num_rbs} RBs")
        if include is not None and not all(
            u in users for us in include for u in integer_ids(list(us)).tolist()
        ):
            raise ConfigurationError(f"include {include} names users outside 0..{users[-1]}")
        num = cfg.numerology
        t, n = num.symbols_per_rb, num.subcarriers_per_rb
        profile_of = {k: p for p, members in zip(pop.profiles, pop.groups) for k in members}
        factors = [_grid_bases(profile_of[k], t, n, num) for k in users]
        taps = max(m.shape[1] for _, m in factors)
        self.mix = np.zeros((len(users), n, taps), dtype=np.complex128)
        for k, (_, m) in enumerate(factors):
            self.mix[k, :, : m.shape[1]] = m
        self.bases = np.stack([basis for basis, _ in factors])
        self.counts = [m.shape[1] for _, m in factors]
        self._built = [None] * cfg.num_rbs
        self.cfg, self.gains, self.seed, self.include = cfg, pop.gains, seed, include

    @property
    def num_users(self) -> int:
        return len(self.gains)

    def gram(self, rb: int, users=None) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= rb < len(self._built):
            raise ValueError(f"RB {rb} outside the {len(self._built)} RBs of the draw")
        k = self.num_users
        want = np.arange(k) if users is None else integer_ids(users)
        if want.ndim != 1:
            raise ValueError(f"user ids {want.tolist()} are not a flat list")
        if not want.size:  # nothing to build
            grid = (self.cfg.numerology.symbols_per_rb, self.cfg.numerology.subcarriers_per_rb)
            return _read_only(np.zeros((0, 0, *grid))), _read_only(np.zeros((0, *grid)))
        if want.min() < 0 or want.max() >= k:
            raise ValueError(f"users {want.tolist()} outside the {k} of the draw")
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
        out), and the build's Gram (cross, norms) over `users` and
        include[rb]. One call is one RB build.

        Each (user, RB) pair draws its phases from its own generator seeded
        by (seed, user, rb), in `generate_single_grid`'s antenna-major
        order, so a user's channels do not depend on the block size, on
        which other users are drawn with it, or on how generation is
        parallelized or ordered. Per block of at most _ANTENNA_CHUNK
        antennas, all users' phases become (T, U, L, a) taps in one phasor
        call and one batched matmul, and the block's G_t is added to their
        sum. User k's taps beyond its own count carry zero mix weight.
        """
        # a mask, not np.union1d: np.unique imports numpy.ma (~15 ms)
        chosen = np.zeros(self.num_users, dtype=bool)
        chosen[users] = True
        if self.include is not None:
            chosen[list(self.include[rb])] = True
        users = np.flatnonzero(chosen)
        rows = np.where(chosen, np.cumsum(chosen) - 1, -1)
        # tap-pair weights (U, U, L*L, N): conj(mix[k, n, l]) * mix[j, n, l']
        per_tap = self.mix[users].transpose(0, 2, 1)  # (U, L, N)
        k, n_taps, n = per_tap.shape
        pair = (per_tap.conj()[:, None, :, None] * per_tap[None, :, None]).reshape(k, k, -1, n)
        bases = self.bases[users]
        t, m = bases.shape[2], self.cfg.num_antennas
        chunk = min(m, _ANTENNA_CHUNK)
        counts = [self.counts[u] for u in users]
        rngs = [np.random.default_rng((self.seed, int(u), rb)) for u in users]
        # padded taps keep phase 0: finite taps that the zero mix columns cancel
        phases = np.zeros((k, chunk, n_taps, NUM_ARRIVAL_ANGLES))
        block = np.empty((t, k, n_taps, chunk), dtype=np.complex128)
        gram = None  # G_t[(k, l), (j, l')], summed over antenna blocks
        for start in range(0, m, chunk):
            a = min(chunk, m - start)
            for j, (count, rng) in enumerate(zip(counts, rngs)):
                phases[j, :a, :count] = rng.uniform(
                    0.0, 2.0 * math.pi, size=(a, count, NUM_ARRIVAL_ANGLES)
                )
            taps = np.matmul(unit_phasors(phases[:, :a]).reshape(k, a * n_taps, -1), bases)
            x = block[..., :a]
            x[...] = taps.reshape(k, a, n_taps, -1).transpose(3, 0, 2, 1)
            del taps  # freed before G_t is allocated or added to
            x = x.reshape(t, k * n_taps, -1)
            if gram is None:
                gram = np.zeros((t, k * n_taps, k * n_taps), dtype=np.complex128)
            gram += np.matmul(x.conj(), x.swapaxes(1, 2))
        del phases, bases  # not held while the Gram expands
        # one (T, L*L) @ (L*L, N) product per user pair expands the taps to
        # subcarriers, writing h_k^H h_j straight into its (K, K, T, N) layout
        gram = gram.reshape(t, k, n_taps, k, n_taps).transpose(1, 3, 0, 2, 4)
        gram = gram.reshape(k, k, t, n_taps * n_taps)
        inner = np.matmul(gram, pair)
        del gram
        norms = np.einsum("kktn->ktn", inner).real.copy()
        cross = np.square(inner.real)
        cross += np.square(inner.imag, out=inner.imag)  # inner is spent after this
        cross.flags.writeable = norms.flags.writeable = False
        return rows, cross, norms


def generate_realization(
    pop: UserPopulation,
    cfg: SystemConfig,
    seed: int = 0,
    include=None,
) -> ChannelRealization:
    """The per-user, per-RB fading field of `pop`, each user drawn with its
    group's profile, as each RB's Gram on request, for the cell `cfg` and
    the gains of `pop`, which it keeps.

    Fading is independent across users, RBs, antennas, and taps. Nothing is
    built here: RB r is built when a request is not covered by its held
    build, for the requested users and include[r] (none when `include` is
    None), so users that no caller rates are never drawn there. Each Gram
    is accumulated in the tap domain from antenna blocks, so memory stays
    bounded by one block whatever the antenna count.
    """
    return ChannelRealization(pop, cfg, seed, include)
