"""Independent straight-line re-implementations used as test oracles.

Deliberately plain Python (no numpy vectorization) so they share nothing with
the library's computation paths.
"""

import math


def _vdot(a, b):
    return sum(complex(x).conjugate() * complex(y) for x, y in zip(a, b))


def oracle_uplink_sinr(h_set, k, fadings, p, sigma2):
    w = list(h_set[k])
    own = _vdot(w, w).real
    signal = fadings[k] * p * abs(_vdot(w, h_set[k])) ** 2
    interference = 0.0
    for j in range(len(h_set)):
        if j == k:
            continue
        interference += fadings[j] * p * abs(_vdot(w, h_set[j])) ** 2
    return signal / (interference + own * sigma2)


def oracle_downlink_sinr(h_set, k, fadings, p, sigma2, m):
    def precoder(h):
        norm = math.sqrt(_vdot(h, h).real)
        return [m * x / norm for x in h]

    w_k = precoder(h_set[k])
    signal = fadings[k] * p * abs(_vdot(w_k, h_set[k])) ** 2
    interference = 0.0
    for j in range(len(h_set)):
        if j == k:
            continue
        w_j = precoder(h_set[j])
        interference += fadings[k] * p * abs(_vdot(w_j, h_set[k])) ** 2
    return signal / (interference + m * m * sigma2)


def oracle_rb_rate(h, fadings, pilot_positions, p, sigma2, direction):
    """Average spectral efficiency of one RB by explicit per-RE loops.

    h: nested lists indexed [user][t][n][antenna].
    """
    users = len(h)
    n_t = len(h[0])
    n_f = len(h[0][0])
    m = len(h[0][0][0])
    pilots = set(pilot_positions)
    total = 0.0
    for k in range(users):
        for t in range(n_t):
            for n in range(n_f):
                if (t, n) in pilots:
                    continue
                h_set = [h[j][t][n] for j in range(users)]
                if direction == "uplink":
                    sinr = oracle_uplink_sinr(h_set, k, fadings, p, sigma2)
                else:
                    sinr = oracle_downlink_sinr(h_set, k, fadings, p, sigma2, m)
                total += math.log2(1.0 + sinr)
    return total / (n_t * n_f)


def oracle_single_grid(profile, num_symbols, num_subcarriers, num, rng, num_antennas=1):
    """The tapped-delay-line fading grid (T, N, A) written out step by step:
    per-(antenna, tap) sum-of-sinusoids processes, scaled by the tap
    amplitudes, then mixed over taps by an explicit einsum. Draws its phases
    from `rng` in the same (antenna, tap, angle) order as the library."""
    import numpy as np

    n = 32
    angles = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    freqs = profile.max_doppler_hz * np.cos(angles)
    times = np.arange(num_symbols) * num.symbol_duration_s
    delays, powers = np.array(profile.taps, dtype=float).T
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(num_antennas, len(delays), n))
    basis = np.exp(1j * 2.0 * math.pi * np.outer(freqs, times))  # (n, T)
    taps = np.exp(1j * phases) @ basis / math.sqrt(n)  # (A, L, T)
    taps = taps * np.sqrt(powers)[None, :, None]
    sc = np.arange(num_subcarriers) * num.subcarrier_spacing_hz
    mix = np.exp(-2j * math.pi * np.outer(sc, delays))  # (N, L)
    return np.einsum("alt,nl->tna", taps, mix)


def draw_channels(pop, profiles, cfg, seed, rb):
    """The channels (K, T, N, M) of one RB of `generate_realization`'s draw:
    each user's `generate_single_grid`, from its own generator seeded by
    (seed, user, rb), with the profile of the group that lists the user."""
    import numpy as np

    from pilotadapt.channel import generate_single_grid

    num = cfg.numerology
    grids = [None] * pop.num_users
    for g, members in enumerate(pop.groups):
        for k in members:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, k, rb))))
            grids[k] = generate_single_grid(
                profiles[g], num.symbols_per_rb, num.subcarriers_per_rb, num, rng,
                num_antennas=cfg.num_antennas,
            )
    return np.stack(grids)


def oracle_grams(h):
    """Per-RB (cross, norms) of explicit channels h (K, RBs, T, N, M): the
    inner products h_k^H h_j over all antennas in the frequency domain, one
    matmul per RE, in the layout of `ChannelRealization.gram`. The library
    builds the same Grams in the tap domain without forming h."""
    import numpy as np

    h = np.asarray(h, dtype=np.complex128).transpose(1, 2, 3, 0, 4)  # (RBs, T, N, K, M)
    inner = np.matmul(h.conj(), h.swapaxes(-1, -2)).transpose(0, 3, 4, 1, 2)  # (RBs, K, K, T, N)
    return tuple(
        (g.real**2 + g.imag**2, np.einsum("kktn->ktn", g).real.copy()) for g in inner
    )


def oracle_exact_partition(rate, k, n_rbs, mux):
    """The exact scheduler's optimum by a plain per-transition dict DP.

    rate(rb, users) is RB rb's rate of a sorted user tuple. Stage rb gives
    RB rb every subset of at most mux free users of every state. The
    transitions into a state run in (popcount of the source state, source
    mask, subset size, lexicographic subset) order, and a later one replaces
    the kept one only if strictly better. Returns the per-RB user tuples of
    the full set and their summed rate.
    """
    from itertools import combinations

    layer = {0: (0.0, ())}
    for rb in range(n_rbs):
        nxt = {}
        for state in sorted(layer, key=lambda m: (bin(m).count("1"), m)):
            value, parts = layer[state]
            free = [u for u in range(k) if not (state >> u) & 1]
            for size in range(min(mux, len(free)) + 1):
                for sub in combinations(free, size):
                    target = state | sum(1 << u for u in sub)
                    cand = value + rate(rb, sub)
                    if target not in nxt or cand > nxt[target][0]:
                        nxt[target] = (cand, parts + (sub,))
        layer = nxt
    value, parts = layer[(1 << k) - 1]
    return parts, value


class StoredGrams:
    """A stand-in for `ChannelRealization` over given Grams: each RB's
    (cross, norms) over all users in id order, as `oracle_grams` returns
    them, under the cell config `cfg` with large-scale gains `gains`. It
    serves what `RbRateCalculator` reads, `cfg`, `gains`, `num_users` and
    `gram(rb, users)`, the last as read-only copies of the rows and columns
    asked for, in the order asked; the given arrays stay writable."""

    def __init__(self, grams, cfg, gains):
        self.cfg, self.gains = cfg, tuple(gains)
        self.num_users = len(grams[0][1])
        self._grams = grams

    def gram(self, rb, users=None):
        import numpy as np

        rows = np.arange(self.num_users) if users is None else np.asarray(users, dtype=np.intp)
        cross, norms = self._grams[rb]
        out = (cross[np.ix_(rows, rows)], norms[rows])
        for arr in out:
            arr.flags.writeable = False
        return out


def oracle_conventional_pattern(profiles, num, mux):
    """The fixed worst-case pattern by its own rule: the profile spacing
    with the most pilot REs, ties toward the smaller time spacing, then the
    smaller frequency spacing, each count from the anchor-lattice formula."""
    from pilotadapt.errors import ConfigurationError
    from pilotadapt.patterns import build_pattern, max_spacing

    if not profiles:
        raise ConfigurationError("need at least one channel profile")
    best = None
    for prof in profiles:
        sp = max_spacing(prof, num)
        t, f = sp.time_spacing_symbols, sp.freq_spacing_subcarriers
        count = -(-num.symbols_per_rb // t) * -(-num.subcarriers_per_rb // f) * mux
        key = (-count, t, f)
        if best is None or key < best[0]:
            best = (key, sp)
    return build_pattern(best[1], num, mux)
