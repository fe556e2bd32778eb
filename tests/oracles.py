"""Reference code shared by the tests: hard decisions and the adaptive SE."""

import numpy as np

from semlink.adaptmod import BetaAdjusters, plan_from_thresholds, threshold_table
from semlink.bsec import RobustnessProfile
from semlink.channel import ChannelDistribution, draw_channel
from semlink.numerics import RandomSource


def unpack_words(words, m):
    """Inverse of pack_bits: integer m-bit words to a flat MSB-first bit array."""
    words = np.asarray(words, dtype=np.int64)
    shifts = np.arange(m - 1, -1, -1)
    return ((words[:, None] >> shifts) & 1).reshape(-1)


def nearest_words(z, c):
    """Label of the nearest constellation point for each sample.

    Distances are taken on the integer grid of d_min/2 multiples, so that
    mathematically equal distances compare equal. Ties resolve to the point
    with the smaller real part, then the smaller imaginary part.
    """
    half_d = c.d_min / 2
    grid = np.rint(c.points / half_d)
    lex = np.lexsort((grid.imag, grid.real))
    z = np.asarray(z, dtype=complex)
    dr = (z.real / half_d)[:, None] - grid.real[lex]
    di = (z.imag / half_d)[:, None] - grid.imag[lex]
    return lex[np.argmin(dr**2 + di**2, axis=1)]


def mean_adaptive_se(channel_dist: ChannelDistribution, profile: RobustnessProfile,
                     betas: BetaAdjusters, n_draws: int, rng: RandomSource) -> float:
    """Session spectral efficiency over random channel draws (bits/symbols)."""
    table = threshold_table(profile, betas)
    n_bits = len(profile)
    total_symbols = 0
    for _ in range(n_draws):
        ch = draw_channel(channel_dist, rng)
        total_symbols += plan_from_thresholds(ch.snr, table).symbol_count
    return n_bits * n_draws / total_symbols
