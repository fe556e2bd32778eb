"""Reference code shared by the tests: hard decisions, the searchsorted trit
kernel, the scalar symbol-grouping rule, the adaptive SE, the two-branch
sigmoid, the whole-array link Monte Carlo, and the block-by-block end-to-end
pass with its per-group transport."""

import numpy as np

from semlink.adaptmod import (
    BetaAdjusters,
    ModPlan,
    plan_from_thresholds,
    threshold_table,
)
from semlink.bsec import RobustnessProfile
from semlink.channel import (
    ChannelDistribution,
    ChannelRealization,
    FixedSnr,
    draw_channel,
    equalize,
    transmit,
)
from semlink.constellation import build_constellation, check_order, pack_bits
from semlink.demod import TRIT_ERASURE, build_regions, demod_robust
from semlink.errors import ConfigError
from semlink.harness import LinkStats, transport_block
from semlink.jscc import ModelTriple, sample_latent_bits
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


def classify_searchsorted(br, coords, a=None):
    """BitRegions.classify by one search: the cell of each coordinate, then its
    two bounding transitions (padded with -inf and +inf) for the erasure band."""
    coords = np.asarray(coords, dtype=float)
    a = br.a if a is None else np.asarray(a, dtype=float)
    cell = np.searchsorted(br.transitions, coords, side="left")
    out = br.pattern[cell].astype(float)
    if np.any(a > 0):
        half_w = a * br.d_min / 2.0
        ends = np.concatenate(([-np.inf], br.transitions, [np.inf]))
        erase = (a > 0) & ((coords <= ends[cell] + half_w)
                           | (coords >= ends[cell + 1] - half_w))
        out[erase] = TRIT_ERASURE
    return out


def plan_groups(orders):
    """Maximal same-order runs of one row of orders as (order, bit indices) pairs."""
    groups = []
    start = 0
    for i in range(1, len(orders) + 1):
        if i == len(orders) or orders[i] != orders[start]:
            groups.append((orders[start], tuple(range(start, i))))
            start = i
    return tuple(groups)


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


def sigmoid_two_branch(z: np.ndarray) -> np.ndarray:
    """The logistic function by boolean indexing: 1/(1+e^-z) where z >= 0, else e^z/(1+e^z)."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def link_montecarlo_whole(order: int, snr_db: float, a: float, n_bits: int,
                          rng: RandomSource) -> LinkStats:
    """harness.run_link_montecarlo with the whole run held at once: one bit
    draw, one transmit and one equalize call, one demodulation."""
    c = build_constellation(order)
    n_sym = -(-n_bits // c.m)
    bit_rng, ch_rng, noise_rng = rng.split(3)
    bits = bit_rng.bits(n_sym * c.m)
    x = c.points[pack_bits(bits, c.m)]
    ch = draw_channel(FixedSnr(snr=10.0 ** (snr_db / 10.0), noise_var=1.0), ch_rng)
    trits = demod_robust(equalize(transmit(x, ch, noise_rng), ch.h), build_regions(c, a))
    erasures = int(np.count_nonzero(trits == TRIT_ERASURE))
    corrects = int(np.count_nonzero(trits == bits))
    return LinkStats(n_bits=bits.size, flips=bits.size - erasures - corrects,
                     erasures=erasures, corrects=corrects)


def transport_block_per_group(bits: np.ndarray, plan: ModPlan, a_offsets: np.ndarray,
                              ch: ChannelRealization, rng: RandomSource):
    """harness.transport_block one plan_groups group at a time: pad, transmit,
    equalize; the symbol count is summed over the padded groups."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.int64))
    n_rows, n_bits = bits.shape
    if n_bits != len(plan.orders):
        raise ConfigError(f"plan covers {len(plan.orders)} bits, not {n_bits}")
    out = np.empty((n_rows, n_bits))
    symbols = 0
    for order, group_idxs in plan_groups(plan.orders):
        idxs = np.asarray(group_idxs)
        c = build_constellation(order)
        pad = (-idxs.size) % order
        symbols += (idxs.size + pad) // order
        padded = np.pad(bits[:, idxs], ((0, 0), (0, pad)))
        words = pack_bits(padded.reshape(-1), order)
        y_eq = equalize(transmit(c.points[words], ch, rng), ch.h)
        # padding slots carry a = 0; their trits are dropped below
        a_slots = np.pad(a_offsets[idxs], (0, pad)).reshape(-1, order)
        trits = demod_robust(y_eq.reshape(n_rows, -1), build_regions(c, 0.0), a_slots)
        out[:, idxs] = trits.reshape(n_rows, -1)[:, : idxs.size]
    return out, symbols


def run_end_to_end_per_block(models: ModelTriple, channel_dist: ChannelDistribution,
                             profile: RobustnessProfile, betas: BetaAdjusters,
                             adaptive: bool, dataset, rng: RandomSource,
                             images_per_block: int = 10, fixed_order: int = 2) -> dict:
    """harness.run_end_to_end one channel block at a time: plan, transport_block."""
    if images_per_block < 1:
        raise ConfigError(f"images_per_block must be >= 1, got {images_per_block}")
    n_bits = len(profile)
    if models.encoder.out_dim != n_bits:
        raise ConfigError(
            f"encoder emits {models.encoder.out_dim} bits, profile has {n_bits}"
        )
    x = np.asarray(dataset.features, dtype=np.float64)
    y = np.asarray(dataset.labels, dtype=np.int64)
    table = threshold_table(profile, betas) if adaptive else None
    static_plan = None if adaptive else ModPlan((check_order(fixed_order),) * n_bits)
    ch_rng, bit_rng, noise_rng = rng.split(3)

    correct = 0
    sq_err_sum = 0.0
    total_symbols = 0
    bit_sum = 0
    flips = erasures = 0
    for start in range(0, len(x), images_per_block):
        xb = x[start:start + images_per_block]
        yb = y[start:start + images_per_block]
        ch = draw_channel(channel_dist, ch_rng)
        plan = plan_from_thresholds(ch.snr, table) if adaptive else static_plan
        f = models.encoder.forward(xb)
        bits = sample_latent_bits(f, bit_rng).astype(np.int64)
        trits, symbols_per_image = transport_block(
            bits, plan, profile.a_offsets, ch, noise_rng
        )
        total_symbols += symbols_per_image * len(xb)
        bit_sum += int(bits.sum())
        erasures += int(np.sum(trits == TRIT_ERASURE))
        flips += int(np.sum(trits == 1 - bits))
        u_hat = models.decoder.forward(trits)
        logits = models.classifier.forward(u_hat)
        correct += int(np.sum(np.argmax(logits, axis=1) == yb))
        sq_err_sum += float(np.sum((u_hat - xb) ** 2))

    n = len(x)
    total_bits = n * n_bits
    return {
        "n_images": n,
        "accuracy": correct / n,
        "mse": sq_err_sum / n,
        "spectral_efficiency": total_bits / total_symbols,
        "flip_rate": flips / total_bits,
        "erasure_rate": erasures / total_bits,
        "bit_bias": bit_sum / total_bits,
    }
