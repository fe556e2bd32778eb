"""End-to-end pipelines: link Monte Carlo, full-system evaluation, statistics."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# benchmarks/tracing.py patches plan_from_thresholds, transmit and equalize
# under these names here, and transport_block below; the library itself does
# not call them from here. All four go with ROADMAP item 7 once item 6 moves
# the tracer off them.
from .adaptmod import (  # noqa: F401
    BetaAdjusters,
    ModPlan,
    orders_from_thresholds,
    plan_from_thresholds,
    symbol_runs,
    threshold_table,
)
from .bsec import RobustnessProfile, analytic_params
# transmit and equalize: kept here for the tracer only, as above
from .channel import (  # noqa: F401
    ChannelDistribution,
    FixedSnr,
    block_gains,
    draw_channels,
    equalize,
    transmit,
)
from .constellation import build_constellation, check_order, pack_bits
from .demod import TRIT_ERASURE, DecisionRegions, build_regions, demod_robust
from .errors import ConfigError, DomainError
from .jscc import ModelTriple, noisy_latent_sample, sample_latent_bits
from .numerics import RandomSource


@dataclass(frozen=True)
class LinkStats:
    """Trit statistics of one link simulation."""

    n_bits: int
    flips: int
    erasures: int
    corrects: int

    @property
    def flip_rate(self) -> float:
        return self.flips / self.n_bits

    @property
    def erasure_rate(self) -> float:
        return self.erasures / self.n_bits

    @property
    def correct_rate(self) -> float:
        return self.corrects / self.n_bits


def _count_trits(bits: np.ndarray, trits: np.ndarray) -> LinkStats:
    erasures = int(np.count_nonzero(trits == TRIT_ERASURE))
    corrects = int(np.count_nonzero(trits == bits))
    flips = bits.size - erasures - corrects
    return LinkStats(n_bits=bits.size, flips=flips, erasures=erasures, corrects=corrects)


# Largest link Monte Carlo run, a cap on run time only: the run is carried in
# chunks of LINK_CHUNK_BITS bits, so its memory does not grow with n_bits.
MAX_LINK_BITS = 10 ** 8
LINK_CHUNK_BITS = 2 ** 16


def run_link_montecarlo(order: int, snr_db: float, a: float, n_bits: int,
                        rng: RandomSource) -> LinkStats:
    """Random bits through map -> fade -> equalize -> ternary demodulation.

    n_bits is rounded up to a whole number of symbols. Over one channel, each
    chunk of LINK_CHUNK_BITS // order symbols goes to _carry as one block of
    one-symbol rows and the trit counts are summed. So each chunk draws its
    noise like one channel.transmit call: its real parts, then its imaginary
    parts.
    """
    if not (1 <= n_bits <= MAX_LINK_BITS):
        raise DomainError(f"n_bits must be in [1, {MAX_LINK_BITS}], got {n_bits}")
    m = check_order(order)
    n_sym = -(-n_bits // m)
    bit_rng, ch_rng, noise_rng = rng.split(3)
    h = draw_channels(FixedSnr(snr=10.0 ** (snr_db / 10.0)), 1, ch_rng)
    _, gain = block_gains(h)
    chunk = LINK_CHUNK_BITS // m
    counts = np.zeros(3, dtype=np.int64)  # flips, erasures, corrects
    for start in range(0, n_sym, chunk):
        bits = bit_rng.bits(min(chunk, n_sym - start) * m).reshape(-1, m)
        trits, _ = _carry(bits, np.full((1, m), m), np.array([len(bits)]), h, gain,
                          np.full(m, a), noise_rng)
        stats = _count_trits(bits, trits)
        counts += (stats.flips, stats.erasures, stats.corrects)
    return LinkStats(n_sym * m, *counts.tolist())


# Latent entries (images x bits) per chunk of an end-to-end pass: enough
# blocks to share each stage's per-call overhead (one noise draw, one
# demodulation per order, stacked forwards), few enough to keep memory bounded.
CHUNK_ENTRIES = 2 ** 15


def _carry(bits: np.ndarray, orders: np.ndarray, rows: np.ndarray, h: np.ndarray,
           gain: np.ndarray, a_offsets, rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
    """Carry consecutive channel blocks of latent bits, each over its own channel.

    Block b owns the next rows[b] rows of bits and rides coefficient h[b],
    equalized by gain[b] (channel.block_gains), with per-bit orders orders[b].
    Every run of adaptmod.symbol_runs is zero-padded to whole symbols,
    modulated, faded, equalized and demodulated with each bit's own erasure
    offset, one demod_robust call per order over all the chunk's blocks (one
    classify call per I/Q bit pair); the trits of padding slots are dropped.
    Noise is drawn in one call and laid out block by block, run by run, all
    real parts before all imaginary parts: the order in which one transmit
    call per run would draw it. An order with one unpadded run reads its bits
    and noise as slices. Otherwise its slot map (each symbol's run, place in
    the run and bit slots) is built once for a block row and broadcast over
    the block's rows, so the index work does not grow with the rows. Returns
    the trit matrix and each block's symbol count per row.
    """
    run_block, run_start, run_len, run_order, run_syms = symbol_runs(orders)
    draw_syms = run_syms * rows[run_block]  # symbols per run over all its rows
    noise_start = np.cumsum(2 * draw_syms) - 2 * draw_syms
    row0 = np.cumsum(rows) - rows
    a_offsets = np.asarray(a_offsets, dtype=np.float64)
    noise = rng.std_normal(int(2 * draw_syms.sum()))
    scale = math.sqrt(0.5)

    out = None  # allocated late: a long link run then faults fewer fresh pages per chunk
    for order in (2, 4, 6):
        sel = np.flatnonzero(run_order == order)
        if sel.size == 0:
            continue
        r = sel[0]
        whole = sel.size == 1 and run_len[r] % order == 0
        if whole:
            blk, s, n = run_block[r], noise_start[r], draw_syms[r]
            dest = (slice(row0[blk], row0[blk] + rows[blk]),
                    slice(run_start[r], run_start[r] + run_len[r]))
            words = pack_bits(bits[dest], order).reshape(rows[blk], -1)
            re, im = slice(s, s + n), slice(s + n, s + 2 * n)
            a_slots = a_offsets[dest[1]].reshape(-1, order)
            shape, keep = (rows[blk], run_len[r]), slice(None)
        else:
            # slot map of one block row: run and symbol j of every symbol
            # (padding slots point at slot 0; their trits are dropped)
            counts = run_syms[sel]
            run = np.repeat(sel, counts)
            j = np.arange(run.size) - np.repeat(np.cumsum(counts) - counts, counts)
            blk = run_block[run]
            slot = run_start[run][:, None] + j[:, None] * order + np.arange(order)
            live = slot < (run_start + run_len)[run][:, None]
            slot[~live] = 0
            # row i of each block; a short block repeats its last row, which
            # rewrites the same trits
            i = np.minimum(np.arange(rows.max())[:, None], rows[blk] - 1)
            flat = ((row0[blk] + i) * bits.shape[1])[..., None] + slot
            words = pack_bits(bits.reshape(-1)[flat], order).reshape(i.shape) \
                & pack_bits(live, order)  # zero padding bits
            re = noise_start[run] + i * run_syms[run] + j
            im = re + draw_syms[run]
            a_slots = a_offsets[slot]
            shape, keep = flat.shape, np.broadcast_to(live, flat.shape)
            dest = flat[keep]
        y = h[blk] * build_constellation(order).points[words]
        y += scale * (noise[re] + 1j * noise[im]).reshape(words.shape)
        y *= gain[blk]
        trits = demod_robust(y, _order_regions(order), a_slots).reshape(shape)[keep]
        if out is None:
            out = np.empty(bits.shape)
        (out if whole else out.reshape(-1))[dest] = trits
    return out, np.add.reduceat(run_syms, np.flatnonzero(run_start == 0))


def transport_block(bits: np.ndarray, plan: ModPlan, a_offsets: np.ndarray, h: complex,
                    rng: RandomSource) -> tuple[np.ndarray, int]:
    """Carry a (block, n_bits) bit matrix over one channel block h.

    Bits are packed per adaptmod.symbol_runs run, padded with zeros,
    modulated with the run's constellation, faded, equalized, and demodulated
    with each bit's own erasure offset; padding is stripped by position on
    return. Returns the trit matrix and the symbol count per block row.
    """
    bits = np.atleast_2d(np.asarray(bits, dtype=np.int64))
    n_rows, n_bits = bits.shape
    if n_bits != len(plan.orders):
        raise ConfigError(f"plan covers {len(plan.orders)} bits, not {n_bits}")
    if n_bits == 0:
        raise ConfigError("plan covers no bits")
    if len(a_offsets) != n_bits:
        raise ConfigError(f"a_offsets covers {len(a_offsets)} bits, not {n_bits}")
    h = np.array([h])
    trits, symbols = _carry(bits, np.array([plan.orders]), np.array([n_rows]), h,
                            block_gains(h)[1], a_offsets, rng)
    return trits, int(symbols[0])


@functools.lru_cache(maxsize=3)
def _order_regions(order: int) -> DecisionRegions:
    """Transition tables of one order; the caller supplies a per slot."""
    return build_regions(build_constellation(order), 0.0)


def _forward_blocks(model, x: np.ndarray, size: int) -> np.ndarray:
    """model.forward over consecutive blocks of `size` rows of x.

    The full blocks go in as one (blocks, size, dim) stack, whose products
    equal the per-block ones bit for bit; a shorter last block is its own call.
    """
    full = len(x) - len(x) % size
    parts = []
    if full:
        parts.append(model.forward(x[:full].reshape(-1, size, x.shape[1])).reshape(full, -1))
    if full < len(x):
        parts.append(model.forward(x[full:]))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def run_end_to_end(models: ModelTriple, channel_dist: ChannelDistribution,
                   profile: RobustnessProfile, betas: BetaAdjusters,
                   adaptive: bool, dataset, rng: RandomSource,
                   images_per_block: int = 10, fixed_order: int = 2) -> dict:
    """Full inference pass: encode, modulate, fade, demodulate, decode, classify.

    The channel is redrawn every images_per_block images. With adaptive=False
    all bits ride fixed_order symbols. Returns aggregate metrics including the
    session spectral efficiency (total bits / total symbols) and the empirical
    bit bias of the encoder output.

    The pass runs in chunks of whole blocks of about CHUNK_ENTRIES latent
    entries, each chunk with one call per stage: one channel draw for all its
    blocks (channel.draw_channels), one order matrix, one latent-bit draw,
    one _carry and stacked forwards. Every random stream is drawn in the same
    order as a block-by-block pass, so the results are the same.
    """
    if images_per_block < 1:
        raise ConfigError(f"images_per_block must be >= 1, got {images_per_block}")
    n_bits = len(profile)
    if models.encoder.out_dim != n_bits:
        raise ConfigError(
            f"encoder emits {models.encoder.out_dim} bits, profile has {n_bits}"
        )
    x = np.asarray(dataset.features, dtype=np.float64)
    y = np.asarray(dataset.labels, dtype=np.int64)
    if len(x) == 0:
        raise ConfigError("dataset is empty")
    if adaptive:
        table = threshold_table(profile, betas)
    else:
        fixed = np.full(n_bits, check_order(fixed_order))
    ch_rng, bit_rng, noise_rng = rng.split(3)
    chunk_images = max(1, CHUNK_ENTRIES // (images_per_block * n_bits)) * images_per_block

    correct = 0
    sq_err_sum = 0.0
    total_symbols = 0
    bit_sum = 0
    flips = erasures = 0
    for start in range(0, len(x), chunk_images):
        xc = x[start:start + chunk_images]
        yc = y[start:start + chunk_images]
        bounds = np.append(np.arange(0, len(xc), images_per_block), len(xc))
        rows = np.diff(bounds)
        h = draw_channels(channel_dist, len(rows), ch_rng)
        g2, gain = block_gains(h)
        if adaptive:
            orders = orders_from_thresholds(g2, table)
        else:
            orders = np.tile(fixed, (len(rows), 1))
        f = _forward_blocks(models.encoder, xc, images_per_block)
        bits = sample_latent_bits(f, bit_rng).astype(np.int64)
        trits, symbols_per_row = _carry(bits, orders, rows, h, gain, profile.a_offsets,
                                        noise_rng)
        total_symbols += int(symbols_per_row @ rows)
        bit_sum += int(bits.sum())
        stats = _count_trits(bits, trits)
        flips += stats.flips
        erasures += stats.erasures
        u_hat = _forward_blocks(models.decoder, trits, images_per_block)
        logits = _forward_blocks(models.classifier, u_hat, images_per_block)
        correct += int(np.sum(np.argmax(logits, axis=1) == yc))
        # one sum per block, added in block order; a full block's row of the
        # reshape sums to the bytes of np.sum over the block
        sq_err = (u_hat - xc) ** 2
        full = len(xc) - len(xc) % images_per_block
        sums = sq_err[:full].reshape(-1, images_per_block * xc.shape[1]).sum(axis=1).tolist()
        if full < len(xc):
            sums.append(float(np.sum(sq_err[full:])))
        for s in sums:  # not sum(), which compensates float sums from Python 3.12 on
            sq_err_sum += s

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


def trit_histogram_link(snr: float, a: float, n_bits: int, rng: RandomSource) -> np.ndarray:
    """(flips, erasures, corrects) counts from the order-2 physical link chain."""
    stats = run_link_montecarlo(2, 10.0 * math.log10(snr), a, n_bits, rng)
    return np.array([stats.flips, stats.erasures, stats.corrects])


def trit_histogram_bsec(snr: float, a: float, n_bits: int, rng: RandomSource) -> np.ndarray:
    """(flips, erasures, corrects) counts from the sampled order-2 stochastic model.

    The trits are drawn with training's latent sampler, whose law for a sure
    bit is the BSEC's.
    """
    params = analytic_params(2, snr, a)
    bit_rng, ch_rng = rng.split(2)
    bits = bit_rng.bits(n_bits)
    stats = _count_trits(bits, noisy_latent_sample(bits, params.mu, params.d, ch_rng))
    return np.array([stats.flips, stats.erasures, stats.corrects])


def chi_square_homogeneity(counts_a: np.ndarray, counts_b: np.ndarray) -> tuple[float, float]:
    """Pearson chi-square for two trit histograms; returns (statistic, p).

    Both histograms have 3 categories, so the statistic has 2 degrees of
    freedom and the survival function is exp(-x/2).
    """
    table = np.vstack([counts_a, counts_b]).astype(np.float64)
    if table.shape != (2, 3) or not np.all(np.isfinite(table) & (table >= 0)):
        raise DomainError("expected two finite nonnegative 3-category histograms")
    col = table.sum(axis=0)
    row = table.sum(axis=1)
    total = table.sum()
    expected = np.outer(row, col) / total
    if np.any(expected == 0):
        raise DomainError("a category has zero expected count; test undefined")
    stat = float(np.sum((table - expected) ** 2 / expected))
    return stat, math.exp(-stat / 2.0)
