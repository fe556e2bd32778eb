"""End-to-end pipelines: link Monte Carlo, full-system evaluation, statistics."""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

# plan_from_thresholds stays importable from here: benchmarks/tracing.py
# patches the planning call under this name
from .adaptmod import (  # noqa: F401
    BetaAdjusters,
    ModPlan,
    orders_from_thresholds,
    plan_from_thresholds,
    symbol_runs,
    threshold_table,
)
from .bsec import RobustnessProfile, analytic_params
# transmit and equalize stay importable from here: benchmarks/tracing.py
# patches the channel calls under these names
from .channel import (  # noqa: F401
    ChannelDistribution,
    ChannelRealization,
    FixedSnr,
    draw_channel,
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
    bits = np.asarray(bits)
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

    n_bits is rounded up to a whole number of symbols. The run is carried in
    chunks of at most LINK_CHUNK_BITS bits and its trit counts are summed.
    The noise keeps the layout of one channel.transmit call over the whole
    run: all n_sym real parts, then all n_sym imaginary parts. So the
    imaginary parts of a chunk come from a copy of the noise stream that was
    first moved past the run's real parts by drawing and discarding them;
    Ziggurat normals use a variable number of generator words, so no
    arithmetic skip exists.
    """
    if not (1 <= n_bits <= MAX_LINK_BITS):
        raise DomainError(f"n_bits must be in [1, {MAX_LINK_BITS}], got {n_bits}")
    c = build_constellation(order)
    regions = build_regions(c, a)
    snr = 10.0 ** (snr_db / 10.0)
    n_sym = -(-n_bits // c.m)
    bit_rng, ch_rng, noise_rng = rng.split(3)
    ch = draw_channel(FixedSnr(snr=snr, noise_var=1.0), ch_rng)
    scale = math.sqrt(ch.noise_var / 2.0)
    gain = np.conj(ch.h) / abs(ch.h) ** 2  # channel.equalize's gain
    chunk = LINK_CHUNK_BITS // c.m
    starts = range(0, n_sym, chunk)
    imag_rng = copy.deepcopy(noise_rng)
    for start in starts:
        imag_rng.std_normal(min(chunk, n_sym - start))

    flips = erasures = corrects = 0
    for start in starts:
        size = min(chunk, n_sym - start)
        bits = bit_rng.bits(size * c.m)
        x = c.points[pack_bits(bits, c.m)]
        re, im = noise_rng.std_normal(size), imag_rng.std_normal(size)
        stats = _count_trits(bits, demod_robust((ch.h * x + scale * (re + 1j * im)) * gain,
                                                regions))
        flips += stats.flips
        erasures += stats.erasures
        corrects += stats.corrects
    return LinkStats(n_bits=n_sym * c.m, flips=flips, erasures=erasures, corrects=corrects)


# Latent entries (images x bits) per chunk of an end-to-end pass: enough
# blocks to share each call's overhead, few enough to keep memory bounded.
CHUNK_ENTRIES = 2 ** 14


def _carry(bits: np.ndarray, orders: np.ndarray, rows: np.ndarray, h: list[complex],
           noise_var: float, a_offsets, rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
    """Carry consecutive channel blocks of latent bits, each over its own channel.

    Block b owns the next rows[b] rows of bits and rides coefficient h[b] with
    per-bit orders orders[b]. Every run of adaptmod.symbol_runs is zero-padded
    to whole symbols, modulated, faded, equalized and demodulated with each
    bit's own erasure offset (padding slots carry a = 0 and are dropped).
    Noise is drawn in one call and laid out block by block, run by run, all
    real parts before all imaginary parts: the order in which one transmit
    call per run would draw it. Returns the trit matrix and each block's
    symbol count per row.
    """
    run_block, run_start, run_len, run_order, run_syms = symbol_runs(orders)
    draw_syms = run_syms * rows[run_block]  # symbols per run over all its rows
    noise_start = np.cumsum(2 * draw_syms) - 2 * draw_syms
    row0 = np.cumsum(rows) - rows
    a_offsets = np.asarray(a_offsets, dtype=np.float64)
    # channel.equalize's scalar gain, once per block, so the bytes match it
    gain = np.array([np.conj(hb) / abs(hb) ** 2 for hb in h], dtype=complex)
    h = np.asarray(h, dtype=complex)
    if noise_var != 0:
        noise = rng.std_normal(int(2 * draw_syms.sum()))
        scale = math.sqrt(noise_var / 2.0)

    out = np.empty(bits.shape)
    for order in (2, 4, 6):
        sel = np.flatnonzero(run_order == order)
        if sel.size == 0:
            continue
        counts = draw_syms[sel]
        run = np.repeat(sel, counts)  # run of every symbol, in draw order
        k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        row = np.broadcast_to((row0[run_block[run]] + k // run_syms[run])[:, None],
                              (run.size, order))
        slot = run_start[run][:, None] + (k % run_syms[run])[:, None] * order \
            + np.arange(order)
        live = slot < (run_start + run_len)[run][:, None]
        slot[~live] = 0
        words = pack_bits(np.where(live, bits[row, slot], 0), order)
        blk = run_block[run]
        y = h[blk] * build_constellation(order).points[words]
        if noise_var != 0:
            re = noise_start[run] + k
            y = y + scale * (noise[re] + 1j * noise[re + draw_syms[run]])
        a_slots = np.where(live, a_offsets[slot], 0.0)
        trits = demod_robust(y * gain[blk], _order_regions(order), a_slots)
        out[row[live], slot[live]] = trits.reshape(-1, order)[live]
    return out, np.add.reduceat(run_syms, np.flatnonzero(run_start == 0))


def transport_block(bits: np.ndarray, plan: ModPlan, a_offsets: np.ndarray,
                    ch: ChannelRealization, rng: RandomSource) -> tuple[np.ndarray, int]:
    """Carry a (block, n_bits) bit matrix over one channel realization.

    Bits are packed per adaptmod.symbol_runs run, padded with zeros,
    modulated with the run's constellation, faded, equalized, and demodulated
    with each bit's own erasure offset; padding is stripped by position on
    return. Returns the trit matrix and the symbol count per block row.
    """
    bits = np.atleast_2d(np.asarray(bits, dtype=np.int64))
    n_rows, n_bits = bits.shape
    if n_bits != len(plan.orders):
        raise ConfigError(f"plan covers {len(plan.orders)} bits, not {n_bits}")
    trits, symbols = _carry(bits, np.array([plan.orders]), np.array([n_rows]), [ch.h],
                            ch.noise_var, a_offsets, rng)
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
    entries, each chunk with one call per stage; every random stream is drawn
    in the same order as a block-by-block pass, so the results are the same.
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
        chans = [draw_channel(channel_dist, ch_rng) for _ in rows]
        if adaptive:
            orders = orders_from_thresholds([ch.snr for ch in chans], table)
        else:
            orders = np.tile(fixed, (len(rows), 1))
        f = _forward_blocks(models.encoder, xc, images_per_block)
        bits = sample_latent_bits(f, bit_rng).astype(np.int64)
        trits, symbols_per_row = _carry(bits, orders, rows, [ch.h for ch in chans],
                                        channel_dist.noise_var, profile.a_offsets, noise_rng)
        total_symbols += int(symbols_per_row @ rows)
        bit_sum += int(bits.sum())
        stats = _count_trits(bits, trits)
        flips += stats.flips
        erasures += stats.erasures
        u_hat = _forward_blocks(models.decoder, trits, images_per_block)
        logits = _forward_blocks(models.classifier, u_hat, images_per_block)
        correct += int(np.sum(np.argmax(logits, axis=1) == yc))
        sq_err = (u_hat - xc) ** 2
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sq_err_sum += float(np.sum(sq_err[lo:hi]))

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


def trit_histogram_link(snr: float, a: float, n_bits: int, rng: RandomSource,
                        order: int = 2) -> np.ndarray:
    """(flips, erasures, corrects) counts from the physical link chain."""
    stats = run_link_montecarlo(order, 10.0 * math.log10(snr), a, n_bits, rng)
    return np.array([stats.flips, stats.erasures, stats.corrects])


def trit_histogram_bsec(snr: float, a: float, n_bits: int, rng: RandomSource,
                        order: int = 2) -> np.ndarray:
    """(flips, erasures, corrects) counts from the sampled stochastic model.

    The trits are drawn with training's latent sampler, whose law for a sure
    bit is the BSEC's.
    """
    params = analytic_params(order, snr, a)
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
    if table.shape != (2, 3) or np.any(table < 0):
        raise DomainError("expected two nonnegative 3-category histograms")
    col = table.sum(axis=0)
    row = table.sum(axis=1)
    total = table.sum()
    expected = np.outer(row, col) / total
    if np.any(expected == 0):
        raise DomainError("a category has zero expected count; test undefined")
    stat = float(np.sum((table - expected) ** 2 / expected))
    return stat, math.exp(-stat / 2.0)
