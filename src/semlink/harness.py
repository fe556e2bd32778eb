"""End-to-end pipelines: link Monte Carlo, full-system evaluation, statistics."""

from __future__ import annotations

import functools
import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .adaptmod import BetaAdjusters, ModPlan, orders_from_thresholds, symbol_runs, threshold_table
from .bsec import RobustnessProfile, analytic_params, check_link_point
from .channel import ChannelDistribution, FixedSnr, block_gains, draw_channels
from .constellation import SUPPORTED_ORDERS, build_constellation, check_order, pack_bits
from .demod import TRIT_ERASURE, DecisionRegions, build_regions, demod_robust
from .errors import ConfigError, DomainError
from .jscc import ModelTriple, infer, noisy_latent_sample, sample_latent_bits
from .numerics import RandomSource, drawn_ahead

# benchmarks/tracing.py patches plan_from_thresholds, transmit and equalize
# under these names here, and transport_block below; the library itself does
# not call them from here. All four go with ROADMAP item 7 once item 6 moves
# the tracer off them.
from .adaptmod import plan_from_thresholds  # noqa: F401
from .channel import equalize, transmit  # noqa: F401


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


def _count_trits(bits: np.ndarray, trits: np.ndarray) -> np.ndarray:
    """(flips, erasures, corrects) of trits against the bits sent, as int64."""
    erasures = np.count_nonzero(trits == TRIT_ERASURE)
    corrects = np.count_nonzero(trits == bits)
    return np.array([bits.size - erasures - corrects, erasures, corrects], dtype=np.int64)


# Latent entries per _carry call: the link carries CHUNK_ENTRIES bits per
# chunk and an end-to-end pass about CHUNK_ENTRIES images x bits, in whole
# blocks, so neither's memory grows with its size. A chunk of a pass costs
# about a thousand Python-level calls (0.6-1 ms) whatever its size (one noise
# draw, one demodulation per order, stacked forwards), so a pass runs in few
# chunks. Chunking stops at 2 ** 16: at 2 ** 17, one chunk for 2000 images of
# 64 bits, such a pass ran about 12% slower, most likely as its arrays
# outgrow the cache.
CHUNK_ENTRIES = 2 ** 16
# Largest link Monte Carlo run, a cap on run time only.
MAX_LINK_BITS = 10 ** 8


def _check_n_bits(n_bits: int) -> int:
    """n_bits as a Python int, after checking that it is an integer in range."""
    if isinstance(n_bits, bool) or not isinstance(n_bits, (int, np.integer)):
        raise DomainError(f"n_bits must be an integer, got {n_bits!r}")
    if not (1 <= n_bits <= MAX_LINK_BITS):
        raise DomainError(f"n_bits must be in [1, {MAX_LINK_BITS}], got {n_bits}")
    return int(n_bits)


def run_link_montecarlo(order: int, snr_db: float, a: float, n_bits: int,
                        rng: RandomSource) -> LinkStats:
    """Random bits through map -> fade -> equalize -> ternary demodulation.

    n_bits is rounded up to a whole number of symbols. Over one channel, each
    chunk of CHUNK_ENTRIES // order symbols goes to _carry as one block of
    one-symbol rows and the trit counts are summed. So each chunk draws its
    noise like one channel.transmit call: its real parts, then its imaginary
    parts. The order, SNR and offset are checked before anything is drawn, and
    the chunks share one set of _carry buffers.

    A chunk's bits and noise depend on nothing an earlier chunk computes, so
    they are numerics.drawn_ahead: chunk 0 is drawn inline and one worker
    thread draws chunk k + 1 while chunk k is carried, into the other of two
    noise buffers. A one-chunk run starts no thread. The values are those of
    an inline run, and the worker is joined before the call returns or raises.
    """
    n_bits = _check_n_bits(n_bits)
    try:
        snr = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:  # rejected below as infinite, like +inf dB
        snr = math.inf
    m = check_link_point(order, snr, a)
    n_sym = -(-n_bits // m)
    bit_rng, ch_rng, noise_rng = rng.split(3)
    h = draw_channels(FixedSnr(snr=snr), 1, ch_rng)
    _, gain = block_gains(h)
    chunk = CHUNK_ENTRIES // m
    n_chunks = -(-n_sym // chunk)
    runs = symbol_runs(np.full((1, m), m))
    a_row = np.full(m, a)
    # chunk k's noise goes to buffer k % 2: the worker fills one while the
    # other is carried, as chunk k + 2 is drawn once chunk k + 1 is taken
    noise_bufs = np.empty((min(n_chunks, 2), 2 * min(chunk, n_sym)))

    def draw(k):
        n = min(chunk, n_sym - k * chunk)
        bits = bit_rng.bits(n * m).reshape(n, m)
        rows = np.array([n])
        n_noise = _noise_size(runs, rows)
        noise = noise_rng.std_normal(n_noise, out=noise_bufs[k % len(noise_bufs), :n_noise])
        return bits, rows, noise

    store = {}
    counts = np.zeros(3, dtype=np.int64)  # flips, erasures, corrects
    with closing(drawn_ahead(draw, range(n_chunks))) as chunks:
        for bits, rows, noise in chunks:
            trits, _ = _carry(bits, runs, rows, h, gain, a_row, noise, store)
            counts += _count_trits(bits, trits)
    return LinkStats(n_sym * m, *counts.tolist())


def _buffer(store: dict, name: str, shape, dtype=np.float64) -> np.ndarray:
    """An uninitialised array of the given shape: a view of the store's flat
    array of that name, which is replaced by a larger one when too small."""
    n = math.prod(shape)
    buf = store.get(name)
    if buf is None or buf.size < n:
        buf = store[name] = np.empty(n, dtype)
    return buf[:n].reshape(shape)


def _noise_size(runs: tuple[np.ndarray, ...], rows: np.ndarray) -> int:
    """Unit normals _carry takes for adaptmod.symbol_runs runs over blocks of
    rows[b] rows: a real and an imaginary part per symbol."""
    run_block, *_, run_syms = runs
    return int(2 * (run_syms * rows[run_block]).sum())


def _carry(bits: np.ndarray, runs: tuple[np.ndarray, ...], rows: np.ndarray, h: np.ndarray,
           gain: np.ndarray, a_offsets, noise: np.ndarray,
           store: dict) -> tuple[np.ndarray, np.ndarray]:
    """Carry consecutive channel blocks of latent bits, each over its own channel.

    Block b owns the next rows[b] rows of bits and rides coefficient h[b],
    equalized by gain[b] (channel.block_gains); runs is adaptmod.symbol_runs
    of the blocks' per-bit orders. Every run is zero-padded to whole symbols,
    modulated, faded, equalized and demodulated with each bit's own erasure
    offset, one demod_robust call per order over all the chunk's blocks (one
    classify call per I/Q bit pair). noise holds the _noise_size(runs, rows)
    unit normals of the chunk, drawn by the caller in one call, laid out block
    by block, run by run, all real parts before all imaginary parts: the order
    in which one transmit call per run would draw them. They are scaled to the
    channel's variance in place, so noise is overwritten.

    An order with one unpadded run reads its bits and noise as slices and
    demodulates straight into the trit matrix; when every order does (the
    link), the bits are not copied and the trit matrix is C-contiguous.
    Otherwise the bits are copied next to one extra zero column, the padding
    column: each gathered order's slot map (each symbol's run, place in the
    run and bit slots) is built once for a block row and broadcast over the
    block's rows, so the index work does not grow with the rows, and its
    padding slots read their zero bits from that column and write their trits
    back to it. The trit matrix returned is then a view without that column.
    Returns the trit matrix and each block's symbol count per row.

    The symbols as they are faded and equalized and the trits are computed in
    place: h * x, plus the scaled noise's real and imaginary parts, times the
    gain, which gives the bytes of channel.transmit then channel.equalize.
    These arrays live in store (see _buffer), so the trit matrix returned is
    overwritten by the next call with the same store.
    Latent bits may come as uint8 or int64; both pack to the same words.
    """
    run_block, run_start, run_len, run_order, run_syms = runs
    draw_syms = run_syms * rows[run_block]  # symbols per run over all its rows
    noise_start = np.cumsum(2 * draw_syms) - 2 * draw_syms
    row0 = np.cumsum(rows) - rows
    a_offsets = np.asarray(a_offsets, dtype=np.float64)
    noise *= math.sqrt(0.5)

    sels = {order: np.flatnonzero(run_order == order) for order in SUPPORTED_ORDERS}
    whole = {order: sel.size == 1 and run_len[sel[0]] % order == 0
             for order, sel in sels.items() if sel.size}
    n_rows, n_bits = bits.shape
    if all(whole.values()):
        src, width = bits, n_bits
    else:  # bits plus the zero padding column
        src, width = _buffer(store, "bits", (n_rows, n_bits + 1), np.uint8), n_bits + 1
        src[:, :n_bits] = bits
        src[:, n_bits] = 0
        a_offsets = np.append(a_offsets, 0.0)
    out = _buffer(store, "trits", (n_rows, width))
    for order, is_whole in whole.items():
        sel = sels[order]
        if is_whole:
            r = sel[0]
            blk, s, n = run_block[r], noise_start[r], draw_syms[r]
            dest = (slice(row0[blk], row0[blk] + rows[blk]),
                    slice(run_start[r], run_start[r] + run_len[r]))
            words = pack_bits(bits[dest], order).reshape(rows[blk], -1)
            re, im = slice(s, s + n), slice(s + n, s + 2 * n)
            a_slots = a_offsets[dest[1]].reshape(-1, order)
            # splits only the last axis of a row slice: a view, never a copy
            trits = out[dest].reshape(*words.shape, order)
        else:
            # slot map of one block row: run and symbol j of every symbol
            # (padding slots point at the padding column)
            counts = run_syms[sel]
            run = np.repeat(sel, counts)
            j = np.arange(run.size) - np.repeat(np.cumsum(counts) - counts, counts)
            blk = run_block[run]
            slot = run_start[run][:, None] + j[:, None] * order + np.arange(order)
            slot[slot >= (run_start + run_len)[run][:, None]] = n_bits
            # row i of each block; a short block repeats its last row, which
            # rewrites the same trits
            i = np.minimum(np.arange(rows.max())[:, None], rows[blk] - 1)
            flat = ((row0[blk] + i) * width)[..., None] + slot
            words = pack_bits(src.reshape(-1)[flat], order).reshape(i.shape)
            re = noise_start[run] + i * run_syms[run] + j
            im = re + draw_syms[run]
            a_slots = a_offsets[slot]
            trits = _buffer(store, "gathered", flat.shape)
        # mode="clip" writes straight into the buffer; the default "raise"
        # would fill a copy first, and every word is in range anyway
        y = np.take(build_constellation(order).points, words, mode="clip",
                    out=_buffer(store, "faded", words.shape, complex))
        np.multiply(h[blk], y, out=y)
        y.real += noise[re].reshape(words.shape)
        y.imag += noise[im].reshape(words.shape)
        y *= gain[blk]
        demod_robust(y, _order_regions(order), a_slots, out=trits,
                     work=_buffer(store, "work", (2 * y.size,)))
        if not is_whole:
            out.reshape(-1)[flat] = trits
    return out[:, :n_bits], np.add.reduceat(run_syms, np.flatnonzero(run_start == 0))


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
    runs, rows = symbol_runs(np.array([plan.orders])), np.array([n_rows])
    trits, symbols = _carry(bits, runs, rows, h, block_gains(h)[1], a_offsets,
                            rng.std_normal(_noise_size(runs, rows)), {})
    return trits, int(symbols[0])


@functools.lru_cache(maxsize=3)
def _order_regions(order: int) -> DecisionRegions:
    """Transition tables of one order; the caller supplies a per slot."""
    return build_regions(build_constellation(order), 0.0)


def run_end_to_end(models: ModelTriple, channel_dist: ChannelDistribution,
                   profile: RobustnessProfile, betas: BetaAdjusters,
                   adaptive: bool, dataset, rng: RandomSource,
                   images_per_block: int = 10, fixed_order: int = 2) -> dict:
    """Full inference pass: encode, modulate, fade, demodulate, decode, classify.

    The channel is redrawn every images_per_block images. With adaptive=False
    all bits ride fixed_order symbols. Returns aggregate metrics including the
    session spectral efficiency (total bits / total symbols) and the empirical
    bit bias of the encoder output.

    The pass is one jscc.infer pass in chunks of whole blocks of about
    CHUNK_ENTRIES latent entries. Its link channel makes one call per stage
    for a chunk: one channel draw for all its blocks (channel.draw_channels),
    one order matrix, one latent-bit draw and one _carry. Every random stream
    is drawn in the same order as a block-by-block pass, so the results are
    the same.
    """
    if isinstance(images_per_block, bool) or not isinstance(images_per_block,
                                                            (int, np.integer)):
        raise ConfigError(f"images_per_block must be an integer, got {images_per_block!r}")
    if images_per_block < 1:
        raise ConfigError(f"images_per_block must be >= 1, got {images_per_block}")
    n_bits = len(profile)
    if models.encoder.out_dim != n_bits:
        raise ConfigError(
            f"encoder emits {models.encoder.out_dim} bits, profile has {n_bits}"
        )
    n = len(dataset.features)
    # a block of at least the dataset's length is one block of every image
    images_per_block = min(int(images_per_block), n)
    if adaptive:
        table = threshold_table(profile, betas)
    else:  # thresholds 0 up to the fixed order and infinite above it
        above = np.array(SUPPORTED_ORDERS) > check_order(fixed_order)
        table = np.tile(np.where(above, np.inf, 0.0), (n_bits, 1))
    ch_rng, bit_rng, noise_rng = rng.split(3)
    chunk_images = max(1, CHUNK_ENTRIES // (images_per_block * n_bits)) * images_per_block
    store = {}  # _carry's buffers, shared by the chunks
    tally = np.zeros(5, dtype=np.int64)  # symbols, ones, flips, erasures, corrects

    def link(f, rows):
        """The chunk's latent bits over one channel per block, as trits."""
        nonlocal tally
        h = draw_channels(channel_dist, len(rows), ch_rng)
        g2, gain = block_gains(h)
        bits = sample_latent_bits(f, bit_rng.random(f.shape))
        runs = symbol_runs(orders_from_thresholds(g2, table))
        n_noise = _noise_size(runs, rows)
        noise = noise_rng.std_normal(n_noise, out=_buffer(store, "noise", (n_noise,)))
        trits, symbols_per_row = _carry(bits, runs, rows, h, gain, profile.a_offsets, noise,
                                        store)
        tally += (int(symbols_per_row @ rows), int(bits.sum()), *_count_trits(bits, trits))
        return trits

    chunks = ((lo, min(lo + chunk_images, n), images_per_block)
              for lo in range(0, n, chunk_images))
    accuracy, mse = infer(models, dataset, chunks, link)
    total_bits = n * n_bits
    symbols, ones, flips, erasures, _ = tally.tolist()
    return {
        "n_images": n,
        "accuracy": accuracy,
        "mse": mse,
        "spectral_efficiency": total_bits / symbols,
        "flip_rate": flips / total_bits,
        "erasure_rate": erasures / total_bits,
        "bit_bias": ones / total_bits,
    }


def trit_histogram_bsec(snr: float, a: float, n_bits: int, rng: RandomSource) -> np.ndarray:
    """(flips, erasures, corrects) counts from the sampled order-2 stochastic model.

    The trits are drawn with training's latent sampler, whose law for a sure
    bit is the BSEC's. Bad input is rejected with the link's messages.
    """
    n_bits = _check_n_bits(n_bits)
    params = analytic_params(2, snr, a)
    bit_rng, ch_rng = rng.split(2)
    bits = bit_rng.bits(n_bits)
    return _count_trits(bits, noisy_latent_sample(bits, params.mu, params.d,
                                                   ch_rng.random(bits.shape)))


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
