"""End-to-end pipelines: link Monte Carlo, full-system evaluation, statistics."""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adaptmod import BetaAdjusters, ModPlan, orders_from_thresholds, symbol_runs, threshold_table
from .bsec import RobustnessProfile, analytic_params, check_link_point
from .channel import ChannelDistribution, FixedSnr, block_gains, draw_channels
from .constellation import SUPPORTED_ORDERS, build_constellation, check_order, pack_bits
from .demod import TRIT_ERASURE, DecisionRegions, build_regions, demod_robust
from .errors import ConfigError, DomainError
from .jscc import ModelTriple, noisy_latent_sample, sample_latent_bits
from .numerics import RandomSource

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
    chunk 0 is drawn inline and one worker thread draws chunk k + 1 while
    chunk k is carried, into the other of two noise buffers. A one-chunk run
    submits nothing, so it starts no thread. Each stream is drawn by one
    thread at a time, in chunk order, so the values are those of an inline
    run. The worker is joined before the call returns or raises.
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
    # other is carried, and chunk k + 2 is submitted once chunk k is carried
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
    # the pool starts its thread on the first submit; leaving the with block
    # joins it, on an error too
    with ThreadPoolExecutor(max_workers=1) as pool:
        for k in range(n_chunks):
            bits, rows, noise = draw(0) if k == 0 else ahead.result()
            if k + 1 < n_chunks:
                ahead = pool.submit(draw, k + 1)
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


def _forward_blocks(model, x: np.ndarray, size: int) -> np.ndarray:
    """model.forward over consecutive blocks of `size` rows of x.

    The full blocks go in as one (blocks, size, dim) stack, whose products
    equal the per-block ones bit for bit; a shorter last block is its own
    (1, rows, dim) stack. Stacks keep no activations, so neither call leaves
    a cache behind.
    """
    full = len(x) - len(x) % size
    parts = []
    if full:
        parts.append(model.forward(x[:full].reshape(-1, size, x.shape[1])).reshape(full, -1))
    if full < len(x):
        parts.append(model.forward(x[full:][None])[0])
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
    order as a block-by-block pass, so the results are the same. A chunk's
    arrays are freed before the next chunk allocates its own, so the pass
    holds one chunk's arrays at a time.
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
    x, y = dataset.features, dataset.labels
    # a block of at least the dataset's length is one block of every image
    images_per_block = min(int(images_per_block), len(x))
    if adaptive:
        table = threshold_table(profile, betas)
    else:  # thresholds 0 up to the fixed order and infinite above it
        above = np.array(SUPPORTED_ORDERS) > check_order(fixed_order)
        table = np.tile(np.where(above, np.inf, 0.0), (n_bits, 1))
    ch_rng, bit_rng, noise_rng = rng.split(3)
    chunk_images = max(1, CHUNK_ENTRIES // (images_per_block * n_bits)) * images_per_block
    store = {}  # _carry's buffers, shared by the chunks

    correct = 0
    sq_err_sum = 0.0
    total_symbols = 0
    bit_sum = 0
    counts = np.zeros(3, dtype=np.int64)  # flips, erasures, corrects
    for start in range(0, len(x), chunk_images):
        xc = x[start:start + chunk_images]
        yc = y[start:start + chunk_images]
        bounds = np.append(np.arange(0, len(xc), images_per_block), len(xc))
        rows = np.diff(bounds)
        h = draw_channels(channel_dist, len(rows), ch_rng)
        g2, gain = block_gains(h)
        orders = orders_from_thresholds(g2, table)
        f = _forward_blocks(models.encoder, xc, images_per_block)
        bits = sample_latent_bits(f, bit_rng)
        runs = symbol_runs(orders)
        n_noise = _noise_size(runs, rows)
        noise = noise_rng.std_normal(n_noise, out=_buffer(store, "noise", (n_noise,)))
        trits, symbols_per_row = _carry(bits, runs, rows, h, gain, profile.a_offsets, noise,
                                        store)
        total_symbols += int(symbols_per_row @ rows)
        bit_sum += int(bits.sum())
        counts += _count_trits(bits, trits)
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
        del f, bits, trits, u_hat, logits, sq_err  # before the next chunk allocates

    n = len(x)
    total_bits = n * n_bits
    flips, erasures, _ = counts.tolist()
    return {
        "n_images": n,
        "accuracy": correct / n,
        "mse": sq_err_sum / n,
        "spectral_efficiency": total_bits / total_symbols,
        "flip_rate": flips / total_bits,
        "erasure_rate": erasures / total_bits,
        "bit_bias": bit_sum / total_bits,
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
    return _count_trits(bits, noisy_latent_sample(bits, params.mu, params.d, ch_rng))


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
