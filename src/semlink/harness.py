"""End-to-end pipelines: link Monte Carlo, full-system evaluation, statistics."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .adaptmod import (
    BetaAdjusters,
    ModPlan,
    fixed_plan,
    plan_from_thresholds,
    threshold_table,
)
from .bsec import RobustnessProfile, analytic_params
from .channel import (
    ChannelDistribution,
    ChannelRealization,
    FixedSnr,
    draw_channel,
    equalize,
    transmit,
)
from .constellation import build_constellation, pack_bits
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
    bits = np.asarray(bits, dtype=np.float64)
    erasures = int(np.sum(trits == TRIT_ERASURE))
    corrects = int(np.sum(trits == bits))
    flips = bits.size - erasures - corrects
    return LinkStats(n_bits=bits.size, flips=flips, erasures=erasures, corrects=corrects)


def run_link_montecarlo(order: int, snr_db: float, a: float, n_bits: int,
                        rng: RandomSource) -> LinkStats:
    """Random bits through map -> fade -> equalize -> ternary demodulation.

    n_bits is rounded up to a whole number of symbols.
    """
    if n_bits < 1:
        raise DomainError("n_bits must be positive")
    c = build_constellation(order)
    snr = 10.0 ** (snr_db / 10.0)
    n_sym = -(-n_bits // c.m)
    bit_rng, ch_rng, noise_rng = rng.split(3)
    bits = bit_rng.bits(n_sym * c.m)
    x = c.points[pack_bits(bits, c.m)]
    ch = draw_channel(FixedSnr(snr=snr, noise_var=1.0), ch_rng)
    y_eq = equalize(transmit(x, ch, noise_rng), ch.h)
    trits = demod_robust(y_eq, build_regions(c, a))
    return _count_trits(bits, trits)


def transport_block(bits: np.ndarray, plan: ModPlan, a_offsets: np.ndarray,
                    ch: ChannelRealization, rng: RandomSource) -> tuple[np.ndarray, int]:
    """Carry a (block, n_bits) bit matrix over one channel realization.

    Bits are packed per plan group, padded with zeros, modulated with the
    group's constellation, faded, equalized, and demodulated with each bit's
    own erasure offset; padding is stripped by position on return. Returns the
    trit matrix and the symbol count per block row.
    """
    bits = np.atleast_2d(np.asarray(bits, dtype=np.int64))
    n_rows, n_bits = bits.shape
    if n_bits != len(plan.orders):
        raise ConfigError(f"plan covers {len(plan.orders)} bits, not {n_bits}")
    out = np.empty((n_rows, n_bits))
    for order, group_idxs in plan.groups:
        idxs = np.asarray(group_idxs)
        c = build_constellation(order)
        pad = (-idxs.size) % order
        padded = np.pad(bits[:, idxs], ((0, 0), (0, pad)))
        words = pack_bits(padded.reshape(-1), order)
        y_eq = equalize(transmit(c.points[words], ch, rng), ch.h)
        # padding slots carry a = 0; their trits are dropped below
        a_slots = np.pad(a_offsets[idxs], (0, pad)).reshape(-1, order)
        trits = demod_robust(y_eq.reshape(n_rows, -1), _order_regions(order), a_slots)
        out[:, idxs] = trits.reshape(n_rows, -1)[:, : idxs.size]
    return out, plan.symbol_count


@functools.lru_cache(maxsize=3)
def _order_regions(order: int) -> DecisionRegions:
    """Transition tables of one order; transport_block supplies a per slot."""
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
    table = threshold_table(profile, betas) if adaptive else None
    static_plan = None if adaptive else fixed_plan(n_bits, fixed_order)
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
