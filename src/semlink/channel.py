"""Quasi-static fading with AWGN, coherent equalization, and channel draws.

A coherence block is its complex coefficient h over unit-variance noise, so
the block's SNR is |h|^2. Blocks are drawn as 1-D arrays of h by
draw_channels, and block_gains is the one check on h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import RandomSource


@dataclass(frozen=True)
class FixedSnr:
    """|h| = sqrt(snr) with uniform phase."""

    snr: float

    def __post_init__(self):
        if not (self.snr > 0):
            raise DomainError(f"snr must be positive, got {self.snr}")
        if not math.isfinite(self.snr):
            raise DomainError(f"snr must be finite, got {self.snr}")


@dataclass(frozen=True)
class UniformMagnitude:
    """|h| ~ Uniform[g1, g2] with uniform phase."""

    g1: float
    g2: float

    def __post_init__(self):
        if not (0 <= self.g1 < self.g2):
            raise DomainError(f"require 0 <= g1 < g2, got [{self.g1}, {self.g2}]")
        if not math.isfinite(self.g2 * self.g2):  # |h|^2 is the block's SNR
            raise DomainError(f"g2^2 must be finite, got g2={self.g2}")


ChannelDistribution = FixedSnr | UniformMagnitude


def draw_channels(dist: ChannelDistribution, n: int, rng: RandomSource) -> np.ndarray:
    """Coefficients h of n coherence blocks from one uniform draw.

    Each block takes |h| (UniformMagnitude only) and then its phase from the
    stream, lo + (hi - lo) * u as Generator.uniform computes them, so the n
    draws leave the same values and the stream at the same place as n
    one-block draws.
    """
    if isinstance(dist, FixedSnr):
        mag = math.sqrt(dist.snr)
        phase = 2.0 * math.pi * rng.random(n)
    elif isinstance(dist, UniformMagnitude):
        u = rng.random((n, 2))
        mag = dist.g1 + (dist.g2 - dist.g1) * u[:, 0]
        phase = 2.0 * math.pi * u[:, 1]
    else:
        raise DomainError(f"unknown channel distribution {dist!r}")
    return mag * (np.cos(phase) + 1j * np.sin(phase))


def block_gains(h) -> tuple[np.ndarray, np.ndarray]:
    """|h|^2 and the equalizer gain conj(h)/|h|^2 of each block of a 1-D h.

    |h|^2 is Python's abs(h) ** 2 per block: numpy's complex abs and array
    ** 2 do not always give its bytes. Raises DomainError when |h|^2 is not
    positive or the gain is not finite (1/|h|^2 overflows for a subnormal
    |h|^2), naming the first such block.
    """
    h = np.asarray(h, dtype=complex)
    g2 = np.array([abs(hb) ** 2 for hb in h.tolist()], dtype=np.float64)
    bad = ~(g2 > 0)  # also rejects NaN and an underflowing |h|
    if np.any(bad):
        raise DomainError(f"channel gain |h|^2 must be positive, got {g2[bad][0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        gain = np.conj(h) / g2
    bad = ~np.isfinite(gain)
    if np.any(bad):
        raise DomainError(f"equalizer gain conj(h)/|h|^2 must be finite, "
                          f"got |h|^2 = {g2[bad][0]}")
    return g2, gain


def transmit(x: np.ndarray, h: complex, rng: RandomSource) -> np.ndarray:
    """y[n] = h x[n] + v[n] with circularly symmetric complex Gaussian v of
    unit variance."""
    x = np.asarray(x, dtype=complex)
    scale = math.sqrt(0.5)
    noise = scale * (rng.std_normal(x.size) + 1j * rng.std_normal(x.size))
    return h * x + noise.reshape(x.shape)


def equalize(y: np.ndarray, h: complex) -> np.ndarray:
    """Coherent equalization (h*/|h|^2) y; residual noise variance is 1/SNR."""
    return np.asarray(y, dtype=complex) * block_gains([h])[1][0]
