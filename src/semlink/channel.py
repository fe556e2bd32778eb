"""Quasi-static fading with AWGN, coherent equalization, and channel draws."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import RandomSource


@dataclass(frozen=True)
class ChannelRealization:
    """One coherence block: complex coefficient h and noise variance."""

    h: complex
    noise_var: float

    def __post_init__(self):
        if not (self.noise_var >= 0):
            raise DomainError(f"noise variance must be >= 0, got {self.noise_var}")
        if not (abs(self.h) ** 2 > 0):  # also rejects NaN and an underflowing |h|
            raise DomainError(f"channel gain |h|^2 must be positive, got {abs(self.h) ** 2}")

    @property
    def snr(self) -> float:
        if self.noise_var == 0:
            return math.inf
        return abs(self.h) ** 2 / self.noise_var


@dataclass(frozen=True)
class FixedSnr:
    """Channel magnitude fixed by a target SNR; phase drawn uniformly."""

    snr: float
    noise_var: float = 1.0

    def __post_init__(self):
        if not (self.snr > 0):
            raise DomainError(f"snr must be positive, got {self.snr}")


@dataclass(frozen=True)
class UniformMagnitude:
    """|h| ~ Uniform[g1, g2] with uniform phase."""

    g1: float
    g2: float
    noise_var: float = 1.0

    def __post_init__(self):
        if not (0 <= self.g1 < self.g2):
            raise DomainError(f"require 0 <= g1 < g2, got [{self.g1}, {self.g2}]")
        if not math.isfinite(self.g2 * self.g2):  # |h|^2 is the block's SNR
            raise DomainError(f"g2^2 must be finite, got g2={self.g2}")


ChannelDistribution = FixedSnr | UniformMagnitude


def draw_channel(dist: ChannelDistribution, rng: RandomSource) -> ChannelRealization:
    """Draw one coherence-block realization from a channel distribution."""
    if isinstance(dist, FixedSnr):
        mag = math.sqrt(dist.snr * dist.noise_var)
    elif isinstance(dist, UniformMagnitude):
        mag = rng.uniform(dist.g1, dist.g2)
    else:
        raise DomainError(f"unknown channel distribution {dist!r}")
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return ChannelRealization(h=mag * complex(math.cos(phase), math.sin(phase)),
                              noise_var=dist.noise_var)


def transmit(x: np.ndarray, ch: ChannelRealization, rng: RandomSource) -> np.ndarray:
    """y[n] = h x[n] + v[n] with circularly symmetric complex Gaussian v."""
    x = np.asarray(x, dtype=complex)
    if ch.noise_var == 0:
        return ch.h * x
    scale = math.sqrt(ch.noise_var / 2.0)
    noise = scale * (rng.std_normal(x.size) + 1j * rng.std_normal(x.size))
    return ch.h * x + noise.reshape(x.shape)


def equalize(y: np.ndarray, h: complex) -> np.ndarray:
    """Coherent equalization (h*/|h|^2) y; residual noise variance is 1/SNR."""
    if h == 0:
        raise DomainError("cannot equalize a zero channel coefficient")
    return np.asarray(y, dtype=complex) * (np.conj(h) / abs(h) ** 2)
