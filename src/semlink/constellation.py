"""Square Gray-coded QAM constellations with unit average energy.

Bit convention for an order-m constellation (m even): the first m/2 bits of a
label select the real-axis amplitude, the last m/2 bits the imaginary-axis
amplitude. Each axis uses reflected Gray coding with the all-zeros word at the
most negative amplitude, so adjacent amplitude levels differ in exactly one of
that axis's bits. This Gray rule is the only source of each bit's level
pattern: build_constellation places the points by it, demod reads it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError

SUPPORTED_ORDERS = (2, 4, 6)


def check_order(m: int) -> int:
    m = int(m)
    if m not in SUPPORTED_ORDERS:
        raise ConfigError(f"unsupported modulation order {m}; expected one of {SUPPORTED_ORDERS}")
    return m


def gray_code(n_bits: int) -> np.ndarray:
    """Reflected Gray sequence for n_bits-bit words."""
    i = np.arange(1 << n_bits)
    return i ^ (i >> 1)


@dataclass(frozen=True)
class Constellation:
    """Immutable 2^m-QAM constellation.

    points[w] is the complex symbol whose m-bit label, read MSB first, equals
    the integer w. d_min is the minimum inter-point distance sqrt(6/(2^m-1))
    implied by unit average energy. Coordinates are odd multiples of d_min/2.
    """

    m: int
    points: np.ndarray
    d_min: float

    @property
    def bits_per_axis(self) -> int:
        return self.m // 2

    @property
    def levels(self) -> np.ndarray:
        """Per-axis amplitudes in ascending order."""
        n_levels = 1 << self.bits_per_axis
        return (2 * np.arange(n_levels) - (n_levels - 1)) * (self.d_min / 2)


@lru_cache(maxsize=None)
def build_constellation(order: int) -> Constellation:
    """Construct the Gray-labeled unit-energy square QAM constellation."""
    m = check_order(order)
    half = m // 2
    c = Constellation(m=m, points=np.empty(1 << m, dtype=complex),
                      d_min=math.sqrt(6.0 / ((1 << m) - 1)))
    gray = gray_code(half)
    levels = c.levels
    c.points[(gray[:, None] << half) | gray] = levels[:, None] + 1j * levels
    c.points.setflags(write=False)
    return c


def pack_bits(bits: np.ndarray, m: int) -> np.ndarray:
    """Group 0/1 integers or bools, read flat, into int64 m-bit words, MSB first.

    Each word is built by shift-or over the m columns of a (words, m) reshape.
    """
    bits = np.asarray(bits)
    if bits.size % m != 0:
        raise DomainError(f"bit count {bits.size} is not a multiple of {m}")
    cols = bits.reshape(-1, m)
    words = cols[:, 0].astype(np.int64)
    for k in range(1, m):
        words <<= 1
        words |= cols[:, k]
    return words
