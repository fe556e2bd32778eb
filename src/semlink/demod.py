"""Ternary robust demodulation by closed-form decision boundaries.

Around every per-axis label transition an erasure band of half-width a*d_min/2
emits the intermediate value 0.5, while the complement keeps the binary
decision of its cell (outermost cells extend to infinity). These boundary
tables are the library's only route to trits: the max-log LLR rule they equal
and the exact LLR live in tests/oracles.py, where the three check each other.

BitRegions.classify is the only trit kernel. It compares each coordinate with
the bit's own one, two or four label transitions: the parity of the
transitions below it gives the binary value (adjacent Gray cells always differ
in the bit), and a closed band of half-width a*d_min/2 around each transition
erases. The transitions do not depend on a: demod_robust takes one offset per
bit slot from its caller, and build_regions' offset sets only the interval
tables. demod_robust applies the kernel once per I/Q pair of bits, which share
their transitions, for the link Monte Carlo and the adaptive transport alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, check_order, gray_code
from .errors import DomainError

TRIT_ERASURE = 0.5


def a_from_rho(rho: float, order: int, snr: float) -> float:
    """Boundary offset equivalent to an LLR threshold."""
    m = check_order(order)
    if not (snr > 0):
        raise DomainError(f"snr must be positive, got {snr}")
    if not (rho >= 0):
        raise DomainError(f"rho must be nonnegative, got {rho}")
    a = rho * ((1 << m) - 1) / (6.0 * snr)
    if a > 1.0:
        raise DomainError(
            f"threshold rho={rho} implies offset a={a:.6g} > 1; "
            "the erasure band would exceed the decision cell"
        )
    return a


def axis_bit_pattern(c: Constellation, bit: int) -> tuple[int, np.ndarray]:
    """Axis read by a bit and its value per ascending amplitude level.

    Read off the Gray code of build_constellation: level l of the bit's axis
    carries the word gray_code(m/2)[l], MSB first, in the bit's half of a label.
    """
    if not 0 <= bit < c.m:
        raise DomainError(f"bit index {bit} out of range for order {c.m}")
    half = c.bits_per_axis
    return bit // half, (gray_code(half) >> (half - 1 - bit % half)) & 1


@dataclass(frozen=True)
class Interval:
    output: float  # 0, 0.5, or 1
    index: int     # boundary index j within the equidistant grid
    lower: float
    upper: float


@dataclass(frozen=True)
class BitRegions:
    """Decision regions of one bit along its axis."""

    bit: int
    d_min: float
    transitions: np.ndarray   # label-transition points, ascending
    intervals: tuple[Interval, ...]

    def index_set(self, output: float) -> tuple[int, ...]:
        return tuple(iv.index for iv in self.intervals if iv.output == output)

    def classify(self, coords: np.ndarray, a, out=None) -> np.ndarray:
        """Trit decision per coordinate at offset a; band-boundary hits erase to 0.5.

        A coordinate takes the value of its Gray cell: 0 below the first
        transition (word 0 sits at the most negative level), flipped once per
        transition it lies above (cell k spans (t_(k-1), t_k]). It erases when
        a > 0 and it lies within a*d_min/2 of any transition, band edges
        included. a may be any array that broadcasts against coords; entries
        that are not positive (NaN included) keep the binary value. -inf and
        +inf take the value of the outer cells and erase when a > 0; NaN lies
        above every transition, so it takes the last cell's value and never
        erases. out, a float64 array of the shape of coords and of any layout,
        receives the trits when given; the trits are returned either way.
        """
        coords = np.asarray(coords, dtype=float)
        a = np.asarray(a, dtype=float)
        if out is None:
            out = np.empty(coords.shape)
        t = self.transitions
        # ~(c <= t) rather than c > t: NaN counts past every transition
        flip = ~(coords <= t[0])
        for tk in t[1:]:
            flip ^= ~(coords <= tk)
        positive = a > 0
        if not np.any(positive):
            # a uint8 multiply, not copyto: copying bools into a strided out is slow
            return np.multiply(flip.view(np.uint8), 1.0, out=out)
        half_w = a * self.d_min / 2.0
        erase = np.isinf(coords)
        for tk in t:
            erase |= (tk - half_w <= coords) & (coords <= tk + half_w)
        if not np.all(positive):
            erase &= positive
        # flip + (flip ^ erase) is 2 for a kept 1, 0 for a kept 0 and 1 for an
        # erasure; halving it needs no masked write
        return np.multiply(flip.view(np.uint8) + (flip ^ erase).view(np.uint8), 0.5, out=out)


def _bit_regions(c: Constellation, bit: int, a: float) -> BitRegions:
    pattern = axis_bit_pattern(c, bit)[1]
    d = c.d_min
    # Midpoint between levels l and l+1 is an exact integer multiple of d.
    trans_mult = np.nonzero(pattern[:-1] != pattern[1:])[0] + 1 - pattern.size // 2
    transitions = trans_mult * d
    half_w = a * d / 2.0
    # Ascending: cell k, then the band around transition k. Cell k lies above
    # k transitions, so it outputs k % 2: word 0 sits at the most negative level.
    intervals: list[Interval] = []
    lo = -math.inf
    for k, (mult, t) in enumerate(zip(trans_mult, transitions)):
        intervals.append(Interval(float(k % 2), int(mult), lo, t - half_w))
        if a > 0:
            intervals.append(Interval(TRIT_ERASURE, int(mult) + 1, t - half_w, t + half_w))
        lo = t + half_w
    last = float(len(transitions) % 2)
    intervals.append(Interval(last, int(trans_mult[-1]) + 2, lo, math.inf))
    return BitRegions(bit=bit, d_min=d, transitions=transitions, intervals=tuple(intervals))


@dataclass(frozen=True)
class DecisionRegions:
    """Per-bit ternary decision regions of one constellation, tabled at one offset."""

    order: int
    bits: tuple[BitRegions, ...]


def build_regions(c: Constellation, a: float) -> DecisionRegions:
    """Build every bit's ternary decision regions, tabled at one offset a in [0, 1].

    demod_robust reads only the transitions, which do not depend on a.
    """
    if not (0.0 <= a <= 1.0):
        raise DomainError(f"boundary offset a must lie in [0, 1], got {a}")
    bits = tuple(_bit_regions(c, bit, float(a)) for bit in range(c.m))
    return DecisionRegions(order=c.m, bits=bits)


def demod_robust(y: np.ndarray, regions: DecisionRegions, a, out=None,
                 work=None) -> np.ndarray:
    """Demodulate equalized samples to trits {0, 0.5, 1} at offsets a.

    y may have any shape. a must broadcast to exactly (*y.shape, order),
    giving one offset per bit slot, and is read in its own shape; regions is
    read only for its transitions. Every offset must lie in [0, 1] (NaN is
    rejected). Returns a flat sequence of order*y.size trits, one m-bit group
    per symbol in row-major order; or, when out is given, writes them into out,
    a float64 array of shape (*y.shape, order) of any layout, and returns it.
    work, a float64 array of at least 2 * y.size entries, holds the stacked
    coordinates when given, so a caller that demodulates chunk after chunk
    allocates nothing large per call.

    Samples must be finite, and are not checked. A NaN coordinate takes its
    bits' last-cell values and never erases: at order 4 and a = 0.5,
    nan+0.3j gives [1, 0, 1, 1].

    Bit k reads the real axis and bit k + order/2 the imaginary axis with the
    same transitions, so each such pair is one classify call over the stacked
    real and imaginary parts, which writes the pair's two trit slots in place.
    """
    y = np.asarray(y, dtype=complex)
    order = regions.order
    a = np.asarray(a, dtype=float)
    full = (*y.shape, order)
    if a.ndim > len(full) or any(n not in (1, f) for n, f in zip(a.shape[::-1], full[::-1])):
        raise DomainError(f"boundary offsets of shape {a.shape} do not fit {full}")
    ok = (a >= 0) & (a <= 1)
    if not np.all(ok):
        raise DomainError(f"boundary offsets must lie in [0, 1], got {a[~ok].flat[0]}")
    # bit slot j * half + k is pair k's bit on axis j; the axis goes first, so
    # the pair's two offsets broadcast along whole rows of coordinates
    half = order // 2
    lead = a.shape[:-1]
    a = np.broadcast_to(a, (*lead, order)).reshape(*lead, 2, half)
    a = np.moveaxis(a, -2, 0).reshape(2, *(1,) * (y.ndim - len(lead)), *lead, half)
    if out is not None and (out.shape != full or out.dtype != np.float64):
        raise DomainError(f"out must be a float64 array of shape {full}, "
                          f"got {out.dtype} of shape {out.shape}")
    trits = np.empty(full) if out is None else out
    if work is None:
        work = np.empty(2 * y.size)
    elif work.dtype != np.float64 or work.ndim != 1 or work.size < 2 * y.size:
        raise DomainError(f"work must be a 1-D float64 array of at least {2 * y.size} "
                          f"entries, got {work.dtype} of shape {work.shape}")
    coords = np.stack((y.real, y.imag), out=work[:2 * y.size].reshape(2, *y.shape))
    for k in range(half):
        # slots k and k + half, axis first: the pair's trits, written in place
        regions.bits[k].classify(coords, a[..., k], np.moveaxis(trits[..., k::half], -1, 0))
    return trits.reshape(-1) if out is None else out

