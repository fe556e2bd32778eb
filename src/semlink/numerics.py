"""Gaussian tail probabilities and deterministic, splittable random streams."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc as _erfc_array, erfcinv as _erfcinv_array

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)


def q_function_array(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Upper-tail probabilities P(Z > x) for a standard normal Z (no finiteness check).

    With out, a float64 array of x's shape that may be x itself, every step
    runs in place there and out is returned; a scalar x without out gives a
    scalar.
    """
    y = np.divide(np.asarray(x, dtype=float), _SQRT2, out=out)
    y = _erfc_array(y, out=out)
    return np.multiply(y, 0.5, out=out)


def q_inverse_array(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of q_function_array (no range check); out works as in q_function_array."""
    y = np.multiply(np.asarray(p, dtype=float), 2.0, out=out)
    y = _erfcinv_array(y, out=out)
    return np.multiply(y, _SQRT2, out=out)


class RandomSource:
    """Seeded random stream backed by the counter-based Philox generator.

    Identical seeds reproduce identical streams across runs and platforms.
    Child streams produced by :meth:`split` are statistically independent
    of each other and of the parent's subsequent output.
    """

    def __init__(self, seed: int | np.random.SeedSequence):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            seed = int(seed)
            if not 0 <= seed < 2**64:
                raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
            self._seq = np.random.SeedSequence(seed)
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    def split(self, n: int) -> list["RandomSource"]:
        """Spawn n independent child sources."""
        if n < 1:
            raise DomainError(f"split requires n >= 1, got {n}")
        return [RandomSource(child) for child in self._seq.spawn(n)]

    def uniform(self, lo: float, hi: float, size=None):
        """Uniform draw(s) on [lo, hi]."""
        if not (lo <= hi):
            raise DomainError(f"uniform requires lo <= hi, got [{lo}, {hi}]")
        if lo == hi:
            return float(lo) if size is None else np.full(size, float(lo))
        out = self._gen.uniform(lo, hi, size=size)
        return float(out) if size is None else out

    def normal_pair(self) -> tuple[float, float]:
        """Two independent standard normal draws."""
        a, b = self._gen.standard_normal(2)
        return float(a), float(b)

    def std_normal(self, size, out=None) -> np.ndarray:
        """Standard normal draws; out, a C-contiguous float64 array of that
        size, receives the same values the allocating draw would return."""
        return self._gen.standard_normal(size, out=out)

    def bernoulli(self, p: float, size=None):
        """Bernoulli(p) draw(s) as 0/1 integers."""
        if not (0.0 <= p <= 1.0):
            raise DomainError(f"bernoulli requires p in [0, 1], got {p}")
        out = self._gen.random(size=size) < p
        return int(out) if size is None else out.astype(np.int64)

    def random(self, size=None):
        """Uniform draw(s) on [0, 1)."""
        return self._gen.random(size=size)

    def skip(self, n: int) -> None:
        """Move the stream past n doubles, as random(n) would, without drawing them.

        Each double takes one 64-bit Philox word, and Philox makes words four
        to a counter block: the current block is finished word by word, whole
        blocks are jumped by advancing the counter, and the rest is drawn.
        advance() also drops the pending 32-bit half of an odd bits() call,
        which drawing doubles keeps, so it is put back.
        """
        if n < 0:
            raise DomainError(f"skip requires n >= 0, got {n}")
        bitgen = self._gen.bit_generator
        state = bitgen.state
        head = min(n, 4 - state["buffer_pos"])
        blocks, tail = divmod(n - head, 4)
        if head:
            bitgen.random_raw(head, output=False)
        if blocks:
            bitgen.advance(blocks)
            if state["has_uint32"]:
                moved = bitgen.state
                moved["has_uint32"], moved["uinteger"] = 1, state["uinteger"]
                bitgen.state = moved
        if tail:
            bitgen.random_raw(tail, output=False)

    def bits(self, n: int) -> np.ndarray:
        """n independent fair bits as uint8, drawn as Generator.integers(0, 2, size=n) would.

        That bounded draw takes one 32-bit half per bit, low half of each
        64-bit word first, and keeps the top bit; with a range of two it never
        rejects. So the bits are read straight from the raw words: a half left
        pending by an odd call goes first, and an odd count leaves its last
        word's high half pending in turn, which puts the stream where the
        bounded draw would.
        """
        if n < 0:
            raise DomainError(f"bits requires n >= 0, got {n}")
        out = np.empty(n, np.uint8)
        if n == 0:
            return out
        bitgen = self._gen.bit_generator
        state = bitgen.state
        pending = state["has_uint32"]
        if pending:
            out[0] = state["uinteger"] >> 31
        rest = n - pending
        if rest:
            words = bitgen.random_raw((rest + 1) // 2).astype("<u8", copy=False)
            # the halves in stream order, as signed: the top bit is the sign
            np.less(words.view("<i4")[:rest], 0, out=out[pending:].view(bool))
            state = bitgen.state
            # each word drawn parks its high half, as the bounded draw does
            state["uinteger"] = int(words[-1] >> 32)
        state["has_uint32"] = rest % 2
        bitgen.state = state
        return out

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
