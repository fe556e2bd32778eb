"""Binary symmetric erasure channels and their link-level characterization.

A BSEC carries a bit through unchanged with probability r, erases it to 0.5
with probability d, and flips it with probability mu (mu + d + r = 1). Setting
d = 0 recovers a BSC, mu = 0 a BEC. The paper's closed form takes (order,
snr, a) to (mu, d, r); it keeps only the nearest boundary and drives the
adaptive thresholds, and its inverse in mu gives the training-time sampler
each bit's erasure law at that bit's own offset a. The link's exact map,
which integrates the noise over the boundary demodulator's own decision
intervals, is a test reference (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import check_order
from .errors import DomainError
from .numerics import RandomSource, q_function_array, q_inverse_array


@dataclass(frozen=True)
class BsecParams:
    """Per-bit (flip, erasure, correct) probability triple."""

    mu: float
    d: float
    r: float

    def __post_init__(self):
        for name, v in (("mu", self.mu), ("d", self.d), ("r", self.r)):
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"{name}={v} outside [0, 1]")
        if abs(self.mu + self.d + self.r - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {self.mu + self.d + self.r}, not 1")


# Widest profile the classmethods build and training takes: a training batch
# of 256 examples then holds 20 MB per latent-sized array
MAX_PROFILE_BITS = 10**4


def check_width(n: int) -> None:
    if n > MAX_PROFILE_BITS:
        raise DomainError(f"a profile holds at most {MAX_PROFILE_BITS} bits, got {n}")


@dataclass(frozen=True)
class RobustnessProfile:
    """Per-bit robustness levels alpha_i and boundary offsets a_i."""

    alphas: np.ndarray
    a_offsets: np.ndarray

    def __post_init__(self):
        # read-only copies, so the range check below holds for the profile's life
        alphas = np.array(self.alphas, dtype=np.float64)
        a_offsets = np.array(self.a_offsets, dtype=np.float64)
        alphas.flags.writeable = a_offsets.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "a_offsets", a_offsets)
        if alphas.shape != a_offsets.shape or alphas.ndim != 1 or alphas.size == 0:
            raise DomainError("alphas and a_offsets must be nonempty 1-D arrays of equal length")
        for name, v, hi in (("robustness levels", alphas, 0.5),
                            ("boundary offsets", a_offsets, 1)):
            bad = np.flatnonzero(~((0 <= v) & (v <= hi)))  # NaN included
            if bad.size:
                i = bad[0]
                raise DomainError(f"{name} must lie in [0, {hi}], got {v[i]} at bit {i}")

    def __len__(self) -> int:
        return self.alphas.size

    def __reduce__(self):
        # pickle and deepcopy rebuild through the constructor, so a copy's
        # arrays are read-only and range-checked too
        return type(self), (self.alphas, self.a_offsets)

    @classmethod
    def homogeneous(cls, n: int, alpha: float, a: float = 0.5) -> "RobustnessProfile":
        if n < 1:
            raise DomainError(f"a profile needs at least 1 bit, got {n}")
        check_width(n)
        return cls(np.full(n, float(alpha)), np.full(n, float(a)))

    @classmethod
    def linear_ramp(cls, n: int, alpha_first: float, alpha_last: float,
                    a: float = 0.5) -> "RobustnessProfile":
        """alpha_i = (alpha_last - alpha_first) (i-1)/(n-1) + alpha_first."""
        if n < 2:
            raise DomainError("a linear ramp needs at least 2 bits")
        check_width(n)
        for name, alpha in (("alpha_first", alpha_first), ("alpha_last", alpha_last)):
            if not (0 <= alpha <= 0.5):
                raise DomainError(f"robustness levels must lie in [0, 0.5], got {name} {alpha}")
        i = np.arange(n, dtype=float)
        alphas = (alpha_last - alpha_first) * i / (n - 1) + alpha_first
        return cls(alphas, np.full(n, float(a)))


def erasure_from_mu_array(mu: np.ndarray, a) -> np.ndarray:
    """Erasure probabilities matched to sampled flip probabilities.

    The order-2 closed form of analytic_params solved for d at the flip rate
    mu: d = Q(Q^-1(mu) (1-a)/(1+a)) - mu elementwise, with a, each bit's
    boundary offset, broadcast over mu's rows. The quantile is scaled as
    (q (1-a)) / (1+a), so at a = 0.5 the bytes are those of Q(Q^-1(mu)/3) - mu.
    Q^-1(0) = inf comes without a warning; it is clipped to the largest
    float, so a zero flip rate maps to Q(huge) - 0 = 0 for a < 1 and to the
    limit 1/2 at a = 1, where the factor is 0. d is clamped at 0 against
    rounding (at a = 0 it is 0 up to an ulp). Every step after the checks
    runs in the one result buffer.
    """
    mu = np.asarray(mu, dtype=float)
    a = np.asarray(a, dtype=float)
    if not np.all((mu >= 0) & (mu < 0.5)):
        raise DomainError("flip probabilities must lie in [0, 0.5)")
    if not np.all((a >= 0) & (a <= 1)):
        raise DomainError("boundary offsets must lie in [0, 1]")
    d = q_inverse_array(mu, out=np.empty(mu.shape))
    np.minimum(d, np.finfo(float).max, out=d)
    d *= 1.0 - a
    d /= 1.0 + a
    q_function_array(d, out=d)
    d -= mu
    np.maximum(d, 0.0, out=d)
    return d


def check_link_point(order: int, snr: float, a: float) -> int:
    """The order of a link operating point, after checking order, snr and offset."""
    m = check_order(order)
    if not (snr > 0):
        raise DomainError(f"snr must be positive, got {snr}")
    if not math.isfinite(snr):
        raise DomainError(f"snr must be finite, got {snr}")
    if not (0.0 <= a <= 1.0):
        raise DomainError(f"boundary offset must lie in [0, 1], got {a}")
    return m


def analytic_params(order: int, snr: float, a: float) -> BsecParams:
    """The paper's nearest-boundary BSEC triple at (order, snr, boundary offset).

    mu = (4/m)(1 - 2^(-m/2)) Q((1+a)x) and d = (4/m)(1 - 2^(-m/2))
    (Q((1-a)x) - Q((1+a)x)) with x = sqrt(3 snr / (2^m - 1)). Crossings past
    the nearest boundary are left out, so it understates the link's flip rate,
    by 37% at order 6 and -3 dB against the link's exact triple (exact_params
    in tests/oracles.py).
    The triple is always a valid BSEC: mu + d = pref Q((1-a)x) with (1-a)x >= 0
    and pref <= 1, so mu + d <= 1/2.
    """
    m = check_link_point(order, snr, a)
    pref = (4.0 / m) * (1.0 - 2.0 ** (-m / 2))
    x = math.sqrt(3.0 * snr / ((1 << m) - 1))
    q_far, q_near = q_function_array(np.array([1.0 + a, 1.0 - a]) * x).tolist()
    mu = pref * q_far
    d = pref * (q_near - q_far)
    return BsecParams(mu=mu, d=d, r=1.0 - mu - d)


def sample_mu_matrix(alphas: np.ndarray, n_examples: int, rng: RandomSource) -> np.ndarray:
    """(n_examples, n_bits) flip probabilities, independent across both axes."""
    alphas = np.asarray(alphas, dtype=float)
    mu = rng.random((n_examples, alphas.size))
    mu *= alphas
    return mu
