"""Per-bit channel-adaptive modulation-order selection and link planning.

For each bit, an order is admissible when its analytic flip probability stays
below beta_M * alpha_i, which converts to a sqrt-SNR threshold tau per order.
The highest admissible order among {2, 4, 6} wins; below the lowest threshold
the bit still rides order 2, the floor, and no warning is raised. Bits are
then packed into symbols by grouping maximal same-order runs, zero-padding
each run to a multiple of its order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsec import RobustnessProfile
from .constellation import SUPPORTED_ORDERS, check_order
from .errors import ConfigError, DomainError
from .numerics import q_inverse


@dataclass(frozen=True)
class BetaAdjusters:
    """Per-order factors compensating the flip-probability approximation."""

    beta2: float
    beta4: float
    beta6: float

    def __post_init__(self):
        for name, v in (("beta2", self.beta2), ("beta4", self.beta4), ("beta6", self.beta6)):
            if not (0.0 < v <= 1.0):
                raise DomainError(f"{name}={v} outside (0, 1]")

    def for_order(self, order: int) -> float:
        return {2: self.beta2, 4: self.beta4, 6: self.beta6}[check_order(order)]


# Reference settings: uniform robustness levels vs. a linear ramp of them.
HOMOGENEOUS_BETAS = BetaAdjusters(0.6599, 0.6003, 0.5553)
HETEROGENEOUS_BETAS = BetaAdjusters(1.0, 0.6, 0.5)


def tau(order: int, alpha: float, a: float, betas: BetaAdjusters) -> float:
    """sqrt-SNR threshold above which an order meets its flip-rate budget.

    Arguments of the inverse tail function at or above 1 mean the budget holds
    at any SNR, reported as a zero threshold; nonpositive arguments are a
    domain error.
    """
    m = check_order(order)
    if not (0.0 <= a <= 1.0):
        raise DomainError(f"boundary offset must lie in [0, 1], got {a}")
    root = math.sqrt(1 << m)
    arg = m * root / (4.0 * (root - 1.0)) * betas.for_order(m) * alpha
    if not (arg > 0.0):
        raise DomainError(f"threshold argument {arg} must be positive")
    if arg >= 1.0:
        return 0.0
    t = math.sqrt(((1 << m) - 1) / 3.0) * q_inverse(arg) / (1.0 + a)
    return max(t, 0.0)


def thresholds(alpha: float, a: float, betas: BetaAdjusters) -> tuple[float, float, float]:
    """(tau_2, tau_4, tau_6); raises ConfigError if they are not ascending."""
    t = tuple(tau(m, alpha, a, betas) for m in SUPPORTED_ORDERS)
    if not (t[0] <= t[1] <= t[2]):
        raise ConfigError(
            f"thresholds not ascending for alpha={alpha}, a={a}: "
            f"tau2={t[0]:.6g}, tau4={t[1]:.6g}, tau6={t[2]:.6g}"
        )
    return t


@dataclass(frozen=True)
class ModPlan:
    """Symbol packing of a bit sequence under per-bit modulation orders."""

    orders: tuple[int, ...]
    groups: tuple[tuple[int, tuple[int, ...]], ...]  # (order, bit indices)
    symbol_count: int
    padding_bits: int


def threshold_table(profile: RobustnessProfile, betas: BetaAdjusters) -> np.ndarray:
    """(n_bits, 3) array of per-bit (tau_2, tau_4, tau_6)."""
    return np.array([
        thresholds(float(alpha), float(a), betas)
        for alpha, a in zip(profile.alphas, profile.a_offsets)
    ])


def orders_from_thresholds(snr, table: np.ndarray) -> np.ndarray:
    """(len(snr), n_bits) per-bit orders from sqrt-SNR comparisons against a table."""
    snr = np.asarray(snr, dtype=np.float64)
    bad = ~(snr > 0)
    if np.any(bad):
        raise DomainError(f"snr must be positive, got {snr[bad][0]}")
    s = np.sqrt(snr)[:, None]
    orders = np.full((snr.size, table.shape[0]), 2, dtype=np.int64)
    orders[s >= table[:, 1]] = 4
    orders[s >= table[:, 2]] = 6
    return orders


def plan_from_thresholds(snr: float, table: np.ndarray) -> ModPlan:
    """Build a ModPlan from sqrt-SNR comparisons against a threshold table."""
    return _pack(tuple(int(o) for o in orders_from_thresholds([snr], table)[0]))


def fixed_plan(n_bits: int, order: int) -> ModPlan:
    """Pack all bits at one modulation order (no adaptation)."""
    if n_bits < 1:
        raise DomainError("n_bits must be positive")
    return _pack((check_order(order),) * n_bits)


def _pack(orders: tuple[int, ...]) -> ModPlan:
    groups: list[tuple[int, tuple[int, ...]]] = []
    start = 0
    for i in range(1, len(orders) + 1):
        if i == len(orders) or orders[i] != orders[start]:
            groups.append((orders[start], tuple(range(start, i))))
            start = i
    symbol_count = 0
    padding = 0
    for order, idxs in groups:
        pad = (-len(idxs)) % order
        padding += pad
        symbol_count += (len(idxs) + pad) // order
    return ModPlan(orders=orders, groups=tuple(groups),
                   symbol_count=symbol_count, padding_bits=padding)


def spectral_efficiency(plan: ModPlan, n_bits: int) -> float:
    """Information bits per channel use; padding costs symbols, not bits."""
    if n_bits != len(plan.orders):
        raise ConfigError(f"plan covers {len(plan.orders)} bits, not {n_bits}")
    return n_bits / plan.symbol_count


def capacity_uniform(g1: float, g2: float) -> float:
    """Ergodic capacity in bits per channel use for sqrt(SNR) ~ Uniform[g1, g2]."""
    if not (0.0 <= g1 < g2 < math.inf):
        raise DomainError(f"require 0 <= g1 < g2 < inf, got [{g1}, {g2}]")
    if not math.isfinite(g2 * g2):
        raise DomainError(f"g2^2 must be finite, got g2={g2}")
    num = (
        g2 * math.log1p(g2 * g2)
        - g1 * math.log1p(g1 * g1)
        + 2.0 * (math.atan(g2) - math.atan(g1))
        - 2.0 * (g2 - g1)
    )
    return num / (math.log(2.0) * (g2 - g1))
