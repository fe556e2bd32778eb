"""Per-bit channel-adaptive modulation-order selection and link planning.

For each bit, an order is admissible when its analytic flip probability stays
below beta_M * alpha_i, which converts to a sqrt-SNR threshold tau per order.
The highest admissible order among {2, 4, 6} wins; below the lowest threshold
the bit still rides order 2, the floor, and no warning is raised. Bits are
then packed into symbols by one rule, symbol_runs: each maximal run of
same-order bits in a block row is zero-padded to whole symbols of its order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsec import RobustnessProfile
from .channel import UniformMagnitude
from .constellation import SUPPORTED_ORDERS
from .errors import ConfigError, DomainError
from .numerics import q_inverse_array


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


# Reference settings: uniform robustness levels vs. a linear ramp of them.
HOMOGENEOUS_BETAS = BetaAdjusters(0.6599, 0.6003, 0.5553)
HETEROGENEOUS_BETAS = BetaAdjusters(1.0, 0.6, 0.5)


def symbol_runs(orders) -> tuple[np.ndarray, ...]:
    """Maximal same-order runs of each row of a (blocks, n_bits) order matrix.

    Returns (row, start, length, order, symbols) arrays with one entry per run,
    row by row; a run is zero-padded to `symbols` whole symbols of its order.
    """
    orders = np.atleast_2d(orders)
    first = np.ones(orders.shape, dtype=bool)
    first[:, 1:] = orders[:, 1:] != orders[:, :-1]
    row, start = np.nonzero(first)
    length = np.diff(row * orders.shape[1] + start, append=orders.size)
    order = orders[row, start]
    return row, start, length, order, -(-length // order)


@dataclass(frozen=True)
class ModPlan:
    """Per-bit modulation orders of one block row."""

    orders: tuple[int, ...]

    @property
    def padding_bits(self) -> int:
        _, _, length, order, symbols = symbol_runs([self.orders])
        return int((symbols * order - length).sum())


def threshold_table(profile: RobustnessProfile, betas: BetaAdjusters) -> np.ndarray:
    """(n_bits, 3) array of per-bit sqrt-SNR thresholds (tau_2, tau_4, tau_6).

    Above tau_M, order M meets bit i's flip-rate budget beta_M * alpha_i; the
    profile holds each alpha_i in [0, 0.5] and offset a_i in [0, 1]. Alpha 0
    gives infinite thresholds, so no order meets it and the bit rides order 2.
    The inverse tail function's argument stays below 1; one above 1/2 gives a
    negative root, clamped to 0. Raises ConfigError, naming the first
    offending bit, if a row is not ascending.
    """
    m = np.array(SUPPORTED_ORDERS)
    root = np.sqrt(1 << m)
    beta = np.array([betas.beta2, betas.beta4, betas.beta6])
    alpha, a = profile.alphas, profile.a_offsets
    arg = m * root / (4.0 * (root - 1.0)) * beta * alpha[:, None]
    t = np.sqrt(((1 << m) - 1) / 3.0) * q_inverse_array(arg) / (1.0 + a[:, None])
    t = np.maximum(t, 0.0)
    bad = np.flatnonzero(~((t[:, 0] <= t[:, 1]) & (t[:, 1] <= t[:, 2])))
    if bad.size:
        i = bad[0]
        t2, t4, t6 = t[i]
        raise ConfigError(
            f"thresholds not ascending for alpha={alpha[i]}, a={a[i]}: "
            f"tau2={t2:.6g}, tau4={t4:.6g}, tau6={t6:.6g}"
        )
    return t


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
    return ModPlan(tuple(int(o) for o in orders_from_thresholds([snr], table)[0]))


def capacity_uniform(dist: UniformMagnitude) -> float:
    """Ergodic capacity in bits per channel use for sqrt(SNR) ~ Uniform[g1, g2]."""
    g1, g2 = dist.g1, dist.g2
    num = (
        g2 * math.log1p(g2 * g2)
        - g1 * math.log1p(g1 * g1)
        + 2.0 * (math.atan(g2) - math.atan(g1))
        - 2.0 * (g2 - g1)
    )
    return num / (math.log(2.0) * (g2 - g1))
