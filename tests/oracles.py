"""Reference code shared by the tests: bit packing by matrix product, hard
decisions, the level scan of the stored points, the searchsorted trit
kernel, the two LLR routes (exact per-bit LLRs with their helpers _logsumexp
and _bit_of_word, and max-log per-axis LLRs thresholded into trits by
demod_llr) with rho_from_a, the offset's equivalent LLR threshold, the
scalar q_function and q_inverse, the scalar symbol-grouping rule, the scalar
channel draw and threshold rule, the adaptive SE, the two-branch sigmoid,
the link's exact BSEC map exact_params, the per-chunk link Monte Carlo, the
block-by-block end-to-end pass with its per-group transport, and the
whole-array evaluation under a fixed BSEC."""

import functools
import math

import numpy as np

from semlink.adaptmod import (
    BetaAdjusters,
    ModPlan,
    orders_from_thresholds,
    plan_from_thresholds,
    symbol_runs,
    threshold_table,
)
from semlink.bsec import BsecParams, RobustnessProfile, check_link_point
from semlink.channel import (
    ChannelDistribution,
    FixedSnr,
    UniformMagnitude,
    block_gains,
    draw_channels,
    equalize,
    transmit,
)
from semlink.constellation import (
    SUPPORTED_ORDERS,
    Constellation,
    build_constellation,
    check_order,
    pack_bits,
)
from semlink.demod import TRIT_ERASURE, axis_bit_pattern, build_regions, demod_robust
from semlink.errors import ConfigError, DomainError
from semlink.harness import CHUNK_ENTRIES, LinkStats
from semlink.jscc import ModelTriple, noisy_latent_sample, sample_latent_bits
from semlink.nn import mse_loss
from semlink.numerics import RandomSource, q_function_array, q_inverse_array


def unpack_words(words, m):
    """Inverse of pack_bits: integer m-bit words to a flat MSB-first bit array."""
    words = np.asarray(words, dtype=np.int64)
    shifts = np.arange(m - 1, -1, -1)
    return ((words[:, None] >> shifts) & 1).reshape(-1)


def pack_bits_matmul(bits, m):
    """pack_bits by an int64 matrix product with the MSB-first bit weights."""
    bits = np.asarray(bits)
    weights = 1 << np.arange(m - 1, -1, -1)
    return bits.reshape(-1, m).astype(np.int64, copy=False) @ weights


def nearest_words(z, c):
    """Label of the nearest constellation point for each sample.

    Distances are taken on the integer grid of d_min/2 multiples, so that
    mathematically equal distances compare equal. Ties resolve to the point
    with the smaller real part, then the smaller imaginary part.
    """
    half_d = c.d_min / 2
    grid = np.rint(c.points / half_d)
    lex = np.lexsort((grid.imag, grid.real))
    z = np.asarray(z, dtype=complex)
    dr = (z.real / half_d)[:, None] - grid.real[lex]
    di = (z.imag / half_d)[:, None] - grid.imag[lex]
    return lex[np.argmin(dr**2 + di**2, axis=1)]


def labels_by_level(c, axis):
    """Labels of all points grouped by ascending amplitude on an axis (0 real,
    1 imaginary), found by matching the stored coordinates against the level
    grid, so the result reflects the points rather than the Gray rule."""
    coords = c.points.real if axis == 0 else c.points.imag
    return [np.nonzero(np.abs(coords - amp) < c.d_min / 4)[0].tolist() for amp in c.levels]


def scanned_bit_pattern(c, bit):
    """demod.axis_bit_pattern by scanning the stored labels level by level;
    the bit must be constant within each level."""
    axis = 0 if bit < c.bits_per_axis else 1
    pattern = []
    for labels in labels_by_level(c, axis):
        values = {(w >> (c.m - 1 - bit)) & 1 for w in labels}
        assert len(values) == 1, f"bit {bit} is not an axis-aligned bit"
        pattern.append(values.pop())
    return axis, np.array(pattern)


def scanned_cell_values(c, bit):
    """Binary value of each of the bit's decision cells, ascending: one entry
    per run of equal values in scanned_bit_pattern."""
    pattern = scanned_bit_pattern(c, bit)[1]
    return pattern[np.flatnonzero(np.diff(pattern, prepend=-1))]


def classify_searchsorted(c, br, coords, a):
    """BitRegions.classify by one search: the cell of each coordinate, then its
    two bounding transitions (padded with -inf and +inf) for the erasure band.
    Cell values come from the scan of the stored points."""
    coords = np.asarray(coords, dtype=float)
    a = np.asarray(a, dtype=float)
    cell = np.searchsorted(br.transitions, coords, side="left")
    out = scanned_cell_values(c, br.bit)[cell].astype(float)
    if np.any(a > 0):
        half_w = a * br.d_min / 2.0
        ends = np.concatenate(([-np.inf], br.transitions, [np.inf]))
        erase = (a > 0) & ((coords <= ends[cell] + half_w)
                           | (coords >= ends[cell + 1] - half_w))
        out[erase] = TRIT_ERASURE
    return out


def _logsumexp(v: np.ndarray) -> float:
    mx = np.max(v)
    return float(mx + np.log(np.sum(np.exp(v - mx))))


def _bit_of_word(words: np.ndarray, bit: int, m: int) -> np.ndarray:
    return (words >> (m - 1 - bit)) & 1


def llr_exact(y: complex, c: Constellation, snr: float) -> np.ndarray:
    """Exact LLRs ln P(bit=0|y)/P(bit=1|y) for all m bits, uniform priors.

    Accumulated in the log domain so high-SNR evaluations do not underflow.
    """
    if not (snr > 0):
        raise DomainError(f"snr must be positive, got {snr}")
    words = np.arange(1 << c.m)
    neg_metric = -snr * np.abs(y - c.points) ** 2
    out = np.empty(c.m)
    for bit in range(c.m):
        b = _bit_of_word(words, bit, c.m)
        out[bit] = _logsumexp(neg_metric[b == 0]) - _logsumexp(neg_metric[b == 1])
    return out


def llr_maxlog(y, c: Constellation, snr: float) -> np.ndarray:
    """Max-log LLRs of all m bits, each from its own axis's coordinate.

    y may have any shape; the result has shape (*y.shape, m).
    """
    if not (snr > 0):
        raise DomainError(f"snr must be positive, got {snr}")
    y = np.asarray(y, dtype=complex)
    out = np.empty((*y.shape, c.m))
    for bit in range(c.m):
        axis, pattern = axis_bit_pattern(c, bit)
        coords = y.real if axis == 0 else y.imag
        d2 = (coords[..., None] - c.levels) ** 2
        out[..., bit] = snr * (np.min(d2[..., pattern == 1], axis=-1)
                               - np.min(d2[..., pattern == 0], axis=-1))
    return out


def demod_llr(y: np.ndarray, c: Constellation, snr: float, rho) -> np.ndarray:
    """Threshold max-log per-axis LLRs into trits.

    rho may be a scalar or a per-bit array of nonnegative thresholds; the LLR
    magnitude at or below rho erases to 0.5.
    """
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (c.m,))
    if not np.all(rho >= 0):
        raise DomainError("thresholds must be nonnegative")
    llr = llr_maxlog(np.atleast_1d(y), c, snr)
    return np.where(llr > rho, 0.0, np.where(llr < -rho, 1.0, TRIT_ERASURE)).reshape(-1)


def rho_from_a(a: float, order: int, snr: float) -> float:
    """LLR threshold equivalent to a boundary offset: rho = 6 snr a / (2^m - 1)."""
    m = check_order(order)
    if not (snr > 0):
        raise DomainError(f"snr must be positive, got {snr}")
    if not (0.0 <= a <= 1.0):
        raise DomainError(f"boundary offset a must lie in [0, 1], got {a}")
    return 6.0 * snr * a / ((1 << m) - 1)


def plan_groups(orders):
    """Maximal same-order runs of one row of orders as (order, bit indices) pairs."""
    groups = []
    start = 0
    for i in range(1, len(orders) + 1):
        if i == len(orders) or orders[i] != orders[start]:
            groups.append((orders[start], tuple(range(start, i))))
            start = i
    return tuple(groups)


def plan_symbol_count(orders):
    """Symbols of one row of orders: each plan_groups run padded to whole symbols."""
    return sum(-(-len(idxs) // m) for m, idxs in plan_groups(orders))


def draw_channel_scalar(dist: ChannelDistribution, rng: RandomSource) -> complex:
    """h of one block of channel.draw_channels by scalar uniform draws: |h|
    (for UniformMagnitude), then the phase, and h = mag * complex(cos, sin)."""
    if isinstance(dist, FixedSnr):
        mag = math.sqrt(dist.snr)
    elif isinstance(dist, UniformMagnitude):
        mag = rng.uniform(dist.g1, dist.g2)
    else:
        raise DomainError(f"unknown channel distribution {dist!r}")
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return mag * complex(math.cos(phase), math.sin(phase))


def q_function(x: float) -> float:
    """Upper-tail probability P(Z > x) for a standard normal Z."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"q_function requires a finite argument, got {x!r}")
    return float(q_function_array(x))


def q_inverse(p: float) -> float:
    """Inverse of q_function on (0, 1)."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"q_inverse requires 0 < p < 1, got {p!r}")
    return float(q_inverse_array(p)) + 0.0  # erfcinv gives -0.0 at p = 1/2


def beta_for(order: int, betas: BetaAdjusters) -> float:
    """The beta factor of one order."""
    return {2: betas.beta2, 4: betas.beta4, 6: betas.beta6}[check_order(order)]


def tau_scalar(order: int, alpha: float, a: float, betas: BetaAdjusters) -> float:
    """One order's column of adaptmod.threshold_table for one bit, in Python
    floats, before the ascending check; alpha and a lie in a profile's ranges."""
    m = check_order(order)
    root = math.sqrt(1 << m)
    arg = m * root / (4.0 * (root - 1.0)) * beta_for(m, betas) * alpha
    q_inv = q_inverse(arg) if arg > 0 else math.inf  # a zero budget: no order meets it
    t = math.sqrt(((1 << m) - 1) / 3.0) * q_inv / (1.0 + a)
    return max(t, 0.0)


def thresholds_scalar(alpha: float, a: float, betas: BetaAdjusters) -> tuple[float, float, float]:
    """One row of adaptmod.threshold_table through tau_scalar."""
    t = tuple(tau_scalar(m, alpha, a, betas) for m in SUPPORTED_ORDERS)
    if not (t[0] <= t[1] <= t[2]):
        raise ConfigError(
            f"thresholds not ascending for alpha={alpha}, a={a}: "
            f"tau2={t[0]:.6g}, tau4={t[1]:.6g}, tau6={t[2]:.6g}"
        )
    return t


def threshold_table_scalar(profile: RobustnessProfile, betas: BetaAdjusters) -> np.ndarray:
    """adaptmod.threshold_table one bit at a time through thresholds_scalar."""
    return np.array([thresholds_scalar(float(alpha), float(a), betas)
                     for alpha, a in zip(profile.alphas, profile.a_offsets)])


def mean_adaptive_se(channel_dist: ChannelDistribution, profile: RobustnessProfile,
                     betas: BetaAdjusters, n_draws: int, rng: RandomSource) -> float:
    """Session spectral efficiency over n_draws channel blocks (bits/symbols)."""
    g2, _ = block_gains(draw_channels(channel_dist, n_draws, rng))
    orders = orders_from_thresholds(g2, threshold_table(profile, betas))
    *_, symbols = symbol_runs(orders)
    return len(profile) * n_draws / int(symbols.sum())


def sigmoid_two_branch(z: np.ndarray) -> np.ndarray:
    """The logistic function by boolean indexing: 1/(1+e^-z) where z >= 0, else e^z/(1+e^z)."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def noisy_latent_law(f, mu, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Marginal law of the decoder input: P(0), P(0.5), P(1) elementwise."""
    f = np.asarray(f, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    keep = 1.0 - d - mu
    p_one = mu * (1.0 - f) + keep * f
    p_zero = mu * f + keep * (1.0 - f)
    return p_zero, d * np.ones_like(p_zero), p_one


def noisy_latent_sample_by_law(f, mu, d, rng: RandomSource) -> np.ndarray:
    """jscc.noisy_latent_sample as nested selects over the full three-point law."""
    _, p_half, p_one = noisy_latent_law(f, mu, d)
    u = rng.random(np.shape(p_one))
    return np.where(u < p_half, TRIT_ERASURE, np.where(u < p_half + p_one, 1.0, 0.0))


def exact_params(order: int, snr: float, a: float) -> BsecParams:
    """Exact BSEC triple of the simulated link at (order, snr, boundary offset).

    Each bit's axis coordinate is its level plus Gaussian noise of standard
    deviation 1/sqrt(2 snr), the per-axis share of the equalized noise. The
    noise mass of every decision interval of build_regions is averaged over
    the bit's levels and over the m bits of a symbol: erasure intervals add to
    d, binary intervals whose output differs from the sent bit add to mu.
    """
    m = check_link_point(order, snr, a)
    c = build_constellation(m)
    sigma = 1.0 / math.sqrt(2.0 * snr)
    mu = d = 0.0
    for br in build_regions(c, a).bits:
        out = np.array([iv.output for iv in br.intervals])
        lo = np.array([iv.lower for iv in br.intervals])
        hi = np.array([iv.upper for iv in br.intervals])
        for level, sent in zip(c.levels, axis_bit_pattern(c, br.bit)[1]):
            z_lo, z_hi = (lo - level) / sigma, (hi - level) / sigma
            # take each interval's mass from the tail it lies in, for precision
            mass = np.where(z_hi <= 0, q_function_array(-z_hi) - q_function_array(-z_lo),
                            q_function_array(z_lo) - q_function_array(z_hi))
            d += mass[out == TRIT_ERASURE].sum()
            mu += mass[out == 1.0 - sent].sum()
    n = m * c.levels.size
    mu, d = float(mu / n), float(d / n)
    return BsecParams(mu=mu, d=d, r=1.0 - mu - d)


def link_montecarlo_per_chunk(order: int, snr_db: float, a: float, n_bits: int,
                              rng: RandomSource) -> LinkStats:
    """harness.run_link_montecarlo without _carry: per chunk of CHUNK_ENTRIES
    // order symbols, one bit draw, one transmit and one equalize call over the
    chunk's whole arrays, and one demodulation at offset a."""
    c = build_constellation(order)
    regions = build_regions(c, a)
    n_sym = -(-n_bits // c.m)
    chunk = CHUNK_ENTRIES // c.m
    bit_rng, ch_rng, noise_rng = rng.split(3)
    h = draw_channel_scalar(FixedSnr(snr=10.0 ** (snr_db / 10.0)), ch_rng)
    erasures = corrects = 0
    for start in range(0, n_sym, chunk):
        bits = bit_rng.bits(min(chunk, n_sym - start) * c.m)
        x = c.points[pack_bits(bits, c.m)]
        trits = demod_robust(equalize(transmit(x, h, noise_rng), h), regions, a)
        erasures += int(np.count_nonzero(trits == TRIT_ERASURE))
        corrects += int(np.count_nonzero(trits == bits))
    n = n_sym * c.m
    return LinkStats(n_bits=n, flips=n - erasures - corrects, erasures=erasures,
                     corrects=corrects)


@functools.lru_cache(maxsize=3)
def _regions_at_zero(order: int):
    """build_regions of one order at a = 0, built once: the per-block pass
    calls the per-group transport thousands of times."""
    return build_regions(build_constellation(order), 0.0)


def transport_block_per_group(bits: np.ndarray, plan: ModPlan, a_offsets: np.ndarray,
                              h: complex, rng: RandomSource):
    """harness.transport_block one plan_groups group at a time: pad, transmit,
    equalize; the symbol count is summed over the padded groups."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.int64))
    n_rows, n_bits = bits.shape
    if n_bits != len(plan.orders):
        raise ConfigError(f"plan covers {len(plan.orders)} bits, not {n_bits}")
    out = np.empty((n_rows, n_bits))
    symbols = 0
    for order, group_idxs in plan_groups(plan.orders):
        idxs = np.asarray(group_idxs)
        c = build_constellation(order)
        pad = (-idxs.size) % order
        symbols += (idxs.size + pad) // order
        padded = np.pad(bits[:, idxs], ((0, 0), (0, pad)))
        words = pack_bits(padded.reshape(-1), order)
        y_eq = equalize(transmit(c.points[words], h, rng), h)
        # padding slots carry a = 0; their trits are dropped below
        a_slots = np.pad(a_offsets[idxs], (0, pad)).reshape(-1, order)
        trits = demod_robust(y_eq.reshape(n_rows, -1), _regions_at_zero(order), a_slots)
        out[:, idxs] = trits.reshape(n_rows, -1)[:, : idxs.size]
    return out, symbols


def run_end_to_end_per_block(models: ModelTriple, channel_dist: ChannelDistribution,
                             profile: RobustnessProfile, betas: BetaAdjusters,
                             adaptive: bool, dataset, rng: RandomSource,
                             images_per_block: int = 10, fixed_order: int = 2) -> dict:
    """harness.run_end_to_end one channel block at a time: a scalar channel
    draw, a plan from the scalar threshold table, then
    transport_block_per_group, which shares no code with harness._carry."""
    if images_per_block < 1:
        raise ConfigError(f"images_per_block must be >= 1, got {images_per_block}")
    n_bits = len(profile)
    if models.encoder.out_dim != n_bits:
        raise ConfigError(
            f"encoder emits {models.encoder.out_dim} bits, profile has {n_bits}"
        )
    x = np.asarray(dataset.features, dtype=np.float64)
    y = np.asarray(dataset.labels, dtype=np.int64)
    table = threshold_table_scalar(profile, betas) if adaptive else None
    static_plan = None if adaptive else ModPlan((check_order(fixed_order),) * n_bits)
    ch_rng, bit_rng, noise_rng = rng.split(3)

    correct = 0
    sq_err_sum = 0.0
    total_symbols = 0
    bit_sum = 0
    flips = erasures = 0
    for start in range(0, len(x), images_per_block):
        xb = x[start:start + images_per_block]
        yb = y[start:start + images_per_block]
        h = draw_channel_scalar(channel_dist, ch_rng)
        plan = plan_from_thresholds(abs(h) ** 2, table) if adaptive else static_plan
        f = models.encoder.forward(xb)
        bits = sample_latent_bits(f, bit_rng).astype(np.int64)
        trits, symbols_per_image = transport_block_per_group(
            bits, plan, profile.a_offsets, h, noise_rng
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


def eval_under_bsec_whole(models: ModelTriple, dataset, mu: float, d: float,
                          rng: RandomSource) -> tuple[float, float]:
    """jscc.eval_under_bsec as one pass over the whole dataset: every forward,
    the uniforms and the squared errors as full (rows, dim) arrays."""
    if not (0.0 <= mu <= 1.0 and 0.0 <= d <= 1.0 and mu + d <= 1.0):
        raise DomainError(f"invalid channel parameters mu={mu}, d={d}")
    x = np.asarray(dataset.features, dtype=np.float64)
    y = np.asarray(dataset.labels, dtype=np.int64)
    f = models.encoder.forward(x[None])[0]
    b_hat = noisy_latent_sample(f, np.full_like(f, mu), np.full_like(f, d), rng)
    u_hat = models.decoder.forward(b_hat[None])[0]
    logits = models.classifier.forward(u_hat[None])[0]
    acc = float(np.mean(np.argmax(logits, axis=1) == y))
    mse, _ = mse_loss(x, u_hat)
    return acc, mse
