"""The three benchmark workloads: set-up, one operation at a time, checks.

Every workload is a closed loop of one caller: an operation starts when the
previous one has returned. Operations come in fixed cycles, and a cycle repeats
exactly the same calls with the same seeds, so each repeat must reproduce the
digest of the first cycle. Inputs and seeds derive from the workload seed only.

Throughput is normalized to machine speed. On a shared host the speed of the
same code swings by up to 2.5x within a minute, so after every operation the
workload times a fixed calibration loop that does the same kind of work
without calling semlink (small dense products for training, long vectors for
the link, many tiny array calls for evaluation). An operation's normalized
time is its wall time scaled by calibration rate / nominal calibration rate,
where the rate is the mean of the calibrations just before and after it.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import bdtr, bdtrc

from semlink import datasets, harness, jscc
from semlink.adaptmod import HETEROGENEOUS_BETAS, threshold_table
from semlink.bsec import RobustnessProfile, analytic_params
from semlink.channel import UniformMagnitude
from semlink.constellation import build_constellation
from semlink.demod import build_regions
from semlink.numerics import RandomSource

# two-sided normal tail beyond 4 sigma, used as an exact binomial test level
FOUR_SIGMA_TAIL = math.erfc(4.0 / math.sqrt(2.0))

# calibration inputs, fixed so that the loops do the same work on every run
_CAL_RNG = np.random.Generator(np.random.Philox(1))
_CAL_BATCH = _CAL_RNG.random((256, 64))
_CAL_WEIGHT = _CAL_RNG.random((64, 64))
_CAL_EDGES = np.sort(_CAL_RNG.standard_normal(16))
_CAL_SMALL = _CAL_RNG.random(10)


def stream(seed: int, *key: int) -> RandomSource:
    """An independent random stream for one use of the workload seed."""
    return RandomSource(np.random.SeedSequence(seed, spawn_key=key))


def digest_of(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()[:16]


@dataclass
class Op:
    """One completed operation: timing, work done, result digest, problems."""

    cycle: int
    index: int
    seconds: float
    calibration: float   # calibration loops per second around this operation
    items: int
    digest: str
    result: object       # kept for the first cycle only
    errors: list[str] = field(default_factory=list)


class Workload:
    """Shared loop logic; subclasses define set-up, operations and checks."""

    name = ""
    rate = ("", "", 1.0)  # printed name, unit and scale of items_per_s
    ops_per_cycle = 1
    # calibration loops per second on a quiet 2-vCPU x86-64 host; it only sets
    # the scale of items_per_s and must stay fixed for results to be comparable
    nominal_calibration = 1.0

    def __init__(self, seed: int):
        self.seed = seed
        self.first_digests: dict[int, str] = {}
        self.last_calibration: float | None = None

    def calibration_loop(self) -> None:
        """A fixed amount of semlink-free work shaped like the workload's."""
        raise NotImplementedError

    def calibrate(self) -> float:
        """Calibration loops per second right now."""
        start = time.perf_counter()
        self.calibration_loop()
        return 1.0 / (time.perf_counter() - start)

    def setup(self) -> str:
        """Build inputs and tables; returns a digest of what was built."""
        raise NotImplementedError

    def call(self, index: int) -> tuple[int, object]:
        """Run operation `index` of a cycle; returns (items, result)."""
        raise NotImplementedError

    def check(self, index: int, result) -> tuple[str, list[str]]:
        """Digest and per-operation problems of one result."""
        raise NotImplementedError

    def run(self, cycle: int, index: int) -> Op:
        before = self.last_calibration or self.calibrate()
        start = time.perf_counter()
        items, result = self.call(index)
        seconds = time.perf_counter() - start
        self.last_calibration = self.calibrate()
        calibration = (before + self.last_calibration) / 2.0
        digest, errors = self.check(index, result)
        first = self.first_digests.setdefault(index, digest)
        if digest != first:
            errors.append(f"op {index} digest {digest} differs from first cycle {first}")
        # only the first cycle's results are summarized; dropping the rest keeps
        # peak memory independent of how many cycles fit in the run
        return Op(cycle, index, seconds, calibration, items, digest,
                  result if cycle == 0 else None, errors)

    def summarize(self, ops: list[Op]) -> tuple[dict, list[str]]:
        """Workload quality figures and report lines; may add errors to ops."""
        raise NotImplementedError

    @staticmethod
    def cycles(ops: list[Op]) -> list[list[Op]]:
        by_cycle: dict[int, list[Op]] = {}
        for op in ops:
            by_cycle.setdefault(op.cycle, []).append(op)
        return list(by_cycle.values())

    def throughput(self, ops: list[Op], normalized: bool = True) -> float:
        """Median over complete cycles of items per (normalized) second."""
        def seconds(op):
            return op.seconds * op.calibration / self.nominal_calibration if normalized \
                else op.seconds
        return statistics.median(sum(op.items for op in c) / sum(seconds(op) for op in c)
                                 for c in self.cycles(ops))


def _train_config(profile: RobustnessProfile, seed: int) -> jscc.TrainingConfig:
    return jscc.TrainingConfig(profile=profile, epochs=100, warmup_epochs=5,
                               batch_size=256, seed=seed)


def _params(models: jscc.ModelTriple) -> list[np.ndarray]:
    return [p for model in (models.encoder, models.decoder, models.classifier)
            for layer in model.layers for p in (layer.weight, layer.bias)]


def _train_digest(result: jscc.TrainResult) -> str:
    metrics = np.array([[m.epoch, m.loss, m.mse, m.ce, m.accuracy] for m in result.metrics])
    return digest_of(metrics, *_params(result.models))


def _train_errors(result: jscc.TrainResult, epochs: int) -> list[str]:
    if len(result.metrics) != epochs:
        return [f"{len(result.metrics)} epoch records for {epochs} epochs"]
    if not all(math.isfinite(m.loss) and 0.0 <= m.accuracy <= 1.0 for m in result.metrics):
        return ["non-finite loss or accuracy outside [0, 1]"]
    return []


class TrainRobust(Workload):
    """Criterion-9 training: robust and warm-up-only baseline runs alternate."""

    name = "train-robust"
    rate = ("train_examples_per_s", "examples/s", 1.0)
    ops_per_cycle = 2
    nominal_calibration = 25.0

    def calibration_loop(self):
        # batch-256 dense products and ReLU, the shape of the nn layers
        for _ in range(400):
            z = np.maximum(_CAL_BATCH @ _CAL_WEIGHT, 0.0)
            _CAL_WEIGHT.T @ z.T

    def setup(self) -> str:
        self.dataset = datasets.synth_dataset(10, 64, 200, 2.0, stream(self.seed, 0))
        self.config = _train_config(RobustnessProfile.homogeneous(64, 0.4, a=0.5), self.seed)
        self.configs = (self.config, jscc.warmup_only_config(self.config))
        self.accuracy = [0.0, 0.0]
        return digest_of(self.dataset.features, self.dataset.labels)

    def call(self, index):
        config = self.configs[index]
        result = jscc.train(self.dataset, config)
        return len(self.dataset) * config.epochs, result

    def check(self, index, result):
        errors = _train_errors(result, self.config.epochs)
        # accuracy under a fixed BSEC with mu = 0.2, d = 0, as in criterion 9
        self.accuracy[index], _ = jscc.eval_under_bsec(result.models, self.dataset, 0.2, 0.0,
                                                       stream(self.seed, 3, index))
        return digest_of(_train_digest(result), self.accuracy[index]), errors

    def summarize(self, ops):
        acc_robust, acc_base = self.accuracy
        gap = acc_robust - acc_base
        lines = [f"criterion 9: robust {acc_robust:.4f} baseline {acc_base:.4f} "
                 f"gap {gap:.4f} (need >= 0.10) over training seed {self.seed}"]
        if gap < 0.10:
            for op in ops:
                op.errors.append(f"criterion 9 gap {gap:.4f} < 0.10")
        return {"accuracy": acc_robust}, lines


LINK_ORDERS = (2, 4, 6)
LINK_OFFSETS = (0.0, 0.5)
LINK_SNR_DB = (0.0, 3.0, 6.0, 9.0, 12.0)
LINK_BITS = 10**6
LINK_SWEEP = [(o, a, s) for o in LINK_ORDERS for a in LINK_OFFSETS for s in LINK_SNR_DB]


def _binomial_tail(k: int, n: int, p: float) -> float:
    """Two-sided exact binomial tail probability of observing k of n at rate p."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    lower = float(bdtr(k, n, p))
    upper = float(bdtrc(k - 1, n, p)) if k > 0 else 1.0
    return min(1.0, 2.0 * min(lower, upper))


def _z(k: int, n: int, p: float) -> float:
    sd = math.sqrt(p * (1.0 - p) / n)
    return (k / n - p) / sd if sd > 0 else (0.0 if k == 0 else math.inf)


class LinkMonteCarlo(Workload):
    """Link Monte Carlo at 10^6 bits per call over orders, offsets and SNRs."""

    name = "link-mc"
    rate = ("link_mbit_per_s", "Mbit/s", 1e-6)
    ops_per_cycle = len(LINK_SWEEP)
    nominal_calibration = 90.0

    def calibration_loop(self):
        # Gaussian draws, table lookups and compares over long vectors
        gen = np.random.Generator(np.random.Philox(0))
        for _ in range(2):
            v = gen.standard_normal(100_000)
            np.searchsorted(_CAL_EDGES, v, side="left")
            np.count_nonzero(v > 0.5)

    def setup(self) -> str:
        parts = []
        for order in LINK_ORDERS:
            c = build_constellation(order)
            for a in LINK_OFFSETS:
                parts += [br.transitions for br in build_regions(c, a).bits]
        self.expected = [analytic_params(o, 10 ** (s / 10), a) for o, a, s in LINK_SWEEP]
        parts.append([(p.mu, p.d) for p in self.expected])
        return digest_of(*parts)

    def call(self, index):
        order, a, snr_db = LINK_SWEEP[index]
        stats = harness.run_link_montecarlo(order, snr_db, a, LINK_BITS,
                                            stream(self.seed, 2, index))
        return stats.n_bits, stats

    def check(self, index, stats):
        order, a, snr_db = LINK_SWEEP[index]
        errors = []
        n_sym = -(-LINK_BITS // order)
        if stats.n_bits != n_sym * order or (
                stats.flips + stats.erasures + stats.corrects != stats.n_bits):
            errors.append(f"inconsistent counts {stats}")
        p = self.expected[index]
        if order == 2:
            # the closed form is exact for 4-QAM: compare at 4 sigma
            for what, k, prob in (("flip", stats.flips, p.mu),
                                  ("erasure", stats.erasures, p.d)):
                if _binomial_tail(k, stats.n_bits, prob) < FOUR_SIGMA_TAIL:
                    errors.append(f"order 2 a={a} {snr_db} dB {what} rate "
                                  f"{k / stats.n_bits:.6g} vs {prob:.6g}")
        elif order == 4 and 1e-3 <= p.mu <= 0.2:
            # criterion 4's own band for the nearest-boundary closed form
            rel = abs(stats.flip_rate - p.mu) / p.mu
            if rel > 0.15:
                errors.append(f"order 4 a={a} {snr_db} dB flip rel error {rel:.3f} > 0.15")
        return digest_of(order, a, snr_db, stats.n_bits, stats.flips,
                         stats.erasures, stats.corrects), errors

    def summarize(self, ops):
        lines = ["criterion 4 (order 2: exact binomial test at 4 sigma; order 4: "
                 "rel <= 0.15 where 1e-3 <= mu <= 0.2; order 6: reported only)"]
        for op in ops[: self.ops_per_cycle]:
            order, a, snr_db = LINK_SWEEP[op.index]
            s, p = op.result, self.expected[op.index]
            rel = abs(s.flip_rate - p.mu) / p.mu if p.mu > 0 else 0.0
            lines.append(
                f"  order {order} a={a} {snr_db:4.1f} dB  flip {s.flip_rate:.5f} vs {p.mu:.5f} "
                f"(z {_z(s.flips, s.n_bits, p.mu):+.1f}, rel {rel:.3f})  erasure "
                f"{s.erasure_rate:.5f} vs {p.d:.5f} (z {_z(s.erasures, s.n_bits, p.d):+.1f})")
        first = ops[: self.ops_per_cycle]
        correct = sum(op.result.corrects for op in first) / sum(op.result.n_bits for op in first)
        return {"accuracy": correct}, lines


EVAL_PASSES = 20
EVAL_BITS = 64


class EvalAdaptive(Workload):
    """Adaptive end-to-end evaluation over |h| ~ U[0.37, 2.5] on the README model."""

    name = "eval-adaptive"
    rate = ("eval_images_per_s", "images/s", 1.0)
    ops_per_cycle = EVAL_PASSES
    nominal_calibration = 210.0

    def calibration_loop(self):
        # many calls on arrays of ten, with Python work in between
        for _ in range(1000):
            z = np.concatenate([_CAL_SMALL, _CAL_SMALL])
            np.searchsorted(_CAL_EDGES, _CAL_SMALL, side="left")
            (z * 0.5).reshape(4, 5).sum(axis=1)
            math.sqrt(float(z[0]) + 2.0)

    def setup(self) -> str:
        self.dataset = datasets.synth_dataset(10, 64, 200, 2.0, stream(self.seed, 0))
        self.profile = RobustnessProfile.linear_ramp(EVAL_BITS, 0.29, 0.45, a=0.5)
        table = threshold_table(self.profile, HETEROGENEOUS_BETAS)
        self.models = jscc.train(self.dataset, _train_config(self.profile, self.seed)).models
        return digest_of(self.dataset.features, table, *_params(self.models))

    def call(self, index):
        out = harness.run_end_to_end(self.models, UniformMagnitude(0.37, 2.5), self.profile,
                                     HETEROGENEOUS_BETAS, True, self.dataset,
                                     stream(self.seed, 1, index), images_per_block=10)
        return out["n_images"], out

    def check(self, index, out):
        errors = []
        if out["n_images"] != len(self.dataset):
            errors.append(f"evaluated {out['n_images']} of {len(self.dataset)} images")
        if not all(0.0 <= out[k] <= 1.0 for k in
                   ("accuracy", "flip_rate", "erasure_rate", "bit_bias")):
            errors.append(f"rate outside [0, 1]: {out}")
        if not 2.0 <= out["spectral_efficiency"] <= 6.0:
            errors.append(f"spectral efficiency {out['spectral_efficiency']} outside [2, 6]")
        return digest_of(sorted(out.items())), errors

    def summarize(self, ops):
        first = ops[: self.ops_per_cycle]
        bits = sum(op.result["n_images"] for op in first) * EVAL_BITS
        symbols = sum(round(op.result["n_images"] * EVAL_BITS / op.result["spectral_efficiency"])
                      for op in first)
        se = bits / symbols
        accuracy = statistics.fmean(op.result["accuracy"] for op in first)
        lines = [f"criterion 7: session spectral efficiency {se:.4f} bits/symbol over "
                 f"{len(first) * len(self.dataset) // 10} channel blocks (need 3.6..4.0)"]
        if not 3.6 <= se <= 4.0:
            for op in ops:
                op.errors.append(f"criterion 7 spectral efficiency {se:.4f} outside [3.6, 4.0]")
        return {"accuracy": accuracy, "spectral_efficiency": se}, lines


WORKLOADS = {w.name: w for w in (TrainRobust, LinkMonteCarlo, EvalAdaptive)}
