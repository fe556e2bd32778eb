"""End-to-end training of the encoder/decoder/classifier over sampled BSECs.

The encoder emits per-bit Bernoulli probabilities (sigmoid output layer). For
each training example, per-bit flip probabilities are drawn uniformly up to
the profile's robustness levels, matched erasure probabilities are derived in
closed form, and the decoder input is drawn in one step from the marginal law
over {0, 0.5, 1}. The sampling stage is non-differentiable, so gradients at
the decoder input pass through to the encoder's probabilities unchanged.
A warm-up period trains with a noiseless latent channel first.

The reconstruction term is plain squared error. Viewing the decoder as
Gaussian with some fixed isotropic variance would only wrap that error in
affine constants, which cannot move the optimum, so no variance parameter
exists at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bsec import RobustnessProfile, erasure_from_mu_array, sample_mu_matrix
from .demod import TRIT_ERASURE
from .errors import ConfigError, DomainError, TrainingError
from .nn import AdamState, DenseModel, ce_loss, init_model, mse_loss
from .numerics import RandomSource


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters and schedule for robust training."""

    profile: RobustnessProfile
    epochs: int = 30
    warmup_epochs: int = 5
    batch_size: int = 256
    learning_rate: float = 0.001
    loss_weight: float = 0.2  # weight of the reconstruction term
    seed: int = 0
    enc_hidden: tuple[int, ...] = (64, 32)
    dec_hidden: tuple[int, ...] = (32, 64)
    clf_hidden: tuple[int, ...] = (64, 32)

    def __post_init__(self):
        if not (0 <= self.warmup_epochs <= self.epochs):
            raise ConfigError(
                f"warmup_epochs={self.warmup_epochs} must lie in [0, epochs={self.epochs}]"
            )
        if not (self.loss_weight >= 0):
            raise ConfigError(f"loss weight must be >= 0, got {self.loss_weight}")
        if not (0 < self.learning_rate < math.inf):
            raise ConfigError(
                f"learning rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size >= 1 and epochs >= 0 required")

    @property
    def latent_bits(self) -> int:
        return len(self.profile)


@dataclass(frozen=True)
class ModelTriple:
    encoder: DenseModel
    decoder: DenseModel
    classifier: DenseModel


@dataclass
class EpochMetrics:
    epoch: int
    loss: float
    mse: float
    ce: float
    accuracy: float


@dataclass
class TrainResult:
    models: ModelTriple
    metrics: list[EpochMetrics] = field(default_factory=list)


def build_models(input_dim: int, n_classes: int, config: TrainingConfig,
                 rng: RandomSource) -> ModelTriple:
    """Default dense stacks; the encoder ends in a sigmoid, classifier in logits."""
    n = config.latent_bits
    enc_rng, dec_rng, clf_rng = rng.split(3)
    enc = init_model(
        [input_dim, *config.enc_hidden, n],
        ["relu"] * len(config.enc_hidden) + ["sigmoid"],
        enc_rng,
    )
    dec = init_model(
        [n, *config.dec_hidden, input_dim],
        ["relu"] * len(config.dec_hidden) + ["identity"],
        dec_rng,
    )
    clf = init_model(
        [input_dim, *config.clf_hidden, n_classes],
        ["relu"] * len(config.clf_hidden) + ["identity"],
        clf_rng,
    )
    return ModelTriple(enc, dec, clf)


def sample_latent_bits(f: np.ndarray, rng: RandomSource) -> np.ndarray:
    """Independent Bernoulli draws from per-bit probabilities."""
    f = np.asarray(f, dtype=np.float64)
    return (rng.random(f.shape) < f).astype(np.float64)


def noisy_latent_law(f, mu, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Marginal law of the decoder input: P(0), P(0.5), P(1) elementwise."""
    f = np.asarray(f, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    keep = 1.0 - d - mu
    p_one = mu * (1.0 - f) + keep * f
    p_zero = mu * f + keep * (1.0 - f)
    return p_zero, d * np.ones_like(p_zero), p_one


def noisy_latent_sample(f, mu, d, rng: RandomSource) -> np.ndarray:
    """One draw per entry from the three-point law over {0, 0.5, 1}.

    Marginalizes the Bernoulli quantization and the erasure channel in a
    single step.
    """
    _, p_half, p_one = noisy_latent_law(f, mu, d)
    u = rng.random(np.shape(p_one))
    return np.where(u < p_half, TRIT_ERASURE, np.where(u < p_half + p_one, 1.0, 0.0))


def backward_with_bypass(models: ModelTriple, u: np.ndarray, labels: np.ndarray,
                         b_hat: np.ndarray, loss_weight: float
                         ) -> tuple[float, float, float, np.ndarray]:
    """Forward the decoder/classifier on b_hat and write all gradient buffers.

    The caller must already have run the encoder forward on u (its cache feeds
    the bypass). Decoder and classifier gradients are exact backpropagation;
    the encoder receives the loss gradient at the decoder input unchanged.
    Returns (loss, mse, ce, logits).
    """
    enc, dec, clf = models.encoder, models.decoder, models.classifier
    u_hat = dec.forward(b_hat)
    logits = clf.forward(u_hat)
    ce, grad_logits = ce_loss(logits, labels)
    mse, grad_uhat_mse = mse_loss(u, u_hat)
    loss = loss_weight * mse + ce

    grad_uhat = clf.backward(grad_logits) + loss_weight * grad_uhat_mse
    grad_bhat = dec.backward(grad_uhat)
    enc.backward(grad_bhat)  # gradient w.r.t. probabilities := gradient w.r.t. b_hat
    return loss, mse, ce, logits


def train(dataset, config: TrainingConfig, rng: RandomSource | None = None) -> TrainResult:
    """Warm-up then robust training; fully deterministic given config.seed."""
    if len(dataset.features) == 0:
        raise ConfigError("dataset is empty")
    if rng is None:
        rng = RandomSource(config.seed)
    model_rng, shuffle_rng, noise_rng = rng.split(3)

    x = np.asarray(dataset.features, dtype=np.float64)
    y = np.asarray(dataset.labels, dtype=np.int64)
    models = build_models(x.shape[1], dataset.n_classes, config, model_rng)
    opt = AdamState([models.encoder, models.decoder, models.classifier])
    alphas = config.profile.alphas
    result = TrainResult(models=models)

    # a diverging run overflows before its loss turns non-finite; that check
    # below is the error path, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = shuffle_rng.permutation(len(x))
            warm = epoch < config.warmup_epochs
            tot_loss = tot_mse = tot_ce = 0.0
            correct = 0
            n_batches = 0
            for start in range(0, len(x), config.batch_size):
                idx = order[start:start + config.batch_size]
                xb, yb = x[idx], y[idx]
                f = models.encoder.forward(xb)
                # warm-up scales the same draws by zero, keeping the stream
                # aligned with a zero-robustness profile run
                mu = sample_mu_matrix(np.zeros_like(alphas) if warm else alphas,
                                      len(xb), noise_rng)
                d = erasure_from_mu_array(mu)
                b_hat = noisy_latent_sample(f, mu, d, noise_rng)
                loss, mse, ce, logits = backward_with_bypass(models, xb, yb, b_hat,
                                                             config.loss_weight)
                if not math.isfinite(loss):
                    raise TrainingError(f"loss became non-finite at epoch {epoch}")
                opt.step(config.learning_rate)

                correct += int(np.sum(np.argmax(logits, axis=1) == yb))
                tot_loss += loss
                tot_mse += mse
                tot_ce += ce
                n_batches += 1
            result.metrics.append(EpochMetrics(
                epoch=epoch,
                loss=tot_loss / n_batches,
                mse=tot_mse / n_batches,
                ce=tot_ce / n_batches,
                accuracy=correct / len(x),
            ))
    return result


def eval_under_bsec(models: ModelTriple, dataset, mu: float, d: float,
                    rng: RandomSource) -> tuple[float, float]:
    """(accuracy, mse) with latent bits passed through a fixed BSEC."""
    if not (0.0 <= mu <= 1.0 and 0.0 <= d <= 1.0 and mu + d <= 1.0):
        raise DomainError(f"invalid channel parameters mu={mu}, d={d}")
    x = np.asarray(dataset.features, dtype=np.float64)
    y = np.asarray(dataset.labels, dtype=np.int64)
    f = models.encoder.forward(x)
    b_hat = noisy_latent_sample(f, np.full_like(f, mu), np.full_like(f, d), rng)
    u_hat = models.decoder.forward(b_hat)
    logits = models.classifier.forward(u_hat)
    acc = float(np.mean(np.argmax(logits, axis=1) == y))
    mse, _ = mse_loss(x, u_hat)
    return acc, mse


def warmup_only_config(config: TrainingConfig) -> TrainingConfig:
    """Same schedule with a zero-robustness profile (noiseless latent channel)."""
    n = config.latent_bits
    return replace(config, profile=RobustnessProfile.homogeneous(n, 0.0, a=0.0))
