"""End-to-end training of the encoder/decoder/classifier over sampled BSECs.

The encoder emits per-bit Bernoulli probabilities (sigmoid output layer). For
each training example, per-bit flip probabilities are drawn uniformly up to
the profile's robustness levels, matched erasure probabilities are derived
from the order-2 closed form at each bit's own boundary offset, and the
decoder input is drawn in one step from the marginal law over {0, 0.5, 1}.
The sampling stage is non-differentiable, so gradients at the decoder input
pass through to the encoder's probabilities unchanged. A warm-up period
trains with a noiseless latent channel first. A noiseless batch (warm-up, or
a zero profile with no bit at offset 1) skips the flip-probability draw
exactly, moving the noise stream past it, and samples plain Bernoulli bits,
so its bytes equal a run that draws mu and scales it by zero. At offset 1 a
bit is erased half the time even at mu = 0, so such a profile is sampled.

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
        if not (0 <= self.loss_weight < math.inf):
            raise ConfigError(f"loss weight must be finite and >= 0, got {self.loss_weight}")
        if not (0 < self.learning_rate < math.inf):
            raise ConfigError(
                f"learning rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


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
    n = len(config.profile)
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
    """Independent Bernoulli draws from per-bit probabilities, as 0/1 uint8."""
    f = np.asarray(f, dtype=np.float64)
    return (rng.random(f.shape) < f).view(np.uint8)


def noisy_latent_sample(f, mu, d, rng: RandomSource) -> np.ndarray:
    """One draw per entry from the three-point law over {0, 0.5, 1}.

    Marginalizes the Bernoulli quantization and the erasure channel in a
    single step: with P(1) = (1-d-mu) f + mu (1-f), a uniform u gives 0.5
    when u < d, 1 when d <= u < d + P(1), and 0 otherwise.
    """
    f = np.asarray(f, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    shape = np.broadcast_shapes(f.shape, mu.shape, d.shape)
    # P(1) and the threshold d + P(1), rounded as written above
    p_one = np.subtract(1.0, d, out=np.empty(shape))
    p_one -= mu
    p_one *= f
    out = np.subtract(1.0, f, out=np.empty(shape))
    out *= mu
    p_one += out
    u = rng.random(shape)
    p_one += d
    np.less(u, p_one, out=out)
    np.putmask(out, u < d, TRIT_ERASURE)
    return out


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

    grad_uhat_mse *= loss_weight
    grad_uhat = clf.backward(grad_logits)
    grad_uhat += grad_uhat_mse
    grad_bhat = dec.backward(grad_uhat)
    # gradient w.r.t. probabilities := gradient w.r.t. b_hat; the encoder's own
    # input gradient has no use
    enc.backward(grad_bhat, input_grad=False)
    return loss, mse, ce, logits


def train(dataset, config: TrainingConfig) -> TrainResult:
    """Warm-up then robust training; fully deterministic given config.seed."""
    model_rng, shuffle_rng, noise_rng = RandomSource(config.seed).split(3)

    x, y = dataset.features, dataset.labels
    models = build_models(x.shape[1], dataset.n_classes, config, model_rng)
    opt = AdamState([models.encoder, models.decoder, models.classifier])
    alphas, a_offsets = config.profile.alphas, config.profile.a_offsets
    # with every alpha at 0, mu is 0: the profile is silent if d(0, a) is 0 too
    silent_profile = not alphas.any() and not erasure_from_mu_array(alphas, a_offsets).any()
    result = TrainResult(models=models)

    # a diverging run overflows before its loss turns non-finite; that check
    # below is the error path, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = shuffle_rng.permutation(len(x))
            # mu and d are exactly 0 in warm-up and under a silent profile
            noiseless = epoch < config.warmup_epochs or silent_profile
            tot_loss = tot_mse = tot_ce = 0.0
            correct = 0
            n_batches = 0
            for start in range(0, len(x), config.batch_size):
                idx = order[start:start + config.batch_size]
                xb, yb = x[idx], y[idx]
                f = models.encoder.forward(xb)
                if noiseless:
                    # skip the mu draw exactly, leaving the stream where the
                    # robust path's draw would; at mu = d = 0 the three-point
                    # law is one Bernoulli(f) bit, bitwise
                    noise_rng.skip(f.size)
                    b_hat = sample_latent_bits(f, noise_rng).astype(np.float64)
                else:
                    mu = sample_mu_matrix(alphas, len(xb), noise_rng)
                    b_hat = noisy_latent_sample(f, mu, erasure_from_mu_array(mu, a_offsets),
                                                noise_rng)
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


# Rows per block of an evaluation pass. Blocks are nearly equal, so a pass
# of more than one block runs every product on at least 256 rows, where
# OpenBLAS gives each row the bits of a whole-array product.
EVAL_BLOCK_ROWS = 512


def eval_under_bsec(models: ModelTriple, dataset, mu: float, d: float,
                    rng: RandomSource) -> tuple[float, float]:
    """(accuracy, mse) with latent bits passed through a fixed BSEC.

    The rows run encode -> sample -> decode -> classify in consecutive,
    nearly equal blocks of at most EVAL_BLOCK_ROWS rows, which draw their
    uniforms from rng in row order, so memory is O(block) and the result
    equals one whole-array pass bit for bit. Inference keeps no activations:
    each forward takes its block as a (1, rows, dim) stack, which
    DenseModel.forward runs without a cache, so every model's cache is None
    afterwards.
    """
    if not (0.0 <= mu <= 1.0 and 0.0 <= d <= 1.0 and mu + d <= 1.0):
        raise DomainError(f"invalid channel parameters mu={mu}, d={d}")
    x, y = dataset.features, dataset.labels
    n = len(x)
    n_blocks = -(-n // EVAL_BLOCK_ROWS)
    correct = 0
    sq_err = np.empty(n)  # per-row squared error, averaged as mse_loss does
    for k in range(n_blocks):
        lo, hi = n * k // n_blocks, n * (k + 1) // n_blocks
        f = models.encoder.forward(x[None, lo:hi])[0]
        b_hat = noisy_latent_sample(f, mu, d, rng)
        u_hat = models.decoder.forward(b_hat[None])[0]
        logits = models.classifier.forward(u_hat[None])[0]
        correct += int(np.sum(np.argmax(logits, axis=1) == y[lo:hi]))
        u_hat -= x[lo:hi]
        u_hat *= u_hat
        np.sum(u_hat, axis=1, out=sq_err[lo:hi])
    return correct / n, float(np.mean(sq_err))


def warmup_only_config(config: TrainingConfig) -> TrainingConfig:
    """Same schedule with a zero-robustness profile (noiseless latent channel)."""
    n = len(config.profile)
    return replace(config, profile=RobustnessProfile.homogeneous(n, 0.0, a=0.0))
