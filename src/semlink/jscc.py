"""End-to-end training of the encoder/decoder/classifier over sampled BSECs.

The encoder emits per-bit Bernoulli probabilities (sigmoid output layer). For
each training example, per-bit flip probabilities are drawn uniformly up to
the profile's robustness levels, matched erasure probabilities are derived
from the order-2 closed form at each bit's own boundary offset, and the
decoder input is drawn in one step from the marginal law over {0, 0.5, 1}.
The sampling stage is non-differentiable, so gradients at the decoder input
pass through to the encoder's probabilities unchanged. A warm-up period
trains with a noiseless latent channel first. A warm-up batch skips the
flip-probability draw exactly, moving the noise stream past it, and samples
plain Bernoulli bits, so its bytes equal a run that draws mu and scales it
by zero.

The reconstruction term is plain squared error. Viewing the decoder as
Gaussian with some fixed isotropic variance would only wrap that error in
affine constants, which cannot move the optimum, so no variance parameter
exists at runtime.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field, replace

import numpy as np

from .bsec import RobustnessProfile, check_width, erasure_from_mu_array, sample_mu_matrix
from .demod import TRIT_ERASURE
from .errors import ConfigError, DomainError, TrainingError
from .nn import AdamState, DenseModel, ce_loss, init_model, mse_loss
from .numerics import RandomSource, drawn_ahead


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

    def __post_init__(self):
        # the classmethods' cap holds for a profile from any source, such as a
        # file: each batch holds several arrays of the profile's width
        check_width(len(self.profile))
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


# Hidden widths of the encoder, decoder and classifier stacks
ENC_HIDDEN, DEC_HIDDEN, CLF_HIDDEN = (64, 32), (32, 64), (64, 32)
# Most weights and biases the three stacks may hold together: 128x128-pixel
# inputs (about 3.2M) fit, and one float64 copy of them takes at most 32 MB;
# training holds the parameters, their gradients and two Adam moments
MAX_MODEL_PARAMS = 4 * 10**6
# Most entries a training batch may hold in its widest layer: 256 rows of 128x128 pixels
MAX_BATCH_ENTRIES = 2**22


def build_models(input_dim: int, n_classes: int, config: TrainingConfig,
                 rng: RandomSource, batch_rows: int = 0) -> ModelTriple:
    """The three dense stacks; the encoder ends in a sigmoid, classifier in logits.
    Their parameters and a batch of batch_rows rows are counted before any weight is drawn."""
    n = len(config.profile)
    widths = ([input_dim, *ENC_HIDDEN, n], [n, *DEC_HIDDEN, input_dim],
              [input_dim, *CLF_HIDDEN, n_classes])
    count = sum(a * b + b for stack in widths for a, b in zip(stack, stack[1:]))
    if count > MAX_MODEL_PARAMS:
        raise DomainError(
            f"models of widths {', '.join('-'.join(map(str, stack)) for stack in widths)} "
            f"hold {count} parameters, more than {MAX_MODEL_PARAMS}")
    wide = max(map(max, widths))
    if batch_rows * wide > MAX_BATCH_ENTRIES:
        raise DomainError(f"a batch of {batch_rows} rows {wide} wide holds "
                          f"{batch_rows * wide} entries, more than {MAX_BATCH_ENTRIES}")
    enc_rng, dec_rng, clf_rng = rng.split(3)
    enc = init_model(widths[0], ["relu"] * len(ENC_HIDDEN) + ["sigmoid"], enc_rng)
    dec = init_model(widths[1], ["relu"] * len(DEC_HIDDEN) + ["identity"], dec_rng)
    clf = init_model(widths[2], ["relu"] * len(CLF_HIDDEN) + ["identity"], clf_rng)
    return ModelTriple(enc, dec, clf)


def sample_latent_bits(f: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Independent Bernoulli draws from per-bit probabilities, as 0/1 uint8:
    1 where the uniform u, an array of f's shape drawn on [0, 1), is below f."""
    return (u < np.asarray(f, dtype=np.float64)).view(np.uint8)


def noisy_latent_sample(f, mu, d, u: np.ndarray) -> np.ndarray:
    """One draw per entry from the three-point law over {0, 0.5, 1}.

    Marginalizes the Bernoulli quantization and the erasure channel in a
    single step: with P(1) = (1-d-mu) f + mu (1-f), the uniform u, an array
    of the broadcast shape drawn on [0, 1), gives 0.5 when u < d, 1 when
    d <= u < d + P(1), and 0 otherwise.
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


def _blas_threads(n: int | None = None) -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, before setting it to n.

    The library is looked up where numpy's wheels ship it, in numpy.libs
    beside the package. Without such a library nothing is set and None is
    returned.
    """
    import ctypes
    import glob
    from pathlib import Path

    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                old = get()
                if n is not None:
                    put(n)
                return old
    return None


def train(dataset, config: TrainingConfig) -> TrainResult:
    """Warm-up then robust training; fully deterministic given config.seed.

    The products run on one OpenBLAS thread, and the run puts the old count
    back on its way out: a batch's products are too small to gain from a
    second thread, and the second core draws the channels instead. A batch's
    channel (its flip and erasure probabilities and its uniforms) depends on
    nothing the models compute, so the channels are numerics.drawn_ahead:
    batch 0's is drawn inline and one worker thread draws batch b + 1's while
    batch b trains. The values are those of an inline run, and the worker is
    joined before the call returns or raises.
    """
    model_rng, shuffle_rng, noise_rng = RandomSource(config.seed).split(3)

    x, y = dataset.features, dataset.labels
    models = build_models(x.shape[1], dataset.n_classes, config, model_rng,
                          min(config.batch_size, len(x)))
    opt = AdamState([models.encoder, models.decoder, models.classifier])
    alphas, a_offsets = config.profile.alphas, config.profile.a_offsets
    result = TrainResult(models=models)
    starts = range(0, len(x), config.batch_size)
    # made as drawn, so memory does not grow with epochs
    batches = ((epoch, start) for epoch in range(config.epochs) for start in starts)

    def draw(batch):
        """Batch (epoch, start)'s (mu, d, uniforms); mu and d are None in
        warm-up, whose channel is noiseless."""
        epoch, start = batch
        rows = min(config.batch_size, len(x) - start)
        shape = (rows, alphas.size)
        if epoch < config.warmup_epochs:
            # skip the mu draw exactly, leaving the stream where the robust
            # path's draw would; at mu = d = 0 the three-point law is one
            # Bernoulli(f) bit, bitwise
            noise_rng.skip(rows * alphas.size)
            return None, None, noise_rng.random(shape)
        mu = sample_mu_matrix(alphas, rows, noise_rng)
        return mu, erasure_from_mu_array(mu, a_offsets), noise_rng.random(shape)

    old_threads = _blas_threads(1)
    try:
        # a diverging run overflows before its loss turns non-finite; that
        # check below is the error path, so numpy's warnings would only repeat
        # it. Leaving the with block joins the worker, on an error too.
        with (np.errstate(over="ignore", invalid="ignore"),
              closing(drawn_ahead(draw, batches)) as channels):
            for epoch in range(config.epochs):
                order = shuffle_rng.permutation(len(x))
                tot_loss = tot_mse = tot_ce = 0.0
                correct = 0
                # zip takes the start first, so an epoch's end draws nothing
                for start, (mu, d, u) in zip(starts, channels):
                    idx = order[start:start + config.batch_size]
                    xb, yb = x[idx], y[idx]
                    f = models.encoder.forward(xb)
                    if mu is None:
                        b_hat = sample_latent_bits(f, u).astype(np.float64)
                    else:
                        b_hat = noisy_latent_sample(f, mu, d, u)
                    loss, mse, ce, logits = backward_with_bypass(models, xb, yb, b_hat,
                                                                 config.loss_weight)
                    if not math.isfinite(loss):
                        raise TrainingError(f"loss became non-finite at epoch {epoch}")
                    opt.step(config.learning_rate)

                    correct += int(np.sum(np.argmax(logits, axis=1) == yb))
                    tot_loss += loss
                    tot_mse += mse
                    tot_ce += ce
                result.metrics.append(EpochMetrics(
                    epoch=epoch,
                    loss=tot_loss / len(starts),
                    mse=tot_mse / len(starts),
                    ce=tot_ce / len(starts),
                    accuracy=correct / len(x),
                ))
    finally:
        if old_threads is not None:
            _blas_threads(old_threads)
    return result


def _stacks(x: np.ndarray, size: int) -> list[np.ndarray]:
    """Consecutive blocks of `size` rows of x as (blocks, size, dim) views:
    one stack of the full blocks and a (1, rows, dim) stack of a shorter last
    block, each left out when it would be empty."""
    full = len(x) - len(x) % size
    stacks = [x[:full].reshape(-1, size, x.shape[1])] if full else []
    return stacks + [x[full:][None]] if full < len(x) else stacks


def _forward_blocks(model: DenseModel, x: np.ndarray, size: int) -> np.ndarray:
    """model.forward over consecutive blocks of `size` rows of x. A stack's
    products equal the per-block ones bit for bit, and stacks keep no
    activations, so no call leaves a cache behind."""
    parts = [model.forward(stack).reshape(-1, model.out_dim) for stack in _stacks(x, size)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def infer(models: ModelTriple, dataset, chunks, channel) -> tuple[float, float]:
    """(accuracy, mse) of encode -> channel -> decode -> classify over the
    dataset, whose rows the chunks cover in order.

    Each chunk (lo, hi, size) covers rows lo:hi and runs stacked forwards
    over its blocks of `size` rows (a shorter last block on its own), so
    inference keeps no activations. channel(f, rows) turns the chunk's
    encoder probabilities f into the decoder's input, given the chunk's
    rows per block. The squared errors are summed per block and the sums
    added in block order. A chunk's arrays are freed before the next chunk
    allocates its own, so the pass holds one chunk's arrays at a time.
    """
    x, y = dataset.features, dataset.labels
    correct = 0
    sq_err_sum = 0.0
    for lo, hi, size in chunks:
        xc = x[lo:hi]
        rows = np.diff(np.append(np.arange(0, len(xc), size), len(xc)))
        f = _forward_blocks(models.encoder, xc, size)
        b_hat = channel(f, rows)
        u_hat = _forward_blocks(models.decoder, b_hat, size)
        logits = _forward_blocks(models.classifier, u_hat, size)
        correct += int(np.sum(np.argmax(logits, axis=1) == y[lo:hi]))
        # a block's row of a stack's reshape sums to the bytes of np.sum
        # over the block
        for stack in _stacks((u_hat - xc) ** 2, size):
            for block_sum in stack.reshape(len(stack), -1).sum(axis=1).tolist():
                sq_err_sum += block_sum  # not sum(), which compensates from Python 3.12 on
        del f, b_hat, u_hat, logits, stack  # before the next chunk allocates
    return correct / len(x), sq_err_sum / len(x)


# Rows per block of an evaluation pass. Blocks are nearly equal, so a pass
# of more than one block runs every product on at least 256 rows, where
# OpenBLAS gives each row the bits of a whole-array product.
EVAL_BLOCK_ROWS = 512


def eval_under_bsec(models: ModelTriple, dataset, mu: float, d: float,
                    rng: RandomSource) -> tuple[float, float]:
    """(accuracy, mse) with latent bits passed through a fixed BSEC.

    One infer pass over consecutive, nearly equal blocks of at most
    EVAL_BLOCK_ROWS rows, one block per chunk, which draw their uniforms
    from rng in row order. So memory is O(block), the accuracy equals one
    whole-array pass bit for bit, and the mse is the per-block squared
    error sums, added in block order, over the row count.
    """
    if not (0.0 <= mu <= 1.0 and 0.0 <= d <= 1.0 and mu + d <= 1.0):
        raise DomainError(f"invalid channel parameters mu={mu}, d={d}")
    n = len(dataset.features)
    n_blocks = -(-n // EVAL_BLOCK_ROWS)
    bounds = [n * k // n_blocks for k in range(n_blocks + 1)]
    chunks = [(lo, hi, hi - lo) for lo, hi in zip(bounds, bounds[1:])]
    return infer(models, dataset, chunks,
                 lambda f, rows: noisy_latent_sample(f, mu, d, rng.random(f.shape)))


def warmup_only_config(config: TrainingConfig) -> TrainingConfig:
    """The same run with every epoch a warm-up epoch (noiseless latent channel)."""
    return replace(config, warmup_epochs=config.epochs)
