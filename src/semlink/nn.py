"""Dense networks with manual differentiation, Adam, losses, and persistence.

The layer vocabulary is what the JSCC stack uses: relu, sigmoid and identity
over affine maps, so every gradient can be written out by hand and checked
against finite differences. Each activation's gradient follows from its
output alone, so a forward pass caches one array per layer plus the input.
Everything runs in float64.

Parameters live in flat buffers. A DenseModel allocates one `params` and one
`grads` buffer and views every layer's weight, bias and gradients into them.
An AdamState over several models copies their buffers into one `params` and
one `grads` buffer of its own and rebinds each model, and each layer view, to
its slice, once, when the state is built; from then on the state owns the
memory and one step updates all models in place. The forward pass adds the
bias and applies the activation in place on each layer's fresh product.

Model files store each layer's activation as a one-byte id. Ids 2 (tanh) and
4 (softmax) belonged to activations that no model used and that were dropped;
they stay unassigned, so such a file fails to load with a FormatError.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError, StateError
from .numerics import RandomSource

_ACT_IDS = {"relu": 0, "sigmoid": 1, "identity": 3}
_ACT_NAMES = {i: name for name, i in _ACT_IDS.items()}

MODEL_MAGIC = b"SEMLINK1"


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """Apply the activation in place: z is overwritten and returned."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    if kind == "sigmoid":
        # exp of a non-positive argument only: no overflow on either side;
        # the result is where(z >= 0, 1, e) / (1 + e) with e = exp(-|z|)
        pos = z >= 0
        e = np.abs(z)
        np.negative(e, out=e)
        np.exp(e, out=e)
        # where(pos, 1, e) without a masked store, which is several times
        # slower: e <= 1 everywhere, and a NaN e stays NaN
        np.maximum(e, pos, out=z)
        e += 1.0
        z /= e
        return z
    if kind == "identity":
        return z
    raise DomainError(f"unknown activation {kind!r}")


def _activation_backward(grad_out: np.ndarray, out: np.ndarray, kind: str,
                         in_place: bool = False) -> np.ndarray:
    """Gradient at the affine output; in_place overwrites grad_out with it."""
    dest = grad_out if in_place else None
    if kind == "relu":
        # the same mask as z > 0, also at -0.0 and NaN
        return np.multiply(grad_out, out > 0, out=dest)
    if kind == "sigmoid":
        grad = np.multiply(grad_out, out, out=dest)
        grad *= 1.0 - out
        return grad
    if kind == "identity":
        return grad_out
    raise DomainError(f"unknown activation {kind!r}")


@dataclass
class Layer:
    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray    # (out_dim,)
    activation: str

    def __post_init__(self):
        if self.activation not in _ACT_IDS:
            raise DomainError(f"unknown activation {self.activation!r}")
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise DomainError("layer weight must be (out, in) with matching bias")


class DenseModel:
    """A stack of affine+activation layers over one flat parameter buffer.

    `params` holds W0, b0, W1, b1, ... in the model file's payload order and
    `grads` mirrors it; every layer's weight, bias, grad_weight and grad_bias
    are views into these two buffers. The model allocates both itself; an
    AdamState built over it moves them into slices of its own buffers and
    rebinds every view once, at construction, so arrays taken from a layer
    before that point are no longer updated by training.
    """

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise DomainError("a model needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise DomainError(
                    f"layer dimensions do not chain: {prev.weight.shape} -> {nxt.weight.shape}"
                )
        self.layers = layers
        self.params = np.concatenate([a.ravel() for l in layers for a in (l.weight, l.bias)])
        self._bind(self.params, np.zeros_like(self.params))
        self._cache: list[np.ndarray] | None = None  # the input, then each layer's output

    def _bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Point `params`, `grads` and every layer view at the given buffers.

        The buffers must already hold the values; nothing is copied.
        """
        self.params, self.grads = params, grads
        off = 0
        for layer in self.layers:
            for name in ("weight", "bias"):
                shape = getattr(layer, name).shape
                end = off + getattr(layer, name).size
                setattr(layer, name, params[off:end].reshape(shape))
                setattr(layer, "grad_" + name, grads[off:end].reshape(shape))
                off = end

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run a (batch, in_dim) array through the stack, caching for backward.

        A (blocks, batch, in_dim) stack runs every block at once and drops the
        cache, so only a 2-D forward can be followed by backward. Inference
        passes its data as such a stack, (1, batch, in_dim) for one batch, and
        so keeps no activations. Each layer adds its bias and applies its
        activation in place on its fresh product.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[-1] != self.in_dim:
            raise DomainError(f"expected input dim {self.in_dim}, got {x.shape[-1]}")
        cache = [x]
        for layer in self.layers:
            z = x @ layer.weight.T
            z += layer.bias
            x = _activate(z, layer.activation)
            cache.append(x)
        self._cache = cache if cache[0].ndim == 2 else None
        return x

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Write parameter gradients into `grads`; returns the gradient w.r.t. input.

        With input_grad=False the first layer's input product is skipped and
        None is returned; the gradients written are the same.
        """
        if self._cache is None:
            raise StateError("backward called without a cached forward pass")
        grad = np.asarray(grad_out, dtype=np.float64)
        last = len(self.layers) - 1
        for i in reversed(range(len(self.layers))):
            layer, x_in, out = self.layers[i], self._cache[i], self._cache[i + 1]
            # below the last layer, grad is this pass's own product
            grad_z = _activation_backward(grad, out, layer.activation, i < last)
            np.matmul(grad_z.T, x_in, out=layer.grad_weight)
            grad_z.sum(axis=0, out=layer.grad_bias)
            if i == 0 and not input_grad:
                return None
            grad = grad_z @ layer.weight
        return grad


def init_model(dims: list[int], activations: list[str], rng: RandomSource) -> DenseModel:
    """Glorot-normal initialization of a dense stack.

    dims has one more entry than activations: dims[i] -> dims[i+1] with
    activations[i] applied after each affine map.
    """
    if len(dims) != len(activations) + 1:
        raise DomainError("need len(dims) == len(activations) + 1")
    layers = []
    for i, act in enumerate(activations):
        fan_in, fan_out = dims[i], dims[i + 1]
        std = np.sqrt(2.0 / (fan_in + fan_out))
        w = rng.std_normal((fan_out, fan_in)) * std
        layers.append(Layer(w, np.zeros(fan_out), act))
    return DenseModel(layers)


# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Bias-corrected Adam moments over the parameters of several models.

    The state owns one flat `params` and one flat `grads` buffer over all its
    models, in the order given, plus the two moments and two scratch buffers
    of the same length. Construction copies each model's parameters and
    gradients in and rebinds the model's `params`, `grads` and layer views to
    its slice, so one step updates every model with a fixed number of in-place
    array operations.
    """

    def __init__(self, models: list[DenseModel]):
        self.models = list(models)
        self.step_count = 0
        self.params = np.concatenate([model.params for model in self.models])
        self.grads = np.concatenate([model.grads for model in self.models])
        off = 0
        for model in self.models:
            end = off + model.params.size
            model._bind(self.params[off:end], self.grads[off:end])
            off = end
        self._m = np.zeros_like(self.params)
        self._v = np.zeros_like(self.params)
        self._scratch = (np.empty_like(self.params), np.empty_like(self.params))

    def step(self, lr: float) -> None:
        """One Adam update of every model from its last backward pass.

        Computes m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
        params -= (lr*(m/b1c)) / (sqrt(v/b2c) + eps), rounding as written.
        """
        self.step_count += 1
        b1c = 1.0 - ADAM_BETA1 ** self.step_count
        b2c = 1.0 - ADAM_BETA2 ** self.step_count
        g, m, v = self.grads, self._m, self._v
        s, t = self._scratch
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        m += s
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=s)
        s *= g
        v += s
        np.divide(v, b2c, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        np.divide(m, b1c, out=t)
        t *= lr
        t /= s
        self.params -= t


def mse_loss(u: np.ndarray, u_hat: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over examples of the squared L2 distance, with d/d(u_hat)."""
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    u_hat = np.atleast_2d(np.asarray(u_hat, dtype=np.float64))
    if u.shape != u_hat.shape:
        raise DomainError(f"shape mismatch {u.shape} vs {u_hat.shape}")
    diff = u_hat - u
    value = float(np.mean(np.sum(diff * diff, axis=1)))
    diff *= 2.0
    diff /= u.shape[0]
    return value, diff


def ce_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax(logits) against integer labels.

    Stabilized by max subtraction; the gradient is (softmax - onehot)/batch.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if labels.shape[0] != logits.shape[0]:
        raise DomainError("one label per logits row required")
    rows = np.arange(len(labels))
    grad = logits - np.max(logits, axis=1, keepdims=True)
    picked = grad[rows, labels]
    np.exp(grad, out=grad)
    row_sum = np.sum(grad, axis=1, keepdims=True)
    value = float(np.mean(np.log(row_sum[:, 0]) - picked))
    grad /= row_sum  # softmax
    grad[rows, labels] -= 1.0
    grad /= len(labels)
    return value, grad


def save_model(model: DenseModel, path) -> None:
    """Write the binary container: magic, layer headers, float64 parameters."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(model.layers)))
        for layer in model.layers:
            rows, cols = layer.weight.shape
            fh.write(struct.pack("<IIB", rows, cols, _ACT_IDS[layer.activation]))
        fh.write(model.params.astype("<f8").tobytes())


def load_model(path) -> DenseModel:
    """Read a model container; the inverse of save_model, bitwise exact."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:8]!r}, expected {MODEL_MAGIC!r}")
    off = len(MODEL_MAGIC)
    if len(blob) < off + 4:
        raise FormatError(f"{path}: truncated header at byte {len(blob)}")
    (n_layers,) = struct.unpack_from("<I", blob, off)
    off += 4
    headers = []
    for _ in range(n_layers):
        if len(blob) < off + 9:
            raise FormatError(f"{path}: truncated layer header at byte {off}")
        rows, cols, act_id = struct.unpack_from("<IIB", blob, off)
        off += 9
        if act_id not in _ACT_NAMES:
            raise FormatError(f"{path}: unknown activation id {act_id}")
        headers.append((rows, cols, _ACT_NAMES[act_id]))
    size = sum(rows * (cols + 1) for rows, cols, _ in headers)
    end = off + 8 * size
    if len(blob) < end:
        raise FormatError(f"{path}: expected {end} bytes, file has {len(blob)}")
    if len(blob) > end:
        raise FormatError(f"{path}: {len(blob) - end} bytes after the payload, "
                          f"which ends at byte {end}")
    payload = np.frombuffer(blob, dtype="<f8", count=size, offset=off)
    layers = []
    for k, (rows, cols, act) in enumerate(headers):
        w = payload[:rows * cols].reshape(rows, cols)
        b = payload[rows * cols:rows * (cols + 1)]
        payload = payload[rows * (cols + 1):]
        for name, value in (("weight", w), ("bias", b)):
            bad = np.flatnonzero(~np.isfinite(value))
            if bad.size:
                entry = ", ".join(map(str, np.unravel_index(bad[0], value.shape)))
                raise FormatError(f"{path}: non-finite parameters start at layer {k} "
                                  f"{name}[{entry}] ({value.flat[bad[0]]})")
        layers.append(Layer(w, b, act))
    try:
        return DenseModel(layers)
    except DomainError as e:
        raise FormatError(f"{path}: {e}") from None
