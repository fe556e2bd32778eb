"""Dense networks with manual differentiation, Adam, losses, and persistence.

The layer vocabulary is what the JSCC stack uses: relu, sigmoid and identity
over affine maps, so every gradient can be written out by hand and checked
against finite differences. Each activation's gradient follows from its
output alone, so a forward pass caches one array per layer plus the input.
Everything runs in float64.

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
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        # exp of a non-positive argument only: no overflow on either side
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0, e) / (1.0 + e)
    if kind == "identity":
        return z
    raise DomainError(f"unknown activation {kind!r}")


def _activation_backward(grad_out: np.ndarray, out: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return grad_out * (out > 0)  # the same mask as z > 0, also at -0.0 and NaN
    if kind == "sigmoid":
        return grad_out * out * (1.0 - out)
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
    are views into these two buffers.
    """

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise DomainError("a model needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise DomainError(
                    f"layer dimensions do not chain: {prev.weight.shape} -> {nxt.weight.shape}"
                )
        size = sum(l.weight.size + l.bias.size for l in layers)
        self.params = np.empty(size)
        self.grads = np.zeros(size)
        off = 0
        for layer in layers:
            for name in ("weight", "bias"):
                value = getattr(layer, name)
                view = self.params[off:off + value.size].reshape(value.shape)
                view[...] = value
                setattr(layer, name, view)
                setattr(layer, "grad_" + name,
                        self.grads[off:off + value.size].reshape(value.shape))
                off += value.size
        self.layers = layers
        self._cache: list[np.ndarray] | None = None  # the input, then each layer's output

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run a (batch, in_dim) array through the stack, caching for backward.

        A (blocks, batch, in_dim) stack runs every block at once; only a 2-D
        forward can be followed by backward.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[-1] != self.in_dim:
            raise DomainError(f"expected input dim {self.in_dim}, got {x.shape[-1]}")
        cache = [x]
        for layer in self.layers:
            x = _activate(x @ layer.weight.T + layer.bias, layer.activation)
            cache.append(x)
        self._cache = cache
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Write parameter gradients into `grads`; returns the gradient w.r.t. input."""
        if self._cache is None:
            raise StateError("backward called without a cached forward pass")
        grad = np.asarray(grad_out, dtype=np.float64)
        for i in reversed(range(len(self.layers))):
            layer, x_in, out = self.layers[i], self._cache[i], self._cache[i + 1]
            grad_z = _activation_backward(grad, out, layer.activation)
            np.matmul(grad_z.T, x_in, out=layer.grad_weight)
            grad_z.sum(axis=0, out=layer.grad_bias)
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


class AdamState:
    """Bias-corrected Adam moments over the flat parameters of several models."""

    def __init__(self, models: list[DenseModel], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.models = list(models)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(model.params) for model in self.models]
        self._v = [np.zeros_like(model.params) for model in self.models]

    def step(self, lr: float) -> None:
        """One Adam update of every model from its last backward pass."""
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        for model, m, v in zip(self.models, self._m, self._v):
            grad = model.grads
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            model.params -= lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def mse_loss(u: np.ndarray, u_hat: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over examples of the squared L2 distance, with d/d(u_hat)."""
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    u_hat = np.atleast_2d(np.asarray(u_hat, dtype=np.float64))
    if u.shape != u_hat.shape:
        raise DomainError(f"shape mismatch {u.shape} vs {u_hat.shape}")
    diff = u_hat - u
    value = float(np.mean(np.sum(diff * diff, axis=1)))
    grad = 2.0 * diff / u.shape[0]
    return value, grad


def ce_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax(logits) against integer labels.

    Stabilized by max subtraction; the gradient is (softmax - onehot)/batch.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if labels.shape[0] != logits.shape[0]:
        raise DomainError("one label per logits row required")
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    row_sum = np.sum(e, axis=1, keepdims=True)
    value = float(np.mean(np.log(row_sum[:, 0]) - shifted[np.arange(len(labels)), labels]))
    grad = e / row_sum  # softmax
    grad[np.arange(len(labels)), labels] -= 1.0
    return value, grad / len(labels)


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
    if len(blob) < off + 8 * size:
        raise FormatError(f"{path}: expected {off + 8 * size} bytes, file has {len(blob)}")
    payload = np.frombuffer(blob, dtype="<f8", count=size, offset=off)
    layers = []
    for rows, cols, act in headers:
        w = payload[:rows * cols].reshape(rows, cols)
        b = payload[rows * cols:rows * (cols + 1)]
        payload = payload[rows * (cols + 1):]
        layers.append(Layer(w, b, act))
    return DenseModel(layers)
