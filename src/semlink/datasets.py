"""Dataset container, IDX ingestion, and a synthetic desk-scale generator."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError
from .numerics import RandomSource

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# Largest synthetic set in entries (classes x per class x dim): 80 MB of
# float64 an array, and generation holds about four arrays of that size
MAX_SYNTH_ENTRIES = 10**7


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with integer class labels, standardized to zero mean."""

    features: np.ndarray   # (n, dim) float64, normalized
    labels: np.ndarray     # (n,) int64 in [0, n_classes)
    n_classes: int

    def __post_init__(self):
        # asarray copies only when the dtype differs, so the pipelines read
        # the fields as they are
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise DomainError("features must be (n, dim) with one label per row")
        if labels.size == 0:
            raise DomainError("dataset is empty")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise DomainError("labels must lie in [0, n_classes)")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]


def _standardize(raw: np.ndarray) -> np.ndarray:
    mean = float(raw.mean())
    scale = float(raw.std())
    if scale == 0.0:
        scale = 1.0
    return (raw - mean) / scale


def _read_exact(blob: bytes, offset: int, count: int, path, what: str) -> bytes:
    if len(blob) < offset + count:
        raise FormatError(
            f"{path}: truncated {what}: expected {offset + count} bytes, "
            f"file has {len(blob)}"
        )
    return blob[offset:offset + count]


def _read_idx(path, magic: int, dims: int, what: str) -> tuple[list[int], bytes]:
    """Dimensions and payload of a big-endian IDX file of `dims` dimensions."""
    with open(path, "rb") as fh:
        blob = fh.read()
    size = 4 * (1 + dims)
    found, *shape = struct.unpack(f">{1 + dims}I", _read_exact(blob, 0, size, path, "header"))
    if found != magic:
        raise FormatError(f"{path}: bad magic 0x{found:08x} at byte 0, expected 0x{magic:08x}")
    return shape, _read_exact(blob, size, math.prod(shape), path, what)


def load_idx_images(path) -> np.ndarray:
    """Images from a big-endian IDX file as a flattened (n, rows*cols) array."""
    (n, rows, cols), payload = _read_idx(path, IDX_IMAGES_MAGIC, 3, "pixel payload")
    if n * rows * cols == 0:
        raise FormatError(f"{path}: holds no pixels: {n} images of {rows}x{cols}")
    data = np.frombuffer(payload, dtype=np.uint8)
    return data.reshape(n, rows * cols).astype(np.float64)


def load_idx_labels(path) -> np.ndarray:
    """Labels from a big-endian IDX file as an (n,) integer array."""
    _, payload = _read_idx(path, IDX_LABELS_MAGIC, 1, "label payload")
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def load_idx(images_path, labels_path=None) -> Dataset:
    """Dataset from IDX files: pixels scaled to [0, 1] then standardized.

    Without a labels file every example gets label 0 (single dummy class),
    which suits reconstruction-only runs.
    """
    pixels = load_idx_images(images_path) / 255.0
    if labels_path is not None:
        labels = load_idx_labels(labels_path)
        if labels.shape[0] != pixels.shape[0]:
            raise FormatError(
                f"{labels_path}: {labels.shape[0]} labels for {pixels.shape[0]} images"
            )
        n_classes = int(labels.max()) + 1
    else:
        labels = np.zeros(pixels.shape[0], dtype=np.int64)
        n_classes = 1
    return Dataset(features=_standardize(pixels), labels=labels, n_classes=n_classes)


def synth_dataset(n_classes: int, dim: int, n_per_class: int, noise_sigma: float,
                  rng: RandomSource) -> Dataset:
    """Gaussian class templates plus isotropic noise, then standardized.

    Deterministic given the random source: the same seed reproduces both the
    templates and the noise.
    """
    if n_classes < 1 or dim < 1 or n_per_class < 1:
        raise DomainError("n_classes, dim, and n_per_class must be positive")
    if n_classes * n_per_class * dim > MAX_SYNTH_ENTRIES:
        raise DomainError(f"n_classes x n_per_class x dim must be at most {MAX_SYNTH_ENTRIES}, "
                          f"got {n_classes} x {n_per_class} x {dim}")
    if not (0 <= noise_sigma < np.inf):
        raise DomainError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    template_rng, noise_rng = rng.split(2)
    templates = template_rng.std_normal((n_classes, dim))
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    raw = templates[labels] + noise_sigma * noise_rng.std_normal((len(labels), dim))
    return Dataset(features=_standardize(raw), labels=labels, n_classes=n_classes)
