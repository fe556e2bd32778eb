"""IDX ingestion fixtures and the synthetic dataset generator."""

import re
import struct

import numpy as np
import pytest

from semlink.datasets import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    MAX_SYNTH_ENTRIES,
    Dataset,
    load_idx,
    load_idx_images,
    load_idx_labels,
    synth_dataset,
)
from semlink.errors import DomainError, FormatError
from semlink.numerics import RandomSource


def write_idx_images(path, array3d):
    n, rows, cols = array3d.shape
    blob = struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols)
    blob += array3d.astype(np.uint8).tobytes()
    path.write_bytes(blob)


def write_idx_labels(path, labels):
    blob = struct.pack(">II", IDX_LABELS_MAGIC, len(labels))
    blob += np.asarray(labels, dtype=np.uint8).tobytes()
    path.write_bytes(blob)


class TestIdx:
    def test_small_fixture(self, tmp_path):
        imgs = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        write_idx_images(tmp_path / "imgs", imgs)
        data = load_idx_images(tmp_path / "imgs")
        assert data.shape == (2, 4)
        np.testing.assert_array_equal(data, [[0, 1, 2, 3], [4, 5, 6, 7]])

    def test_dataset_normalization(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(10, 3, 3)).astype(np.uint8)
        write_idx_images(tmp_path / "imgs", imgs)
        write_idx_labels(tmp_path / "labels", np.arange(10) % 3)
        ds = load_idx(tmp_path / "imgs", tmp_path / "labels")
        assert abs(ds.features.mean()) <= 1e-9
        assert ds.n_classes == 3
        assert ds.features.shape == (10, 9)

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(FormatError, match="byte 0"):
            load_idx_images(path)

    def test_truncation_names_byte_counts(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 2, 2, 2) + b"\x00" * 5)
        with pytest.raises(FormatError, match="expected 24 bytes, file has 21"):
            load_idx_images(path)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (3, 0, 2)], ids=["no-images", "no-pixels"])
    def test_empty_images_rejected(self, tmp_path, shape):
        path = tmp_path / "imgs"
        write_idx_images(path, np.zeros(shape, dtype=np.uint8))
        with pytest.raises(FormatError, match=re.escape(f"{path}: holds no pixels")):
            load_idx(path)

    def test_labels_roundtrip(self, tmp_path):
        write_idx_labels(tmp_path / "labels", [3, 1, 4, 1, 5])
        np.testing.assert_array_equal(load_idx_labels(tmp_path / "labels"), [3, 1, 4, 1, 5])

    def test_label_count_mismatch(self, tmp_path):
        imgs = np.zeros((3, 2, 2), dtype=np.uint8)
        write_idx_images(tmp_path / "imgs", imgs)
        write_idx_labels(tmp_path / "labels", [0, 1])
        with pytest.raises(FormatError, match="labels"):
            load_idx(tmp_path / "imgs", tmp_path / "labels")

    def test_missing_labels_single_class(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((4, 2, 2), dtype=np.uint8))
        ds = load_idx(tmp_path / "imgs")
        assert ds.n_classes == 1
        np.testing.assert_array_equal(ds.labels, 0)


class TestSynth:
    def test_zero_noise_identical_within_class(self):
        ds = synth_dataset(3, 8, 5, 0.0, RandomSource(1))
        for c in range(3):
            rows = ds.features[ds.labels == c]
            assert np.ptp(rows, axis=0).max() == 0.0

    def test_templates_distinct(self):
        ds = synth_dataset(5, 16, 2, 0.0, RandomSource(2))
        centers = np.array([ds.features[ds.labels == c][0] for c in range(5)])
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.linalg.norm(centers[i] - centers[j]) > 0.5

    def test_deterministic(self):
        a = synth_dataset(4, 8, 10, 0.3, RandomSource(3))
        b = synth_dataset(4, 8, 10, 0.3, RandomSource(3))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_standardized(self):
        ds = synth_dataset(10, 64, 50, 0.7, RandomSource(4))
        assert abs(ds.features.mean()) <= 1e-12
        assert ds.features.std() == pytest.approx(1.0, abs=1e-12)

    def test_linear_classifier_sanity(self):
        # one-hot least squares on small-noise data should be near perfect
        ds = synth_dataset(10, 64, 30, 0.2, RandomSource(5))
        x = np.hstack([ds.features, np.ones((len(ds), 1))])
        onehot = np.eye(10)[ds.labels]
        w, *_ = np.linalg.lstsq(x, onehot, rcond=None)
        acc = np.mean(np.argmax(x @ w, axis=1) == ds.labels)
        assert acc > 0.95

    def test_validation(self):
        with pytest.raises(DomainError):
            synth_dataset(0, 8, 5, 0.1, RandomSource(0))
        with pytest.raises(DomainError):
            synth_dataset(2, 8, 5, -0.1, RandomSource(0))
        with pytest.raises(DomainError, match="finite"):
            synth_dataset(2, 8, 5, np.inf, RandomSource(0))
        for sizes in ((MAX_SYNTH_ENTRIES + 1, 1, 1), (10, 10**20, 64), (3 * 10**9, 64, 3 * 10**9)):
            with pytest.raises(DomainError) as err:
                synth_dataset(*sizes, 0.1, RandomSource(0))
            c, d, k = sizes
            assert str(err.value) == (f"n_classes x n_per_class x dim must be at most "
                                      f"{MAX_SYNTH_ENTRIES}, got {c} x {k} x {d}")
        for features, labels in ((np.zeros(3), np.zeros(3, int)),
                                 (np.zeros((3, 2)), np.zeros(2, int))):
            with pytest.raises(DomainError) as err:
                Dataset(features, labels, n_classes=2)
            assert str(err.value) == "features must be (n, dim) with one label per row"
        for label in (-1, 2):
            with pytest.raises(DomainError, match=r"^labels must lie in \[0, n_classes\)$"):
                Dataset(np.zeros((3, 2)), np.array([0, label, 1]), n_classes=2)


class TestDataset:
    def test_empty_rejected(self):
        # training and both evaluations read a Dataset, so this is their one check
        for dim in (4, 16):
            with pytest.raises(DomainError) as err:
                Dataset(np.zeros((0, dim)), np.zeros(0, dtype=np.int64), n_classes=1)
            assert str(err.value) == "dataset is empty"

    @pytest.mark.parametrize("features,labels", [
        ([[0, 1], [2, 3]], [0, 1]),
        (np.arange(4, dtype=np.uint8).reshape(2, 2), np.array([0, 1], dtype=np.uint8)),
        (np.arange(4, dtype=np.int32).reshape(2, 2), np.array([0, 1], dtype=np.int32)),
    ], ids=["list", "uint8", "int32"])
    def test_fields_converted(self, features, labels):
        ds = Dataset(features, labels, n_classes=2)
        assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int64
        np.testing.assert_array_equal(ds.features, [[0, 1], [2, 3]])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    @pytest.mark.parametrize("labels,shown", [
        ([0.7, 1.9], "0.7 at row 0"),
        ([1.0, 0.5], "0.5 at row 1"),
        ([0.0, np.nan], "nan at row 1"),
        ([np.inf, 0.0], "inf at row 0"),
    ], ids=["fractions", "second-row", "nan", "inf"])
    def test_non_integer_labels_rejected(self, labels, shown):
        with pytest.raises(DomainError) as err:
            Dataset(np.zeros((2, 2)), np.array(labels), n_classes=2)
        assert str(err.value) == f"labels must be whole numbers, got {shown}"

    def test_whole_float_labels_accepted(self):
        ds = Dataset(np.zeros((3, 2)), np.array([1.0, 0.0, 1.0]), n_classes=2)
        assert ds.labels.dtype == np.int64
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])

    def test_matching_dtypes_not_copied(self):
        features = np.zeros((3, 2))
        labels = np.array([0, 1, 1], dtype=np.int64)
        ds = Dataset(features, labels, n_classes=2)
        assert ds.features is features and ds.labels is labels
