"""Constellation geometry, Gray labeling, and mapping round trips."""

import math

import numpy as np
import pytest

from semlink.constellation import SUPPORTED_ORDERS, build_constellation, gray_code, pack_bits
from semlink.errors import ConfigError, DomainError
from semlink.numerics import RandomSource

from oracles import labels_by_level, nearest_words, pack_bits_matmul, unpack_words

R = 1 / math.sqrt(2)


def brute_force_nearest(z, c):
    """Oracle for nearest_words: explicit scan with lexicographic tie-breaking."""
    best = None
    for p in c.points:
        d2 = abs(z - p) ** 2
        key = (d2, p.real, p.imag)
        if best is None or key < best:
            best = key
    return complex(best[1], best[2])


class TestGeometry:
    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_point_count_and_energy(self, m):
        c = build_constellation(m)
        assert len(c.points) == 2**m
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) <= 1e-12

    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_d_min(self, m):
        c = build_constellation(m)
        assert c.d_min == pytest.approx(math.sqrt(6 / (2**m - 1)), abs=1e-15)
        pts = c.points
        gaps = [
            abs(pts[i] - pts[j])
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        ]
        assert min(gaps) == pytest.approx(c.d_min, abs=1e-12)

    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_points_equal_the_per_point_loop(self, m):
        """The indexed assignment places every point as a loop over both axes'
        levels and Gray words does, byte for byte."""
        half, gray = m // 2, gray_code(m // 2)
        n_levels = 1 << half
        amp = (2 * np.arange(n_levels) - (n_levels - 1)) * (math.sqrt(6.0 / ((1 << m) - 1)) / 2)
        expected = np.empty(1 << m, dtype=complex)
        for li in range(n_levels):
            for lq in range(n_levels):
                expected[(int(gray[li]) << half) | int(gray[lq])] = amp[li] + 1j * amp[lq]
        assert build_constellation(m).points.tobytes() == expected.tobytes()

    def test_order2_points(self):
        c = build_constellation(2)
        expected = {complex(sr * R, si * R) for sr in (-1, 1) for si in (-1, 1)}
        assert {complex(round(p.real, 12), round(p.imag, 12)) for p in c.points} == {
            complex(round(p.real, 12), round(p.imag, 12)) for p in expected
        }
        assert c.d_min == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_order4_d_min_value(self):
        assert build_constellation(4).d_min == pytest.approx(0.632456, abs=1e-6)

    def test_levels_are_odd_multiples_of_half_d(self):
        for m in SUPPORTED_ORDERS:
            c = build_constellation(m)
            mults = c.levels / (c.d_min / 2)
            np.testing.assert_allclose(mults, np.round(mults), atol=1e-12)
            assert all(int(round(v)) % 2 == 1 for v in np.abs(mults))

    def test_unsupported_order(self):
        with pytest.raises(ConfigError):
            build_constellation(3)
        with pytest.raises(ConfigError):
            build_constellation(8)


class TestLabeling:
    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_gray_adjacency_per_axis(self, m):
        c = build_constellation(m)
        half = m // 2
        for axis in (0, 1):
            groups = labels_by_level(c, axis)
            words = []
            for labels in groups:
                axis_words = {
                    (w >> half) if axis == 0 else (w & ((1 << half) - 1))
                    for w in labels
                }
                assert len(axis_words) == 1
                words.append(axis_words.pop())
            for a, b in zip(words, words[1:]):
                assert bin(a ^ b).count("1") == 1

    def test_all_zero_word_at_most_negative_corner(self):
        for m in SUPPORTED_ORDERS:
            c = build_constellation(m)
            p = c.points[0]
            assert p.real == pytest.approx(c.levels[0], abs=1e-15)
            assert p.imag == pytest.approx(c.levels[0], abs=1e-15)

    def test_second_bit_pattern_order4(self):
        c = build_constellation(4)
        pattern = []
        for labels in labels_by_level(c, 0):
            bits = {(w >> 2) & 1 for w in labels}
            assert len(bits) == 1
            pattern.append(bits.pop())
        assert pattern == [0, 1, 1, 0]

    def test_map_examples(self):
        c2 = build_constellation(2)
        assert c2.points[pack_bits([0, 0], 2)[0]] == pytest.approx(complex(-R, -R), abs=1e-15)
        c4 = build_constellation(4)
        d = c4.d_min
        assert c4.points[pack_bits([0, 0, 0, 0], 4)[0]] == pytest.approx(
            complex(-1.5 * d, -1.5 * d), abs=1e-15
        )

    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_map_demap_roundtrip_all_words(self, m):
        c = build_constellation(m)
        bits = unpack_words(np.arange(2**m), m)
        symbols = c.points[pack_bits(bits, m)]
        np.testing.assert_array_equal(unpack_words(nearest_words(symbols, c), m), bits)

    def test_map_wrong_length(self):
        with pytest.raises(DomainError):
            pack_bits([0, 1, 0], 4)

    def test_pack_unpack_roundtrip(self):
        rng = RandomSource(3)
        bits = rng.bits(6 * 50)
        words = pack_bits(bits, 6)
        np.testing.assert_array_equal(unpack_words(words, 6), bits)

    @pytest.mark.parametrize("kind", ["int64", "uint8", "bool", "list", "empty", "strided"])
    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_pack_equals_the_matrix_product(self, m, kind):
        bits = RandomSource(4).bits(m * 300).astype(np.int64)
        bits[:m] = 1  # the all-ones word, whose MSB is set
        if kind == "uint8":
            bits = bits.astype(np.uint8)
        elif kind == "bool":
            bits = bits.astype(bool)
        elif kind == "list":
            bits = bits.tolist()
        elif kind == "empty":
            bits = np.empty(0, np.int64)
        elif kind == "strided":  # a column slice of a wider matrix, as _carry packs
            bits = np.pad(bits.reshape(30, -1), ((0, 0), (1, 2)))[:, 1:-2]
        words = pack_bits(bits, m)
        expected = pack_bits_matmul(bits, m)
        assert words.dtype == np.int64 and words.shape == expected.shape
        np.testing.assert_array_equal(words, expected)


class TestNearestPoint:
    """The hard-decision oracle nearest_words, against the brute-force scan."""

    def test_exact_point_maps_to_itself(self):
        c = build_constellation(4)
        np.testing.assert_array_equal(c.points[nearest_words(c.points, c)], c.points)

    def test_origin_tie_order2(self):
        c = build_constellation(2)
        assert c.points[nearest_words([0j], c)[0]] == pytest.approx(
            complex(-R, -R), abs=1e-15
        )

    def test_diagonal_tie_order4(self):
        c = build_constellation(4)
        d = c.d_min
        assert c.points[nearest_words([complex(d, d)], c)[0]] == pytest.approx(
            complex(d / 2, d / 2), abs=1e-15
        )

    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_against_brute_force(self, m):
        c = build_constellation(m)
        rng = RandomSource(17)
        zs = rng.std_normal(400) + 1j * rng.std_normal(400)
        for z, w in zip(zs, nearest_words(zs, c)):
            assert c.points[w] == brute_force_nearest(complex(z), c)
