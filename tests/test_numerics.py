"""Tail-function accuracy against an independent quadrature oracle, and
random-source determinism."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink.errors import DomainError
from semlink.numerics import (
    RandomSource,
    q_function,
    q_function_array,
    q_inverse,
    q_inverse_array,
)


def oracle_q(x: float) -> float:
    """Gauss-Legendre quadrature of the normal pdf; error far below 1e-13.

    Q(x) = 1/2 - integral_0^x phi(t) dt, integrated on unit subintervals with
    80 nodes each. Independent of the erfc-based production path.
    """
    nodes, weights = np.polynomial.legendre.leggauss(80)
    total = 0.0
    sign = 1.0 if x >= 0 else -1.0
    x = abs(x)
    edges = np.arange(0.0, math.ceil(x) + 1.0)
    edges[-1] = x
    for lo, hi in zip(edges[:-1], edges[1:]):
        t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * np.sum(weights * np.exp(-0.5 * t * t))
    integral = total / math.sqrt(2.0 * math.pi)
    return 0.5 - sign * integral


class TestQFunction:
    def test_zero_is_half(self):
        assert q_function(0.0) == 0.5

    @pytest.mark.parametrize("x,expected", [(1.0, 0.1586553), (1.5, 0.0668072)])
    def test_frozen_values(self, x, expected):
        assert q_function(x) == pytest.approx(expected, abs=5e-8)
        assert q_function(x) == pytest.approx(oracle_q(x), abs=1e-13)

    @pytest.mark.parametrize("x", np.linspace(-8, 8, 33).tolist())
    def test_against_quadrature_oracle(self, x):
        assert q_function(x) == pytest.approx(oracle_q(x), abs=1e-12)

    def test_symmetry(self):
        for x in np.linspace(-8, 8, 101):
            assert abs(q_function(x) + q_function(-x) - 1.0) <= 1e-12

    def test_monotone_decreasing(self):
        xs = np.linspace(-8, 8, 200)
        vals = [q_function(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DomainError):
            q_function(bad)

    def test_array_path_matches_scalar(self):
        xs = np.linspace(-8, 8, 57)
        np.testing.assert_allclose(
            q_function_array(xs), [q_function(x) for x in xs], rtol=0, atol=1e-14
        )


class TestQInverse:
    def test_half_is_zero(self):
        # +0.0, not -0.0: a zero threshold must print as "0" in CSV output
        assert math.copysign(1.0, q_inverse(0.5)) == 1.0 and q_inverse(0.5) == 0.0

    def test_roundtrip_frozen_values(self):
        assert q_inverse(q_function(1.0)) == pytest.approx(1.0, abs=1e-8)
        assert q_inverse(q_function(1.5)) == pytest.approx(1.5, abs=1e-8)
        # the 7-digit inputs themselves carry ~2e-7 of quantization error
        assert q_inverse(0.1586553) == pytest.approx(1.0, abs=1e-6)
        assert q_inverse(0.0668072) == pytest.approx(1.5, abs=1e-6)

    def test_roundtrip_grid(self):
        for x in np.linspace(-6, 6, 121):
            assert q_inverse(q_function(x)) == pytest.approx(x, abs=1e-8)

    @given(st.floats(min_value=-6, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, x):
        assert q_inverse(q_function(x)) == pytest.approx(x, abs=1e-8)

    def test_monotone_decreasing_in_p(self):
        ps = np.linspace(0.001, 0.999, 200)
        vals = [q_inverse(p) for p in ps]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            q_inverse(bad)

    def test_array_path_matches_scalar(self):
        ps = np.linspace(1e-6, 1 - 1e-6, 41)
        np.testing.assert_allclose(
            q_inverse_array(ps), [q_inverse(p) for p in ps], rtol=0, atol=1e-12
        )


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(1234).random(10_000)
        b = RandomSource(1234).random(10_000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RandomSource(1).random(100), RandomSource(2).random(100))

    def test_split_streams_are_distinct_and_reproducible(self):
        kids_a = RandomSource(7).split(3)
        kids_b = RandomSource(7).split(3)
        for ka, kb in zip(kids_a, kids_b):
            np.testing.assert_array_equal(ka.random(1000), kb.random(1000))
        draws = [k.random(1000) for k in RandomSource(7).split(3)]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_uniform_degenerate_interval(self):
        assert RandomSource(0).uniform(3.0, 3.0) == 3.0

    def test_uniform_invalid_interval(self):
        with pytest.raises(DomainError):
            RandomSource(0).uniform(2.0, 1.0)

    def test_bernoulli_mean(self):
        draws = RandomSource(99).bernoulli(0.3, size=10**6)
        # 3 sigma CLT bound: sqrt(0.3 * 0.7 / 1e6) ~ 4.6e-4
        assert abs(draws.mean() - 0.3) <= 0.0015

    def test_bernoulli_domain(self):
        with pytest.raises(DomainError):
            RandomSource(0).bernoulli(1.5)

    def test_normal_moments(self):
        draws = RandomSource(11).std_normal(10**6)
        assert abs(draws.var() - 1.0) <= 0.005
        assert abs(draws.mean()) <= 0.004

    def test_normal_pair(self):
        a, b = RandomSource(5).normal_pair()
        assert a != b and math.isfinite(a) and math.isfinite(b)

    @pytest.mark.parametrize("seed", [0, 17, 2**64 - 1])
    def test_deepcopy_replays_the_stream(self, seed):
        src = RandomSource(seed)
        src.bits(3)  # start mid-stream
        twin = copy.deepcopy(src)
        normals, bits = twin.std_normal(1001), twin.bits(7)
        twin.std_normal(50)  # drawing from the copy must leave the original where it was
        np.testing.assert_array_equal(src.std_normal(1001), normals)
        np.testing.assert_array_equal(src.bits(7), bits)

    def test_seed_validation(self):
        with pytest.raises(DomainError):
            RandomSource(-1)
        with pytest.raises(DomainError):
            RandomSource(2**64)
