"""Fading/AWGN statistics and equalization round trips."""

import cmath
import math

import numpy as np
import pytest

from semlink.channel import (
    ChannelRealization,
    FixedSnr,
    UniformMagnitude,
    draw_channel,
    equalize,
    transmit,
)
from semlink.errors import DomainError
from semlink.numerics import RandomSource


def test_noiseless_transmit_is_exact():
    x = np.array([1 + 1j, -0.5 + 0.25j, 2 - 3j])
    ch = ChannelRealization(h=0.7 - 0.2j, noise_var=0.0)
    np.testing.assert_array_equal(transmit(x, ch, RandomSource(0)), ch.h * x)


def test_noiseless_equalize_roundtrip():
    x = np.exp(1j * np.linspace(0, 5, 64))
    ch = ChannelRealization(h=1.3 * cmath.exp(1j * 0.8), noise_var=0.0)
    y = transmit(x, ch, RandomSource(0))
    np.testing.assert_allclose(equalize(y, ch.h), x, atol=1e-12)


def test_real_positive_h_is_scalar_division():
    y = np.array([2 + 2j, -4 + 0j])
    np.testing.assert_allclose(equalize(y, 2.0), y / 2.0, atol=1e-15)


def test_zero_h_rejected():
    with pytest.raises(DomainError):
        equalize(np.array([1 + 0j]), 0)
    with pytest.raises(DomainError):
        ChannelRealization(h=0, noise_var=1.0)


@pytest.mark.parametrize("h", [1e-200, 1e-200j, complex(math.nan, 0.0), math.nan],
                         ids=["underflow-real", "underflow-imag", "nan-complex", "nan"])
def test_zero_or_nan_gain_rejected(h):
    # |h|^2 underflows to 0 or is NaN although h != 0
    with pytest.raises(DomainError, match="channel gain"):
        ChannelRealization(h=h, noise_var=1.0)


def test_noise_variance_and_split():
    n = 10**6
    x = np.zeros(n, dtype=complex)
    ch = ChannelRealization(h=1.0, noise_var=1.0)
    y = transmit(x, ch, RandomSource(21))
    noise = y - x
    assert abs(np.mean(np.abs(noise) ** 2) - 1.0) <= 0.005
    assert abs(noise.real.var() - 0.5) <= 0.0035
    assert abs(noise.imag.var() - 0.5) <= 0.0035
    corr = np.mean(noise.real * noise.imag)
    assert abs(corr) <= 0.005


def test_equalized_residual_variance_is_inverse_snr():
    # h = 2 e^{j pi/3}, sigma^2 = 1 -> SNR = 4, residual variance 1/4
    n = 10**6
    ch = ChannelRealization(h=2.0 * cmath.exp(1j * math.pi / 3), noise_var=1.0)
    x = np.full(n, 1 + 1j, dtype=complex) / math.sqrt(2)
    resid = equalize(transmit(x, ch, RandomSource(31)), ch.h) - x
    assert ch.snr == pytest.approx(4.0, abs=1e-12)
    assert abs(np.mean(np.abs(resid) ** 2) - 0.25) <= 0.002


class TestDrawChannel:
    def test_fixed_snr_magnitude_exact(self):
        ch = draw_channel(FixedSnr(snr=1.0, noise_var=1.0), RandomSource(3))
        assert abs(ch.h) == pytest.approx(1.0, abs=1e-12)
        assert ch.snr == pytest.approx(1.0, abs=1e-12)

    def test_uniform_magnitude_mean(self):
        rng = RandomSource(12)
        mags = [abs(draw_channel(UniformMagnitude(0.37, 2.5), rng).h) for _ in range(10**5)]
        assert abs(np.mean(mags) - 1.435) <= 0.01
        assert min(mags) >= 0.37 and max(mags) <= 2.5

    def test_phase_invariance_of_residual(self):
        # equalization cancels the drawn phase: residual variance is 1/SNR
        n = 200_000
        for seed in (1, 2, 3):
            rng = RandomSource(seed)
            ch = draw_channel(FixedSnr(snr=2.0), rng)
            x = np.zeros(n, dtype=complex)
            resid = equalize(transmit(x, ch, rng), ch.h)
            assert abs(np.mean(np.abs(resid) ** 2) - 0.5) <= 0.01

    def test_invalid_distributions(self):
        with pytest.raises(DomainError):
            FixedSnr(snr=0.0)
        with pytest.raises(DomainError):
            FixedSnr(snr=math.nan)
        with pytest.raises(DomainError):
            ChannelRealization(h=1.0, noise_var=math.nan)
        with pytest.raises(DomainError):
            UniformMagnitude(2.0, 1.0)
        with pytest.raises(DomainError):
            UniformMagnitude(-0.1, 1.0)
        for g2 in (math.inf, 1e300):  # |h|^2 overflows
            with pytest.raises(DomainError, match="g2"):
                UniformMagnitude(0.0, g2)
