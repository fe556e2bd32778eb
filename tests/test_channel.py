"""Fading/AWGN statistics and equalization round trips."""

import cmath
import math

import numpy as np
import pytest

from semlink.channel import (
    FixedSnr,
    UniformMagnitude,
    block_gains,
    draw_channels,
    equalize,
    transmit,
)
from semlink.errors import DomainError
from semlink.numerics import RandomSource

from oracles import draw_channel_scalar


def test_noiseless_equalize_roundtrip():
    x = np.exp(1j * np.linspace(0, 5, 64))
    h = 1.3 * cmath.exp(1j * 0.8)
    np.testing.assert_allclose(equalize(h * x, h), x, atol=1e-12)


def test_real_positive_h_is_scalar_division():
    y = np.array([2 + 2j, -4 + 0j])
    np.testing.assert_allclose(equalize(y, 2.0), y / 2.0, atol=1e-15)


def test_zero_h_rejected():
    # NaN and a |h| whose square underflows are as unusable as h == 0
    for h in (0, math.nan, 1e-200):
        with pytest.raises(DomainError):
            equalize(np.array([1 + 0j]), h)


def test_overflowing_gain_rejected():
    # |h|^2 = 1e-320 is positive but subnormal: conj(h)/|h|^2 overflows
    with pytest.raises(DomainError, match=r"equalizer gain conj\(h\)/\|h\|\^2 must be finite"):
        equalize(np.array([1 + 0j]), 1e-160)
    with pytest.raises(DomainError, match="equalizer gain"):
        block_gains(np.array([1.0, 1e-160j, 2.0]))
    with pytest.raises(DomainError, match="must be positive, got 0.0"):
        block_gains(np.array([1.0, 1e-160, 1e-200]))


@pytest.mark.parametrize("h", [1e-200, 1e-200j, complex(math.nan, 0.0), math.nan],
                         ids=["underflow-real", "underflow-imag", "nan-complex", "nan"])
def test_zero_or_nan_gain_rejected(h):
    # |h|^2 underflows to 0 or is NaN although h != 0
    with pytest.raises(DomainError, match="channel gain"):
        block_gains(np.array([1.0, h]))


def test_unit_noise_power_and_split():
    n = 10**6
    x = np.zeros(n, dtype=complex)
    y = transmit(x, 1.0, RandomSource(21))
    noise = y - x
    assert abs(np.mean(np.abs(noise) ** 2) - 1.0) <= 0.005
    assert abs(noise.real.var() - 0.5) <= 0.0035
    assert abs(noise.imag.var() - 0.5) <= 0.0035
    corr = np.mean(noise.real * noise.imag)
    assert abs(corr) <= 0.005


def test_equalized_residual_variance_is_inverse_snr():
    # h = 2 e^{j pi/3} over unit noise -> SNR = 4, residual variance 1/4
    n = 10**6
    h = 2.0 * cmath.exp(1j * math.pi / 3)
    x = np.full(n, 1 + 1j, dtype=complex) / math.sqrt(2)
    resid = equalize(transmit(x, h, RandomSource(31)), h) - x
    assert abs(h) ** 2 == pytest.approx(4.0, abs=1e-12)
    assert abs(np.mean(np.abs(resid) ** 2) - 0.25) <= 0.002


class TestDrawChannel:
    def test_fixed_snr_magnitude_exact(self):
        # the block's SNR is |h|^2
        h = draw_channels(FixedSnr(snr=4.0), 1, RandomSource(3))
        assert abs(h[0]) == pytest.approx(2.0, abs=1e-12)
        assert block_gains(h)[0][0] == pytest.approx(4.0, abs=1e-12)

    def test_uniform_magnitude_mean(self):
        mags = np.abs(draw_channels(UniformMagnitude(0.37, 2.5), 10**5, RandomSource(12)))
        assert abs(np.mean(mags) - 1.435) <= 0.01
        assert min(mags) >= 0.37 and max(mags) <= 2.5

    def test_phase_invariance_of_residual(self):
        # equalization cancels the drawn phase: residual variance is 1/SNR
        n = 200_000
        for seed in (1, 2, 3):
            rng = RandomSource(seed)
            h = complex(draw_channels(FixedSnr(snr=2.0), 1, rng)[0])
            x = np.zeros(n, dtype=complex)
            resid = equalize(transmit(x, h, rng), h)
            assert abs(np.mean(np.abs(resid) ** 2) - 0.5) <= 0.01

    def test_invalid_distributions(self):
        with pytest.raises(DomainError):
            FixedSnr(snr=0.0)
        with pytest.raises(DomainError):
            FixedSnr(snr=math.nan)
        with pytest.raises(DomainError):
            UniformMagnitude(2.0, 1.0)
        with pytest.raises(DomainError):
            UniformMagnitude(-0.1, 1.0)
        for g2 in (math.inf, 1e300):  # |h|^2 overflows
            with pytest.raises(DomainError, match="g2"):
                UniformMagnitude(0.0, g2)


class TestDrawChannels:
    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("dist", [FixedSnr(snr=2.5), UniformMagnitude(0.37, 2.5)],
                             ids=["fixed", "uniform"])
    def test_equals_scalar_draws(self, dist, n):
        # one array draw gives the bytes of n scalar draws, |h|^2 (the SNR) and
        # equalize's gain included, and leaves the stream where they leave it
        rng, ref = RandomSource(5), RandomSource(5)
        h = draw_channels(dist, n, rng)
        hs = [draw_channel_scalar(dist, ref) for _ in range(n)]
        assert h.shape == (n,)
        assert h.tobytes() == np.array(hs).tobytes()
        g2, gain = block_gains(h)
        assert g2.tobytes() == np.array([abs(hb) ** 2 for hb in hs]).tobytes()
        assert gain.tobytes() == np.array([np.conj(hb) / abs(hb) ** 2 for hb in hs]).tobytes()
        assert rng.random(5).tobytes() == ref.random(5).tobytes()
