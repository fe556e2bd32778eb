"""BSEC transition laws, parameter sampling, and the closed-form link map."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink.bsec import (
    MAX_PROFILE_BITS,
    BsecParams,
    RobustnessProfile,
    analytic_params,
    erasure_from_mu_array,
    sample_mu_matrix,
)
from semlink.errors import DomainError
from semlink.jscc import noisy_latent_sample
from semlink.numerics import (
    RandomSource,
    q_function_array,
    q_inverse_array,
)

from oracles import exact_params, q_function, q_inverse

Q05 = 0.3085375387259869
Q15 = 0.0668072012688581


def analytic_params_scalar(order, snr, a):
    """The closed form of analytic_params with one scalar q_function call per tail."""
    pref = (4.0 / order) * (1.0 - 2.0 ** (-order / 2))
    x = math.sqrt(3.0 * snr / ((1 << order) - 1))
    mu = pref * q_function((1.0 + a) * x)
    d = pref * (q_function((1.0 - a) * x) - q_function((1.0 + a) * x))
    return mu, d, 1.0 - mu - d


class TestParams:
    def test_valid_triple(self):
        p = BsecParams(0.1, 0.2, 0.7)
        assert p.mu + p.d + p.r == pytest.approx(1.0, abs=1e-15)

    def test_sum_enforced(self):
        with pytest.raises(DomainError):
            BsecParams(0.1, 0.2, 0.8)

    def test_range_enforced(self):
        with pytest.raises(DomainError):
            BsecParams(-0.1, 0.2, 0.9)


def transition(bits, p, rng):
    """One BSEC pass over sure bits, drawn with the training-time latent sampler."""
    bits = np.asarray(bits, dtype=float)
    return noisy_latent_sample(bits, p.mu, p.d, rng.random(bits.shape))


class TestTransition:
    def test_noiseless_identity(self):
        rng = RandomSource(1)
        noiseless = BsecParams(0.0, 0.0, 1.0)
        assert np.all(transition(np.ones(100), noiseless, rng) == 1.0)
        assert np.all(transition(np.zeros(100), noiseless, rng) == 0.0)

    def test_pure_erasure(self):
        rng = RandomSource(2)
        p = BsecParams(0.0, 1.0, 0.0)
        assert np.all(transition(np.tile([0, 1], 50), p, rng) == 0.5)

    def test_empirical_frequencies(self):
        p = BsecParams(0.1, 0.2, 0.7)
        rng = RandomSource(3)
        trits = transition(np.ones(10**6), p, rng)
        # CLT 3 sigma bounds ~ (9e-4, 1.2e-3, 1.4e-3)
        assert abs(np.mean(trits == 0.0) - 0.1) <= 9e-4
        assert abs(np.mean(trits == 0.5) - 0.2) <= 1.2e-3
        assert abs(np.mean(trits == 1.0) - 0.7) <= 1.4e-3

    def test_scalar_matches_law(self):
        p = BsecParams(0.3, 0.3, 0.4)
        rng = RandomSource(4)
        draws = transition(np.zeros(20000), p, rng)
        assert abs(np.mean(draws == 1.0) - 0.3) <= 0.01


class TestSampleMu:
    def test_degenerate_alpha(self):
        rng = RandomSource(5)
        assert np.all(sample_mu_matrix(np.zeros(3), 20, rng) == 0.0)

    def test_support_and_mean(self):
        rng = RandomSource(6)
        draws = sample_mu_matrix(np.array([0.4]), 10**5, rng)
        assert draws.min() >= 0.0 and draws.max() <= 0.4
        assert abs(draws.mean() - 0.2) <= 0.0015

    def test_matrix_mean_per_column(self):
        alphas = np.array([0.0, 0.2, 0.4])
        draws = sample_mu_matrix(alphas, 10**5, RandomSource(7))
        np.testing.assert_allclose(draws.mean(axis=0), [0.0, 0.1, 0.2], atol=0.002)

    def test_alpha_out_of_range(self):
        # the sampler's robustness levels come from a profile, which holds them
        with pytest.raises(DomainError):
            RobustnessProfile.homogeneous(4, 0.6)


class TestErasureFromMu:
    def test_frozen_value(self):
        # mu = Q(1.5) -> d = Q(0.5) - Q(1.5)
        d = erasure_from_mu_array(np.array([Q15]), 0.5)[0]
        assert d == pytest.approx(Q05 - Q15, abs=1e-10)

    def test_continuity_at_zero(self):
        # the decay is slow (Q of a third of the quantile) but monotone to 0
        d = erasure_from_mu_array(np.array([0.0, 1e-4, 1e-12, 1e-50, 1e-300]), 0.5)
        assert d[0] == 0.0
        seq = d[1:]
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert seq[-1] <= 1e-30

    def test_domain(self):
        for bad in (0.5, -0.01, math.nan):
            with pytest.raises(DomainError):
                erasure_from_mu_array(np.array([0.1, bad]), 0.5)

    @pytest.mark.parametrize("a", (1.5, -0.01, math.nan), ids=["above", "below", "nan"])
    def test_offset_domain(self, a):
        with pytest.raises(DomainError, match=r"boundary offsets must lie in \[0, 1\]"):
            erasure_from_mu_array(np.array([0.0, 0.1]), np.array([0.5, a]))

    def test_consistency_with_analytic_params(self):
        for snr in (0.5, 1.0, 2.0, 4.0):
            p = analytic_params(2, snr, 0.5)
            assert erasure_from_mu_array(np.array([p.mu]), 0.5)[0] == \
                pytest.approx(p.d, abs=1e-10)

    @pytest.mark.parametrize("a", (0.0, 0.25, 0.75, 1.0))
    def test_inverts_analytic_params(self, a):
        """At each offset, the map takes a closed-form triple's mu back to its d."""
        for snr in (0.1, 0.5, 1.0, 3.0, 10.0, 100.0):
            p = analytic_params(2, snr, a)
            d = erasure_from_mu_array(np.array([p.mu]), a)[0]
            assert d == pytest.approx(p.d, abs=1e-12), snr

    def test_offset_one_takes_the_limit(self):
        """At a = 1, Q^-1(0) = inf meets the factor 1 - a = 0: the map gives
        the limit 1/2 - mu, with no NaN and no warning."""
        mu = np.array([0.0, 1e-300, 0.1, 0.3])
        np.testing.assert_array_equal(erasure_from_mu_array(mu, 1.0), 0.5 - mu)

    def test_offsets_apply_per_bit(self):
        """A row of offsets applies column by column, as one call per offset."""
        mu = sample_mu_matrix(np.full(5, 0.45), 40, RandomSource(12))
        a = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        got = erasure_from_mu_array(mu, a)
        for j in range(a.size):
            np.testing.assert_array_equal(got[:, j], erasure_from_mu_array(mu[:, j], a[j]))
        assert np.all(got >= 0.0)

    def test_same_bits_as_the_composed_map(self):
        """The map equals Q(Q^-1(mu)/3) - mu composed from the allocating array
        functions, bit for bit, on a training-shaped batch with its edge values."""
        mu = sample_mu_matrix(np.full(64, 0.4), 256, RandomSource(11))
        mu[0, :5] = (0.0, 1e-300, 1e-12, 0.25, np.nextafter(0.5, 0.0))
        want = q_function_array(q_inverse_array(mu) / 3.0) - mu
        got = erasure_from_mu_array(mu, np.full(64, 0.5))
        assert got.shape == mu.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestAnalyticParams:
    def test_reference_point(self):
        p = analytic_params(2, 1.0, 0.5)
        assert p.mu == pytest.approx(0.0668072, abs=1e-7)
        assert p.r == pytest.approx(0.6914625, abs=1e-7)
        assert p.d == pytest.approx(0.2417303, abs=1e-7)

    def test_zero_offset_is_bsc(self):
        for m in (2, 4, 6):
            p = analytic_params(m, 1.7, 0.0)
            assert p.d == 0.0

    def test_order4_value(self):
        p = analytic_params(4, 10.0, 0.0)
        assert p.mu == pytest.approx(0.75 * q_function(math.sqrt(2.0)), abs=1e-12)

    def test_flip_probability_matches(self):
        assert analytic_params(2, 1.0, 0.5).mu == pytest.approx(Q15, abs=1e-10)

    def test_monotonicity(self):
        snrs = np.linspace(0.2, 8, 25)
        for m in (2, 4, 6):
            mus = [analytic_params(m, s, 0.3).mu for s in snrs]
            assert all(a > b for a, b in zip(mus, mus[1:]))
        offsets = np.linspace(0, 1, 21)
        for m in (2, 4, 6):
            mus = [analytic_params(m, 1.0, a).mu for a in offsets]
            assert all(a > b for a, b in zip(mus, mus[1:]))
            ds = [analytic_params(m, 1.0, a).d for a in offsets]
            assert all(a < b for a, b in zip(ds, ds[1:]))

    @given(
        st.sampled_from([2, 4, 6]),
        st.floats(min_value=0.05, max_value=50),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=200, deadline=None)
    def test_triple_always_normalized(self, m, snr, a):
        p = analytic_params(m, snr, a)
        assert abs(p.mu + p.d + p.r - 1.0) <= 1e-12

    def test_same_bits_as_the_scalar_composition(self):
        # orders 2/4/6, five offsets and -30 to 60 dB in 0.25 dB steps
        for m in (2, 4, 6):
            for a in (0.0, 0.25, 0.5, 0.75, 1.0):
                for snr_db in np.arange(-120, 241) / 4.0:
                    snr = 10.0 ** (float(snr_db) / 10.0)
                    p = analytic_params(m, snr, a)
                    got = (p.mu, p.d, p.r)
                    assert all(type(v) is float for v in got)
                    assert [v.hex() for v in got] == \
                        [v.hex() for v in analytic_params_scalar(m, snr, a)], (m, a, snr_db)

    def test_domain(self):
        with pytest.raises(DomainError):
            analytic_params(2, 0.0, 0.5)
        with pytest.raises(DomainError):
            analytic_params(2, 1.0, 1.5)


def exact_gray_qam_ber(m: int, snr: float) -> float:
    """Independent oracle: exact per-bit error rate of Gray square QAM.

    Full alternating-weight sum over all boundary crossings (not just the
    nearest), averaged over the bits of one axis.
    """
    levels = 2 ** (m // 2)
    x = math.sqrt(3.0 * snr / (2**m - 1))
    total = 0.0
    for k in range(1, m // 2 + 1):
        for i in range(int((1 - 2.0**-k) * levels)):
            w = (-1) ** math.floor(i * 2.0 ** (k - 1) / levels) * (
                2.0 ** (k - 1) - math.floor(i * 2.0 ** (k - 1) / levels + 0.5)
            )
            total += w * 2.0 / levels * q_function((2 * i + 1) * x)
    return total / (m // 2)


class TestExactParams:
    def test_matches_crossing_sum_oracle(self):
        # the oracle never reads the region tables, so a defect in
        # build_regions shared by the link and exact_params still shows
        for m in (2, 4, 6):
            for snr_db in range(-6, 25):
                snr = 10 ** (snr_db / 10)
                assert exact_params(m, snr, 0.0).mu == pytest.approx(
                    exact_gray_qam_ber(m, snr), abs=1e-12)

    def test_order2_matches_closed_form(self):
        for a in (0.0, 0.25, 0.5, 1.0):
            for snr in (0.1, 0.5, 1.0, 3.0, 20.0):
                e, p = exact_params(2, snr, a), analytic_params(2, snr, a)
                assert e.mu == pytest.approx(p.mu, abs=1e-12)
                assert e.d == pytest.approx(p.d, abs=1e-12)

    def test_zero_offset_is_bsc(self):
        for m in (2, 4, 6):
            assert exact_params(m, 1.7, 0.0).d == 0.0

    @given(
        st.sampled_from([2, 4, 6]),
        st.floats(min_value=0.05, max_value=50),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=200, deadline=None)
    def test_triple_always_normalized(self, m, snr, a):
        p = exact_params(m, snr, a)
        assert abs(p.mu + p.d + p.r - 1.0) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            exact_params(2, 0.0, 0.5)
        with pytest.raises(DomainError):
            exact_params(2, -1.0, 0.5)
        with pytest.raises(DomainError):
            exact_params(2, 1.0, 1.5)
        with pytest.raises(DomainError):
            exact_params(2, 1.0, -0.1)


class TestProfiles:
    def test_linear_ramp_endpoints(self):
        p = RobustnessProfile.linear_ramp(96, 0.29, 0.45, a=0.5)
        assert p.alphas[0] == pytest.approx(0.29)
        assert p.alphas[-1] == pytest.approx(0.45)
        diffs = np.diff(p.alphas)
        np.testing.assert_allclose(diffs, diffs[0], atol=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            RobustnessProfile(np.array([0.6]), np.array([0.5]))
        with pytest.raises(DomainError):
            RobustnessProfile(np.array([0.4]), np.array([1.2]))
        with pytest.raises(DomainError):
            RobustnessProfile(np.array([0.4, 0.4]), np.array([0.5]))

    def test_holds_read_only_copies(self):
        # the range check holds for the profile's life: the caller's arrays
        # stay writable and writing them leaves the profile as checked
        alphas, a_offsets = np.array([0.3, 0.4]), np.array([0.5, 1.0])
        p = RobustnessProfile(alphas, a_offsets)
        for mine, held in ((alphas, p.alphas), (a_offsets, p.a_offsets)):
            assert held.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0.9
            mine[0] = 0.9
            assert held[0] != 0.9
        assert RobustnessProfile([0, 0], [0, 1]).a_offsets.dtype == np.float64

    @pytest.mark.parametrize("copy_of", [lambda p: pickle.loads(pickle.dumps(p)),
                                         copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_copies_are_checked_read_only_profiles(self, copy_of):
        p = RobustnessProfile.linear_ramp(5, 0.1, 0.45, a=0.25)
        q = copy_of(p)
        for mine, theirs in ((p.alphas, q.alphas), (p.a_offsets, q.a_offsets)):
            np.testing.assert_array_equal(theirs, mine)
            assert theirs.dtype == np.float64 and not theirs.flags.writeable

    def test_unpickled_out_of_range_profile_rejected(self):
        bad = object.__new__(RobustnessProfile)  # skips the constructor's check
        object.__setattr__(bad, "alphas", np.array([0.4, 0.7]))
        object.__setattr__(bad, "a_offsets", np.array([0.5, 0.5]))
        blob = pickle.dumps(bad)
        with pytest.raises(DomainError) as err:
            pickle.loads(blob)
        assert str(err.value) == "robustness levels must lie in [0, 0.5], got 0.7 at bit 1"

    def test_width_bounded(self):
        assert len(RobustnessProfile.homogeneous(MAX_PROFILE_BITS, 0.4)) == MAX_PROFILE_BITS
        assert len(RobustnessProfile.linear_ramp(MAX_PROFILE_BITS, 0.1, 0.4)) == MAX_PROFILE_BITS
        for n in (MAX_PROFILE_BITS + 1, 10**20):
            message = f"a profile holds at most {MAX_PROFILE_BITS} bits, got {n}"
            with pytest.raises(DomainError) as err:
                RobustnessProfile.homogeneous(n, 0.4)
            assert str(err.value) == message
            with pytest.raises(DomainError) as err:
                RobustnessProfile.linear_ramp(n, 0.1, 0.4)
            assert str(err.value) == message

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="nonempty"):
            RobustnessProfile(np.array([]), np.array([]))
        with pytest.raises(DomainError):
            RobustnessProfile.homogeneous(0, 0.4)

    def test_nan_rejected(self):
        with pytest.raises(DomainError, match="robustness levels"):
            RobustnessProfile(np.array([0.4, np.nan]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError, match="boundary offsets"):
            RobustnessProfile(np.array([0.4, 0.4]), np.array([np.nan, 0.5]))
        with pytest.raises(DomainError):
            RobustnessProfile.homogeneous(4, float("nan"))

    def test_zero_profile_samples_noiseless(self):
        profile = RobustnessProfile.homogeneous(8, 0.0)
        mu = sample_mu_matrix(profile.alphas, 1, RandomSource(8))[0]
        d = erasure_from_mu_array(mu, profile.a_offsets)
        assert all(BsecParams(m, e, 1.0 - m - e) == BsecParams(0.0, 0.0, 1.0) for m, e in zip(mu, d))

    def test_sampled_pairs_satisfy_matching_relation(self):
        profile = RobustnessProfile.homogeneous(64, 0.4)
        mu = sample_mu_matrix(profile.alphas, 1, RandomSource(9))[0]
        for m, e in zip(mu, erasure_from_mu_array(mu, profile.a_offsets)):
            p = BsecParams(m, e, 1.0 - m - e)
            assert p.d == pytest.approx(q_function(q_inverse(m) / 3.0) - m, abs=1e-14)
            assert p.r == pytest.approx(1 - p.mu - p.d, abs=1e-14)

    def test_independence_across_bits(self):
        draws = sample_mu_matrix(np.array([0.4, 0.4]), 10**5, RandomSource(10))
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) <= 0.01
