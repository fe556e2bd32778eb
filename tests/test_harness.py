"""Link Monte Carlo closure, block transport, and full-system evaluation."""

import math
import tracemalloc

import numpy as np
import pytest

from semlink.adaptmod import HETEROGENEOUS_BETAS, ModPlan, plan_from_thresholds, threshold_table
from semlink.bsec import RobustnessProfile, analytic_params
from semlink.channel import FixedSnr, UniformMagnitude, draw_channels, equalize, transmit
from semlink.constellation import build_constellation, pack_bits
from semlink.demod import build_regions
from semlink.datasets import Dataset, synth_dataset
from semlink.errors import ConfigError, DomainError
from semlink import harness
from semlink.harness import (
    chi_square_homogeneity,
    run_end_to_end,
    run_link_montecarlo,
    transport_block,
    trit_histogram_bsec,
    trit_histogram_link,
)
from semlink.jscc import TrainingConfig, build_models, train
from semlink.numerics import RandomSource

from oracles import (
    link_montecarlo_per_chunk,
    mean_adaptive_se,
    plan_groups,
    run_end_to_end_per_block,
    transport_block_per_group,
)


def clt3(p, n):
    return 3.0 * math.sqrt(p * (1 - p) / n)


# A permuted ramp with mixed offsets: an adaptive row alternates orders
# (2, 4, 6, 4, 2, ...), so each order forms several runs in a row.
PERMUTED = RobustnessProfile(np.linspace(0.29, 0.45, 24)[RandomSource(3).permutation(24)],
                             np.resize([0.0, 0.5, 1.0, 0.25], 24))


class TestLinkMonteCarlo:
    def test_order2_hard_decision_flip_rate(self):
        stats = run_link_montecarlo(2, 0.0, 0.0, 10**6, RandomSource(42))
        assert abs(stats.flip_rate - 0.1587) <= 0.0011
        assert stats.erasures == 0

    def test_order2_robust_rates(self):
        stats = run_link_montecarlo(2, 0.0, 0.5, 10**6, RandomSource(43))
        assert abs(stats.flip_rate - 0.0668) <= 0.0008
        assert abs(stats.erasure_rate - 0.2417) <= 0.0013

    def test_effectively_noiseless(self):
        stats = run_link_montecarlo(4, 200.0, 0.5, 10**5, RandomSource(44))
        assert stats.flips == 0 and stats.erasures == 0

    def test_counts_partition(self):
        stats = run_link_montecarlo(6, 3.0, 0.25, 30000, RandomSource(45))
        assert stats.flips + stats.erasures + stats.corrects == stats.n_bits
        total = stats.flip_rate + stats.erasure_rate + stats.correct_rate
        assert total == pytest.approx(1.0, abs=1e-12)
        # Python ints: a numpy count would repr as np.int64(...)
        assert {type(v) for v in (stats.n_bits, stats.flips, stats.erasures,
                                  stats.corrects)} == {int}

    @pytest.mark.parametrize("n_bits", [0, harness.MAX_LINK_BITS + 1])
    def test_bit_count_out_of_range(self, n_bits):
        with pytest.raises(DomainError, match=r"n_bits must be in \[1, 100000000\]"):
            run_link_montecarlo(2, 0.0, 0.0, n_bits, RandomSource(47))

    @pytest.mark.parametrize("order", (2, 4, 6))
    @pytest.mark.parametrize("a", (0.0, 0.5))
    def test_closure_against_analytic(self, order, a):
        snr_db = {2: 0.0, 4: 7.0, 6: 12.0}[order]
        stats = run_link_montecarlo(order, snr_db, a, 4 * 10**5, RandomSource(46))
        p = analytic_params(order, 10 ** (snr_db / 10), a)
        if order == 2:
            assert abs(stats.flip_rate - p.mu) <= clt3(p.mu, stats.n_bits)
            assert abs(stats.erasure_rate - p.d) <= clt3(max(p.d, 1e-12), stats.n_bits) + 1e-12
        else:
            assert abs(stats.flip_rate - p.mu) / p.mu <= 0.15

    @pytest.mark.parametrize("order", (2, 4, 6))
    @pytest.mark.parametrize("a", (0.0, 0.25, 0.5, 1.0))
    @pytest.mark.parametrize("snr_db", (-3.0, 6.0, 40.0))
    def test_equals_whole_array_run(self, order, a, snr_db):
        """The run equals the reference that carries each chunk as whole arrays
        through transmit and equalize, at and around the chunk edges."""
        edge = harness.LINK_CHUNK_BITS // order * order  # bits in one full chunk
        for n_bits in (1, 5, 7, edge - 1, edge, edge + 1, 2 * edge + 3, 3 * edge - 2,
                       10**5 + 1):
            assert run_link_montecarlo(order, snr_db, a, n_bits, RandomSource(48)) == \
                link_montecarlo_per_chunk(order, snr_db, a, n_bits, RandomSource(48)), n_bits

    def test_memory_is_flat(self):
        """Traced peak memory of a run does not grow with the number of bits."""
        peaks = []
        for n_bits in (10**5, 10**6, 10**7):
            tracemalloc.start()
            try:
                run_link_montecarlo(2, 6.0, 0.5, n_bits, RandomSource(49))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] < 1.2 * peaks[0], peaks


class TestTransportBlock:
    def test_noiseless_roundtrip_mixed_plan(self):
        profile = RobustnessProfile.linear_ramp(96, 0.29, 0.45, a=0.5)
        table = threshold_table(profile, HETEROGENEOUS_BETAS)
        plan = plan_from_thresholds(1.0, table)
        assert len(set(plan.orders)) == 3
        rng = RandomSource(5)
        bits = rng.bits(96 * 10).reshape(10, 96)
        h = draw_channels(FixedSnr(snr=1e9), 1, rng)[0]
        trits, n_sym = transport_block(bits, plan, profile.a_offsets, h, rng)
        np.testing.assert_array_equal(trits, bits.astype(float))
        assert n_sym == plan.symbol_count

    def test_heterogeneous_offsets_respected(self):
        # a=0 bits never erase; a=1 bits erase often at low SNR
        profile = RobustnessProfile(np.full(8, 0.4), np.array([0.0] * 4 + [1.0] * 4))
        plan = ModPlan((2,) * 8)
        rng = RandomSource(6)
        erased_low = erased_high = 0
        for _ in range(200):
            bits = rng.bits(8).reshape(1, 8)
            h = draw_channels(FixedSnr(snr=1.0), 1, rng)[0]
            trits, _ = transport_block(bits, plan, profile.a_offsets, h, rng)
            erased_low += int(np.sum(trits[0, :4] == 0.5))
            erased_high += int(np.sum(trits[0, 4:] == 0.5))
        assert erased_low == 0
        assert erased_high > 100

    def test_flip_statistics_match_link(self):
        profile = RobustnessProfile.homogeneous(32, 0.4, a=0.5)
        plan = ModPlan((4,) * 32)
        rng = RandomSource(7)
        bits = rng.bits(32 * 400).reshape(400, 32)
        h = draw_channels(FixedSnr(snr=4.0), 1, rng)[0]
        trits, _ = transport_block(bits, plan, profile.a_offsets, h, rng)
        p = analytic_params(4, 4.0, 0.5)
        flip_rate = np.mean(trits == 1 - bits)
        assert abs(flip_rate - p.mu) / p.mu <= 0.2

    @pytest.mark.parametrize("phase", [1.0, 0.0])
    @pytest.mark.parametrize("rows", [1, 3, 10])
    @pytest.mark.parametrize("snr", [0.3, 1.0, 3.0, 20.0, 1e4])
    def test_equals_per_group_transport(self, snr, rows, phase):
        # plans with one, two and three orders; odd run lengths need padding;
        # a complex h and a real one (phase 0)
        alphas = np.linspace(0.29, 0.45, 37)
        a_offsets = np.resize([0.0, 0.25, 0.5, 1.0, 0.75], 37)
        adaptive = plan_from_thresholds(snr, threshold_table(
            RobustnessProfile(alphas, a_offsets), HETEROGENEOUS_BETAS))
        permuted = plan_from_thresholds(snr, threshold_table(PERMUTED, HETEROGENEOUS_BETAS))
        h = 0.9 * np.exp(1j * phase) * math.sqrt(snr)
        # fixed-order plans: 36 bits is one unpadded run at every order, 37 is padded
        plans = [(adaptive, a_offsets), (permuted, PERMUTED.a_offsets)] + \
            [(ModPlan((order,) * n), a_offsets[:n]) for order in (2, 4, 6) for n in (36, 37)]
        for plan, a in plans:
            bits = RandomSource(11).bits(len(a) * rows).reshape(rows, len(a))
            trits, n_sym = transport_block(bits, plan, a, h, RandomSource(12))
            expected, expected_sym = transport_block_per_group(bits, plan, a, h, RandomSource(12))
            assert np.array_equal(trits, expected), plan
            assert n_sym == expected_sym

    def test_zero_bit_plan_rejected(self):
        with pytest.raises(ConfigError, match="plan covers no bits"):
            transport_block(np.zeros((1, 0)), ModPlan(()), np.zeros(0), 1.0, RandomSource(14))

    @pytest.mark.parametrize("n_offsets", [36, 38])
    def test_offset_count_must_match_plan(self, n_offsets):
        bits = RandomSource(13).bits(37).reshape(1, 37)
        with pytest.raises(ConfigError, match=f"a_offsets covers {n_offsets} bits, not 37"):
            transport_block(bits, ModPlan((2,) * 37), np.zeros(n_offsets), 1.0, RandomSource(14))

    @pytest.mark.parametrize("h,match", [
        (math.nan, "channel gain"),
        (1e-160, "equalizer gain"),
    ], ids=["nan-h", "subnormal-gain"])
    def test_bad_channel_rejected(self, h, match):
        bits = RandomSource(13).bits(4).reshape(1, 4)
        with pytest.raises(DomainError, match=match):
            transport_block(bits, ModPlan((2,) * 4), np.zeros(4), h, RandomSource(14))

    def test_mixed_offsets_match_per_bit_regions(self):
        # every bit keeps its own offset across a mixed-order plan: replay the
        # same noise and demodulate each bit with build_regions(c, a_i)
        alphas = np.linspace(0.29, 0.45, 96)
        a_offsets = np.resize([0.0, 0.25, 0.5, 1.0, 0.75], 96)
        plan = plan_from_thresholds(1.0, threshold_table(
            RobustnessProfile(alphas, a_offsets), HETEROGENEOUS_BETAS))
        assert len(set(plan.orders)) == 3
        bits = RandomSource(8).bits(96 * 6).reshape(6, 96)
        h = draw_channels(FixedSnr(snr=3.0), 1, RandomSource(9))[0]
        trits, _ = transport_block(bits, plan, a_offsets, h, RandomSource(10))

        noise_rng = RandomSource(10)
        expected = np.empty(bits.shape)
        for order, idxs in plan_groups(plan.orders):
            c = build_constellation(order)
            padded = np.pad(bits[:, idxs], ((0, 0), (0, (-len(idxs)) % order)))
            words = pack_bits(padded.reshape(-1), order)
            y = equalize(transmit(c.points[words], h, noise_rng), h).reshape(6, -1)
            for slot, i in enumerate(idxs):
                br = build_regions(c, a_offsets[i]).bits[slot % order]
                word = y[:, slot // order]
                expected[:, i] = br.classify(word.real if br.axis == 0 else word.imag)
        np.testing.assert_array_equal(trits, expected)


class TestStatisticalEquivalence:
    def test_chi_square_accepts_matched_channels(self):
        h_link = trit_histogram_link(1.0, 0.5, 10**5, RandomSource(77))
        h_bsec = trit_histogram_bsec(1.0, 0.5, 10**5, RandomSource(78))
        _, p = chi_square_homogeneity(h_link, h_bsec)
        assert p > 0.01

    def test_chi_square_rejects_mismatched_channels(self):
        h_link = trit_histogram_link(1.0, 0.5, 10**5, RandomSource(79))
        h_wrong = trit_histogram_bsec(4.0, 0.5, 10**5, RandomSource(80))
        _, p = chi_square_homogeneity(h_link, h_wrong)
        assert p < 1e-6

    def test_statistic_zero_for_identical_tables(self):
        h = np.array([100, 200, 700])
        stat, p = chi_square_homogeneity(h, h)
        assert stat == 0.0 and p == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_counts(self, bad):
        with pytest.raises(DomainError, match="finite nonnegative"):
            chi_square_homogeneity(np.array([100.0, bad, 700.0]), np.array([100, 200, 700]))


class TestMeanSe:
    def test_reference_band(self):
        profile = RobustnessProfile.linear_ramp(96, 0.29, 0.45, a=0.5)
        se = mean_adaptive_se(UniformMagnitude(0.37, 2.5), profile,
                              HETEROGENEOUS_BETAS, 5000, RandomSource(8))
        assert 3.6 <= se <= 4.0


@pytest.fixture(scope="module")
def trained_setup():
    ds = synth_dataset(6, 32, 40, 1.0, RandomSource(90))
    profile = RobustnessProfile.homogeneous(24, 0.4, a=0.5)
    cfg = TrainingConfig(profile=profile, epochs=25, warmup_epochs=5, batch_size=64,
                         seed=13, enc_hidden=(32,), dec_hidden=(32,), clf_hidden=(32,))
    result = train(ds, cfg)
    return ds, profile, result.models


class TestEndToEnd:
    def test_noiseless_matches_clean_stochastic_accuracy(self, trained_setup):
        from semlink.jscc import eval_under_bsec

        ds, profile, models = trained_setup
        metrics = run_end_to_end(models, FixedSnr(snr=1e9), profile,
                                 HETEROGENEOUS_BETAS, False, ds, RandomSource(91))
        acc_clean, _ = eval_under_bsec(models, ds, 0.0, 0.0, RandomSource(92))
        assert metrics["flip_rate"] == 0.0
        assert metrics["erasure_rate"] == 0.0
        assert metrics["accuracy"] == pytest.approx(acc_clean, abs=0.05)

    def test_adaptive_vs_fixed_at_high_snr(self, trained_setup):
        ds, profile, models = trained_setup
        snr = 50.0  # sqrt(snr) ~ 7.07, above every threshold
        adaptive = run_end_to_end(models, FixedSnr(snr=snr), profile,
                                  HETEROGENEOUS_BETAS, True, ds, RandomSource(93))
        fixed = run_end_to_end(models, FixedSnr(snr=snr), profile,
                               HETEROGENEOUS_BETAS, False, ds, RandomSource(94))
        assert adaptive["spectral_efficiency"] == pytest.approx(6.0)
        assert fixed["spectral_efficiency"] == pytest.approx(2.0)
        assert adaptive["accuracy"] == pytest.approx(fixed["accuracy"], abs=0.05)

    def test_reproducible(self, trained_setup):
        ds, profile, models = trained_setup
        a = run_end_to_end(models, UniformMagnitude(0.37, 2.5), profile,
                           HETEROGENEOUS_BETAS, True, ds, RandomSource(95))
        b = run_end_to_end(models, UniformMagnitude(0.37, 2.5), profile,
                           HETEROGENEOUS_BETAS, True, ds, RandomSource(95))
        assert a == b

    def test_unsupported_fixed_order_rejected(self, trained_setup):
        ds, profile, models = trained_setup
        with pytest.raises(ConfigError, match="unsupported modulation order 3"):
            run_end_to_end(models, FixedSnr(snr=4.0), profile, HETEROGENEOUS_BETAS,
                           False, ds, RandomSource(97), fixed_order=3)

    def test_empty_dataset_rejected(self, trained_setup):
        ds, profile, models = trained_setup
        empty = Dataset(features=ds.features[:0], labels=ds.labels[:0], n_classes=ds.n_classes)
        with pytest.raises(ConfigError, match="dataset is empty"):
            run_end_to_end(models, FixedSnr(snr=4.0), profile, HETEROGENEOUS_BETAS,
                           False, empty, RandomSource(96))

    def test_bit_bias_reported(self, trained_setup):
        ds, profile, models = trained_setup
        metrics = run_end_to_end(models, FixedSnr(snr=4.0), profile,
                                 HETEROGENEOUS_BETAS, False, ds, RandomSource(96))
        assert 0.0 < metrics["bit_bias"] < 1.0


@pytest.fixture(scope="module")
def mixed_setup():
    """Untrained default-width stacks over 16 features and 24 bits, with two
    profiles of mixed offsets: a ramp and the permuted ramp PERMUTED."""
    ramp = RobustnessProfile(np.linspace(0.29, 0.45, 24), PERMUTED.a_offsets)
    config = TrainingConfig(profile=ramp, epochs=1, warmup_epochs=0)
    models = build_models(16, 4, config, RandomSource(40))
    return synth_dataset(4, 16, 25, 1.0, RandomSource(41)), (ramp, PERMUTED), models


class TestChunkedPass:
    """run_end_to_end against the block-by-block pass it replaces, dict for dict."""

    @pytest.mark.parametrize("chunk_blocks", [1, 4, None], ids=["1-block", "4-blocks", "all"])
    @pytest.mark.parametrize("channel", [UniformMagnitude(0.37, 2.5), FixedSnr(snr=3.0)],
                             ids=["uniform", "fixed"])
    @pytest.mark.parametrize("adaptive,order", [(True, 2), (False, 2), (False, 4), (False, 6)],
                             ids=["adaptive", "order2", "order4", "order6"])
    @pytest.mark.parametrize("per_block", [1, 3, 7, 10])
    def test_equals_per_block_pass(self, mixed_setup, monkeypatch, per_block, adaptive,
                                   order, channel, chunk_blocks):
        ds, profiles, models = mixed_setup
        entries = 10**9 if chunk_blocks is None else chunk_blocks * per_block * len(PERMUTED)
        monkeypatch.setattr(harness, "CHUNK_ENTRIES", entries)
        kwargs = dict(images_per_block=per_block, fixed_order=order)
        # a fixed-order pass reads only the offsets, which both profiles share
        for profile in profiles if adaptive else profiles[:1]:
            args = (models, channel, profile, HETEROGENEOUS_BETAS, adaptive, ds)
            assert run_end_to_end(*args, RandomSource(42), **kwargs) == \
                run_end_to_end_per_block(*args, RandomSource(42), **kwargs), profile


def test_end_to_end_memory_is_bounded():
    """Traced peak memory of a pass does not grow with the number of images."""
    profile = RobustnessProfile.linear_ramp(64, 0.29, 0.45, a=0.5)
    models = build_models(64, 10, TrainingConfig(profile=profile), RandomSource(44))
    peaks = []
    for per_class in (100, 400):
        ds = synth_dataset(10, 64, per_class, 2.0, RandomSource(45))
        tracemalloc.start()
        try:
            run_end_to_end(models, UniformMagnitude(0.37, 2.5), profile, HETEROGENEOUS_BETAS,
                           True, ds, RandomSource(46))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0]
