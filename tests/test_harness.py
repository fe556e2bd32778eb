"""Link Monte Carlo closure, block transport, and full-system evaluation."""

import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from semlink.adaptmod import (
    HETEROGENEOUS_BETAS,
    ModPlan,
    plan_from_thresholds,
    symbol_runs,
    threshold_table,
)
from semlink.bsec import RobustnessProfile, analytic_params, erasure_from_mu_array
from semlink.channel import (
    FixedSnr,
    UniformMagnitude,
    block_gains,
    draw_channels,
    equalize,
    transmit,
)
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
)
from semlink.jscc import TrainingConfig, build_models, noisy_latent_sample, train
from semlink.numerics import RandomSource

from oracles import (
    exact_params,
    link_montecarlo_per_chunk,
    mean_adaptive_se,
    plan_groups,
    plan_symbol_count,
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

    @pytest.mark.parametrize("n_bits", [1000, 3 * 2 ** 16 + 1], ids=["one-chunk", "four-chunk"])
    def test_fields_are_python_numbers(self, n_bits):
        """Counts are Python ints and rates Python floats, over one chunk or
        several: a numpy scalar would repr as np.int64(...)."""
        stats = run_link_montecarlo(4, 3.0, 0.5, n_bits, RandomSource(45))
        assert [type(getattr(stats, f)) for f in ("n_bits", "flips", "erasures", "corrects",
                                                  "flip_rate", "erasure_rate", "correct_rate")] \
            == [int] * 4 + [float] * 3

    @pytest.mark.parametrize("n_bits", [0, harness.MAX_LINK_BITS + 1])
    def test_bit_count_out_of_range(self, n_bits):
        with pytest.raises(DomainError, match=r"n_bits must be in \[1, 100000000\]"):
            run_link_montecarlo(2, 0.0, 0.0, n_bits, RandomSource(47))

    def test_numpy_integer_bit_count_accepted(self):
        stats = run_link_montecarlo(2, 0.0, 0.5, np.int64(1000), RandomSource(47))
        assert stats == run_link_montecarlo(2, 0.0, 0.5, 1000, RandomSource(47))
        assert type(stats.n_bits) is int

    @pytest.mark.parametrize("a", [2.0, math.nan, -0.1])
    def test_bad_offset_rejected_before_any_draw(self, a):
        rng = RandomSource(47)
        with pytest.raises(DomainError) as err:
            run_link_montecarlo(2, 0.0, a, 100, rng)
        assert str(err.value) == f"boundary offset must lie in [0, 1], got {a}"
        # the run did not split its stream: the next split is the first
        np.testing.assert_array_equal(rng.split(1)[0].random(3),
                                      RandomSource(47).split(1)[0].random(3))

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
        edge = harness.CHUNK_ENTRIES // order * order  # bits in one full chunk
        for n_bits in (1, 5, 7, edge - 1, edge, edge + 1, 2 * edge + 3, 3 * edge - 2,
                       10**5 + 1):
            assert run_link_montecarlo(order, snr_db, a, n_bits, RandomSource(48)) == \
                link_montecarlo_per_chunk(order, snr_db, a, n_bits, RandomSource(48)), n_bits

    @pytest.mark.parametrize("order", (2, 4, 6))
    @pytest.mark.parametrize("a", (0.0, 0.5))
    def test_16_chunk_run_equals_whole_array_run(self, order, a):
        """A 16-chunk run ending in a short chunk equals the whole-array
        reference."""
        n_bits = 16 * (harness.CHUNK_ENTRIES // order * order) - order - 1
        assert run_link_montecarlo(order, 6.0, a, n_bits, RandomSource(54)) == \
            link_montecarlo_per_chunk(order, 6.0, a, n_bits, RandomSource(54))

    def test_runs_without_sched_getaffinity(self, monkeypatch):
        """A run of several chunks needs no os.sched_getaffinity, which only
        some platforms have."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        n_bits = 3 * harness.CHUNK_ENTRIES + 1
        assert run_link_montecarlo(2, 6.0, 0.5, n_bits, RandomSource(57)) == \
            link_montecarlo_per_chunk(2, 6.0, 0.5, n_bits, RandomSource(57))

    @pytest.mark.parametrize("n_chunks", (1, 2, 4))
    def test_draws_ahead_on_one_worker(self, monkeypatch, n_chunks):
        """Chunk 0 is drawn inline and every later chunk on one worker thread,
        with no more than one extra thread alive; a one-chunk run starts none."""
        real_bits = RandomSource.bits
        seen = []

        def recorded_bits(self, n):
            seen.append((threading.get_ident(), threading.active_count()))
            return real_bits(self, n)

        monkeypatch.setattr(RandomSource, "bits", recorded_bits)
        before = threading.active_count()
        run_link_montecarlo(2, 6.0, 0.5, n_chunks * harness.CHUNK_ENTRIES, RandomSource(55))
        assert threading.active_count() == before
        assert len(seen) == n_chunks
        assert seen[0] == (threading.get_ident(), before)
        later = {ident for ident, _ in seen[1:]}
        assert len(later) == min(n_chunks - 1, 1)
        assert threading.get_ident() not in later
        assert all(count == before + 1 for _, count in seen[1:])

    @pytest.mark.parametrize("order", (2, 6))
    def test_run_under_fast_switching_equals_whole_array_run(self, order):
        """With threads switching every microsecond, a 9-chunk run equals the
        whole-array reference: no noise buffer is refilled while it is carried."""
        n_bits = 9 * harness.CHUNK_ENTRIES - 1
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = run_link_montecarlo(order, 3.0, 0.5, n_bits, RandomSource(56))
        finally:
            sys.setswitchinterval(interval)
        assert run == link_montecarlo_per_chunk(order, 3.0, 0.5, n_bits, RandomSource(56))

    def test_draw_error_ends_the_run_and_leaves_no_thread(self, monkeypatch):
        """A bit draw that fails on the third chunk ends the run with its error,
        no chunk is drawn after it, and no thread outlives the run."""
        real_bits = RandomSource.bits
        calls = []

        def failing_bits(self, n):
            calls.append(n)
            if len(calls) == 3:
                raise RuntimeError("third draw")
            return real_bits(self, n)

        monkeypatch.setattr(RandomSource, "bits", failing_bits)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="third draw"):
            run_link_montecarlo(2, 6.0, 0.5, 8 * harness.CHUNK_ENTRIES, RandomSource(53))
        assert threading.active_count() == before
        assert len(calls) == 3

    def test_carry_error_ends_the_run_and_leaves_no_thread(self, monkeypatch):
        """A demodulation that fails on the second chunk ends the run with its
        error, and no thread outlives the run."""
        real_demod = harness.demod_robust
        calls = []

        def failing_demod(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("second carry")
            return real_demod(*args, **kwargs)

        monkeypatch.setattr(harness, "demod_robust", failing_demod)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="second carry"):
            run_link_montecarlo(4, 6.0, 0.5, 8 * harness.CHUNK_ENTRIES, RandomSource(53))
        assert threading.active_count() == before
        assert len(calls) == 2

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


class TestFadeArithmetic:
    """_carry's faded, equalized samples against transmit then equalize, bit for bit."""

    @pytest.mark.parametrize("mag", [1e-150, 1.3, 1e150], ids=["tiny", "unit", "huge"])
    @pytest.mark.parametrize("order", (2, 4, 6))
    @pytest.mark.parametrize("path", ["whole", "gathered"])
    def test_samples_equal_transmit_then_equalize(self, path, order, mag):
        rows = 7
        # a run of whole symbols is read as slices; a padded one is gathered
        n_bits = 3 * order if path == "whole" else 3 * order - 1
        bits = RandomSource(50).bits(rows * n_bits).reshape(rows, n_bits)
        h = np.array([mag * complex(math.cos(2.0), math.sin(2.0))])
        symbols = rows * 3  # three symbols a row on either path
        store = {}
        harness._carry(bits, symbol_runs(np.full((1, n_bits), order)), np.array([rows]), h,
                       block_gains(h)[1], np.full(n_bits, 0.5),
                       RandomSource(51).std_normal(2 * symbols), store)
        padded = np.pad(bits, ((0, 0), (0, -n_bits % order)))
        x = build_constellation(order).points[pack_bits(padded.reshape(-1), order)]
        expected = equalize(transmit(x, h[0], RandomSource(51)), h[0])
        got = store["faded"][:expected.size]
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


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
        assert n_sym == plan_symbol_count(plan.orders)

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

    @pytest.mark.parametrize("n_orders", [36, 38])
    def test_plan_must_cover_the_bits(self, n_orders):
        bits = RandomSource(13).bits(37).reshape(1, 37)
        with pytest.raises(ConfigError, match=f"plan covers {n_orders} bits, not 37"):
            transport_block(bits, ModPlan((2,) * n_orders), np.zeros(37), 1.0, RandomSource(14))

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
        # same noise and classify each bit at its own a_i
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
            regions = build_regions(c, 0.0)
            for slot, i in enumerate(idxs):
                bit = slot % order
                word = y[:, slot // order]
                coords = word.real if bit < order // 2 else word.imag
                expected[:, i] = regions.bits[bit].classify(coords, a_offsets[i])
        np.testing.assert_array_equal(trits, expected)


def link_histogram(snr, a, n_bits, rng):
    """(flips, erasures, corrects) of the order-2 link at a linear snr, passed
    to run_link_montecarlo in decibels (snr 0 as -inf dB)."""
    stats = run_link_montecarlo(2, 10.0 * math.log10(snr) if snr else -math.inf, a, n_bits, rng)
    return np.array([stats.flips, stats.erasures, stats.corrects])


class TestStatisticalEquivalence:
    def test_chi_square_accepts_matched_channels(self):
        h_link = link_histogram(1.0, 0.5, 10**5, RandomSource(77))
        h_bsec = trit_histogram_bsec(1.0, 0.5, 10**5, RandomSource(78))
        _, p = chi_square_homogeneity(h_link, h_bsec)
        assert p > 0.01

    def test_training_sampler_matches_the_link_at_its_offset(self):
        """Training's sampler at a = 0.25, with mu fixed at the closed form's
        flip rate, then the erasure map, then the latent sampler on sure bits,
        gives the order-2 link's trit law. The a = 0.5 map erases about twice
        as often there, and the test tells it apart."""
        snr, a, n = 1.0, 0.25, 10**5
        h_link = link_histogram(snr, a, n, RandomSource(82))
        bits = RandomSource(83).bits(n)
        mu = np.full(n, analytic_params(2, snr, a).mu)
        for offset, accept in ((a, True), (0.5, False)):
            d = erasure_from_mu_array(mu, offset)
            trits = noisy_latent_sample(bits, mu, d, RandomSource(84).random(n))
            erasures = np.count_nonzero(trits == 0.5)
            corrects = np.count_nonzero(trits == bits)
            _, p = chi_square_homogeneity(h_link, [n - erasures - corrects, erasures, corrects])
            assert p > 0.01 if accept else p < 1e-6

    def test_chi_square_rejects_mismatched_channels(self):
        h_link = link_histogram(1.0, 0.5, 10**5, RandomSource(79))
        h_wrong = trit_histogram_bsec(4.0, 0.5, 10**5, RandomSource(80))
        _, p = chi_square_homogeneity(h_link, h_wrong)
        assert p < 1e-6

    # a negative snr has no decibel form, so the link skips that case
    @pytest.mark.parametrize("helper,snr,a,n_bits,message", [
        pytest.param(helper, snr, a, n_bits, message, id=f"{name}-{short}")
        for name, snr, a, n_bits, message in [
            ("snr-zero", 0.0, 0.5, 10, "snr must be positive, got 0.0"),
            ("snr-negative", -1.0, 0.5, 10, "snr must be positive, got -1.0"),
            ("snr-nan", math.nan, 0.5, 10, "snr must be positive, got nan"),
            ("offset", 1.0, 2.0, 10, "boundary offset must lie in [0, 1], got 2.0"),
            ("n-bits-zero", 1.0, 0.5, 0, f"n_bits must be in [1, {harness.MAX_LINK_BITS}], got 0"),
            ("n-bits-negative", 1.0, 0.5, -1,
             f"n_bits must be in [1, {harness.MAX_LINK_BITS}], got -1"),
            ("n-bits-float", 1.0, 0.5, 1e5, "n_bits must be an integer, got 100000.0"),
            ("n-bits-bool", 1.0, 0.5, True, "n_bits must be an integer, got True"),
        ]
        for helper, short in ((link_histogram, "link"), (trit_histogram_bsec, "bsec"))
        if not (helper is link_histogram and snr < 0)
    ])
    def test_histograms_reject_bad_input_alike(self, helper, snr, a, n_bits, message):
        rng = RandomSource(81)
        with pytest.raises(DomainError) as err:
            helper(snr, a, n_bits, rng)
        assert str(err.value) == message
        # nothing was drawn: the helper did not split its stream
        np.testing.assert_array_equal(rng.split(1)[0].random(3),
                                      RandomSource(81).split(1)[0].random(3))

    @pytest.mark.parametrize("call", [
        lambda: analytic_params(4, math.inf, 0.5),
        lambda: exact_params(4, math.inf, 0.5),
        lambda: run_link_montecarlo(2, math.inf, 0.5, 10, RandomSource(82)),
        # 10 ** 400 overflows a float, so 4000 dB is an infinite snr too
        lambda: run_link_montecarlo(2, 4000.0, 0.5, 10, RandomSource(82)),
        lambda: run_link_montecarlo(2, np.float64(4000.0), 0.5, 10, RandomSource(82)),
        lambda: trit_histogram_bsec(math.inf, 0.5, 10, RandomSource(82)),
    ], ids=["analytic", "exact", "link-mc-db", "link-mc-overflow", "link-mc-overflow-numpy",
            "histogram-bsec"])
    def test_infinite_snr_rejected_alike(self, call):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == "snr must be finite, got inf"

    def test_statistic_zero_for_identical_tables(self):
        h = np.array([100, 200, 700])
        stat, p = chi_square_homogeneity(h, h)
        assert stat == 0.0 and p == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_counts(self, bad):
        with pytest.raises(DomainError, match="finite nonnegative"):
            chi_square_homogeneity(np.array([100.0, bad, 700.0]), np.array([100, 200, 700]))

    def test_rejects_zero_expected_count(self):
        # no erasure in either histogram: that category's expected count is 0
        with pytest.raises(DomainError) as err:
            chi_square_homogeneity(np.array([100, 0, 700]), np.array([90, 0, 710]))
        assert str(err.value) == "a category has zero expected count; test undefined"


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
        rng = RandomSource(96)
        # the empty set is refused where it is built, so no run starts and nothing is drawn
        with pytest.raises(DomainError, match="^dataset is empty$"):
            run_end_to_end(models, FixedSnr(snr=4.0), profile, HETEROGENEOUS_BETAS, False,
                           Dataset(features=ds.features[:0], labels=ds.labels[:0],
                                   n_classes=ds.n_classes), rng)
        np.testing.assert_array_equal(rng.random(3), RandomSource(96).random(3))

    @pytest.mark.parametrize("per_block", [2.5, 3.0, math.nan, True, np.float64(2.0)],
                             ids=["fraction", "whole-float", "nan", "bool", "numpy-float"])
    def test_non_integer_block_size_rejected_before_any_draw(self, trained_setup, per_block):
        ds, profile, models = trained_setup
        rng = RandomSource(96)
        with pytest.raises(ConfigError) as err:
            run_end_to_end(models, FixedSnr(snr=4.0), profile, HETEROGENEOUS_BETAS,
                           True, ds, rng, images_per_block=per_block)
        assert str(err.value) == f"images_per_block must be an integer, got {per_block!r}"
        # the pass did not split its stream: the next split is the first
        np.testing.assert_array_equal(rng.split(1)[0].random(3),
                                      RandomSource(96).split(1)[0].random(3))

    def test_numpy_integer_block_size_accepted(self, trained_setup):
        ds, profile, models = trained_setup
        args = (models, UniformMagnitude(0.37, 2.5), profile, HETEROGENEOUS_BETAS, True, ds)
        assert run_end_to_end(*args, RandomSource(96), images_per_block=np.int32(7)) == \
            run_end_to_end(*args, RandomSource(96), images_per_block=7)

    def test_block_above_dataset_size_is_one_block(self, trained_setup):
        # a block size beyond any array dimension or slice index still means
        # one block holding every image, as in the per-block oracle
        ds, profile, models = trained_setup
        args = (models, UniformMagnitude(0.37, 2.5), profile, HETEROGENEOUS_BETAS, True, ds)
        whole = run_end_to_end(*args, RandomSource(96), images_per_block=len(ds.labels))
        assert whole == run_end_to_end_per_block(*args, RandomSource(96),
                                                 images_per_block=10**20)
        for per_block in (len(ds.labels) + 1, 2**63, 10**20):
            assert run_end_to_end(*args, RandomSource(96), images_per_block=per_block) == whole

    @pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "fixed"])
    def test_result_values_are_python_numbers(self, trained_setup, adaptive):
        """Every result value is a Python int or float, so the dict's repr, which
        the eval-adaptive benchmark digest hashes, names no numpy type."""
        ds, profile, models = trained_setup
        metrics = run_end_to_end(models, UniformMagnitude(0.37, 2.5), profile,
                                 HETEROGENEOUS_BETAS, adaptive, ds, RandomSource(98))
        assert {k: type(v) for k, v in metrics.items()} == {
            "n_images": int, "accuracy": float, "mse": float, "spectral_efficiency": float,
            "flip_rate": float, "erasure_rate": float, "bit_bias": float}

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


@pytest.fixture(scope="module")
def wide_setup():
    """Untrained stacks over 64 features and 64 bits, 2130 images, and two
    64-bit profiles: the README ramp and a permuted ramp with PERMUTED's
    mixed offsets."""
    ramp = RobustnessProfile.linear_ramp(64, 0.29, 0.45, a=0.5)
    permuted = RobustnessProfile(ramp.alphas[RandomSource(5).permutation(64)],
                                 np.resize(PERMUTED.a_offsets[:4], 64))
    models = build_models(64, 10, TrainingConfig(profile=ramp), RandomSource(50))
    ds = synth_dataset(10, 64, 213, 2.0, RandomSource(51))
    return ds, (ramp, permuted), models


@pytest.mark.parametrize("adaptive,order", [(True, 2), (False, 6)], ids=["adaptive", "order6"])
@pytest.mark.parametrize("which", [0, 1], ids=["ramp", "permuted"])
def test_default_chunks_equal_per_block_pass(wide_setup, which, adaptive, order):
    """At the default CHUNK_ENTRIES, 2130 images at 7 per block span at least
    three chunks, the last one short and ending in a short block."""
    ds, profiles, models = wide_setup
    chunk_images = harness.CHUNK_ENTRIES // (7 * 64) * 7
    assert len(ds.features) > 2 * chunk_images and len(ds.features) % chunk_images % 7
    args = (models, UniformMagnitude(0.37, 2.5), profiles[which], HETEROGENEOUS_BETAS,
            adaptive, ds)
    kwargs = dict(images_per_block=7, fixed_order=order)
    assert run_end_to_end(*args, RandomSource(52), **kwargs) == \
        run_end_to_end_per_block(*args, RandomSource(52), **kwargs)


def test_end_to_end_keeps_no_activations():
    """A pass whose last block is short leaves no model a cache."""
    profile = RobustnessProfile.homogeneous(12, 0.4, a=0.5)
    models = build_models(16, 4, TrainingConfig(profile=profile), RandomSource(47))
    triple = (models.encoder, models.decoder, models.classifier)
    for model in triple:
        model.forward(np.ones((3, model.in_dim)))  # a training-style forward caches
    ds = synth_dataset(5, 16, 5, 1.0, RandomSource(48))  # 25 images
    run_end_to_end(models, UniformMagnitude(0.37, 2.5), profile, HETEROGENEOUS_BETAS, True,
                   ds, RandomSource(49), images_per_block=10)
    assert [model._cache for model in triple] == [None, None, None]


def test_end_to_end_memory_is_bounded(monkeypatch):
    """Traced peak memory of a pass does not grow with the number of images:
    at a chunk size that holds the smaller pass (1000 images) exactly, the
    larger pass spans eight chunks, whatever the default chunk size."""
    profile = RobustnessProfile.linear_ramp(64, 0.29, 0.45, a=0.5)
    models = build_models(64, 10, TrainingConfig(profile=profile), RandomSource(44))
    monkeypatch.setattr(harness, "CHUNK_ENTRIES", 1000 * 64)
    peaks = []
    for per_class in (100, 800):
        ds = synth_dataset(10, 64, per_class, 2.0, RandomSource(45))
        tracemalloc.start()
        try:
            run_end_to_end(models, UniformMagnitude(0.37, 2.5), profile, HETEROGENEOUS_BETAS,
                           True, ds, RandomSource(46))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0]
