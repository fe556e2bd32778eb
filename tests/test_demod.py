"""Ternary demodulation: LLR routes, boundary tables, and their equivalence."""

import math

import numpy as np
import pytest

from semlink.constellation import SUPPORTED_ORDERS, build_constellation
from semlink.demod import (
    BitRegions,
    a_from_rho,
    axis_bit_pattern,
    build_regions,
    demod_robust,
)
from semlink.errors import DomainError
from semlink.numerics import RandomSource

from oracles import (
    classify_searchsorted,
    demod_llr,
    llr_exact,
    llr_maxlog,
    nearest_words,
    rho_from_a,
    scanned_bit_pattern,
    scanned_cell_values,
    unpack_words,
)

A_GRID = (0.0, 0.25, 0.5, 1.0)
# offsets past 1 overlap neighbouring bands; classify must still match its oracle
WIDE_A = A_GRID + (1.5, 3.0)


def random_samples(n, seed, spread=1.4):
    rng = RandomSource(seed)
    return spread * (rng.std_normal(n) + 1j * rng.std_normal(n))


class TestThresholdOffsetMap:
    def test_anchor_half(self):
        for snr in (0.1, 1.0, 10.0):
            assert a_from_rho(snr, 2, snr) == 0.5

    def test_zero(self):
        assert a_from_rho(0.0, 4, 3.0) == 0.0

    def test_direct_substitution(self):
        assert a_from_rho(0.4, 4, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_rho_a_inverse(self):
        for m in SUPPORTED_ORDERS:
            for a in (0.1, 0.5, 0.9):
                assert a_from_rho(rho_from_a(a, m, 2.7), m, 2.7) == pytest.approx(a, abs=1e-14)

    def test_too_large(self):
        with pytest.raises(DomainError):
            a_from_rho(0.401, 4, 0.1)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            a_from_rho(-0.1, 2, 1.0)
        with pytest.raises(DomainError):
            a_from_rho(1.0, 2, 0.0)
        with pytest.raises(DomainError):
            rho_from_a(1.2, 2, 1.0)
        with pytest.raises(DomainError, match="^snr must be positive, got 0.0$"):
            rho_from_a(0.5, 2, 0.0)


class TestExactLlr:
    def test_origin_symmetry_order2(self):
        np.testing.assert_allclose(llr_exact(0j, build_constellation(2), 1.0), 0.0, atol=1e-12)

    def test_two_term_hand_value(self):
        # order 2, snr 1, y = 0.5: the real-axis bit LLR is -2 * 0.5 * sqrt(2)
        c = build_constellation(2)
        llrs = llr_exact(0.5 + 0j, c, 1.0)
        assert llrs[0] == pytest.approx(-math.sqrt(2), abs=1e-12)
        assert llrs[1] == pytest.approx(0.0, abs=1e-12)

    def test_sign_flip_under_reflection(self):
        c = build_constellation(4)
        for z in random_samples(50, 2):
            plus = llr_exact(z, c, 2.0)
            refl_re = llr_exact(complex(-z.real, z.imag), c, 2.0)
            refl_im = llr_exact(complex(z.real, -z.imag), c, 2.0)
            # sign bits (MSB per axis) flip under reflection across their axis
            assert plus[0] == pytest.approx(-refl_re[0], rel=1e-9)
            assert plus[2] == pytest.approx(-refl_im[2], rel=1e-9)

    def test_no_underflow_at_high_snr(self):
        c = build_constellation(6)
        llrs = llr_exact(1.5 + 0.7j, c, 1e6)
        assert np.all(np.isfinite(llrs))


class TestMaxLogLlr:
    def test_order2_equals_exact(self):
        c = build_constellation(2)
        for z in random_samples(200, 3):
            np.testing.assert_allclose(
                llr_maxlog(z, c, 1.7), llr_exact(z, c, 1.7), atol=1e-10
            )

    def test_close_to_exact_at_high_snr(self):
        # worst case is a same-class midpoint: a log(2) correction against
        # |LLR| ~ 0.8 * snr, i.e. ~0.087 at snr 10; the bulk sits far lower
        c = build_constellation(4)
        rels = []
        for z in random_samples(100, 4):
            exact = llr_exact(z, c, 10.0)
            approx = llr_maxlog(z, c, 10.0)
            rels.append(np.abs(approx - exact) / np.maximum(1.0, np.abs(exact)))
        rels = np.concatenate(rels)
        assert np.all(rels <= 0.09)
        assert np.quantile(rels, 0.95) <= 0.05

    @pytest.mark.parametrize("call,message", [
        (lambda c: llr_exact(0j, c, 0.0), "snr must be positive, got 0.0"),
        (lambda c: llr_maxlog(0j, c, -1.0), "snr must be positive, got -1.0"),
        (lambda c: llr_maxlog(0j, c, math.nan), "snr must be positive, got nan"),
        (lambda c: demod_llr(0j, c, 1.0, [0.5, 0.5, -0.1, 0.5]), "thresholds must be nonnegative"),
    ], ids=["exact-snr", "maxlog-snr", "maxlog-nan-snr", "negative-rho"])
    def test_invalid_inputs(self, call, message):
        with pytest.raises(DomainError) as err:
            call(build_constellation(4))
        assert str(err.value) == message

    def test_real_bits_ignore_imaginary_part(self):
        c = build_constellation(4)
        for z in random_samples(50, 5):
            a = llr_maxlog(z, c, 3.0)[0]
            b = llr_maxlog(complex(z.real, z.imag + 2.5), c, 3.0)[0]
            assert a == pytest.approx(b, abs=1e-12)


class TestRegions:
    def test_fig_bit2_order4_intervals(self):
        c = build_constellation(4)
        br = build_regions(c, 0.5).bits[1]
        d = c.d_min
        assert br.index_set(0.0) == (-1, 3)
        assert br.index_set(1.0) == (1,)
        assert br.index_set(0.5) == (0, 2)
        table = {(iv.output, iv.index): (iv.lower, iv.upper) for iv in br.intervals}
        assert table[(0.5, 0)] == pytest.approx((-1.25 * d, -0.75 * d), abs=1e-12)
        assert table[(0.5, 2)] == pytest.approx((0.75 * d, 1.25 * d), abs=1e-12)
        assert table[(1.0, 1)] == pytest.approx((-0.75 * d, 0.75 * d), abs=1e-12)
        assert table[(0.0, -1)][0] == -math.inf
        assert table[(0.0, -1)][1] == pytest.approx(-1.25 * d, abs=1e-12)
        assert table[(0.0, 3)][1] == math.inf

    def test_order2_single_band(self):
        c = build_constellation(2)
        for br in build_regions(c, 0.5).bits:
            bands = [iv for iv in br.intervals if iv.output == 0.5]
            assert len(bands) == 1
            assert bands[0].lower == pytest.approx(-0.35355, abs=1e-5)
            assert bands[0].upper == pytest.approx(0.35355, abs=1e-5)

    def test_zero_offset_has_no_bands(self):
        for m in SUPPORTED_ORDERS:
            regions = build_regions(build_constellation(m), 0.0)
            for br in regions.bits:
                assert all(iv.output != 0.5 for iv in br.intervals)

    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    @pytest.mark.parametrize("a", A_GRID)
    def test_partition_covers_line_once(self, m, a):
        regions = build_regions(build_constellation(m), a)
        rng = RandomSource(6)
        points = 3.0 * rng.std_normal(2000)
        for br in regions.bits:
            for u in points:
                claims = [
                    iv for iv in br.intervals if iv.lower <= u <= iv.upper
                ]
                assert len(claims) == 1, f"point {u} claimed by {len(claims)} regions"

    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_bit_pattern_matches_scan_of_points(self, m):
        c = build_constellation(m)
        for bit in range(m):
            axis, pattern = axis_bit_pattern(c, bit)
            ref_axis, ref_pattern = scanned_bit_pattern(c, bit)
            assert axis == ref_axis
            assert np.array_equal(pattern, ref_pattern), bit

    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    @pytest.mark.parametrize("a", A_GRID)
    def test_first_cell_is_zero(self, m, a):
        # word 0 sits at the most negative level, so classify needs no flip
        for br in build_regions(build_constellation(m), a).bits:
            assert br.intervals[0].lower == -math.inf
            assert br.intervals[0].output == 0.0

    def test_bit_index_out_of_range(self):
        c = build_constellation(4)
        for bit in (-1, 4):
            with pytest.raises(DomainError):
                axis_bit_pattern(c, bit)

    def test_offset_out_of_range(self):
        with pytest.raises(DomainError):
            build_regions(build_constellation(2), 1.2)


class TestDemodRobust:
    def test_fig_points_order4(self):
        c = build_constellation(4)
        regions = build_regions(c, 0.5)
        d = c.d_min
        trits = demod_robust(np.array([0j, d + 0j, 2 * d + 0j]), regions, 0.5).reshape(3, 4)
        assert trits[0, 1] == 1.0
        assert trits[1, 1] == 0.5
        assert trits[2, 1] == 0.0

    def test_band_boundary_resolves_to_erasure(self):
        c = build_constellation(4)
        regions = build_regions(c, 0.5)
        br = regions.bits[1]
        edge = [iv for iv in br.intervals if iv.output == 0.5][1].upper
        trits = demod_robust(np.array([complex(edge, 0.0)]), regions, 0.5).reshape(1, 4)
        assert trits[0, 1] == 0.5

    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_zero_offset_matches_hard_decision(self, m):
        c = build_constellation(m)
        y = random_samples(5000, 7)
        trits = demod_robust(y, build_regions(c, 0.0), 0.0)
        assert not np.any(trits == 0.5)
        hard = unpack_words(nearest_words(y, c), m)
        np.testing.assert_array_equal(trits, hard.astype(float))

    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    @pytest.mark.parametrize("a", A_GRID)
    def test_equivalent_to_llr_threshold(self, m, a):
        c = build_constellation(m)
        snr = 1.9
        y = random_samples(20000, 8)
        by_regions = demod_robust(y, build_regions(c, a), a)
        by_llr = demod_llr(y, c, snr, rho_from_a(a, m, snr))
        np.testing.assert_array_equal(by_regions, by_llr)

    def test_llr_rho_zero_is_hard_decision(self):
        c = build_constellation(4)
        y = random_samples(2000, 9)
        trits = demod_llr(y, c, 1.0, 0.0)
        hard = unpack_words(nearest_words(y, c), 4)
        np.testing.assert_array_equal(trits, hard.astype(float))

    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_monotone_in_offset(self, m):
        # growing the band may only turn binary decisions into erasures
        c = build_constellation(m)
        y = random_samples(4000, 10)
        prev = demod_robust(y, build_regions(c, 0.0), 0.0)
        for a in (0.25, 0.5, 1.0):
            cur = demod_robust(y, build_regions(c, a), a)
            both_binary = (cur != 0.5) & (prev != 0.5)
            np.testing.assert_array_equal(cur[both_binary], prev[both_binary])
            # erasures never revert to binary as a grows
            assert not np.any((prev == 0.5) & (cur != 0.5))
            prev = cur


def two_search_classify(c, br, coords, a):
    """An earlier BitRegions.classify body: one search for the cell and one
    over the band lower edges, at a single offset a, with the cell values of
    the scanned points. Finite coordinates only: it keeps the outer cells'
    value at -inf and +inf, where classify erases."""
    cell = np.searchsorted(br.transitions, coords, side="left")
    out = scanned_cell_values(c, br.bit)[cell].astype(float)
    if a > 0 and br.transitions.size:
        half_w = a * br.d_min / 2.0
        lo = br.transitions - half_w
        hi = br.transitions + half_w
        idx = np.searchsorted(lo, coords, side="right") - 1
        in_band = (idx >= 0) & (coords <= hi[np.clip(idx, 0, None)])
        out[in_band] = 0.5
    return out


def differential_coords(br, n, seed):
    """n random coordinates plus every transition, band edge at each offset
    in WIDE_A and cell midpoint, each with both nextafter neighbours."""
    t = br.transitions
    special = [t, (t[:-1] + t[1:]) / 2.0]
    for a in WIDE_A:
        half_w = a * br.d_min / 2.0
        special += [t - half_w, t + half_w]
    special = np.concatenate(special)
    special = np.concatenate([special, np.nextafter(special, -np.inf),
                              np.nextafter(special, np.inf)])
    span = (abs(t).max() + br.d_min) * 1.2
    return np.concatenate([RandomSource(seed).uniform(-span, span, n), special])


def mixed_offsets(n, seed):
    return np.asarray(A_GRID)[(RandomSource(seed).random(n) * len(A_GRID)).astype(int)]


def check_kernel_against_oracle(m, n, seed):
    """classify equals the two-search oracle on every bit of order m, for each
    scalar offset in A_GRID and for per-coordinate offsets drawn from it."""
    c = build_constellation(m)
    for bit, br in enumerate(build_regions(c, 0.0).bits):
        coords = differential_coords(br, n, seed + bit)
        for a in A_GRID:
            expected = two_search_classify(c, br, coords, a)
            assert np.array_equal(br.classify(coords, a), expected)
        a_mixed = mixed_offsets(coords.size, seed + 100 + bit)
        expected = np.empty(coords.size)
        for a in A_GRID:
            sel = a_mixed == a
            expected[sel] = two_search_classify(c, br, coords[sel], a)
        assert np.array_equal(br.classify(coords, a_mixed), expected)


EDGE_COORDS = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0])


class TestTritKernel:
    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_matches_two_search_oracle(self, m):
        check_kernel_against_oracle(m, 20000, seed=40 + m)

    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_matches_searchsorted_oracle(self, m):
        # every bit, scalar offsets up to 3, and per-coordinate offsets that
        # include the non-positive -0.5 and NaN, on band edges, +-0, +-inf and NaN
        c = build_constellation(m)
        for bit, br in enumerate(build_regions(c, 0.0).bits):
            coords = np.concatenate([differential_coords(br, 5000, 60 + m + bit), EDGE_COORDS])
            for a in WIDE_A:
                assert np.array_equal(br.classify(coords, a),
                                      classify_searchsorted(c, br, coords, a), equal_nan=True)
            pool = np.array(WIDE_A + (-0.5, np.nan))
            a_mixed = pool[(RandomSource(70 + m + bit).random(coords.size) * pool.size).astype(int)]
            assert np.array_equal(br.classify(coords, a_mixed),
                                  classify_searchsorted(c, br, coords, a_mixed), equal_nan=True)

    def test_demod_robust_per_slot_offsets(self):
        # a (words, order) offset grid equals classifying each slot at its own a
        c = build_constellation(4)
        regions = build_regions(c, 0.0)
        y = random_samples(3000, 11).reshape(1000, 3)
        a_slots = mixed_offsets(3 * 4, 12).reshape(3, 4)
        got = demod_robust(y, regions, a_slots).reshape(1000, 3, 4)
        for word in range(3):
            for bit in range(4):
                coords = y[:, word].real if bit < 2 else y[:, word].imag
                expected = regions.bits[bit].classify(coords, a_slots[word, bit])
                np.testing.assert_array_equal(got[:, word, bit], expected)

    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_trits_do_not_depend_on_the_regions_build_offset(self, m):
        # demod_robust reads only the transitions, which no offset moves
        c = build_constellation(m)
        y = random_samples(600, 21).reshape(20, 30)
        a_slots = mixed_offsets(600 * m, 22).reshape(20, 30, m)
        want = demod_robust(y, build_regions(c, 0.0), a_slots)
        for a in (0.5, 1.0):
            assert np.array_equal(demod_robust(y, build_regions(c, a), a_slots), want)

    @pytest.mark.parametrize("a", [5.0, np.nan, -1.0])
    def test_demod_robust_rejects_bad_offsets(self, a):
        c = build_constellation(2)
        y = random_samples(10, 13)
        with pytest.raises(DomainError, match="boundary offsets"):
            demod_robust(y, build_regions(c, 0.0), a=a)
        a_slots = np.full((10, 2), 0.5)
        a_slots[3, 1] = a
        with pytest.raises(DomainError, match="boundary offsets"):
            demod_robust(y, build_regions(c, 0.0), a=a_slots)

    @pytest.mark.parametrize("shape", [(), (1,), (4,), (250, 1), (1, 4), (250, 4)],
                             ids=["scalar", "one", "per-bit", "per-word", "per-bit-2d", "per-slot"])
    def test_demod_robust_reads_offsets_in_their_own_shape(self, shape):
        c = build_constellation(4)
        y = random_samples(1000, 14).reshape(4, 250)
        a = mixed_offsets(int(np.prod(shape)), 15).reshape(shape)
        full = np.broadcast_to(a, (4, 250, 4)).copy()
        regions = build_regions(c, 0.0)
        assert np.array_equal(demod_robust(y, regions, a), demod_robust(y, regions, full))

    @pytest.mark.parametrize("shape", [(5,), (3, 3), (4, 3, 2), (2, 1, 1)],
                             ids=["too-short", "wrong-order", "enlarges-y", "adds-an-axis"])
    def test_demod_robust_rejects_offsets_that_do_not_fit(self, shape):
        # a must broadcast to exactly (*y.shape, order), not merely against it
        regions = build_regions(build_constellation(2), 0.0)
        with pytest.raises(DomainError, match=r"boundary offsets of shape .* do not fit \(3, 2\)"):
            demod_robust(np.zeros(3, complex), regions, np.zeros(shape))

    @pytest.mark.parametrize("a", [0.0, 0.5, np.array([0.0, 0.5] * 150)])
    def test_classify_out_receives_the_trits(self, a):
        # a = 0 leaves through the binary decision's early return
        br = build_regions(build_constellation(4), 0.0).bits[0]
        coords = random_samples(300, 20).real
        out = np.full(300, np.nan)
        assert br.classify(coords, a, out) is out
        assert np.array_equal(out, br.classify(coords, a))

    @pytest.mark.parametrize("a", [0.0, 0.5, "per-slot"])
    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_demod_robust_out_writes_the_same_trits(self, m, a):
        # a = 0 takes classify's early return for the binary decision
        regions = build_regions(build_constellation(m), 0.0)
        y = random_samples(600, 18).reshape(20, 30)
        if a == "per-slot":
            a = mixed_offsets(600 * m, 19).reshape(20, 30, m)
        expected = demod_robust(y, regions, a)
        # a strided view of a wider matrix, as a trit matrix's column slice is
        wide = np.full((20, 30 * m + 5), -1.0)
        view = wide[:, 2:2 + 30 * m].reshape(20, 30, m)
        work = np.full(4 * 600 + 3, np.nan)  # larger than needed is fine
        assert demod_robust(y, regions, a, out=view, work=work) is view
        assert np.array_equal(wide[:, 2:2 + 30 * m].reshape(-1), expected)
        assert np.array_equal(demod_robust(y, regions, a, work=work), expected)
        assert np.all(wide[:, :2] == -1.0) and np.all(wide[:, 2 + 30 * m:] == -1.0)

    @pytest.mark.parametrize("out", [np.empty((3, 2)), np.empty((3, 4), np.int64)],
                             ids=["shape", "dtype"])
    def test_demod_robust_rejects_out_that_does_not_fit(self, out):
        # an integer out would truncate an erasure's 0.5 to 0 without a word
        regions = build_regions(build_constellation(4), 0.0)
        with pytest.raises(DomainError, match=r"out must be a float64 array of shape \(3, 4\)"):
            demod_robust(np.zeros(3, complex), regions, 0.0, out=out)

    @pytest.mark.parametrize("work", [np.empty(5), np.empty(12, np.float32), np.empty((2, 6))],
                             ids=["short", "dtype", "2-d"])
    def test_demod_robust_rejects_work_that_does_not_fit(self, work):
        # a float32 work would round the coordinates before they are classified
        regions = build_regions(build_constellation(4), 0.0)
        with pytest.raises(DomainError, match="work must be a 1-D float64 array of at least 6"):
            demod_robust(np.zeros(3, complex), regions, 0.0, work=work)


# per-bit offsets whose I/Q pairs (bit k, bit k + m/2) differ, some of them 0
PAIR_MISMATCHED = {2: [0.0, 0.5], 4: [0.25, 0.0, 0.0, 1.0], 6: [0.5, 0.0, 1.0, 0.0, 0.25, 0.0]}


class TestIqPairs:
    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_pairs_share_transitions_and_pattern(self, m):
        c = build_constellation(m)
        bits = build_regions(c, 0.5).bits
        for k in range(m // 2):
            re, im = axis_bit_pattern(c, k), axis_bit_pattern(c, k + m // 2)
            assert (re[0], im[0]) == (0, 1)
            assert np.array_equal(re[1], im[1])
            assert np.array_equal(bits[k].transitions, bits[k + m // 2].transitions)
            assert bits[k].intervals == bits[k + m // 2].intervals

    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_pair_mismatched_offsets_equal_per_bit_classify(self, m):
        # coordinates on every band edge of both axes, plus +-inf and NaN
        regions = build_regions(build_constellation(m), 0.0)
        re = np.concatenate([differential_coords(regions.bits[0], 3000, 80 + m), EDGE_COORDS])
        im = re[RandomSource(90 + m).permutation(re.size)]
        y = np.empty((re.size, 1), complex)  # set by part: inf * 1j would give NaN
        y.real[:, 0], y.imag[:, 0] = re, im
        a_slots = np.broadcast_to(PAIR_MISMATCHED[m], (re.size, 1, m))
        got = demod_robust(y, regions, a_slots).reshape(re.size, m)
        for br in regions.bits:
            coords = re if br.bit < m // 2 else im
            assert np.array_equal(got[:, br.bit], br.classify(coords, PAIR_MISMATCHED[m][br.bit]),
                                  equal_nan=True)
        assert np.array_equal(demod_robust(y, regions, PAIR_MISMATCHED[m]), got.reshape(-1))

    @pytest.mark.parametrize("a", [0.5, "per-slot"])
    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_one_classify_call_per_pair(self, m, a, monkeypatch):
        calls = []
        classify = BitRegions.classify

        def counting(self, coords, a, out=None):
            calls.append(self.bit)
            return classify(self, coords, a, out)

        monkeypatch.setattr(BitRegions, "classify", counting)
        y = random_samples(40, 16).reshape(4, 10)
        if a == "per-slot":
            a = mixed_offsets(40 * m, 17).reshape(4, 10, m)
        demod_robust(y, build_regions(build_constellation(m), 0.25), a)
        assert calls == list(range(m // 2))
