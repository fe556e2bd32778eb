"""Tail-function accuracy against an independent quadrature oracle,
random-source determinism, and draws made one job ahead."""

import copy
import itertools
import math
import threading
import time
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink.errors import DomainError
from semlink.numerics import (
    RandomSource,
    drawn_ahead,
    q_function_array,
    q_inverse_array,
)

from oracles import q_function, q_inverse


def assert_same_state(a: RandomSource, b: RandomSource):
    """Both sources' Philox states are equal, buffer and pending half included."""
    sa, sb = a._gen.bit_generator.state, b._gen.bit_generator.state
    assert sa.keys() == sb.keys()
    for key in ("has_uint32", "uinteger", "buffer_pos"):
        assert sa[key] == sb[key], key
    for key in ("counter", "key"):
        np.testing.assert_array_equal(sa["state"][key], sb["state"][key])
    np.testing.assert_array_equal(sa["buffer"], sb["buffer"])


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

    def test_out_path_gives_the_same_bits(self):
        xs = np.linspace(-8, 8, 57)
        want = q_function_array(xs).view(np.uint64)
        buf = np.empty_like(xs)
        assert q_function_array(xs, out=buf) is buf
        np.testing.assert_array_equal(buf.view(np.uint64), want)
        same = xs.copy()  # out may be the input itself
        q_function_array(same, out=same)
        np.testing.assert_array_equal(same.view(np.uint64), want)

    def test_scalar_in_scalar_out(self):
        assert type(q_function_array(0.3)) is np.float64


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

    def test_out_path_gives_the_same_bits(self):
        ps = np.concatenate([[0.0, 1e-300, 0.5, 1.0], np.linspace(1e-6, 1 - 1e-6, 41)])
        want = q_inverse_array(ps).view(np.uint64)
        buf = np.empty_like(ps)
        assert q_inverse_array(ps, out=buf) is buf
        np.testing.assert_array_equal(buf.view(np.uint64), want)
        same = ps.copy()  # out may be the input itself
        q_inverse_array(same, out=same)
        np.testing.assert_array_equal(same.view(np.uint64), want)

    def test_scalar_in_scalar_out(self):
        assert type(q_inverse_array(0.3)) is np.float64


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
        with pytest.raises(DomainError, match=r"^split requires n >= 1, got 0$"):
            RandomSource(7).split(0)

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

    def test_std_normal_into_out_equals_the_allocating_draw(self):
        drawn, filled = RandomSource(26), RandomSource(26)
        for n in (1, 7, 4096):
            buf = np.full(n, np.nan)
            assert filled.std_normal(n, out=buf) is buf
            np.testing.assert_array_equal(buf, drawn.std_normal(n))
        # both streams stand at the same place afterwards
        np.testing.assert_array_equal(filled.random(5), drawn.random(5))

    def test_skip_equals_drawing(self):
        # every offset in a 4-word Philox block, short skips, and whole blocks
        for prior in range(9):
            for n in (0, 1, 3, 4, 5, 175, 13313, 16384):
                skipped, drawn = RandomSource(23), RandomSource(23)
                skipped.random(prior)
                drawn.random(prior)
                skipped.skip(n)
                np.testing.assert_array_equal(skipped.random(6), drawn.random(n + 6)[n:])
        # an odd bits() call leaves half a word pending, which doubles do not use
        for n in (1, 4, 5, 175, 13313):
            skipped, drawn = RandomSource(24), RandomSource(24)
            np.testing.assert_array_equal(skipped.bits(5), drawn.bits(5))
            skipped.skip(n)
            drawn.random(n)
            np.testing.assert_array_equal(skipped.bits(7), drawn.bits(7))
            np.testing.assert_array_equal(skipped.random(3), drawn.random(3))
        with pytest.raises(DomainError, match="n >= 0"):
            RandomSource(25).skip(-1)

    def test_bits_equal_the_generators_bounded_draw(self):
        # one bits() call per step, with the other draws and skip() in between,
        # against Generator.integers(0, 2) on a twin: the same values, and both
        # streams left in the same state, pending 32-bit half included
        src, twin = RandomSource(27), RandomSource(27)
        picks = np.random.default_rng(28)
        for step in range(120):
            n = int(picks.integers(0, 5001))
            if step % 3 == 0:
                n |= 1  # odd counts leave half a word pending
            got = src.bits(n)
            expected = twin._gen.integers(0, 2, size=n)
            np.testing.assert_array_equal(got, expected)
            assert got.shape == (n,)
            assert_same_state(src, twin)
            other = ("random", "std_normal", "skip", "permutation", None)[step % 5]
            k = int(picks.integers(0, 40))
            if other is not None:
                getattr(src, other)(k)
                getattr(twin, other)(k)
                assert_same_state(src, twin)
        with pytest.raises(DomainError, match="n >= 0"):
            src.bits(-1)

    @pytest.mark.parametrize("before", [2, 3], ids=["no-pending-half", "pending-half"])
    def test_zero_bits_draw_nothing(self, before):
        """bits(0) is an empty uint8 array and leaves the stream as it was, a
        32-bit half left pending by an odd count included."""
        src, twin = RandomSource(29), RandomSource(29)
        src.bits(before)
        twin.bits(before)
        got = src.bits(0)
        assert got.dtype == np.uint8 and got.shape == (0,)
        assert_same_state(src, twin)
        np.testing.assert_array_equal(src.bits(5), twin.bits(5))

    def test_seed_validation(self):
        with pytest.raises(DomainError):
            RandomSource(-1)
        with pytest.raises(DomainError):
            RandomSource(2**64)


class TestDrawnAhead:
    """drawn_ahead yields an inline loop's values, draws job 0 on the caller's
    thread and the rest one ahead on one worker, and leaves no thread behind."""

    @staticmethod
    def started_threads(monkeypatch) -> list:
        """Threads started from now on, recorded as they start."""
        started = []
        real = threading.Thread.start

        def recorded(thread):
            started.append(thread)
            return real(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded)
        return started

    def test_values_and_order_equal_an_inline_loop(self):
        src, twin = RandomSource(31), RandomSource(31)
        with closing(drawn_ahead(lambda n: (n, src.random(n)), range(1, 8))) as draws:
            got = list(draws)
        want = [(n, twin.random(n)) for n in range(1, 8)]
        assert [n for n, _ in got] == [n for n, _ in want]
        for (_, a), (_, b) in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_job_zero_inline_and_the_rest_on_one_worker(self):
        before = threading.active_count()
        seen, read, held = [], [], []

        def jobs():
            for job in range(6):
                read.append(job)
                yield job

        def draw(job):
            seen.append((threading.get_ident(), threading.active_count()))
            return job

        with closing(drawn_ahead(draw, jobs())) as draws:
            for job in draws:
                held.append((job, len(read)))
        assert threading.active_count() == before
        assert [job for job, _ in held] == list(range(6))
        # jobs is read one job ahead of the caller, and no further
        assert all(n_read == min(job + 2, 6) for job, n_read in held)
        assert seen[0] == (threading.get_ident(), before)
        workers = {ident for ident, _ in seen[1:]}
        assert len(workers) == 1 and threading.get_ident() not in workers
        assert all(count <= before + 1 for _, count in seen)

    @pytest.mark.parametrize("n_jobs", [0, 1], ids=["no-job", "one-job"])
    def test_zero_or_one_job_starts_no_thread(self, monkeypatch, n_jobs):
        started = self.started_threads(monkeypatch)
        with closing(drawn_ahead(lambda job: job + 10, range(n_jobs))) as draws:
            assert list(draws) == [10][:n_jobs]
        assert started == []

    def test_a_draw_error_is_raised_at_its_job(self):
        before = threading.active_count()
        drawn, got = [], []

        def draw(job):
            drawn.append(job)
            if job == 3:
                raise RuntimeError("job 3")
            return job

        with pytest.raises(RuntimeError, match="job 3"):
            with closing(drawn_ahead(draw, range(8))) as draws:
                for job in draws:
                    got.append(job)
        assert got == [0, 1, 2]
        assert drawn == [0, 1, 2, 3]
        assert threading.active_count() == before

    def test_closing_early_joins_the_worker(self, monkeypatch):
        started = self.started_threads(monkeypatch)
        done = []

        def draw(job):
            time.sleep(0.05 * job)  # job 1 is still drawing when the caller leaves
            done.append(job)
            return job

        with closing(drawn_ahead(draw, range(5))) as draws:
            assert next(draws) == 0
        assert done == [0, 1]
        assert len(started) == 1 and not started[0].is_alive()

    def test_endless_jobs(self):
        before = threading.active_count()
        with closing(drawn_ahead(lambda job: job * job, itertools.count())) as draws:
            assert list(itertools.islice(draws, 5)) == [0, 1, 4, 9, 16]
        assert threading.active_count() == before
