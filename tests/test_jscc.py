"""Latent sampling laws, the gradient bypass, and the training schedule."""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink.bsec import MAX_PROFILE_BITS, RobustnessProfile, sample_mu_matrix
from semlink.datasets import Dataset, synth_dataset
from semlink.errors import ConfigError, DomainError, TrainingError
from semlink import jscc
from semlink.jscc import (
    MAX_BATCH_ENTRIES,
    MAX_MODEL_PARAMS,
    TrainingConfig,
    _blas_threads,
    backward_with_bypass,
    build_models,
    eval_under_bsec,
    noisy_latent_sample,
    sample_latent_bits,
    train,
    warmup_only_config,
)
from semlink.nn import mse_loss, ce_loss
from semlink.numerics import RandomSource

from oracles import eval_under_bsec_whole, noisy_latent_law, noisy_latent_sample_by_law


def tiny_dataset(seed=50, n_per_class=25, dim=16, classes=4, sigma=1.0):
    return synth_dataset(classes, dim, n_per_class, sigma, RandomSource(seed))


def tiny_config(n_bits=12, **kw):
    defaults = dict(
        profile=RobustnessProfile.homogeneous(n_bits, 0.4, a=0.5),
        epochs=3,
        warmup_epochs=1,
        batch_size=32,
        seed=7,
    )
    defaults.update(kw)
    return TrainingConfig(**defaults)


class TestLatentSampling:
    def test_degenerate_probabilities(self):
        rng = RandomSource(1)
        assert np.all(sample_latent_bits(np.zeros((5, 8)), rng.random((5, 8))) == 0.0)
        assert np.all(sample_latent_bits(np.ones((5, 8)), rng.random((5, 8))) == 1.0)

    def test_bernoulli_mean(self):
        rng = RandomSource(2)
        draws = sample_latent_bits(np.full((1000, 1000), 0.7), rng.random((1000, 1000)))
        assert abs(draws.mean() - 0.7) <= 3 * np.sqrt(0.21 / 1e6)

    def test_law_reference_point(self):
        p0, p_half, p1 = noisy_latent_law(0.7, 0.1, 0.2)
        assert p0 == pytest.approx(0.28, abs=1e-15)
        assert p_half == pytest.approx(0.2, abs=1e-15)
        assert p1 == pytest.approx(0.52, abs=1e-15)

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=0.49),
        st.floats(min_value=0, max_value=0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_law_normalized(self, f, mu, d):
        p0, p_half, p1 = noisy_latent_law(f, mu, d)
        assert p0 + p_half + p1 == pytest.approx(1.0, abs=1e-12)
        assert min(p0, p_half, p1) >= -1e-15

    def test_sample_frequencies(self):
        rng = RandomSource(3)
        n = 10**6
        draws = noisy_latent_sample(np.full(n, 0.7), np.full(n, 0.1), np.full(n, 0.2),
                                    rng.random(n))
        for value, p in zip((0.0, 0.5, 1.0), noisy_latent_law(0.7, 0.1, 0.2)):
            assert abs(np.mean(draws == value) - p) <= 3 * np.sqrt(p * (1 - p) / n)

    def test_sample_frequencies_follow_per_entry_law(self):
        rng = RandomSource(5)
        shape = (1000, 64)
        f = rng.random(shape)
        mu = rng.random(shape) * 0.4
        d = rng.random(shape) * (1.0 - mu) * 0.5
        draws = noisy_latent_sample(f, mu, d, RandomSource(6).random(shape))
        for value, p in zip((0.0, 0.5, 1.0), noisy_latent_law(f, mu, d)):
            # a sum of independent indicators: mean sum(p), variance sum(p(1-p))
            z = (np.sum(draws == value) - p.sum()) / np.sqrt(np.sum(p * (1 - p)))
            assert abs(z) < 4.0, (value, z)

    @pytest.mark.parametrize("shapes", [((7, 5), (7, 5), (7, 5)), ((7, 5), (), ()),
                                        ((7, 5), (5,), (7, 5))])
    def test_sample_equals_nested_selects_over_the_law(self, shapes):
        rng = RandomSource(8)
        f = rng.random(shapes[0])
        mu = rng.random(shapes[1]) * 0.3
        d = rng.random(shapes[2]) * 0.3
        u = RandomSource(9).random(f.shape)
        np.testing.assert_array_equal(noisy_latent_sample(f, mu, d, u),
                                      noisy_latent_sample_by_law(f, mu, d, RandomSource(9)))

    def test_warmup_deterministic_bit(self):
        rng = RandomSource(4)
        out = noisy_latent_sample(np.ones((3, 4)), np.zeros((3, 4)), np.zeros((3, 4)),
                                  rng.random((3, 4)))
        np.testing.assert_array_equal(out, 1.0)

    @pytest.mark.parametrize("prior", [0, 1, 2, 3, 5])
    def test_noiseless_shortcut_equals_zero_channel_sample(self, prior):
        # training's warm-up batches skip the mu draw and take u < f; that
        # must equal drawing mu = 0 and sampling the three-point law at d = 0,
        # as a zero profile does after warm-up
        f = RandomSource(10).random((25, 7))
        f[0, :3] = 0.0
        f[1, 2:6] = 1.0
        shortcut, drawn = RandomSource(11), RandomSource(11)
        shortcut.random(prior)
        drawn.random(prior)
        shortcut.skip(f.size)
        fast = sample_latent_bits(f, shortcut.random(f.shape)).astype(np.float64)
        mu = sample_mu_matrix(np.zeros(7), 25, drawn)
        np.testing.assert_array_equal(mu, 0.0)
        slow = noisy_latent_sample(f, mu, 0.0, drawn.random(f.shape))
        assert fast.dtype == slow.dtype
        np.testing.assert_array_equal(fast, slow)
        np.testing.assert_array_equal(shortcut.random(4), drawn.random(4))


class TestBypassGradients:
    def setup_models(self, seed):
        rng = RandomSource(seed)
        cfg = tiny_config()
        models = build_models(10, 4, cfg, rng)
        x = rng.std_normal((6, 10))
        labels = (rng.random(6) * 4).astype(np.int64)
        f = models.encoder.forward(x)
        b_hat = noisy_latent_sample(
            f, np.full_like(f, 0.1), np.full_like(f, 0.15), rng.random(f.shape)
        )
        return models, x, labels, b_hat

    def _pipeline_loss(self, models, x, labels, b_hat, lam):
        u_hat = models.decoder.forward(b_hat)
        logits = models.classifier.forward(u_hat)
        return lam * mse_loss(x, u_hat)[0] + ce_loss(logits, labels)[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_decoder_classifier_gradients(self, seed):
        models, x, labels, b_hat = self.setup_models(seed + 300)
        lam = 0.2
        models.encoder.forward(x)
        backward_with_bypass(models, x, labels, b_hat, lam)
        rng = RandomSource(seed + 400)
        for model in (models.decoder, models.classifier):
            for layer in model.layers:
                for _ in range(3):
                    idx = (
                        int(rng.uniform(0, layer.weight.shape[0] - 1e-9)),
                        int(rng.uniform(0, layer.weight.shape[1] - 1e-9)),
                    )
                    orig = layer.weight[idx]
                    eps = 1e-6
                    layer.weight[idx] = orig + eps
                    up = self._pipeline_loss(models, x, labels, b_hat, lam)
                    layer.weight[idx] = orig - eps
                    down = self._pipeline_loss(models, x, labels, b_hat, lam)
                    layer.weight[idx] = orig
                    fd = (up - down) / (2 * eps)
                    assert layer.grad_weight[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_encoder_bypass_equals_surrogate_gradient(self, seed):
        # surrogate: replace b_hat by f + frozen offset, differentiate through f
        models, x, labels, b_hat = self.setup_models(seed + 500)
        lam = 0.2
        f = models.encoder.forward(x)
        offset = b_hat - f  # frozen realized noise
        backward_with_bypass(models, x, labels, b_hat, lam)
        got = [l.grad_weight.copy() for l in models.encoder.layers]

        def surrogate_loss():
            f_now = models.encoder.forward(x)
            return self._pipeline_loss(models, x, labels, f_now + offset, lam)

        rng = RandomSource(seed + 600)
        for layer, grad in zip(models.encoder.layers, got):
            for _ in range(3):
                idx = (
                    int(rng.uniform(0, layer.weight.shape[0] - 1e-9)),
                    int(rng.uniform(0, layer.weight.shape[1] - 1e-9)),
                )
                orig = layer.weight[idx]
                eps = 1e-6
                layer.weight[idx] = orig + eps
                up = surrogate_loss()
                layer.weight[idx] = orig - eps
                down = surrogate_loss()
                layer.weight[idx] = orig
                fd = (up - down) / (2 * eps)
                assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


# n at and around one and two EVAL_BLOCK_ROWS (512) and a few block counts beyond
STREAM_ROWS = (1, 37, 255, 256, 511, 512, 513, 767, 1000, 1023, 1024, 1025, 2000, 2001,
               4099, 8000)
STREAM_CHANNELS = [(0.2, 0.0), (0.15, 0.1)]


def first_rows(dataset, n):
    return Dataset(features=dataset.features[:n], labels=dataset.labels[:n],
                   n_classes=dataset.n_classes)


@pytest.fixture(scope="module")
def criterion9_shapes():
    """8000 rows of 64-dim data over 10 classes and a briefly trained model on
    the README stacks with 64 latent bits, as criterion 9 uses."""
    profile = RobustnessProfile.homogeneous(64, 0.4, a=0.5)
    dataset = synth_dataset(10, 64, 800, 2.0, RandomSource(68))
    config = TrainingConfig(profile=profile, epochs=4, warmup_epochs=1, seed=69)
    return dataset, train(first_rows(dataset, 2000), config).models


def model_params(result):
    return [p for model in (result.models.encoder, result.models.decoder,
                            result.models.classifier)
            for layer in model.layers for p in (layer.weight, layer.bias)]


class TestTrainingThreads:
    """train runs its products on one BLAS thread and draws each batch's
    channel on one worker thread, and leaves neither behind."""

    @staticmethod
    def train_from_two_blas_threads(*args):
        """train(*args), entered with the BLAS count set to 2 where the
        library is found, must leave the count as it found it; train's error,
        if any, passes through."""
        old = _blas_threads(2)
        entered = _blas_threads()
        try:
            train(*args)
        finally:
            after = _blas_threads()
            if old is not None:
                _blas_threads(old)
            assert after == entered

    def test_blas_threads_restored_after_return(self):
        self.train_from_two_blas_threads(tiny_dataset(), tiny_config())

    def test_blas_threads_restored_after_training_error(self):
        ds = Dataset(features=np.full((8, 4), 1e200), labels=np.zeros(8, dtype=np.int64),
                     n_classes=1)
        cfg = tiny_config(n_bits=4, epochs=2, warmup_epochs=0, batch_size=8)
        with pytest.raises(TrainingError, match="epoch 0"):
            self.train_from_two_blas_threads(ds, cfg)

    def test_batches_run_on_one_blas_thread(self, monkeypatch):
        seen = []
        real = jscc.backward_with_bypass

        def recorded(*a):
            seen.append(_blas_threads())
            return real(*a)

        monkeypatch.setattr(jscc, "backward_with_bypass", recorded)
        train(tiny_dataset(), tiny_config())
        assert len(seen) == 12  # 4 batches of 100 rows in each of 3 epochs
        assert set(seen) == ({1} if _blas_threads() is not None else {None})

    def test_draws_on_one_worker_that_ends_with_the_run(self, monkeypatch):
        """Every robust batch's flip probabilities are drawn on one worker
        thread, with one extra thread alive, and none is left afterwards."""
        real = jscc.sample_mu_matrix
        seen = []

        def recorded(*args):
            seen.append((threading.get_ident(), threading.active_count()))
            return real(*args)

        monkeypatch.setattr(jscc, "sample_mu_matrix", recorded)
        before = threading.active_count()
        train(tiny_dataset(), tiny_config())
        assert threading.active_count() == before
        assert len(seen) == 8  # 4 batches in each of the 2 robust epochs
        workers = {ident for ident, _ in seen}
        assert len(workers) == 1 and threading.get_ident() not in workers
        assert all(count == before + 1 for _, count in seen)

    def test_draw_error_ends_the_run_and_leaves_no_thread(self, monkeypatch):
        """A flip-probability draw that fails on the worker for the third
        robust batch ends the run with its error, no batch is drawn after it,
        and no thread outlives the run."""
        real = jscc.sample_mu_matrix
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("third draw")
            return real(*args)

        monkeypatch.setattr(jscc, "sample_mu_matrix", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="third draw"):
            self.train_from_two_blas_threads(tiny_dataset(), tiny_config())
        assert threading.active_count() == before
        assert len(calls) == 3

    def test_training_under_fast_switching_equals_default(self):
        """With threads switching every microsecond, a run equals the same run
        at the default interval: the worker's draws keep the stream's order."""
        ds, cfg = tiny_dataset(), tiny_config(epochs=4)
        reference = train(ds, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fast = train(ds, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert fast.metrics == reference.metrics
        for a, b in zip(model_params(fast), model_params(reference), strict=True):
            np.testing.assert_array_equal(a, b)


class TestStreamedEvaluation:
    """eval_under_bsec over row blocks against the whole-array pass, bit for bit."""

    @staticmethod
    def assert_same_bits(models, dataset, mu, d, seed):
        streamed = eval_under_bsec(models, dataset, mu, d, RandomSource(seed))
        whole = eval_under_bsec_whole(models, dataset, mu, d, RandomSource(seed))
        assert [v.hex() for v in streamed] == [v.hex() for v in whole]

    @pytest.mark.parametrize("mu,d", STREAM_CHANNELS)
    @pytest.mark.parametrize("n", STREAM_ROWS)
    def test_equals_whole_array_pass(self, criterion9_shapes, n, mu, d):
        dataset, models = criterion9_shapes
        self.assert_same_bits(models, first_rows(dataset, n), mu, d, 70)

    @pytest.mark.parametrize("mu,d", STREAM_CHANNELS)
    @pytest.mark.parametrize("n", (5, 600))
    def test_equals_whole_array_pass_tiny_models(self, n, mu, d):
        dataset = synth_dataset(4, 16, 150, 1.0, RandomSource(71))
        models = train(first_rows(dataset, 100), tiny_config()).models
        self.assert_same_bits(models, first_rows(dataset, n), mu, d, 72)

    @pytest.mark.parametrize("n,blocks", [
        (512, [512]),
        (513, [256, 257]),
        (1025, [341, 342, 342]),
        (1537, [384, 384, 384, 385]),
    ], ids=["512", "513", "1025", "1537"])
    def test_blocks_are_nearly_equal(self, n, blocks, monkeypatch):
        """A multi-block pass splits its rows evenly rather than into full
        blocks and a short last one, so no block has fewer than 256 rows."""
        dataset = synth_dataset(4, 16, 400, 1.0, RandomSource(74))
        models = build_models(16, 4, tiny_config(), RandomSource(75))
        forward, rows = models.encoder.forward, []

        def counting_forward(x):
            rows.append(x.shape[-2])
            return forward(x)

        monkeypatch.setattr(models.encoder, "forward", counting_forward)
        eval_under_bsec(models, first_rows(dataset, n), 0.2, 0.0, RandomSource(76))
        assert rows == blocks

    def test_memory_is_flat(self, criterion9_shapes):
        """The traced peak of a pass does not grow with the number of rows."""
        dataset, models = criterion9_shapes
        peaks = []
        for n in (2000, 8000):
            rows = first_rows(dataset, n)
            tracemalloc.start()
            try:
                eval_under_bsec(models, rows, 0.2, 0.0, RandomSource(73))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.2 * peaks[0], peaks


class TestInferPass:
    """jscc.infer with a substituted channel: no loop of its own is needed."""

    @pytest.mark.parametrize("chunks,rows", [
        ([(0, 2000, 500)], [[500] * 4]),
        ([(0, 1300, 512), (1300, 2000, 350)], [[512, 512, 276], [350, 350]]),
    ], ids=["one-chunk", "short-last-block"])
    def test_identity_channel_equals_whole_array_forwards(self, criterion9_shapes, chunks,
                                                          rows):
        """A channel that passes the encoder's probabilities through gives the
        accuracy of whole-array forwards and their squared errors summed per
        block in block order, bit for bit; blocks of at least 256 rows get a
        whole-array product's bits from OpenBLAS."""
        dataset, models = criterion9_shapes
        data = first_rows(dataset, 2000)
        seen = []

        def identity(f, block_rows):
            seen.append(block_rows.tolist())
            return f

        acc, mse = jscc.infer(models, data, chunks, identity)
        assert seen == rows

        x, y = data.features, data.labels
        u_hat = models.decoder.forward(models.encoder.forward(x[None]))
        logits = models.classifier.forward(u_hat)[0]
        sq_err = (u_hat[0] - x) ** 2
        sq_err_sum = 0.0
        for lo, hi, size in chunks:
            for start in range(lo, hi, size):
                sq_err_sum += float(np.sum(sq_err[start:min(start + size, hi)]))
        whole_acc = int(np.sum(np.argmax(logits, axis=1) == y)) / len(x)
        assert [acc.hex(), mse.hex()] == [whole_acc.hex(), (sq_err_sum / len(x)).hex()]


class TestTraining:
    def test_loss_decreases(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=6, warmup_epochs=2)
        result = train(ds, cfg)
        assert result.metrics[5].loss < result.metrics[0].loss

    def test_determinism(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        a = train(ds, cfg)
        b = train(ds, cfg)
        for ma, mb in zip(a.metrics, b.metrics):
            assert (ma.loss, ma.mse, ma.ce, ma.accuracy) == (mb.loss, mb.mse, mb.ce, mb.accuracy)
        for la, lb in zip(a.models.encoder.layers, b.models.encoder.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)

    def test_zero_alpha_profile_equals_pure_warmup(self):
        """All warm-up, a zero profile without warm-up and the warm-up-only
        baseline train the same models: a noiseless batch moves the stream
        past the mu draw whichever way it is made noiseless."""
        ds = tiny_dataset()
        all_warm = tiny_config(epochs=3, warmup_epochs=3)
        zero_alpha = TrainingConfig(profile=RobustnessProfile.homogeneous(12, 0.0, a=0.0),
                                    epochs=3, warmup_epochs=0, batch_size=32, seed=7)
        runs = [train(ds, cfg) for cfg in (all_warm, zero_alpha,
                                             warmup_only_config(tiny_config(epochs=3)))]
        for run in runs[1:]:
            assert run.metrics == runs[0].metrics
            for name in ("encoder", "decoder", "classifier"):
                np.testing.assert_array_equal(getattr(run.models, name).params,
                                              getattr(runs[0].models, name).params)

    def test_zero_alpha_bits_at_offset_one_are_sampled(self, monkeypatch):
        """After warm-up a zero profile is sampled from the three-point law:
        at mu = 0 the map erases a bit at offset 1 half the time, and only it."""
        from semlink import jscc

        seen = []
        real = jscc.noisy_latent_sample

        def recorded(f, mu, d, rng):
            seen.append(np.array(d))
            return real(f, mu, d, rng)

        monkeypatch.setattr(jscc, "noisy_latent_sample", recorded)
        a_offsets = np.array([1.0, 0.5, 0.0, 1.0])
        cfg = TrainingConfig(profile=RobustnessProfile(np.zeros(4), a_offsets),
                             epochs=2, warmup_epochs=1, batch_size=32, seed=7)
        train(tiny_dataset(), cfg)
        assert len(seen) == 4  # the second epoch's batches; warm-up stays noiseless
        for d in seen:
            np.testing.assert_array_equal(d, np.broadcast_to([0.5, 0.0, 0.0, 0.5], d.shape))

    def test_divergence_raises_with_epoch(self):
        features = np.full((8, 4), 1e200)
        ds = Dataset(features=features, labels=np.zeros(8, dtype=np.int64), n_classes=1)
        cfg = tiny_config(n_bits=4, epochs=2, warmup_epochs=0, batch_size=8)
        with pytest.raises(TrainingError, match="epoch 0"):
            train(ds, cfg)

    def test_many_epochs_reach_the_first_batch_in_little_memory(self, monkeypatch):
        """The batch schedule is made as it is drawn, so a run of 10**6
        one-batch epochs reaches its first batch with a traced peak under
        1 MiB; a list of its 10**6 batches held about 65 MB."""
        class FirstBatch(Exception):
            pass

        def first_batch(*args):
            raise FirstBatch

        monkeypatch.setattr(jscc, "backward_with_bypass", first_batch)
        cfg = tiny_config(epochs=10 ** 6, warmup_epochs=10 ** 6, batch_size=100)
        ds = tiny_dataset()  # 100 rows: one batch per epoch
        tracemalloc.start()
        try:
            with pytest.raises(FirstBatch):
                train(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_empty_dataset_rejected(self):
        # the empty set is refused where it is built, so train never sees it
        with pytest.raises(DomainError) as err:
            train(Dataset(features=np.zeros((0, 4)), labels=np.zeros(0, dtype=np.int64),
                          n_classes=1), tiny_config(n_bits=4))
        assert str(err.value) == "dataset is empty"

    def test_warmup_exceeding_epochs_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(epochs=2, warmup_epochs=3)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigError, match="warmup_epochs=-2"):
            tiny_config(epochs=1, warmup_epochs=-2)

    def test_bad_rates_rejected(self):
        for bad in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ConfigError, match="learning rate"):
                tiny_config(learning_rate=bad)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="loss weight"):
                tiny_config(loss_weight=bad)

    def test_profile_wider_than_the_cap_rejected(self):
        """The classmethods' cap of MAX_PROFILE_BITS holds for a profile built
        any other way, as from a file."""
        def wide(n):
            return RobustnessProfile(np.full(n, 0.3), np.full(n, 0.5))

        assert len(tiny_config(profile=wide(MAX_PROFILE_BITS)).profile) == MAX_PROFILE_BITS
        with pytest.raises(DomainError) as err:
            tiny_config(profile=wide(MAX_PROFILE_BITS + 1))
        assert str(err.value) == f"a profile holds at most {MAX_PROFILE_BITS} bits, got 10001"

    def test_models_up_to_the_parameter_cap(self):
        """20676 features, 35 bits and 25 classes make MAX_MODEL_PARAMS
        weights and biases; with 34 bits and 27 classes, one more is refused
        before any weight is drawn."""
        models = build_models(20676, 25, tiny_config(n_bits=35), RandomSource(68))
        assert sum(model.params.size for model in
                   (models.encoder, models.decoder, models.classifier)) == MAX_MODEL_PARAMS
        del models
        tracemalloc.start()
        try:
            with pytest.raises(DomainError) as err:
                build_models(20676, 27, tiny_config(n_bits=34), RandomSource(69))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert str(err.value) == ("models of widths 20676-64-32-34, 34-32-64-20676, "
                                  "20676-64-32-27 hold 4000001 parameters, more than 4000000")

    def test_batches_up_to_the_entry_cap(self):
        """256 rows of 128x128-pixel inputs make MAX_BATCH_ENTRIES entries in
        the widest layer; one more row is refused before any weight is drawn."""
        assert 256 * 128 * 128 == MAX_BATCH_ENTRIES
        build_models(128 * 128, 10, tiny_config(), RandomSource(70), 256)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError) as err:
                build_models(128 * 128, 10, tiny_config(), RandomSource(71), 257)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert str(err.value) == ("a batch of 257 rows 16384 wide holds 4210688 entries, "
                                  "more than 4194304")

    def test_eval_under_bsec_bounds(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        result = train(ds, cfg)
        acc, mse = eval_under_bsec(result.models, ds, 0.1, 0.1, RandomSource(60))
        assert 0.0 <= acc <= 1.0 and mse >= 0.0

    def test_eval_under_bsec_keeps_no_activations(self):
        ds = tiny_dataset()
        models = build_models(16, 4, tiny_config(), RandomSource(63))
        triple = (models.encoder, models.decoder, models.classifier)
        for model in triple:
            model.forward(np.ones((3, model.in_dim)))  # a training-style forward caches
        eval_under_bsec(models, ds, 0.1, 0.1, RandomSource(64))
        assert [model._cache for model in triple] == [None, None, None]

    def test_eval_under_bsec_holds_no_memory_afterwards(self):
        # the criterion-9 shape: 2000 x 64 inputs through the README stacks
        profile = RobustnessProfile.homogeneous(64, 0.4, a=0.5)
        ds = synth_dataset(10, 64, 200, 2.0, RandomSource(65))
        models = build_models(64, 10, TrainingConfig(profile=profile), RandomSource(66))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            eval_under_bsec(models, ds, 0.2, 0.0, RandomSource(67))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2 ** 20

    @pytest.mark.parametrize("mu,d", [(0.6, 0.5), (-0.1, 0.0), (0.0, 1.5), (math.nan, 0.0)],
                             ids=["sum-above-one", "negative-mu", "d-above-one", "nan-mu"])
    def test_eval_under_bsec_rejects_invalid_channel(self, mu, d):
        models = build_models(16, 4, tiny_config(), RandomSource(61))
        with pytest.raises(DomainError) as err:
            eval_under_bsec(models, tiny_dataset(), mu, d, RandomSource(62))
        assert str(err.value) == f"invalid channel parameters mu={mu}, d={d}"

    def test_eval_under_bsec_rejects_empty_dataset(self):
        models = build_models(16, 4, tiny_config(), RandomSource(61))
        rng = RandomSource(62)
        with pytest.raises(DomainError) as err:
            eval_under_bsec(models, Dataset(features=np.zeros((0, 16)),
                                            labels=np.zeros(0, dtype=np.int64), n_classes=4),
                            0.1, 0.1, rng)
        assert str(err.value) == "dataset is empty"
        # nothing was drawn: the stream still starts where a fresh one does
        np.testing.assert_array_equal(rng.random(3), RandomSource(62).random(3))

    def test_warmup_only_config_strips_noise(self):
        """Every epoch is a warm-up epoch; the profile and the rest stay."""
        cfg = tiny_config()
        warm = warmup_only_config(cfg)
        assert warm.profile is cfg.profile
        assert warm.warmup_epochs == warm.epochs == cfg.epochs
        assert replace(warm, warmup_epochs=cfg.warmup_epochs) == cfg
