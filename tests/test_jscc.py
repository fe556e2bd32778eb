"""Latent sampling laws, the gradient bypass, and the training schedule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink.bsec import RobustnessProfile
from semlink.datasets import Dataset, synth_dataset
from semlink.errors import ConfigError, TrainingError
from semlink.jscc import (
    ModelTriple,
    TrainingConfig,
    backward_with_bypass,
    build_models,
    eval_under_bsec,
    noisy_latent_law,
    noisy_latent_sample,
    sample_latent_bits,
    train,
    warmup_only_config,
)
from semlink.nn import mse_loss, ce_loss
from semlink.numerics import RandomSource


def tiny_dataset(seed=50, n_per_class=25, dim=16, classes=4, sigma=1.0):
    return synth_dataset(classes, dim, n_per_class, sigma, RandomSource(seed))


def tiny_config(n_bits=12, **kw):
    defaults = dict(
        profile=RobustnessProfile.homogeneous(n_bits, 0.4, a=0.5),
        epochs=3,
        warmup_epochs=1,
        batch_size=32,
        seed=7,
        enc_hidden=(16,),
        dec_hidden=(16,),
        clf_hidden=(16,),
    )
    defaults.update(kw)
    return TrainingConfig(**defaults)


class TestLatentSampling:
    def test_degenerate_probabilities(self):
        rng = RandomSource(1)
        assert np.all(sample_latent_bits(np.zeros((5, 8)), rng) == 0.0)
        assert np.all(sample_latent_bits(np.ones((5, 8)), rng) == 1.0)

    def test_bernoulli_mean(self):
        rng = RandomSource(2)
        draws = sample_latent_bits(np.full((1000, 1000), 0.7), rng)
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
        draws = noisy_latent_sample(np.full(n, 0.7), np.full(n, 0.1), np.full(n, 0.2), rng)
        assert abs(np.mean(draws == 0.0) - 0.28) <= 3 * np.sqrt(0.28 * 0.72 / n)
        assert abs(np.mean(draws == 0.5) - 0.20) <= 3 * np.sqrt(0.2 * 0.8 / n)
        assert abs(np.mean(draws == 1.0) - 0.52) <= 3 * np.sqrt(0.52 * 0.48 / n)

    def test_warmup_deterministic_bit(self):
        rng = RandomSource(4)
        out = noisy_latent_sample(np.ones((3, 4)), np.zeros((3, 4)), np.zeros((3, 4)), rng)
        np.testing.assert_array_equal(out, 1.0)


class TestBypassGradients:
    def setup_models(self, seed):
        rng = RandomSource(seed)
        cfg = tiny_config()
        models = build_models(10, 4, cfg, rng)
        x = rng.std_normal((6, 10))
        labels = (rng.random(6) * 4).astype(np.int64)
        f = models.encoder.forward(x)
        b_hat = noisy_latent_sample(
            f, np.full_like(f, 0.1), np.full_like(f, 0.15), rng
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
        ds = tiny_dataset()
        all_warm = tiny_config(epochs=3, warmup_epochs=3)
        zero_alpha = TrainingConfig(
            profile=RobustnessProfile.homogeneous(12, 0.0, a=0.0),
            epochs=3, warmup_epochs=0, batch_size=32, seed=7,
            enc_hidden=(16,), dec_hidden=(16,), clf_hidden=(16,),
        )
        a = train(ds, all_warm)
        b = train(ds, zero_alpha)
        for ma, mb in zip(a.metrics, b.metrics):
            assert ma.loss == mb.loss

    def test_divergence_raises_with_epoch(self):
        features = np.full((8, 4), 1e200)
        ds = Dataset(features=features, labels=np.zeros(8, dtype=np.int64),
                     n_classes=1, norm_mean=0.0, norm_scale=1.0)
        cfg = tiny_config(n_bits=4, epochs=2, warmup_epochs=0, batch_size=8,
                          enc_hidden=(4,), dec_hidden=(4,), clf_hidden=(4,))
        with pytest.raises(TrainingError, match="epoch 0"):
            train(ds, cfg)

    def test_empty_dataset_rejected(self):
        ds = Dataset(features=np.zeros((0, 4)), labels=np.zeros(0, dtype=np.int64),
                     n_classes=1, norm_mean=0.0, norm_scale=1.0)
        with pytest.raises(ConfigError):
            train(ds, tiny_config(n_bits=4))

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
        with pytest.raises(ConfigError, match="loss weight"):
            tiny_config(loss_weight=math.nan)

    def test_eval_under_bsec_bounds(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        result = train(ds, cfg)
        acc, mse = eval_under_bsec(result.models, ds, 0.1, 0.1, RandomSource(60))
        assert 0.0 <= acc <= 1.0 and mse >= 0.0

    def test_warmup_only_config_strips_noise(self):
        cfg = tiny_config()
        warm = warmup_only_config(cfg)
        assert np.all(warm.profile.alphas == 0.0)
        assert warm.epochs == cfg.epochs
