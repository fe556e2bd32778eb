"""Manual-gradient networks checked against central finite differences."""

import math

import numpy as np
import pytest

from semlink.errors import DomainError, FormatError, StateError
from semlink.nn import (
    MODEL_MAGIC,
    AdamState,
    DenseModel,
    Layer,
    _activate,
    _activation_backward,
    ce_loss,
    init_model,
    load_model,
    mse_loss,
    save_model,
)
from semlink.numerics import RandomSource

from oracles import sigmoid_two_branch


def finite_diff_param_grad(loss_fn, param: np.ndarray, idx, eps: float = 1e-6) -> float:
    """Central finite difference of a scalar loss w.r.t. one parameter entry."""
    orig = param[idx]
    param[idx] = orig + eps
    up = loss_fn()
    param[idx] = orig - eps
    down = loss_fn()
    param[idx] = orig
    return (up - down) / (2 * eps)


def random_model(rng, dims=None, activations=None):
    if dims is None:
        n_layers = int(rng.uniform(1, 3.999))
        dims = [int(rng.uniform(2, 8.999)) for _ in range(n_layers + 1)]
        pool = ["relu", "sigmoid", "identity"]
        activations = [pool[int(rng.uniform(0, 2.999))] for _ in range(n_layers)]
    return init_model(dims, activations, rng)


class TestForward:
    def test_zero_weights_sigmoid_gives_half(self):
        model = DenseModel([Layer(np.zeros((4, 3)), np.zeros(4), "sigmoid")])
        out = model.forward(np.ones((2, 3)))
        np.testing.assert_allclose(out, 0.5, atol=1e-15)

    def test_scalar_sigmoid_value(self):
        model = DenseModel([Layer(np.array([[1.0]]), np.zeros(1), "sigmoid")])
        assert model.forward(np.array([[2.0]]))[0, 0] == pytest.approx(0.8807971, abs=1e-7)

    def test_sigmoid_outputs_bounded(self):
        model = random_model(RandomSource(1), dims=[5, 7, 3],
                             activations=["relu", "sigmoid"])
        out = model.forward(RandomSource(2).std_normal((20, 5)))
        assert np.all((out > 0) & (out < 1))

    def test_dimension_mismatch(self):
        model = random_model(RandomSource(3), dims=[4, 2], activations=["identity"])
        with pytest.raises(DomainError):
            model.forward(np.ones((1, 5)))

    @pytest.mark.parametrize("call,message", [
        (lambda: mse_loss(np.zeros((2, 3)), np.zeros((2, 4))), "shape mismatch (2, 3) vs (2, 4)"),
        (lambda: ce_loss(np.zeros((2, 3)), np.array([0, 1, 2])),
         "one label per logits row required"),
        (lambda: Layer(np.zeros(3), np.zeros(3), "relu"),
         "layer weight must be (out, in) with matching bias"),
        (lambda: Layer(np.zeros((3, 2)), np.zeros(2), "relu"),
         "layer weight must be (out, in) with matching bias"),
        (lambda: init_model([3, 4], ["relu", "relu"], RandomSource(1)),
         "need len(dims) == len(activations) + 1"),
    ], ids=["mse", "ce", "weight-not-2d", "bias-length", "init-lengths"])
    def test_shape_checks(self, call, message):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message

    def test_backward_requires_forward(self):
        model = random_model(RandomSource(4), dims=[3, 2], activations=["identity"])
        with pytest.raises(StateError):
            model.backward(np.ones((1, 2)))

    def test_chained_dims_validated(self):
        with pytest.raises(DomainError):
            DenseModel([
                Layer(np.zeros((3, 2)), np.zeros(3), "relu"),
                Layer(np.zeros((4, 5)), np.zeros(4), "relu"),
            ])


# the README model's three stacks (64 inputs, 64 latent bits, 10 classes, default
# hidden widths)
README_STACKS = {
    "encoder": ([64, 64, 32, 64], ["relu", "relu", "sigmoid"]),
    "decoder": ([64, 32, 64, 64], ["relu", "relu", "identity"]),
    "classifier": ([64, 64, 32, 10], ["relu", "relu", "identity"]),
}


class TestActivations:
    EDGES = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan,
                      5e-324, -5e-324])

    def test_sigmoid_equals_two_branch_oracle_on_normals(self):
        z = RandomSource(36).std_normal((100, 100)) * 50.0
        assert np.array_equal(_activate(z.copy(), "sigmoid"), sigmoid_two_branch(z), equal_nan=True)

    def test_sigmoid_equals_two_branch_oracle_at_edges(self):
        assert np.array_equal(_activate(self.EDGES.copy(), "sigmoid"), sigmoid_two_branch(self.EDGES),
                              equal_nan=True)

    def test_relu_output_mask_equals_preactivation_mask(self):
        grad = np.arange(1.0, self.EDGES.size + 1)
        assert np.array_equal(_activation_backward(grad, _activate(self.EDGES.copy(), "relu"), "relu"),
                              grad * (self.EDGES > 0))

    @pytest.mark.parametrize("kind", ["tanh", "softmax"])
    def test_removed_activation_is_rejected(self, kind):
        with pytest.raises(DomainError, match="unknown activation"):
            Layer(np.zeros((2, 2)), np.zeros(2), kind)

    def test_cache_holds_input_and_one_output_per_layer(self):
        model = random_model(RandomSource(34), dims=[4, 5, 6, 2],
                             activations=["relu", "sigmoid", "identity"])
        x = RandomSource(35).std_normal((3, 4))
        out = model.forward(x)
        assert len(model._cache) == len(model.layers) + 1
        assert np.array_equal(model._cache[0], x) and model._cache[-1] is out


class TestStackedForward:
    @pytest.mark.parametrize("rows", [1, 3, 10])
    @pytest.mark.parametrize("stack", list(README_STACKS))
    def test_stack_equals_per_block_forwards(self, stack, rows):
        dims, activations = README_STACKS[stack]
        model = init_model(dims, activations, RandomSource(31))
        blocks = RandomSource(32).std_normal((25, rows, dims[0]))
        stacked = model.forward(blocks)
        assert stacked.shape == (25, rows, dims[-1])
        per_block = np.concatenate([model.forward(b) for b in blocks])
        assert np.array_equal(stacked.reshape(-1, dims[-1]), per_block)

    @pytest.mark.parametrize("rows", [1, 7, 2000])
    @pytest.mark.parametrize("stack", list(README_STACKS))
    def test_one_block_stack_equals_2d_forward(self, stack, rows):
        # the form inference uses for a whole dataset or a short last block
        dims, activations = README_STACKS[stack]
        model = init_model(dims, activations, RandomSource(37))
        x = RandomSource(38).std_normal((rows, dims[0]))
        assert np.array_equal(model.forward(x[None])[0], model.forward(x))

    def test_stack_drops_the_cache(self):
        model = random_model(RandomSource(36), dims=[4, 3, 2], activations=["relu", "identity"])
        model.forward(np.ones((5, 4)))
        model.forward(np.ones((2, 5, 4)))
        assert model._cache is None
        with pytest.raises(StateError, match="without a cached forward pass"):
            model.backward(np.ones((5, 2)))

    def test_stack_dimension_mismatch(self):
        model = random_model(RandomSource(33), dims=[4, 2], activations=["identity"])
        with pytest.raises(DomainError):
            model.forward(np.ones((3, 2, 5)))


class TestLosses:
    def test_mse_values(self):
        assert mse_loss(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))[0] == 0.0
        assert mse_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))[0] == 1.0

    def test_mse_gradient_matches_definition(self):
        u = np.array([[0.5, -1.0, 2.0]])
        u_hat = np.array([[1.0, 0.0, 0.5]])
        _, grad = mse_loss(u, u_hat)
        np.testing.assert_allclose(grad, 2 * (u_hat - u), atol=1e-15)

    def test_mse_gradient_finite_difference(self):
        rng = RandomSource(5)
        u = rng.std_normal((4, 6))
        u_hat = rng.std_normal((4, 6))
        _, grad = mse_loss(u, u_hat)
        for idx in [(0, 0), (1, 3), (3, 5)]:
            fd = finite_diff_param_grad(lambda: mse_loss(u, u_hat)[0], u_hat, idx)
            assert grad[idx] == pytest.approx(fd, rel=1e-6)

    def test_ce_uniform_logits(self):
        k = 7
        value, _ = ce_loss(np.zeros((1, k)), np.array([3]))
        assert value == pytest.approx(math.log(k), abs=1e-12)

    def test_ce_confident_logit(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 50.0
        value, _ = ce_loss(logits, np.array([2]))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_ce_gradient_is_softmax_minus_onehot(self):
        logits = np.array([[0.3, -0.7, 1.1]])
        _, grad = ce_loss(logits, np.array([1]))
        z = logits - logits.max()
        softmax = np.exp(z) / np.exp(z).sum()
        expected = softmax.copy()
        expected[0, 1] -= 1.0
        np.testing.assert_allclose(grad, expected, atol=1e-12)

    def test_ce_gradient_finite_difference(self):
        rng = RandomSource(6)
        logits = rng.std_normal((3, 5))
        labels = np.array([0, 4, 2])
        _, grad = ce_loss(logits, labels)
        for idx in [(0, 0), (1, 4), (2, 2), (2, 3)]:
            fd = finite_diff_param_grad(lambda: ce_loss(logits, labels)[0], logits, idx)
            assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_ce_stability_with_huge_logits(self):
        value, grad = ce_loss(np.array([[1000.0, -1000.0]]), np.array([0]))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))


class TestBackprop:
    @pytest.mark.parametrize("seed", range(8))
    def test_parameter_gradients_match_finite_differences(self, seed):
        rng = RandomSource(seed + 100)
        model = random_model(rng)
        x = rng.std_normal((5, model.in_dim))
        target = rng.std_normal((5, model.out_dim))

        def loss():
            return mse_loss(target, model.forward(x))[0]

        out = model.forward(x)
        _, grad_out = mse_loss(target, out)
        model.backward(grad_out)
        check_rng = RandomSource(seed + 200)
        for layer in model.layers:
            for _ in range(3):
                idx = (
                    int(check_rng.uniform(0, layer.weight.shape[0] - 1e-9)),
                    int(check_rng.uniform(0, layer.weight.shape[1] - 1e-9)),
                )
                fd = finite_diff_param_grad(loss, layer.weight, idx)
                assert layer.grad_weight[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)
            bidx = int(check_rng.uniform(0, layer.bias.shape[0] - 1e-9))
            fd = finite_diff_param_grad(loss, layer.bias, (bidx,))
            assert layer.grad_bias[bidx] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_input_gradient(self):
        rng = RandomSource(43)
        model = random_model(rng, dims=[4, 6, 2], activations=["sigmoid", "identity"])
        x = rng.std_normal((3, 4))
        target = rng.std_normal((3, 2))
        out = model.forward(x)
        _, grad_out = mse_loss(target, out)
        grad_in = model.backward(grad_out)

        def loss():
            return mse_loss(target, model.forward(x))[0]

        for idx in [(0, 0), (2, 3)]:
            fd = finite_diff_param_grad(loss, x, idx)
            assert grad_in[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


    def test_backward_overwrites_gradients(self):
        rng = RandomSource(44)
        model = random_model(rng, dims=[5, 7, 3], activations=["relu", "sigmoid"])
        out = model.forward(rng.std_normal((6, 5)))
        _, grad_out = mse_loss(rng.std_normal((6, 3)), out)
        first_in = model.backward(grad_out)
        first = model.grads.copy()
        second_in = model.backward(grad_out)
        np.testing.assert_array_equal(model.grads, first)
        np.testing.assert_array_equal(second_in, first_in)
        assert np.any(first != 0.0)

    @pytest.mark.parametrize("activations", [["relu", "sigmoid"], ["sigmoid", "identity"]])
    def test_skipping_the_input_gradient_writes_the_same_gradients(self, activations):
        rng = RandomSource(45)
        model = random_model(rng, dims=[5, 7, 3], activations=activations)
        out = model.forward(rng.std_normal((6, 5)))
        _, grad_out = mse_loss(rng.std_normal((6, 3)), out)
        assert model.backward(grad_out) is not None
        full = model.grads.tobytes()
        model.grads[...] = np.nan
        assert model.backward(grad_out, input_grad=False) is None
        assert model.grads.tobytes() == full


class TestFlatBuffers:
    @staticmethod
    def assert_views(model):
        assert model.params.size == model.grads.size == sum(
            l.weight.size + l.bias.size for l in model.layers)
        for layer in model.layers:
            for arr in (layer.weight, layer.bias):
                assert np.shares_memory(arr, model.params)
                assert not np.shares_memory(arr, model.grads)
            for arr in (layer.grad_weight, layer.grad_bias):
                assert np.shares_memory(arr, model.grads)
                assert not np.shares_memory(arr, model.params)
        # the views tile the buffer in payload order: W0, b0, W1, b1, ...
        np.testing.assert_array_equal(
            model.params,
            np.concatenate([a.ravel() for l in model.layers for a in (l.weight, l.bias)]),
        )
        assert model.params.flags.writeable and model.grads.flags.writeable

    def test_init_model_views(self):
        self.assert_views(random_model(RandomSource(14), dims=[5, 8, 3],
                                       activations=["relu", "sigmoid"]))

    def test_load_model_views(self, tmp_path):
        model = random_model(RandomSource(15), dims=[4, 6, 6, 2],
                             activations=["sigmoid", "relu", "identity"])
        save_model(model, tmp_path / "model.bin")
        loaded = load_model(tmp_path / "model.bin")
        self.assert_views(loaded)
        np.testing.assert_array_equal(loaded.params, model.params)


    def test_adam_state_owns_the_buffers_of_its_models(self, tmp_path):
        models = [init_model(dims, acts, RandomSource(40 + i))
                  for i, (dims, acts) in enumerate(README_STACKS.values())]
        before = [model.params.copy() for model in models]
        state = AdamState(models)
        assert state.params.size == state.grads.size == sum(p.size for p in before)
        np.testing.assert_array_equal(state.params, np.concatenate(before))
        for model in models:
            self.assert_views(model)
            assert np.shares_memory(model.params, state.params)
            assert np.shares_memory(model.grads, state.grads)
            for layer in model.layers:
                assert np.shares_memory(layer.weight, state.params)
                assert np.shares_memory(layer.grad_weight, state.grads)
        rng = RandomSource(43)
        for _ in range(5):
            for model in models:
                out = model.forward(rng.std_normal((9, model.in_dim)))
                model.backward(mse_loss(rng.std_normal((9, model.out_dim)), out)[1])
            state.step(lr=0.01)
        for i, model in enumerate(models):
            assert not np.array_equal(model.params, before[i])
            save_model(model, tmp_path / f"{i}.bin")
            loaded = load_model(tmp_path / f"{i}.bin")
            assert loaded.params.tobytes() == model.params.tobytes()
            save_model(loaded, tmp_path / f"{i}-again.bin")
            assert (tmp_path / f"{i}-again.bin").read_bytes() == (tmp_path / f"{i}.bin").read_bytes()


def reference_adam_step(model, moments, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The former per-layer Adam loop: one update per weight and bias array."""
    b1c = 1.0 - beta1 ** t
    b2c = 1.0 - beta2 ** t
    for layer, (mw, mb, vw, vb) in zip(model.layers, moments):
        for param, grad, m, v in (
            (layer.weight, layer.grad_weight, mw, vw),
            (layer.bias, layer.grad_bias, mb, vb),
        ):
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            param -= lr * (m / b1c) / (np.sqrt(v / b2c) + eps)


class TestAdam:
    def test_one_state_over_three_models_matches_per_layer_loop(self):
        shapes = [([6, 8, 4], ["relu", "sigmoid"]),
                  ([4, 5, 6], ["relu", "identity"]),
                  ([6, 7, 3], ["sigmoid", "identity"])]

        def build():
            return [init_model(dims, acts, RandomSource(20 + i))
                    for i, (dims, acts) in enumerate(shapes)]

        def backward_all(models, step):
            rng = RandomSource(1000 + step)
            for model in models:
                out = model.forward(rng.std_normal((9, model.in_dim)))
                model.backward(mse_loss(rng.std_normal((9, model.out_dim)), out)[1])

        flat = build()
        state = AdamState(flat)
        ref = build()
        moments = [[tuple(np.zeros_like(a) for a in (l.weight, l.bias, l.weight, l.bias))
                    for l in model.layers] for model in ref]
        for t in range(1, 51):
            backward_all(flat, t)
            state.step(lr=0.01)
            backward_all(ref, t)
            for model, mom in zip(ref, moments):
                reference_adam_step(model, mom, t, lr=0.01)
        for a, b in zip(flat, ref):
            assert np.array_equal(a.params, b.params)
            for la, lb in zip(a.layers, b.layers):
                assert np.array_equal(la.weight, lb.weight)
                assert np.array_equal(la.bias, lb.bias)
        assert not np.array_equal(flat[0].params, build()[0].params)

    def test_zero_gradient_no_update(self):
        model = random_model(RandomSource(7), dims=[3, 2], activations=["identity"])
        before = model.layers[0].weight.copy()
        state = AdamState([model])
        state.step(lr=0.1)
        np.testing.assert_array_equal(model.layers[0].weight, before)

    def test_constant_gradient_step_magnitude(self):
        model = DenseModel([Layer(np.zeros((1, 1)), np.zeros(1), "identity")])
        state = AdamState([model])
        g = 0.37
        prev = 0.0
        for _ in range(200):
            model.layers[0].grad_weight[...] = g
            prev = model.layers[0].weight[0, 0]
            state.step(lr=0.001)
        step = prev - model.layers[0].weight[0, 0]
        assert step == pytest.approx(0.001, rel=1e-6)

    def test_determinism(self):
        def run():
            rng = RandomSource(11)
            model = random_model(rng, dims=[4, 4, 2], activations=["relu", "identity"])
            state = AdamState([model])
            x = rng.std_normal((8, 4))
            t = rng.std_normal((8, 2))
            for _ in range(20):
                out = model.forward(x)
                _, grad = mse_loss(t, out)
                model.backward(grad)
                state.step(lr=0.01)
            return [l.weight.copy() for l in model.layers]

        for wa, wb in zip(run(), run()):
            np.testing.assert_array_equal(wa, wb)


class TestPersistence:
    def test_roundtrip_bitwise(self, tmp_path):
        model = random_model(RandomSource(12), dims=[5, 8, 3],
                             activations=["relu", "sigmoid"])
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        for la, lb in zip(model.layers, loaded.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation
        save_model(loaded, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize("act_id", [2, 4])
    def test_removed_activation_id_is_a_format_error(self, tmp_path, act_id):
        model = random_model(RandomSource(16), dims=[4, 3, 2],
                             activations=["relu", "identity"])
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[8 + 4 + 9 + 8] = act_id  # the second layer header's activation byte
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"unknown activation id {act_id}$"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry,where", [(3, "layer 0 weight[0, 3]"),
                                             (4 * 5 + 2, "layer 0 bias[2]"),
                                             (25 + 1 * 5 + 2, "layer 1 weight[1, 2]"),
                                             (25 + 10 + 1, "layer 1 bias[1]")])
    def test_non_finite_payload_is_a_format_error(self, tmp_path, value, entry, where):
        model = random_model(RandomSource(18), dims=[4, 5, 2],
                             activations=["relu", "sigmoid"])
        model.params[-1] = np.nan  # only the first bad entry is named
        model.params[entry] = value
        path = tmp_path / "model.bin"
        save_model(model, path)
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: non-finite parameters start at {where} ({value})"

    def test_trailing_bytes_are_a_format_error(self, tmp_path):
        model = random_model(RandomSource(19), dims=[4, 2], activations=["sigmoid"])
        path = tmp_path / "model.bin"
        save_model(model, path)
        size = len(path.read_bytes())
        path.write_bytes(path.read_bytes() + bytes(3))
        with pytest.raises(FormatError,
                           match=f"3 bytes after the payload, which ends at byte {size}$"):
            load_model(path)

    def test_zero_layers_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(MODEL_MAGIC + bytes(4))
        with pytest.raises(FormatError, match="model.bin: a model needs at least one layer$"):
            load_model(path)

    def test_unchained_layer_headers_are_a_format_error(self, tmp_path):
        model = random_model(RandomSource(20), dims=[4, 5, 2],
                             activations=["relu", "identity"])
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[8 + 4 + 9 + 4] = 6  # the second layer header's column count
        path.write_bytes(bytes(blob) + bytes(8 * 2))  # the payload of a (2, 6) weight
        with pytest.raises(FormatError, match=r"model.bin: layer dimensions do not chain: "
                                              r"\(5, 4\) -> \(2, 6\)$"):
            load_model(path)

    def test_truncated_payload(self, tmp_path):
        model = random_model(RandomSource(13), dims=[4, 2], activations=["sigmoid"])
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError, match="bytes"):
            load_model(path)

    def test_truncated_multilayer_payload_message(self, tmp_path):
        model = random_model(RandomSource(17), dims=[4, 5, 2],
                             activations=["relu", "sigmoid"])
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = path.read_bytes()
        assert len(blob) == 8 + 4 + 2 * 9 + 8 * model.params.size
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError,
                           match=f"expected {len(blob)} bytes, file has {len(blob) - 8}$"):
            load_model(path)
