import numpy as np
import pytest

from _reference import ref_bilstm_summary, ref_lstm_sequence
from icubench.neural.lstm import init_direction, lstm_backward, lstm_forward
from icubench.neural.models import BilstmModel
from icubench.schema import N_NUMERIC, Task

D = N_NUMERIC   # a numeric-only model's input width


def random_direction(rng, width, hidden):
    params = init_direction(rng, width, hidden)
    # perturb biases so nothing sits exactly at the origin
    params["b"] = rng.normal(0.0, 0.3, size=4 * hidden)
    return params


def bilstm(rng, hidden, fwd=None, bwd=None):
    """A numeric-only BilstmModel whose two directions are given (or random)."""
    model = BilstmModel(Task.MORTALITY, True, None, rng, hidden=hidden)
    for tag, params in (("lstm_f", fwd), ("lstm_b", bwd)):
        for name, arr in (params or random_direction(rng, D, hidden)).items():
            model.params[f"{tag}/{name}"] = arr
    return model


def direction(model, tag):
    return {name: model.params[f"{tag}/{name}"] for name in ("Wx", "Wh", "b")}


def summary(model, x):
    return model._core(x)[0]


class TestForward:
    def test_zero_params_give_zero_states(self):
        D, H = 4, 3
        zeros = {"Wx": np.zeros((4 * H, D)), "Wh": np.zeros((4 * H, H)), "b": np.zeros(4 * H)}
        x = np.random.default_rng(0).normal(size=(2, 5, D))
        hs, _ = lstm_forward(x, **zeros)
        assert np.all(hs == 0.0)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(12)
        D, H, T = 5, 4, 5
        params = random_direction(rng, D, H)
        x = rng.normal(size=(1, T, D))
        hs, _ = lstm_forward(x, params["Wx"], params["Wh"], params["b"])
        ref = ref_lstm_sequence(x[0].tolist(), params["Wx"].tolist(), params["Wh"].tolist(), params["b"].tolist())
        assert np.max(np.abs(hs[0] - np.asarray(ref))) < 1e-12

    def test_forget_bias_initialized_to_one(self):
        params = init_direction(np.random.default_rng(0), 3, 6)
        assert np.all(params["b"][6:12] == 1.0)
        assert np.all(params["b"][:6] == 0.0)

    def test_float64_weights_keep_the_kernel_in_float64(self):
        # the bitwise oracles in _reference.py are float64: float32 input must not narrow them
        rng = np.random.default_rng(2)
        params = random_direction(rng, 5, 3)
        x = rng.normal(size=(2, 4, 5)).astype(np.float32)
        hs, cache = lstm_forward(x, params["Wx"], params["Wh"], params["b"])
        dx, grads = lstm_backward(np.ones((2, 3), np.float32), cache, params["Wx"], params["Wh"])
        arrays = {"hs": hs, "dx": dx, **cache, **grads}
        assert {k: v.dtype for k, v in arrays.items() if v.dtype != np.float64} == {}

    def test_width_mismatch_raises(self):
        params = init_direction(np.random.default_rng(0), 4, 3)
        with pytest.raises(ValueError):
            lstm_forward(np.zeros((1, 2, 5)), params["Wx"], params["Wh"], params["b"])


class TestBidirectional:
    def test_summary_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        H, T = 3, 5
        model = bilstm(rng, H)
        x = rng.normal(size=(2, T, D))
        got = summary(model, x)
        for b in range(2):
            ref = ref_bilstm_summary(x[b].tolist(), direction(model, "lstm_f"), direction(model, "lstm_b"))
            assert np.max(np.abs(got[b] - np.asarray(ref))) < 1e-12

    def test_length_one_summary_equals_state(self):
        rng = np.random.default_rng(3)
        model = bilstm(rng, 3)
        x = rng.normal(size=(1, 1, D))
        hf, _ = lstm_forward(x, *direction(model, "lstm_f").values())
        hb, _ = lstm_forward(x, *direction(model, "lstm_b").values())
        assert np.array_equal(summary(model, x), np.concatenate([hf[:, 0], hb[:, 0]], axis=1))

    def test_summary_is_last_forward_and_first_backward(self):
        rng = np.random.default_rng(5)
        H = 3
        model = bilstm(rng, H)
        x = rng.normal(size=(2, 6, D))
        got = summary(model, x)
        hf, _ = lstm_forward(x, *direction(model, "lstm_f").values())
        hb_rev, _ = lstm_forward(x[:, ::-1], *direction(model, "lstm_b").values())
        assert np.array_equal(got[:, :H], hf[:, -1])
        assert np.array_equal(got[:, H:], hb_rev[:, -1])   # backward state at timestep 0

    def test_direction_symmetry_under_stack_swap(self):
        rng = np.random.default_rng(9)
        H = 4
        fwd, bwd = random_direction(rng, D, H), random_direction(rng, D, H)
        x = rng.normal(size=(3, 7, D))
        original = summary(bilstm(rng, H, fwd, bwd), x)
        swapped = summary(bilstm(rng, H, bwd, fwd), x[:, ::-1].copy())
        # reversed input with swapped stacks exchanges the two summary halves
        assert np.allclose(swapped[:, H:], original[:, :H], atol=1e-12)
        assert np.allclose(swapped[:, :H], original[:, H:], atol=1e-12)

    def test_empty_sequence_rejected(self):
        model = bilstm(np.random.default_rng(1), 3)
        with pytest.raises(ValueError):
            model.predict(np.zeros((1, 0, D)), None)

    def test_replaced_parameter_array_is_used(self):
        rng = np.random.default_rng(4)
        model = bilstm(rng, 3)
        x = rng.normal(size=(2, 4, D))
        before = summary(model, x)
        model.params["lstm_b/Wh"] = model.params["lstm_b/Wh"] * 2.0   # a new array, not an in-place update
        after = summary(model, x)
        assert np.array_equal(after[:, :3], before[:, :3])
        assert not np.allclose(after[:, 3:], before[:, 3:])


class TestBackwardNumerically:
    def test_summary_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        H, T, B = 3, 5, 2
        model = bilstm(rng, H)
        x = rng.normal(size=(B, T, D))
        w = rng.normal(size=2 * H)  # random linear readout of the summary

        def scalar_loss():
            return float((summary(model, x) @ w).sum())

        _, caches, _ = model._core(x)
        dx, grads = model._core_backward(np.tile(w, (B, 1)), caches)

        eps = 1e-6
        for key in ("lstm_f/Wx", "lstm_b/Wh", "lstm_f/b"):
            arr = model.params[key]
            for flat in rng.choice(arr.size, size=5, replace=False):
                orig = arr.flat[flat]
                arr.flat[flat] = orig + eps
                up = scalar_loss()
                arr.flat[flat] = orig - eps
                down = scalar_loss()
                arr.flat[flat] = orig
                fd = (up - down) / (2 * eps)
                assert grads[key].flat[flat] == pytest.approx(fd, rel=1e-5, abs=1e-8)
        # input gradient too
        for flat in rng.choice(x.size, size=5, replace=False):
            orig = x.flat[flat]
            x.flat[flat] = orig + eps
            up = scalar_loss()
            x.flat[flat] = orig - eps
            down = scalar_loss()
            x.flat[flat] = orig
            fd = (up - down) / (2 * eps)
            assert dx.flat[flat] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestInputGradient:
    def test_skipping_it_leaves_the_weight_gradients_bitwise_equal(self):
        rng = np.random.default_rng(13)
        params = random_direction(rng, 5, 4)
        x = rng.normal(size=(3, 6, 5))
        _, cache = lstm_forward(x, params["Wx"], params["Wh"], params["b"], active=[2, 2, 3, 3, 3, 3])
        dh = rng.normal(size=(3, 4))
        dx, want = lstm_backward(dh, cache, params["Wx"], params["Wh"], active=[2, 2, 3, 3, 3, 3])
        none, got = lstm_backward(dh, cache, params["Wx"], params["Wh"], active=[2, 2, 3, 3, 3, 3],
                                  input_grad=False)
        assert dx.shape == x.shape and none is None
        assert all(np.array_equal(got[name], want[name]) for name in want)

    @pytest.mark.parametrize("encoding, frozen, input_grad", [
        ("ohe", False, False), ("embedding", True, False), ("embedding", False, True), (None, False, False)])
    def test_only_a_trainable_embedding_asks_for_it(self, monkeypatch, encoding, frozen, input_grad):
        from icubench.neural import build_model, lstm

        vocabs = {"A": 3, "B": 4} if encoding else None
        rng = np.random.default_rng(14)
        model = build_model("bilstm", Task.MORTALITY, rng, vocab_sizes=vocabs, encoding=encoding or "ohe",
                            embed_frozen=frozen, hidden=4)
        asked = []
        real = lstm.lstm_backward

        def recording(*args, **kwargs):
            asked.append(kwargs["input_grad"])
            return real(*args, **kwargs)

        monkeypatch.setattr(lstm, "lstm_backward", recording)
        cat = rng.integers(0, 3, size=(2, 5, 2)) if encoding else None
        _, grads = model.loss_and_grads(rng.normal(size=(2, 5, D)), cat, np.array([0.0, 1.0]))
        assert asked == [input_grad, input_grad]
        assert any(name.startswith("emb/") for name in grads) == input_grad
