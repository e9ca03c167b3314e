"""The LSTM kernels and sigmoid are bit-for-bit equal to their batch-major oracles.

``tests/_reference.py`` keeps the boolean-mask sigmoid and the batch-major
``lstm_forward``/``lstm_backward`` the package used before its caches went
time-major.  Same-seed reports stay byte-identical only if every state and
gradient matches those oracles exactly, so these tests compare bits, not
tolerances.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import ref_lstm_backward, ref_lstm_forward, ref_sigmoid
from icubench.neural.functional import sigmoid
from icubench.neural.lstm import init_direction, lstm_backward, lstm_forward

EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
         745.0, -745.0, 746.0, -746.0, 710.0, -710.0, 709.78, -709.78, 36.0, -36.0, 1.0, -1.0]


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


class TestSigmoid:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(EDGES)), min_size=1, max_size=64))
    @example(EDGES)
    def test_matches_oracle(self, values):
        x = np.asarray(values, dtype=np.float64)
        assert_bitwise(sigmoid(x), ref_sigmoid(x))

    def test_out_may_alias_input(self):
        x = np.random.default_rng(0).normal(scale=20.0, size=(7, 9))
        want = ref_sigmoid(x)
        result = sigmoid(x, out=x)
        assert result is x
        assert_bitwise(x, want)

    def test_strided_slice(self):
        z = np.random.default_rng(1).normal(scale=5.0, size=(128, 256))
        ifo = z[:, :192]
        want = ref_sigmoid(ifo)
        assert_bitwise(sigmoid(ifo), want)
        sigmoid(ifo, out=ifo)
        assert_bitwise(ifo, want)


@pytest.mark.parametrize("B,T", [(1, 1), (3, 5), (8, 48), (128, 24)])
def test_lstm_matches_batch_major_oracle(B, T):
    D, H = 50, 64
    rng = np.random.default_rng(B * 100 + T)
    params = init_direction(rng, D, H)
    params["b"] = rng.normal(0.0, 0.5, size=4 * H)
    Wx, Wh, b = params["Wx"], params["Wh"], params["b"]
    x = rng.normal(size=(B, T, D))
    dh_last = rng.normal(size=(B, H))

    hs, cache = lstm_forward(x, Wx, Wh, b)
    ref_hs, ref_cache = ref_lstm_forward(x, Wx, Wh, b)
    assert_bitwise(hs, ref_hs)
    assert_bitwise(cache["gates"].transpose(1, 0, 2), ref_cache["gates"])
    assert_bitwise(cache["c_prev"].transpose(1, 0, 2), ref_cache["c_prev"])
    assert_bitwise(cache["tanh_c"].transpose(1, 0, 2), ref_cache["tanh_c"])

    dx, grads = lstm_backward(dh_last, cache, Wx, Wh)
    ref_dx, ref_grads = ref_lstm_backward(dh_last, ref_cache, Wx, Wh)
    assert_bitwise(dx, ref_dx)
    assert list(grads) == list(ref_grads)
    for name in ref_grads:
        assert_bitwise(grads[name], ref_grads[name])
