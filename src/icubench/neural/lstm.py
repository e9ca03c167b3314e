"""One LSTM direction with hand-written backpropagation through time.

Cell equations per timestep (gate order i, f, o, g inside the fused
matrices):

    z_t = Wx x_t + Wh h_{t-1} + b
    i = sigmoid(z_i)   f = sigmoid(z_f)   o = sigmoid(z_o)   g = tanh(z_g)
    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)

``models.BilstmModel`` runs the cell once over the sequence and once over
its reverse and consumes only the last hidden state of each run, so the
backward pass takes the gradient of that one state.

Ragged passes.  A training pass may hold rows of several lengths (see
``training.py``): rows are sorted longest first and end-aligned, so row r
occupies the last L_r of the T steps and the steps before are padding.  The
keyword-only ``active[t]`` is then the number of rows whose window has
begun at step t, which is a prefix of the batch.  Both passes touch only
that prefix (``h[:k] @ Wh.T``, the cell update, ``dz``); the other rows keep
h = c = 0 and a zero gate gradient, so a row's states and gradients are
those of the row run alone, and padding costs only the time-parallel GEMMs
over its cells.  The input gradient, which only a trainable embedding
reads, is skipped with ``input_grad=False``.

The forward cache is time-major, so each step t = 0..T-1 reads and writes
contiguous ``[B, ·]`` rows (h_{-1} = c_{-1} = 0):

    gates   [T, B, 4H]  filled once with x Wx^T + b; step t adds
                        h_{t-1} Wh^T to row t and activates it in place
                        to i, f, o, g
    hs      [T, B, H]   h_t
    c_prev  [T, B, H]   c_{t-1}
    tanh_c  [T, B, H]   tanh(c_t)

``lstm_forward`` returns ``hs`` as a ``[B, T, H]`` view.  The backward pass
writes each step's gate gradient into a batch-major ``[B, T, 4H]`` array
and builds h_{t-1} in one batch-major ``[B, T, H]`` buffer, so the weight
and input gradients are single ``[B*T, ·]`` GEMMs whose rows run
batch-major.

Buffers.  With training's ``PassBuffers`` a pass reuses the last pass's arrays:
each direction's ``gates``, ``hs``, ``c_prev`` (h_{t-1} once the backward loop is
done with it) and ``tanh_c``, and one ``[B*T, 4H]`` array for both, the input
GEMM's output (else freed before the step loop) and then ``dz_all``.  ``hs`` is
zeroed each pass, the rest is written before it is read; results last one pass.

Every buffer is allocated in the dtype of ``Wh``, and ``x`` and ``dh_last``
are cast to it, so the kernel runs in the parameters' precision: models
built by ``build_model`` run it in float32.  For float64 inputs both passes
are bit-for-bit equal to the batch-major kernels kept as oracles in
``tests/_reference.py``: every element goes through the same floating-point
operations in the same order, and every GEMM gets the same operands in the
same row order.
"""

from __future__ import annotations

import numpy as np

from .functional import glorot, sigmoid


def init_direction(rng: np.random.Generator, input_width: int, hidden: int) -> dict[str, np.ndarray]:
    """Glorot-uniform gate weights; forget-gate bias starts at 1."""
    b = np.zeros(4 * hidden)
    b[hidden:2 * hidden] = 1.0
    return {"Wx": glorot(rng, 4 * hidden, input_width), "Wh": glorot(rng, 4 * hidden, hidden), "b": b}


def _active_rows(active, B: int, T: int) -> list[int]:
    """Rows run at each step: all B when ``active`` is None."""
    if active is None:
        return [B] * T
    steps = [int(k) for k in active]
    if len(steps) != T or any(not 0 <= k <= B for k in steps) or steps != sorted(steps):
        raise ValueError(f"active must be {T} nondecreasing row counts in [0, {B}]")
    return steps


class PassBuffers:
    """Work arrays for one call's passes (see "Buffers"); ``direction(tag)`` keys all names but ``z`` by tag.

    ``take`` returns a stale view of an array first made for at least ``cells`` cells of width ``shape[-1]``,
    so smaller passes never regrow it: regrown arrays left heap holes (+3.7 MB peak RSS on phenotyping)."""

    def __init__(self, cells: int = 0, arrays: dict | None = None, tag: str = ""):
        self.cells, self._arrays, self._tag = cells, {} if arrays is None else arrays, tag

    def direction(self, tag: str) -> "PassBuffers":
        return PassBuffers(self.cells, self._arrays, tag)

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        key, size = name if name == "z" else (self._tag, name), int(np.prod(shape))
        flat = self._arrays.get(key)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._arrays[key] = np.empty(max(size, self.cells * shape[-1]), dtype)
        return flat[:size].reshape(shape)


def lstm_forward(x: np.ndarray, Wx: np.ndarray, Wh: np.ndarray, b: np.ndarray, *, active=None,
                 buffers: PassBuffers | None = None):
    """One direction over x [B, T, D]; returns hidden states [B, T, H] + cache.

    ``active[t]`` rows (a prefix) run step t; the others keep h = c = 0.
    """
    B, T, D = x.shape
    H = Wh.shape[1]
    if Wx.shape[1] != D:
        raise ValueError(f"input width {D} does not match weights ({Wx.shape[1]})")
    steps = _active_rows(active, B, T)
    dtype = Wh.dtype
    x = np.asarray(x, dtype=dtype)
    take = buffers.take if buffers else lambda name, shape, dtype: np.empty(shape, dtype)
    gates = take("gates", (T, B, 4 * H), dtype)
    np.add(np.matmul(x.reshape(B * T, D), Wx.T, out=take("z", (B * T, 4 * H), dtype))
           .reshape(B, T, 4 * H).transpose(1, 0, 2), b, out=gates)
    hs = take("hs", (T, B, H), dtype)
    hs.fill(0.0)   # rows that have not begun stay at h = 0
    c_prev = take("c_prev", (T, B, H), dtype)
    tanh_c = take("tanh_c", (T, B, H), dtype)
    h = np.zeros((B, H), dtype)
    c = np.zeros((B, H), dtype)
    for t, k in enumerate(steps):
        a = gates[t, :k]
        a += h[:k] @ Wh.T
        sigmoid(a[:, :3 * H], out=a[:, :3 * H])
        np.tanh(a[:, 3 * H:], out=a[:, 3 * H:])
        i, f, o, g = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
        c_prev[t] = c
        ck = c[:k]
        ck *= f
        ck += i * g
        np.tanh(ck, out=tanh_c[t, :k])
        np.multiply(o, tanh_c[t, :k], out=hs[t, :k])
        h = hs[t]
    cache = {"x": x, "hs": hs, "gates": gates, "c_prev": c_prev, "tanh_c": tanh_c}
    return hs.transpose(1, 0, 2), cache


def lstm_backward(dh_last: np.ndarray, cache, Wx: np.ndarray, Wh: np.ndarray, *, active=None,
                  input_grad: bool = True, buffers: PassBuffers | None = None):
    """BPTT for one direction; dh_last [B, H] is the gradient w.r.t. the last h_t.

    Returns (dx [B, T, D], parameter gradients); dx is None when
    ``input_grad`` is False.  ``active`` and ``buffers`` must be the forward
    pass's; inactive rows get a zero gate gradient.
    """
    x, hs, gates, c_prev, tanh_c = cache["x"], cache["hs"], cache["gates"], cache["c_prev"], cache["tanh_c"]
    B, T, D = x.shape
    H = Wh.shape[1]
    steps = _active_rows(active, B, T)
    dtype = Wh.dtype
    take = buffers.take if buffers else lambda name, shape, dtype: np.empty(shape, dtype)
    dz_all = take("z", (B, T, 4 * H), dtype)
    dh = np.asarray(dh_last, dtype=dtype)
    dc_next = np.zeros((B, H), dtype)
    for t in range(T - 1, -1, -1):
        k = steps[t]
        a = gates[t, :k]
        i, f, o, g = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
        tc = tanh_c[t, :k]
        dh = dh[:k]
        dc = dc_next[:k] + dh * o * (1.0 - tc * tc)
        dc_next = dc * f
        dz_all[k:, t] = 0.0
        dz = dz_all[:k, t]
        dz[:, :H] = dc * g                 # d i, d f, d o, then times sigmoid' = a (1 - a)
        dz[:, H:2 * H] = dc * c_prev[t, :k]
        dz[:, 2 * H:3 * H] = dh * tc
        dz[:, :3 * H] *= a[:, :3 * H]
        dz[:, :3 * H] *= 1.0 - a[:, :3 * H]
        dz[:, 3 * H:] = dc * i * (1.0 - g * g)
        dh = dz @ Wh
    flat_dz = dz_all.reshape(B * T, 4 * H)
    h_prev = take("c_prev", (B, T, H), dtype)   # the loop is done with c_prev: reuse its buffer
    h_prev[:, 0] = 0.0
    h_prev[:, 1:] = hs[:-1].transpose(1, 0, 2)
    dWh = flat_dz.T @ h_prev.reshape(B * T, H)
    del h_prev   # without buffers, freed before dx exists, so the two never add to peak memory
    dWx = flat_dz.T @ x.reshape(B * T, D)
    db = dz_all.sum(axis=(0, 1))
    dx = (flat_dz @ Wx).reshape(B, T, D) if input_grad else None
    return dx, {"Wx": dWx, "Wh": dWh, "b": db}
