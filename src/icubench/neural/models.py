"""The three predictor families sharing one embedding and head mechanism.

All tasks reduce to: encode the input window into a representation, apply
an affine head, squash.  Binary heads (mortality, decompensation) and the
25 phenotype heads use the logistic function; the remaining-LoS head uses
ReLU so predictions cannot go negative.  The pooled baselines (``lr``,
``ann``) consume the mean over time of the same per-timestep input vector
the sequence model sees, embeddings included.

Every entry point takes an optional keyword-only ``lengths``: the rows'
window lengths, longest first, for a pass whose rows are end-aligned (row r
is its last ``lengths[r]`` steps; the steps before are padding).  Padding
cells may hold anything the embedding tables can index: ``_assemble``
zeroes them in the input, the pooled models average each row over its own
length, the BiLSTM starts each row at its first real step and reverses it
within its own length, and no embedding row receives gradient from a
padding cell.  ``lengths=None`` means every row fills all T steps.
"""

from __future__ import annotations

import copy
import math
from typing import Mapping

import numpy as np

from ..schema import N_NUMERIC, Task
from . import lstm
from .embedding import EmbeddingTable
from .functional import glorot, relu, sigmoid, task_loss

OUT_DIM = {Task.MORTALITY: 1, Task.DECOMPENSATION: 1, Task.LOS: 1, Task.PHENOTYPING: 25}

OHE = "ohe"
EMBEDDING = "embedding"


def real_cells(lengths: np.ndarray, T: int) -> np.ndarray:
    """[B, T] mask of the cells that hold a row's window (end-aligned)."""
    return np.arange(T) >= (T - np.asarray(lengths))[:, None]


def _row_lengths(x: np.ndarray, lengths) -> np.ndarray:
    """Checked per-row lengths of a [B, T, ...] pass (all T when None)."""
    B, T = x.shape[:2]
    if lengths is None:
        return np.full(B, T)
    lengths = np.asarray(lengths)
    if lengths.shape != (B,) or np.any(lengths < 1) or np.any(lengths > T) or np.any(np.diff(lengths) > 0):
        raise ValueError(f"lengths must be {B} values in [1, {T}], longest first")
    return lengths


def _cells(a: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The [B, T, D] array ``a`` with its B*T cells taken in the flat ``order``."""
    return a.reshape(-1, a.shape[-1])[order].reshape(a.shape)


def embedding_dims(vocab_sizes: Mapping[str, int], cap: int = 50) -> dict[str, int]:
    """Default entity-embedding widths: min(cap, ceil(vocab/2))."""
    return {name: min(cap, math.ceil(size / 2)) for name, size in vocab_sizes.items()}


class BaseModel:
    """Shared input assembly, head, loss chaining and gradient routing."""

    kind = "base"

    def __init__(self, task: Task, use_numeric: bool, emb: EmbeddingTable | None):
        if not use_numeric and emb is None:
            raise ValueError("model needs at least one of numeric channels or embeddings")
        self.task = task
        self.use_numeric = use_numeric
        self.emb = emb
        self.params: dict[str, np.ndarray] = {}
        self.frozen: set[str] = set()
        if emb is not None:
            for name, table in emb.tables.items():
                self.params[f"emb/{name}"] = table
                if not emb.trainable:
                    self.frozen.add(f"emb/{name}")

    @property
    def trainable(self) -> list[str]:
        return [k for k in self.params if k not in self.frozen]

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype; inputs, caches and gradients follow it."""
        return self.params["head/W"].dtype

    def astype(self, dtype) -> "BaseModel":
        """A copy of the model whose parameters are new arrays cast to ``dtype``.

        The copy's embedding tables are its own ``emb/<name>`` parameters, so
        an optimiser step on a parameter moves the table the model reads.
        """
        model = copy.copy(self)
        model.params = {name: arr.astype(dtype) for name, arr in self.params.items()}
        if self.emb is not None:
            tables = {name: model.params[f"emb/{name}"] for name in self.emb.names}
            model.emb = EmbeddingTable(tables, trainable=self.emb.trainable)
        return model

    @property
    def input_width(self) -> int:
        return (N_NUMERIC if self.use_numeric else 0) + (self.emb.width if self.emb else 0)

    def _assemble(self, num: np.ndarray | None, cat: np.ndarray | None, lengths):
        """(x, lengths, real): the [B, T, D] input, padding zeroed, with the checked lengths and real_cells."""
        parts = []
        if self.use_numeric:
            parts.append(np.asarray(num, dtype=self.dtype))
        if self.emb is not None:
            parts.append(self.emb.forward(cat))
        x = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        lengths = _row_lengths(x, lengths)
        real = real_cells(lengths, x.shape[1])
        return np.where(real[..., None], x, 0.0), lengths, real

    def _emb_grads(self, dx: np.ndarray, cat: np.ndarray | None, real: np.ndarray) -> dict[str, np.ndarray]:
        if self.emb is None or not self.emb.trainable:
            return {}  # frozen tables (OHE included) take no update, so skip the scatter
        offset = N_NUMERIC if self.use_numeric else 0
        return {f"emb/{name}": g for name, g in self.emb.backward(cat[real], dx[real][:, offset:]).items()}

    def _head_out(self, rep: np.ndarray):
        z = rep @ self.params["head/W"].T + self.params["head/b"]
        if self.task == Task.LOS:
            preds = relu(z[:, 0])
        elif self.task == Task.PHENOTYPING:
            preds = sigmoid(z)
        else:
            preds = sigmoid(z[:, 0])
        return z, preds

    def _head_backward(self, z, preds, dpreds, rep):
        if self.task == Task.LOS:
            dz = (dpreds * (z[:, 0] > 0.0))[:, None]
        elif self.task == Task.PHENOTYPING:
            dz = dpreds * preds * (1.0 - preds)
        else:
            dz = (dpreds * preds * (1.0 - preds))[:, None]
        grads = {"head/W": dz.T @ rep, "head/b": dz.sum(axis=0)}
        return dz @ self.params["head/W"], grads

    # subclasses: representation of the window, given the pass shape (lengths, real) of _assemble
    def _core(self, x, lengths, real, buffers=None):  # -> (rep, cache, relu_preacts)
        raise NotImplementedError

    def _core_backward(self, drep, cache, input_grad=True):  # -> (dx, grads); dx may be None if not input_grad
        raise NotImplementedError

    def predict(self, num, cat, *, lengths=None, buffers=None) -> np.ndarray:
        rep, _, _ = self._core(*self._assemble(num, cat, lengths), buffers)
        return self._head_out(rep)[1]

    def loss_forward(self, num, cat, labels, *, lengths=None) -> tuple[float, list[np.ndarray]]:
        """Loss plus every ReLU pre-activation (for kink detection)."""
        rep, _, preacts = self._core(*self._assemble(num, cat, lengths))
        z, preds = self._head_out(rep)
        loss, _ = task_loss(preds, labels, self.task)
        if self.task == Task.LOS:
            preacts = preacts + [z[:, 0]]
        return loss, preacts

    def loss_and_grads(self, num, cat, labels, dropout: float = 0.0, dropout_rng=None, *, lengths=None, buffers=None):
        x, lengths, real = self._assemble(num, cat, lengths)
        rep, cache, _ = self._core(x, lengths, real, buffers)
        mask = None
        if dropout > 0.0 and dropout_rng is not None:
            mask = (dropout_rng.random(rep.shape) >= dropout).astype(rep.dtype) / (1.0 - dropout)
            rep = rep * mask
        z, preds = self._head_out(rep)
        loss, dpreds = task_loss(preds, labels, self.task)
        drep, grads = self._head_backward(z, preds, dpreds, rep)
        if mask is not None:
            drep = drep * mask
        # only a trainable embedding reads the input gradient
        dx, core_grads = self._core_backward(drep, cache, input_grad=self.emb is not None and self.emb.trainable)
        grads.update(core_grads)
        grads.update(self._emb_grads(dx, cat, real))
        return loss, grads


class LinearModel(BaseModel):
    """Logistic/linear regression on the time-pooled input vector."""

    kind = "lr"

    def __init__(self, task, use_numeric, emb, rng):
        super().__init__(task, use_numeric, emb)
        self.params["head/W"] = glorot(rng, OUT_DIM[task], self.input_width)
        self.params["head/b"] = np.zeros(OUT_DIM[task])

    def _core(self, x, lengths, real, buffers=None):
        counts = lengths.astype(x.dtype)[:, None]
        return x.sum(axis=1) / counts, {"counts": counts, "shape": x.shape}, []

    def _core_backward(self, drep, cache, input_grad=True):
        return np.broadcast_to((drep / cache["counts"])[:, None, :], cache["shape"]), {}


class AnnModel(BaseModel):
    """One ReLU hidden layer over the time-pooled input vector."""

    kind = "ann"

    def __init__(self, task, use_numeric, emb, rng, hidden: int = 64):
        super().__init__(task, use_numeric, emb)
        self.hidden = hidden
        self.params["hidden/W"] = glorot(rng, hidden, self.input_width)
        self.params["hidden/b"] = np.zeros(hidden)
        self.params["head/W"] = glorot(rng, OUT_DIM[task], hidden)
        self.params["head/b"] = np.zeros(OUT_DIM[task])

    def _core(self, x, lengths, real, buffers=None):
        counts = lengths.astype(x.dtype)[:, None]
        pooled = x.sum(axis=1) / counts
        z1 = pooled @ self.params["hidden/W"].T + self.params["hidden/b"]
        return relu(z1), {"pooled": pooled, "z1": z1, "counts": counts, "shape": x.shape}, [z1]

    def _core_backward(self, drep, cache, input_grad=True):
        dz1 = drep * (cache["z1"] > 0.0)
        grads = {"hidden/W": dz1.T @ cache["pooled"], "hidden/b": dz1.sum(axis=0)}
        dpooled = dz1 @ self.params["hidden/W"]
        return np.broadcast_to((dpooled / cache["counts"])[:, None, :], cache["shape"]), grads


class BilstmModel(BaseModel):
    """Bidirectional LSTM encoder; the head consumes the sequence summary.

    The summary is [last forward state ; backward state at timestep 0], the
    backward direction being the same cell run over the reversed sequence.
    In a ragged pass each row is reversed within its own length, so it
    stays end-aligned and both directions run the same active-row prefix.
    """

    kind = "bilstm"
    directions = ("lstm_f", "lstm_b")

    def __init__(self, task, use_numeric, emb, rng, hidden: int = 64):
        super().__init__(task, use_numeric, emb)
        for tag in self.directions:
            for name, arr in lstm.init_direction(rng, self.input_width, hidden).items():
                self.params[f"{tag}/{name}"] = arr
        self.params["head/W"] = glorot(rng, OUT_DIM[task], 2 * hidden)
        self.params["head/b"] = np.zeros(OUT_DIM[task])

    def _core(self, x, lengths, real, buffers=None):
        B, T = x.shape[:2]
        if T < 1:
            raise ValueError("sequence must be nonempty")
        active = real.sum(axis=0)   # rows whose window has begun: a prefix, rows being longest first
        # flat [B*T] cell order with each row reversed within its own length; a padding cell maps to itself
        steps = np.arange(T)
        reverse = (np.arange(B)[:, None] * T + np.where(real, 2 * T - 1 - lengths[:, None] - steps, steps)).ravel()
        p = self.params
        summary, caches = [], []
        for tag, seq in zip(self.directions, (x, _cells(x, reverse))):
            hs, cache = lstm.lstm_forward(seq, p[f"{tag}/Wx"], p[f"{tag}/Wh"], p[f"{tag}/b"], active=active,
                                          buffers=buffers and buffers.direction(tag))
            summary.append(hs[:, -1])
            caches.append(cache)
        return np.concatenate(summary, axis=1), (caches, active, reverse, buffers), []

    def _core_backward(self, drep, cache, input_grad=True):
        caches, active, reverse, buffers = cache
        p = self.params
        grads, dxs = {}, []
        for tag, dh_last, c in zip(self.directions, np.split(drep, 2, axis=1), caches):
            dx, g = lstm.lstm_backward(dh_last, c, p[f"{tag}/Wx"], p[f"{tag}/Wh"], active=active,
                                       input_grad=input_grad, buffers=buffers and buffers.direction(tag))
            grads.update({f"{tag}/{name}": v for name, v in g.items()})
            dxs.append(dx)
        return (np.add(dxs[0], _cells(dxs[1], reverse), out=dxs[0]) if input_grad else None), grads


def build_model(
    kind: str,
    task: Task,
    rng: np.random.Generator,
    *,
    use_numeric: bool = True,
    vocab_sizes: Mapping[str, int] | None = None,
    encoding: str = EMBEDDING,
    hidden: int = 64,
    ann_hidden: int = 64,
    embed_init: str = "random",
    embed_frozen: bool = False,
    embed_dim_cap: int = 50,
) -> BaseModel:
    """Construct a predictor for one task.

    ``vocab_sizes`` must be the ordered categorical vocab sizes (None drops
    the categorical channels entirely).  ``encoding="ohe"`` is a frozen
    identity embedding, so it shares the exact code path of ``embedding``.

    The weights are drawn in float64 and the model is returned in float32,
    the dtype that training and prediction then run in.
    """
    emb = None
    if vocab_sizes:
        if encoding == OHE or embed_init == "identity":
            trainable = (encoding != OHE) and not embed_frozen
            emb = EmbeddingTable.identity(vocab_sizes, trainable=trainable)
        elif encoding == EMBEDDING:
            dims = embedding_dims(vocab_sizes, cap=embed_dim_cap)
            emb = EmbeddingTable.random(vocab_sizes, dims, rng, trainable=not embed_frozen)
        else:
            raise ValueError(f"unknown encoding {encoding!r}")
    if kind == "lr":
        model = LinearModel(task, use_numeric, emb, rng)
    elif kind == "ann":
        model = AnnModel(task, use_numeric, emb, rng, hidden=ann_hidden)
    elif kind == "bilstm":
        model = BilstmModel(task, use_numeric, emb, rng, hidden=hidden)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return model.astype(np.float32)
