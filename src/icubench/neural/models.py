"""The three predictor families sharing one embedding and head mechanism.

All tasks reduce to: encode the input window into a representation, apply
an affine head, squash.  Binary heads (mortality, decompensation) and the
25 phenotype heads use the logistic function; the remaining-LoS head uses
ReLU so predictions cannot go negative.  The pooled baselines (``lr``,
``ann``) consume the mean over time of the same per-timestep input vector
the sequence model sees, embeddings included.
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

    def _assemble(self, num: np.ndarray | None, cat: np.ndarray | None) -> np.ndarray:
        parts = []
        if self.use_numeric:
            parts.append(np.asarray(num, dtype=self.dtype))
        if self.emb is not None:
            parts.append(self.emb.forward(cat))
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)

    def _emb_grads(self, dx: np.ndarray, cat: np.ndarray | None) -> dict[str, np.ndarray]:
        if self.emb is None or not self.emb.trainable:
            return {}  # frozen tables (OHE included) take no update, so skip the scatter
        offset = N_NUMERIC if self.use_numeric else 0
        return {f"emb/{name}": g for name, g in self.emb.backward(cat, dx[..., offset:]).items()}

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

    # subclasses: representation of the window
    def _core(self, x):  # -> (rep, cache, relu_preacts)
        raise NotImplementedError

    def _core_backward(self, drep, cache):  # -> (dx, grads)
        raise NotImplementedError

    def predict(self, num, cat) -> np.ndarray:
        rep, _, _ = self._core(self._assemble(num, cat))
        return self._head_out(rep)[1]

    def loss_forward(self, num, cat, labels) -> tuple[float, list[np.ndarray]]:
        """Loss plus every ReLU pre-activation (for kink detection)."""
        rep, _, preacts = self._core(self._assemble(num, cat))
        z, preds = self._head_out(rep)
        loss, _ = task_loss(preds, labels, self.task)
        if self.task == Task.LOS:
            preacts = preacts + [z[:, 0]]
        return loss, preacts

    def loss_and_grads(self, num, cat, labels, dropout: float = 0.0, dropout_rng=None):
        x = self._assemble(num, cat)
        rep, cache, preacts = self._core(x)
        mask = None
        if dropout > 0.0 and dropout_rng is not None:
            mask = (dropout_rng.random(rep.shape) >= dropout).astype(rep.dtype) / (1.0 - dropout)
            rep = rep * mask
        z, preds = self._head_out(rep)
        loss, dpreds = task_loss(preds, labels, self.task)
        drep, grads = self._head_backward(z, preds, dpreds, rep)
        if mask is not None:
            drep = drep * mask
        dx, core_grads = self._core_backward(drep, cache)
        grads.update(core_grads)
        grads.update(self._emb_grads(dx, cat))
        if self.task == Task.LOS:
            preacts = preacts + [z[:, 0]]
        return loss, grads, preacts


class LinearModel(BaseModel):
    """Logistic/linear regression on the time-pooled input vector."""

    kind = "lr"

    def __init__(self, task, use_numeric, emb, rng):
        super().__init__(task, use_numeric, emb)
        self.params["head/W"] = glorot(rng, OUT_DIM[task], self.input_width)
        self.params["head/b"] = np.zeros(OUT_DIM[task])

    def _core(self, x):
        return x.mean(axis=1), {"T": x.shape[1], "shape": x.shape}, []

    def _core_backward(self, drep, cache):
        T = cache["T"]
        return np.broadcast_to(drep[:, None, :] / T, cache["shape"]), {}


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

    def _core(self, x):
        pooled = x.mean(axis=1)
        z1 = pooled @ self.params["hidden/W"].T + self.params["hidden/b"]
        return relu(z1), {"pooled": pooled, "z1": z1, "T": x.shape[1], "shape": x.shape}, [z1]

    def _core_backward(self, drep, cache):
        dz1 = drep * (cache["z1"] > 0.0)
        grads = {"hidden/W": dz1.T @ cache["pooled"], "hidden/b": dz1.sum(axis=0)}
        dpooled = dz1 @ self.params["hidden/W"]
        return np.broadcast_to(dpooled[:, None, :] / cache["T"], cache["shape"]), grads


class BilstmModel(BaseModel):
    """Bidirectional LSTM encoder; the head consumes the sequence summary.

    The summary is [last forward state ; backward state at timestep 0], the
    backward direction being the same cell run over the reversed sequence.
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

    def _core(self, x):
        if x.shape[1] < 1:
            raise ValueError("sequence must be nonempty")
        p = self.params
        summary, caches = [], []
        for tag, seq in zip(self.directions, (x, x[:, ::-1])):
            hs, cache = lstm.lstm_forward(seq, p[f"{tag}/Wx"], p[f"{tag}/Wh"], p[f"{tag}/b"])
            summary.append(hs[:, -1])
            caches.append(cache)
        return np.concatenate(summary, axis=1), caches, []

    def _core_backward(self, drep, cache):
        p = self.params
        grads, dxs = {}, []
        for tag, dh_last, c in zip(self.directions, np.split(drep, 2, axis=1), cache):
            dx, g = lstm.lstm_backward(dh_last, c, p[f"{tag}/Wx"], p[f"{tag}/Wh"])
            grads.update({f"{tag}/{name}": v for name, v in g.items()})
            dxs.append(dx)
        return dxs[0] + dxs[1][:, ::-1], grads


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
