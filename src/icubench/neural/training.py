"""Mini-batch training and prediction over variable-length windows.

An ``InstanceSet`` holds windows, not copies: instance i is rows
``starts[i]:starts[i] + lengths[i]`` of its ``num`` and ``cat`` arrays.
Windows may overlap (decompensation and LoS roll 12-hour windows every 6
hours) and repeat (oversampling), and a fold's train and test sets share
one row array; each pass gathers its rows by index.

Batches are length buckets.  Each epoch the instances are permuted, sorted
stably by window length, cut into ``batch_size`` chunks, and the chunks are
permuted, so every Adam step sees up to ``batch_size`` rows of similar
lengths.  For instances of one length these are the draws and the batches
of plain shuffled mini-batches.

A batch is evaluated in passes, and prediction takes the whole instance
list as one batch.  The rows are sorted longest first; runs of equal length
are merged greedily up to ``PASS_CELLS`` cells (rows x longest length), and
a run above the caller's ceiling is cut into chunks of ceiling // T rows
(at least one), the remainder last.  Prediction's ceiling is
``PASS_CELLS``, so its memory does not grow with the test fold; training's
is ``TRAIN_PASS_CELLS``, so a batch's does not grow with ``batch_size``.
Inside a pass the rows are end-aligned: row r is the last ``lengths[r]`` of
T steps.  The steps before are padding, whose content ``window_pass`` leaves
unspecified: the models (see ``models.py`` and ``lstm.py``) zero it, so it
adds nothing to a row's output or gradient.  The passes' losses and
gradients are weighted by rows / batch rows and summed into one Adam step,
which is the whole batch's up to summation order; a chunk boundary can
move a float32 score by an ulp.

Why the ceilings: a BiLSTM training pass peaks at about 5.5 KB per cell in
float32 (``tracemalloc``, input width 62, hidden 64), about 11 MB at 2,048
cells.  With the raw stay table freed before the folds, the run on the
seed-1 phenotyping benchmark dump peaks at 65.9 MB, and 72.8 MB with 3,072
cells.  ``TRAIN_PASS_CELLS`` is 128 x 48, the largest one-length batch of a
default config (mortality48), so every default batch stays one pass; that
pass peaks at 34.4 MB allocating its arrays, as ``TestPassMemory`` measures.
A ``lstm.PassBuffers`` of 4.6 KB a cell, held by ``train_model`` and
``predict_scores`` until they return, makes a 3,072-cell pass peak 1% higher.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adam import Adam
from .lstm import PassBuffers
from .models import BaseModel

#: Most cells (rows x longest length) that equal-length runs merge up to, and the prediction ceiling.
PASS_CELLS = 2048
#: The training ceiling: 128 windows of mortality48, the largest one-length default batch.
TRAIN_PASS_CELLS = 128 * 48


@dataclass(eq=False)
class InstanceSet:
    """Instances as windows into hourly rows: instance i is rows
    ``starts[i]:starts[i] + lengths[i]`` of num and cat.  Windows may
    overlap and repeat, and sets may share their rows."""

    starts: np.ndarray             # [n] first row of each window
    lengths: np.ndarray            # [n] window lengths
    num: np.ndarray | None         # [rows, 13]
    cat: np.ndarray | None         # [rows, 7] int
    labels: np.ndarray             # [n] or [n, 25]

    @classmethod
    def uniform(cls, num: np.ndarray | None, cat: np.ndarray | None, labels: np.ndarray) -> "InstanceSet":
        """Instances of one length T from [n, T, ·] arrays."""
        n, T = (num if num is not None else cat).shape[:2]
        return cls(
            np.arange(n) * T,
            np.full(n, T),
            None if num is None else num.reshape(n * T, -1),
            None if cat is None else cat.reshape(n * T, -1),
            labels,
        )

    def __len__(self) -> int:
        return len(self.lengths)

    def window_pass(self, rows: np.ndarray):
        """(num, cat, labels, lengths) of ``rows``, longest first, as one
        end-aligned [len(rows), T, ·] pass.  The content of a padding cell is
        unspecified (some row of num and cat); the model zeroes it."""
        lengths = self.lengths[rows]
        T = int(lengths.max())
        src = np.maximum((self.starts[rows] - (T - lengths))[:, None] + np.arange(T), 0)
        return (None if self.num is None else self.num[src], None if self.cat is None else self.cat[src],
                self.labels[rows], lengths)


def make_epoch_batches(lengths: np.ndarray, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch's mini-batches as arrays of instance positions: a random
    permutation sorted stably by length, cut into ``batch_size`` chunks, the
    chunks in random order."""
    perm = rng.permutation(len(lengths))
    perm = perm[np.argsort(lengths[perm], kind="stable")]
    chunks = [perm[lo:lo + batch_size] for lo in range(0, len(perm), batch_size)]
    return [chunks[i] for i in rng.permutation(len(chunks))]


def split_passes(lengths: np.ndarray, most_cells: int) -> list[slice]:
    """Cut rows sorted longest first into passes: whole equal-length runs
    merged greedily up to PASS_CELLS cells, then any run above ``most_cells``
    cut into chunks of ``most_cells // T`` rows (at least one)."""
    run_starts = (np.flatnonzero(np.diff(lengths)) + 1).tolist()
    bounds = [0]
    for start, end in zip([0, *run_starts], [*run_starts, len(lengths)]):
        if start > bounds[-1] and (end - bounds[-1]) * lengths[bounds[-1]] > PASS_CELLS:
            bounds.append(start)
    bounds.append(len(lengths))
    passes = []
    for lo, hi in zip(bounds, bounds[1:]):
        T = int(lengths[lo])
        step = hi - lo if (hi - lo) * T <= most_cells else max(1, most_cells // T)
        passes.extend(slice(first, min(first + step, hi)) for first in range(lo, hi, step))
    return passes


def _passes(data: InstanceSet, rows: np.ndarray, most_cells: int):
    """Each pass of ``rows`` (split_passes over them, longest first) as
    (its rows, ``window_pass`` of them)."""
    rows = rows[np.argsort(-data.lengths[rows], kind="stable")]
    for part in split_passes(data.lengths[rows], most_cells):
        yield rows[part], data.window_pass(rows[part])


def batch_loss_and_grads(model: BaseModel, data: InstanceSet, rows: np.ndarray, **kwargs):
    """Loss and gradients of the batch ``rows``, summed over its passes."""
    loss, grads = 0.0, {}
    for _, (num, cat, labels, lengths) in _passes(data, rows, TRAIN_PASS_CELLS):
        pass_loss, pass_grads = model.loss_and_grads(num, cat, labels, lengths=lengths, **kwargs)
        weight = len(labels) / len(rows)
        loss += weight * pass_loss
        for name, g in pass_grads.items():
            if name in grads:
                grads[name] += weight * g
            else:
                grads[name] = weight * g
    return loss, grads


def train_model(
    model: BaseModel,
    data: InstanceSet,
    *,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    step_size: float = 1e-3,
    dropout: float = 0.0,
) -> list[float]:
    """Adam training; returns the mean loss per epoch."""
    opt = Adam(model.params, model.trainable, step_size=step_size)
    T, n = np.unique(data.lengths, return_counts=True)   # no pass outgrows a batch's run of one length, or PASS_CELLS
    buffers = PassBuffers(max(PASS_CELLS, min(TRAIN_PASS_CELLS, np.max(np.minimum(n, batch_size) * T, initial=0))))
    history = []
    for epoch in range(epochs):
        total = 0.0
        for bi, rows in enumerate(make_epoch_batches(data.lengths, batch_size, rng)):
            loss, grads = batch_loss_and_grads(
                model, data, rows, dropout=dropout, dropout_rng=rng if dropout > 0 else None, buffers=buffers
            )
            opt.step(grads, batch_id=f"epoch {epoch} batch {bi}")
            total += loss * len(rows)
        history.append(total / max(len(data), 1))
    return history


def predict_scores(model: BaseModel, data: InstanceSet) -> np.ndarray:
    """Scores in instance order, float64, predicted in passes cut at
    PASS_CELLS cells."""
    if len(data) == 0:
        return np.zeros((0,))
    out, buffers = None, PassBuffers(PASS_CELLS)
    for rows, (num, cat, _, lengths) in _passes(data, np.arange(len(data)), PASS_CELLS):
        preds = model.predict(num, cat, lengths=lengths, buffers=buffers)
        if out is None:
            out = np.full((len(data), 1 if preds.ndim == 1 else preds.shape[1]), np.nan)
        out[rows] = preds.reshape(len(preds), -1)
    return out[:, 0] if out.shape[1] == 1 else out
