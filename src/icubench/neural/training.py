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

A batch is evaluated in passes.  Its rows are sorted longest first, and
runs of equal length are merged greedily until the next run would take the
pass past ``PASS_CELLS`` cells (rows x longest length).  A run is never
split, so a batch of one length is a single pass.  Inside a pass the rows
are end-aligned: row r is the last ``lengths[r]`` of T steps, and the
models (see ``models.py`` and ``lstm.py``) treat the steps before as
padding that adds nothing to a row's output or gradient.  The passes'
losses and gradients are weighted by rows / batch rows and summed into one
Adam step, so the step is that of the whole batch.  ``predict_scores``
applies the same pass rule to the whole instance list, and also cuts a
length run larger than ``PASS_CELLS`` cells into chunks of
``PASS_CELLS // T`` rows (at least one), so prediction memory does not
grow with the test fold.  A chunk boundary can move a float32 score by an
ulp.

Why the budget: a BiLSTM training pass peaks at about 5.5 KB per cell in
float32 (``tracemalloc``, input width 62, hidden 64, no trainable
embedding), about 11 MB per 2,048-cell pass.  On the 500-patient
phenotyping benchmark dump, whole 128-row batches as single passes raised
the run's peak RSS from 69 MB (batches of one exact length) to 125 MB.
``run_experiment`` frees the raw stay table before the folds, and that
pays for 2,048 cells: on the seed-1 dump the run peaks at 65.9 MB, against
71.1 MB with 1,024-cell passes and the table held.  With the table held,
2,048 cells peaked at 74.5 MB and 4,096 at 86.8 MB; with it freed, 3,072
cells peak at 72.8 MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adam import Adam
from .models import BaseModel, real_cells

#: Most cells (rows x longest length) in a pass, unless one length run alone is larger.
PASS_CELLS = 2048


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
        end-aligned [len(rows), T, ·] pass; padding cells are 0."""
        lengths = self.lengths[rows]
        T = int(lengths.max())
        real = real_cells(lengths, T)
        src = np.where(real, (self.starts[rows] - (T - lengths))[:, None] + np.arange(T), 0)

        def gather(flat):
            if flat is None:
                return None
            window = flat[src]
            window[~real] = 0
            return window

        return gather(self.num), gather(self.cat), self.labels[rows], lengths


def make_epoch_batches(lengths: np.ndarray, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch's mini-batches as arrays of instance positions: a random
    permutation sorted stably by length, cut into ``batch_size`` chunks, the
    chunks in random order."""
    perm = rng.permutation(len(lengths))
    perm = perm[np.argsort(lengths[perm], kind="stable")]
    chunks = [perm[lo:lo + batch_size] for lo in range(0, len(perm), batch_size)]
    return [chunks[i] for i in rng.permutation(len(chunks))]


def split_passes(lengths: np.ndarray) -> list[slice]:
    """Cut rows sorted longest first into passes of whole equal-length runs,
    each at most PASS_CELLS cells unless it is one run."""
    run_starts = (np.flatnonzero(np.diff(lengths)) + 1).tolist()
    passes = []
    lo = 0
    for start, end in zip([0, *run_starts], [*run_starts, len(lengths)]):
        if start > lo and (end - lo) * lengths[lo] > PASS_CELLS:
            passes.append(slice(lo, start))
            lo = start
    passes.append(slice(lo, len(lengths)))
    return passes


def _longest_first(data: InstanceSet, rows: np.ndarray) -> np.ndarray:
    return rows[np.argsort(-data.lengths[rows], kind="stable")]


def batch_loss_and_grads(model: BaseModel, data: InstanceSet, rows: np.ndarray, **kwargs):
    """Loss and gradients of the batch ``rows``, summed over its passes."""
    rows = _longest_first(data, rows)
    loss, grads = 0.0, {}
    for part in split_passes(data.lengths[rows]):
        num, cat, labels, lengths = data.window_pass(rows[part])
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
    history = []
    for epoch in range(epochs):
        total = 0.0
        for bi, rows in enumerate(make_epoch_batches(data.lengths, batch_size, rng)):
            loss, grads = batch_loss_and_grads(
                model, data, rows, dropout=dropout, dropout_rng=rng if dropout > 0 else None
            )
            opt.step(grads, batch_id=f"epoch {epoch} batch {bi}")
            total += loss * len(rows)
        history.append(total / max(len(data), 1))
    return history


def predict_scores(model: BaseModel, data: InstanceSet) -> np.ndarray:
    """Scores in instance order, float64, predicted pass by pass; a length
    run too large for one pass is cut into chunks of PASS_CELLS // T rows."""
    if len(data) == 0:
        return np.zeros((0,))
    rows = _longest_first(data, np.arange(len(data)))
    out = None
    for part in split_passes(data.lengths[rows]):
        step = max(1, PASS_CELLS // int(data.lengths[rows[part.start]]))
        for lo in range(part.start, part.stop, step):
            chunk = rows[lo:min(lo + step, part.stop)]
            num, cat, _, lengths = data.window_pass(chunk)
            preds = model.predict(num, cat, lengths=lengths)
            if out is None:
                out = np.full((len(data), 1 if preds.ndim == 1 else preds.shape[1]), np.nan)
            out[chunk] = preds.reshape(len(preds), -1)
    return out[:, 0] if out.shape[1] == 1 else out
