"""Batched training loop over equal-length instance groups.

Sequences are grouped by exact window length, so every batch is a dense
[B, T, ...] block and no padding (or padding bias) exists anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adam import Adam
from .models import BaseModel


@dataclass(eq=False)
class InstanceGroup:
    """All instances sharing one window length, already stacked."""

    indices: np.ndarray            # positions in the original instance list
    num: np.ndarray | None         # [n, T, 13]
    cat: np.ndarray | None         # [n, T, 7] int
    labels: np.ndarray             # [n] or [n, 25]

    @property
    def size(self) -> int:
        return len(self.indices)


def make_epoch_batches(groups: list[InstanceGroup], batch_size: int, rng: np.random.Generator):
    """Shuffled mini-batches; instance order within groups and batch order
    across groups are both reshuffled each call."""
    batches = []
    for group in groups:
        perm = rng.permutation(group.size)
        for lo in range(0, group.size, batch_size):
            sel = perm[lo:lo + batch_size]
            batches.append(
                (
                    group.num[sel] if group.num is not None else None,
                    group.cat[sel] if group.cat is not None else None,
                    group.labels[sel],
                )
            )
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


def train_model(
    model: BaseModel,
    groups: list[InstanceGroup],
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
        count = 0
        for bi, (num, cat, labels) in enumerate(make_epoch_batches(groups, batch_size, rng)):
            loss, grads = model.loss_and_grads(
                num, cat, labels, dropout=dropout, dropout_rng=rng if dropout > 0 else None
            )
            opt.step(grads, batch_id=f"epoch {epoch} batch {bi}")
            n = len(labels)
            total += loss * n
            count += n
        history.append(total / max(count, 1))
    return history


def predict_scores(model: BaseModel, groups: list[InstanceGroup]) -> np.ndarray:
    """Scores aligned back to original instance order; the groups partition that order."""
    width = None
    for group in groups:
        preds = model.predict(group.num, group.cat)
        if width is None:
            width = 1 if preds.ndim == 1 else preds.shape[1]
            out = np.full((sum(g.size for g in groups), width), np.nan)
        out[group.indices] = preds.reshape(group.size, width)
    if width is None:
        return np.zeros((0,))
    return out[:, 0] if width == 1 else out
