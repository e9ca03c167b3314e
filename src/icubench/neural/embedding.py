"""Per-variable embedding tables for the categorical channels.

One-hot encoding is realized as a frozen identity table of width equal to
the vocabulary, so both encodings share a single code path and coincide
exactly when the embedding is identity-initialized.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np


class EmbeddingTable:
    """Ordered per-variable matrices U_v of shape [vocab_v x d_v]."""

    def __init__(self, tables: dict[str, np.ndarray], trainable: bool = True):
        self.names: tuple[str, ...] = tuple(tables)
        self.tables = tables
        self.trainable = trainable

    @classmethod
    def random(
        cls,
        vocab_sizes: Mapping[str, int],
        dims: Mapping[str, int],
        rng: np.random.Generator,
        trainable: bool = True,
    ) -> "EmbeddingTable":
        """Tables of N(0, 0.1^2) entries."""
        tables = {name: rng.normal(0.0, 0.1, size=(size, dims[name])) for name, size in vocab_sizes.items()}
        return cls(tables, trainable=trainable)

    @classmethod
    def identity(cls, vocab_sizes: Mapping[str, int], trainable: bool = False) -> "EmbeddingTable":
        tables = {name: np.eye(size) for name, size in vocab_sizes.items()}
        return cls(tables, trainable=trainable)

    @property
    def width(self) -> int:
        return sum(t.shape[1] for t in self.tables.values())

    def forward(self, indices: np.ndarray) -> np.ndarray:
        """Concatenate the selected rows; indices [..., n_vars] -> [..., width].

        Out-of-range indices fault hard (they mean a vocabulary leak
        upstream, not a recoverable condition).
        """
        parts = []
        for k, name in enumerate(self.names):
            table = self.tables[name]
            idx = indices[..., k]
            if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
                raise IndexError(f"embedding index out of range for {name!r} (vocab {table.shape[0]})")
            parts.append(table[idx])
        return np.concatenate(parts, axis=-1)

    def backward(self, indices: np.ndarray, dout: np.ndarray) -> dict[str, np.ndarray]:
        """Scatter-accumulate output gradients into the selected rows."""
        grads = {}
        offset = 0
        for k, name in enumerate(self.names):
            table = self.tables[name]
            d = table.shape[1]
            grad = np.zeros_like(table)
            np.add.at(grad, indices[..., k].reshape(-1), dout[..., offset:offset + d].reshape(-1, d))
            grads[name] = grad
            offset += d
        return grads
