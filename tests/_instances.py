"""Builds a training.InstanceSet from [n, T, ·] arrays, as tests hold their windows."""

import numpy as np

from icubench.neural.training import InstanceSet


def uniform_set(num: np.ndarray | None, cat: np.ndarray | None, labels: np.ndarray) -> InstanceSet:
    """Instances of one length T from [n, T, ·] arrays."""
    n, T = (num if num is not None else cat).shape[:2]
    return InstanceSet(
        np.arange(n) * T,
        np.full(n, T),
        None if num is None else num.reshape(n * T, -1),
        None if cat is None else cat.reshape(n * T, -1),
        labels,
    )
