"""Activations and losses with their input-side gradients, plus the weight initialiser."""

from __future__ import annotations

import numpy as np

from ..schema import Task

_EPS = 1e-12


def _float_dtype(x) -> type:
    """float32 for float32 input, float64 for anything else."""
    return np.float32 if np.asarray(x).dtype == np.float32 else np.float64


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic, computed in the input's float dtype.

    Computed as exp(min(x, 0)) / (1 + exp(-|x|)) without branching: for
    x >= 0 the numerator is exactly 1, and for x < 0 exp(-|x|) is exp(x), so
    each element equals 1 / (1 + exp(-x)) or exp(x) / (1 + exp(x)) bit for
    bit.  Outputs stay inside (0, 1) for |x| < ~36 in float64 (~16 in
    float32).  ``out`` may be ``x`` itself; the denominator is taken first.
    """
    x = np.asarray(x, dtype=_float_dtype(x))
    den = np.abs(x, out=np.empty_like(x))
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    if out is None:
        out = np.empty_like(x)
    np.minimum(x, 0.0, out=out)
    np.exp(out, out=out)
    np.divide(out, den, out=out)
    return out


def glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    """Glorot-uniform [fan_out, fan_in] weight matrix."""
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(fan_out, fan_in))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def bce_loss(preds: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. the predictions.

    The loss is computed in float64, where predictions are clamped away
    from 0/1 before the log so saturated outputs cannot produce infinities
    (1 - 1e-12 is 1 in float32).  The gradient has the predictions' dtype.
    """
    dtype = _float_dtype(preds)
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.shape != labels.shape:
        raise ValueError(f"prediction shape {preds.shape} != label shape {labels.shape}")
    uniques = np.unique(labels)
    if not np.all(np.isin(uniques, (0.0, 1.0))):
        raise ValueError(f"classification labels must be 0/1, got values {uniques[:5]}")
    p = np.clip(preds, _EPS, 1.0 - _EPS)
    n = preds.size
    loss = -float(np.sum(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))) / n
    dpreds = (p - labels) / (p * (1.0 - p)) / n
    return loss, dpreds.astype(dtype, copy=False)


def mse_loss(preds: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error (in float64) and its gradient w.r.t. the predictions,
    in their dtype."""
    dtype = _float_dtype(preds)
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape:
        raise ValueError(f"prediction shape {preds.shape} != target shape {targets.shape}")
    diff = preds - targets
    n = preds.size
    return float(np.sum(diff * diff)) / n, (2.0 * diff / n).astype(dtype, copy=False)


def task_loss(preds: np.ndarray, labels: np.ndarray, task: Task) -> tuple[float, np.ndarray]:
    """Dispatch: cross-entropy for the classification tasks, MSE for LoS."""
    if task == Task.LOS:
        return mse_loss(preds, labels)
    return bce_loss(preds, labels)
