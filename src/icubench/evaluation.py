"""Metric suite: ranking metrics, fixed-sensitivity operating point,
regression scores, fold aggregation with Student-t confidence intervals,
and Welch's two-tailed t-test for model comparison.

AUROC is the Mann–Whitney pair statistic computed from average ranks;
AUPRC is the step-wise average-precision integral over distinct score
cutoffs (no interpolation).  The operating point fixes sensitivity at 0.90
and reports the largest score threshold achieving it, classifying ties as
positive.

The confidence intervals and p-values need two special functions, and both
are computed here with the standard library's ``math``, so numpy is the only
import beyond it: the regularized incomplete beta function by Lentz's
continued fraction (Press et al., *Numerical Recipes*, 3rd ed., section
6.4), and the 0.975 Student-t quantile by bisection on it.  The tests hold
both to 1e-12 of an independent implementation; the measured agreement is
given in the README's "Numerics" section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import UndefinedMetricError

TARGET_SENSITIVITY = 0.90

#: The keys of classification_metrics, which every binary and phenotyping report fold carries.
CLASSIFICATION_KEYS = ("auroc", "auprc", "specificity_at_sens90", "sensitivity", "ppv", "npv")


def _as_binary(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-d arrays of equal length")
    if not np.all(np.isin(labels, (0, 1))):
        raise ValueError("labels must be 0/1")
    return scores, labels.astype(np.int64)


def auroc(scores, labels) -> float:
    """P(score_pos > score_neg) + 0.5 P(tie), via average ranks."""
    scores, labels = _as_binary(scores, labels)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs at least one positive and one negative")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    group_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
    avg_rank = group_start + (counts + 1) / 2.0  # 1-based average rank per tie group
    rank_sum_pos = float(avg_rank[inverse][labels == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _ranked_confusion(scores, labels):
    """Cumulative TP/FP at each distinct score cutoff, descending."""
    order = np.argsort(-scores, kind="mergesort")
    y = labels[order]
    s = scores[order]
    cum_tp = np.cumsum(y)
    cum_fp = np.cumsum(1 - y)
    last_of_group = np.nonzero(np.diff(s))[0]
    idx = np.concatenate((last_of_group, [len(s) - 1]))
    return s[idx], cum_tp[idx], cum_fp[idx]


def auprc(scores, labels) -> float:
    """Average precision: sum of precision times recall increments."""
    scores, labels = _as_binary(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise UndefinedMetricError("AUPRC needs at least one positive")
    _, tp, fp = _ranked_confusion(scores, labels)
    precision = tp / (tp + fp)
    recall = tp / n_pos
    prev_recall = np.concatenate(([0.0], recall[:-1]))
    return float(np.sum((recall - prev_recall) * precision))


@dataclass(frozen=True)
class OperatingPoint:
    threshold: float
    sensitivity: float
    specificity: float
    ppv: float
    npv: float


def operating_point(scores, labels) -> OperatingPoint:
    """Largest threshold with sensitivity >= TARGET_SENSITIVITY (score >= threshold is positive)."""
    scores, labels = _as_binary(scores, labels)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("operating point needs both classes present")
    cutoffs, tp, fp = _ranked_confusion(scores, labels)
    sens = tp / n_pos
    k = int(np.argmax(sens >= TARGET_SENSITIVITY))  # sens is nondecreasing along cutoffs
    tn = n_neg - fp[k]
    fn = n_pos - tp[k]
    ppv = tp[k] / (tp[k] + fp[k]) if tp[k] + fp[k] > 0 else math.nan
    npv = tn / (tn + fn) if tn + fn > 0 else math.nan
    return OperatingPoint(
        threshold=float(cutoffs[k]),
        sensitivity=float(sens[k]),
        specificity=float(tn / n_neg),
        ppv=float(ppv),
        npv=float(npv),
    )


def classification_metrics(scores, labels) -> dict[str, float]:
    """The binary metrics of one report fold, keyed in CLASSIFICATION_KEYS order."""
    point = operating_point(scores, labels)
    return {
        "auroc": auroc(scores, labels),
        "auprc": auprc(scores, labels),
        "specificity_at_sens90": point.specificity,
        "sensitivity": TARGET_SENSITIVITY,
        "ppv": point.ppv,
        "npv": point.npv,
    }


def regression_metrics(preds, targets) -> dict[str, float | None]:
    """R^2 about the target mean plus MAE in days, as {"r2": ..., "mae": ...}.

    Zero target variance leaves R^2 undefined; MAE is still returned
    (r2 comes back as None in that case).
    """
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape or preds.size == 0:
        raise ValueError("predictions and targets must be nonempty arrays of equal shape")
    mae = float(np.mean(np.abs(preds - targets)))
    ss_tot = float(np.sum((targets - targets.mean()) ** 2))
    if ss_tot == 0.0:
        return {"r2": None, "mae": mae}
    ss_res = float(np.sum((preds - targets) ** 2))
    return {"r2": 1.0 - ss_res / ss_tot, "mae": mae}


def _stirling_tail(x: float) -> float:
    """lgamma(x) minus (x - 1/2) log x - x + log(2 pi)/2, for x >= 10."""
    z = 1.0 / (x * x)
    return (1 / 12 - z * (1 / 360 - z * (1 / 1260 - z * (1 / 1680 - z * (
        1 / 1188 - z * (691 / 360360 - z / 156)))))) / x


def _log_beta(a: float, b: float) -> float:
    """log B(a, b), accurate to about 1e-15 when the smaller argument is below 10."""
    p, q = min(a, b), max(a, b)
    if q < 10.0:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    # lgamma(q) - lgamma(p + q) by Stirling's series, whose large terms cancel exactly
    return (math.lgamma(p) + _stirling_tail(q) - _stirling_tail(p + q)
            + p - p * math.log(p + q) + (q - 0.5) * math.log1p(-p / (p + q)))


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) by Lentz's continued fraction."""
    if math.isnan(a + b + x):
        return math.nan
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):  # the fraction converges fast only below this point
        return 1.0 - _betainc(b, a, 1.0 - x)
    log_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    tiny = 1e-300  # keeps Lentz's denominators off zero
    c = 1.0
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))  # positive below the switch point
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) <= math.ulp(1.0):
            return math.exp(log_front) * h / a
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def _t_quantile_975(df: int) -> float:
    """The 0.975 quantile of Student t: solve I_x(df/2, 1/2) = 0.05, t = sqrt(df(1-x)/x)."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # the bracket is two adjacent floats
            break
        if _betainc(df / 2.0, 0.5, mid) < 0.05:
            lo = mid
        else:
            hi = mid
    return math.sqrt(df * (1.0 - hi) / hi)


def aggregate_folds(values: Sequence[float]) -> tuple[float, float]:
    """Mean and 95% CI half-width from per-fold values (Student t, k-1 df)."""
    values = np.asarray(values, dtype=np.float64)
    k = len(values)
    if k < 2:
        raise UndefinedMetricError(f"fold aggregation needs >= 2 values, got {k}")
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    t_crit = _t_quantile_975(k - 1)
    return mean, t_crit * sd / math.sqrt(k)


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    significant_05: bool
    significant_10: bool
    mean_a: float
    mean_b: float

    @property
    def flag(self) -> str:
        """Conventional significance markers: dagger p<0.05, double dagger p<0.1."""
        if self.significant_05:
            return "\u2020"
        if self.significant_10:
            return "\u2021"
        return "-"


def t_test(values_a: Sequence[float], values_b: Sequence[float]) -> TTestResult:
    """Two-tailed Welch's unpaired t-test, with the two sample means.

    The p-value comes from the regularized incomplete beta function with
    Welch-Satterthwaite degrees of freedom.  The samples are scaled by a power
    of two that puts each finite |value| below 1: no square overflows, and t,
    df and the means keep their bits unless a scaled value underflows.
    """
    a = np.asarray(values_a, dtype=np.float64)
    b = np.asarray(values_b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise UndefinedMetricError("t-test needs >= 2 values per sample")
    e = int(np.frexp(np.max(np.abs(np.concatenate([a, b])), initial=0.0))[1])
    a, b = np.ldexp(a, -e), np.ldexp(b, -e)
    va = float(a.var(ddof=1)) / len(a)
    vb = float(b.var(ddof=1)) / len(b)
    diff = float(a.mean() - b.mean())
    if va + vb == 0.0:   # zero variance: identical means are certain, distinct ones maximally separated
        t_stat, p = (0.0, 1.0) if diff == 0.0 else (math.copysign(math.inf, diff), 0.0)
    else:
        t_stat = diff / math.sqrt(va + vb)
        wa, wb = va / (va + vb), vb / (va + vb)   # so df is not 0/0 where va**2 and vb**2 underflow
        df = 1.0 / (wa * wa / (len(a) - 1) + wb * wb / (len(b) - 1))
        p = _betainc(df / 2.0, 0.5, df / (df + t_stat * t_stat))
    return TTestResult(t=t_stat, p=p, significant_05=p < 0.05, significant_10=p < 0.1,
                       mean_a=float(np.ldexp(a.mean(), e)), mean_b=float(np.ldexp(b.mean(), e)))


@dataclass
class FoldedResult:
    """The aggregate of per-fold metric dicts (mean, ci95 half-width)."""

    mean: dict = field(default_factory=dict)
    ci95: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def aggregate_metric_dicts(per_fold: list[dict]) -> FoldedResult:
    """Aggregate each metric over the folds where it has a defined value."""
    result = FoldedResult()
    keys: list[str] = []
    for fold in per_fold:
        for key in fold:
            if key not in keys:
                keys.append(key)
    for key in keys:
        values = [f[key] for f in per_fold if f.get(key) is not None and not _is_nan(f.get(key))]
        if len(values) < len(per_fold):
            result.warnings.append(
                f"metric {key!r} undefined in {len(per_fold) - len(values)} of {len(per_fold)} folds"
            )
        if len(values) >= 2:
            mean, hw = aggregate_folds(values)
            result.mean[key] = mean
            result.ci95[key] = hw
        else:
            result.mean[key] = values[0] if values else None
            result.ci95[key] = None
    return result


def _is_nan(x) -> bool:
    return isinstance(x, float) and math.isnan(x)
