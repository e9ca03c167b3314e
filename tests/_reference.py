"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, literal way (scalar
loops, exhaustive enumeration, or a kernel in its older, plainer form) and
must stay independent of the package code paths it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def try_parse(value: str):
    try:
        v = float(value)
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


def ref_bin_numeric(entries: list[str], low: float, high: float):
    """The stated bin rule: last entry wins if parseable and within
    [low, high], else mean of the entries that are, else no value."""
    parsed = [try_parse(e) for e in entries]
    parsed = [p if p is not None and low <= p <= high else None for p in parsed]
    if parsed and parsed[-1] is not None:
        return parsed[-1]
    earlier = [p for p in parsed if p is not None]
    if earlier:
        return sum(earlier) / len(earlier)
    return None


def ref_bin(records, n_hours: int, valid_ranges, categorical_names):
    """Reference binning over (variable, offset, value) triples sorted by offset.

    ``valid_ranges`` maps each numerical variable to its inclusive (low,
    high) range; a value outside it counts as unparseable.  Returns
    ({(hour, name): value}, {(hour, name): category}) dicts with only
    observed cells present.
    """
    per_bin: dict[tuple[int, str], list[str]] = {}
    cat_last: dict[tuple[int, str], str] = {}
    for variable, offset, value in records:
        if offset < 0:
            continue
        hour = offset // 60
        if hour >= n_hours:
            continue
        if variable in valid_ranges:
            per_bin.setdefault((hour, variable), []).append(value)
        elif variable in categorical_names and value.strip():
            cat_last[(hour, variable)] = value.strip()
    numeric = {}
    for key, entries in per_bin.items():
        value = ref_bin_numeric(entries, *valid_ranges[key[1]])
        if value is not None:
            numeric[key] = value
    return numeric, cat_last


def _sig(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def ref_lstm_sequence(x, Wx, Wh, b):
    """Scalar-loop LSTM over one sequence (list of timestep vectors).

    Parameter layout matches the package convention (fused gates ordered
    i, f, o, g) but the arithmetic is plain Python floats.
    """
    T = len(x)
    D = len(x[0])
    H = len(Wh[0])
    h = [0.0] * H
    c = [0.0] * H
    states = []
    for t in range(T):
        z = []
        for r in range(4 * H):
            acc = b[r]
            for d in range(D):
                acc += Wx[r][d] * x[t][d]
            for j in range(H):
                acc += Wh[r][j] * h[j]
            z.append(acc)
        i = [_sig(z[j]) for j in range(H)]
        f = [_sig(z[H + j]) for j in range(H)]
        o = [_sig(z[2 * H + j]) for j in range(H)]
        g = [math.tanh(z[3 * H + j]) for j in range(H)]
        c = [f[j] * c[j] + i[j] * g[j] for j in range(H)]
        h = [o[j] * math.tanh(c[j]) for j in range(H)]
        states.append(list(h))
    return states


def ref_bilstm_summary(x, fwd, bwd):
    """[last forward state ; last state of the reversed-direction pass]."""
    states_f = ref_lstm_sequence(x, fwd["Wx"], fwd["Wh"], fwd["b"])
    states_b = ref_lstm_sequence(list(reversed(x)), bwd["Wx"], bwd["Wh"], bwd["b"])
    return states_f[-1] + states_b[-1]


def ref_auroc_pairs(scores, labels) -> float:
    """O(n^2) positive-negative pair counting with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def ref_auprc_rank_enum(scores, labels) -> float:
    """Step-integral average precision by walking distinct score cutoffs."""
    n_pos = sum(labels)
    cutoffs = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for cutoff in cutoffs:
        tp = sum(1 for s, y in zip(scores, labels) if s >= cutoff and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= cutoff and y == 0)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def ref_operating_sweep(scores, labels, target_sens=0.90):
    """Exhaustive threshold sweep; returns (threshold, sens, spec, ppv, npv)."""
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    best = None
    for cutoff in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= cutoff and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= cutoff and y == 0)
        sens = tp / n_pos
        if sens >= target_sens:
            tn = n_neg - fp
            fn = n_pos - tp
            ppv = tp / (tp + fp) if tp + fp else float("nan")
            npv = tn / (tn + fn) if tn + fn else float("nan")
            best = (cutoff, sens, tn / n_neg, ppv, npv)
            break  # first (largest) cutoff achieving the target
    return best


def ref_permutation_pvalue(a, b) -> float:
    """Exact two-tailed permutation test on the mean difference."""
    pooled = list(a) + list(b)
    n = len(a)
    observed = abs(sum(a) / len(a) - sum(b) / len(b))
    count = 0
    total = 0
    for combo in itertools.combinations(range(len(pooled)), n):
        group_a = [pooled[i] for i in combo]
        group_b = [pooled[i] for i in range(len(pooled)) if i not in set(combo)]
        stat = abs(sum(group_a) / n - sum(group_b) / len(group_b))
        if stat >= observed - 1e-12:
            count += 1
        total += 1
    return count / total


# --- The boolean-mask sigmoid and the batch-major LSTM cell that the package's
# branch-free sigmoid and time-major kernels replaced.  The replacements must
# match these bit for bit.

def ref_sigmoid(x):
    """Boolean-mask logistic: 1/(1+exp(-x)) where x >= 0, exp(x)/(1+exp(x)) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_lstm_forward(x, Wx, Wh, b):
    """One direction over x [B, T, D] with batch-major [B, T, ·] caches."""
    B, T, D = x.shape
    H = Wh.shape[1]
    xz = (x.reshape(B * T, D) @ Wx.T).reshape(B, T, 4 * H) + b
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    hs = np.empty((B, T, H))
    gates = np.empty((B, T, 4 * H))
    c_prev = np.empty((B, T, H))
    tanh_c = np.empty((B, T, H))
    for t in range(T):
        z = xz[:, t] + h @ Wh.T
        a = gates[:, t]
        a[:, :3 * H] = ref_sigmoid(z[:, :3 * H])
        np.tanh(z[:, 3 * H:], out=a[:, 3 * H:])
        i, f, o, g = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
        c_prev[:, t] = c
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        hs[:, t] = h
        tanh_c[:, t] = tc
    cache = {"x": x, "hs": hs, "gates": gates, "c_prev": c_prev, "tanh_c": tanh_c}
    return hs, cache


def ref_lstm_backward(dh_last, cache, Wx, Wh):
    """BPTT over ref_lstm_forward's cache; dh_last [B, H] is the gradient of the last h."""
    x, hs, gates, c_prev, tanh_c = cache["x"], cache["hs"], cache["gates"], cache["c_prev"], cache["tanh_c"]
    B, T, D = x.shape
    H = Wh.shape[1]
    dz_all = np.empty((B, T, 4 * H))
    dh = dh_last
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        a = gates[:, t]
        i, f, o, g = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
        tc = tanh_c[:, t]
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dc_next = dc * f
        dz = dz_all[:, t]
        dz[:, :H] = dc * g
        dz[:, H:2 * H] = dc * c_prev[:, t]
        dz[:, 2 * H:3 * H] = dh * tc
        dz[:, :3 * H] *= a[:, :3 * H]
        dz[:, :3 * H] *= 1.0 - a[:, :3 * H]
        dz[:, 3 * H:] = dc * i * (1.0 - g * g)
        dh = dz @ Wh
    flat_dz = dz_all.reshape(B * T, 4 * H)
    dWx = flat_dz.T @ x.reshape(B * T, D)
    h_prev = np.concatenate([np.zeros((B, 1, H)), hs[:, :-1]], axis=1)
    dWh = flat_dz.T @ h_prev.reshape(B * T, H)
    db = dz_all.sum(axis=(0, 1))
    dx = (flat_dz @ Wx).reshape(B, T, D)
    return dx, {"Wx": dWx, "Wh": dWh, "b": db}


# --- Mini-batches as they were cut when every batch held one window length.
# For instances of one length the package's length buckets must give the
# same index sets in the same order.

def ref_make_epoch_batches(groups, batch_size: int, rng: np.random.Generator):
    """Shuffled mini-batches; instance order within groups and batch order
    across groups are both reshuffled each call.  Each group has ``size``
    and stacked ``num``, ``cat`` (either may be None) and ``labels``."""
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


# --- Windows as they were stored when every instance held a copy of its
# rows: each window copied out of the shared rows, then end-aligned in a
# [n, T, ·] block whose cells before a window are zero.

def ref_window_copies(rows: np.ndarray, starts, lengths, picks) -> np.ndarray:
    """The windows ``picks`` (positions into starts/lengths, repeats allowed)
    of ``rows``, copied one by one and end-aligned with zero padding."""
    copies = [rows[starts[p]:starts[p] + lengths[p]].copy() for p in picks]
    T = max(len(c) for c in copies)
    out = np.zeros((len(copies), T) + rows.shape[1:], dtype=rows.dtype)
    for r, copy in enumerate(copies):
        out[r, T - len(copy):] = copy
    return out
