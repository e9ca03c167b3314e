"""Hourly binning, imputation, vocabulary construction and oversampling.

Binning rule per variable per hour bin: the last row of the bin wins when
it parses; when the last row is unparseable but earlier ones parse, the
bin takes the mean of the parseable rows; bins with no parseable row stay
unobserved.  A categorical bin takes the category of its last row with
non-blank text; an explicit "unknown" counts as an observation.
Imputation carries the last observation forward and falls back to the
variable's normal value (numeric) or the reserved "unknown" category
before the first observation.

A run grids a stay only up to its last task window end; neither binning
nor imputation looks forward in time, so no row depends on where it stops.

Categorical cells hold ids into the StayTable's interned strings through
binning and imputation; mapping to vocabulary indices happens per
cross-validation fold (vocabs are built from training folds only) via
encode_categoricals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError
from .schema import (
    CATEGORICAL_VARIABLES,
    N_CATEGORICAL,
    N_NUMERIC,
    UNKNOWN,
    VARIABLES,
    HourlyGrid,
    StayTable,
    parse_value,
)

_CATEGORICAL_COLUMNS = np.arange(N_CATEGORICAL)


def bin_hourly(rows: StayTable, n_hours: int) -> HourlyGrid:
    """Aggregate one stay's rows onto the hourly grid (pre-imputation).

    ``rows`` must be in offset order (stable within ties, which decides the
    last row of a bin).  Negative offsets and offsets beyond the grid are
    dropped here.
    """
    hour = rows.offset // 60
    keep = (rows.offset >= 0) & (hour < n_hours) & ((rows.variable < N_NUMERIC) | (rows.code >= 0))
    cell = hour[keep] * len(VARIABLES) + rows.variable[keep]
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    value = rows.value[keep][order]
    last = np.flatnonzero(cell != np.append(cell[1:], -1))   # each cell's last row (cells are >= 0)
    numeric = np.full((n_hours, len(VARIABLES)), np.nan)
    numeric.flat[cell[last]] = value[last]
    codes = np.full((n_hours, len(VARIABLES)), -1, dtype=np.int32)
    codes.flat[cell[last]] = rows.code[keep][order][last]

    # A numerical bin whose last row does not parse: the mean of the rows that do, summed in row order.
    first = np.append(0, last[:-1] + 1)
    fallback = np.isnan(value[last]) & (cell[last] % len(VARIABLES) < N_NUMERIC)
    for lo, hi in zip(first[fallback].tolist(), (last[fallback] + 1).tolist()):
        parsed = value[lo:hi][~np.isnan(value[lo:hi])].tolist()
        if parsed:
            numeric.flat[cell[lo]] = sum(parsed) / len(parsed)
    return HourlyGrid(numeric=numeric[:, :N_NUMERIC].copy(), codes=codes[:, N_NUMERIC:].copy())


def _carry_forward(values: np.ndarray, observed: np.ndarray, fallback) -> np.ndarray:
    """Each cell takes its column's latest observed value at or above it, else ``fallback``."""
    latest = np.where(observed, np.arange(len(values))[:, None], -1)
    np.maximum.accumulate(latest, axis=0, out=latest)
    return np.where(latest >= 0, np.take_along_axis(values, np.maximum(latest, 0), axis=0), fallback)


def impute(grid: HourlyGrid, normals: np.ndarray) -> HourlyGrid:
    """Fill every cell: carry forward, then ``normals`` (schema.normal_values) / "unknown" (id 0)."""
    return HourlyGrid(numeric=_carry_forward(grid.numeric, ~np.isnan(grid.numeric), normals),
                      codes=_carry_forward(grid.codes, grid.codes >= 0, 0))


def build_stay_grid(rows: StayTable, n_hours: int, normals: np.ndarray) -> HourlyGrid:
    """Bin and impute one stay's rows, its demographic rows included, over hours [0, n_hours)."""
    return impute(bin_hourly(rows, n_hours), normals)


def _vocab_sort_key(value: str):
    parsed = parse_value(value)
    return (0, parsed, "") if not math.isnan(parsed) else (1, 0.0, value)


@dataclass(frozen=True)
class Vocabs:
    """Per-variable vocabularies plus the provenance they were built from."""

    values: dict[str, tuple[str, ...]]
    source_stays: frozenset[int]
    remap: np.ndarray   # [k, string id of the StayTable] -> index in the k-th vocabulary, 0 when unseen


def categorical_index(table: StayTable) -> StayTable:
    """All of ``table`` that build_vocabs reads, one row per distinct fact.

    Keeps each stay's distinct (variable, code) pairs with a code above 0
    plus one row with code -1 per stay, so every stay of ``table`` is still
    present; offsets are 0 and values NaN.  ``build_vocabs(index, stays)``
    equals ``build_vocabs(table, stays)`` for any ``stays``.
    """
    first = np.ones(len(table.stay), dtype=bool)
    first[1:] = table.stay[1:] != table.stay[:-1]   # the table is sorted by stay
    stays = table.stay[first]
    seen = np.flatnonzero(table.code > 0)
    n_strings = len(table.strings)
    # key = stay rank * width + pair; pair 0 marks the stay, pair > 0 is (variable, code) as build_vocabs packs it
    width = N_CATEGORICAL * n_strings
    pair = (table.variable[seen] - N_NUMERIC).astype(np.int64) * n_strings + table.code[seen]
    keys = np.concatenate((np.arange(len(stays)) * width, (np.cumsum(first) - 1)[seen] * width + pair))
    rank, pair = np.divmod(np.unique(keys), width)
    variable, code = np.divmod(pair, n_strings)
    return StayTable(stay=stays[rank], offset=np.zeros(len(rank), dtype=np.int64),
                     variable=(variable + N_NUMERIC).astype(np.int8), value=np.full(len(rank), np.nan),
                     code=np.where(pair > 0, code, -1).astype(np.int32), strings=table.strings)


def build_vocabs(table: StayTable, stays: Iterable[int]) -> Vocabs:
    """Collect the distinct categorical values of the given stays' rows (training folds only).

    Rows at any offset count, the demographic rows included.  Each
    vocabulary is the sorted distinct values with "unknown" prepended at
    index 0; values unseen here map to index 0 at encode time.  ``table``
    may be the full StayTable or its categorical_index.
    """
    picked = np.isin(table.stay, np.fromiter(stays, dtype=np.int64))
    seen = picked & (table.code > 0)
    n_strings = len(table.strings)
    pairs = np.unique((table.variable[seen] - N_NUMERIC).astype(np.int64) * n_strings + table.code[seen])
    variable, code = np.divmod(pairs, n_strings)
    values = {}
    remap = np.zeros((N_CATEGORICAL, n_strings), dtype=np.int64)
    for k, name in enumerate(CATEGORICAL_VARIABLES):
        ids = sorted(code[variable == k].tolist(), key=lambda i: _vocab_sort_key(table.strings[i]))
        remap[k, ids] = np.arange(1, len(ids) + 1)
        values[name] = (UNKNOWN, *(table.strings[i] for i in ids))
    source = frozenset(np.unique(table.stay[picked]).tolist())
    return Vocabs(values=values, source_stays=source, remap=remap)


def encode_categoricals(grid: HourlyGrid, vocabs: Vocabs) -> np.ndarray:
    """The grid's category ids as the fold's vocab indices (unseen -> 0), int64 [n_hours x 7]."""
    return vocabs.remap[_CATEGORICAL_COLUMNS, grid.codes]


def oversample(labels: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, str | None]:
    """Positions into binary 0/1 ``labels`` that balance them by repeating the minority class.

    Every position comes once, in order, then the repeats, drawn uniformly
    with replacement, so the result is deterministic for a seeded
    generator.  Single-class input gives every position once, along with a
    warning string.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or not np.isin(labels, (0.0, 1.0)).all():
        raise ConfigError("oversample requires binary 0/1 labels")
    every = np.arange(len(labels))
    pos, neg = every[labels == 1.0], every[labels == 0.0]
    if not len(pos) or not len(neg):
        return every, "single-class input; oversampling skipped"
    minority, n_extra = (pos, len(neg) - len(pos)) if len(pos) < len(neg) else (neg, len(pos) - len(neg))
    return np.concatenate((every, minority[rng.integers(0, len(minority), size=n_extra)])), None
