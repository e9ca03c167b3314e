"""Hourly binning, imputation, vocabulary construction and oversampling.

Binning rule per variable per hour bin: the last row of the bin wins when
it parses; when the last row is unparseable but earlier ones parse, the
bin takes the mean of the parseable rows; bins with no parseable row stay
unobserved.  A categorical bin takes the category of its last row with
non-blank text; an explicit "unknown" counts as an observation.
Imputation carries the last observation forward and falls back to the
variable's normal value (numeric) or the reserved "unknown" category
before the first observation.

Categorical cells hold ids into the StayTable's interned strings through
binning and imputation; mapping to vocabulary indices happens per
cross-validation fold (vocabs are built from training folds only) via
encode_categoricals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .schema import (
    CATEGORICAL_VARIABLES,
    DEFAULT_MAX_GRID_HOURS,
    N_CATEGORICAL,
    N_NUMERIC,
    UNKNOWN,
    VARIABLES,
    HourlyGrid,
    StayMeta,
    StayTable,
    TaskInstance,
    grid_hours,
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


def build_stay_grid(meta: StayMeta, rows: StayTable, normals: np.ndarray,
                    max_hours: int = DEFAULT_MAX_GRID_HOURS) -> HourlyGrid:
    """Bin and impute one stay's rows, its demographic rows included."""
    return impute(bin_hourly(rows, grid_hours(meta.unit_discharge_offset_minutes, max_hours)), normals)


def _vocab_sort_key(value: str):
    parsed = parse_value(value)
    return (0, parsed, "") if not math.isnan(parsed) else (1, 0.0, value)


@dataclass(frozen=True)
class Vocabs:
    """Per-variable vocabularies plus the provenance they were built from."""

    values: dict[str, tuple[str, ...]]
    source_stays: frozenset[int]
    remap: np.ndarray   # [k, string id of the StayTable] -> index in the k-th vocabulary, 0 when unseen


def build_vocabs(table: StayTable, stays: Iterable[int]) -> Vocabs:
    """Collect the distinct categorical values of the given stays' rows (training folds only).

    Rows at any offset count, the demographic rows included.  Each
    vocabulary is the sorted distinct values with "unknown" prepended at
    index 0; values unseen here map to index 0 at encode time.
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


def oversample(
    instances: Sequence[TaskInstance],
    rng: np.random.Generator,
) -> tuple[list[TaskInstance], str | None]:
    """Balance a binary-labeled instance list by duplicating the minority class.

    Originals are all retained; duplicates are drawn uniformly with
    replacement, so the result is deterministic for a seeded generator.
    Single-class input is returned unchanged along with a warning string.
    """
    try:
        pos = [i for i in instances if float(i.label) == 1.0]
        neg = [i for i in instances if float(i.label) == 0.0]
    except TypeError as exc:
        raise ConfigError("oversample requires binary 0/1 labels") from exc
    if len(pos) + len(neg) != len(instances):
        raise ConfigError("oversample requires binary 0/1 labels")
    if not pos or not neg:
        return list(instances), "single-class input; oversampling skipped"
    minority, n_extra = (pos, len(neg) - len(pos)) if len(pos) < len(neg) else (neg, len(pos) - len(neg))
    extras = [minority[i] for i in rng.integers(0, len(minority), size=n_extra)]
    return list(instances) + extras, None
