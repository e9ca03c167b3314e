"""Hourly binning, imputation, vocabulary construction and oversampling.

Binning rule per variable per hour bin: the last raw entry of the bin wins
when it parses; when the last entry is unparseable but earlier ones parse,
the bin takes the mean of the parseable entries; bins with no parseable
entry stay unobserved.  Imputation carries the last observation forward and
falls back to the variable's normal value (numeric) or the reserved
"unknown" category before the first observation.

Categorical cells keep their raw strings through binning and imputation;
mapping to vocabulary indices happens per cross-validation fold (vocabs are
built from training folds only) via encode_categoricals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .schema import (
    CATEGORICAL,
    CATEGORICAL_VARIABLES,
    DEFAULT_MAX_GRID_HOURS,
    NUMERICAL,
    UNKNOWN,
    HourlyGrid,
    StayMeta,
    StayRecordRaw,
    TaskInstance,
    VariableSpec,
    grid_hours,
)


def _try_parse(value: str) -> float | None:
    try:
        v = float(value)
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


def bin_hourly(records: Sequence[StayRecordRaw], n_hours: int, schema: Sequence[VariableSpec]) -> HourlyGrid:
    """Aggregate one stay's records onto the hourly grid (pre-imputation).

    ``records`` must be sorted by offset (stable order within ties decides
    the "last" entry of a bin).  Negative offsets and offsets beyond the
    grid are dropped here.
    """
    num_names = [s.name for s in schema if s.kind == NUMERICAL]
    cat_names = [s.name for s in schema if s.kind == CATEGORICAL]
    num_index = {n: j for j, n in enumerate(num_names)}
    cat_index = {n: j for j, n in enumerate(cat_names)}

    numeric = np.full((n_hours, len(num_names)), np.nan)
    mask = np.zeros((n_hours, len(num_names)), dtype=bool)
    cat_labels = np.full((n_hours, len(cat_names)), "", dtype=object)

    bins: dict[tuple[int, int], list[str]] = {}
    stay_id = records[0].stay_id if records else -1
    for rec in records:
        if rec.offset_minutes < 0:
            continue
        hour = rec.offset_minutes // 60
        if hour >= n_hours:
            continue
        j = num_index.get(rec.variable)
        if j is not None:
            bins.setdefault((hour, j), []).append(rec.value)
            continue
        k = cat_index.get(rec.variable)
        if k is not None and rec.value.strip():
            cat_labels[hour, k] = rec.value.strip()

    for (hour, j), values in bins.items():
        parsed = [_try_parse(v) for v in values]
        last = parsed[-1]
        if last is not None:
            numeric[hour, j] = last
            mask[hour, j] = True
        else:
            earlier = [p for p in parsed if p is not None]
            if not earlier:
                continue
            numeric[hour, j] = sum(earlier) / len(earlier)
            mask[hour, j] = True

    return HourlyGrid(stay_id=stay_id, numeric=numeric, cat_labels=cat_labels, observed_mask=mask)


def impute(grid: HourlyGrid, schema: Sequence[VariableSpec]) -> HourlyGrid:
    """Fill every cell: carry forward, then normal value / "unknown".

    The observed mask is preserved unchanged.
    """
    num_specs = [s for s in schema if s.kind == NUMERICAL]
    numeric = grid.numeric.copy()
    cat_labels = grid.cat_labels.copy()
    n = grid.n_hours

    for j, spec in enumerate(num_specs):
        col = numeric[:, j]
        last = np.nan
        for h in range(n):
            if math.isnan(col[h]):
                col[h] = last
            else:
                last = col[h]
        np.copyto(col, spec.normal_value, where=np.isnan(col))

    for k in range(cat_labels.shape[1]):
        col = cat_labels[:, k]
        last = ""
        for h in range(n):
            if col[h] == "":
                col[h] = last
            else:
                last = col[h]
        col[col == ""] = UNKNOWN

    return HourlyGrid(
        stay_id=grid.stay_id,
        numeric=numeric,
        cat_labels=cat_labels,
        observed_mask=grid.observed_mask,
        categorical=grid.categorical,
    )


def meta_records(meta: StayMeta) -> list[StayRecordRaw]:
    """Materialize the patient-table fields as offset-0 pseudo records."""
    recs = []
    if not math.isnan(meta.age):
        recs.append(StayRecordRaw(meta.stay_id, "Age", 0, repr(meta.age)))
    for name, value in (
        ("Admission diagnosis", meta.admission_diagnosis),
        ("Ethnicity", meta.ethnicity),
        ("Gender", meta.gender),
    ):
        recs.append(StayRecordRaw(meta.stay_id, name, 0, value))
    return recs


def build_stay_grid(
    meta: StayMeta,
    records: Sequence[StayRecordRaw],
    schema: Sequence[VariableSpec],
    max_hours: int = DEFAULT_MAX_GRID_HOURS,
) -> HourlyGrid:
    """Bin and impute one stay, injecting the demographic pseudo records."""
    merged = meta_records(meta) + list(records)
    merged.sort(key=lambda r: r.offset_minutes)  # stable: ties keep input order
    n_hours = grid_hours(meta.unit_discharge_offset_minutes, max_hours)
    return impute(bin_hourly(merged, n_hours, schema), schema)


def _vocab_sort_key(value: str):
    parsed = _try_parse(value)
    return (0, parsed, "") if parsed is not None else (1, 0.0, value)


@dataclass(frozen=True)
class Vocabs:
    """Per-variable vocabularies plus the provenance they were built from."""

    values: dict[str, tuple[str, ...]]
    source_stays: frozenset[int]
    tag: str = "train"


def build_vocabs(
    metas: Iterable[StayMeta],
    records: Iterable[StayRecordRaw],
    tag: str = "train",
) -> Vocabs:
    """Collect distinct observed categorical values (training folds only).

    Each vocabulary is the sorted distinct observed values with "unknown"
    prepended at index 0; values unseen here map to index 0 at encode time.
    """
    observed: dict[str, set[str]] = {name: set() for name in CATEGORICAL_VARIABLES}
    stays: set[int] = set()
    for meta in metas:
        stays.add(meta.stay_id)
        for name, value in (
            ("Admission diagnosis", meta.admission_diagnosis),
            ("Ethnicity", meta.ethnicity),
            ("Gender", meta.gender),
        ):
            if value and value != UNKNOWN:
                observed[name].add(value)
    for rec in records:
        if rec.variable in observed:
            stays.add(rec.stay_id)
            value = rec.value.strip()
            if value and value != UNKNOWN:
                observed[rec.variable].add(value)
    values = {
        name: (UNKNOWN, *sorted(seen, key=_vocab_sort_key)) for name, seen in observed.items()
    }
    return Vocabs(values=values, source_stays=frozenset(stays), tag=tag)


def encode_categoricals(grid: HourlyGrid, schema: Sequence[VariableSpec]) -> HourlyGrid:
    """Map the grid's raw category strings to vocab indices (unseen -> 0)."""
    cat_specs = [s for s in schema if s.kind == CATEGORICAL]
    if any(s.vocab is None for s in cat_specs):
        raise ConfigError("schema has no vocabularies attached; call build_vocabs first")
    indices = np.zeros(grid.cat_labels.shape, dtype=np.int64)
    for k, spec in enumerate(cat_specs):
        lookup = {v: i for i, v in enumerate(spec.vocab)}
        col = grid.cat_labels[:, k]
        indices[:, k] = [lookup.get(v, 0) for v in col]
    return HourlyGrid(
        stay_id=grid.stay_id,
        numeric=grid.numeric,
        cat_labels=grid.cat_labels,
        observed_mask=grid.observed_mask,
        categorical=indices,
    )


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
