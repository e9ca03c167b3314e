"""Inclusion criteria, task labels and rolling-window prediction schedules.

Windowed tasks (remaining length of stay, decompensation) predict at hour
t = 12, 18, 24, ... using the 12 preceding hours as the derivation window;
a point exists only while t is strictly inside the gridded stay (and, for
decompensation, strictly before death).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .phenotypes import PhenotypeCatalog
from .schema import DischargeStatus, HourlyGrid, StayMeta, TaskInstance

DERIVATION_HOURS = 12
SLIDE_HOURS = 6

RULE_AGE = "age <= 18"
RULE_RECORDS = "fewer than 15 records"
MIN_RECORDS = 15
MIN_AGE_EXCLUSIVE = 18.0


@dataclass
class CohortReport:
    """Included stays plus exclusion counts, rules applied in fixed order."""

    total: int
    included: list[int]
    excluded: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        assert len(self.included) + sum(self.excluded.values()) == self.total

    def render(self) -> str:
        lines = ["cohort report", "============="]
        lines.append(f"stays in        {self.total}")
        for rule, count in self.excluded.items():
            lines.append(f"excluded: {rule:<24} {count}")
        lines.append(f"included        {len(self.included)}")
        return "\n".join(lines) + "\n"


def select_base_cohort(metas: Sequence[StayMeta], record_counts: Mapping[int, int]) -> CohortReport:
    """Keep adult stays (age > 18) with at least 15 schema-variable records.

    The age rule is applied first, so a stay failing both is counted under
    the age rule.
    """
    included: list[int] = []
    excluded = {RULE_AGE: 0, RULE_RECORDS: 0}
    for meta in metas:
        if not meta.age > MIN_AGE_EXCLUSIVE:  # NaN ages fail the adult rule too
            excluded[RULE_AGE] += 1
        elif record_counts.get(meta.stay_id, 0) < MIN_RECORDS:
            excluded[RULE_RECORDS] += 1
        else:
            included.append(meta.stay_id)
    return CohortReport(total=len(metas), included=included, excluded=excluded)


def schedule_points(n_hours: int, stop_before_hours: float | None = None) -> list[int]:
    """Prediction points t = 12, 18, 24, ... with t < n_hours (and t < stop)."""
    limit = n_hours if stop_before_hours is None else min(n_hours, stop_before_hours)
    points = []
    t = DERIVATION_HOURS
    while t < limit:
        points.append(t)
        t += SLIDE_HOURS
    return points


def build_mortality_instances(
    grids: Mapping[int, HourlyGrid],
    metas: Mapping[int, StayMeta],
    horizon_hours: int,
) -> list[TaskInstance]:
    """One instance per qualifying stay: first `horizon_hours` of data,
    label 1 iff the hospital outcome is expired.

    Qualification: discharge status present and a unit stay of >= 48 hours.
    """
    if horizon_hours not in (24, 48):
        raise ValueError(f"mortality horizon must be 24 or 48 hours, got {horizon_hours}")
    out = []
    for stay_id in sorted(grids):
        meta = metas[stay_id]
        if meta.hospital_discharge_status == DischargeStatus.MISSING:
            continue
        if meta.unit_discharge_offset_minutes < 48 * 60:
            continue
        if grids[stay_id].n_hours < horizon_hours:
            continue  # grid truncated below the horizon by max_hours config
        label = 1.0 if meta.hospital_discharge_status == DischargeStatus.EXPIRED else 0.0
        out.append(TaskInstance(stay_id=stay_id, start=0, end=horizon_hours, label=label))
    return out


def build_los_instances(
    grids: Mapping[int, HourlyGrid],
    metas: Mapping[int, StayMeta],
) -> list[TaskInstance]:
    """Remaining length of stay (days) at each scheduled point."""
    out = []
    for stay_id in sorted(grids):
        meta = metas[stay_id]
        los_days = meta.unit_los_days
        for t in schedule_points(grids[stay_id].n_hours):
            remaining = max(los_days - t / 24.0, 0.0)
            out.append(TaskInstance(stay_id=stay_id, start=t - DERIVATION_HOURS, end=t, label=remaining))
    return out


def build_decomp_instances(
    grids: Mapping[int, HourlyGrid],
    metas: Mapping[int, StayMeta],
) -> list[TaskInstance]:
    """Death-within-24h label at each scheduled point.

    Points at or after the death hour are not generated; a point t is
    positive iff the death offset falls in (t, t + 24] hours.
    """
    out = []
    for stay_id in sorted(grids):
        meta = metas[stay_id]
        death_hours = None
        if meta.death_offset_minutes is not None:
            death_hours = meta.death_offset_minutes / 60.0
        for t in schedule_points(grids[stay_id].n_hours, stop_before_hours=death_hours):
            label = 0.0
            if death_hours is not None and t < death_hours <= t + 24:
                label = 1.0
            out.append(TaskInstance(stay_id=stay_id, start=t - DERIVATION_HOURS, end=t, label=label))
    return out


def build_phenotype_instances(
    grids: Mapping[int, HourlyGrid],
    diagnoses: Mapping[int, frozenset[str]],
    catalog: PhenotypeCatalog,
) -> list[TaskInstance]:
    """Whole-stay multi-label instances; stays with no mappable code are skipped."""
    out = []
    for stay_id in sorted(grids):
        mask = catalog.label_mask(diagnoses.get(stay_id, frozenset()))
        if not mask.any():
            continue
        out.append(TaskInstance(stay_id=stay_id, start=0, end=grids[stay_id].n_hours, label=mask))
    return out
