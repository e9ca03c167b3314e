"""Readers for eICU-shaped CSV tables (patient, lab, nurseCharting, diagnosis).

Long tables (lab, nurseCharting) are streamed row by row by load_records, so
its peak memory does not depend on file length; load_dataset groups the
stream per stay and so holds every kept row.  Rows with missing or extra
cells (an unquoted comma inside a value, for instance) are counted as
malformed and skipped; a file that is not UTF-8 is a data error.
Measurement values are kept verbatim as strings; parsing is the binning
step's job.

Where the source data offers the same variable under several labels, the
default alias map below documents the choice: vitals, GCS components,
height and weight come from nurseCharting; pH, glucose and FiO2 come from
the lab table.  Both streams are pooled per stay and disambiguated purely
by offset during binning.
"""

from __future__ import annotations

import csv
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DataError, SchemaError
from .schema import (
    CATEGORICAL_VARIABLES,
    NUMERICAL_VARIABLES,
    UNKNOWN,
    DischargeStatus,
    StayMeta,
    StayRecordRaw,
    VariableSpec,
    parse_age,
)

PATIENT = "patient"
LAB = "lab"
NURSECHARTING = "nursecharting"
DIAGNOSIS = "diagnosis"

#: Canonical file names of one data dump.
TABLE_FILES = {
    PATIENT: "patient.csv",
    LAB: "lab.csv",
    NURSECHARTING: "nurseCharting.csv",
    DIAGNOSIS: "diagnosis.csv",
}

DEFAULT_COLUMN_MAPS = {
    PATIENT: {
        "patientunitstayid": "stay_id",
        "uniquepid": "patient_id",
        "age": "age",
        "gender": "gender",
        "ethnicity": "ethnicity",
        "apacheadmissiondx": "admission_diagnosis",
        "hospitaldischargestatus": "hospital_discharge_status",
        "unitdischargeoffset": "unit_discharge_offset_minutes",
        "hospitaldischargeoffset": "hospital_discharge_offset_minutes",
    },
    LAB: {
        "patientunitstayid": "stay_id",
        "labresultoffset": "offset_minutes",
        "labname": "variable",
        "labresult": "value",
    },
    NURSECHARTING: {
        "patientunitstayid": "stay_id",
        "nursingchartoffset": "offset_minutes",
        "nursingchartcelltypevallabel": "variable",
        "nursingchartvalue": "value",
    },
    DIAGNOSIS: {
        "patientunitstayid": "stay_id",
        "icd9code": "code",
    },
}

# Source measurement labels -> schema variable names.  Canonical names map to
# themselves so synthetic dumps can use them directly.
DEFAULT_VARIABLE_MAP: dict[str, str] = {
    **{name: name for name in NUMERICAL_VARIABLES},
    **{name: name for name in CATEGORICAL_VARIABLES},
    "Heart Rate": "Heart rate",
    "MAP (mmHg)": "Mean arterial pressure",
    "Arterial Line MAP (mmHg)": "Mean arterial pressure",
    "Non-Invasive BP Diastolic": "Diastolic blood pressure",
    "Invasive BP Diastolic": "Diastolic blood pressure",
    "Non-Invasive BP Systolic": "Systolic blood pressure",
    "Invasive BP Systolic": "Systolic blood pressure",
    "O2 Saturation": "O2",
    "Respiratory Rate": "Respiratory rate",
    "Temperature (C)": "Temperature",
    "Bedside Glucose": "Glucose",
    "bedside glucose": "Glucose",
    "glucose": "Glucose",
    "Admission Height (cm)": "Height",
    "Admission Weight (kg)": "Weight",
    "GCS Total": "Glasgow Coma Score Total",
    "GCS Eyes": "Glasgow Coma Score Eyes",
    "GCS Motor": "Glasgow Coma Score Motor",
    "GCS Verbal": "Glasgow Coma Score Verbal",
}

REQUIRED_META_FIELDS = (
    "stay_id",
    "patient_id",
    "age",
    "gender",
    "ethnicity",
    "admission_diagnosis",
    "hospital_discharge_status",
    "unit_discharge_offset_minutes",
)


@dataclass(frozen=True)
class TableSource:
    """One CSV file plus the column (and measurement-label) mapping for it."""

    path: Path
    table: str
    column_map: dict[str, str] = field(default_factory=dict)
    variable_map: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.table not in TABLE_FILES:
            raise SchemaError(f"unknown table kind {self.table!r}")
        if not self.column_map:
            object.__setattr__(self, "column_map", dict(DEFAULT_COLUMN_MAPS[self.table]))
        if not self.variable_map and self.table in (LAB, NURSECHARTING):
            object.__setattr__(self, "variable_map", dict(DEFAULT_VARIABLE_MAP))


def table_source(data_dir, table: str) -> TableSource:
    return TableSource(path=Path(data_dir) / TABLE_FILES[table], table=table)


#: Messages IngestionReport.render prints before summarizing the rest.
MAX_MESSAGES = 200


@dataclass
class IngestionReport:
    """Row counters per table, split by what happened to each row."""

    rows_read: dict[str, int] = field(default_factory=dict)
    rows_kept: dict[str, int] = field(default_factory=dict)
    rows_unmapped_variable: dict[str, int] = field(default_factory=dict)
    rows_malformed: dict[str, int] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)

    def bump(self, counter: dict[str, int], table: str, n: int = 1) -> None:
        counter[table] = counter.get(table, 0) + n

    def render(self) -> str:
        tables = sorted(set(self.rows_read) | set(self.rows_kept))
        lines = ["ingestion report", "================"]
        for t in tables:
            lines.append(
                f"{t:<14} read={self.rows_read.get(t, 0):<9} kept={self.rows_kept.get(t, 0):<9} "
                f"unmapped_variable={self.rows_unmapped_variable.get(t, 0):<7} "
                f"malformed={self.rows_malformed.get(t, 0)}"
            )
        if self.messages:
            lines.append("")
            lines.extend(self.messages[:MAX_MESSAGES])
            if len(self.messages) > MAX_MESSAGES:
                lines.append(f"{len(self.messages) - MAX_MESSAGES} more messages suppressed")
        return "\n".join(lines) + "\n"


@contextmanager
def _open_reader(src: TableSource):
    """A DictReader over the file; undecodable bytes become a DataError."""
    try:
        fh = open(src.path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {src.path}: {exc}") from exc
    with fh:
        try:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise SchemaError(f"{src.path}: empty file, expected a header row")
            yield reader
        except UnicodeDecodeError as exc:
            raise DataError(f"{src.path}: not valid UTF-8 after line {reader.line_num} ({exc.reason})") from exc


def _rows(reader: csv.DictReader, report: IngestionReport, table: str) -> Iterator[dict[str, str]]:
    """The reader's rows that have exactly one cell per header column.

    DictReader fills a short row's missing cells with None and puts a long
    row's extra cells under the key None; both are counted as malformed and
    skipped.  Rows read are counted once, when the iteration ends.
    """
    width = len(reader.fieldnames)
    n = 0
    try:
        for n, row in enumerate(reader, 1):
            if None in row or None in row.values():
                report.bump(report.rows_malformed, table)
                report.messages.append(f"{table} line {reader.line_num} skipped: not {width} cells")
                continue
            yield row
    finally:
        if n:
            report.bump(report.rows_read, table, n)


def _require_columns(src: TableSource, fieldnames: Sequence[str], required_targets: Iterable[str]) -> None:
    present_targets = {src.column_map[c] for c in fieldnames if c in src.column_map}
    for target in required_targets:
        if target not in present_targets:
            missing = [c for c, t in src.column_map.items() if t == target]
            raise SchemaError(f"{src.path}: missing required column {missing[0]!r} (provides {target})")


def parse_patient_id(text: str) -> int:
    """Digit ids parse as ints; anything else hashes to a stable 63-bit int."""
    text = text.strip()
    if text.isdigit():
        return int(text)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def _parse_status(text: str) -> DischargeStatus:
    text = text.strip().lower()
    if text == "expired":
        return DischargeStatus.EXPIRED
    if text == "alive":
        return DischargeStatus.ALIVE
    return DischargeStatus.MISSING


def _clean_category(text: str) -> str:
    text = text.strip()
    return text if text else UNKNOWN


def load_stay_meta(src: TableSource, report: IngestionReport | None = None) -> list[StayMeta]:
    """Read the patient table into StayMeta rows.

    Rows with malformed numeric fields (ids, offsets) are skipped and counted
    in the report; unparseable categorical cells become the reserved
    "unknown" value instead of failing the row.
    """
    if src.table != PATIENT:
        raise SchemaError(f"load_stay_meta expects a patient source, got {src.table!r}")
    report = report if report is not None else IngestionReport()
    metas: list[StayMeta] = []
    with _open_reader(src) as reader:
        _require_columns(src, reader.fieldnames, REQUIRED_META_FIELDS)
        inverse = {t: c for c, t in src.column_map.items() if c in reader.fieldnames}
        for row in _rows(reader, report, PATIENT):
            try:
                stay_id = int(row[inverse["stay_id"]])
                offset = int(row[inverse["unit_discharge_offset_minutes"]])
                if offset <= 0:
                    raise ValueError("nonpositive unit discharge offset")
                status = _parse_status(row[inverse["hospital_discharge_status"]])
                death_offset = None
                death_col = inverse.get("hospital_discharge_offset_minutes")
                if status == DischargeStatus.EXPIRED and death_col and row.get(death_col, "").strip():
                    death_offset = int(row[death_col])
                metas.append(
                    StayMeta(
                        stay_id=stay_id,
                        patient_id=parse_patient_id(row[inverse["patient_id"]]),
                        age=parse_age(row[inverse["age"]]),
                        gender=_clean_category(row[inverse["gender"]]),
                        ethnicity=_clean_category(row[inverse["ethnicity"]]),
                        admission_diagnosis=_clean_category(row[inverse["admission_diagnosis"]]),
                        hospital_discharge_status=status,
                        unit_discharge_offset_minutes=offset,
                        death_offset_minutes=death_offset,
                    )
                )
                report.bump(report.rows_kept, PATIENT)
            except (KeyError, ValueError) as exc:
                report.bump(report.rows_malformed, PATIENT)
                report.messages.append(f"patient row skipped: {exc}")
    return metas


def load_records(
    src: TableSource,
    schema: Sequence[VariableSpec],
    report: IngestionReport | None = None,
) -> Iterator[StayRecordRaw]:
    """Stream measurement rows whose mapped variable is in the schema.

    Values are yielded verbatim; rows naming variables outside the schema
    are filtered (and counted).  File order is preserved.
    """
    if src.table not in (LAB, NURSECHARTING):
        raise SchemaError(f"load_records expects lab or nursecharting, got {src.table!r}")
    report = report if report is not None else IngestionReport()
    schema_names = {s.name for s in schema}
    with _open_reader(src) as reader:
        _require_columns(src, reader.fieldnames, ("stay_id", "offset_minutes", "variable", "value"))
        inverse = {t: c for c, t in src.column_map.items() if c in reader.fieldnames}
        for row in _rows(reader, report, src.table):
            variable = src.variable_map.get(row[inverse["variable"]].strip())
            if variable is None or variable not in schema_names:
                report.bump(report.rows_unmapped_variable, src.table)
                continue
            try:
                stay_id = int(row[inverse["stay_id"]])
                offset = int(row[inverse["offset_minutes"]])
            except ValueError:
                report.bump(report.rows_malformed, src.table)
                continue
            report.bump(report.rows_kept, src.table)
            yield StayRecordRaw(stay_id=stay_id, variable=variable, offset_minutes=offset, value=row[inverse["value"]])


def load_diagnoses(src: TableSource, report: IngestionReport | None = None) -> dict[int, frozenset[str]]:
    """Map stay id -> normalized ICD-9 code set.

    A source cell may list several comma-separated codes; each is trimmed
    and upper-cased individually.
    """
    if src.table != DIAGNOSIS:
        raise SchemaError(f"load_diagnoses expects a diagnosis source, got {src.table!r}")
    report = report if report is not None else IngestionReport()
    codes: dict[int, set[str]] = {}
    with _open_reader(src) as reader:
        _require_columns(src, reader.fieldnames, ("stay_id", "code"))
        inverse = {t: c for c, t in src.column_map.items() if c in reader.fieldnames}
        for row in _rows(reader, report, DIAGNOSIS):
            try:
                stay_id = int(row[inverse["stay_id"]])
            except ValueError:
                report.bump(report.rows_malformed, DIAGNOSIS)
                continue
            cell = row[inverse["code"]]
            parsed = [c.strip().upper() for c in cell.split(",") if c.strip()]
            if not parsed:
                report.bump(report.rows_malformed, DIAGNOSIS)
                continue
            codes.setdefault(stay_id, set()).update(parsed)
            report.bump(report.rows_kept, DIAGNOSIS)
    return {sid: frozenset(cs) for sid, cs in codes.items()}


@dataclass
class Dataset:
    """Everything one data dump provides, grouped and ready for cohorting."""

    metas: dict[int, StayMeta]
    records_by_stay: dict[int, list[StayRecordRaw]]
    diagnoses: dict[int, frozenset[str]]
    report: IngestionReport

    @property
    def record_counts(self) -> dict[int, int]:
        return {sid: len(recs) for sid, recs in self.records_by_stay.items()}


def load_dataset(data_dir, schema: Sequence[VariableSpec]) -> Dataset:
    """Load and group one dump directory (patient, lab, nurseCharting, diagnosis)."""
    data_dir = Path(data_dir)
    report = IngestionReport()
    metas = load_stay_meta(table_source(data_dir, PATIENT), report)
    meta_map: dict[int, StayMeta] = {}
    for m in metas:
        if m.stay_id in meta_map:
            report.messages.append(f"duplicate stay id {m.stay_id}; keeping first occurrence")
            continue
        meta_map[m.stay_id] = m
    grouped: dict[int, list[StayRecordRaw]] = {}
    for table in (LAB, NURSECHARTING):
        for rec in load_records(table_source(data_dir, table), schema, report):
            grouped.setdefault(rec.stay_id, []).append(rec)
    diag_path = data_dir / TABLE_FILES[DIAGNOSIS]
    diagnoses = load_diagnoses(table_source(data_dir, DIAGNOSIS), report) if diag_path.exists() else {}
    return Dataset(metas=meta_map, records_by_stay=grouped, diagnoses=diagnoses, report=report)
