"""Readers for the four eICU-CRD v1.0 tables (patient, lab, nurseCharting, diagnosis).

Column names are fixed; each table must have a header row naming at least
these columns, in any order (other columns are ignored):

    patient.csv        patientunitstayid, uniquepid, age, gender, ethnicity,
                       apacheadmissiondx, hospitaldischargestatus,
                       unitdischargeoffset, and optionally hospitaldischargeoffset
    lab.csv            patientunitstayid, labresultoffset, labname, labresult
    nurseCharting.csv  patientunitstayid, nursingchartoffset,
                       nursingchartcelltypevallabel, nursingchartvalue
    diagnosis.csv      patientunitstayid, icd9code

A missing table other than diagnosis.csv is a DataError ("missing input
table <path>"), raised where _table_rows opens it; an empty file or a
missing column is a SchemaError.  _table_rows streams every table row by
row; stay_table turns each lab and nurseCharting row in one pass into one
columnar StayTable, 29 bytes a row.  It parses each distinct id or offset
text and (variable, value) text once, in two caches emptied at CACHE_ENTRIES
entries each, about 11.5 MB in all.  A numerical value
outside its schema.VALID_RANGES entry is kept as NaN (unobserved), like an
unparseable one, and counted per table as out of range.  An age is read
like any other value (schema.parse_age): a non-finite age is NaN, so it
fails the adult rule; '> 89' reads as 90, and any other text after '>' as
NaN.  One number rule covers every id, offset and value cell
(schema.parse_value, schema.parse_int): a number is ASCII text, a sign and
surrounding whitespace allowed, with no ``_``; so ``1_00016``, ``７`` or
``1_0.5`` is not a number, and such a value is NaN.  A patient id
(uniquepid) of ASCII digits reads as an int, any other text as its hash.
Blank lines are skipped.  Rows with missing or extra cells (an unquoted
comma inside a value, for instance), rows whose stay id or offset is not
an integer by that rule inside int64 (all four tables), and patient rows
whose discharge or death offset is outside
schema.PATIENT_OFFSET_RANGE_MINUTES (0 to five years) are counted as
malformed and skipped; a file that is not UTF-8 or that the CSV parser
cannot read (an unterminated quote running past the field size limit, for
instance), and a record over several lines, are data errors.  The report
formats the first MAX_MESSAGES messages on skipped rows and counts the rest.

Where the source data offers the same variable under several labels, the
default alias map below documents the choice: vitals, GCS components,
height and weight come from nurseCharting; pH, glucose and FiO2 come from
the lab table.  Both streams are pooled per stay and disambiguated purely
by offset during binning.
"""

from __future__ import annotations

import csv
import hashlib
import math
from array import array
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DataError, SchemaError
from .phenotypes import normalize_code
from .schema import (
    CATEGORICAL_VARIABLES,
    N_NUMERIC,
    NUMERICAL_VARIABLES,
    PATIENT_OFFSET_RANGE_MINUTES,
    UNKNOWN,
    VALID_RANGES,
    VARIABLE_INDEX,
    DischargeStatus,
    StayMeta,
    StayTable,
    parse_age,
    parse_int,
    parse_value,
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

#: The eICU columns each table is read by, in the order the loaders take them.
TABLE_COLUMNS = {
    PATIENT: (
        "patientunitstayid", "uniquepid", "age", "gender", "ethnicity", "apacheadmissiondx",
        "hospitaldischargestatus", "unitdischargeoffset", "hospitaldischargeoffset",
    ),
    LAB: ("patientunitstayid", "labresultoffset", "labname", "labresult"),
    NURSECHARTING: ("patientunitstayid", "nursingchartoffset", "nursingchartcelltypevallabel", "nursingchartvalue"),
    DIAGNOSIS: ("patientunitstayid", "icd9code"),
}

#: Columns a table may lack; their cells then read as empty.
OPTIONAL_COLUMNS = frozenset({"hospitaldischargeoffset"})

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

#: Source label -> index into VARIABLES.
_LABEL_INDEX = {label: VARIABLE_INDEX[name] for label, name in DEFAULT_VARIABLE_MAP.items()}
_LOW, _HIGH = zip(*(VALID_RANGES[name] for name in NUMERICAL_VARIABLES))
_AGE = VARIABLE_INDEX["Age"]
_DEMOGRAPHICS = tuple(VARIABLE_INDEX[name] for name in ("Admission diagnosis", "Ethnicity", "Gender"))
_STATUS = {status.value: status for status in DischargeStatus}

#: Bounds of every stay id and offset cell, in all four tables: the stay table stores them as int64.
#: Patient offsets must also lie in the narrower schema.PATIENT_OFFSET_RANGE_MINUTES.
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1

#: Messages IngestionReport keeps and renders; the rest are only counted.
MAX_MESSAGES = 200
#: Entries of each of stay_table's two text caches, at about 112 B (id, offset) or 238 B (value) each.
CACHE_ENTRIES = 1 << 15


@dataclass
class IngestionReport:
    """Row counters per table, split by what happened to each row."""

    rows_read: dict[str, int] = field(default_factory=dict)
    rows_kept: dict[str, int] = field(default_factory=dict)
    rows_unmapped_variable: dict[str, int] = field(default_factory=dict)
    rows_malformed: dict[str, int] = field(default_factory=dict)
    rows_out_of_range: dict[str, int] = field(default_factory=dict)   # kept rows whose value became NaN
    messages: list[str] = field(default_factory=list)
    messages_cut: int = 0   # messages counted but not kept, past MAX_MESSAGES

    def note(self, template: str, *args) -> None:
        """Keep the message template.format(*args); once MAX_MESSAGES are kept, only count it, unformatted."""
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(template.format(*args))
        else:
            self.messages_cut += 1

    def render(self) -> str:
        tables = sorted(set(self.rows_read) | set(self.rows_kept))
        lines = ["ingestion report", "================"]
        for t in tables:
            lines.append(
                f"{t:<14} read={self.rows_read.get(t, 0):<9} kept={self.rows_kept.get(t, 0):<9} "
                f"out_of_range={self.rows_out_of_range.get(t, 0):<7} "
                f"unmapped_variable={self.rows_unmapped_variable.get(t, 0):<7} "
                f"malformed={self.rows_malformed.get(t, 0)}"
            )
        if self.messages:
            lines.append("")
            lines.extend(self.messages[:MAX_MESSAGES])
            if cut := len(self.messages[MAX_MESSAGES:]) + self.messages_cut:
                lines.append(f"{cut} more messages suppressed")
        return "\n".join(lines) + "\n"


def _add(counter: dict[str, int], table: str, n: int) -> None:
    """Add n to a table's counter; a table gets a key only once something is counted."""
    if n:
        counter[table] = counter.get(table, 0) + n


def _table_rows(path, table: str, report: IngestionReport) -> Iterator[tuple[str, ...]]:
    """Stream one table's rows as tuples of the cells in TABLE_COLUMNS[table].

    Blank lines are skipped uncounted.  A row with more or fewer cells than
    the header is counted as malformed and skipped.  When a header names a
    column twice, its last occurrence is read.  Rows read (blank lines
    aside) and malformed rows are counted once, when the iteration ends.
    A missing file, and a record spanning several physical lines (a quote
    left open, for instance), is a DataError.
    """
    columns = TABLE_COLUMNS[table]
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError as exc:
        raise DataError(f"missing input table {path}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    n = malformed = 0
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file, expected a header row")
            index = {name: i for i, name in enumerate(header)}
            for name in columns:
                if name not in index and name not in OPTIONAL_COLUMNS:
                    raise SchemaError(f"{path}: missing required column {name!r}")
            if all(name in index for name in columns):
                pick = itemgetter(*(index[name] for name in columns))
            else:
                def pick(row):
                    return tuple(row[index[name]] if name in index else "" for name in columns)
            width = len(header)
            line = reader.line_num
            for row in reader:
                if reader.line_num != line + 1:
                    raise DataError(f"{path}: the record starting on line {line + 1} runs on to line "
                                    f"{reader.line_num} (a quote left open?)")
                line = reader.line_num
                if not row:
                    continue
                n += 1
                if len(row) != width:
                    malformed += 1
                    report.note("{} line {} skipped: not {} cells", table, reader.line_num, width)
                    continue
                yield pick(row)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not valid UTF-8 after line {reader.line_num} ({exc.reason})") from exc
        except csv.Error as exc:
            raise DataError(f"{path}: unreadable CSV after line {reader.line_num} ({exc})") from exc
        finally:
            _add(report.rows_read, table, n)
            _add(report.rows_malformed, table, malformed)


def _integer(text: str, name: str, low: int = _INT64_MIN, high: int = _INT64_MAX) -> int:
    """An id or offset cell as an int; ValueError when it breaks the number
    rule (schema.parse_int) or is outside [low, high]."""
    value = parse_int(text, name)
    if not low <= value <= high:
        raise ValueError(f"{name} {value} out of range")
    return value


def parse_patient_id(text: str) -> int:
    """ASCII digit ids parse as ints; anything else hashes to a stable 63-bit int."""
    text = text.strip()
    if text.isascii() and text.isdigit():
        return int(text)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def load_stay_meta(path, report: IngestionReport | None = None) -> list[StayMeta]:
    """Read the patient table into StayMeta rows.

    Rows whose stay id is not an integer inside int64, or whose offsets are
    not integers inside PATIENT_OFFSET_RANGE_MINUTES, are skipped and counted
    in the report, each with a message; unparseable categorical
    cells become the reserved "unknown" value instead of failing the row.
    A second row for a stay id is counted as malformed too; the first one
    is kept.
    """
    report = report if report is not None else IngestionReport()
    metas: list[StayMeta] = []
    seen: set[int] = set()
    malformed = 0
    rows = _table_rows(path, PATIENT, report)
    for stay, patient, age, gender, ethnicity, diagnosis, status_text, offset_text, death_text in rows:
        try:
            stay_id = _integer(stay, "stay id")
            offset = _integer(offset_text, "unit discharge offset", *PATIENT_OFFSET_RANGE_MINUTES)
            if offset <= 0:
                raise ValueError("nonpositive unit discharge offset")
            status = _STATUS.get(status_text.strip().lower(), DischargeStatus.MISSING)
            death_offset = None
            if status == DischargeStatus.EXPIRED and death_text.strip():
                death_offset = _integer(death_text, "death offset", *PATIENT_OFFSET_RANGE_MINUTES)
            if stay_id in seen:
                malformed += 1
                report.note("duplicate stay id {}; keeping first occurrence", stay_id)
                continue
            seen.add(stay_id)
            metas.append(
                StayMeta(
                    stay_id=stay_id,
                    patient_id=parse_patient_id(patient),
                    age=parse_age(age),
                    gender=gender.strip() or UNKNOWN,
                    ethnicity=ethnicity.strip() or UNKNOWN,
                    admission_diagnosis=diagnosis.strip() or UNKNOWN,
                    hospital_discharge_status=status,
                    unit_discharge_offset_minutes=offset,
                    death_offset_minutes=death_offset,
                )
            )
        except ValueError as exc:
            malformed += 1
            report.note("patient row skipped: {}", exc)
    _add(report.rows_kept, PATIENT, len(metas))
    _add(report.rows_malformed, PATIENT, malformed)
    return metas


def load_diagnoses(path, report: IngestionReport | None = None) -> dict[int, frozenset[str]]:
    """Map stay id -> normalized ICD-9 code set.

    A source cell may list several comma-separated codes; each is trimmed
    and upper-cased individually.
    """
    report = report if report is not None else IngestionReport()
    codes: dict[int, set[str]] = {}
    kept = malformed = 0
    for stay, cell in _table_rows(path, DIAGNOSIS, report):
        try:
            stay_id = _integer(stay, "stay id")
        except ValueError:
            malformed += 1
            continue
        parsed = [normalize_code(c) for c in cell.split(",") if c.strip()]
        if not parsed:
            malformed += 1
            continue
        codes.setdefault(stay_id, set()).update(parsed)
        kept += 1
    _add(report.rows_kept, DIAGNOSIS, kept)
    _add(report.rows_malformed, DIAGNOSIS, malformed)
    return {sid: frozenset(cs) for sid, cs in codes.items()}


class _TextCache(dict):
    """Text -> parse(text), or None where parse raises ValueError; emptied at CACHE_ENTRIES entries."""

    def __init__(self, parse):
        self.parse = parse

    def __missing__(self, text):
        if len(self) >= CACHE_ENTRIES:
            self.clear()
        try:
            self[text] = self.parse(text)
        except ValueError:
            self[text] = None
        return self[text]


def stay_table(metas: Iterable[StayMeta], tables: Mapping[str, Iterable[tuple[str, str, str, str]]],
               report: IngestionReport | None = None) -> tuple[StayTable, dict[int, int]]:
    """Parse each table's (stay id, offset, label, value text) rows, as _table_rows yields them, once.

    The demographic fields of ``metas`` enter as offset-0 rows ahead of the
    tables' rows; one stable sort by (stay, offset) then keeps, within a
    stay and offset, demographics first and the rest in the order given.
    A numerical value outside its VALID_RANGES entry is kept as NaN.  Also
    returns how many table rows each stay has (demographics not counted).
    """
    report = report if report is not None else IngestionReport()
    strings = {UNKNOWN: 0}
    columns = (array("q"), array("q"), array("b"), array("d"), array("i"))
    stay, offset, variable, value, code = (column.append for column in columns)
    for meta in metas:
        if not math.isnan(meta.age):
            in_range = _LOW[_AGE] <= meta.age <= _HIGH[_AGE]
            _add(report.rows_out_of_range, PATIENT, not in_range)
            stay(meta.stay_id)
            offset(0)
            variable(_AGE)
            value(meta.age if in_range else math.nan)
            code(-1)
        for j, text in zip(_DEMOGRAPHICS, (meta.admission_diagnosis, meta.ethnicity, meta.gender)):
            text = text.strip()
            stay(meta.stay_id)
            offset(0)
            variable(j)
            value(parse_value(text))
            code(strings.setdefault(text, len(strings)) if text else -1)
    n_demographic = len(columns[0])

    def parse_cell(key: tuple[int, str]) -> tuple[float, int, bool]:
        """(value, code, out of range) of a (variable, value text) pair."""
        j, text = key
        x, stripped = parse_value(text), text.strip()
        if j >= N_NUMERIC:
            return x, strings.setdefault(stripped, len(strings)) if stripped else -1, False
        bad = not _LOW[j] <= x <= _HIGH[j] and x == x   # NaN does not parse, so it is not out of range
        return (math.nan if bad else x), -1, bad

    cells = _TextCache(parse_cell)
    ints = _TextCache(lambda cell: _integer(str(cell), "cell"))   # id and offset cells; ints pass too
    for table, rows in tables.items():
        kept = unmapped = malformed = out_of_range = 0
        for stay_text, offset_text, label, text in rows:
            j = _LABEL_INDEX.get(label.strip(), -1)
            if j < 0:
                unmapped += 1
                continue
            stay_id, minutes = ints[stay_text], ints[offset_text]
            if stay_id is None or minutes is None:
                malformed += 1
                continue
            kept += 1
            x, c, bad = cells[j, text]
            out_of_range += bad
            stay(stay_id)
            offset(minutes)
            variable(j)
            value(x)
            code(c)
        _add(report.rows_kept, table, kept)
        _add(report.rows_unmapped_variable, table, unmapped)
        _add(report.rows_malformed, table, malformed)
        _add(report.rows_out_of_range, table, out_of_range)
    del ints, cells   # freed before the sort below, where load_dataset peaks

    stay_ids, stay_offsets, *rest = (np.frombuffer(column, dtype=column.typecode) for column in columns)
    counted, counts = np.unique(stay_ids[n_demographic:], return_counts=True)
    order = np.lexsort((stay_offsets, stay_ids))
    table = StayTable(*(column[order] for column in (stay_ids, stay_offsets, *rest)), strings=tuple(strings))
    return table, dict(zip(counted.tolist(), counts.tolist()))


@dataclass
class Dataset:
    """Everything one data dump provides, ready for cohorting and gridding."""

    metas: dict[int, StayMeta]
    table: StayTable
    record_counts: dict[int, int]   # lab and nurseCharting rows kept per stay
    diagnoses: dict[int, frozenset[str]]
    report: IngestionReport


def load_dataset(data_dir) -> Dataset:
    """Load one dump directory (patient, lab, nurseCharting, diagnosis)."""
    data_dir = Path(data_dir)
    report = IngestionReport()
    metas = load_stay_meta(data_dir / TABLE_FILES[PATIENT], report)
    tables = {t: _table_rows(data_dir / TABLE_FILES[t], t, report) for t in (LAB, NURSECHARTING)}
    table, record_counts = stay_table(metas, tables, report)
    diag_path = data_dir / TABLE_FILES[DIAGNOSIS]
    diagnoses = load_diagnoses(diag_path, report) if diag_path.exists() else {}
    return Dataset(metas={m.stay_id: m for m in metas}, table=table, record_counts=record_counts,
                   diagnoses=diagnoses, report=report)
