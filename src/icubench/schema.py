"""Canonical 20-variable schema and the shared table/grid/instance types.

The benchmark uses a fixed set of 20 clinical variables: 13 numerical
channels (vitals, labs, anthropometrics, age) followed by 7 categorical
channels (demographics, admission diagnosis, the four Glasgow Coma Score
fields).  Everything downstream (ingestion, binning, model input widths)
is keyed off the order defined here, so the order is a frozen constant.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .errors import ConfigError

#: Reserved categorical value; always index 0 of every vocabulary.
UNKNOWN = "unknown"

NUMERICAL_VARIABLES = (
    "Heart rate",
    "Mean arterial pressure",
    "Diastolic blood pressure",
    "Systolic blood pressure",
    "O2",
    "Respiratory rate",
    "Temperature",
    "Glucose",
    "FiO2",
    "pH",
    "Height",
    "Weight",
    "Age",
)

CATEGORICAL_VARIABLES = (
    "Admission diagnosis",
    "Ethnicity",
    "Gender",
    "Glasgow Coma Score Total",
    "Glasgow Coma Score Eyes",
    "Glasgow Coma Score Motor",
    "Glasgow Coma Score Verbal",
)

N_NUMERIC = len(NUMERICAL_VARIABLES)
N_CATEGORICAL = len(CATEGORICAL_VARIABLES)

#: All 20 variables; a variable's position here is its index in StayTable.variable.
VARIABLES = NUMERICAL_VARIABLES + CATEGORICAL_VARIABLES
VARIABLE_INDEX = {name: i for i, name in enumerate(VARIABLES)}

# Default imputation targets in native clinical units.  Overridable through a
# JSON file whose keys are the variable names above (see read_normal_values).
DEFAULT_NORMAL_VALUES: dict[str, float] = {
    "Heart rate": 86.0,          # bpm
    "Mean arterial pressure": 77.0,   # mmHg
    "Diastolic blood pressure": 59.0,  # mmHg
    "Systolic blood pressure": 118.0,  # mmHg
    "O2": 98.0,                  # % saturation
    "Respiratory rate": 19.0,    # breaths/min
    "Temperature": 37.0,         # Celsius
    "Glucose": 128.0,            # mg/dL
    "FiO2": 21.0,                # % (room air)
    "pH": 7.4,
    "Height": 170.0,             # cm
    "Weight": 81.0,              # kg
    "Age": 62.0,                 # years
}

# Valid ranges, inclusive, in the units above; ingestion reads a value outside
# its range as unobserved.  Modelled on the per-variable outlier bounds of the
# MIMIC-III benchmark (Harutyunyan et al., arXiv:1703.07771).  FiO2 is charted
# both as a fraction and as a percent, so its range spans both.
VALID_RANGES: dict[str, tuple[float, float]] = {
    "Heart rate": (0.0, 390.0),
    "Mean arterial pressure": (0.0, 375.0),
    "Diastolic blood pressure": (0.0, 375.0),
    "Systolic blood pressure": (0.0, 375.0),
    "O2": (0.0, 100.0),
    "Respiratory rate": (0.0, 330.0),
    "Temperature": (14.2, 47.0),
    "Glucose": (0.0, 2200.0),
    "FiO2": (0.2, 100.0),
    "pH": (6.3, 10.0),
    "Height": (0.0, 275.0),
    "Weight": (0.0, 550.0),
    "Age": (0.0, 130.0),
}

#: Inclusive plausibility range of the patient table's offsets (unit
#: discharge and death, in minutes after unit admission): up to five years,
#: far past any ICU stay and its hospital follow-up.  A patient row with an
#: offset outside it is malformed.  int64 alone would keep an offset of
#: 2**63 - 1 minutes, whose remaining-LoS labels run to 6e15 days.
PATIENT_OFFSET_RANGE_MINUTES = (0, 5 * 365 * 24 * 60)

#: Stays longer than this are truncated when gridding (configurable).
DEFAULT_MAX_GRID_HOURS = 500

#: Recorded ages above 89 are masked in the source data; this sentinel keeps
#: the channel numeric.
MASKED_AGE_SENTINEL = 90.0


class Task(str, Enum):
    MORTALITY = "mortality"
    LOS = "los"
    PHENOTYPING = "phenotyping"
    DECOMPENSATION = "decompensation"


class DischargeStatus(str, Enum):
    ALIVE = "alive"
    EXPIRED = "expired"
    MISSING = "missing"


def normal_values(overrides: Mapping[str, object] | None = None) -> np.ndarray:
    """The 13 imputation targets in NUMERICAL_VARIABLES order, float64.

    ``overrides`` replaces individual defaults.  A value is text read by the
    rule of parse_float, or a JSON number read by json_number, inside its
    VALID_RANGES entry, so imputation never fills in a value that ingestion
    would read as unobserved.  Any other value, and a key that is not a
    numerical variable, is a ConfigError, so typos in config files fail
    loudly.
    """
    normals = dict(DEFAULT_NORMAL_VALUES)
    for name, value in (overrides or {}).items():
        if name not in normals:
            raise ConfigError(f"normal value given for unknown variable {name!r}")
        normals[name] = parse_value(value) if isinstance(value, str) else json_number(value)
        low, high = VALID_RANGES[name]
        if not low <= normals[name] <= high:   # NaN, from any value that is not a finite number, fails too
            raise ConfigError(f"normal value of {name!r} must be a number in [{low:g}, {high:g}], got {value!r}")
    return np.array([normals[name] for name in NUMERICAL_VARIABLES])


def read_normal_values(path) -> np.ndarray:
    """normal_values() with the overrides of a {variable name: value} JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:   # ValueError covers JSON and UTF-8 decoding errors
        raise ConfigError(f"cannot read normal values from {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object of variable name -> value")
    try:
        return normal_values(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_age(text: str) -> float:
    """An age cell read like any value (parse_value); a masked age, '>' then text that reads as 89,
    is the 90 sentinel, and any other text after '>' is NaN."""
    stripped = text.strip()
    if stripped.startswith(">"):
        return MASKED_AGE_SENTINEL if parse_value(stripped[1:]) == 89 else math.nan
    return parse_value(text)


def parse_value(text: str) -> float:
    """A measurement's number, or NaN.  The number rule of every id, offset and value cell: ASCII
    text without ``_`` (so not ``1_0.5`` or ``７``) that int() or float() reads; a sign, an exponent
    and surrounding whitespace are accepted."""
    if "_" in text or not text.isascii():
        return math.nan
    try:
        value = float(text)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


def parse_int(text: str, name: str = "number") -> int:
    """An integer by the number rule of parse_value, as int() reads it; ValueError naming ``name``
    for text with ``_`` or a non-ASCII character, and for text that int() does not read."""
    if "_" in text or not text.isascii():
        raise ValueError(f"{name} {text!r} is not an ASCII integer")
    return int(text)


def parse_float(text: str, name: str = "value") -> float:
    """A finite number by the rule of parse_value; ValueError naming ``name`` for any other text."""
    if math.isnan(value := parse_value(text)):
        raise ValueError(f"{name} {text!r} is not a finite ASCII number")
    return value


def json_number(value) -> float:
    """A JSON value's number, or NaN: an int or a float, not a bool, that is finite as a float (JSON reads
    1e400 as inf, and an int is compared exactly, so one too large for a float is NaN, not rounded)."""
    finite = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return float(value) if finite else math.nan


def grid_hours(unit_discharge_offset_minutes: int, max_hours: int = DEFAULT_MAX_GRID_HOURS) -> int:
    """Number of hourly rows for a stay: ceil(offset/60), clipped at max_hours."""
    return min(-(-int(unit_discharge_offset_minutes) // 60), int(max_hours))


@dataclass(frozen=True, eq=False)
class StayTable:
    """Measurement rows as columns, sorted stably by (stay, offset).

    ``variable`` is the row's index into VARIABLES and ``value`` its parsed
    number (parse_value).  ``code`` interns a categorical row's stripped
    text as an index into ``strings``, whose entry 0 is UNKNOWN; it is -1
    for a numerical row and for blank text.
    """

    stay: np.ndarray       # int64
    offset: np.ndarray     # int64 minutes since unit admission
    variable: np.ndarray   # int8
    value: np.ndarray      # float64
    code: np.ndarray       # int32
    strings: tuple[str, ...]

    def rows(self, stay_id: int) -> StayTable:
        """One stay's rows (views into these columns), in offset order."""
        lo, hi = np.searchsorted(self.stay, stay_id), np.searchsorted(self.stay, stay_id, side="right")
        return StayTable(self.stay[lo:hi], self.offset[lo:hi], self.variable[lo:hi], self.value[lo:hi],
                         self.code[lo:hi], self.strings)


@dataclass(frozen=True)
class StayMeta:
    """Administrative and demographic fields of one unit stay."""

    stay_id: int
    patient_id: int
    age: float
    gender: str
    ethnicity: str
    admission_diagnosis: str
    hospital_discharge_status: DischargeStatus
    unit_discharge_offset_minutes: int
    death_offset_minutes: Optional[int] = None

    def __post_init__(self):
        if self.death_offset_minutes is not None and self.hospital_discharge_status != DischargeStatus.EXPIRED:
            raise ConfigError(
                f"stay {self.stay_id}: death offset present but discharge status is "
                f"{self.hospital_discharge_status.value}"
            )

    @property
    def unit_los_days(self) -> float:
        return self.unit_discharge_offset_minutes / 1440.0


@dataclass(frozen=True, eq=False)
class HourlyGrid:
    """Hourly matrix of one stay or of stacked stays: one row per hour.

    ``numeric`` is float64 [hours x 13] (NaN = unobserved before
    imputation).  ``codes`` is int32 [hours x 7] of indices into the
    StayTable's strings (-1 = unobserved before imputation);
    preprocessing.encode_categoricals maps them to a fold's vocabularies.
    """

    numeric: np.ndarray
    codes: np.ndarray


class TaskInstance(NamedTuple):
    """One supervised example: the half-open hour window [start, end) plus its label.

    ``label`` is a float for binary and remaining-LoS tasks, and a 25-long
    uint8 mask for phenotyping.
    """

    stay_id: int
    start: int
    end: int
    label: object
