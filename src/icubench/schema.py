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
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError

NUMERICAL = "numerical"
CATEGORICAL = "categorical"

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


@dataclass(frozen=True)
class VariableSpec:
    """One schema entry: a numerical channel or a categorical vocabulary."""

    name: str
    kind: str
    normal_value: Optional[float] = None
    vocab: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.kind not in (NUMERICAL, CATEGORICAL):
            raise ConfigError(f"unknown variable kind {self.kind!r}")
        if self.kind == NUMERICAL and not math.isfinite(self.normal_value or math.nan):
            raise ConfigError(f"numerical variable {self.name!r} needs a finite normal value")
        if self.vocab is not None and (not self.vocab or self.vocab[0] != UNKNOWN):
            raise ConfigError(f"vocab of {self.name!r} must start with {UNKNOWN!r}")

    @property
    def vocab_size(self) -> int:
        if self.vocab is None:
            raise ConfigError(f"variable {self.name!r} has no vocabulary populated")
        return len(self.vocab)


def canonical_schema(normal_values: Mapping[str, float] | None = None) -> list[VariableSpec]:
    """The fixed 20-spec schema: 13 numerical entries, then 7 categorical.

    ``normal_values`` overrides individual imputation targets; unknown keys
    are rejected so typos in config files fail loudly.
    """
    normals = dict(DEFAULT_NORMAL_VALUES)
    if normal_values:
        bad = set(normal_values) - set(NUMERICAL_VARIABLES)
        if bad:
            raise ConfigError(f"normal values given for unknown variables: {sorted(bad)}")
        normals.update({k: float(v) for k, v in normal_values.items()})
    specs = [VariableSpec(name, NUMERICAL, normal_value=normals[name]) for name in NUMERICAL_VARIABLES]
    specs += [VariableSpec(name, CATEGORICAL) for name in CATEGORICAL_VARIABLES]
    return specs


def categorical_specs(schema: Sequence[VariableSpec]) -> list[VariableSpec]:
    return [s for s in schema if s.kind == CATEGORICAL]


def total_ohe_width(schema: Sequence[VariableSpec]) -> int:
    """Sum of vocabulary sizes over the categorical variables (one-hot width)."""
    cats = categorical_specs(schema)
    if any(s.vocab is None for s in cats):
        raise ConfigError("schema has unpopulated vocabularies; build them from training data first")
    return sum(s.vocab_size for s in cats)


def apply_vocabs(schema: Sequence[VariableSpec], vocabs: Mapping[str, Sequence[str]]) -> list[VariableSpec]:
    """Return a new schema with the given vocabularies attached."""
    out = []
    for s in schema:
        if s.kind == CATEGORICAL:
            if s.name not in vocabs:
                raise ConfigError(f"no vocabulary supplied for {s.name!r}")
            out.append(replace(s, vocab=tuple(vocabs[s.name])))
        else:
            out.append(s)
    return out


def read_normal_values(path) -> dict[str, float]:
    """Read a {variable name: normal value} JSON override table."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object of variable name -> value")
    return {str(k): float(v) for k, v in doc.items()}


def parse_age(text: str) -> float:
    """Parse an age cell; masked '> 89' entries collapse to the 90 sentinel."""
    text = text.strip()
    if not text:
        return math.nan
    if text.startswith(">"):
        return MASKED_AGE_SENTINEL
    try:
        return float(text)
    except ValueError:
        return math.nan


def parse_value(text: str) -> float:
    """A measurement's number, or NaN when the text is not a finite float."""
    try:
        value = float(text)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


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
    """Per-stay hourly matrix: one row per hour since unit admission.

    ``numeric`` is float64 [n_hours x 13] (NaN = unobserved before
    imputation).  ``codes`` is int32 [n_hours x 7] of indices into the
    StayTable's strings (-1 = unobserved before imputation);
    preprocessing.encode_categoricals maps them to a fold's vocabularies.
    """

    stay_id: int
    numeric: np.ndarray
    codes: np.ndarray

    @property
    def n_hours(self) -> int:
        return self.numeric.shape[0]


@dataclass(frozen=True, eq=False)
class TaskInstance:
    """One supervised example: a half-open hour window plus its label.

    ``label`` is a float for binary and remaining-LoS tasks, and a 25-long
    uint8 mask for phenotyping.
    """

    stay_id: int
    start: int
    end: int
    task: Task
    label: object

    def __post_init__(self):
        if not self.end > self.start >= 0:
            raise ConfigError(f"stay {self.stay_id}: empty or negative window [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start
