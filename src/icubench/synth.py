"""Schema-compatible synthetic data dumps with a plantable outcome signal.

The generator writes the same four CSV tables ingestion consumes (plus a
phenotype code map) and is a pure function of its config: per-patient
substreams are seeded with (seed, patient_index), so runs are byte
identical and patients can be generated independently.

Each variable's rows are built from whole-array draws over the stay's
hours, in the order a row-at-a-time loop would draw them (numpy gives the
same stream for one ``size=n`` call as for n scalar calls).  The lab and
nurseCharting rows are written as ready CSV text, one write per table,
without ``csv.writer``: their cells are numbers, variable names and a
leading ``>``, never a comma, quote or newline, so the writer would not
quote them.  The patient and diagnosis tables hold quoted cells such as
``"Sepsis, pulmonary"`` and still go through ``csv.writer``.

Outcome signal, scaled by ``signal_strength`` and applied to patients who
die, has three parts: a whole-stay level shift on heart rate, respiratory
rate and blood pressure (sicker from admission), a mean-zero first-day
pattern on respiratory rate (low first 12 h, high next 12 h) that only
sequence models can exploit, and a deterioration ramp over the 24 hours
before death.  Glasgow Coma Score values drop along the same profile.
With ``signal_strength`` 0 every feature is independent of the outcome.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .ingestion import DIAGNOSIS, LAB, NURSECHARTING, PATIENT, TABLE_COLUMNS, TABLE_FILES
from .phenotypes import N_PHENOTYPES, PhenotypeCatalog
from .schema import DEFAULT_NORMAL_VALUES

VITAL_VARIABLES = (
    "Heart rate",
    "Mean arterial pressure",
    "Diastolic blood pressure",
    "Systolic blood pressure",
    "O2",
    "Respiratory rate",
    "Temperature",
)
LAB_VARIABLES = ("Glucose", "FiO2", "pH")
STATIC_VARIABLES = ("Height", "Weight")
GCS_VARIABLES = (
    "Glasgow Coma Score Total",
    "Glasgow Coma Score Eyes",
    "Glasgow Coma Score Motor",
    "Glasgow Coma Score Verbal",
)

_SPREAD = {
    "Heart rate": 12.0, "Mean arterial pressure": 10.0, "Diastolic blood pressure": 8.0,
    "Systolic blood pressure": 14.0, "O2": 1.8, "Respiratory rate": 3.2, "Temperature": 0.45,
    "Glucose": 35.0, "FiO2": 7.0, "pH": 0.05, "Height": 9.0, "Weight": 16.0,
}
_RANGE = {
    "Heart rate": (30, 190), "Mean arterial pressure": (35, 160), "Diastolic blood pressure": (25, 130),
    "Systolic blood pressure": (60, 230), "O2": (70, 100), "Respiratory rate": (5, 45),
    "Temperature": (33.0, 41.5), "Glucose": (40, 400), "FiO2": (21, 100), "pH": (6.9, 7.7),
    "Height": (140, 205), "Weight": (40, 180),
}
_DECIMALS = {
    "Heart rate": 0, "Mean arterial pressure": 0, "Diastolic blood pressure": 0,
    "Systolic blood pressure": 0, "O2": 0, "Respiratory rate": 0, "Temperature": 1,
    "Glucose": 0, "FiO2": 0, "pH": 2, "Height": 1, "Weight": 1,
}

# Direction and weight of each signal component per variable.
_LEVEL_SHIFT = {"Heart rate": +0.15, "Respiratory rate": +0.15, "Mean arterial pressure": -0.15}
_PATTERN_SHIFT = {"Respiratory rate": 0.75, "Heart rate": 0.35}
_RAMP_SHIFT = {"Heart rate": +0.75, "Respiratory rate": +0.75, "Mean arterial pressure": -0.5, "O2": -0.4}

_AR_COEF = 0.5
_LAB_EVERY_HOURS = 6
_SPARSE_RECORD_COUNT = 10

_GENDERS = ("Female", "Male")
_GENDER_P = (0.455, 0.545)
_ETHNICITIES = ("Caucasian", "African American", "Hispanic", "Asian", "Native American", "Other")
_ETHNICITY_P = (0.772, 0.108, 0.0398, 0.0159, 0.0056, 0.0587)
_ADMISSION_DX = (
    "Sepsis, pulmonary", "Cardiac arrest", "Shock, cardiogenic", "CHF, congestive heart failure",
    "CABG alone", "Pneumonia, bacterial", "CVA, cerebrovascular accident", "Trauma, multiple",
    "GI bleeding", "Diabetic ketoacidosis",
)
_ADMISSION_DX_P = (0.12, 0.06, 0.05, 0.12, 0.10, 0.13, 0.12, 0.10, 0.11, 0.09)
_SEVERE_DX = frozenset({"Sepsis, pulmonary", "Cardiac arrest", "Shock, cardiogenic"})

#: Marginal rate of phenotype category i in generated diagnosis tables.
PHENOTYPE_RATES = tuple(0.22 * 0.88 ** i + 0.01 for i in range(N_PHENOTYPES))
_CODES_PER_CATEGORY = 3
_UNMAPPED_CODES = ("999.0", "999.1", "999.2")


def synthetic_catalog() -> PhenotypeCatalog:
    """The code map the generator plants: 3 codes per category."""
    code_map = {}
    for i in range(N_PHENOTYPES):
        for j in range(_CODES_PER_CATEGORY):
            code_map[f"{100 + i}.{j}"] = i
    return PhenotypeCatalog(code_map=code_map)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of one synthetic dump."""

    n_patients: int
    hours_range: tuple[int, int] = (24, 72)
    missingness: float = 0.1
    mortality_rate: float = 0.083
    decomp_rate: float = 0.065
    signal_strength: float = 1.0
    seed: int = 0
    underage_fraction: float = 0.0
    sparse_fraction: float = 0.0
    multi_stay_fraction: float = 0.0

    def __post_init__(self):
        if self.n_patients <= 0:
            raise ConfigError("n_patients must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        lo, hi = self.hours_range
        if not (1 <= lo <= hi):
            raise ConfigError("hours_range must satisfy 1 <= min <= max")
        for name in ("missingness", "mortality_rate", "decomp_rate", "underage_fraction", "sparse_fraction",
                     "multi_stay_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.decomp_rate > self.mortality_rate:
            raise ConfigError("decomp_rate (unit deaths) cannot exceed mortality_rate (hospital deaths)")
        if self.signal_strength < 0:
            raise ConfigError("signal_strength must be >= 0")


def _ar1(rng, n: int, sigma: float) -> np.ndarray:
    noise = rng.normal(0.0, sigma * np.sqrt(1.0 - _AR_COEF**2), size=n).tolist()
    x = float(rng.normal(0.0, sigma))
    out = [x]
    for e in noise[1:]:
        x = _AR_COEF * x + e
        out.append(x)
    return np.array(out)


def _signal_profiles(n_hours: int, death_hour: float | None, strength: float):
    """(level, pattern, ramp) arrays over the stay, already scaled by strength."""
    level = np.full(n_hours, strength)
    hours = np.arange(n_hours)
    pattern = np.where(hours < 24, np.where(hours < 12, -1.0, 1.0), 0.0) * strength
    if death_hour is None:
        ramp = np.zeros(n_hours)
    else:
        ramp = np.clip(1.0 - (death_hour - hours) / 24.0, 0.0, 1.0) * strength
    return level, pattern, ramp


def _sample_gcs(rng, p_low: np.ndarray) -> dict[str, np.ndarray]:
    n = len(p_low)
    low = rng.random(n) < p_low
    values = {}
    total_high = rng.choice(np.arange(11, 16), size=n, p=(0.05, 0.06, 0.09, 0.2, 0.6))
    total_low = rng.integers(3, 9, size=n)
    values["Glasgow Coma Score Total"] = np.where(low, total_low, total_high)
    values["Glasgow Coma Score Eyes"] = np.where(low, rng.integers(1, 3, size=n), rng.integers(3, 5, size=n))
    values["Glasgow Coma Score Motor"] = np.where(low, rng.integers(1, 4, size=n), rng.integers(5, 7, size=n))
    values["Glasgow Coma Score Verbal"] = np.where(low, rng.integers(1, 3, size=n), rng.integers(4, 6, size=n))
    return values


def _generate_stay(cfg: SynthConfig, out: dict[str, list], rng, stay_id: int, patient_id: str,
                   underage: bool, sparse: bool, force_alive: bool) -> None:
    s = cfg.signal_strength
    n_hours = int(rng.integers(cfg.hours_range[0], cfg.hours_range[1] + 1))

    u = rng.random()
    dies_in_unit = (not force_alive) and u < cfg.decomp_rate
    dies_in_hospital = (not force_alive) and u < cfg.mortality_rate
    discharge_offset = n_hours * 60
    if dies_in_unit:
        death_offset = discharge_offset
        hospital_offset = discharge_offset
    elif dies_in_hospital:
        death_offset = discharge_offset + 720 + int(rng.exponential(2880))
        hospital_offset = death_offset
    else:
        death_offset = None
        hospital_offset = discharge_offset + int(rng.integers(0, 7 * 1440))

    if underage:
        age_text = str(int(rng.integers(16, 19)))
    elif rng.random() < 0.02:
        age_text = "> 89"
    else:
        age_text = str(int(rng.integers(19, 90)))

    gender = _GENDERS[rng.choice(2, p=_GENDER_P)]
    ethnicity = _ETHNICITIES[rng.choice(len(_ETHNICITIES), p=_ETHNICITY_P)]
    dx_w = np.array(_ADMISSION_DX_P)
    if dies_in_hospital:
        boost = np.array([1.0 + 0.2 * s if d in _SEVERE_DX else 1.0 for d in _ADMISSION_DX])
        dx_w = dx_w * boost
    dx = _ADMISSION_DX[rng.choice(len(_ADMISSION_DX), p=dx_w / dx_w.sum())]

    out[PATIENT].append([
        str(stay_id), patient_id, age_text, gender, ethnicity, dx,
        "Expired" if dies_in_hospital else "Alive",
        str(discharge_offset), str(hospital_offset),
    ])

    strength = s if dies_in_hospital else 0.0
    death_hour = (death_offset / 60.0) if death_offset is not None else None
    level, pattern, ramp = _signal_profiles(n_hours, death_hour, strength)

    vital_lines: list[str] = []
    lab_lines: list[str] = []
    for name in VITAL_VARIABLES + LAB_VARIABLES:
        sigma = _SPREAD[name]
        shift = (
            _LEVEL_SHIFT.get(name, 0.0) * level
            + _PATTERN_SHIFT.get(name, 0.0) * pattern
            + _RAMP_SHIFT.get(name, 0.0) * ramp
        ) * sigma
        series = np.clip(DEFAULT_NORMAL_VALUES[name] + _ar1(rng, n_hours, sigma) + shift, *_RANGE[name])
        is_lab = name in LAB_VARIABLES
        keep = rng.random(n_hours) >= cfg.missingness
        minutes = rng.integers(0, 60, size=n_hours)
        extra_draw = rng.random(n_hours)
        kept = np.flatnonzero(keep)
        if is_lab:
            kept = kept[kept % _LAB_EVERY_HOURS == 0]
        offsets = kept * 60 + minutes[kept]
        fmt = f"%.{_DECIMALS[name]}f"
        values = [fmt % v for v in series[kept].tolist()]
        for i in np.flatnonzero(extra_draw[kept] > 0.99).tolist():
            values[i] = ">" + values[i]  # censored entry, unparseable on purpose
        lines = [f"{stay_id},{offset},{name},{value}\n" for offset, value in zip(offsets.tolist(), values)]
        if not is_lab:
            # a second measurement in the same bin, written just before the main one; the later one must win
            twice = np.flatnonzero(extra_draw[kept] < 0.1)
            early = np.clip(series[kept[twice]] + rng.normal(0, sigma / 2, size=len(twice)), *_RANGE[name])
            early_offsets = np.maximum(offsets[twice] - 20, kept[twice] * 60)
            for i, offset, value in zip(twice.tolist(), early_offsets.tolist(), early.tolist()):
                lines[i] = f"{stay_id},{offset},{name},{fmt % value}\n" + lines[i]
        (lab_lines if is_lab else vital_lines).extend(lines)

    static_lines: list[str] = []
    for name in STATIC_VARIABLES:
        if rng.random() >= cfg.missingness:
            value = float(np.clip(rng.normal(DEFAULT_NORMAL_VALUES[name], _SPREAD[name]), *_RANGE[name]))
            offset = int(rng.integers(0, 30))
            static_lines.append(f"{stay_id},{offset},{name},{value:.{_DECIMALS[name]}f}\n")

    p_low = np.clip(0.05 + 0.12 * level + 0.35 * ramp + 0.18 * np.maximum(pattern, 0.0), 0.0, 0.92)
    gcs = _sample_gcs(rng, p_low)
    gcs_keep = {name: rng.random(n_hours) >= cfg.missingness for name in GCS_VARIABLES}
    gcs_minutes = rng.integers(0, 60, size=(len(GCS_VARIABLES), n_hours))
    gcs_lines: list[str] = []
    for gi, name in enumerate(GCS_VARIABLES):
        kept = np.flatnonzero(gcs_keep[name])
        offsets = kept * 60 + gcs_minutes[gi, kept]
        gcs_lines += [f"{stay_id},{offset},{name},{value}\n"
                      for offset, value in zip(offsets.tolist(), gcs[name][kept].tolist())]

    budget = _SPARSE_RECORD_COUNT
    for table, lines in ((NURSECHARTING, vital_lines), (LAB, lab_lines), (NURSECHARTING, static_lines),
                         (NURSECHARTING, gcs_lines)):
        text = "".join(lines)
        if sparse:  # a sparse stay keeps only its first rows, across the tables in this order
            text = "".join(text.splitlines(keepends=True)[:budget])
            budget -= text.count("\n")
        out[table].append(text)

    codes: list[str] = []
    draws = rng.random(N_PHENOTYPES)
    for i, rate in enumerate(PHENOTYPE_RATES):
        if draws[i] < rate:
            codes.append(f"{100 + i}.{int(rng.integers(0, _CODES_PER_CATEGORY))}")
    if rng.random() < 0.1:
        codes.append(_UNMAPPED_CODES[int(rng.integers(0, len(_UNMAPPED_CODES)))])
    if len(codes) >= 2 and rng.random() < 0.05:
        merged = f"{codes[0]}, {codes[1]}"
        codes = [merged] + codes[2:]
    for code in codes:
        out[DIAGNOSIS].append([str(stay_id), code])


def generate(cfg: SynthConfig, out_dir) -> dict[str, Path]:
    """Write one synthetic dump; returns the table name -> path mapping."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    layout_rng = np.random.default_rng((cfg.seed, 0))
    order = layout_rng.permutation(cfg.n_patients)
    k_under = int(round(cfg.n_patients * cfg.underage_fraction))
    k_sparse = int(round(cfg.n_patients * cfg.sparse_fraction))
    k_multi = int(round(cfg.n_patients * cfg.multi_stay_fraction))
    underage = set(order[:k_under].tolist())
    sparse = set(order[k_under:k_under + k_sparse].tolist())
    multi = set(order[k_under + k_sparse:k_under + k_sparse + k_multi].tolist())

    # patient and diagnosis rows are cell lists for csv.writer; lab and nurseCharting hold finished CSV text
    out: dict[str, list] = {table: [] for table in TABLE_FILES}
    for i in range(cfg.n_patients):
        rng = np.random.default_rng((cfg.seed, 1, i))
        patient_id = str(1000 + i)
        _generate_stay(cfg, out, rng, stay_id=100000 + i, patient_id=patient_id,
                       underage=i in underage, sparse=i in sparse, force_alive=False)
        if i in multi:
            rng2 = np.random.default_rng((cfg.seed, 2, i))
            _generate_stay(cfg, out, rng2, stay_id=500000 + i, patient_id=patient_id,
                           underage=i in underage, sparse=False, force_alive=True)

    paths = {table: out_dir / name for table, name in TABLE_FILES.items()}
    for table, path in paths.items():
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(TABLE_COLUMNS[table])
            if table in (LAB, NURSECHARTING):
                fh.write("".join(out[table]))
            else:
                writer.writerows(out[table])
    paths["phenotype_map"] = out_dir / "phenotype_map.csv"
    synthetic_catalog().to_file(paths["phenotype_map"])
    return paths
