"""The expected shape of a run, derived from the dump's CSV files alone.

This is the correctness fingerprint of a workload: without importing
icubench, it re-derives which stays enter the base cohort, which become
task instances, how patients fall into folds, and how oversampling sizes
each training side.  A run whose report disagrees dropped or duplicated
work.  It relies on what the synthetic generator guarantees: every
measurement row is a schema variable with an integer offset, and patient
ids are digits.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from pathlib import Path

import numpy as np

MIN_RECORDS = 15
ADULT_AGE_EXCLUSIVE = 18.0
MASKED_AGE = 90.0
MIN_MORTALITY_STAY_MINUTES = 48 * 60
MAX_GRID_HOURS = 500
FOLD_SALT = 0xF01D
HORIZON = {"mortality24": 24, "mortality48": 48}


def _age(text: str) -> float:
    text = text.strip()
    if text.startswith(">"):
        return MASKED_AGE
    try:
        return float(text)
    except ValueError:
        return math.nan


def _read(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _record_counts(dump: Path) -> Counter:
    counts: Counter = Counter()
    for name in ("lab.csv", "nurseCharting.csv"):
        with open(dump / name, encoding="utf-8") as fh:
            next(fh)
            counts.update(line.split(",", 1)[0] for line in fh)
    return counts


def _instances(dump: Path, task: str, base: dict[str, dict]) -> dict[str, float | None]:
    """Stay id -> binary label (None for phenotyping) for every task instance."""
    if task in HORIZON:
        out = {}
        for sid, row in base.items():
            status = row["hospitaldischargestatus"].strip().lower()
            minutes = int(row["unitdischargeoffset"])
            if status not in ("alive", "expired") or minutes < MIN_MORTALITY_STAY_MINUTES:
                continue
            if min(-(-minutes // 60), MAX_GRID_HOURS) < HORIZON[task]:
                continue
            out[sid] = 1.0 if status == "expired" else 0.0
        return out
    if task != "phenotyping":
        raise ValueError(f"no fingerprint for task {task!r}")
    mapped = {row["icd9code"].strip().upper() for row in _read(dump / "phenotype_map.csv")}
    out = {}
    for row in _read(dump / "diagnosis.csv"):
        sid = row["patientunitstayid"]
        codes = {c.strip().upper() for c in row["icd9code"].split(",")}
        if sid in base and codes & mapped:
            out[sid] = None
    return out


def fingerprint(dump, task: str, folds: int, seed: int) -> dict:
    """Base-cohort size, instance count and per-fold [n_train, n_test]."""
    dump = Path(dump)
    records = _record_counts(dump)
    base = {
        row["patientunitstayid"]: row
        for row in _read(dump / "patient.csv")
        if _age(row["age"]) > ADULT_AGE_EXCLUSIVE and records[row["patientunitstayid"]] >= MIN_RECORDS
    }
    labels = _instances(dump, task, base)
    patient_of = {sid: int(base[sid]["uniquepid"]) for sid in labels}
    patients = sorted(set(patient_of.values()))
    order = np.random.default_rng((seed, FOLD_SALT)).permutation(len(patients))
    fold_of = {patients[idx]: pos % folds for pos, idx in enumerate(order)}

    per_fold = []
    for fold in range(folds):
        train = [labels[sid] for sid in labels if fold_of[patient_of[sid]] != fold]
        n_test = len(labels) - len(train)
        n_train = len(train)
        if task in HORIZON:
            positives = sum(1 for label in train if label == 1.0)
            negatives = n_train - positives
            if positives and negatives:
                n_train = 2 * max(positives, negatives)
        per_fold.append([n_train, n_test])
    return {"base_stays": len(base), "instances": len(labels), "folds": per_fold}
