"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The learnability check
(criterion 7) trains the sequence model at full scale and takes a few
minutes; everything else is fast.
"""

import math
import os
import time

import numpy as np
import pytest

from _reference import (
    ref_auprc_rank_enum,
    ref_auroc_pairs,
    ref_bin,
    ref_operating_sweep,
    ref_permutation_pvalue,
)
from icubench.cohort import build_los_instances, select_base_cohort
from icubench.evaluation import (
    aggregate_folds,
    auprc,
    auroc,
    operating_point,
    regression_metrics,
    t_test,
)
from icubench.experiment import ExperimentConfig, report_json, run_experiment
from icubench.ingestion import LAB, load_dataset, stay_table
from icubench.neural import bce_loss, build_model, grad_check
from icubench.preprocessing import bin_hourly, build_stay_grid, build_vocabs, encode_categoricals
from icubench.schema import (
    CATEGORICAL_VARIABLES,
    NUMERICAL_VARIABLES,
    VALID_RANGES,
    DischargeStatus,
    StayMeta,
    Task,
    normal_values,
)
from icubench.synth import SynthConfig, generate
from test_evaluation import random_scored_instance

NORMALS = normal_values()


def check(criterion, description, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"[criterion {criterion:>2}] {status}  {description}  {detail}".rstrip())
    assert condition, f"criterion {criterion}: {description} {detail}"


VOCAB_SIZES = {"A": 4, "B": 3, "C": 5, "D": 4, "E": 3, "F": 3, "G": 6}


def _batch(rng, task, T=6, B=4):
    num = rng.normal(size=(B, T, len(NUMERICAL_VARIABLES)))
    cat = np.stack([rng.integers(0, s, size=(B, T)) for s in VOCAB_SIZES.values()], axis=-1)
    if task == Task.PHENOTYPING:
        labels = (rng.random((B, 25)) < 0.4).astype(float)
    elif task == Task.LOS:
        labels = rng.uniform(0.0, 3.0, size=B)
    else:
        labels = np.array([1.0, 0.0] * (B // 2))
    return num, cat, labels


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for kind in ("lr", "ann", "bilstm"):
        for task in (Task.MORTALITY, Task.LOS, Task.PHENOTYPING, Task.DECOMPENSATION):
            rng = np.random.default_rng(100)
            model = build_model(kind, task, rng, vocab_sizes=VOCAB_SIZES, hidden=8, ann_hidden=12)
            result = grad_check(model, _batch(rng, task), n_coords=200, rng=np.random.default_rng(7))
            worst = max(worst, result.max_rel_error)
            checked += result.n_checked
    elapsed = time.perf_counter() - started
    check(1, "gradient check, 3 models x 4 heads", worst < 1e-4 and elapsed < 60.0,
          f"(max rel err {worst:.2e}, {checked} coords, {elapsed:.1f} s)")


def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.default_rng(2024)
    max_gap = 0.0
    for _ in range(500):
        scores, labels = random_scored_instance(rng)
        max_gap = max(max_gap, abs(auroc(scores, labels) - ref_auroc_pairs(scores, labels)))
    op_ok = True
    for _ in range(200):
        scores, labels = random_scored_instance(rng, n_max=100)
        point = operating_point(scores, labels)
        threshold, sens, spec, _, _ = ref_operating_sweep(list(scores), list(labels))
        op_ok &= point.threshold == threshold and abs(point.specificity - spec) < 1e-12
    ap_gap = 0.0
    for _ in range(100):
        scores, labels = random_scored_instance(rng, n_max=60)
        ap_gap = max(ap_gap, abs(auprc(scores, labels) - ref_auprc_rank_enum(list(scores), list(labels))))
    check(2, "sort-based metrics match brute-force oracles",
          max_gap < 1e-12 and op_ok and ap_gap < 1e-12,
          f"(auroc gap {max_gap:.1e}, auprc gap {ap_gap:.1e})")


def test_criterion_3_closed_forms():
    auroc_ok = auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    bce, _ = bce_loss(np.array([0.5]), np.array([1.0]))
    bce_ok = abs(bce - math.log(2.0)) < 1e-12
    _, hw = aggregate_folds([1.0, 2.0, 3.0, 4.0, 5.0])
    agg_ok = abs(hw - 1.963) <= 1e-3
    targets = np.array([1.0, 2.0, 3.0, 6.0])
    r2_ok = regression_metrics(np.full(4, targets.mean()), targets)["r2"] == 0.0
    check(3, "closed-form metric values", auroc_ok and bce_ok and agg_ok and r2_ok,
          f"(ci half-width {hw:.6f})")


def test_criterion_4_ohe_embedding_bitwise(tmp_path):
    data = tmp_path / "data"
    generate(SynthConfig(n_patients=120, hours_range=(49, 55), seed=41, signal_strength=1.0), data)
    reports = []
    for encoding, init in (("ohe", "random"), ("embedding", "identity")):
        cfg = ExperimentConfig(task="mortality24", model="bilstm", encoding=encoding,
                               embed_init=init, embed_frozen=True, hidden=8, epochs=2,
                               folds=2, seed=3, zscore=True,
                               data_dir=str(data), out_dir=str(tmp_path / encoding))
        reports.append(run_experiment(cfg))
    identical = all(
        np.array_equal(sa, sb) and np.array_equal(la, lb)
        for (sa, la), (sb, lb) in zip(reports[0].fold_scores, reports[1].fold_scores)
    )
    check(4, "one-hot vs identity-frozen embedding predictions bitwise identical", identical)


def test_criterion_5_preprocessing_completeness(tmp_path):
    data = tmp_path / "data"
    generate(SynthConfig(n_patients=1000, hours_range=(5, 30), missingness=0.30, seed=19), data)
    dataset = load_dataset(data)
    base = select_base_cohort(list(dataset.metas.values()), dataset.record_counts)
    vocabs = build_vocabs(dataset.table, dataset.metas)
    complete = True
    for sid in base.included:
        grid = build_stay_grid(dataset.metas[sid], dataset.table.rows(sid), NORMALS)
        encoded = encode_categoricals(grid, vocabs)
        complete &= bool(np.all(np.isfinite(grid.numeric)))
        complete &= bool(np.all(grid.codes >= 0))
        for k, name in enumerate(CATEGORICAL_VARIABLES):
            vocab_size = len(vocabs.values[name])
            complete &= bool(np.all((encoded[:, k] >= 0) & (encoded[:, k] < vocab_size)))

    rng = np.random.default_rng(55)
    num_index = {n: i for i, n in enumerate(NUMERICAL_VARIABLES)}
    cat_index = {n: i for i, n in enumerate(CATEGORICAL_VARIABLES)}
    variables = ["Heart rate", "pH", "Glasgow Coma Score Total"]
    bin_ok = True
    for _ in range(10_000):
        n_hours = int(rng.integers(1, 4))
        triples = []
        for _ in range(int(rng.integers(0, 18))):
            var = variables[rng.integers(0, 3)]
            offset = int(rng.integers(-20, n_hours * 60 + 20))
            value = ("bad" if rng.random() < 0.2 else f"{rng.normal(80, 10):.1f}") \
                if var != "Glasgow Coma Score Total" else str(rng.integers(3, 16))
            triples.append((var, offset, value))
        triples.sort(key=lambda t: t[1])
        table, _ = stay_table([], {LAB: [(1, o, v, val) for v, o, val in triples]})
        grid = bin_hourly(table, n_hours)
        ref_num, ref_cat = ref_bin(triples, n_hours, VALID_RANGES, set(CATEGORICAL_VARIABLES))
        for (hour, name), value in ref_num.items():
            bin_ok &= abs(grid.numeric[hour, num_index[name]] - value) < 1e-12
        bin_ok &= int((~np.isnan(grid.numeric)).sum()) == len(ref_num)   # the observed mask
        for (hour, name), value in ref_cat.items():
            bin_ok &= table.strings[grid.codes[hour, cat_index[name]]] == value
    check(5, "imputation completeness on 1,000 stays and 10,000-set binning oracle",
          complete and bin_ok, f"({len(base.included)} gridded stays)")


def test_criterion_6_schedule_law():
    law_ok = True
    for hours in range(1, 130):
        meta = StayMeta(stay_id=1, patient_id=1, age=50.0, gender="Female", ethnicity="Other",
                        admission_diagnosis="Sepsis", hospital_discharge_status=DischargeStatus.ALIVE,
                        unit_discharge_offset_minutes=hours * 60)
        grid = build_stay_grid(meta, stay_table([meta], {})[0], NORMALS)
        for inst in build_los_instances({1: grid}, {1: meta}):
            law_ok &= inst.end - inst.start == 12 and (inst.end - 12) % 6 == 0 and inst.end < hours

    meta30 = StayMeta(stay_id=2, patient_id=2, age=50.0, gender="Female", ethnicity="Other",
                      admission_diagnosis="Sepsis", hospital_discharge_status=DischargeStatus.ALIVE,
                      unit_discharge_offset_minutes=30 * 60)
    insts = build_los_instances({2: build_stay_grid(meta30, stay_table([meta30], {})[0], NORMALS)}, {2: meta30})
    points = [i.end for i in insts]
    labels = [i.label for i in insts]
    example_ok = points == [12, 18, 24] and np.allclose(labels, [0.75, 0.50, 0.25])
    check(6, "12-hour windows on the 6-hour schedule; 30 h stay example", law_ok and example_ok,
          f"(points {points}, labels {labels})")


@pytest.fixture(scope="module")
def learnability_dumps(tmp_path_factory):
    root = tmp_path_factory.mktemp("learn")
    generate(SynthConfig(n_patients=2000, hours_range=(49, 60), seed=7, signal_strength=1.5), root / "signal")
    generate(SynthConfig(n_patients=2000, hours_range=(49, 60), seed=7, signal_strength=0.0), root / "null")
    return root


def test_criterion_7_learnability(learnability_dumps, tmp_path):
    started = time.perf_counter()

    def run(model, data, seed=1):
        cfg = ExperimentConfig(task="mortality24", model=model, data_dir=str(learnability_dumps / data),
                               out_dir=str(tmp_path / f"{model}_{data}"), folds=5, seed=seed,
                               epochs=10, zscore=True)
        return run_experiment(cfg)

    bilstm = run("bilstm", "signal")
    lr = run("lr", "signal")
    null = run("bilstm", "null")
    elapsed = time.perf_counter() - started

    bilstm_auroc = bilstm.aggregate_mean["auroc"]
    lr_auroc = lr.aggregate_mean["auroc"]
    null_auroc = null.aggregate_mean["auroc"]
    check(7, "planted-signal learnability",
          bilstm_auroc >= 0.85 and bilstm_auroc > lr_auroc and 0.45 <= null_auroc <= 0.55 and elapsed < 600.0,
          f"(bilstm {bilstm_auroc:.3f} vs lr {lr_auroc:.3f}; null {null_auroc:.3f}; {elapsed:.0f} s)")


def test_criterion_8_leak_freedom_and_determinism(small_dump, tmp_path):
    cfg = dict(task="decompensation", model="lr", data_dir=str(small_dump),
               out_dir=str(tmp_path / "o"), folds=3, epochs=2, seed=12, zscore=True)
    a = report_json(run_experiment(ExperimentConfig(**cfg)))
    b = report_json(run_experiment(ExperimentConfig(**cfg)))
    # patient-disjointness and train-only vocab provenance are asserted inside
    # run_experiment on every fold; both runs completing means they held.
    check(8, "runtime leak assertions held; same-seed report.json byte-identical", a == b,
          f"({len(a)} bytes)")


def test_criterion_9_statistics():
    rng = np.random.default_rng(31)
    agree = 0
    total = 100
    for i in range(total):
        shift = 0.0 if i % 2 == 0 else 2.5
        a = rng.normal(0.0, 1.0, 5).tolist()
        b = rng.normal(shift, 1.0, 5).tolist()
        welch = t_test(a, b).p < 0.05
        perm = ref_permutation_pvalue(a, b) < 0.05
        agree += welch == perm
    x = rng.normal(size=5).tolist()
    y = rng.normal(size=5).tolist()
    anti = t_test(x, y).t == -t_test(y, x).t
    check(9, "Welch t-test matches exact permutation oracle decisions", agree >= 95 and anti,
          f"(agreement {agree}/100)")


def test_criterion_10_real_data_reproduction():
    data_dir = os.environ.get("ICUBENCH_EICU_DIR")
    if not data_dir:
        print("[criterion 10] SKIP  real eICU-CRD cohort counts (set ICUBENCH_EICU_DIR to run)")
        pytest.skip("credentialed eICU-CRD data not available")
    dataset = load_dataset(data_dir)
    base = select_base_cohort(list(dataset.metas.values()), dataset.record_counts)
    included = {sid: dataset.metas[sid] for sid in base.included}
    expired = sum(1 for m in included.values() if m.hospital_discharge_status == DischargeStatus.EXPIRED)
    rate = expired / len(included)

    grids = {sid: build_stay_grid(dataset.metas[sid], dataset.table.rows(sid), NORMALS)
             for sid in base.included}
    from icubench.cohort import build_decomp_instances, build_mortality_instances, build_phenotype_instances
    from icubench.phenotypes import PhenotypeCatalog

    mortality = {i.stay_id for i in build_mortality_instances(grids, included, 24)}
    los = {i.stay_id for i in build_los_instances(grids, included)}
    decomp = {i.stay_id for i in build_decomp_instances(grids, included)}
    counts_ok = (len(included) == 73_718 and len(mortality) == 30_680
                 and len(los) == 73_389 and len(decomp) == 55_933)
    pheno_ok = True
    map_path = os.environ.get("ICUBENCH_PHENOTYPE_MAP")
    if map_path:
        catalog = PhenotypeCatalog.from_file(map_path)
        pheno = {i.stay_id for i in build_phenotype_instances(grids, dataset.diagnoses, catalog)}
        pheno_ok = len(pheno) == 49_299
    check(10, "real-data cohort counts", counts_ok and pheno_ok and abs(rate - 0.0836) < 5e-4,
          f"(base {len(included)}, mortality rate {rate:.4f})")
