import dataclasses
import json
import shutil
import weakref

import numpy as np
import pytest

from icubench import experiment
from icubench.errors import ConfigError, IcubenchError
from icubench.experiment import (
    EvalReport,
    ExperimentConfig,
    _check,
    _stacked_windows,
    base_cohort,
    compare,
    config_from_sources,
    make_folds,
    parse_config_file,
    render_comparison,
    report_json,
    run_experiment,
    summarize_cohort,
    write_reports,
)
from icubench.ingestion import load_dataset
from icubench.phenotypes import PhenotypeCatalog
from icubench.schema import DischargeStatus, StayMeta, grid_hours, normal_values


class TestMakeFolds:
    def test_ten_patients_five_folds_of_two(self):
        folds = make_folds(list(range(10)), 5, seed=0)
        sizes = [list(folds.values()).count(f) for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_partition_laws(self):
        patients = list(range(23))
        folds = make_folds(patients, 5, seed=3)
        assert set(folds) == set(patients)
        sizes = [list(folds.values()).count(f) for f in range(5)]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        assert make_folds(list(range(40)), 4, seed=9) == make_folds(list(range(40)), 4, seed=9)

    def test_fewer_patients_than_folds(self):
        with pytest.raises(ConfigError):
            make_folds([1, 2], 3, seed=0)

    def test_stays_of_one_patient_share_a_fold(self):
        # fold assignment is per patient, so any number of stays inherit it
        folds = make_folds([10, 11, 12, 13], 2, seed=1)
        stays = [(100, 10), (101, 10), (102, 10), (103, 11)]
        assigned = {stay: folds[pid] for stay, pid in stays}
        assert assigned[100] == assigned[101] == assigned[102]


class TestConfig:
    def test_file_then_override(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("task=los\nfolds=3\nepochs=4\n# comment\nzscore=true\n", encoding="utf-8")
        cfg = config_from_sources(parse_config_file(cfg_file), folds=5)
        assert cfg.task == "los" and cfg.folds == 5 and cfg.epochs == 4 and cfg.zscore is True

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("task=los\nnot_a_key=1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            config_from_sources(parse_config_file(cfg_file))

    def test_bad_value_rejected(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("task=los\nfolds=three\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            config_from_sources(parse_config_file(cfg_file))

    def test_task_required(self):
        with pytest.raises(ConfigError):
            config_from_sources({})

    def test_invalid_choices(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task="nonsense")
        with pytest.raises(ConfigError):
            ExperimentConfig(task="los", folds=1)
        with pytest.raises(ConfigError):
            ExperimentConfig(task="mortality48", max_hours=40)

    @pytest.mark.parametrize("key, raw", [("learning_rate", "nan"), ("learning_rate", "inf"),
                                          ("learning_rate", "-0.1"), ("embed_dim_cap", "0"),
                                          ("embed_dim_cap", "-3"), ("epochs", "1_0"), ("folds", "３"),
                                          ("learning_rate", "1_0.5")])
    def test_invalid_numbers(self, key, raw):
        # unchecked, nan and inf give null metrics, -0.1 gradient ascent, and 0 or -3 a crash (exit 4);
        # int() and float() read 1_0, ３ and 1_0.5 as 10, 3 and 10.5
        with pytest.raises(ConfigError, match=key):
            config_from_sources({"task": "los", key: raw})

    def test_variable_subsets(self):
        cfg = ExperimentConfig(task="los", variables="numerical_only")
        assert cfg.use_numeric and not cfg.use_categorical
        cfg = ExperimentConfig(task="los", variables="categorical_only")
        assert cfg.use_categorical and not cfg.use_numeric


class TestRunExperiment:
    def _cfg(self, data_dir, tmp_path, **kw):
        defaults = dict(task="los", model="lr", data_dir=str(data_dir), out_dir=str(tmp_path / "out"),
                        folds=3, epochs=2, seed=5, zscore=True)
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_los_run_completes_with_stable_schema(self, small_dump, tmp_path):
        report = run_experiment(self._cfg(small_dump, tmp_path))
        assert len(report.fold_results) == 3
        for fold in report.fold_results:
            assert set(fold["metrics"]) == {"r2", "mae"}
        assert "r2" in report.aggregate_mean and "mae" in report.aggregate_mean

    def test_byte_identical_reports_for_same_seed(self, small_dump, tmp_path):
        a = report_json(run_experiment(self._cfg(small_dump, tmp_path)))
        b = report_json(run_experiment(self._cfg(small_dump, tmp_path)))
        assert a == b

    def test_report_does_not_depend_on_paths(self, small_dump, tmp_path):
        moved = shutil.copytree(small_dump, tmp_path / "elsewhere" / "data")
        a = report_json(run_experiment(self._cfg(small_dump, tmp_path, out_dir=str(tmp_path / "a"))))
        b = report_json(run_experiment(self._cfg(moved, tmp_path, out_dir=str(tmp_path / "b"))))
        assert a == b

    def test_different_seed_changes_folds(self, small_dump, tmp_path):
        a = run_experiment(self._cfg(small_dump, tmp_path, seed=5))
        b = run_experiment(self._cfg(small_dump, tmp_path, seed=6))
        assert report_json(a) != report_json(b)

    def test_decompensation_classification_keys(self, small_dump, tmp_path):
        report = run_experiment(self._cfg(small_dump, tmp_path, task="decompensation"))
        for fold in report.fold_results:
            assert set(fold["metrics"]) == {"auroc", "auprc", "specificity_at_sens90", "sensitivity", "ppv", "npv"}

    def test_phenotyping_runs_with_macro_metrics(self, small_dump, tmp_path):
        report = run_experiment(self._cfg(small_dump, tmp_path, task="phenotyping"))
        assert any(f["metrics"].get("auroc") is not None for f in report.fold_results)

    def test_mortality_oversample_bookkeeping(self, small_dump, tmp_path):
        report = run_experiment(self._cfg(small_dump, tmp_path, task="mortality24", folds=2))
        for fold in report.fold_results:
            assert fold["n_train"] >= fold["n_train_before_oversample"]

    def test_mortality_without_oversampling(self, small_dump, tmp_path):
        report = run_experiment(self._cfg(small_dump, tmp_path, task="mortality24", folds=2, oversample_train=False))
        for fold in report.fold_results:
            assert fold["n_train"] == fold["n_train_before_oversample"]
        assert not any("oversampling" in w for w in report.warnings)

    def test_write_reports(self, small_dump, tmp_path):
        report = run_experiment(self._cfg(small_dump, tmp_path))
        paths = write_reports(report, tmp_path / "out")
        doc = json.loads(paths["json"].read_text(encoding="utf-8"))
        assert doc["task"] == "los" and len(doc["folds"]) == 3
        assert "wall clock" in paths["text"].read_text(encoding="utf-8")
        assert "ingestion report" in paths["ingestion"].read_text(encoding="utf-8")
        assert "cohort report" in paths["cohort"].read_text(encoding="utf-8")

    def test_runtime_check_helper(self):
        with pytest.raises(IcubenchError):
            _check(False, "boom")

    def test_save_models_writes_loadable_checkpoints(self, small_dump, tmp_path):
        from icubench.neural.checkpoint import MAGIC

        cfg = self._cfg(small_dump, tmp_path, folds=2, save_models=True)
        run_experiment(cfg)
        ckpts = sorted((tmp_path / "out").glob("model_fold*.ckpt"))
        assert len(ckpts) == 2
        assert ckpts[0].read_bytes()[:4] == MAGIC

    def test_stay_table_is_released_before_training(self, small_dump, tmp_path, monkeypatch):
        # once the windows are stacked the folds read only a categorical index, not the raw rows
        tables, trained = [], []
        real_train = experiment.train_model

        def load(data_dir):
            dataset = load_dataset(data_dir)
            tables.append(weakref.ref(dataset.table))
            return dataset

        def train(*args, **kwargs):
            assert tables and tables[0]() is None, "the StayTable is still alive in training"
            trained.append(True)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(experiment, "load_dataset", load)
        monkeypatch.setattr(experiment, "train_model", train)
        run_experiment(self._cfg(small_dump, tmp_path, task="phenotyping", model="lr", folds=2, epochs=1))
        assert len(trained) == 2

    def _gridded_hours(self, small_dump, tmp_path, monkeypatch, task):
        """{stay id: hours gridded} of one run, read through the name experiment looks up."""
        gridded = {}
        real_grid = experiment.build_stay_grid

        def grid(rows, n_hours, normals):
            gridded[int(rows.stay[0])] = n_hours   # every stay has its demographic rows
            return real_grid(rows, n_hours, normals)

        monkeypatch.setattr(experiment, "build_stay_grid", grid)
        run_experiment(self._cfg(small_dump, tmp_path, task=task, folds=2, epochs=1))
        return gridded

    def test_mortality24_grids_24_hours_of_each_instance_stay(self, small_dump, tmp_path, monkeypatch):
        gridded = self._gridded_hours(small_dump, tmp_path, monkeypatch, "mortality24")
        dataset = load_dataset(small_dump)
        base, _ = base_cohort(dataset)
        qualifying = {sid for sid in base.included
                      if dataset.metas[sid].hospital_discharge_status != DischargeStatus.MISSING
                      and dataset.metas[sid].unit_discharge_offset_minutes >= 48 * 60}
        assert qualifying and set(gridded) == qualifying
        assert set(gridded.values()) == {24}

    def test_phenotyping_grids_no_stay_without_a_mappable_code(self, small_dump, tmp_path, monkeypatch):
        gridded = self._gridded_hours(small_dump, tmp_path, monkeypatch, "phenotyping")
        dataset = load_dataset(small_dump)
        base, _ = base_cohort(dataset)
        catalog = PhenotypeCatalog.from_file(small_dump / "phenotype_map.csv")
        mapped = {sid for sid in base.included if catalog.label_mask(dataset.diagnoses.get(sid, ())).any()}
        assert len(mapped) < len(base.included) and set(gridded) == mapped
        assert all(n == grid_hours(dataset.metas[sid].unit_discharge_offset_minutes) for sid, n in gridded.items())

    def test_dropout_config_trains(self, small_dump, tmp_path):
        report = run_experiment(self._cfg(small_dump, tmp_path, model="ann", dropout=0.2))
        assert report.aggregate_mean["mae"] is not None


class TestNormalizationLeak:
    @staticmethod
    def _edit_first_row(path, stay, name, value):
        """Set the value of ``stay``'s first ``name`` row in its first 12 hours (inside its first LoS window)."""
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for i, line in enumerate(lines[1:], start=1):
            sid, offset, variable, old = line.rstrip("\n").split(",")
            if int(sid) == stay and variable == name and 0 <= int(offset) < 12 * 60 and old != value:
                lines[i] = f"{sid},{offset},{variable},{value}\n"
                path.write_text("".join(lines), encoding="utf-8")
                return
        raise AssertionError(f"stay {stay} has no early {name} row")

    def test_one_test_stay_moves_no_other_test_score(self, small_dump, tmp_path):
        # Statistics and vocabularies come from training windows only, while test rows are
        # normalized inside the array they share with training rows: editing one test stay
        # (a numeric value, still in range, and a GCS text seen nowhere else) may move only its own scores.
        cfg = ExperimentConfig(task="los", model="lr", data_dir=str(small_dump), out_dir=str(tmp_path / "o"),
                               folds=3, epochs=1, seed=5, zscore=True)
        dataset = load_dataset(small_dump)
        base, _ = base_cohort(dataset)
        stays = _stacked_windows(cfg, dataset, base.included, normal_values())[0]
        fold_of = make_folds(sorted({dataset.metas[s].patient_id for s in stays.tolist()}), 3, 5)
        fold_of_stay = np.array([fold_of[dataset.metas[s].patient_id] for s in stays.tolist()])
        stay = int(stays[0])
        fold = fold_of_stay[0]

        edited = shutil.copytree(small_dump, tmp_path / "edited")
        self._edit_first_row(edited / "lab.csv", stay, "Glucose", "2000")
        self._edit_first_row(edited / "nurseCharting.csv", stay, "Glasgow Coma Score Total", "9.5")
        before = run_experiment(cfg).fold_scores[fold][0]
        after = run_experiment(dataclasses.replace(cfg, data_dir=str(edited))).fold_scores[fold][0]

        own = stays[fold_of_stay == fold] == stay
        assert own.sum() >= 1 and (~own).sum() >= 20
        assert np.array_equal(before[~own], after[~own])
        assert not np.array_equal(before[own], after[own])


class TestCompare:
    def test_self_comparison_not_significant(self, small_dump, tmp_path):
        cfg = ExperimentConfig(task="los", model="lr", data_dir=str(small_dump),
                               out_dir=str(tmp_path / "o"), folds=3, epochs=2, seed=5, zscore=True)
        report = run_experiment(cfg)
        rows = compare(report.to_dict(), report.to_dict())
        assert rows
        for _, row in rows:
            assert row.p == 1.0 and row.flag == "-"
        assert "metric" in render_comparison(rows)

    def test_fold_mismatch_rejected(self):
        a = {"task": "los", "seed": 1, "folds": [{}] * 3, "aggregate": {}}
        b = {"task": "los", "seed": 1, "folds": [{}] * 5, "aggregate": {}}
        with pytest.raises(ConfigError):
            compare(a, b)

    def test_task_mismatch_rejected(self):
        a = {"task": "los", "seed": 1, "folds": [], "aggregate": {}}
        b = {"task": "mortality24", "seed": 1, "folds": [], "aggregate": {}}
        with pytest.raises(ConfigError):
            compare(a, b)


class TestSummarizeCohort:
    def _meta(self, sid, status):
        return StayMeta(stay_id=sid, patient_id=sid, age=60.0, gender="Female", ethnicity="Other",
                        admission_diagnosis="Sepsis", hospital_discharge_status=status,
                        unit_discharge_offset_minutes=3000)

    def test_contains_strata_and_rows(self):
        metas = {i: self._meta(i, DischargeStatus.ALIVE) for i in range(4)}
        metas[9] = self._meta(9, DischargeStatus.EXPIRED)
        text = summarize_cohort(metas)
        assert "Dead at hospital" in text and "ICU stays" in text
        assert "Age, median [IQR]" in text

    def test_empty_stratum_rendered_as_dash(self):
        metas = {i: self._meta(i, DischargeStatus.ALIVE) for i in range(3)}
        text = summarize_cohort(metas)
        assert "—" in text
