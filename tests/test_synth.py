import csv

import numpy as np
import pytest

from icubench.cohort import select_base_cohort
from icubench.errors import ConfigError
from icubench.ingestion import load_dataset
from icubench.neural import build_model, train_model
from icubench.neural.training import InstanceGroup
from icubench.preprocessing import build_stay_grid
from icubench.schema import DischargeStatus, Task, normal_values
from icubench.synth import PHENOTYPE_RATES, SynthConfig, generate, synthetic_catalog


def read_all(paths):
    return {name: p.read_bytes() for name, p in paths.items()}


class TestDeterminismAndValidity:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = SynthConfig(n_patients=40, hours_range=(10, 30), seed=1)
        a = read_all(generate(cfg, tmp_path / "a"))
        b = read_all(generate(cfg, tmp_path / "b"))
        assert a == b

    def test_different_seed_differs(self, tmp_path):
        a = read_all(generate(SynthConfig(n_patients=40, seed=1), tmp_path / "a"))
        b = read_all(generate(SynthConfig(n_patients=40, seed=2), tmp_path / "b"))
        assert a != b

    def test_parses_with_zero_skipped_rows(self, small_dump):
        dataset = load_dataset(small_dump)
        assert dataset.report.rows_malformed == {}
        assert dataset.report.rows_unmapped_variable == {}
        assert len(dataset.metas) == 150

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_patients=0)
        with pytest.raises(ConfigError):
            SynthConfig(n_patients=10, hours_range=(0, 5))
        with pytest.raises(ConfigError):
            SynthConfig(n_patients=10, mortality_rate=1.5)
        with pytest.raises(ConfigError):
            SynthConfig(n_patients=10, mortality_rate=0.05, decomp_rate=0.10)


class TestRates:
    def test_mortality_rate_within_binomial_bounds(self, tmp_path):
        generate(SynthConfig(n_patients=10_000, hours_range=(6, 14), seed=5), tmp_path / "d")
        dataset = load_dataset(tmp_path / "d")
        expired = sum(1 for m in dataset.metas.values() if m.hospital_discharge_status == DischargeStatus.EXPIRED)
        rate = expired / len(dataset.metas)
        assert 0.075 <= rate <= 0.091  # 99% binomial interval around 0.083

    def test_unit_deaths_have_death_at_discharge(self, small_dump):
        dataset = load_dataset(small_dump)
        for m in dataset.metas.values():
            if m.death_offset_minutes is not None:
                assert m.death_offset_minutes >= m.unit_discharge_offset_minutes

    def test_phenotype_prevalence_matches_configured_rates(self, tmp_path):
        generate(SynthConfig(n_patients=3000, hours_range=(5, 10), seed=9), tmp_path / "d")
        dataset = load_dataset(tmp_path / "d")
        catalog = synthetic_catalog()
        counts = np.zeros(25)
        for codes in dataset.diagnoses.values():
            counts += catalog.label_mask(codes)
        n = len(dataset.metas)
        for i, rate in enumerate(PHENOTYPE_RATES):
            sd = np.sqrt(rate * (1 - rate) / n)
            assert abs(counts[i] / n - rate) < 4.5 * sd + 1e-9


class TestRoundTrip:
    def test_exclusion_counts_exactly_predictable(self, tmp_path):
        cfg = SynthConfig(n_patients=200, hours_range=(20, 40), seed=3,
                          underage_fraction=0.10, sparse_fraction=0.10)
        generate(cfg, tmp_path / "d")
        dataset = load_dataset(tmp_path / "d")
        report = select_base_cohort(list(dataset.metas.values()), dataset.record_counts)
        assert report.excluded["age <= 18"] == 20
        assert report.excluded["fewer than 15 records"] == 20
        assert len(report.included) == 160

    def test_infinite_age_fails_the_adult_rule(self, tmp_path):
        generate(SynthConfig(n_patients=30, hours_range=(20, 40), seed=3), tmp_path / "d")
        path = tmp_path / "d" / "patient.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        rows[0][header.index("age")] = "inf"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        dataset = load_dataset(tmp_path / "d")
        report = select_base_cohort(list(dataset.metas.values()), dataset.record_counts)
        assert report.excluded["age <= 18"] == 1   # no other stay is underage
        assert int(rows[0][header.index("patientunitstayid")]) not in report.included

    def test_multi_stay_patients_share_patient_id(self, tmp_path):
        cfg = SynthConfig(n_patients=60, hours_range=(10, 20), seed=3, multi_stay_fraction=0.2)
        generate(cfg, tmp_path / "d")
        dataset = load_dataset(tmp_path / "d")
        assert len(dataset.metas) == 72
        by_patient = {}
        for m in dataset.metas.values():
            by_patient.setdefault(m.patient_id, []).append(m.stay_id)
        assert sum(1 for stays in by_patient.values() if len(stays) == 2) == 12


class TestPlantedSignal:
    @staticmethod
    def _mean_hr_gap(dump_dir):
        normals = normal_values()
        dataset = load_dataset(dump_dir)
        pos, neg = [], []
        for sid, m in dataset.metas.items():
            grid = build_stay_grid(m, dataset.table.rows(sid), normals)
            target = pos if m.hospital_discharge_status == DischargeStatus.EXPIRED else neg
            target.append(grid.numeric[:, 0].mean())
        return np.mean(pos) - np.mean(neg)

    def test_effect_size_monotone_in_signal_strength(self, tmp_path):
        gaps = []
        for s in (0.0, 1.5, 3.0):
            generate(SynthConfig(n_patients=250, hours_range=(30, 40), seed=21, signal_strength=s),
                     tmp_path / f"s{s}")
            gaps.append(self._mean_hr_gap(tmp_path / f"s{s}"))
        assert gaps[0] < gaps[1] < gaps[2]
        assert abs(gaps[0]) < 2.0  # no-signal gap is just noise

    def test_zero_signal_logistic_auroc_near_half(self, tmp_path):
        # fit the package's own logistic scorer on pooled features and check chance level
        generate(SynthConfig(n_patients=2000, hours_range=(26, 40), seed=13, signal_strength=0.0),
                 tmp_path / "d")
        normals = normal_values()
        dataset = load_dataset(tmp_path / "d")
        feats, labels = [], []
        for sid, m in sorted(dataset.metas.items()):
            if m.hospital_discharge_status == DischargeStatus.MISSING:
                continue
            grid = build_stay_grid(m, dataset.table.rows(sid), normals)
            feats.append(grid.numeric[:24])
            labels.append(1.0 if m.hospital_discharge_status == DischargeStatus.EXPIRED else 0.0)
        num = np.stack(feats)
        mean, std = num.mean((0, 1)), num.std((0, 1))
        num = (num - mean) / np.where(std == 0, 1, std)
        labels = np.asarray(labels)
        half = len(labels) // 2
        model = build_model("lr", Task.MORTALITY, np.random.default_rng(0), use_numeric=True)
        group = InstanceGroup(indices=np.arange(half), num=num[:half], cat=None, labels=labels[:half])
        train_model(model, [group], epochs=30, batch_size=128, rng=np.random.default_rng(1))
        scores = model.predict(num[half:], None)
        from icubench.evaluation import auroc

        value = auroc(scores, labels[half:])
        assert 0.45 <= value <= 0.55
