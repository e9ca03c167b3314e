import math

import numpy as np
import pytest

from _reference import ref_bin
from icubench.preprocessing import (
    bin_hourly,
    build_stay_grid,
    build_vocabs,
    encode_categoricals,
    impute,
    meta_records,
    oversample,
)
from icubench.schema import (
    CATEGORICAL_VARIABLES,
    NUMERICAL_VARIABLES,
    UNKNOWN,
    DischargeStatus,
    StayMeta,
    StayRecordRaw,
    Task,
    TaskInstance,
    apply_vocabs,
    canonical_schema,
)

SCHEMA = canonical_schema()
NUM_INDEX = {name: i for i, name in enumerate(NUMERICAL_VARIABLES)}
CAT_INDEX = {name: i for i, name in enumerate(CATEGORICAL_VARIABLES)}


def rec(variable, offset, value, stay=1):
    return StayRecordRaw(stay_id=stay, variable=variable, offset_minutes=offset, value=value)


class TestBinning:
    def test_last_value_in_bin_wins(self):
        grid = bin_hourly([rec("Heart rate", 10, "80"), rec("Heart rate", 50, "90")], 2, SCHEMA)
        assert grid.numeric[0, NUM_INDEX["Heart rate"]] == 90.0
        assert grid.observed_mask[0, NUM_INDEX["Heart rate"]]

    def test_mean_fallback_when_last_unparseable(self):
        grid = bin_hourly([rec("Heart rate", 10, "80"), rec("Heart rate", 50, "err")], 1, SCHEMA)
        assert grid.numeric[0, NUM_INDEX["Heart rate"]] == 80.0

    def test_mean_fallback_averages_all_parseable(self):
        grid = bin_hourly(
            [rec("Heart rate", 5, "80"), rec("Heart rate", 20, "90"), rec("Heart rate", 50, ">100")], 1, SCHEMA
        )
        assert grid.numeric[0, NUM_INDEX["Heart rate"]] == 85.0

    def test_empty_bin_unobserved(self):
        grid = bin_hourly([rec("Heart rate", 10, "80")], 4, SCHEMA)
        assert not grid.observed_mask[3, NUM_INDEX["Heart rate"]]
        assert math.isnan(grid.numeric[3, NUM_INDEX["Heart rate"]])

    def test_negative_offsets_dropped(self):
        grid = bin_hourly([rec("Heart rate", -5, "200"), rec("Heart rate", 10, "80")], 1, SCHEMA)
        assert grid.numeric[0, NUM_INDEX["Heart rate"]] == 80.0

    def test_permuting_across_bins_never_changes_cells(self):
        rng = np.random.default_rng(5)
        records = [rec("Heart rate", int(o), str(v)) for o, v in zip(rng.integers(0, 300, 30), rng.integers(50, 120, 30))]
        records.sort(key=lambda r: r.offset_minutes)
        a = bin_hourly(records, 5, SCHEMA)
        hours = rng.permutation(5)
        # move whole bins around by remapping hour blocks, then sort again
        remapped = [
            StayRecordRaw(r.stay_id, r.variable, int(hours[r.offset_minutes // 60]) * 60 + r.offset_minutes % 60, r.value)
            for r in records
        ]
        remapped.sort(key=lambda r: r.offset_minutes)
        b = bin_hourly(remapped, 5, SCHEMA)
        for original_hour in range(5):
            assert b.numeric[hours[original_hour], 0] == a.numeric[original_hour, 0]

    def test_matches_reference_on_random_record_sets(self):
        rng = np.random.default_rng(17)
        variables = ["Heart rate", "pH", "Glasgow Coma Score Total"]
        for _ in range(300):
            n_hours = int(rng.integers(1, 5))
            n_records = int(rng.integers(0, 25))
            triples = []
            for _ in range(n_records):
                var = variables[rng.integers(0, 3)]
                offset = int(rng.integers(-30, n_hours * 60 + 30))
                if var == "Glasgow Coma Score Total":
                    value = str(rng.integers(3, 16))
                else:
                    value = "bad" if rng.random() < 0.2 else f"{rng.normal(80, 10):.2f}"
                triples.append((var, offset, value))
            triples.sort(key=lambda t: t[1])
            records = [rec(v, o, val) for v, o, val in triples]
            grid = bin_hourly(records, n_hours, SCHEMA)
            ref_num, ref_cat = ref_bin(triples, n_hours, set(NUMERICAL_VARIABLES), set(CATEGORICAL_VARIABLES))
            for (hour, name), value in ref_num.items():
                assert grid.numeric[hour, NUM_INDEX[name]] == pytest.approx(value, abs=1e-12)
            observed = {(h, n) for (h, n) in ref_num}
            for hour in range(n_hours):
                for name in ("Heart rate", "pH"):
                    assert grid.observed_mask[hour, NUM_INDEX[name]] == ((hour, name) in observed)
            for (hour, name), value in ref_cat.items():
                assert grid.cat_labels[hour, CAT_INDEX[name]] == value


class TestImpute:
    def test_carry_forward_then_normal(self):
        records = [rec("Heart rate", 0, "80"), rec("Heart rate", 180, "90")]
        grid = impute(bin_hourly(records, 6, SCHEMA), SCHEMA)
        hr = grid.numeric[:, NUM_INDEX["Heart rate"]]
        assert list(hr) == [80.0, 80.0, 80.0, 90.0, 90.0, 90.0]

    def test_never_observed_gets_normal_value(self):
        grid = impute(bin_hourly([], 3, SCHEMA), SCHEMA)
        assert np.all(grid.numeric[:, NUM_INDEX["Temperature"]] == 37.0)

    def test_mask_preserved(self):
        records = [rec("Heart rate", 0, "80")]
        binned = bin_hourly(records, 3, SCHEMA)
        filled = impute(binned, SCHEMA)
        assert np.array_equal(filled.observed_mask, binned.observed_mask)
        assert filled.observed_mask.sum() == 1

    def test_categorical_carry_forward(self):
        records = [rec("Gender", 0, "Female")]
        grid = impute(bin_hourly(records, 4, SCHEMA), SCHEMA)
        assert list(grid.cat_labels[:, CAT_INDEX["Gender"]]) == ["Female"] * 4

    def test_categorical_unknown_before_first_observation(self):
        records = [rec("Glasgow Coma Score Total", 130, "14")]
        grid = impute(bin_hourly(records, 4, SCHEMA), SCHEMA)
        col = list(grid.cat_labels[:, CAT_INDEX["Glasgow Coma Score Total"]])
        assert col == [UNKNOWN, UNKNOWN, "14", "14"]


class TestVocabs:
    def test_gender_vocab(self):
        metas = [_meta(1, gender="Female"), _meta(2, gender="Male")]
        vocabs = build_vocabs(metas, [])
        assert vocabs.values["Gender"] == (UNKNOWN, "Female", "Male")

    def test_gcs_vocab_size(self):
        records = [rec("Glasgow Coma Score Total", 0, str(v)) for v in range(3, 16)]
        vocabs = build_vocabs([], records)
        assert len(vocabs.values["Glasgow Coma Score Total"]) == 14

    def test_numeric_strings_sort_numerically(self):
        records = [rec("Glasgow Coma Score Total", 0, v) for v in ("10", "3", "9")]
        vocabs = build_vocabs([], records)
        assert vocabs.values["Glasgow Coma Score Total"] == (UNKNOWN, "3", "9", "10")

    def test_unseen_values_encode_to_unknown_index(self):
        records = [rec("Gender", 0, "Female")]
        schema = apply_vocabs(SCHEMA, build_vocabs([], records).values)
        grid = impute(bin_hourly([rec("Gender", 0, "Male")], 2, SCHEMA), SCHEMA)
        encoded = encode_categoricals(grid, schema)
        assert encoded.categorical[0, CAT_INDEX["Gender"]] == 0

    def test_leak_freedom_by_construction(self):
        train = [rec("Gender", 0, "Female")]
        test_only_value = "Nonbinary"
        vocabs = build_vocabs([], train)
        assert test_only_value not in vocabs.values["Gender"]


class TestOversample:
    def _insts(self, n_neg, n_pos):
        out = [TaskInstance(stay_id=i, start=0, end=1, task=Task.MORTALITY, label=0.0) for i in range(n_neg)]
        out += [TaskInstance(stay_id=1000 + i, start=0, end=1, task=Task.MORTALITY, label=1.0) for i in range(n_pos)]
        return out

    def test_three_one_becomes_three_three(self):
        out, warn = oversample(self._insts(3, 1), np.random.default_rng(0))
        assert warn is None
        labels = [i.label for i in out]
        assert labels.count(0.0) == 3 and labels.count(1.0) == 3

    def test_balanced_unchanged(self):
        insts = self._insts(2, 2)
        out, _ = oversample(insts, np.random.default_rng(0))
        assert out == insts

    def test_large_case_deterministic(self):
        insts = self._insts(1000, 100)
        out1, _ = oversample(insts, np.random.default_rng(42))
        out2, _ = oversample(insts, np.random.default_rng(42))
        labels = [i.label for i in out1]
        assert labels.count(0.0) == 1000 and labels.count(1.0) == 1000
        assert [i.stay_id for i in out1] == [i.stay_id for i in out2]

    def test_single_class_warns(self):
        insts = self._insts(3, 0)
        out, warn = oversample(insts, np.random.default_rng(0))
        assert out == insts and warn is not None

    def test_never_deletes(self):
        insts = self._insts(5, 2)
        out, _ = oversample(insts, np.random.default_rng(1))
        ids = [i.stay_id for i in out]
        for inst in insts:
            assert ids.count(inst.stay_id) >= 1


def _meta(stay_id, gender="Female", hours=3):
    return StayMeta(
        stay_id=stay_id, patient_id=stay_id, age=50.0, gender=gender, ethnicity="Other",
        admission_diagnosis="Sepsis", hospital_discharge_status=DischargeStatus.ALIVE,
        unit_discharge_offset_minutes=hours * 60,
    )


class TestMetaRecords:
    def test_demographics_become_offset_zero_records(self):
        meta = _meta(3)
        recs = meta_records(meta)
        names = {r.variable for r in recs}
        assert names == {"Age", "Admission diagnosis", "Ethnicity", "Gender"}
        assert all(r.offset_minutes == 0 for r in recs)

    def test_grid_has_constant_demographics(self):
        grid = build_stay_grid(_meta(3, hours=5), [], SCHEMA)
        assert np.all(grid.numeric[:, NUM_INDEX["Age"]] == 50.0)
        assert list(grid.cat_labels[:, CAT_INDEX["Gender"]]) == ["Female"] * 5
