import math

import numpy as np
import pytest

from _reference import ref_bin
from icubench.ingestion import stay_table
from icubench.preprocessing import (
    bin_hourly,
    build_stay_grid,
    build_vocabs,
    encode_categoricals,
    impute,
    oversample,
)
from icubench.schema import (
    CATEGORICAL_VARIABLES,
    NUMERICAL_VARIABLES,
    UNKNOWN,
    VARIABLES,
    DischargeStatus,
    StayMeta,
    TaskInstance,
    normal_values,
)

NORMALS = normal_values()
NUM_INDEX = {name: i for i, name in enumerate(NUMERICAL_VARIABLES)}
CAT_INDEX = {name: i for i, name in enumerate(CATEGORICAL_VARIABLES)}


def rows(*triples, stay=1):
    """One stay's (variable, offset, value) triples as StayTable columns, parsed as load_dataset parses."""
    table, _ = stay_table([], [(stay, v, o, x) for v, o, x in triples])
    return table


def labels(grid, table, name):
    """One categorical column of a grid as strings, "" where unobserved."""
    return [table.strings[c] if c >= 0 else "" for c in grid.codes[:, CAT_INDEX[name]].tolist()]


class TestBinning:
    def test_last_value_in_bin_wins(self):
        grid = bin_hourly(rows(("Heart rate", 10, "80"), ("Heart rate", 50, "90")), 2)
        assert grid.numeric[0, NUM_INDEX["Heart rate"]] == 90.0

    def test_mean_fallback_when_last_unparseable(self):
        grid = bin_hourly(rows(("Heart rate", 10, "80"), ("Heart rate", 50, "err")), 1)
        assert grid.numeric[0, NUM_INDEX["Heart rate"]] == 80.0

    def test_mean_fallback_averages_all_parseable(self):
        grid = bin_hourly(rows(("Heart rate", 5, "80"), ("Heart rate", 20, "90"), ("Heart rate", 50, ">100")), 1)
        assert grid.numeric[0, NUM_INDEX["Heart rate"]] == 85.0

    def test_empty_bin_unobserved(self):
        grid = bin_hourly(rows(("Heart rate", 10, "80")), 4)
        assert math.isnan(grid.numeric[3, NUM_INDEX["Heart rate"]])

    def test_negative_offsets_dropped(self):
        grid = bin_hourly(rows(("Heart rate", -5, "200"), ("Heart rate", 10, "80")), 1)
        assert grid.numeric[0, NUM_INDEX["Heart rate"]] == 80.0

    def test_permuting_across_bins_never_changes_cells(self):
        rng = np.random.default_rng(5)
        records = [("Heart rate", int(o), str(v)) for o, v in zip(rng.integers(0, 300, 30), rng.integers(50, 120, 30))]
        a = bin_hourly(rows(*records), 5)
        hours = rng.permutation(5)
        # move whole bins around by remapping hour blocks; the table sorts them again
        remapped = [(name, int(hours[o // 60]) * 60 + o % 60, v) for name, o, v in records]
        b = bin_hourly(rows(*remapped), 5)
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
            table = rows(*triples)
            grid = bin_hourly(table, n_hours)
            ref_num, ref_cat = ref_bin(triples, n_hours, set(NUMERICAL_VARIABLES), set(CATEGORICAL_VARIABLES))
            for (hour, name), value in ref_num.items():
                assert grid.numeric[hour, NUM_INDEX[name]] == pytest.approx(value, abs=1e-12)
            observed = {(h, n) for (h, n) in ref_num}
            for hour in range(n_hours):
                for name in ("Heart rate", "pH"):
                    assert (not math.isnan(grid.numeric[hour, NUM_INDEX[name]])) == ((hour, name) in observed)
            gcs = labels(grid, table, "Glasgow Coma Score Total")
            for (hour, name), value in ref_cat.items():
                assert gcs[hour] == value

    def test_unparseable_age_row_falls_back_to_patient_age(self):
        # the patient table's age is an offset-0 row ahead of the file's rows at offset 0
        meta = _meta(1)
        table, _ = stay_table([meta], [(1, "Age", 0, "not a number")])
        grid = build_stay_grid(meta, table.rows(1), NORMALS)
        assert grid.numeric[0, NUM_INDEX["Age"]] == 50.0

    def test_parseable_age_row_in_hour_zero_wins(self):
        meta = _meta(1)
        table, _ = stay_table([meta], [(1, "Age", 0, "77")])
        grid = build_stay_grid(meta, table.rows(1), NORMALS)
        assert list(grid.numeric[:, NUM_INDEX["Age"]]) == [77.0] * 3


class TestImpute:
    def test_carry_forward_then_normal(self):
        grid = impute(bin_hourly(rows(("Heart rate", 0, "80"), ("Heart rate", 180, "90")), 6), NORMALS)
        hr = grid.numeric[:, NUM_INDEX["Heart rate"]]
        assert list(hr) == [80.0, 80.0, 80.0, 90.0, 90.0, 90.0]

    def test_never_observed_gets_normal_value(self):
        grid = impute(bin_hourly(rows(), 3), NORMALS)
        assert np.all(grid.numeric[:, NUM_INDEX["Temperature"]] == 37.0)

    def test_mask_preserved(self):
        # the observed mask is the binned grid's non-NaN cells; impute leaves that grid as it was
        binned = bin_hourly(rows(("Heart rate", 0, "80")), 3)
        filled = impute(binned, NORMALS)
        assert (~np.isnan(binned.numeric)).sum() == 1 and (binned.codes >= 0).sum() == 0
        assert not np.isnan(filled.numeric).any() and (filled.codes >= 0).all()

    def test_categorical_carry_forward(self):
        table = rows(("Gender", 0, "Female"))
        grid = impute(bin_hourly(table, 4), NORMALS)
        assert labels(grid, table, "Gender") == ["Female"] * 4

    def test_categorical_unknown_before_first_observation(self):
        table = rows(("Glasgow Coma Score Total", 130, "14"))
        grid = impute(bin_hourly(table, 4), NORMALS)
        assert labels(grid, table, "Glasgow Coma Score Total") == [UNKNOWN, UNKNOWN, "14", "14"]

    def test_explicit_unknown_is_an_observation(self):
        # an "unknown" row stops carry-forward of the patient table's gender
        meta = _meta(1, hours=4)
        table, _ = stay_table([meta], [(1, "Gender", 125, " unknown ")])
        grid = build_stay_grid(meta, table.rows(1), NORMALS)
        assert labels(grid, table, "Gender") == ["Female", "Female", UNKNOWN, UNKNOWN]


class TestVocabs:
    def test_gender_vocab(self):
        table, _ = stay_table([_meta(1, gender="Female"), _meta(2, gender="Male")], [])
        vocabs = build_vocabs(table, [1, 2])
        assert vocabs.values["Gender"] == (UNKNOWN, "Female", "Male")
        assert vocabs.source_stays == {1, 2}

    def test_gcs_vocab_size(self):
        vocabs = build_vocabs(rows(*(("Glasgow Coma Score Total", 0, str(v)) for v in range(3, 16))), [1])
        assert len(vocabs.values["Glasgow Coma Score Total"]) == 14

    def test_numeric_strings_sort_numerically(self):
        vocabs = build_vocabs(rows(*(("Glasgow Coma Score Total", 0, v) for v in ("10", "3", "9"))), [1])
        assert vocabs.values["Glasgow Coma Score Total"] == (UNKNOWN, "3", "9", "10")

    def test_unseen_values_encode_to_unknown_index(self):
        table, _ = stay_table([], [(1, "Gender", 0, "Female"), (2, "Gender", 0, "Male")])
        vocabs = build_vocabs(table, [1])
        grid = impute(bin_hourly(table.rows(2), 2), NORMALS)
        encoded = encode_categoricals(grid, vocabs)
        assert encoded[0, CAT_INDEX["Gender"]] == 0
        assert encode_categoricals(impute(bin_hourly(table.rows(1), 2), NORMALS), vocabs)[0, CAT_INDEX["Gender"]] == 1

    def test_leak_freedom_by_construction(self):
        test_only_value = "Nonbinary"
        table, _ = stay_table([], [(1, "Gender", 0, "Female"), (2, "Gender", 0, test_only_value)])
        vocabs = build_vocabs(table, [1])
        assert test_only_value not in vocabs.values["Gender"]
        assert vocabs.source_stays == {1}

    def test_values_with_equal_sort_keys_keep_first_seen_order(self):
        # "14" and "14.0" sort as the same number; their order must not depend on string hashing
        table = rows(*(("Glasgow Coma Score Total", 0, v) for v in ("14.0", "3", "14", "014")))
        assert build_vocabs(table, [1]).values["Glasgow Coma Score Total"] == (UNKNOWN, "3", "14.0", "14", "014")

    def test_rows_outside_the_grid_enter_the_vocab(self):
        table = rows(("Glasgow Coma Score Total", -30, "15"), ("Glasgow Coma Score Total", 10**6, "3"))
        assert build_vocabs(table, [1]).values["Glasgow Coma Score Total"] == (UNKNOWN, "3", "15")


class TestOversample:
    def _insts(self, n_neg, n_pos):
        out = [TaskInstance(stay_id=i, start=0, end=1, label=0.0) for i in range(n_neg)]
        out += [TaskInstance(stay_id=1000 + i, start=0, end=1, label=1.0) for i in range(n_pos)]
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
        table, counts = stay_table([_meta(3)], [])
        assert {VARIABLES[j] for j in table.variable.tolist()} == {"Age", "Admission diagnosis", "Ethnicity", "Gender"}
        assert not table.offset.any()
        assert counts == {}  # the base cohort's record rule counts file rows only

    def test_grid_has_constant_demographics(self):
        table, _ = stay_table([_meta(3, hours=5)], [])
        grid = build_stay_grid(_meta(3, hours=5), table.rows(3), NORMALS)
        assert np.all(grid.numeric[:, NUM_INDEX["Age"]] == 50.0)
        assert labels(grid, table, "Gender") == ["Female"] * 5
