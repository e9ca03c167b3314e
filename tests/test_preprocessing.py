import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import ref_bin
from icubench.errors import ConfigError
from icubench.ingestion import LAB, load_dataset, stay_table
from icubench.preprocessing import (
    bin_hourly,
    build_stay_grid,
    build_vocabs,
    categorical_index,
    encode_categoricals,
    impute,
    oversample,
)
from icubench.schema import (
    CATEGORICAL_VARIABLES,
    N_NUMERIC,
    NUMERICAL_VARIABLES,
    UNKNOWN,
    VALID_RANGES,
    VARIABLES,
    DischargeStatus,
    StayMeta,
    normal_values,
)

NORMALS = normal_values()
NUM_INDEX = {name: i for i, name in enumerate(NUMERICAL_VARIABLES)}
CAT_INDEX = {name: i for i, name in enumerate(CATEGORICAL_VARIABLES)}


def rows(*triples, stay=1):
    """One stay's (variable, offset, value) triples as StayTable columns, parsed as load_dataset parses."""
    table, _ = stay_table([], {LAB: [(stay, o, v, x) for v, o, x in triples]})
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
            ref_num, ref_cat = ref_bin(triples, n_hours, VALID_RANGES, set(CATEGORICAL_VARIABLES))
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
        table, _ = stay_table([meta], {LAB: [(1, 0, "Age", "not a number")]})
        grid = build_stay_grid(table.rows(1), 3, NORMALS)
        assert grid.numeric[0, NUM_INDEX["Age"]] == 50.0

    def test_parseable_age_row_in_hour_zero_wins(self):
        meta = _meta(1)
        table, _ = stay_table([meta], {LAB: [(1, 0, "Age", "77")]})
        grid = build_stay_grid(table.rows(1), 3, NORMALS)
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
        table, _ = stay_table([meta], {LAB: [(1, 125, "Gender", " unknown ")]})
        grid = build_stay_grid(table.rows(1), 4, NORMALS)
        assert labels(grid, table, "Gender") == ["Female", "Female", UNKNOWN, UNKNOWN]


class TestVocabs:
    def test_gender_vocab(self):
        table, _ = stay_table([_meta(1, gender="Female"), _meta(2, gender="Male")], {})
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
        table, _ = stay_table([], {LAB: [(1, 0, "Gender", "Female"), (2, 0, "Gender", "Male")]})
        vocabs = build_vocabs(table, [1])
        grid = impute(bin_hourly(table.rows(2), 2), NORMALS)
        encoded = encode_categoricals(grid, vocabs)
        assert encoded[0, CAT_INDEX["Gender"]] == 0
        assert encode_categoricals(impute(bin_hourly(table.rows(1), 2), NORMALS), vocabs)[0, CAT_INDEX["Gender"]] == 1

    def test_leak_freedom_by_construction(self):
        test_only_value = "Nonbinary"
        table, _ = stay_table([], {LAB: [(1, 0, "Gender", "Female"), (2, 0, "Gender", test_only_value)]})
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


@pytest.fixture(scope="module")
def dump_table(small_dump):
    return load_dataset(small_dump).table


class TestCategoricalIndex:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_vocabs_from_the_index_equal_vocabs_from_the_table(self, dump_table, data):
        index = categorical_index(dump_table)
        candidates = sorted(set(dump_table.stay.tolist())) + [-1, 10**12]   # two stays the dump lacks
        drawn = data.draw(st.sets(st.sampled_from(candidates)))
        for stays in (drawn, set(candidates) - drawn):   # small draws, and large training-fold-like sets
            want, got = build_vocabs(dump_table, stays), build_vocabs(index, stays)
            assert got.values == want.values
            assert np.array_equal(got.remap, want.remap)
            assert got.source_stays == want.source_stays

    def test_one_row_per_distinct_code_plus_one_per_stay(self):
        table, _ = stay_table([], {LAB: [
            (1, 60, "Gender", "Female"), (1, 120, "Gender", "Female"), (1, 90, "Gender", " "),
            (1, 60, "Heart rate", "80"), (3, 60, "Heart rate", "90"), (3, 90, "Heart rate", "91")]})
        index = categorical_index(table)
        facts = list(zip(index.stay.tolist(), index.variable.tolist(), index.code.tolist()))
        female = table.strings.index("Female")
        assert facts == [(1, N_NUMERIC, -1), (1, VARIABLES.index("Gender"), female), (3, N_NUMERIC, -1)]


class TestOversample:
    def _labels(self, n_neg, n_pos):
        return np.array([0.0] * n_neg + [1.0] * n_pos)

    def test_three_one_becomes_three_three(self):
        labels = self._labels(3, 1)
        picks, warn = oversample(labels, np.random.default_rng(0))
        assert warn is None
        out = labels[picks].tolist()
        assert out.count(0.0) == 3 and out.count(1.0) == 3

    def test_balanced_unchanged(self):
        picks, _ = oversample(self._labels(2, 2), np.random.default_rng(0))
        assert picks.tolist() == [0, 1, 2, 3]

    def test_large_case_deterministic(self):
        labels = self._labels(1000, 100)
        picks1, _ = oversample(labels, np.random.default_rng(42))
        picks2, _ = oversample(labels, np.random.default_rng(42))
        out = labels[picks1].tolist()
        assert out.count(0.0) == 1000 and out.count(1.0) == 1000
        assert picks1.tolist() == picks2.tolist()

    def test_single_class_warns(self):
        picks, warn = oversample(self._labels(3, 0), np.random.default_rng(0))
        assert picks.tolist() == [0, 1, 2] and warn is not None

    def test_never_deletes(self):
        labels = self._labels(5, 2)
        picks, _ = oversample(labels, np.random.default_rng(1))
        for position in range(len(labels)):
            assert picks.tolist().count(position) >= 1

    def test_originals_come_first_in_order(self):
        picks, _ = oversample(self._labels(5, 2), np.random.default_rng(1))
        assert picks[:7].tolist() == list(range(7)) and set(picks[7:].tolist()) <= {5, 6}

    @pytest.mark.parametrize("labels", [np.zeros((4, 25)), np.array([0.0, 1.0, 0.5]), np.array([0.0, np.nan])])
    def test_labels_that_are_not_binary_are_config_errors(self, labels):
        with pytest.raises(ConfigError, match="binary 0/1 labels"):
            oversample(labels, np.random.default_rng(0))


def _meta(stay_id, gender="Female", hours=3):
    return StayMeta(
        stay_id=stay_id, patient_id=stay_id, age=50.0, gender=gender, ethnicity="Other",
        admission_diagnosis="Sepsis", hospital_discharge_status=DischargeStatus.ALIVE,
        unit_discharge_offset_minutes=hours * 60,
    )


class TestMetaRecords:
    def test_demographics_become_offset_zero_records(self):
        table, counts = stay_table([_meta(3)], {})
        assert {VARIABLES[j] for j in table.variable.tolist()} == {"Age", "Admission diagnosis", "Ethnicity", "Gender"}
        assert not table.offset.any()
        assert counts == {}  # the base cohort's record rule counts file rows only

    def test_grid_has_constant_demographics(self):
        table, _ = stay_table([_meta(3, hours=5)], {})
        grid = build_stay_grid(table.rows(3), 5, NORMALS)
        assert np.all(grid.numeric[:, NUM_INDEX["Age"]] == 50.0)
        assert labels(grid, table, "Gender") == ["Female"] * 5
