import math
from collections import Counter

import numpy as np
import pytest

from icubench.errors import ConfigError, DataError
from icubench.phenotypes import PHENOTYPE_CATEGORIES, PhenotypeCatalog
from icubench.schema import (
    CATEGORICAL_VARIABLES,
    DEFAULT_NORMAL_VALUES,
    MASKED_AGE_SENTINEL,
    NUMERICAL_VARIABLES,
    VALID_RANGES,
    VARIABLES,
    DischargeStatus,
    StayMeta,
    grid_hours,
    normal_values,
    parse_age,
    parse_value,
    read_normal_values,
)
from icubench.synth import _RANGE as SYNTH_RANGE


class TestCanonicalSchema:
    def test_counts_and_order(self):
        assert len(VARIABLES) == 20
        assert len(NUMERICAL_VARIABLES) == 13 and normal_values().shape == (13,)
        assert len(CATEGORICAL_VARIABLES) == 7
        assert VARIABLES[0] == "Heart rate"
        # numerical block strictly precedes the categorical block
        assert VARIABLES == NUMERICAL_VARIABLES + CATEGORICAL_VARIABLES

    def test_contains_gcs_total_categorical(self):
        assert "Glasgow Coma Score Total" in CATEGORICAL_VARIABLES

    def test_stable_across_calls(self):
        assert np.array_equal(normal_values(), normal_values())

    def test_valid_ranges_contain_every_value_the_pipeline_expects(self):
        assert tuple(VALID_RANGES) == NUMERICAL_VARIABLES
        for name, (low, high) in VALID_RANGES.items():
            assert low <= DEFAULT_NORMAL_VALUES[name] <= high, name
        for name, (synth_low, synth_high) in SYNTH_RANGE.items():
            assert VALID_RANGES[name][0] <= synth_low and synth_high <= VALID_RANGES[name][1], name
        low, high = VALID_RANGES["Age"]
        assert low <= 16 and MASKED_AGE_SENTINEL == 90 <= high
        low, high = VALID_RANGES["FiO2"]
        assert all(low <= fio2 <= high for fio2 in (0.21, 0.5, 1.0, 21, 50, 100))   # fraction and percent

    def test_normal_values_finite(self):
        normals = normal_values()
        assert normals.dtype == np.float64 and np.isfinite(normals).all()

    def test_normal_value_override(self):
        # "7.35" reads by the number rule; 0 is a value like any other inside its range
        normals = dict(zip(NUMERICAL_VARIABLES, normal_values({"Heart rate": 80.0, "pH": "7.35", "O2": 0})))
        assert normals["Heart rate"] == 80.0 and normals["pH"] == 7.35 and normals["O2"] == 0.0
        assert normal_values({"Heart rate": "80"})[0] == normal_values({"Heart rate": 80})[0] == 80.0
        assert normals["Glucose"] == DEFAULT_NORMAL_VALUES["Glucose"]

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError):
            normal_values({"nonexistent variable": 1.0})
        with pytest.raises(ConfigError):
            normal_values({"Gender": 1.0})   # categorical: no normal value

    @pytest.mark.parametrize("value", ["abc", None, [80], "nan", float("inf"), "-inf", True, False,
                                       "1_0", "８０", 10**400])
    def test_override_that_is_not_a_finite_number_rejected(self, value):
        # float() read "1_0" as 10 and "８０" as 80, and raised OverflowError on 10**400
        with pytest.raises(ConfigError, match="Heart rate"):
            normal_values({"Heart rate": value})

    @pytest.mark.parametrize("name, value", [("Heart rate", -5), ("Heart rate", "390.5"), ("FiO2", 0),
                                             ("pH", 10.01)])
    def test_override_outside_its_valid_range_rejected(self, name, value):
        # ingestion reads an observed value outside VALID_RANGES as NaN, which imputation would fill with it
        with pytest.raises(ConfigError, match=name):
            normal_values({name: value})
        low, high = VALID_RANGES[name]
        assert np.array_equal(normal_values({name: low}), normal_values({name: str(low)}))
        assert normal_values({name: high})[NUMERICAL_VARIABLES.index(name)] == high

    def test_schema_file_roundtrip(self, tmp_path):
        overrides = tmp_path / "normals.json"
        overrides.write_text('{"Heart rate": 80.0}', encoding="utf-8")
        assert read_normal_values(overrides)[0] == 80.0
        assert np.array_equal(read_normal_values(overrides), normal_values({"Heart rate": 80.0}))


class TestParsing:
    def test_masked_age(self):
        assert parse_age("> 89") == 90.0
        assert parse_age(">89") == 90.0

    @pytest.mark.parametrize("text", [">abc", ">-5", "> 1e400"])
    def test_text_after_the_mask_that_is_not_89_is_nan(self, text):
        # any text after '>' read as the masked-age sentinel 90, so a mangled age passed the adult rule
        assert math.isnan(parse_age(text))

    def test_plain_age(self):
        assert parse_age("82") == 82.0

    def test_empty_age_is_nan(self):
        assert math.isnan(parse_age(""))

    @pytest.mark.parametrize("text", ["inf", "-inf", "1e400", "nan"])
    def test_nonfinite_age_is_nan(self, text):
        assert math.isnan(parse_age(text))

    @pytest.mark.parametrize("text", ["1_0.5", "6_0", "７", "٧.5", "7\u00a0", "1e1_0"])
    def test_separator_or_non_ascii_value_is_nan(self, text):
        # float() reads 1_0.5 as 10.5 and ７ as 7
        assert math.isnan(parse_value(text))
        assert math.isnan(parse_age(text))

    @pytest.mark.parametrize("text, value", [(" 7.5 ", 7.5), ("+1e1", 10.0), ("-3", -3.0), ("\t.5\n", 0.5)])
    def test_sign_exponent_and_surrounding_spaces_are_read(self, text, value):
        assert parse_value(text) == value

    def test_grid_hours(self):
        assert grid_hours(60) == 1
        assert grid_hours(61) == 2
        assert grid_hours(1800) == 30
        assert grid_hours(100_000, max_hours=500) == 500


class TestTypes:
    def test_death_offset_requires_expired(self):
        with pytest.raises(ConfigError):
            StayMeta(
                stay_id=1, patient_id=1, age=40.0, gender="Female", ethnicity="Other",
                admission_diagnosis="x", hospital_discharge_status=DischargeStatus.ALIVE,
                unit_discharge_offset_minutes=3000, death_offset_minutes=100,
            )


class TestPhenotypeCatalog:
    def test_category_counts(self):
        assert len(PHENOTYPE_CATEGORIES) == 25
        assert Counter(kind for _, kind in PHENOTYPE_CATEGORIES) == {"acute": 13, "chronic": 7, "mixed": 5}

    def test_label_mask_two_bits(self):
        catalog = PhenotypeCatalog(code_map={"038.9": 2, "785.5": 8})
        mask = catalog.label_mask({"038.9", "785.5", "UNRELATED"})
        assert mask.sum() == 2
        assert mask[2] == 1 and mask[8] == 1
        assert mask.shape == (25,)

    def test_code_map_is_functional(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("icd9code,category_index\n038.9,2\n038.9,3\n", encoding="utf-8")
        with pytest.raises(DataError):
            PhenotypeCatalog.from_file(path)

    def test_file_roundtrip_normalizes(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("icd9code,category_index\n 038.9 ,2\na41.9,2\n", encoding="utf-8")
        catalog = PhenotypeCatalog.from_file(path)
        assert catalog.code_map == {"038.9": 2, "A41.9": 2}
        out = tmp_path / "out.csv"
        catalog.to_file(out)
        assert PhenotypeCatalog.from_file(out).code_map == catalog.code_map
