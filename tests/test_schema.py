import math
from collections import Counter

import numpy as np
import pytest

from icubench.errors import ConfigError, DataError
from icubench.phenotypes import PHENOTYPE_CATEGORIES, PhenotypeCatalog
from icubench.schema import (
    CATEGORICAL,
    NUMERICAL,
    DischargeStatus,
    StayMeta,
    Task,
    TaskInstance,
    canonical_schema,
    grid_hours,
    parse_age,
    total_ohe_width,
    apply_vocabs,
)


class TestCanonicalSchema:
    def test_counts_and_order(self):
        schema = canonical_schema()
        assert len(schema) == 20
        assert sum(s.kind == NUMERICAL for s in schema) == 13
        assert sum(s.kind == CATEGORICAL for s in schema) == 7
        assert schema[0].name == "Heart rate" and schema[0].kind == NUMERICAL
        # numerical block strictly precedes the categorical block
        kinds = [s.kind for s in schema]
        assert kinds == [NUMERICAL] * 13 + [CATEGORICAL] * 7

    def test_contains_gcs_total_categorical(self):
        schema = canonical_schema()
        spec = next(s for s in schema if s.name == "Glasgow Coma Score Total")
        assert spec.kind == CATEGORICAL

    def test_stable_across_calls(self):
        a = canonical_schema()
        b = canonical_schema()
        assert a == b

    def test_normal_values_finite(self):
        for spec in canonical_schema():
            if spec.kind == NUMERICAL:
                assert math.isfinite(spec.normal_value)

    def test_normal_value_override(self):
        schema = canonical_schema({"Heart rate": 80.0})
        assert schema[0].normal_value == 80.0

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError):
            canonical_schema({"nonexistent variable": 1.0})

    def test_schema_file_roundtrip(self, tmp_path):
        from icubench.schema import read_normal_values

        overrides = tmp_path / "normals.json"
        overrides.write_text('{"Heart rate": 80.0}', encoding="utf-8")
        assert read_normal_values(overrides) == {"Heart rate": 80.0}
        assert canonical_schema(read_normal_values(overrides))[0].normal_value == 80.0


class TestOheWidth:
    def test_sum_of_vocab_sizes(self):
        schema = canonical_schema()
        sizes = [2, 3, 5, 4, 4, 4, 3]
        vocabs = {}
        for spec, size in zip([s for s in schema if s.kind == CATEGORICAL], sizes):
            vocabs[spec.name] = ("unknown", *[f"v{i}" for i in range(size - 1)])
        assert total_ohe_width(apply_vocabs(schema, vocabs)) == 25

    def test_all_singleton_vocabs(self):
        schema = canonical_schema()
        vocabs = {s.name: ("unknown",) for s in schema if s.kind == CATEGORICAL}
        assert total_ohe_width(apply_vocabs(schema, vocabs)) == 7

    def test_missing_vocabs_is_config_error(self):
        with pytest.raises(ConfigError):
            total_ohe_width(canonical_schema())


class TestParsing:
    def test_masked_age(self):
        assert parse_age("> 89") == 90.0
        assert parse_age(">89") == 90.0

    def test_plain_age(self):
        assert parse_age("82") == 82.0

    def test_empty_age_is_nan(self):
        assert math.isnan(parse_age(""))

    def test_grid_hours(self):
        assert grid_hours(60) == 1
        assert grid_hours(61) == 2
        assert grid_hours(1800) == 30
        assert grid_hours(100_000, max_hours=500) == 500


class TestTypes:
    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError):
            TaskInstance(stay_id=1, start=5, end=5, task=Task.LOS, label=0.0)

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
