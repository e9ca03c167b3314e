import tracemalloc
from pathlib import Path

import pytest

from icubench.errors import SchemaError
from icubench.ingestion import (
    IngestionReport,
    TableSource,
    load_diagnoses,
    load_records,
    load_stay_meta,
    parse_patient_id,
    table_source,
)
from icubench.schema import DischargeStatus, canonical_schema

PATIENT_HEADER = ("patientunitstayid,uniquepid,age,gender,ethnicity,apacheadmissiondx,"
                  "hospitaldischargestatus,unitdischargeoffset,hospitaldischargeoffset")


def write(path: Path, lines) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def patient_csv(tmp_path):
    return write(tmp_path / "patient.csv", [
        PATIENT_HEADER,
        "7,1001,> 89,Female,Caucasian,Sepsis,Expired,2880,3000",
        "8,1002,45,Male,Hispanic,Trauma,Alive,1500,2000",
        "9,1003,33,,Asian,CHF,,600,",
        "10,1004,50,Male,Other,CABG,Alive,not-a-number,",
    ])


class TestStayMeta:
    def test_parses_rows(self, patient_csv):
        metas = load_stay_meta(TableSource(path=patient_csv, table="patient"))
        assert len(metas) == 3  # malformed offset row skipped
        by_id = {m.stay_id: m for m in metas}
        assert by_id[7].age == 90.0
        assert by_id[7].hospital_discharge_status == DischargeStatus.EXPIRED
        assert by_id[7].death_offset_minutes == 3000
        assert by_id[8].death_offset_minutes is None
        assert by_id[9].gender == "unknown"
        assert by_id[9].hospital_discharge_status == DischargeStatus.MISSING

    def test_malformed_rows_counted(self, patient_csv):
        report = IngestionReport()
        load_stay_meta(TableSource(path=patient_csv, table="patient"), report)
        assert report.rows_malformed["patient"] == 1
        assert report.rows_kept["patient"] == 3

    def test_missing_stay_id_column_is_schema_error(self, tmp_path):
        path = write(tmp_path / "patient.csv", [
            PATIENT_HEADER.replace("patientunitstayid", "wrongname"),
            "7,1001,50,Female,Caucasian,Sepsis,Alive,2880,",
        ])
        with pytest.raises(SchemaError, match="patientunitstayid"):
            load_stay_meta(TableSource(path=path, table="patient"))

    def test_nonnumeric_patient_id_hashes_stably(self):
        assert parse_patient_id("002-10009") == parse_patient_id("002-10009")
        assert parse_patient_id("002-10009") != parse_patient_id("002-10010")
        assert parse_patient_id("1234") == 1234


class TestRecords:
    def test_filters_and_keeps_verbatim(self, tmp_path):
        path = write(tmp_path / "lab.csv", [
            "patientunitstayid,labresultoffset,labname,labresult",
            "7,95,pH,7.31",
            "7,100,troponin,0.5",
            "8,10,glucose,140",
        ])
        report = IngestionReport()
        records = list(load_records(TableSource(path=path, table="lab"), canonical_schema(), report))
        assert [(r.stay_id, r.variable, r.offset_minutes, r.value) for r in records] == [
            (7, "pH", 95, "7.31"),
            (8, "Glucose", 10, "140"),
        ]
        assert report.rows_unmapped_variable["lab"] == 1

    def test_stream_length_matches_line_count(self, small_dump):
        # independent oracle: count mapped lines directly from the files
        schema = canonical_schema()
        src = table_source(small_dump, "nursecharting")
        mapped = 0
        with open(src.path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            name_col = header.index("nursingchartcelltypevallabel")
            for line in fh:
                label = line.split(",")[name_col]
                if src.variable_map.get(label) in {s.name for s in schema}:
                    mapped += 1
        records = list(load_records(src, schema))
        assert len(records) == mapped

    def test_idempotent(self, small_dump):
        src = table_source(small_dump, "lab")
        schema = canonical_schema()
        assert list(load_records(src, schema)) == list(load_records(src, schema))

    def test_bounded_memory_streaming(self, tmp_path):
        path = tmp_path / "lab.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("patientunitstayid,labresultoffset,labname,labresult\n")
            for i in range(250_000):
                fh.write(f"{i % 500},{i},pH,7.{i % 90:02d}\n")
        assert path.stat().st_size > 4_000_000
        src = TableSource(path=path, table="lab")
        schema = canonical_schema()
        tracemalloc.start()
        count = sum(1 for _ in load_records(src, schema))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 250_000
        assert peak < 2_000_000  # far below file size: rows never accumulate


class TestDiagnoses:
    def test_comma_cells_split_and_normalize(self, tmp_path):
        path = write(tmp_path / "diagnosis.csv", [
            "patientunitstayid,icd9code",
            '7,"038.9, a41.9"',
            "7,038.9",
            "9,428.0",
        ])
        diagnoses = load_diagnoses(TableSource(path=path, table="diagnosis"))
        assert diagnoses[7] == frozenset({"038.9", "A41.9"})
        assert diagnoses[9] == frozenset({"428.0"})
        assert 8 not in diagnoses

    def test_fixture_corpus_counts(self, tmp_path):
        rows = ["patientunitstayid,icd9code",
                "1,100.0", "1,100.1", "2,100.0", "2,200.0", "3,300.0", "3,300.1"]
        path = write(tmp_path / "diagnosis.csv", rows)
        diagnoses = load_diagnoses(TableSource(path=path, table="diagnosis"))
        assert len(diagnoses) == 3
        assert len(frozenset().union(*diagnoses.values())) == 5


class TestReport:
    def test_short_rows_counted_as_malformed(self, tmp_path):
        report = IngestionReport()
        patient = write(tmp_path / "patient.csv",
                        [PATIENT_HEADER, "8,1002,45,Male,Hispanic,Trauma,Alive,1500,2000", "9,1003"])
        lab = write(tmp_path / "lab.csv",
                    ["patientunitstayid,labresultoffset,labname,labresult", "7,95,pH,7.31", "7,96"])
        diagnosis = write(tmp_path / "diagnosis.csv", ["patientunitstayid,icd9code", "7,038.9", "9"])
        assert len(load_stay_meta(TableSource(path=patient, table="patient"), report)) == 1
        assert len(list(load_records(TableSource(path=lab, table="lab"), canonical_schema(), report))) == 1
        assert list(load_diagnoses(TableSource(path=diagnosis, table="diagnosis"), report)) == [7]
        assert report.rows_malformed == {"patient": 1, "lab": 1, "diagnosis": 1}

    def test_long_rows_counted_as_malformed(self, tmp_path):
        # an unquoted decimal comma splits one cell in two
        report = IngestionReport()
        patient = write(tmp_path / "patient.csv", [PATIENT_HEADER, "8,1002,45,Male,Hispanic,Trauma,Alive,1500,2000,5"])
        lab = write(tmp_path / "lab.csv", ["patientunitstayid,labresultoffset,labname,labresult", "7,95,pH,7,31"])
        diagnosis = write(tmp_path / "diagnosis.csv", ["patientunitstayid,icd9code", "7,038.9,995.91"])
        assert load_stay_meta(TableSource(path=patient, table="patient"), report) == []
        assert list(load_records(TableSource(path=lab, table="lab"), canonical_schema(), report)) == []
        assert load_diagnoses(TableSource(path=diagnosis, table="diagnosis"), report) == {}
        assert report.rows_malformed == {"patient": 1, "lab": 1, "diagnosis": 1}
        assert report.rows_read == {"patient": 1, "lab": 1, "diagnosis": 1}
        assert report.rows_kept == {}

    def test_render_says_how_many_messages_were_cut(self):
        report = IngestionReport(messages=[f"message {i}" for i in range(205)])
        lines = report.render().splitlines()
        assert "message 199" in lines and "message 200" not in lines
        assert lines[-1] == "5 more messages suppressed"
        assert "suppressed" not in IngestionReport(messages=["only one"]).render()
