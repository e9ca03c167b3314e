import math
import tracemalloc
from pathlib import Path

import pytest

from icubench.errors import SchemaError
from icubench.ingestion import (
    DEFAULT_VARIABLE_MAP,
    TABLE_COLUMNS,
    TABLE_FILES,
    IngestionReport,
    _table_rows,
    load_dataset,
    load_diagnoses,
    load_stay_meta,
    parse_patient_id,
    stay_table,
)
from icubench.preprocessing import build_stay_grid
from icubench.schema import CATEGORICAL_VARIABLES, NUMERICAL_VARIABLES, VARIABLES, DischargeStatus, normal_values

PATIENT_HEADER = ("patientunitstayid,uniquepid,age,gender,ethnicity,apacheadmissiondx,"
                  "hospitaldischargestatus,unitdischargeoffset,hospitaldischargeoffset")


def write(path: Path, lines) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def measurements(path: Path, table: str, report: IngestionReport | None = None) -> list[tuple]:
    """One measurement table read as load_dataset reads it, as (stay, variable, offset, value) rows.

    The value is None where the table holds NaN (not parseable or out of range).
    """
    report = report if report is not None else IngestionReport()
    rows, _ = stay_table([], {table: _table_rows(path, table, report)}, report)
    return list(zip(rows.stay.tolist(), [VARIABLES[j] for j in rows.variable.tolist()], rows.offset.tolist(),
                    [None if math.isnan(x) else x for x in rows.value.tolist()]))


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
        metas = load_stay_meta(patient_csv)
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
        load_stay_meta(patient_csv, report)
        assert report.rows_malformed["patient"] == 1
        assert report.rows_kept["patient"] == 3

    def test_discharge_offset_column_is_optional(self, tmp_path):
        header = PATIENT_HEADER.replace(",hospitaldischargeoffset", "")
        path = write(tmp_path / "patient.csv", [header, "7,1001,50,Female,Caucasian,Sepsis,Expired,2880"])
        (meta,) = load_stay_meta(path)
        assert meta.hospital_discharge_status == DischargeStatus.EXPIRED
        assert meta.death_offset_minutes is None

    def test_missing_stay_id_column_is_schema_error(self, tmp_path):
        path = write(tmp_path / "patient.csv", [
            PATIENT_HEADER.replace("patientunitstayid", "wrongname"),
            "7,1001,50,Female,Caucasian,Sepsis,Alive,2880,",
        ])
        with pytest.raises(SchemaError, match="patientunitstayid"):
            load_stay_meta(path)

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
        assert measurements(path, "lab", report) == [
            (7, "pH", 95, 7.31),
            (8, "Glucose", 10, 140.0),
        ]
        assert report.rows_unmapped_variable["lab"] == 1

    def test_every_label_maps_into_the_schema(self):
        # why stay_table needs no schema filter: a mapped label is always a schema variable
        assert set(DEFAULT_VARIABLE_MAP.values()) <= set(NUMERICAL_VARIABLES + CATEGORICAL_VARIABLES)

    def test_stream_length_matches_line_count(self, small_dump):
        # independent oracle: count mapped lines directly from the files
        path = small_dump / TABLE_FILES["nursecharting"]
        mapped = 0
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            name_col = header.index("nursingchartcelltypevallabel")
            for line in fh:
                label = line.split(",")[name_col]
                if DEFAULT_VARIABLE_MAP.get(label) in NUMERICAL_VARIABLES + CATEGORICAL_VARIABLES:
                    mapped += 1
        records = measurements(path, "nursecharting")
        assert len(records) == mapped

    def test_idempotent(self, small_dump):
        path = small_dump / TABLE_FILES["lab"]
        assert measurements(path, "lab") == measurements(path, "lab")

    def test_bounded_memory_streaming(self, tmp_path):
        path = tmp_path / "lab.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("patientunitstayid,labresultoffset,labname,labresult\n")
            for i in range(250_000):
                fh.write(f"{i % 500},{i},pH,7.{i % 90:02d}\n")
        assert path.stat().st_size > 4_000_000
        tracemalloc.start()
        count = sum(1 for _ in _table_rows(path, "lab", IngestionReport()))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 250_000
        assert peak < 2_000_000  # far below file size: rows never accumulate


def write_dump(directory: Path, patient_rows, lab_rows=(), nursecharting_rows=()) -> Path:
    directory.mkdir()
    for table, rows in (("patient", patient_rows), ("lab", lab_rows), ("nursecharting", nursecharting_rows)):
        write(directory / TABLE_FILES[table], [",".join(TABLE_COLUMNS[table]), *rows])
    return directory


class TestDataset:
    def test_duplicate_stay_id_is_malformed_not_kept(self, tmp_path):
        dump = write_dump(tmp_path / "d", [
            "7,1001,50,Female,Caucasian,Sepsis,Alive,2880,",
            "8,1002,45,Male,Hispanic,Trauma,Alive,1500,",
            "7,1003,60,Male,Other,CHF,Alive,600,",
        ])
        dataset = load_dataset(dump)
        assert dataset.report.rows_kept["patient"] == len(dataset.metas) == 2
        assert dataset.report.rows_malformed["patient"] == 1
        assert dataset.metas[7].patient_id == 1001
        assert "duplicate stay id 7; keeping first occurrence" in dataset.report.messages

    def test_tied_offsets_keep_demographics_then_lab_then_nursecharting(self, tmp_path):
        dump = write_dump(
            tmp_path / "d",
            ["7,1001,50,Female,Caucasian,Sepsis,Alive,120,"],
            lab_rows=["7,0,Age,51", "7,30,pH,7.1"],
            nursecharting_rows=["7,0,Age,52", "7,30,pH,7.2", "7,30,Gender,Male"],
        )
        dataset = load_dataset(dump)
        grid = build_stay_grid(dataset.metas[7], dataset.table.rows(7), normal_values())
        numeric = dict(zip(NUMERICAL_VARIABLES, grid.numeric[0]))
        assert numeric["Age"] == 52.0 and numeric["pH"] == 7.2
        assert dataset.table.strings[grid.codes[0, CATEGORICAL_VARIABLES.index("Gender")]] == "Male"
        assert dataset.record_counts == {7: 5}

    def test_bounded_retained_memory(self, small_dump):
        tracemalloc.start()
        dataset = load_dataset(small_dump)
        retained, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        kept = dataset.report.rows_kept["lab"] + dataset.report.rows_kept["nursecharting"]
        assert kept > 50_000
        assert retained / kept <= 40   # one StayTable row is 29 bytes


class TestDiagnoses:
    def test_comma_cells_split_and_normalize(self, tmp_path):
        path = write(tmp_path / "diagnosis.csv", [
            "patientunitstayid,icd9code",
            '7,"038.9, a41.9"',
            "7,038.9",
            "9,428.0",
        ])
        diagnoses = load_diagnoses(path)
        assert diagnoses[7] == frozenset({"038.9", "A41.9"})
        assert diagnoses[9] == frozenset({"428.0"})
        assert 8 not in diagnoses

    def test_fixture_corpus_counts(self, tmp_path):
        rows = ["patientunitstayid,icd9code",
                "1,100.0", "1,100.1", "2,100.0", "2,200.0", "3,300.0", "3,300.1"]
        path = write(tmp_path / "diagnosis.csv", rows)
        diagnoses = load_diagnoses(path)
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
        assert len(load_stay_meta(patient, report)) == 1
        assert len(measurements(lab, "lab", report)) == 1
        assert list(load_diagnoses(diagnosis, report)) == [7]
        assert report.rows_malformed == {"patient": 1, "lab": 1, "diagnosis": 1}

    def test_long_rows_counted_as_malformed(self, tmp_path):
        # an unquoted decimal comma splits one cell in two
        report = IngestionReport()
        patient = write(tmp_path / "patient.csv", [PATIENT_HEADER, "8,1002,45,Male,Hispanic,Trauma,Alive,1500,2000,5"])
        lab = write(tmp_path / "lab.csv", ["patientunitstayid,labresultoffset,labname,labresult", "7,95,pH,7,31"])
        diagnosis = write(tmp_path / "diagnosis.csv", ["patientunitstayid,icd9code", "7,038.9,995.91"])
        assert load_stay_meta(patient, report) == []
        assert measurements(lab, "lab", report) == []
        assert load_diagnoses(diagnosis, report) == {}
        assert report.rows_malformed == {"patient": 1, "lab": 1, "diagnosis": 1}
        assert report.rows_read == {"patient": 1, "lab": 1, "diagnosis": 1}
        assert report.rows_kept == {}

    def test_ids_and_offsets_outside_int64_are_malformed(self, tmp_path):
        # the stay table stores both as int64
        report = IngestionReport()
        patient = write(tmp_path / "patient.csv", [PATIENT_HEADER, f"{2**63},1002,45,Male,Hispanic,Trauma,Alive,1500,"])
        lab = write(tmp_path / "lab.csv", ["patientunitstayid,labresultoffset,labname,labresult",
                                           f"{2**63},95,pH,7.31", f"7,{-2**63 - 1},pH,7.3", f"7,{2**63 - 1},pH,7.3"])
        assert load_stay_meta(patient, report) == []
        assert measurements(lab, "lab", report) == [(7, "pH", 2**63 - 1, 7.3)]
        assert report.rows_malformed == {"patient": 1, "lab": 2}

    def test_patient_offsets_outside_int64_are_malformed(self, tmp_path):
        # a 25-digit unit discharge offset would give LoS labels near 7e21 days
        nines = "9" * 25
        dump = write_dump(tmp_path / "d", [
            f"7,1001,50,Female,Caucasian,Sepsis,Alive,{nines},",
            f"8,1002,45,Male,Hispanic,Trauma,Expired,1500,{nines}",
            f"9,1003,60,Male,Other,CHF,Expired,{2**63 - 1},{2**63 - 1}",   # 19 digits, inside int64
        ])
        dataset = load_dataset(dump)
        metas, report = dataset.metas, dataset.report
        assert sorted(metas) == [9]
        assert metas[9].unit_discharge_offset_minutes == metas[9].death_offset_minutes == 2**63 - 1
        assert report.rows_malformed["patient"] == 2
        assert report.rows_read["patient"] == report.rows_kept["patient"] + report.rows_malformed["patient"]
        assert f"patient row skipped: unit discharge offset {nines} out of range" in report.messages
        assert f"patient row skipped: death offset {nines} out of range" in report.messages

    def test_values_outside_their_range_are_kept_as_nan(self, tmp_path):
        # FiO2 passes as a fraction and as a percent; inf does not parse, so it is not counted as out of range
        dump = write_dump(
            tmp_path / "d",
            ["7,1001,200,Female,Caucasian,Sepsis,Alive,120,", "8,1002,inf,Male,Other,CHF,Alive,120,"],
            lab_rows=["7,1,FiO2,0.5", "7,2,FiO2,50", "7,3,FiO2,101", "7,4,Glucose,9999999999999999999999999",
                      "7,5,pH,5e-324", "7,6,pH,inf", "7,7,GCS Total,1e99"],
            nursecharting_rows=["7,8,Heart rate,-1", "7,9,Heart rate,80"],
        )
        dataset = load_dataset(dump)
        rows = dataset.table.rows(7)
        values = [None if math.isnan(x) else x for x in rows.value.tolist()]
        assert values == [None, None, None, None, 0.5, 50.0, None, None, None, None, 1e99, None, 80.0]
        assert dataset.report.rows_out_of_range == {"patient": 1, "lab": 3, "nursecharting": 1}
        assert dataset.report.rows_kept == {"patient": 2, "lab": 7, "nursecharting": 2}
        assert "out_of_range=3 " in dataset.report.render()

    def test_blank_lines_skipped_uncounted(self, tmp_path):
        report = IngestionReport()
        lab = write(tmp_path / "lab.csv",
                    ["patientunitstayid,labresultoffset,labname,labresult", "", "7,95,pH,7.31", "", "", "7,96,pH,7.3"])
        assert len(measurements(lab, "lab", report)) == 2
        assert report.rows_read == {"lab": 2} and report.rows_kept == {"lab": 2}
        assert report.rows_malformed == {} and report.messages == []

    def test_header_only_files_add_no_counters(self, tmp_path):
        report = IngestionReport()
        patient = write(tmp_path / "patient.csv", [PATIENT_HEADER])
        lab = write(tmp_path / "lab.csv", ["patientunitstayid,labresultoffset,labname,labresult"])
        diagnosis = write(tmp_path / "diagnosis.csv", ["patientunitstayid,icd9code"])
        assert load_stay_meta(patient, report) == []
        assert measurements(lab, "lab", report) == []
        assert load_diagnoses(diagnosis, report) == {}
        assert report == IngestionReport()
        assert report.render() == "ingestion report\n================\n"

    def test_render_says_how_many_messages_were_cut(self):
        report = IngestionReport(messages=[f"message {i}" for i in range(205)])
        lines = report.render().splitlines()
        assert "message 199" in lines and "message 200" not in lines
        assert lines[-1] == "5 more messages suppressed"
        assert "suppressed" not in IngestionReport(messages=["only one"]).render()
