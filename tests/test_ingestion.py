import math
import tracemalloc
from pathlib import Path

import pytest

from icubench.errors import SchemaError
from icubench.ingestion import (
    DEFAULT_VARIABLE_MAP,
    MAX_MESSAGES,
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
from icubench.schema import (
    CATEGORICAL_VARIABLES,
    NUMERICAL_VARIABLES,
    PATIENT_OFFSET_RANGE_MINUTES,
    VARIABLES,
    DischargeStatus,
    normal_values,
)
from icubench.synth import SynthConfig, generate

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

    def test_only_ascii_digit_patient_ids_read_as_ints(self):
        # int() reads full-width and Arabic-Indic digits too, which made "１２" the patient 12
        assert parse_patient_id(" 12 ") == 12
        assert parse_patient_id("１２") != 12 and parse_patient_id("١٢") != 12
        assert parse_patient_id("１２") == parse_patient_id("１２")


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
        grid = build_stay_grid(dataset.table.rows(7), 1, normal_values())
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
            "9,1003,60,Male,Other,CHF,Expired,1500,2000",
        ])
        dataset = load_dataset(dump)
        metas, report = dataset.metas, dataset.report
        assert sorted(metas) == [9]
        assert (metas[9].unit_discharge_offset_minutes, metas[9].death_offset_minutes) == (1500, 2000)
        assert report.rows_malformed["patient"] == 2
        assert report.rows_read["patient"] == report.rows_kept["patient"] + report.rows_malformed["patient"]
        assert f"patient row skipped: unit discharge offset {nines} out of range" in report.messages
        assert f"patient row skipped: death offset {nines} out of range" in report.messages

    def test_patient_offsets_outside_their_plausible_range_are_malformed(self, tmp_path):
        # 2**63 - 1 minutes fits int64 but gave remaining-LoS labels near 6e15 days
        lo, hi = PATIENT_OFFSET_RANGE_MINUTES
        dump = write_dump(tmp_path / "d", [
            f"7,1001,50,Female,Caucasian,Sepsis,Alive,{2**63 - 1},",
            f"8,1002,45,Male,Hispanic,Trauma,Expired,1500,{2**63 - 1}",
            f"9,1003,60,Male,Other,CHF,Expired,1500,{lo - 1}",
            f"10,1004,60,Male,Other,CHF,Alive,{hi + 1},",
            f"11,1005,70,Male,Other,CHF,Expired,{hi},{hi}",
            f"12,1006,70,Female,Other,CHF,Expired,60,{lo}",
        ])
        dataset = load_dataset(dump)
        metas, report = dataset.metas, dataset.report
        assert sorted(metas) == [11, 12]
        assert (metas[11].unit_discharge_offset_minutes, metas[11].death_offset_minutes) == (hi, hi)
        assert report.rows_malformed["patient"] == 4
        assert report.rows_read["patient"] == report.rows_kept["patient"] + report.rows_malformed["patient"]
        for message in (f"unit discharge offset {2**63 - 1} out of range", f"death offset {2**63 - 1} out of range",
                        f"death offset {lo - 1} out of range", f"unit discharge offset {hi + 1} out of range"):
            assert f"patient row skipped: {message}" in report.messages

    def test_ids_and_offsets_with_a_separator_or_non_ascii_are_malformed(self, tmp_path):
        # int() reads 1_00016 as 100016 and ７ as 7, which attached such rows to real stays
        dump = write_dump(tmp_path / "d", [
            "1_00016,1001,50,Female,Caucasian,Sepsis,Alive,1500,",
            "７,1002,50,Female,Caucasian,Sepsis,Alive,1500,",
            "8,1003,45,Male,Hispanic,Trauma,Alive,1_500,",
            "9,1004,60,Male,Other,CHF,Expired,1500,２000",
            " +7 ,1005,60,Male,Other,CHF,Expired, 1500 ,+2000",
        ], lab_rows=["1_00016,95,pH,7.31", "７,95,pH,7.31", "7,6_0,pH,7.31", "7,\u00a060,pH,7.31",
                      " 7 ,+95,pH,7.31", "7,-5,pH,7.2"])
        (tmp_path / "d" / TABLE_FILES["diagnosis"]).write_text(
            "patientunitstayid,icd9code\n1_000,038.9\n７,038.9\n7,038.9\n", encoding="utf-8")
        dataset = load_dataset(dump)
        report = dataset.report
        assert sorted(dataset.metas) == [7]
        assert (dataset.metas[7].unit_discharge_offset_minutes, dataset.metas[7].death_offset_minutes) == (1500, 2000)
        assert report.rows_malformed == {"patient": 4, "lab": 4, "diagnosis": 2}
        assert report.rows_kept == {"patient": 1, "lab": 2, "diagnosis": 1}
        assert set(dataset.table.stay.tolist()) == {7}
        assert sorted(dataset.table.offset[dataset.table.variable == VARIABLES.index("pH")].tolist()) == [-5, 95]
        for message in ("stay id '1_00016' is not an ASCII integer", "stay id '７' is not an ASCII integer",
                        "unit discharge offset '1_500' is not an ASCII integer",
                        "death offset '２000' is not an ASCII integer"):
            assert f"patient row skipped: {message}" in report.messages

    def test_offset_range_contains_every_synthetic_offset(self, tmp_path):
        # the longest stays a shipped config asks for: the ingest-lr benchmark dump goes up to 168 h
        generate(SynthConfig(n_patients=300, hours_range=(150, 168), seed=4), tmp_path / "d")
        report = load_dataset(tmp_path / "d").report
        assert report.rows_read["patient"] == report.rows_kept["patient"]
        assert report.rows_malformed.get("patient", 0) == 0

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

    def test_a_bad_id_or_offset_text_is_malformed_each_time_it_appears(self, tmp_path):
        # each distinct cell text is parsed once; a bad text read from the cache still counts its row
        report = IngestionReport()
        lab = write(tmp_path / "lab.csv", ["patientunitstayid,labresultoffset,labname,labresult",
                                           "1_00016,95,pH,7.31", "7,1_00016,pH,7.31", "7,95,pH,7.3",
                                           "1_00016,95,pH,7.31", "7,1_00016,pH,7.2", "7,95,pH,1_0.5"])
        assert measurements(lab, "lab", report) == [(7, "pH", 95, 7.3), (7, "pH", 95, None)]
        assert report.rows_malformed == {"lab": 4} and report.rows_kept == {"lab": 2}

    def test_ragged_rows_keep_the_messages_they_render(self, tmp_path):
        # every ragged row used to keep a message string, though render prints only MAX_MESSAGES
        report = IngestionReport()
        lab = write(tmp_path / "lab.csv", ["patientunitstayid,labresultoffset,labname,labresult",
                                           *(["7,95,pH"] * 10_000), "7,95,pH,7.3"])
        assert len(measurements(lab, "lab", report)) == 1
        assert report.rows_malformed == {"lab": 10_000}
        assert len(report.messages) <= MAX_MESSAGES
        every = [f"lab line {line} skipped: not 4 cells" for line in range(2, 10_002)]
        assert report.render() == IngestionReport(report.rows_read, report.rows_kept, messages=every,
                                                  rows_malformed=report.rows_malformed).render()

    def test_ragged_rows_past_the_cap_format_no_message(self, tmp_path):
        # every ragged row used to format its message, though the report keeps only MAX_MESSAGES
        formatted = []

        class Table(str):   # the table name, counting the messages that format it
            def __format__(self, spec):
                formatted.append(spec)
                return super().__format__(spec)

        report = IngestionReport()
        lab = write(tmp_path / "lab.csv", ["patientunitstayid,labresultoffset,labname,labresult",
                                           *(["7,95,pH"] * 10_000)])
        assert list(_table_rows(lab, Table("lab"), report)) == []
        assert report.rows_malformed == {"lab": 10_000} and report.messages_cut == 10_000 - MAX_MESSAGES
        assert 0 < len(formatted) <= MAX_MESSAGES

    def test_render_says_how_many_messages_were_cut(self):
        report = IngestionReport(messages=[f"message {i}" for i in range(205)])
        lines = report.render().splitlines()
        assert "message 199" in lines and "message 200" not in lines
        assert lines[-1] == "5 more messages suppressed"
        assert "suppressed" not in IngestionReport(messages=["only one"]).render()
