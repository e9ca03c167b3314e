import csv
import dataclasses
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icubench import cli, ingestion
from icubench.cli import _build_parser, main
from icubench.experiment import ExperimentConfig
from icubench.ingestion import TABLE_FILES, load_dataset
from icubench.preprocessing import build_vocabs, categorical_index
from icubench.synth import SynthConfig, generate

#: Cell contents that sit on the edge of what int() and float() accept.
EDGE_TOKENS = ("", "nan", "inf", "1e400", "5e-324", "9" * 25, "-" + "9" * 25, "> 89", "1_000", "0x10", "Größe µ°")


class TestSynthCommand:
    def test_writes_tables(self, tmp_path, capsys):
        code = main(["synth", "--patients", "25", "--seed", "3", "--out", str(tmp_path / "d"),
                     "--hours-min", "10", "--hours-max", "20"])
        assert code == 0
        for name in ("patient.csv", "lab.csv", "nurseCharting.csv", "diagnosis.csv", "phenotype_map.csv"):
            assert (tmp_path / "d" / name).exists()
        assert "wrote" in capsys.readouterr().out

    def test_bad_rate_is_config_error(self, tmp_path):
        code = main(["synth", "--patients", "10", "--out", str(tmp_path / "d"), "--mortality-rate", "2.0"])
        assert code == 2

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        assert main(["synth", "--patients", "10", "--seed", "-1", "--out", str(tmp_path / "d")]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--patients", "1_0"), ("--seed", "３"), ("--hours-max", "7_2"),
                                             ("--signal", "1_0.5"), ("--missingness", "nan")])
    def test_synth_flags_follow_the_number_rule(self, tmp_path, capsys, flag, value):
        # int() and float() read the first four as 10, 3, 72 and 10.5
        args = {"--patients": "10", flag: value}
        with pytest.raises(SystemExit) as exc:
            main(["synth", *(item for pair in args.items() for item in pair), "--out", str(tmp_path / "d")])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_every_synth_config_field_is_a_flag(self, tmp_path, monkeypatch):
        # every field is set off its default, so a field without a flag, or a flag not passed on, fails here
        want = SynthConfig(n_patients=7, hours_range=(3, 5), missingness=0.2, mortality_rate=0.3, decomp_rate=0.1,
                           signal_strength=2.0, seed=4, underage_fraction=0.05, sparse_fraction=0.06,
                           multi_stay_fraction=0.07)
        assert all(getattr(want, f.name) != f.default for f in dataclasses.fields(SynthConfig))
        seen = []
        monkeypatch.setattr(cli, "generate", lambda cfg, out: seen.append(cfg) or {})
        assert main(["synth", "--patients", "7", "--hours-min", "3", "--hours-max", "5", "--missingness", "0.2",
                     "--mortality-rate", "0.3", "--decomp-rate", "0.1", "--signal", "2", "--seed", "4",
                     "--underage-fraction", "0.05", "--sparse-fraction", "0.06", "--multi-stay-fraction", "0.07",
                     "--out", str(tmp_path / "d")]) == 0
        assert seen == [want]


class TestCohortCommand:
    def test_prints_audit(self, small_dump, capsys):
        assert main(["cohort", "--data-dir", str(small_dump)]) == 0
        out = capsys.readouterr().out
        assert "cohort report" in out and "ingestion report" in out

    def test_writes_audit_files(self, small_dump, tmp_path):
        assert main(["cohort", "--data-dir", str(small_dump), "--out", str(tmp_path / "audit")]) == 0
        assert (tmp_path / "audit" / "cohort_report.txt").exists()
        assert (tmp_path / "audit" / "ingestion_report.txt").exists()

    def test_audit_files_match_those_of_run(self, small_dump, tmp_path):
        assert main(["cohort", "--data-dir", str(small_dump), "--out", str(tmp_path / "audit")]) == 0
        assert main(["run", "--task", "los", "--model", "lr", "--data-dir", str(small_dump),
                     "--folds", "3", "--epochs", "1", "--out", str(tmp_path / "run")]) == 0
        for name in ("ingestion_report.txt", "cohort_report.txt"):
            assert (tmp_path / "audit" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


class TestBadInput:
    @pytest.fixture
    def tiny_dump(self, tmp_path):
        generate(SynthConfig(n_patients=30, seed=5), tmp_path / "d")
        return tmp_path / "d"

    def test_short_row_is_counted_not_fatal(self, tiny_dump, capsys):
        with open(tiny_dump / "nurseCharting.csv", "a", encoding="utf-8") as fh:
            fh.write("123\n")
        assert main(["cohort", "--data-dir", str(tiny_dump)]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("nursecharting"))
        assert line.endswith("malformed=1")

    def test_undecodable_byte_is_data_error(self, tiny_dump, capsys):
        with open(tiny_dump / "lab.csv", "ab") as fh:
            fh.write(b"7,95,pH,7.3\xff\n")
        assert main(["cohort", "--data-dir", str(tiny_dump)]) == 3
        assert "lab.csv" in capsys.readouterr().err

    def test_unterminated_quote_is_data_error(self, tiny_dump, capsys):
        # the open quote runs the cell on past csv's 128 KB field size limit
        lab = tiny_dump / "lab.csv"
        header, rows = lab.read_text(encoding="utf-8").split("\n", 1)
        lab.write_text(header + '\n7,95,pH,"7.31\n' + rows * (1 + 200_000 // len(rows)), encoding="utf-8")
        assert main(["cohort", "--data-dir", str(tiny_dump)]) == 3
        err = capsys.readouterr().err
        assert "lab.csv: unreadable CSV after line" in err and "field larger than field limit" in err

    def test_record_over_several_lines_is_data_error(self, tiny_dump, capsys):
        # an open quote with little after it used to swallow the rest of the file into one cell
        lab = tiny_dump / "lab.csv"
        lines = lab.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(len(lines) - 50, '100001,95,pH,"7.31\n')
        lab.write_text("".join(lines), encoding="utf-8")
        assert main(["cohort", "--data-dir", str(tiny_dump)]) == 3
        err = capsys.readouterr().err
        assert f"lab.csv: the record starting on line {len(lines) - 50} runs on to line {len(lines)}" in err

    @pytest.mark.parametrize("filename, record", [
        ("patient.csv", '100999,1999,"57,Male,Other,CHF,Alive,600,\n'),
        ("diagnosis.csv", '100001,"038.9\n'),
    ], ids=["patient", "diagnosis"])
    def test_patient_or_diagnosis_record_over_several_lines_is_data_error(self, tiny_dump, capsys, filename, record):
        # the open quote used to swallow rows up to the next quote, uncounted
        path = tiny_dump / filename
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(len(lines) - 10, record)
        path.write_text("".join(lines), encoding="utf-8")
        assert main(["cohort", "--data-dir", str(tiny_dump)]) == 3
        err = capsys.readouterr().err
        assert f"{filename}: the record starting on line {len(lines) - 10} runs on to line" in err

    def test_config_file_that_is_not_utf8_is_config_error(self, tiny_dump, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"task=los\nmodel=lr\n# caf\xe9\n")
        assert main(["run", "--config", str(cfg), "--data-dir", str(tiny_dump), "--out", str(tmp_path / "o")]) == 2
        assert str(cfg) in capsys.readouterr().err

    def test_phenotype_map_that_is_not_utf8_is_data_error(self, tiny_dump, tmp_path, capsys):
        with open(tiny_dump / "phenotype_map.csv", "ab") as fh:
            fh.write(b"038.9\xff,2\n")
        assert main(["run", "--task", "phenotyping", "--model", "lr", "--data-dir", str(tiny_dump),
                     "--folds", "2", "--epochs", "1", "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert f"cannot read phenotype map {tiny_dump / 'phenotype_map.csv'}" in err and "can't decode" in err

    def test_only_phenotyping_reads_the_phenotype_map(self, tiny_dump, tmp_path, capsys):
        # every task used to read the map, so an undecodable one failed a mortality run too
        with open(tiny_dump / "phenotype_map.csv", "ab") as fh:
            fh.write(b"038.9\xff,2\n")
        assert main(["run", "--task", "mortality24", "--model", "lr", "--data-dir", str(tiny_dump),
                     "--folds", "2", "--epochs", "1", "--out", str(tmp_path / "o")]) == 0
        assert "phenotype" not in capsys.readouterr().err

    def test_cohort_and_run_name_a_missing_table_alike(self, tiny_dump, tmp_path, capsys):
        (tiny_dump / "lab.csv").unlink()
        assert main(["cohort", "--data-dir", str(tiny_dump)]) == 3
        assert f"data error: missing input table {tiny_dump / 'lab.csv'}" in capsys.readouterr().err
        assert main(["run", "--task", "los", "--model", "lr", "--data-dir", str(tiny_dump),
                     "--out", str(tmp_path / "o")]) == 3
        assert f"data error: missing input table {tiny_dump / 'lab.csv'}" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["038.9,２", "785.5,1_0", "038.9,\u30005", "785.5,7\u00a0"])
    def test_category_index_breaking_the_number_rule_is_data_error(self, tiny_dump, tmp_path, capsys, line):
        # int() read these as categories 2 and 10; str.strip() took the ideographic and no-break spaces
        # from the last two, so they read as 5 and 7
        (tiny_dump / "phenotype_map.csv").write_text(f"icd9code,category_index\n{line}\n", encoding="utf-8")
        assert main(["run", "--task", "phenotyping", "--model", "lr", "--data-dir", str(tiny_dump),
                     "--folds", "2", "--epochs", "1", "--out", str(tmp_path / "o")]) == 3
        assert f"phenotype_map.csv:2: bad category index {line.split(',')[1]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        None, "{not json", '{"Heart rate": "abc"}', '{"Heart rate": null}', '{"Heart rat": 80}',
        '{"Heart rate": true}', '{"Heart rate": 1%s}' % ("0" * 400), '{"Heart rate": "1_0"}',
        '{"Heart rate": "８０"}', '{"Heart rate": -5}',
    ], ids=["missing", "not-json", "text-value", "null-value", "unknown-key", "bool-value", "huge-int",
            "separator", "full-width", "out-of-range"])
    def test_bad_normal_values_file_is_config_error(self, tmp_path, capsys, content):
        # a 401-digit int used to exit 4 (float() overflows); "1_0", "８０" and -5 were taken as 10, 80 and -5
        normals = tmp_path / "normals.json"
        if content is not None:
            normals.write_text(content, encoding="utf-8")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"task=los\ndata_dir={tmp_path}\nnormal_values_file={normals}\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert str(normals) in capsys.readouterr().err


    @pytest.fixture
    def a_file(self, tmp_path):
        path = tmp_path / "a_file"
        path.write_text("", encoding="utf-8")
        return path

    def test_synth_out_that_is_a_file_is_config_error(self, a_file, capsys):
        assert main(["synth", "--patients", "5", "--out", str(a_file)]) == 2
        assert f"config error: cannot write output {a_file}: [Errno 17] File exists" in capsys.readouterr().err

    def test_cohort_out_under_a_file_is_config_error(self, tiny_dump, a_file, capsys):
        out = a_file / "audit"
        assert main(["cohort", "--data-dir", str(tiny_dump), "--out", str(out)]) == 2
        assert f"config error: cannot write output {out}: [Errno 20] Not a directory" in capsys.readouterr().err

    def test_run_out_that_is_a_file_is_config_error_before_any_work(self, tiny_dump, a_file, capsys, monkeypatch):
        # the run used to train every fold and then fail writing its reports
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("run_experiment was called"))
        assert main(["run", "--task", "los", "--model", "lr", "--data-dir", str(tiny_dump),
                     "--out", str(a_file)]) == 2
        assert f"config error: cannot write output {a_file}: [Errno 17] File exists" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_compare_out_that_cannot_be_written_is_config_error(self, tmp_path, capsys, where):
        report = tmp_path / "report.json"
        folds = [{"metrics": {"mae": 1.0}}, {"metrics": {"mae": 2.0}}]
        report.write_text(json.dumps({"task": "los", "seed": 1, "folds": folds, "aggregate": {"mae": {}}}),
                          encoding="utf-8")
        out = tmp_path / "missing" / "table.txt" if where == "missing-dir" else tmp_path
        assert main(["compare", str(report), str(report), "--out", str(out)]) == 2
        assert f"config error: cannot write output {out}: " in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()


class TestEdgeTokenFuzz:
    """Edge tokens in cells of all four tables: a run ends with exit 0 or 3, and every row is counted once."""

    @pytest.fixture(scope="class", params=[1, 2, 3])
    def fuzzed_dump(self, request, tmp_path_factory):
        dump = tmp_path_factory.mktemp("fuzz") / "d"
        generate(SynthConfig(n_patients=40, seed=2, hours_range=(24, 60), signal_strength=1.5), dump)
        rng = np.random.default_rng(request.param)
        for table, name in TABLE_FILES.items():
            with open(dump / name, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            for token in EDGE_TOKENS:
                # each token once per column of the row tables, once in a random cell of the patient table
                columns = [int(rng.integers(len(header)))] if table == "patient" else range(len(header))
                for column in columns:
                    rows[int(rng.integers(len(rows)))][column] = token
            if table == "lab":
                rows[4][3] = "9" * 25   # a Glucose value that used to overflow float32 training
            with open(dump / name, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        return dump

    def test_every_row_is_counted_once(self, fuzzed_dump):
        report = load_dataset(fuzzed_dump).report
        assert set(report.rows_read) == set(TABLE_FILES)
        for table, read in report.rows_read.items():
            kept = report.rows_kept.get(table, 0)
            assert read == kept + report.rows_unmapped_variable.get(table, 0) + report.rows_malformed.get(table, 0)
            assert report.rows_out_of_range.get(table, 0) <= kept
        assert report.rows_out_of_range["lab"] and report.rows_out_of_range["nursecharting"]

    def test_no_stay_is_read_through_a_digit_separator(self, fuzzed_dump):
        # int() read the 1_000 token in a stay-id cell as a stay 1000 that the patient table lacks
        dataset = load_dataset(fuzzed_dump)
        assert 1000 not in dataset.table.stay and 1000 not in dataset.diagnoses

    @pytest.fixture(scope="class")
    def fuzzed_table(self, fuzzed_dump):
        return load_dataset(fuzzed_dump).table

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_vocabs_from_the_categorical_index_equal_vocabs_from_the_table(self, fuzzed_table, data):
        # a malformed patient row leaves its stay's measurement rows in the table without demographic rows
        index = categorical_index(fuzzed_table)
        every = set(fuzzed_table.stay.tolist())
        drawn = data.draw(st.sets(st.sampled_from(sorted(every))))
        for stays in (drawn, every - drawn):
            want, got = build_vocabs(fuzzed_table, stays), build_vocabs(index, stays)
            assert got.values == want.values
            assert np.array_equal(got.remap, want.remap)
            assert got.source_stays == want.source_stays

    def test_a_small_cache_bound_reads_the_same_dataset(self, fuzzed_dump, monkeypatch):
        # stay_table's per-text caches are emptied at CACHE_ENTRIES entries; emptying them at every
        # third text must read the same table, counters and messages
        want = load_dataset(fuzzed_dump)
        monkeypatch.setattr(ingestion, "CACHE_ENTRIES", 2)
        got = load_dataset(fuzzed_dump)
        for column in ("stay", "offset", "variable", "value", "code"):
            assert getattr(got.table, column).tobytes() == getattr(want.table, column).tobytes()
        assert got.table.strings == want.table.strings
        assert got.record_counts == want.record_counts
        assert got.report == want.report
        cache = ingestion._TextCache(str.upper)
        assert [cache[text] for text in "abcab"] == list("ABCAB") and len(cache) <= 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")   # an overflow in training is not a clean exit 0
    @pytest.mark.parametrize("task, model", [("mortality24", "lr"), ("decompensation", "lr"), ("los", "ann"),
                                             ("los", "lr"), ("phenotyping", "lr")])
    def test_run_exits_0_or_3(self, fuzzed_dump, tmp_path, task, model):
        assert main(["run", "--task", task, "--model", model, "--data-dir", str(fuzzed_dump),
                     "--folds", "2", "--epochs", "1", "--out", str(tmp_path / "o")]) in (0, 3)


class TestImplausibleOffset:
    def test_discharge_offset_beyond_the_plausible_range_is_malformed(self, tmp_path):
        # 2**63 - 1 minutes fits int64; kept, it gave an aggregate LoS MAE of 1.46e15 days
        dump = tmp_path / "d"
        generate(SynthConfig(n_patients=40, seed=2, hours_range=(24, 60), signal_strength=1.5), dump)
        with open(dump / TABLE_FILES["patient"], newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        row = next(r for r in rows if r[header.index("patientunitstayid")] == "100016")
        row[header.index("unitdischargeoffset")] = str(2**63 - 1)
        with open(dump / TABLE_FILES["patient"], "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        report = load_dataset(dump).report
        assert report.rows_malformed["patient"] == 1
        assert f"patient row skipped: unit discharge offset {2**63 - 1} out of range" in report.messages
        out = tmp_path / "o"
        assert main(["run", "--task", "los", "--model", "lr", "--data-dir", str(dump),
                     "--folds", "2", "--epochs", "1", "--out", str(out)]) == 0
        mae = json.loads((out / "report.json").read_text(encoding="utf-8"))["aggregate"]["mae"]["mean"]
        assert mae < 100.0   # days


class TestRunCommand:
    def test_run_and_compare_roundtrip(self, small_dump, tmp_path, capsys):
        out_a = tmp_path / "a"
        code = main(["run", "--task", "los", "--model", "lr", "--data-dir", str(small_dump),
                     "--folds", "3", "--seed", "2", "--epochs", "2", "--out", str(out_a)])
        assert code == 0
        report = json.loads((out_a / "report.json").read_text(encoding="utf-8"))
        assert report["task"] == "los"
        assert (out_a / "report.txt").exists()

        out_b = tmp_path / "b"
        assert main(["run", "--task", "los", "--model", "ann", "--data-dir", str(small_dump),
                     "--folds", "3", "--seed", "2", "--epochs", "2", "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert main(["compare", str(out_a / "report.json"), str(out_b / "report.json")]) == 0
        assert "metric" in capsys.readouterr().out

    def test_same_seed_reports_match_across_string_hash_seeds(self, tmp_path):
        # criterion 8 runs twice in one process, where every run shares one string hash seed
        dump = tmp_path / "d"
        generate(SynthConfig(n_patients=60, seed=4, hours_range=(24, 60), signal_strength=1.5), dump)
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = []
        for hash_seed in ("0", "1"):
            outs.append(tmp_path / f"o{hash_seed}")
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-m", "icubench.cli", "run", "--task", "phenotyping", "--model", "lr",
                            "--data-dir", str(dump), "--folds", "2", "--epochs", "1", "--out", str(outs[-1])],
                           env=env, capture_output=True, check=True, timeout=300)
        for name in ("report.json", "ingestion_report.txt", "cohort_report.txt"):
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name

    def test_every_run_flag_is_a_config_key(self):
        # run passes each parsed flag on by its dest, so a flag without a config field would be an error
        flags = set(vars(_build_parser().parse_args(["run"]))) - {"command", "config"}
        assert flags <= {f.name for f in dataclasses.fields(ExperimentConfig)} and "out_dir" in flags

    def test_config_file_with_flag_override(self, small_dump, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"task=los\nmodel=lr\ndata_dir={small_dump}\nfolds=3\nepochs=1\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["config"]["epochs"] == 1

    def test_negative_seed_is_config_error(self, small_dump, tmp_path, capsys):
        code = main(["run", "--task", "los", "--model", "lr", "--data-dir", str(small_dump), "--seed", "-1",
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_missing_task_is_config_error(self, small_dump, tmp_path):
        assert main(["run", "--data-dir", str(small_dump), "--out", str(tmp_path / "o")]) == 2

    def test_missing_data_dir_is_data_error(self, tmp_path):
        assert main(["run", "--task", "los", "--data-dir", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("flag, value", [("--folds", "３"), ("--epochs", "1_0"), ("--seed", "٣")])
    def test_number_flags_follow_the_number_rule(self, tmp_path, capsys, flag, value):
        # int() reads these as 3, 10 and 3
        with pytest.raises(SystemExit) as exc:
            main(["run", "--task", "los", flag, value, "--data-dir", ".", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_unknown_task_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--task", "nonsense", "--data-dir", ".", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2


class TestCompareCommand:
    def test_huge_fold_values_keep_the_columns_aligned(self, tmp_path, capsys):
        # a mean of 5e199 in .4f is a 200-digit number, which would push the row's later cells out of line
        paths = []
        for name, values in (("a", [1e200, 1.0]), ("b", [1e300, 1e300])):
            paths.append(tmp_path / f"{name}.json")
            folds = [{"metrics": {"mae": value}} for value in values]
            paths[-1].write_text(json.dumps({"task": "los", "seed": 1, "folds": folds, "aggregate": {"mae": {}}}),
                                 encoding="utf-8")
        assert main(["compare", *map(str, paths)]) == 0
        header, row = capsys.readouterr().out.splitlines()
        for start in (24, 36, 48, 60, 72):   # every cell ends at least one space before the next column
            assert header[start - 1] == row[start - 1] == " " and row[start] != " "

    def test_unreadable_report_is_data_error(self, tmp_path):
        missing = tmp_path / "missing.json"
        assert main(["compare", str(missing), str(missing)]) == 3
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"task": "\xe9"}')
        assert main(["compare", str(not_utf8), str(not_utf8)]) == 3

    @pytest.mark.parametrize("content", [
        "{}",
        "[1, 2]",
        '{"task": "los", "seed": 1, "folds": []}',
        '{"task": "los", "seed": 1, "folds": 3, "aggregate": {}}',
        '{"task": "los", "seed": 1, "folds": [{"metrics": {"mae": 1.0}}, {}], "aggregate": {}}',
        '{"task": "los", "seed": 1, "folds": [{"metrics": {"mae": "x"}}, {"metrics": {"mae": 1.0}}], "aggregate": {"mae": {}}}',
        '{"task": "los", "seed": 1, "folds": [{"metrics": {"mae": [1]}}, {"metrics": {"mae": 1.0}}], "aggregate": {"mae": {}}}',
        '{"task": "los", "seed": 1, "folds": [{"metrics": {"mae": true}}, {"metrics": {"mae": 1.0}}], "aggregate": {"mae": {}}}',
        '{"task": "los", "seed": 1, "folds": [{"metrics": {"mae": 1e400}}, {"metrics": {"mae": 1.0}}], "aggregate": {"mae": {}}}',
    ], ids=["empty-object", "list", "no-aggregate", "folds-not-a-list", "fold-without-metrics",
            "text-metric", "list-metric", "bool-metric", "infinite-metric"])
    def test_json_that_is_not_a_report_is_data_error(self, tmp_path, capsys, content):
        path = tmp_path / "other.json"
        path.write_text(content, encoding="utf-8")
        assert main(["compare", str(path), str(path)]) == 3
        err = capsys.readouterr().err
        assert str(path) in err and "not a report" in err
