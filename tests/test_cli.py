import json

import pytest

from icubench.cli import main
from icubench.synth import SynthConfig, generate


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

    @pytest.mark.parametrize("content", [
        None, "{not json", '{"Heart rate": "abc"}', '{"Heart rate": null}', '{"Heart rat": 80}',
    ], ids=["missing", "not-json", "text-value", "null-value", "unknown-key"])
    def test_bad_normal_values_file_is_config_error(self, tmp_path, capsys, content):
        normals = tmp_path / "normals.json"
        if content is not None:
            normals.write_text(content, encoding="utf-8")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"task=los\ndata_dir={tmp_path}\nnormal_values_file={normals}\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert str(normals) in capsys.readouterr().err


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

    def test_config_file_with_flag_override(self, small_dump, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"task=los\nmodel=lr\ndata_dir={small_dump}\nfolds=3\nepochs=1\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["config"]["epochs"] == 1

    def test_missing_task_is_config_error(self, small_dump, tmp_path):
        assert main(["run", "--data-dir", str(small_dump), "--out", str(tmp_path / "o")]) == 2

    def test_missing_data_dir_is_data_error(self, tmp_path):
        assert main(["run", "--task", "los", "--data-dir", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_unknown_task_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--task", "nonsense", "--data-dir", ".", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2


class TestCompareCommand:
    def test_unreadable_report_is_data_error(self, tmp_path):
        missing = tmp_path / "missing.json"
        assert main(["compare", str(missing), str(missing)]) == 3
