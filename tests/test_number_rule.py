"""One number rule for every reader that turns input into a number.

Text is a number when it is ASCII, holds no ``_`` and ``float()`` reads it
as a finite value; it is an integer when ``int()`` reads it under the same
ASCII rule.  A JSON value is a number when it is an int or a float, not a
bool, that a float holds finitely.  Every reader (the schema parsers, the
patient id, config values, the phenotype index, normal values, the command
line flags and compare's report reader) must accept exactly those values,
and no drawn value may end a command with exit 4.
"""

import contextlib
import io
import json
import math
import sys

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from icubench.cli import _build_parser, main
from icubench.errors import ConfigError, DataError
from icubench.experiment import _coerce
from icubench.ingestion import parse_patient_id
from icubench.phenotypes import N_PHENOTYPES, PhenotypeCatalog
from icubench.schema import VALID_RANGES, normal_values, parse_age, parse_float, parse_int, parse_value

DIGITS = "0123456789０１２３４５６７８９٣"
SPACES = " \t\u3000\u00a0"   # int() and float() strip all four; the rule accepts only ASCII whitespace
TOKENS = ("nan", "inf", "-inf", "Infinity", "1e400", "9" * 401, "true", "false")
TEXT = st.lists(st.one_of(st.sampled_from(DIGITS + SPACES + "_+-.eE"), st.sampled_from(TOKENS)),
                max_size=8).map("".join)
JSON_VALUES = st.one_of(st.booleans(), st.none(), st.integers(-10**420, 10**420), st.integers(-500, 500),
                        st.floats(allow_nan=True, allow_infinity=True), TEXT)
HEART_RATE = VALID_RANGES["Heart rate"]


def number(text: str):
    """The text's number by the rule, or None."""
    if "_" in text or not text.isascii():
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def integer(text: str):
    """The text's integer by the rule, or None."""
    if "_" in text or not text.isascii():
        return None
    try:
        return int(text)
    except ValueError:
        return None


def json_number(value):
    """The JSON value's number by the rule, or None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        return None
    return float(value)


def accepts(read, *args) -> bool:
    try:
        read(*args)
    except (ValueError, ConfigError, DataError):
        return False
    return True


def parses(argv) -> bool:
    """Whether the command line parser takes argv; it exits 2 on a value its type rejects."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            _build_parser().parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return False
    return True


def in_heart_rate_range(value) -> bool:
    return value is not None and HEART_RATE[0] <= value <= HEART_RATE[1]


def run_with_normal_value(tmp_path, value) -> int:
    """Exit code of `run` on a normal_values_file of {"Heart rate": value}, the data dir missing."""
    normals = tmp_path / "normals.json"
    normals.write_text(json.dumps({"Heart rate": value}), encoding="utf-8")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"task=los\ndata_dir={tmp_path / 'nope'}\nnormal_values_file={normals}\n", encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()):
        return main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])


RULE_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@RULE_SETTINGS
@given(text=st.one_of(TEXT, TEXT.map(">".__add__)))
@example(text="1_0")
@example(text="８０")
@example(text="-5")
@example(text=" +1e2 ")
@example(text="9" * 401)
@example(text="7\u00a0")
@example(text="5\u00a0")
@example(text="> 89")
@example(text="\u3000> 89")
@example(text="> 89\u00a0")
def test_every_text_reader_follows_the_one_rule(tmp_path, text):
    value, whole = number(text), integer(text)
    age = value   # '>' is drawn only first: an age reads as any other value, or masked, as 90 exactly after 89
    if text.startswith(">"):
        age = 90.0 if parse_value(text[1:]) == 89 else None
    for read, want in ((parse_value, value), (parse_age, age)):
        assert read(text) == want if want is not None else math.isnan(read(text))
    assert accepts(parse_float, text) == (value is not None)
    assert accepts(parse_int, text) == (whole is not None)
    if whole is not None:
        assert parse_int(text) == whole
    # a patient id is a key, not a number: it is stripped of Unicode whitespace (so "5\u00a0" is patient 5),
    # reads as an int when the rest is ASCII digits, and is hashed otherwise
    key = text.strip()
    digits = key.isascii() and key.isdigit()
    assert parse_patient_id(text) == int(key) if digits else parse_patient_id(text) != whole
    assert accepts(_coerce, "int", "epochs", text) == (whole is not None)
    assert accepts(_coerce, "float", "learning_rate", text) == (value is not None)

    phenotype_map = tmp_path / "phenotype_map.csv"
    phenotype_map.write_text(f"icd9code,category_index\n038.9,{text}\n", encoding="utf-8")
    assert accepts(PhenotypeCatalog.from_file, phenotype_map) == (whole is not None and 0 <= whole < N_PHENOTYPES)

    assert accepts(normal_values, {"Heart rate": text}) == in_heart_rate_range(value)
    if in_heart_rate_range(value):
        assert normal_values({"Heart rate": text})[0] == value

    assert parses(["run", "--task", "los", f"--epochs={text}"]) == (whole is not None)
    assert parses(["synth", "--out", "d", f"--patients={text}"]) == (whole is not None)
    assert parses(["synth", "--patients", "1", "--out", "d", f"--signal={text}"]) == (value is not None)

    cfg = tmp_path / "exp.cfg"
    for key, read in (("epochs", integer), ("learning_rate", number)):
        cfg.write_text(f"task=los\n{key}={text}\ndata_dir={tmp_path / 'nope'}\n", encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2 if read(text) is None else code in (2, 3)   # 2 also for a number out of its range


@RULE_SETTINGS
@given(value=JSON_VALUES)
@example(value=10**400)
@example(value=True)
@example(value=-5)
@example(value="1_0")
@example(value=float("nan"))
@example(value=1e300)
def test_every_json_reader_follows_the_one_rule(tmp_path, value):
    want = number(value) if isinstance(value, str) else json_number(value)
    accepted = in_heart_rate_range(want)
    assert accepts(normal_values, {"Heart rate": value}) == accepted
    assert run_with_normal_value(tmp_path, value) == (3 if accepted else 2)   # 3: the data dir is missing

    # compare's reader checks every fold metric, and compare t-tests the drawn mae against folds of 0.5 and 0.7
    reports = []
    for name, mae in (("a", value), ("b", 0.7)):
        reports.append(tmp_path / f"{name}.json")
        folds = [{"metrics": {"mae": 0.5}}, {"metrics": {"mae": mae}}]
        reports[-1].write_text(json.dumps({"task": "los", "seed": 1, "folds": folds, "aggregate": {"mae": {}}}),
                               encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["compare", *map(str, reports)])
    assert code == (0 if value is None or (json_number(value) is not None) else 3)

