"""Property test: bin_hourly equals the reference binning on generated record lists.

The records reach bin_hourly through stay_table, the row-to-column step
load_dataset uses, so parsing and interning are under test too.

The generated lists lean on the edges a seeded random draw rarely hits:
several records at one offset (within and across variables), values that
do not parse or parse to a non-finite number, whitespace-only categorical
values, and offsets on both sides of the grid's first and last minute.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import ref_bin
from icubench.ingestion import LAB, stay_table
from icubench.preprocessing import bin_hourly
from icubench.schema import CATEGORICAL_VARIABLES, NUMERICAL_VARIABLES, VALID_RANGES
NUM_INDEX = {name: i for i, name in enumerate(NUMERICAL_VARIABLES)}
CAT_INDEX = {name: i for i, name in enumerate(CATEGORICAL_VARIABLES)}

NUMERIC = ("Heart rate", "pH")
CATEGORICAL = ("Glasgow Coma Score Total", "Gender")
VARIABLES = NUMERIC + CATEGORICAL + ("Not in the schema",)

numeric_values = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "", " ", "bad", "7.31", " 80 ", "1e3", "-0"]),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
)
categorical_values = st.sampled_from(["", " ", "\t", "3", " 15 ", "Female", "x y"])


@st.composite
def record_lists(draw):
    n_hours = draw(st.integers(1, 4))
    edges = [-1, 0, 60 * n_hours - 1, 60 * n_hours]
    offsets = st.one_of(st.sampled_from(edges), st.integers(-5, 60 * n_hours + 5))
    # few distinct offsets, so ties within and across variables are common
    pool = draw(st.lists(offsets, min_size=1, max_size=4))
    triples = []
    for _ in range(draw(st.integers(0, 20))):
        var = draw(st.sampled_from(VARIABLES))
        value = draw(categorical_values if var in CATEGORICAL else numeric_values)
        triples.append((var, draw(st.sampled_from(pool)), value))
    triples.sort(key=lambda t: t[1])   # stable: generation order decides the last entry of a tie
    return n_hours, triples


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(record_lists())
def test_bin_hourly_equals_reference(case):
    n_hours, triples = case
    table, _ = stay_table([], {LAB: [(1, o, v, val) for v, o, val in triples]})
    grid = bin_hourly(table, n_hours)
    ref_num, ref_cat = ref_bin(triples, n_hours, VALID_RANGES, set(CATEGORICAL_VARIABLES))

    expected = np.full((n_hours, len(NUMERICAL_VARIABLES)), np.nan)
    for (hour, name), value in ref_num.items():
        expected[hour, NUM_INDEX[name]] = value
    assert np.array_equal(grid.numeric, expected, equal_nan=True)
    assert np.array_equal(~np.isnan(grid.numeric), ~np.isnan(expected))   # the observed mask

    expected_cat = np.full((n_hours, len(CATEGORICAL_VARIABLES)), "", dtype=object)
    for (hour, name), value in ref_cat.items():
        expected_cat[hour, CAT_INDEX[name]] = value
    cat_labels = np.array([[table.strings[c] if c >= 0 else "" for c in row] for row in grid.codes.tolist()],
                          dtype=object).reshape(expected_cat.shape)
    assert np.array_equal(cat_labels, expected_cat)
