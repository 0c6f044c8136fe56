"""Tests for CSV ingestion, differencing, and artefact injection."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from arid.errors import HorizonTooShort, IndexOutOfRange, NonFinite, ParseError, RaggedRows
from arid.dataio import (
    _WRITE_CHUNK_ROWS,
    _parse_rows,
    first_difference,
    inject_artefact,
    load_csv,
    write_csv,
    write_table,
)
from arid.model import TimeSeries, scalar_values

# ---------------------------------------------------------------------------
# CSV round trips


def test_single_column_file(tmp_path):
    path = tmp_path / "single.csv"
    path.write_text("1\n2\n3\n")
    series = load_csv(path)
    assert series.n_steps == 3
    assert series.n_channels == 1
    np.testing.assert_array_equal(scalar_values(series), [1.0, 2.0, 3.0])


def test_two_column_file(tmp_path):
    path = tmp_path / "pair.csv"
    path.write_text("1,2\n3,4\n")
    series = load_csv(path)
    assert series.n_steps == 2
    assert series.n_channels == 2
    np.testing.assert_array_equal(series.values, [[1.0, 2.0], [3.0, 4.0]])


def test_header_row_becomes_channel_names(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("left,right\n1,2\n3,4\n")
    series = load_csv(path, has_header=True)
    assert series.channel_names == ("left", "right")
    assert series.n_steps == 2


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("1\n\n2\n\n\n3\n")
    assert load_csv(path).n_steps == 3


def test_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(RaggedRows):
        load_csv(path)


def test_unparseable_cell_reports_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert "row 2" in str(info.value)
    assert "column 2" in str(info.value)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_csv(path)


def test_roundtrip_preserves_values_bit_exactly(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=81))
    original = TimeSeries(rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-8, 8, size=(50, 3)))
    path = tmp_path / "roundtrip.csv"
    write_csv(original, path)
    reloaded = load_csv(path)
    np.testing.assert_array_equal(reloaded.values, original.values)


def test_header_names_that_need_quotes_survive_a_round_trip(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text('"a,b",c,"say ""hi"""\n1,2,3\n4,5,6\n')
    loaded = load_csv(path, has_header=True)
    assert loaded.channel_names == ("a,b", "c", 'say "hi"')
    copy = tmp_path / "copy.csv"
    write_csv(loaded, copy)
    assert copy.read_text().startswith('"a,b",c,"say ""hi"""\n1,2,3\n')
    reloaded = load_csv(copy, has_header=True)
    assert reloaded.channel_names == loaded.channel_names
    np.testing.assert_array_equal(reloaded.values, loaded.values)


def test_non_finite_cell_reports_location(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("left,right\n1,2\n3,inf\nnan,4\n")
    with pytest.raises(NonFinite) as info:
        load_csv(path, has_header=True)
    assert "row 3, column 2" in str(info.value)


def test_malformed_row_outranks_a_non_finite_cell(tmp_path):
    path = tmp_path / "nan_then_ragged.csv"
    path.write_text("1,nan\n3\n")
    with pytest.raises(RaggedRows):
        load_csv(path)


# ---------------------------------------------------------------------------
# the bulk read and write paths against the row parser and per-value writer

SPECIAL_VALUES = (-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_VALUES)
TABLES = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6), elements=FINITE)


def _per_value_write_csv(series, path):
    """The writer that formatted one value at a time: the byte oracle of write_csv."""
    with open(path, "w", newline="") as fh:
        if series.channel_names is not None:
            fh.write(",".join(series.channel_names) + "\n")
        for row in series.values:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _bits(values) -> list:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64).tolist()


def _outcome(read):
    """What ``read()`` returns as (names, value bits), or the class and message it raises; no warning may escape."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            names, values = read()
            result = (names, _bits(values))
        except Exception as exc:  # every outcome is compared, errors included
            result = (type(exc), str(exc))
    assert not caught, [str(w.message) for w in caught]
    return result


def _load(path, has_header):
    series = load_csv(path, has_header=has_header)
    return series.channel_names, series.values


@example(values=np.array([[1.5, -2.0, 3.25]]), header=True, crlf=False, pad=False, blanks=[])
@example(values=np.array([[1.5], [-0.0], [5e-324]]), header=False, crlf=True, pad=True, blanks=[0, 2])
@given(
    values=TABLES,
    header=st.booleans(),
    crlf=st.booleans(),
    pad=st.booleans(),
    blanks=st.lists(st.integers(0, 8), max_size=3),
)
def test_bulk_read_matches_row_parser_on_written_layouts(tmp_path_factory, values, header, crlf, pad, blanks):
    path = tmp_path_factory.mktemp("layout") / "table.csv"
    names = tuple(f"ch{j}" for j in range(values.shape[1])) if header else None
    write_csv(TimeSeries(values, channel_names=names), path)
    lines = path.read_text().splitlines()
    if pad:
        lines = [",".join(f" {cell}\t" for cell in line.split(",")) for line in lines]
    for at in sorted(blanks, reverse=True):
        lines.insert(min(at, len(lines)), "")
    newline = "\r\n" if crlf else "\n"
    path.write_bytes(newline.join(lines).encode() + newline.encode())
    with mock.patch("arid.dataio._parse_rows", side_effect=AssertionError("fell back to the row parser")):
        read = _outcome(lambda: _load(path, header))
    assert read == (names, _bits(values))
    assert read == _outcome(lambda: _parse_rows(path, header))


@given(values=TABLES, header=st.booleans())
def test_write_csv_bytes_match_per_value_writer(tmp_path_factory, values, header):
    folder = tmp_path_factory.mktemp("write")
    series = TimeSeries(values, channel_names=tuple(f"c{j}" for j in range(values.shape[1])) if header else None)
    write_csv(series, folder / "chunked.csv")
    _per_value_write_csv(series, folder / "reference.csv")
    assert (folder / "chunked.csv").read_bytes() == (folder / "reference.csv").read_bytes()


@pytest.mark.parametrize("n_rows", [_WRITE_CHUNK_ROWS - 1, _WRITE_CHUNK_ROWS, _WRITE_CHUNK_ROWS + 1, 2 * _WRITE_CHUNK_ROWS + 3])
def test_write_csv_bytes_match_across_chunks(tmp_path, n_rows):
    rng = np.random.Generator(np.random.Philox(key=83))
    values = rng.normal(size=(n_rows, 2)) * 10.0 ** rng.integers(-300, 300, size=(n_rows, 2))
    values[: len(SPECIAL_VALUES), 0] = SPECIAL_VALUES
    series = TimeSeries(values, channel_names=("a", "b"))
    write_csv(series, tmp_path / "chunked.csv")
    _per_value_write_csv(series, tmp_path / "reference.csv")
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    np.testing.assert_array_equal(load_csv(tmp_path / "chunked.csv", has_header=True).values, values)


def _f_string_table(path, rows, header):
    """The per-row f-string writers that write_table replaced: integers as ``{i}``, floats as ``{x:.17g}``."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v}" if isinstance(v, int) else f"{v:.17g}" for v in row) + "\n")


TABLE_SPECIALS = (0.0, *SPECIAL_VALUES, float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("n_rows", [0, 1, _WRITE_CHUNK_ROWS + 1])
def test_write_table_bytes_match_f_string_rows(tmp_path, n_rows):
    rng = np.random.Generator(np.random.Philox(key=29))
    floats = (rng.normal(size=(n_rows, 2)) * 10.0 ** rng.integers(-300, 300, size=(n_rows, 2))).tolist()
    rows = [
        (i, (-1) ** i * 7 * i, TABLE_SPECIALS[i % len(TABLE_SPECIALS)], *floats[i])
        for i in range(n_rows)
    ]
    header = ("t", "k", "special", "a", "b")
    write_table(tmp_path / "table.csv", rows, header)
    _f_string_table(tmp_path / "reference.csv", rows, header)
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@given(
    rows=st.lists(st.tuples(st.integers(-(2**53), 2**53), st.floats(), st.floats()), max_size=12),
    header=st.booleans(),
)
def test_write_table_bytes_match_f_string_rows_on_any_values(tmp_path_factory, rows, header):
    folder = tmp_path_factory.mktemp("table")
    names = ("i", "x", "y") if header else None
    write_table(folder / "table.csv", rows, names)
    _f_string_table(folder / "reference.csv", rows, names)
    assert (folder / "table.csv").read_bytes() == (folder / "reference.csv").read_bytes()


@pytest.mark.parametrize(
    "text, has_header",
    [
        ("1,2\n3\n", False),  # ragged
        ('"1",2\n3,4\n', False),  # quoted cell the row parser accepts
        ('"1,5",2\n', False),  # quoted cell holding the delimiter
        ("1\n#2\n", False),  # '#' is data, not a comment
        ("1,2,\n3,4,\n", False),  # trailing comma
        ("1_0\n2\n", False),  # float() accepts digit separators
        ("\ufeff1\n2\n", False),  # byte-order mark
        ("", False),
        ("\n\n", False),
        ("a,b\n", True),  # header only
        ("a,b\n\n\n", True),
        ("a\n1,2\n", True),  # header narrower than the data
        ("1,nan\n", False),
        ("1\n2\n-inf\n", False),
        ("1e400\n", False),  # overflows to inf
        ("1\n \n2\n", False),  # whitespace-only row
        (",\n1\n", False),  # row of empty cells
        ("1 2\n", False),
        ("0x10\n", False),
    ],
)
def test_bad_input_gives_the_row_parsers_outcome(tmp_path, text, has_header):
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode())
    assert _outcome(lambda: _load(path, has_header)) == _outcome(lambda: _parse_rows(path, has_header))


CELLS = st.sampled_from(
    ["1", "-0", "2.5e-3", " 4 ", "\t5", "6\x0c", "\xa07", "\x858", "nan", "inf", "-Infinity", "1e400", "1_0",
     '"1"', '"1,5"', "#", "", " ", "\ufeff1", "0x10", "1 2", "a"]
) | FINITE.map(lambda v: f"{v:.17g}")


@given(
    rows=st.lists(st.lists(CELLS, min_size=1, max_size=3), max_size=5),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    has_header=st.booleans(),
)
def test_any_row_mix_gives_the_row_parsers_outcome(tmp_path_factory, rows, newline, has_header):
    path = tmp_path_factory.mktemp("mix") / "input.csv"
    path.write_bytes("".join(",".join(row) + newline for row in rows).encode())
    assert _outcome(lambda: _load(path, has_header)) == _outcome(lambda: _parse_rows(path, has_header))


# ---------------------------------------------------------------------------
# first differences


def test_difference_hand_example():
    diffed = first_difference(TimeSeries(np.array([1.0, 3.0, 6.0])))
    np.testing.assert_array_equal(scalar_values(diffed), [2.0, 3.0])


def test_difference_of_constant_is_zero():
    diffed = first_difference(TimeSeries(np.full(5, 4.2)))
    np.testing.assert_array_equal(scalar_values(diffed), np.zeros(4))


def test_difference_inverts_cumulative_sum():
    rng = np.random.Generator(np.random.Philox(key=82))
    x = rng.normal(size=(20, 2))
    diffed = first_difference(TimeSeries(np.cumsum(np.vstack((np.zeros(2), x)), axis=0)))
    np.testing.assert_allclose(diffed.values, x, rtol=0, atol=1e-12)


def test_difference_applies_per_channel():
    values = np.column_stack((np.arange(4.0), 2.0 * np.arange(4.0)))
    diffed = first_difference(TimeSeries(values))
    np.testing.assert_array_equal(diffed.values, np.tile([1.0, 2.0], (3, 1)))


def test_difference_needs_two_steps():
    with pytest.raises(HorizonTooShort):
        first_difference(TimeSeries(np.array([1.0])))


# ---------------------------------------------------------------------------
# artefact injection


def test_zero_std_zeroes_the_window():
    y = TimeSeries(np.ones((10, 2)))
    injected = inject_artefact(y, 1, 3, 6, 0.0, seed=0)
    np.testing.assert_array_equal(injected.values[2:6, 0], np.zeros(4))
    np.testing.assert_array_equal(injected.values[:2, 0], np.ones(2))
    np.testing.assert_array_equal(injected.values[6:, 0], np.ones(4))
    np.testing.assert_array_equal(injected.values[:, 1], np.ones(10))


@pytest.mark.parametrize("std", [-1.0, np.nan, np.inf])
def test_negative_or_non_finite_artefact_std_rejected(std):
    with pytest.raises(ValueError, match="std must be nonnegative and finite"):
        inject_artefact(TimeSeries(np.ones((10, 1))), 1, 3, 6, std, seed=0)


def test_window_bounds_validated():
    y = TimeSeries(np.ones((10, 1)))
    with pytest.raises(IndexOutOfRange):
        inject_artefact(y, 1, 0, 5, 1.0, seed=0)
    with pytest.raises(IndexOutOfRange):
        inject_artefact(y, 1, 3, 11, 1.0, seed=0)
    with pytest.raises(IndexOutOfRange):
        inject_artefact(y, 2, 1, 5, 1.0, seed=0)


def test_injection_replaces_rather_than_adds():
    y = TimeSeries(np.full(8, 100.0))
    injected = inject_artefact(y, 1, 1, 8, 1.0, seed=3)
    assert float(np.abs(scalar_values(injected)).max()) < 50.0


def test_injection_deterministic_under_seed():
    y = TimeSeries(np.zeros(20))
    first = inject_artefact(y, 1, 5, 15, 2.0, seed=9)
    second = inject_artefact(y, 1, 5, 15, 2.0, seed=9)
    np.testing.assert_array_equal(first.values, second.values)
    different = inject_artefact(y, 1, 5, 15, 2.0, seed=10)
    assert not np.array_equal(first.values, different.values)


def test_injected_window_matches_requested_std():
    y = TimeSeries(np.zeros(10000))
    injected = inject_artefact(y, 1, 1, 10000, 3.0, seed=11)
    sample_std = float(np.std(scalar_values(injected)))
    assert abs(sample_std - 3.0) / 3.0 < 0.03


def test_original_series_left_untouched():
    y = TimeSeries(np.ones(10))
    inject_artefact(y, 1, 2, 5, 1.0, seed=1)
    np.testing.assert_array_equal(scalar_values(y), np.ones(10))
