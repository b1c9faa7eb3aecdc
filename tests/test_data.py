"""Dataset CSV reader and writer against their row-by-row reference forms."""

import contextlib
import csv
import functools
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from usable_info import data
from usable_info.cli import main
from usable_info.data import Dataset, read_dataset_csv, write_dataset_csv
from usable_info.errors import DataError
from usable_info.families import VariableSpec

HEADER = "var0_0,var0_1,var1_0:cat3\n"


def _reference_write(dataset, path, config=None):
    """The row loop the vectorised writer replaced: csv.writer, one row at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if config is not None:
            data._write_config(fh, config)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(data._header(dataset.specs))
        for row_idx in range(dataset.n_samples):
            row = []
            for arr, spec in zip(dataset.variables, dataset.specs):
                if spec.kind == "real":
                    row.extend(format(v, ".17g") for v in arr[row_idx])
                else:
                    row.append(str(int(arr[row_idx])))
            writer.writerow(row)


def _columns(variables):
    """``read_dataset_csv``'s ``columns`` for ``variables``: None (a full
    read), a mapping (as given), or indices of whole variables, each its own
    label, in order."""
    if variables is None or isinstance(variables, dict):
        return variables
    return {f"var{v}": [f"var{v}"] for v in variables}


def _outcome(path, variables=None):
    try:
        return read_dataset_csv(path, _columns(variables))
    except DataError as exc:
        return str(exc)


def _read_both(path, monkeypatch, variables=None):
    """What the reader gives, with the loadtxt pass and with the row parser only."""
    fast = _outcome(path, variables)
    with monkeypatch.context() as patch:
        patch.setattr(data, "_fast_table", lambda *args: None)
        rows_only = _outcome(path, variables)
    return fast, rows_only


def _row_parser_calls(path, monkeypatch, variables=None):
    """The rows of each chunk that a read of ``path`` hands the row parser."""
    calls = []
    parse_rows = data._parse_rows
    with monkeypatch.context() as patch:
        patch.setattr(data, "_parse_rows",
                      lambda path, rows, *args: calls.append(rows)
                      or parse_rows(path, rows, *args))
        _outcome(path, variables)
    return calls


def _fast_pass_taken(path, monkeypatch, variables=None):
    """Whether a read of ``path`` skips the row parser."""
    return not _row_parser_calls(path, monkeypatch, variables)


def _assert_same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    assert a.specs == b.specs
    for x, y in zip(a.variables, b.variables):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


# (name, file body after the header, whether the loadtxt pass accepts it; a
# bad categorical symbol makes the pass decline)
CORPUS = [
    ("blank_and_comment", "1,2,0\n\n# mid-file comment\n3,4,2\n", True),
    ("hash_mid_line", "1,2#x,0\n3,4,1\n", False),
    ("quoted_cell", '"1",2,0\n3,4,1\n', False),
    ("spaces_around_cells", " 1 , 2 ,0\n3,\t4,1\n", True),
    ("crlf", "1,2,0\r\n3,4,1\r\n", True),
    ("ragged_row", "1,2,0\n3,4\n", False),
    ("long_row", "1,2,0,7\n3,4,1,7\n", False),
    ("non_numeric", "1,abc,0\n", False),
    ("underscore_digits", "1_000,2,0\n", False),
    ("nan_inf", "nan,-nan,0\ninf,-inf,1\nNaN,Infinity,2\n", True),
    ("non_integer_symbol", "1,2,1.5\n", False),
    ("symbol_out_of_range", "1,2,3\n", False),
    ("negative_symbol", "1,2,-1\n", False),
]


@pytest.mark.parametrize("name,body,fast", CORPUS, ids=[c[0] for c in CORPUS])
def test_reader_matches_row_parser(tmp_path, monkeypatch, name, body, fast):
    path = tmp_path / f"{name}.csv"
    path.write_text("# config: {\"a\": 1}\n" + HEADER + body, encoding="utf-8",
                    newline="")
    got, want = _read_both(path, monkeypatch)
    _assert_same(got, want)
    assert _fast_pass_taken(path, monkeypatch) == fast


def test_reader_row_errors_name_their_line(tmp_path, monkeypatch):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "1,2,0\n\n# c\n1,2#x,0\n", encoding="utf-8")
    got, want = _read_both(path, monkeypatch)
    assert got == want
    assert got.startswith(f"{path}:5: ")


@pytest.mark.parametrize("cell", ["nan", "-inf", "1e300", "9223372036854775808"])
def test_a_symbol_that_is_no_int64_raises_without_a_cast_warning(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(HEADER + f"1,2,0\n3,4,{cell}\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError) as err:
            read_dataset_csv(path)
    assert str(err.value) == f"{path}:3: categorical value is not an integer"


def test_the_first_bad_line_wins_over_a_later_bad_float(tmp_path, monkeypatch, capsys):
    path = tmp_path / "d.csv"
    path.write_text("var0_0,var1_0:cat3\n1,0\n2,9\n3,x\n", encoding="utf-8")
    message = f"{path}:3: categorical symbol out of range for var cardinality 3"
    assert _read_both(path, monkeypatch) == (message, message)
    assert main(["tree", "--data", str(path), "--family", "linear_gaussian",
                 "--out", str(tmp_path / "tree.json")]) == 3
    assert capsys.readouterr().err == f"data error: {message}\n"


def test_the_first_bad_line_wins_over_an_earlier_variable(tmp_path, monkeypatch):
    # var1's fault is on line 3, var0's on line 4.
    path = tmp_path / "d.csv"
    path.write_text("var0_0:cat3,var1_0:cat3\n0,0\n1,1.5\n7,1\n", encoding="utf-8")
    message = f"{path}:3: categorical value is not an integer"
    assert _read_both(path, monkeypatch) == (message, message)


def test_a_bad_symbol_does_not_make_the_read_open_the_file_again(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_cpu_count", lambda: 1)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(data, "open", counting_open, raising=False)
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(HEADER + "1,2,0\n3,4,1\n", encoding="utf-8")
    bad.write_text(HEADER + "1,2,0\n3,4,3\n", encoding="utf-8")
    assert isinstance(_outcome(good), Dataset)
    assert _outcome(bad) == f"{bad}:3: categorical symbol out of range for var cardinality 3"
    assert 0 < opened.count(bad) <= opened.count(good)


def test_reader_random_bit_patterns_round_trip(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64, size=(300, 4), dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = 0.0
    lines = [",".join(format(v, ".17g") for v in row) for row in values]
    path = tmp_path / "bits.csv"
    path.write_text("var0_0,var0_1,var1_0,var1_1\n" + "\n".join(lines) + "\n",
                    encoding="utf-8")
    got, want = _read_both(path, monkeypatch)
    _assert_same(got, want)
    assert _fast_pass_taken(path, monkeypatch)
    assert np.hstack(got.variables).tobytes() == values.tobytes()


def test_writer_bytes_match_row_loop(tmp_path):
    rng = np.random.default_rng(3)
    n = 2 * data._chunk_rows(5) + 3  # 5 columns: crosses 2 chunk boundaries
    real = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
    real[0] = [-0.0, 5e-324, 1.7976931348623157e308]
    real[1] = [np.inf, -np.inf, np.nan]
    real[2] = [0.1, 1.0, 123456789.0]
    ds = Dataset(
        variables=[real, rng.integers(0, 12, n), rng.normal(size=(n, 1))],
        specs=[VariableSpec.real(3), VariableSpec.categorical(12), VariableSpec.real(1)],
    )
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    config = {"scenario": "sim1", "seed": 5}
    write_dataset_csv(ds, fast, config=config)
    _reference_write(ds, slow, config=config)
    assert fast.read_bytes() == slow.read_bytes()
    back = read_dataset_csv(fast)
    assert back.variables[1].dtype == np.int64
    assert np.array_equal(back.variables[1], ds.variables[1])
    assert np.array_equal(back.variables[0], real, equal_nan=True)


# ------------------------------------------------------------------ #
# column-projected reads
# ------------------------------------------------------------------ #

# Corpus files whose full read fails on a cell of one variable: that variable.
# A projected read that leaves the variable out does not convert the cell.
BAD_CELL_VARIABLE = {"hash_mid_line": 0, "non_numeric": 0, "non_integer_symbol": 1,
                     "symbol_out_of_range": 1, "negative_symbol": 1}
# (file, variables) whose loadtxt pass succeeds only because the cell it
# rejects in a full read is in an unselected column.
FAST_ONLY_WHEN_PROJECTED = {("non_numeric", (1,)), ("underscore_digits", (1,)),
                            ("non_integer_symbol", (0,)), ("symbol_out_of_range", (0,)),
                            ("negative_symbol", (0,))}
SUBSETS = [(0,), (1,), (1, 0)]


def _select(full, variables):
    """A full read's outcome, cut down to ``variables`` (errors pass through)."""
    if isinstance(full, str):
        return full
    return Dataset(variables=[full.variables[v] for v in variables],
                   specs=[full.specs[v] for v in variables])


@pytest.mark.parametrize("variables", SUBSETS, ids=lambda v: "vars" + "_".join(map(str, v)))
@pytest.mark.parametrize("name,body,fast", CORPUS, ids=[c[0] for c in CORPUS])
def test_projected_read_matches_full_read(tmp_path, monkeypatch, name, body, fast,
                                          variables):
    path = tmp_path / f"{name}.csv"
    path.write_text(HEADER + body, encoding="utf-8", newline="")
    got, rows_only = _read_both(path, monkeypatch, list(variables))
    _assert_same(got, rows_only)
    bad = BAD_CELL_VARIABLE.get(name)
    if bad is not None and bad not in variables:
        assert isinstance(got, Dataset)  # the bad cell is not converted
    else:
        _assert_same(got, _select(_outcome(path), variables))
    assert _fast_pass_taken(path, monkeypatch, list(variables)) == (
        fast or (name, variables) in FAST_ONLY_WHEN_PROJECTED)


@pytest.mark.parametrize("body,line,width", [
    ("1,2,0\n3,4\n", 3, 2),
    ("1,2,0\n3,4,1,7\n", 3, 4),
    ("1,2\n3,4,1\n", 2, 2),
])
@pytest.mark.parametrize("variables", [[0], [1]])
def test_projected_read_rejects_ragged_rows(tmp_path, body, line, width, variables):
    # loadtxt with usecols reads such rows without complaint.
    path = tmp_path / "ragged.csv"
    path.write_text(HEADER + body, encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_dataset_csv(path, _columns(variables))
    assert str(err.value) == f"{path}:{line}: expected 3 cells, got {width}"


def test_projected_read_names_the_line_of_a_bad_selected_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "1,2,0\n# c\n3,oops,1\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_dataset_csv(path, _columns([0]))
    assert str(err.value) == (f"{path}:4: could not convert string to float: 'oops'")


def test_projected_read_accepts_a_bad_unselected_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "1,2,0\n3,oops,1\n5,6,2\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_dataset_csv(path)
    got = read_dataset_csv(path, _columns([1]))
    assert got.specs == [VariableSpec.categorical(3)]
    assert got.variables[0].tolist() == [0, 1, 2]


def test_projected_read_keeps_the_given_order_and_header_specs(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("var1_0:cat5,var0_1,var2_0,var0_0\n2,1.5,7,-1\n0,2.5,8,-2\n",
                    encoding="utf-8")
    got = read_dataset_csv(path, _columns([1, 0]))
    assert got.specs == [VariableSpec.categorical(5), VariableSpec.real(2)]
    assert got.variables[0].tolist() == [2, 0]
    assert got.variables[1].tolist() == [[-1.0, 1.5], [-2.0, 2.5]]


@pytest.mark.parametrize("variables,message", [
    ([3], "var3: no variable var3"), ([0, -1], "var-1: bad column token 'var-1'")],
    ids=["absent-index", "negative-index"])
def test_projected_read_of_a_missing_variable_raises_value_error(tmp_path, variables,
                                                                  message):
    path = tmp_path / "d.csv"
    path.write_text(HEADER + "1,2,0\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_dataset_csv(path, _columns(variables))
    assert str(err.value) == message


def test_projected_read_still_validates_the_whole_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("var0_0,var1_0,var1_2\n1,2,3\n", encoding="utf-8")
    with pytest.raises(DataError, match="var1 coordinates must be 0..d-1"):
        read_dataset_csv(path, _columns([0]))


def test_estimate_converts_only_the_selected_columns(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    rng = np.random.default_rng(1)
    ds = Dataset(variables=[rng.normal(size=(50, 2)), rng.normal(size=(50, 3)),
                            rng.normal(size=(50, 1))],
                 specs=[VariableSpec.real(2), VariableSpec.real(3), VariableSpec.real(1)])
    write_dataset_csv(ds, path)
    seen = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt",
                        lambda *args, **kwargs: seen.append(kwargs.get("usecols"))
                        or loadtxt(*args, **kwargs))
    out = tmp_path / "est.json"
    assert main(["estimate", "--data", str(path), "--x-cols", "var2", "--y-cols", "var0_1",
                 "--family", "linear_gaussian", "--out", str(out)]) == 0
    assert seen == [[1, 5]]
    assert json.loads(out.read_text())["config"]["x_cols"] == ["var2"]


# ------------------------------------------------------------------ #
# chunk boundaries
# ------------------------------------------------------------------ #

CHUNK_ROWS = data._chunk_rows(3)  # HEADER is 3 columns wide
# Line of the first text put into the last chunk: after the header line and
# 2 chunks + 1 rows.
PUT_LINE = 2 * CHUNK_ROWS + 3

# (name, text put into the last chunk, whether the loadtxt pass declines it
# and the row parser reads the file, the error as (line offset from PUT_LINE,
# message) or None)
BOUNDARY = [
    ("quoted_cell", '"1",2,0\n', True, None),
    ("blank_line", "\n", False, None),
    ("mid_file_comment", "# note\n", False, None),
    ("ragged_row", "3,4\n", True, (0, "expected 3 cells, got 2")),
    ("non_numeric", "1,abc,0\n", True, (0, "could not convert string to float: 'abc'")),
    ("symbol_out_of_range", "# note\n1,2,3\n", True,
     (1, "categorical symbol out of range for var cardinality 3")),
]


def _chunked_file(path, put):
    """HEADER and 2 chunks + 3 rows, with ``put`` before the last chunk's second row."""
    rng = np.random.default_rng(5)
    lines = [f"{a:.17g},{b:.17g},{c}\n" for a, b, c in zip(
        rng.normal(size=2 * CHUNK_ROWS + 3), rng.normal(size=2 * CHUNK_ROWS + 3),
        rng.integers(0, 3, 2 * CHUNK_ROWS + 3))]
    lines.insert(2 * CHUNK_ROWS + 1, put)
    path.write_text(HEADER + "".join(lines), encoding="utf-8", newline="")


@pytest.mark.parametrize("name,put,row_parsed,error", BOUNDARY,
                         ids=[c[0] for c in BOUNDARY])
def test_last_chunk_reads_as_the_row_parser(tmp_path, monkeypatch, name, put,
                                            row_parsed, error):
    path = tmp_path / f"{name}.csv"
    _chunked_file(path, put)
    got, want = _read_both(path, monkeypatch)
    _assert_same(got, want)
    if error is None:
        assert got.n_samples == len(data.read_csv_rows(path)) - 1  # all but the header
    else:
        offset, message = error
        assert got == f"{path}:{PUT_LINE + offset}: {message}"
    # A declined read hands every data row to the row parser, in chunks and
    # in order; an accepted read hands it none.
    calls = _row_parser_calls(path, monkeypatch)
    if row_parsed:
        assert [len(rows) for rows in calls] == [CHUNK_ROWS, CHUNK_ROWS, 4]
        assert [line for rows in calls for line, _ in rows] == [
            line for line, _ in data.read_csv_rows(path)[1:]]
    else:
        assert calls == []


@pytest.mark.parametrize("variables", SUBSETS, ids=lambda v: "vars" + "_".join(map(str, v)))
@pytest.mark.parametrize("name,put,row_parsed,error", BOUNDARY,
                         ids=[c[0] for c in BOUNDARY])
def test_last_chunk_projected_read_matches_row_parser(tmp_path, monkeypatch, name, put,
                                                      row_parsed, error, variables):
    path = tmp_path / f"{name}.csv"
    _chunked_file(path, put)
    got, rows_only = _read_both(path, monkeypatch, list(variables))
    _assert_same(got, rows_only)
    bad = BAD_CELL_VARIABLE.get(name)
    if bad is not None and bad not in variables:
        assert isinstance(got, Dataset)  # the bad cell is not converted
    else:
        _assert_same(got, _select(_outcome(path), variables))


# ------------------------------------------------------------------ #
# files that are not UTF-8
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("body,line", [
    (b"# caf\xe9 au lait\n" + HEADER.encode() + b"1,2,0\n", 1),
    (HEADER.encode() + b"1,2,0\n1,2\xe9,1\n", 3),
    # The decoder reads a buffer ahead; the line is still the byte's own.
    (HEADER.encode() + b"1.5,2.5,0\n" * (2 * CHUNK_ROWS) + b"# \xe9\r\n1,2,1\n",
     2 * CHUNK_ROWS + 2),
], ids=["comment", "data_cell", "second_chunk"])
@pytest.mark.parametrize("variables", [None, [1]])
def test_reader_names_the_line_of_a_non_utf8_byte(tmp_path, body, line, variables):
    path = tmp_path / "latin1.csv"
    path.write_bytes(body)
    message = f"{path}:{line}: not valid UTF-8 (byte 0xe9)"
    with pytest.raises(DataError) as err:
        read_dataset_csv(path, _columns(variables))
    assert str(err.value) == message
    with pytest.raises(DataError) as err:
        data.read_csv_rows(path)
    assert str(err.value) == message


def test_non_utf8_files_exit_with_a_data_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b'# config: {"note": "caf\xe9"}\n' + HEADER.encode() + b"1,2,0\n3,4,1\n")
    assert main(["estimate", "--data", str(path), "--x-cols", "var0", "--y-cols", "var1",
                 "--family", "linear_gaussian", "--out", str(tmp_path / "e.json")]) == 3
    assert capsys.readouterr().err == f"data error: {path}:1: not valid UTF-8 (byte 0xe9)\n"
    scores, truth = tmp_path / "s.csv", tmp_path / "t.csv"
    scores.write_bytes(b"i,j,score\n0,1,1.0\n1,0,0.5\xe9\n")
    truth.write_text("i,j,edge\n0,1,1\n1,0,0\n", encoding="utf-8")
    assert main(["auc", "--scores", str(scores), "--truth", str(truth),
                 "--out", str(tmp_path / "auc.json")]) == 3
    assert capsys.readouterr().err == f"data error: {scores}:3: not valid UTF-8 (byte 0xe9)\n"


# ------------------------------------------------------------------ #
# memory: a read or write holds the arrays and one chunk, not the file
# ------------------------------------------------------------------ #

MIB = 1 << 20


def _traced_peak(fn):
    """``fn()``, and the peak of traced memory (numpy buffers included) above
    the level it started from."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """20000 samples of 10 real variables, d = 5 (a 7.6 MiB table), written
    to a 20 MB file: the dataset, the path and the write's traced peak."""
    rng = np.random.default_rng(2)
    ds = Dataset(variables=[rng.normal(size=(20000, 5)) for _ in range(10)],
                 specs=[VariableSpec.real(5)] * 10)
    path = tmp_path_factory.mktemp("wide") / "wide.csv"
    _, peak = _traced_peak(lambda: write_dataset_csv(ds, path))
    return ds, path, peak


def test_write_holds_one_chunk(wide):
    _, path, peak = wide
    assert path.stat().st_size > 20e6
    assert peak <= 4 * MIB


@pytest.mark.parametrize("variables", [None, [0, 3]], ids=["full", "vars0_3"])
def test_read_holds_the_arrays_and_one_chunk(wide, variables):
    ds, path, _ = wide
    got, peak = _traced_peak(lambda: read_dataset_csv(path, _columns(variables)))
    returned = sum(v.nbytes for v in got.variables)
    assert peak <= 2 * returned + 4 * MIB
    for v, x in zip(variables or range(ds.m), got.variables):
        assert x.tobytes() == ds.variables[v].tobytes()


# ------------------------------------------------------------------ #
# the process pool against the in-process read and write
# ------------------------------------------------------------------ #

POOL_CHUNK_CELLS = 120  # 40 rows of HEADER's 3 columns; a read's range is 3000 bytes
FILLER = "1.5,2.5,1\n"
# HEADER and 901 rows fill 3 byte ranges and the first 36 bytes of a fourth,
# so that a body after them lies in the fourth and last range, the second
# worker's.
FILLER_ROWS = 3 * POOL_CHUNK_CELLS * data._CELL_BYTES // len(FILLER) + 1


@pytest.fixture
def pooled(monkeypatch):
    """Reads and writes of small files run on a pool of 2 workers.  Returns a
    list that gets one ``(workers, tasks, [result is None, ...])`` per
    ``_pool_map`` call, on the pool or in this process."""
    monkeypatch.setattr(data, "_cpu_count", lambda: 2)
    monkeypatch.setattr(data, "_POOL_MIN_CHUNKS", 1)
    monkeypatch.setattr(data, "_CHUNK_CELLS", POOL_CHUNK_CELLS)
    pools = []
    pool_map = data._pool_map

    def recording_pool_map(call, tasks, workers):
        declined = []
        pools.append((workers, len(tasks), declined))
        with contextlib.closing(pool_map(call, tasks, workers)) as results:
            for result in results:
                declined.append(result is None)
                yield result

    monkeypatch.setattr(data, "_pool_map", recording_pool_map)
    return pools


def _in_process(monkeypatch, fn):
    """``fn()`` with one CPU, so with every task done in this process."""
    with monkeypatch.context() as patch:
        patch.setattr(data, "_cpu_count", lambda: 1)
        return fn()


def _read_three(path, monkeypatch, variables=None):
    """What the reader gives, checked equal to the same read in this process
    and to the row parser's read."""
    got = _outcome(path, variables)
    for other in _in_process(monkeypatch, lambda: _read_both(path, monkeypatch, variables)):
        _assert_same(got, other)
    return got


def _filled(path, body: bytes):
    """HEADER, FILLER_ROWS rows, then ``body``: the body is the last range's."""
    path.write_bytes((HEADER + FILLER * FILLER_ROWS).encode() + body)


def test_pooled_write_matches_serial_and_row_loop(tmp_path, monkeypatch, pooled):
    rng = np.random.default_rng(11)
    n = 5 * 24 + 1  # 5 columns: 24 rows per chunk
    real = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
    real[23] = [np.inf, -np.inf, np.nan]  # the rows on both sides of a boundary
    real[24] = [-np.inf, np.nan, -0.0]
    ds = Dataset(variables=[real, rng.integers(0, 12, n), rng.normal(size=(n, 1))],
                 specs=[VariableSpec.real(3), VariableSpec.categorical(12),
                        VariableSpec.real(1)])
    pool, here, rows = tmp_path / "pool.csv", tmp_path / "here.csv", tmp_path / "rows.csv"
    write_dataset_csv(ds, pool, config={"seed": 1})
    _in_process(monkeypatch, lambda: write_dataset_csv(ds, here, config={"seed": 1}))
    assert pooled == [(2, 6, [False] * 6), (0, 6, [False] * 6)]
    _reference_write(ds, rows, config={"seed": 1})
    assert pool.read_bytes() == here.read_bytes() == rows.read_bytes()


def _random_file(path, rows=2000):
    rng = np.random.default_rng(12)
    real = rng.normal(size=(rows, 2)) * 10.0 ** rng.integers(-20, 20, size=(rows, 2))
    real[::37] = [np.nan, -np.inf]
    ds = Dataset(variables=[real, rng.integers(0, 3, rows)],
                 specs=[VariableSpec.real(2), VariableSpec.categorical(3)])
    write_dataset_csv(ds, path, config={"seed": 2})
    return ds


@pytest.mark.parametrize("variables", [None, [0], [1], [1, 0]],
                         ids=["full", "vars0", "vars1", "vars1_0"])
@pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_pooled_read_matches_serial(tmp_path, monkeypatch, pooled, variables, ending):
    path = tmp_path / "d.csv"
    ds = _random_file(path)
    path.write_bytes(path.read_bytes().replace(b"\n", ending.encode()))
    pooled.clear()
    got = _read_three(path, monkeypatch, variables)
    assert pooled[0][1] > 4
    # On the pool, in this process, and with every chunk declined.
    assert [(workers, any(declined)) for workers, _, declined in pooled] == [
        (2, False), (0, False), (0, True)]
    _assert_same(got, _select(ds, variables or range(ds.m)))


# (file head, data line ending)
LONE_CR_FILES = {
    "cr_data": (HEADER, "\r"),
    "cr_header": (HEADER.replace("\n", "\r"), "\r"),
    "cr_comment": ("# note\r" + HEADER, "\n"),
}


@pytest.mark.parametrize("name", sorted(LONE_CR_FILES))
def test_pooled_read_of_lone_cr_lines_is_the_serial_read(tmp_path, monkeypatch, pooled,
                                                         name):
    head, ending = LONE_CR_FILES[name]
    path = tmp_path / "cr.csv"
    path.write_text(head + FILLER.replace("\n", ending) * 1500, encoding="utf-8",
                    newline="")
    got = _read_three(path, monkeypatch)
    assert got.n_samples == 1500
    # A lone CR in range 0, even one up to the header, makes it decline.
    assert [(workers, declined[:1]) for workers, _, declined in pooled] == [
        (2, [True]), (0, [True]), (0, [True])]


def test_a_first_range_without_the_header_declines(tmp_path, monkeypatch, pooled):
    path = tmp_path / "long_comment.csv"
    # The comment is longer than a range, so the header is in range 1.
    path.write_text("# " + "x" * 4000 + "\n" + HEADER + FILLER * 1000, encoding="utf-8")
    got = _read_three(path, monkeypatch)
    assert got.n_samples == 1000
    assert pooled[0][2][:1] == [True]


@pytest.mark.parametrize("line,rows", [
    ("\n", 2), (" \t\r\n", 2), ("# note\n", 2), ("1,2\r3\n", None), ("1,2,0\r\n", 3)],
    ids=["blank", "whitespace", "comment", "lone_cr", "crlf"])
def test_a_range_skips_blank_and_comment_lines_and_declines_a_lone_cr(tmp_path,
                                                                      monkeypatch, line,
                                                                      rows):
    # The same even with a loadtxt pass that took every line as a row.
    monkeypatch.setattr(data, "_fast_table", lambda lines, *args: np.zeros((len(lines), 3)))
    path = tmp_path / "d.csv"
    path.write_text("# c\n" + HEADER + "1,2,0\n" + line + "3,4,1\n", encoding="utf-8",
                    newline="")
    size = path.stat().st_size
    tables = data._read_range(path, 3, None, [(2, 3)], size, size, 0)
    assert (None if tables is None else sum(len(t) for t in tables)) == rows


def _check_declined_last(pooled, declines: bool):
    """The pooled read, then the same read in this process, each had 4
    ranges, and only the last declined if any did."""
    declined = [False] * 3 + [declines]
    assert pooled[:2] == [(2, 4, declined), (0, 4, declined)]


@pytest.mark.parametrize("variables", [None, [1]], ids=["full", "vars1"])
@pytest.mark.parametrize("name,body,fast", CORPUS, ids=[c[0] for c in CORPUS])
def test_pooled_read_of_a_corpus_anomaly_in_the_last_range(tmp_path, monkeypatch, pooled,
                                                          name, body, fast, variables):
    path = tmp_path / f"{name}.csv"
    _filled(path, body.encode())
    _read_three(path, monkeypatch, variables)
    _check_declined_last(pooled, declines=not (fast or (name, tuple(variables or ())) in
                                               FAST_ONLY_WHEN_PROJECTED))


@pytest.mark.parametrize("name,put,row_parsed,error", BOUNDARY,
                         ids=[c[0] for c in BOUNDARY])
def test_pooled_read_of_a_boundary_anomaly_in_the_last_range(tmp_path, monkeypatch, pooled,
                                                            name, put, row_parsed, error):
    path = tmp_path / f"{name}.csv"
    _filled(path, (put + FILLER).encode())
    got = _read_three(path, monkeypatch)
    if error is not None:
        offset, message = error
        assert got == f"{path}:{FILLER_ROWS + 2 + offset}: {message}"
    _check_declined_last(pooled, declines=row_parsed)


@pytest.mark.parametrize("variables", [None, [1]], ids=["full", "vars1"])
def test_pooled_read_of_a_non_utf8_byte_in_the_last_range(tmp_path, monkeypatch, pooled,
                                                         variables):
    path = tmp_path / "latin1.csv"
    _filled(path, b"1,2\xe9,1\n")
    got = _read_three(path, monkeypatch, variables)
    assert got == f"{path}:{FILLER_ROWS + 2}: not valid UTF-8 (byte 0xe9)"
    _check_declined_last(pooled, declines=True)


def _read_in_daemon(conn, path, pooled):
    conn.send((read_dataset_csv(path).variables[0].tobytes(),
               [workers for workers, _, _ in pooled]))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the child must inherit the patched module")
def test_read_in_a_daemonic_process_is_serial(tmp_path, monkeypatch, pooled):
    path = tmp_path / "d.csv"
    _filled(path, b"")
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_read_in_daemon, args=(sender, path, pooled),
                            daemon=True)
    child.start()
    sender.close()
    assert receiver.poll(60)
    got, child_workers = receiver.recv()
    child.join(60)
    assert child.exitcode == 0
    assert got == np.tile([1.5, 2.5], (FILLER_ROWS, 1)).tobytes()
    assert child_workers == [0]
    # The same read here is pooled.
    read_dataset_csv(path)
    assert [workers for workers, _, _ in pooled] == [2]


def test_read_and_write_with_one_cpu_or_another_thread_are_serial(tmp_path, monkeypatch,
                                                                  pooled):
    path = tmp_path / "d.csv"
    _filled(path, b"")
    ds = read_dataset_csv(path)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        write_dataset_csv(ds, tmp_path / "thread.csv")
        _assert_same(read_dataset_csv(path), ds)
    finally:
        stop.set()
        thread.join(10)
    monkeypatch.setattr(data, "_cpu_count", lambda: 1)
    write_dataset_csv(ds, tmp_path / "one_cpu.csv")
    _assert_same(read_dataset_csv(path), ds)
    assert [workers for workers, _, _ in pooled] == [2, 0, 0, 0, 0]


def _fails_in_a_worker(parent, x):
    if os.getpid() != parent:
        raise RuntimeError("worker failure")
    return 10 // x


def test_pool_map_redoes_a_failed_workers_tasks_here():
    call = functools.partial(_fails_in_a_worker, os.getpid())
    assert list(data._pool_map(call, [(1,), (2,), (5,)], 2)) == [10, 5, 2]
    with pytest.raises(ZeroDivisionError):
        list(data._pool_map(call, [(1,), (0,)], 2))


def test_pool_map_redoes_the_tasks_of_a_worker_whose_result_is_cut_short(monkeypatch):
    context = multiprocessing.get_context("fork")
    pipe = context.Pipe
    receivers = []

    def pipe_whose_first_result_is_cut_short(duplex=True):
        receiver, sender = pipe(duplex=duplex)
        if not receivers:
            def cut_short():
                # What recv raises when the sender dies in the middle of a result.
                raise OSError("got end of file during message")
            receiver.recv = cut_short
        receivers.append(receiver)
        return receiver, sender

    monkeypatch.setattr(context, "Pipe", pipe_whose_first_result_is_cut_short)
    got = list(data._pool_map(lambda x: (x, os.getpid()), [(x,) for x in range(5)], 2))
    assert len(receivers) == 2
    assert [x for x, _ in got] == list(range(5))
    # Worker 0's tasks, 0, 2 and 4, were done here.
    assert [pid == os.getpid() for _, pid in got] == [True, False, True, False, True]


@pytest.mark.parametrize("workers", [0, 1, 2])
def test_pool_map_maps_here_with_fewer_than_2_workers(workers):
    got = list(data._pool_map(lambda x: (x, os.getpid()), [(x,) for x in range(3)],
                              workers))
    assert [x for x, _ in got] == [0, 1, 2]
    assert {pid == os.getpid() for _, pid in got} == {workers < 2}


@pytest.mark.parametrize("tail,end", [(b"\r\nb\n", 2), (b"\rb\n", 1), (b"\nb\n", 1)],
                         ids=["crlf", "lone_cr", "lf"])
def test_line_start_reads_past_a_cr_that_ends_a_block(tmp_path, tail, end):
    path = tmp_path / "long.csv"
    body = b"a" * 5000 + tail
    path.write_bytes(body)
    with open(path, "rb") as fh:
        # The scan reads 4096-byte blocks from byte 905: the CR is a block's last.
        assert data._line_start(fh, 905, len(body)) == 5000 + end
        assert data._line_start(fh, 0, len(body)) == 0
        assert data._line_start(fh, len(body) + 7, len(body)) == len(body)


# ------------------------------------------------------------------ #
# pipes: read once, as a stream of lines
# ------------------------------------------------------------------ #


def _pipe_outcome(tmp_path, body: bytes, variables=None):
    """A named pipe in ``tmp_path``, and the outcome of reading ``body`` from it.

    The read runs in a thread, so that a read that opens the pipe a second
    time, and so waits for a writer that never comes, fails the test instead
    of hanging it.
    """
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    outcome = []
    writer = threading.Thread(target=fifo.write_bytes, args=(body,), daemon=True)
    reader = threading.Thread(target=lambda: outcome.append(_outcome(fifo, variables)),
                              daemon=True)
    writer.start()
    reader.start()
    reader.join(30)
    opened_again = reader.is_alive()
    if opened_again:  # let the second open through, to end the thread
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(30)
    writer.join(30)
    assert not (opened_again or reader.is_alive() or writer.is_alive())
    (got,) = outcome
    return fifo, got


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("variables", [None, [1], {"x": ["var0_1", "var0_0"], "y": ["var1"]}],
                         ids=["full", "vars1", "tokens"])
def test_a_named_pipe_reads_as_the_file(tmp_path, variables):
    path = tmp_path / "d.csv"
    _random_file(path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n", 100))
    _, got = _pipe_outcome(tmp_path, path.read_bytes(), variables)
    _assert_same(got, _outcome(path, variables))

@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("body,error", [
    (b"1,2,0\n# c\n3,4\n", "{path}:4: expected 3 cells, got 2"),
    (b"1,2,0\n3,4\xe9,1\n", "{path}:3: not valid UTF-8 (byte 0xe9)"),
    (b"1,2,0\n\n3,4,7\n", "{path}:4: categorical symbol out of range for var cardinality 3"),
    (b"1,2,nan\n", "{path}:2: categorical value is not an integer"),
], ids=["ragged_row", "non_utf8", "symbol_out_of_range", "nan_symbol"])
def test_a_named_pipe_names_the_line_of_an_error(tmp_path, body, error):
    fifo, got = _pipe_outcome(tmp_path, HEADER.encode() + body)
    assert got == error.format(path=fifo)


def _cli(args, stdin: bytes):
    """``usable-info args`` in a new process, with ``stdin`` piped to it."""
    src = str(Path(data.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "usable_info.cli", *args], input=stdin,
                          env=env, capture_output=True, timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_estimate_reads_a_dataset_piped_to_stdin(tmp_path):
    body = b"var0_0,var1_0\n1,2\n2,3.5\n3,3\n4,9\n"
    piped, saved = tmp_path / "piped.json", tmp_path / "saved.json"
    args = ["estimate", "--x-cols", "var0", "--y-cols", "var1", "--family",
            "linear_gaussian", "--out"]
    proc = _cli([*args, str(piped), "--data", "/dev/stdin"], body)
    assert proc.returncode == 0, proc.stderr
    path = tmp_path / "d.csv"
    path.write_bytes(body)
    assert main([*args, str(saved), "--data", str(path)]) == 0
    results = [{k: v for k, v in json.loads(p.read_text())["results"].items()
                if k != "timings"} for p in (piped, saved)]
    assert results[0] == results[1]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_a_bad_symbol_in_a_piped_dataset_is_a_data_error(tmp_path):
    proc = _cli(["estimate", "--data", "/dev/stdin", "--x-cols", "var0", "--y-cols", "var1",
                 "--family", "tabular", "--out", str(tmp_path / "e.json")],
                b"var0_0:cat3,var1_0\n1,2\n7,3\n")
    assert proc.returncode == 3
    assert proc.stderr.decode() == ("data error: /dev/stdin:3: categorical "
                                    "symbol out of range for var cardinality 3\n")
