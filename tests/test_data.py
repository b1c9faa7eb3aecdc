"""Dataset CSV reader and writer against their row-by-row reference forms."""

import csv

import numpy as np
import pytest

from usable_info import data
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


def _outcome(path):
    try:
        return read_dataset_csv(path)
    except DataError as exc:
        return str(exc)


def _read_both(path, monkeypatch):
    """What the reader gives, with the loadtxt pass and with the row parser only."""
    fast = _outcome(path)
    with monkeypatch.context() as patch:
        patch.setattr(data, "_fast_table", lambda rows, n_cols: None)
        rows_only = _outcome(path)
    return fast, rows_only


def _assert_same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    assert a.specs == b.specs
    for x, y in zip(a.variables, b.variables):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def _fast_path_taken(path):
    (_, header), *rows = data._content_lines(path)
    return data._fast_table(rows, len(header.split(","))) is not None


# (name, file body after the header, whether the loadtxt pass accepts it)
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
    ("non_integer_symbol", "1,2,1.5\n", True),
    ("symbol_out_of_range", "1,2,3\n", True),
    ("negative_symbol", "1,2,-1\n", True),
]


@pytest.mark.parametrize("name,body,fast", CORPUS, ids=[c[0] for c in CORPUS])
def test_reader_matches_row_parser(tmp_path, monkeypatch, name, body, fast):
    path = tmp_path / f"{name}.csv"
    path.write_text("# config: {\"a\": 1}\n" + HEADER + body, encoding="utf-8",
                    newline="")
    got, want = _read_both(path, monkeypatch)
    _assert_same(got, want)
    assert _fast_path_taken(path) == fast


def test_reader_row_errors_name_their_line(tmp_path, monkeypatch):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "1,2,0\n\n# c\n1,2#x,0\n", encoding="utf-8")
    got, want = _read_both(path, monkeypatch)
    assert got == want
    assert got.startswith(f"{path}:5: ")


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
    assert _fast_path_taken(path)
    assert np.hstack(got.variables).tobytes() == values.tobytes()


def test_writer_bytes_match_row_loop(tmp_path):
    rng = np.random.default_rng(3)
    n = 2 * data._WRITE_CHUNK_ROWS + 3
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
