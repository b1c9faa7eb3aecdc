"""Dataset CSV reader and writer against their row-by-row reference forms."""

import csv
import json

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


def _outcome(path, variables=None):
    try:
        return read_dataset_csv(path, variables=variables)
    except DataError as exc:
        return str(exc)


def _read_both(path, monkeypatch, variables=None):
    """What the reader gives, with the loadtxt pass and with the row parser only."""
    fast = _outcome(path, variables)
    with monkeypatch.context() as patch:
        patch.setattr(data, "_fast_table", lambda *args: None)
        rows_only = _outcome(path, variables)
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


# ------------------------------------------------------------------ #
# column-projected reads
# ------------------------------------------------------------------ #

# Corpus files whose full read fails on a cell of one variable: that variable.
# A projected read that leaves the variable out does not convert the cell.
BAD_CELL_VARIABLE = {"hash_mid_line": 0, "non_numeric": 0, "non_integer_symbol": 1,
                     "symbol_out_of_range": 1, "negative_symbol": 1}
# (file, variables) whose loadtxt pass succeeds only because the cell it
# rejects in a full read is in an unselected column.
FAST_ONLY_WHEN_PROJECTED = {("non_numeric", (1,)), ("underscore_digits", (1,))}
SUBSETS = [(0,), (1,), (1, 0)]


def _select(full, variables):
    """A full read's outcome, cut down to ``variables`` (errors pass through)."""
    if isinstance(full, str):
        return full
    return Dataset(variables=[full.variables[v] for v in variables],
                   specs=[full.specs[v] for v in variables])


def _fast_pass_taken(path, monkeypatch, variables):
    """Whether a projected read of ``path`` skips the row parser."""
    calls = []
    parse_rows = data._parse_rows
    with monkeypatch.context() as patch:
        patch.setattr(data, "_parse_rows",
                      lambda *args: calls.append(args) or parse_rows(*args))
        _outcome(path, variables)
    return not calls


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
        read_dataset_csv(path, variables=variables)
    assert str(err.value) == f"{path}:{line}: expected 3 cells, got {width}"


def test_projected_read_names_the_line_of_a_bad_selected_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "1,2,0\n# c\n3,oops,1\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_dataset_csv(path, variables=[0])
    assert str(err.value) == (f"{path}:4: could not convert string to float: 'oops'")


def test_projected_read_accepts_a_bad_unselected_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "1,2,0\n3,oops,1\n5,6,2\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_dataset_csv(path)
    got = read_dataset_csv(path, variables=[1])
    assert got.specs == [VariableSpec.categorical(3)]
    assert got.variables[0].tolist() == [0, 1, 2]


def test_projected_read_keeps_the_given_order_and_header_specs(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("var1_0:cat5,var0_1,var2_0,var0_0\n2,1.5,7,-1\n0,2.5,8,-2\n",
                    encoding="utf-8")
    got = read_dataset_csv(path, variables=[1, 0])
    assert got.specs == [VariableSpec.categorical(5), VariableSpec.real(2)]
    assert got.variables[0].tolist() == [2, 0]
    assert got.variables[1].tolist() == [[-1.0, 1.5], [-2.0, 2.5]]


@pytest.mark.parametrize("variables", [[3], [0, -1]])
def test_projected_read_of_a_missing_variable_raises_key_error(tmp_path, variables):
    path = tmp_path / "d.csv"
    path.write_text(HEADER + "1,2,0\n", encoding="utf-8")
    with pytest.raises(KeyError) as err:
        read_dataset_csv(path, variables=variables)
    assert err.value.args == (variables[-1],)


def test_projected_read_still_validates_the_whole_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("var0_0,var1_0,var1_2\n1,2,3\n", encoding="utf-8")
    with pytest.raises(DataError, match="var1 coordinates must be 0..d-1"):
        read_dataset_csv(path, variables=[0])


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
    assert seen == [[0, 1, 5]]
    assert json.loads(out.read_text())["config"]["x_cols"] == ["var2"]
