"""Multi-variable sample sets and their CSV wire format.

A :class:`Dataset` holds N aligned samples of m variables.  Real variables
are ``(N, d)`` float arrays; categorical variables are ``(N,)`` integer
symbol arrays.

CSV format
----------
One row per sample.  Coordinate k of real variable i is the column
``var<i>_<k>``; a categorical variable with C symbols is the single column
``var<i>_0:cat<C>`` holding non-negative integers.  Values are written
with 17 significant digits so float64 round-trips exactly.  Files are
UTF-8 with LF line endings and ``.`` as the decimal separator.  Lines
starting with ``#`` are comments; tools in this package emit a leading
``# config: <json>`` comment so every file records how it was produced.
Result tables (``usable-info sweep``, ``baselines``) share these rules.

Reading
-------
:func:`read_dataset_csv` validates the whole header and checks that every
data row has one cell per header column.  Given ``variables``, it converts
only those variables' columns (``usable-info estimate`` reads just the
variables its column tokens name), so a malformed cell in any other column
goes unnoticed; a full read rejects it with its line number.

The read is one pass over the file's lines.  Data rows go to ``np.loadtxt``
a bounded chunk at a time; a chunk that loadtxt declines (a quoted cell, a
mid-line ``#``, a row of the wrong width, a cell it cannot convert) goes to
the row-by-row parser, which names the offending line.  The converted
chunks are then joined and split into variables, so a read holds the
converted columns at most twice over plus one chunk of text, never the
whole file.  A categorical symbol that is not valid is found after the
join; its line is found by reading the file again.  Lines end at LF, CRLF
or a lone CR, and a byte that is not UTF-8 is an error naming its line.
Writing, too, formats one chunk of rows at a time.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .families import VariableSpec

__all__ = ["Dataset", "write_dataset_csv", "read_dataset_csv", "write_rows_csv",
           "read_csv_rows"]

_COLUMN_RE = re.compile(r"^var(\d+)_(\d+)(?::cat(\d+))?$")
# An undecodable byte, as the surrogateescape error handler reads it.
_ESCAPED_BYTE_RE = re.compile("[\udc80-\udcff]")


@dataclass
class Dataset:
    """N aligned samples of m real-vector or categorical variables."""

    variables: list[np.ndarray]
    specs: list[VariableSpec]

    def __post_init__(self):
        if len(self.variables) != len(self.specs):
            raise ValueError("one spec per variable required")
        if not self.variables:
            raise ValueError("dataset has no variables")
        lengths = set()
        for arr, spec in zip(self.variables, self.specs):
            if spec.kind == "real":
                if arr.ndim != 2 or arr.shape[1] != spec.dim:
                    raise ValueError("real variable array must be (N, dim)")
            else:
                if arr.ndim != 1:
                    raise ValueError("categorical variable array must be (N,)")
                if arr.min(initial=0) < 0 or arr.max(initial=0) >= spec.cardinality:
                    raise ValueError("categorical symbol out of range")
            lengths.add(arr.shape[0])
        if len(lengths) != 1:
            raise ValueError("variables must have aligned sample counts")

    @property
    def n_samples(self) -> int:
        return self.variables[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.variables)


def _header(specs: list[VariableSpec]) -> list[str]:
    cols = []
    for i, spec in enumerate(specs):
        if spec.kind == "real":
            cols.extend(f"var{i}_{k}" for k in range(spec.dim))
        else:
            cols.append(f"var{i}_0:cat{spec.cardinality}")
    return cols


def _write_config(fh, config: dict) -> None:
    fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")


def write_rows_csv(path, config: dict, header: list[str], rows) -> None:
    """Write a result table: config comment, header, rows (floats at .17g)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_config(fh, config)
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _content_lines(path):
    """Yield the ``(line number, text)`` of each non-comment, non-blank line.

    Lines end at LF, CRLF or a lone CR and keep their ending.  A byte that is
    not UTF-8 raises :class:`DataError` naming its line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if line.strip() and not line.startswith("#"):
                    yield line_no, line
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _not_utf8(path) -> DataError:
    """The error for a file that is not UTF-8, naming its first bad line.

    The decoder fails a whole buffer ahead of the line that holds the byte,
    so the line is found by reading again, each bad byte escaped to a lone
    surrogate (which UTF-8 text cannot hold).
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            bad = _ESCAPED_BYTE_RE.search(line)
            if bad:
                byte = ord(bad.group()) - 0xDC00
                return DataError(f"{path}:{line_no}: not valid UTF-8 "
                                 f"(byte 0x{byte:02x})")
    return DataError(f"{path}: not valid UTF-8")


def read_csv_rows(path) -> list[tuple[int, list[str]]]:
    """The ``(line number, cells)`` of each non-comment, non-blank row."""
    return [(line_no, next(csv.reader([line])))
            for line_no, line in _content_lines(path)]


# Cells converted per chunk, read or written: bounds the text, the Python
# floats and the chunk table held at once, however wide the file.
_CHUNK_CELLS = 1 << 14


def _chunk_rows(n_cols: int) -> int:
    """Rows per chunk of a file ``n_cols`` cells wide."""
    return max(1, _CHUNK_CELLS // n_cols)


def write_dataset_csv(dataset: Dataset, path, config: dict | None = None) -> None:
    """Write a dataset in the package CSV format (see module docstring).

    Categorical symbols are stacked as floats: ``%.17g`` of ``3.0`` is ``3``.
    """
    header = _header(dataset.specs)
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    step = _chunk_rows(len(header))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if config is not None:
            _write_config(fh, config)
        fh.write(",".join(header) + "\n")
        for start in range(0, dataset.n_samples, step):
            chunk = np.column_stack([np.asarray(v[start:start + step], dtype=float)
                                     for v in dataset.variables])
            fh.write((row_format * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def _layout(path, header_line: int, header: list[str]):
    """Per variable of a header: ``(spec, column positions in coordinate order)``."""
    columns = []
    for pos, name in enumerate(header):
        match = _COLUMN_RE.match(name.strip())
        if not match:
            raise DataError(
                f"{path}:{header_line}: column {pos + 1} has malformed "
                f"name {name!r} (expected var<i>_<k>[:cat<C>])"
            )
        var_idx, coord, card = match.groups()
        columns.append((int(var_idx), int(coord),
                        int(card) if card is not None else None, pos))

    var_ids = sorted({c[0] for c in columns})
    if var_ids != list(range(len(var_ids))):
        raise DataError(f"{path}:{header_line}: variable indices must be 0..m-1")

    layout = []
    for vid in var_ids:
        own = sorted((c for c in columns if c[0] == vid), key=lambda c: c[1])
        cards = {c[2] for c in own}
        if None in cards and len(cards) > 1:
            raise DataError(f"{path}:{header_line}: var{vid} mixes real and "
                            f"categorical columns")
        if own[0][2] is not None:
            if len(own) != 1:
                raise DataError(f"{path}:{header_line}: categorical var{vid} "
                                f"must be a single column")
            try:
                spec = VariableSpec.categorical(own[0][2])
            except ValueError as exc:
                raise DataError(f"{path}:{header_line}: var{vid}: {exc}") from None
        else:
            coords = [c[1] for c in own]
            if coords != list(range(len(own))):
                raise DataError(f"{path}:{header_line}: var{vid} coordinates "
                                f"must be 0..d-1")
            spec = VariableSpec.real(len(own))
        layout.append((spec, [c[3] for c in own]))
    return layout


def read_dataset_csv(path, variables=None) -> Dataset:
    """Parse a dataset CSV; raises :class:`DataError` with line numbers.

    ``variables``, a sequence of variable indices, projects the read: the
    result holds just those variables, in the order given, with their specs
    from the header.  The whole header is still validated, and every row
    must still have one cell per header column, but only the selected
    columns are converted, so a malformed cell in an unselected column is
    not an error.  An index the header lacks raises ``KeyError(index)``.

    The data rows are read in one pass, a bounded chunk at a time (see
    module docstring).
    """
    with contextlib.closing(_content_lines(path)) as lines:
        header_line, header_text = next(lines, (None, None))
        if header_text is None:
            raise DataError(f"{path}: no header row found")
        header = next(csv.reader([header_text]))
        n_cols = len(header)
        layout = _layout(path, header_line, header)

        usecols = None
        if variables is not None:
            for vid in variables:
                if not 0 <= vid < len(layout):
                    raise KeyError(vid)
            layout = [layout[vid] for vid in variables]
            usecols = sorted({pos for _, positions in layout for pos in positions})
            where = {pos: k for k, pos in enumerate(usecols)}
            layout = [(spec, [where[pos] for pos in positions])
                      for spec, positions in layout]

        chunks = []
        while rows := list(itertools.islice(lines, _chunk_rows(n_cols))):
            table = _fast_table(rows, n_cols, usecols)
            if table is None:
                table = _parse_rows(path, rows, n_cols, usecols)
            chunks.append(table)
    if not chunks:
        raise DataError(f"{path}: no data rows")
    table = np.concatenate(chunks)
    del chunks  # so that at most two copies of the table are held at once

    arrays = []
    specs = []
    for spec, positions in layout:
        block = table[:, positions]
        if spec.kind == "categorical":
            col = block[:, 0]
            ints = col.astype(np.int64)
            if np.any(ints != col):
                bad = int(np.flatnonzero(ints != col)[0])
                raise DataError(f"{path}:{_data_line(path, bad)}: categorical "
                                f"value is not an integer")
            if np.any(ints < 0) or np.any(ints >= spec.cardinality):
                bad = int(np.flatnonzero((ints < 0) | (ints >= spec.cardinality))[0])
                raise DataError(f"{path}:{_data_line(path, bad)}: categorical "
                                f"symbol out of range for var cardinality "
                                f"{spec.cardinality}")
            arrays.append(ints)
        else:
            arrays.append(block)
        specs.append(spec)
    return Dataset(variables=arrays, specs=specs)


def _data_line(path, row: int) -> int:
    """The line number of data row ``row`` (0-based), read again from the file."""
    with contextlib.closing(_content_lines(path)) as lines:
        return next(itertools.islice(lines, row + 1, None))[0]


def _fast_table(rows, n_cols: int, usecols=None) -> np.ndarray | None:
    """A chunk of data rows parsed in one ``np.loadtxt`` call, or None.

    ``usecols`` (sorted column positions; None for all) picks the columns
    converted.  None when a row holds a quote or a mid-line ``#`` (which the
    csv module and loadtxt read differently), when a row is not ``n_cols``
    cells wide, or when loadtxt rejects a row; :func:`_parse_rows` then
    names the line.
    """
    lines = [line for _, line in rows]
    if any('"' in line or "#" in line for line in lines):
        return None
    # loadtxt checks row widths only when it converts every column.
    if usecols is not None and any(line.count(",") != n_cols - 1 for line in lines):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                           usecols=usecols)
    except ValueError:
        return None
    width = n_cols if usecols is None else len(usecols)
    return table if table.shape == (len(lines), width) else None


def _parse_rows(path, rows, n_cols: int, usecols=None) -> np.ndarray:
    """Row-by-row parser: the csv module, then ``float`` on each cell in
    ``usecols`` (all when None).  Every row must be ``n_cols`` cells wide."""
    usecols = range(n_cols) if usecols is None else usecols
    table = np.empty((len(rows), len(usecols)))
    for r, (line_no, line) in enumerate(rows):
        cells = next(csv.reader([line]))
        if len(cells) != n_cols:
            raise DataError(f"{path}:{line_no}: expected {n_cols} cells, "
                            f"got {len(cells)}")
        try:
            table[r] = [float(cells[pos]) for pos in usecols]
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from None
    return table
