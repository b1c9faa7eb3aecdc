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
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .families import VariableSpec

__all__ = ["Dataset", "write_dataset_csv", "read_dataset_csv", "write_rows_csv",
           "read_csv_rows"]

_COLUMN_RE = re.compile(r"^var(\d+)_(\d+)(?::cat(\d+))?$")


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


def _content_lines(path) -> list[tuple[int, str]]:
    """The ``(line number, text)`` of each non-comment, non-blank line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [(line_no, line) for line_no, line in enumerate(fh, start=1)
                if line.strip() and not line.startswith("#")]


def read_csv_rows(path) -> list[tuple[int, list[str]]]:
    """The ``(line number, cells)`` of each non-comment, non-blank row."""
    return [(line_no, next(csv.reader([line])))
            for line_no, line in _content_lines(path)]


# Rows formatted per write call; bounds the formatted text held at once.
_WRITE_CHUNK_ROWS = 1024


def write_dataset_csv(dataset: Dataset, path, config: dict | None = None) -> None:
    """Write a dataset in the package CSV format (see module docstring).

    Categorical symbols are stacked as floats: ``%.17g`` of ``3.0`` is ``3``.
    """
    table = np.column_stack([np.asarray(v, dtype=float) for v in dataset.variables])
    row_format = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if config is not None:
            _write_config(fh, config)
        fh.write(",".join(_header(dataset.specs)) + "\n")
        for start in range(0, table.shape[0], _WRITE_CHUNK_ROWS):
            chunk = table[start:start + _WRITE_CHUNK_ROWS]
            fh.write((row_format * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def read_dataset_csv(path, variables=None) -> Dataset:
    """Parse a dataset CSV; raises :class:`DataError` with line numbers.

    ``variables``, a sequence of variable indices, projects the read: the
    result holds just those variables, in the order given, with their specs
    from the header.  The whole header is still validated, and every row
    must still have one cell per header column, but only the selected
    columns are converted, so a malformed cell in an unselected column is
    not an error.  An index the header lacks raises ``KeyError(index)``.

    The data rows go through one ``np.loadtxt`` pass; when it declines, the
    row-by-row parser reads them and names the offending line.
    """
    lines = _content_lines(path)
    if not lines:
        raise DataError(f"{path}: no header row found")
    (header_line, header_text), rows = lines[0], lines[1:]
    header = next(csv.reader([header_text]))

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

    layout = []  # per variable: (spec, column positions in coordinate order)
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

    if not rows:
        raise DataError(f"{path}: no data rows")
    table = _fast_table(rows, len(header), usecols)
    if table is None:
        table = _parse_rows(path, rows, len(header), usecols)

    arrays = []
    specs = []
    for spec, positions in layout:
        block = table[:, positions]
        if spec.kind == "categorical":
            col = block[:, 0]
            ints = col.astype(np.int64)
            if np.any(ints != col):
                bad = int(np.flatnonzero(ints != col)[0])
                raise DataError(f"{path}:{rows[bad][0]}: categorical value "
                                f"is not an integer")
            if np.any(ints < 0) or np.any(ints >= spec.cardinality):
                bad = int(np.flatnonzero((ints < 0) | (ints >= spec.cardinality))[0])
                raise DataError(f"{path}:{rows[bad][0]}: categorical symbol "
                                f"out of range for var cardinality "
                                f"{spec.cardinality}")
            arrays.append(ints)
        else:
            arrays.append(block)
        specs.append(spec)
    return Dataset(variables=arrays, specs=specs)


def _fast_table(rows, n_cols: int, usecols=None) -> np.ndarray | None:
    """The data rows parsed in one ``np.loadtxt`` pass, or None.

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
