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


def read_csv_rows(path) -> list[tuple[int, list[str]]]:
    """The ``(line number, cells)`` of each non-comment, non-blank row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [(line_no, next(csv.reader([line])))
                for line_no, line in enumerate(fh, start=1)
                if line.strip() and not line.startswith("#")]


def write_dataset_csv(dataset: Dataset, path, config: dict | None = None) -> None:
    """Write a dataset in the package CSV format (see module docstring)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if config is not None:
            _write_config(fh, config)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_header(dataset.specs))
        n = dataset.n_samples
        for row_idx in range(n):
            row = []
            for arr, spec in zip(dataset.variables, dataset.specs):
                if spec.kind == "real":
                    row.extend(format(v, ".17g") for v in arr[row_idx])
                else:
                    row.append(str(int(arr[row_idx])))
            writer.writerow(row)


def read_dataset_csv(path) -> Dataset:
    """Parse a dataset CSV; raises :class:`DataError` with line numbers."""
    rows = read_csv_rows(path)
    if not rows:
        raise DataError(f"{path}: no header row found")
    (header_line, header), rows = rows[0], rows[1:]

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
            spec = VariableSpec.categorical(own[0][2])
        else:
            coords = [c[1] for c in own]
            if coords != list(range(len(own))):
                raise DataError(f"{path}:{header_line}: var{vid} coordinates "
                                f"must be 0..d-1")
            spec = VariableSpec.real(len(own))
        layout.append((spec, [c[3] for c in own]))

    if not rows:
        raise DataError(f"{path}: no data rows")
    n_cols = len(header)
    parsed = []
    for line_no, cells in rows:
        if len(cells) != n_cols:
            raise DataError(f"{path}:{line_no}: expected {n_cols} cells, "
                            f"got {len(cells)}")
        try:
            parsed.append([float(c) for c in cells])
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from None
    table = np.asarray(parsed, dtype=float)

    variables = []
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
            variables.append(ints)
        else:
            variables.append(block)
        specs.append(spec)
    return Dataset(variables=variables, specs=specs)
