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
data row has one cell per header column.  Given ``columns``, column tokens
(``var<i>`` or ``var<i>_<k>``) grouped by label, it converts only the
columns the tokens name (``usable-info estimate`` reads just the columns of
its ``--x-cols`` and ``--y-cols``), so a malformed cell in any other column
goes unnoticed; a full read rejects it with its line number.

The header is read and checked first, then the selection, if any, against
it, so a bad token is reported before any data row is read.  A regular
file's data rows are then parsed in byte ranges of about one chunk each,
cut at line starts, on the process pool when the pool rule below allows it
and in this process otherwise.  Each range is read and decoded on its own,
so the main process never holds the file's text, and parsed by
``np.loadtxt`` a bounded chunk at a time.  Blank and comment lines make no
rows, and the first range, which starts at the file's first byte, drops its
first content line: the header.  A range that holds anything the loadtxt
pass declines (a quoted cell, a mid-line ``#``, a lone CR, a byte that is
not UTF-8, a row of the wrong width, a cell loadtxt cannot convert, a
symbol that is not an integer in ``[0, C)``) hands all the data rows to the
row-by-row parser instead, which checks each row as it converts it, so an
error names the first bad line.  A file that is not a regular file, such as
a pipe (``--data /dev/stdin``), is read once, as a stream of lines, by the
row parser.  Either way the converted chunks are then joined and split into
variables, so a read holds the converted columns at most twice over plus a
bounded number of chunks, never the whole file, and no file is read twice.
Lines end at LF, CRLF or a lone CR, and a byte that is not UTF-8 is an
error naming its line.

Writing
-------
:func:`write_dataset_csv` formats one chunk of rows at a time, on the
process pool when the pool rule allows it and in this process otherwise,
and writes the chunks' text in order.  The file's bytes do not depend on
where the chunks were formatted.

The pool rule
-------------
The pool rule decides only where a read's ranges or a write's chunks are
done; the code that does them is the same.  They run on a pool of forked
worker processes when all of these hold: at least 2 CPUs are usable by this
process (``os.sched_getaffinity``), the default start method is ``fork``,
this process is not daemonic (a daemonic process may not have children), no
other Python thread is running (forking one is unsafe), and the data spans
at least ``_POOL_MIN_CHUNKS`` chunks, enough to repay the pool's start-up.
The pool has one worker per usable CPU, up to one per chunk, and a worker
runs ahead of this process by at most one chunk beyond what its pipe
buffers.  Otherwise they run in this process, one after another.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import os
import re
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .families import VariableSpec

__all__ = ["Dataset", "write_dataset_csv", "read_dataset_csv", "write_rows_csv",
           "read_csv_rows"]

_COLUMN_RE = re.compile(r"^var(\d+)_(\d+)(?::cat(\d+))?$")
# A column token of a projected read: a whole variable, or one coordinate.
_TOKEN_RE = re.compile(r"var(\d+)(?:_(\d+))?")
# An undecodable byte, as the surrogateescape error handler reads it.
_ESCAPED_BYTE_RE = re.compile("[\udc80-\udcff]")
# A line ending, in a file read as bytes.
_LINE_END_RE = re.compile(rb"\r\n|\r|\n")


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
    not UTF-8 raises :class:`DataError` naming its line.  The file is read
    once, so it may be a pipe.
    """
    # Each bad byte is escaped to a lone surrogate, which UTF-8 text cannot
    # hold: a strict decoder fails a whole buffer ahead of the byte's line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            bad = _ESCAPED_BYTE_RE.search(line)
            if bad:
                raise DataError(f"{path}:{line_no}: not valid UTF-8 "
                                f"(byte 0x{ord(bad.group()) - 0xDC00:02x})")
            if line.strip() and not line.startswith("#"):
                yield line_no, line


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


# The fewest chunks a read or write must have to run on the pool.  On a 2-CPU
# host the pool's start-up (10-20 ms) costs about what a second CPU saves on
# 6 to 8 chunks; this leaves a margin.
_POOL_MIN_CHUNKS = 16
# Bytes per cell of a read's byte ranges, so that a range holds about
# a chunk: ``%.17g`` text is at most 24 characters, and a comma follows it.
_CELL_BYTES = 25


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_workers(chunks: int) -> int:
    """Worker processes for a read or write of ``chunks`` chunks; below 2,
    it runs in this process (see "The pool rule" in the module docstring)."""
    workers = min(_cpu_count(), chunks)
    if workers < 2 or chunks < _POOL_MIN_CHUNKS or threading.active_count() > 1:
        return 0
    import multiprocessing  # loaded already by the CLI; kept off package import

    method = (multiprocessing.get_start_method(allow_none=True)
              or multiprocessing.get_all_start_methods()[0])
    if method != "fork" or multiprocessing.current_process().daemon:
        return 0
    return workers


def _serve(conn, readers, call, tasks) -> None:
    """A pool worker: send ``call(*task)`` for each task down ``conn``, in order.

    ``readers``, the reading ends of the pipes made so far, are closed first,
    so that a pipe's reading end is open only in the process that reads it.
    """
    for reader in readers:
        reader.close()
    try:
        for task in tasks:
            conn.send(call(*task))
    except Exception:  # the main process redoes the task, and raises its error
        pass
    finally:
        conn.close()


def _pool_map(call, tasks: list, workers: int):
    """Yield ``call(*task)`` for each task, in order, computed on ``workers``
    forked processes, or in this process when ``workers`` is below 2.

    Worker k takes tasks k, k + workers, ... and sends each result down its
    own pipe, where a full pipe blocks it: a worker runs ahead of this
    process by at most one result beyond what the pipe buffers.  ``call``
    reaches the workers through the fork, not by pickling, so it may hold
    large arrays; results are pickled.  The results are read in this thread,
    so they are allocated where the caller's own memory is.  A task whose
    worker failed, even in the middle of sending a result, is done here, and
    raises here.  Close the generator to stop early.
    """
    if workers < 2:
        yield from itertools.starmap(call, tasks)
        return
    import multiprocessing

    context = multiprocessing.get_context("fork")
    conns, procs = [], []
    try:
        for k in range(workers):
            receiver, sender = context.Pipe(duplex=False)
            conns.append(receiver)
            proc = context.Process(target=_serve, daemon=True,
                                   args=(sender, list(conns), call, tasks[k::workers]))
            proc.start()
            procs.append(proc)
            sender.close()
        failed = set()
        for i, task in enumerate(tasks):
            k = i % workers
            if k not in failed:
                try:
                    yield conns[k].recv()
                    continue
                except (EOFError, OSError):  # OSError: a result cut short
                    failed.add(k)
            yield call(*task)
    finally:
        for conn in conns:
            conn.close()  # a worker still sending then stops, at a broken pipe
        for proc in procs:
            proc.join()


def _format_rows(variables, row_format: str, step: int, start: int) -> str:
    """The CSV text of rows ``start`` to ``start + step`` of ``variables``."""
    chunk = np.column_stack([np.asarray(v[start:start + step], dtype=float)
                             for v in variables])
    return (row_format * chunk.shape[0]) % tuple(chunk.ravel().tolist())


def write_dataset_csv(dataset: Dataset, path, config: dict | None = None) -> None:
    """Write a dataset in the package CSV format (see module docstring).

    Categorical symbols are stacked as floats: ``%.17g`` of ``3.0`` is ``3``.
    Rows are formatted a chunk at a time, on a process pool when the pool
    rule in the module docstring allows; the bytes written are the same
    either way.
    """
    header = _header(dataset.specs)
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    step = _chunk_rows(len(header))
    starts = range(0, dataset.n_samples, step)
    call = functools.partial(_format_rows, dataset.variables, row_format, step)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if config is not None:
            _write_config(fh, config)
        fh.write(",".join(header) + "\n")
        with contextlib.closing(_pool_map(call, [(s,) for s in starts],
                                          _pool_workers(len(starts)))) as texts:
            fh.writelines(texts)


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


def _selection(layout, label: str, tokens) -> tuple[VariableSpec, list[int]]:
    """The spec and header column positions of the variable that ``tokens``
    select from a header's ``layout``; a bad selection raises
    ``ValueError("<label>: ...")``."""
    positions = []
    categorical = None
    for token in tokens:
        match = _TOKEN_RE.fullmatch(token)
        if not match:
            raise ValueError(f"{label}: bad column token {token!r}")
        vid, coord = int(match.group(1)), match.group(2)
        if vid >= len(layout):
            raise ValueError(f"{label}: no variable var{vid}")
        spec, own = layout[vid]
        if spec.kind == "categorical":
            if coord not in (None, "0"):
                raise ValueError(f"{label}: var{vid} is categorical; select it whole")
            categorical = spec, own
        elif coord is None:
            positions.extend(own)
        elif int(coord) < spec.dim:
            positions.append(own[int(coord)])
        else:
            raise ValueError(f"{label}: var{vid} has no coordinate {int(coord)}")
    if categorical is not None:
        if positions or len(tokens) != 1:
            raise ValueError(f"{label}: a categorical variable must be selected alone")
        return categorical
    if not positions:
        raise ValueError(f"{label}: no columns selected")
    return VariableSpec.real(len(positions)), positions


def read_dataset_csv(path, columns=None) -> Dataset:
    """Parse a dataset CSV; raises :class:`DataError` with line numbers.

    ``columns``, a ``{label: [token, ...]}`` mapping, projects the read: the
    result holds one variable per label, in the mapping's order.  A token is
    ``var<i>`` (the whole variable) or ``var<i>_<k>`` (one real coordinate);
    a label's real tokens make one real variable of their columns, in token
    order, and a categorical variable must be its label's only token, and
    keeps the header's cardinality.  The whole header is still validated,
    and every row must still have one cell per header column, but only the
    named columns are converted, so a malformed cell in any other column is
    not an error.  A bad selection raises ``ValueError("<label>: ...")``
    once the header is checked, before any data row is read.

    The data rows are parsed a bounded chunk at a time, on a process pool
    when the pool rule in the module docstring allows; the result, and every
    error, is the same either way.  ``path`` may be a pipe, read once.
    """
    with contextlib.closing(_content_lines(path)) as lines:
        header_line, header_text = next(lines, (None, None))
        if header_text is None:
            raise DataError(f"{path}: no header row found")
        header = next(csv.reader([header_text]))
        n_cols = len(header)
        layout = _layout(path, header_line, header)

        usecols = None
        if columns is not None:
            layout = [_selection(layout, label, tokens)
                      for label, tokens in columns.items()]
            usecols = sorted({pos for _, positions in layout for pos in positions})
            where = {pos: k for k, pos in enumerate(usecols)}
            layout = [(spec, [where[pos] for pos in positions])
                      for spec, positions in layout]

        symbols = [(positions[0], spec.cardinality) for spec, positions in layout
                   if spec.kind == "categorical"]
        chunks = _range_chunks(path, n_cols, usecols, symbols) if os.path.isfile(path) else None
        if chunks is None:
            chunks = []
            while rows := list(itertools.islice(lines, _chunk_rows(n_cols))):
                chunks.append(_parse_rows(path, rows, n_cols, usecols, symbols))
    if not chunks:
        raise DataError(f"{path}: no data rows")
    table = np.concatenate(chunks)
    del chunks  # so that at most two copies of the table are held at once
    return Dataset(variables=[table[:, positions[0]].astype(np.int64)
                              if spec.kind == "categorical" else table[:, positions]
                              for spec, positions in layout],
                   specs=[spec for spec, _ in layout])


def _symbol_error(value: float, cardinality: int) -> str | None:
    """What makes ``value`` no categorical symbol, an integer in
    ``[0, cardinality)``, or None.  :func:`_read_range` declines the same."""
    if not (value.is_integer() and -2.0**63 <= value < 2.0**63):  # nan, inf, 1e300
        return "categorical value is not an integer"
    if not 0 <= value < cardinality:
        return f"categorical symbol out of range for var cardinality {cardinality}"
    return None


def _range_chunks(path, n_cols: int, usecols, symbols) -> list[np.ndarray] | None:
    """The chunk tables of a regular file's data rows, parsed a byte range at
    a time (on the process pool when the pool rule allows); None when a range
    declines, and the rows are for the row parser."""
    size = os.path.getsize(path)
    span = _CHUNK_CELLS * _CELL_BYTES
    ranges = -(-size // span)
    call = functools.partial(_read_range, path, n_cols, usecols, symbols, size, span)
    chunks = []
    with contextlib.closing(_pool_map(call, [(i,) for i in range(ranges)],
                                      _pool_workers(ranges))) as results:
        for tables in results:
            if tables is None:
                return None
            chunks.extend(tables)
    return chunks


def _line_start(fh, pos: int, size: int) -> int:
    """The first line start after byte ``pos`` of ``fh``: 0 for ``pos`` 0, and
    ``size`` for a ``pos`` at or past the end.  Lines end at LF, CRLF or a
    lone CR."""
    if not 0 < pos < size:
        return min(pos, size)
    fh.seek(pos)
    while block := fh.read(1 << 12):
        end = _LINE_END_RE.search(block)
        if end is None:
            pos += len(block)
            continue
        pos += end.end()
        # A CR that ends the block may be the first half of a CRLF.
        if end.group() == b"\r" and end.end() == len(block):
            pos += fh.read(1) == b"\n"
        return pos
    return size


def _read_range(path, n_cols: int, usecols, symbols, size: int, span: int, index: int):
    """The chunk tables of the data rows in byte range ``index`` of a file of
    ``size`` bytes, or None when the row parser must read the file: a byte
    that is not UTF-8, a lone CR, a chunk that :func:`_fast_table` declines
    or with a bad symbol in one of the ``symbols`` columns, or a first range
    that does not hold the header.  Blank and comment lines are skipped, as
    the row parser skips them, and range 0 drops its first content line.

    Range i runs between the first line starts after bytes ``i * span`` and
    ``(i + 1) * span``, so the ranges cover the file and each line lies in
    exactly one of them.
    """
    with open(path, "rb") as fh:
        start = _line_start(fh, index * span, size)
        stop = _line_start(fh, (index + 1) * span, size)
        fh.seek(start)
        raw = fh.read(stop - start)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    del raw
    if "\r" in text and text.count("\r") != text.count("\r\n"):
        return None
    # With no lone CR, the file reader's lines are these plus their LF.  As
    # there, blank and comment lines make no rows.
    lines = [line for line in text.split("\n")
             if line and not line.isspace() and not line.startswith("#")]
    del text
    if index == 0:
        if not lines:  # comments longer than a range before the header
            return None
        del lines[0]
    step = _chunk_rows(n_cols)
    tables = []
    for row in range(0, len(lines), step):
        table = _fast_table(lines[row:row + step], n_cols, usecols)
        if table is None:
            return None
        for col, cardinality in symbols:
            values = table[:, col]
            if not np.all((values >= 0) & (values < cardinality) & (np.floor(values) == values)):
                return None
        tables.append(table)
    return tables


def _fast_table(lines: list[str], n_cols: int, usecols=None) -> np.ndarray | None:
    """A chunk of data lines parsed in one ``np.loadtxt`` call, or None.

    ``usecols`` (sorted column positions; None for all) picks the columns
    converted.  None when a line holds a quote or a ``#`` (which the csv
    module and loadtxt read differently), when a line is not ``n_cols``
    cells wide, or when loadtxt rejects a line; :func:`_parse_rows` then
    names the line.
    """
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


def _parse_rows(path, rows, n_cols: int, usecols, symbols) -> np.ndarray:
    """Row-by-row parser: the csv module, then ``float`` on each cell in
    ``usecols`` (all when None), then a check of the row's ``symbols``
    (``(table column, cardinality)`` per categorical variable).  Every row
    must be ``n_cols`` cells wide."""
    usecols = range(n_cols) if usecols is None else usecols
    table = np.empty((len(rows), len(usecols)))
    for r, (line_no, line) in enumerate(rows):
        cells = next(csv.reader([line]))
        if len(cells) != n_cols:
            raise DataError(f"{path}:{line_no}: expected {n_cols} cells, "
                            f"got {len(cells)}")
        try:
            table[r] = values = [float(cells[pos]) for pos in usecols]
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from None
        for col, cardinality in symbols:
            if error := _symbol_error(values[col], cardinality):
                raise DataError(f"{path}:{line_no}: {error}")
    return table
