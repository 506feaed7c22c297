"""Timestamped input/output observations, held as columns, and their CSV form.

A trace CSV is UTF-8 with LF line endings and a header of ``timestamp``
followed by ``in.<name>`` and ``out.<name>`` columns.  Output cells are
required on every record; input cells may be left empty on the first
record, whose inputs gate no transition.

:func:`read_trace` returns a :class:`Trace`: the timestamps and one float
column per variable, a first record's empty input cells read as NaN.  The
CSV lines are parsed a block at a time by ``np.loadtxt``, and a block that
fails its guards is read cell by cell through ``csv``, which locates the
first fault by line and record with the message it always had.  A
``Trace`` reads like the sequence of :class:`TraceRecord` it replaces:
indexing gives a record, slicing a trace of column views.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ParseError

# CSV rows converted to floats at once: bounds the rows held as strings
_BLOCK_LINES = 1 << 14


@dataclass(frozen=True)
class TraceRecord:
    """One observation instant.

    ``inputs`` holds the stimuli that led into this instant (they gate
    the transition from the previous record's state), ``outputs`` the
    effects observed at this instant.
    """

    timestamp: float
    inputs: Mapping[str, float] = field(default_factory=dict)
    outputs: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "inputs", dict(self.inputs))
        object.__setattr__(self, "outputs", dict(self.outputs))


class Trace:
    """A trace as columns: ``timestamps`` and a float column per variable.

    ``inputs`` and ``outputs`` map each variable's name to its column; NaN
    marks a missing value, which a record read back leaves out.  A trace
    built by :meth:`from_records` keeps its records and returns them as
    they are, so that a missing value and a non-finite one stay distinct.
    """

    def __init__(
        self,
        timestamps: np.ndarray,
        inputs: Mapping[str, np.ndarray],
        outputs: Mapping[str, np.ndarray],
        records: Sequence[TraceRecord] | None = None,
    ):
        self.timestamps = timestamps
        self.inputs = dict(inputs)
        self.outputs = dict(outputs)
        self._records = records

    @classmethod
    def from_records(cls, records: Sequence[TraceRecord]) -> Trace:
        """Columns of a record sequence, NaN where a record lacks a variable.

        A :class:`Trace` is returned as it is.
        """
        if isinstance(records, Trace):
            return records
        records = list(records)

        def columns(side):
            cells = [getattr(rec, side) for rec in records]
            names = dict.fromkeys(name for c in cells for name in c)
            return {
                name: np.array([c.get(name, math.nan) for c in cells], dtype=float)
                for name in names
            }

        timestamps = np.array([rec.timestamp for rec in records], dtype=float)
        return cls(timestamps, columns("inputs"), columns("outputs"), records)

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Trace(
                self.timestamps[key],
                {name: c[key] for name, c in self.inputs.items()},
                {name: c[key] for name, c in self.outputs.items()},
                None if self._records is None else self._records[key],
            )
        if self._records is not None:
            return self._records[key]
        return TraceRecord(
            float(self.timestamps[key]),
            _cells(self.inputs, key),
            _cells(self.outputs, key),
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        if self._records is not None:
            return iter(self._records)
        return (self[i] for i in range(len(self)))


def _cells(columns: Mapping[str, np.ndarray], i) -> dict[str, float]:
    cells = ((name, float(c[i])) for name, c in columns.items())
    return {name: value for name, value in cells if not math.isnan(value)}


def read_trace(path) -> Trace:
    """Parse a trace CSV; raises :class:`ParseError` with the record number.

    Missing or unreadable files, bytes that are not UTF-8, malformed CSV,
    non-numeric and non-finite cells all fail here, located by path (and
    line), never later in evaluation.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot read trace file: {exc}", str(path)) from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header, in_cols, out_cols = _read_header(reader, path)
            blocks = _parse_blocks(fh, path, header, in_cols, out_cols, reader.line_num)
        except csv.Error as exc:  # in the header
            where = f"{path}:{reader.line_num}"
            raise ParseError(f"malformed CSV: {exc}", where) from None
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"trace file is not UTF-8 ({exc.reason})", _undecodable_at(path)
            ) from None
    if not blocks:
        raise ParseError("trace file has no records", str(path))
    # one copy, into C-ordered rows: a concatenation along axis 1 is F-ordered
    columns = np.empty((blocks[0].shape[1], sum(map(len, blocks))))
    np.concatenate([b.T for b in blocks], axis=1, out=columns)
    return Trace(
        columns[0],
        {name: columns[pos] for pos, name in in_cols},
        {name: columns[pos] for pos, name in out_cols},
    )


def _undecodable_at(path) -> str:
    """``path:line`` of a regular file's first byte that is not UTF-8; a
    stream, read once, is located by its path alone."""
    if os.path.isfile(path):
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    return f"{path}:{lineno}"
    return str(path)


def _read_header(reader, path) -> tuple[list[str], list, list]:
    """The header, and the (position, name) of its input and output columns."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("trace file is empty", str(path)) from None
    header = [h.strip() for h in header]
    if not header or header[0] != "timestamp":
        raise ParseError(
            f"first column must be 'timestamp', got {header[:1]}", f"{path}:1"
        )
    in_cols = []
    out_cols = []
    for pos, name in enumerate(header[1:], start=1):
        if name in header[:pos]:
            raise ParseError(f"duplicate column {name!r}", f"{path}:1")
        if name.startswith("in."):
            in_cols.append((pos, name[3:]))
        elif name.startswith("out."):
            out_cols.append((pos, name[4:]))
        else:
            raise ParseError(
                f"column {name!r} is neither 'in.<name>' nor 'out.<name>'",
                f"{path}:1",
            )
    return header, in_cols, out_cols


def _parse_blocks(fh, path, header, in_cols, out_cols, read: int) -> list[np.ndarray]:
    """The non-empty blocks of (records x columns) rows after the header's
    ``read`` lines: a line at a time up to record 0's, whose empty input
    cells only the per-cell loop reads, then ``_BLOCK_LINES`` lines at a time.

    A block is read by ``np.loadtxt``, without comments (``3#x`` is no
    number), if it passes four guards: no line longer than the ``csv``
    field limit (which the per-cell loop enforces), a row per line
    (``loadtxt`` drops blank lines, which the per-cell loop counts), finite
    cells, and no decreasing timestamp.  Any other block is read by the
    per-cell loop, which locates its first fault, over a ``csv.reader`` of
    its lines and the rest of the file that stops at the end of the row
    holding its last line, so that a quoted cell may span the block's end.
    """
    blocks, done, last_ts, size = [], 0, -math.inf, 1
    no_rows = np.empty((0, len(header)))  # what a block that cannot be parsed reads as
    while lines := list(itertools.islice(fh, size)):
        block = no_rows
        # a blank line fails the block; a block of them would warn
        if lines[0].strip() and max(map(len, lines)) <= csv.field_size_limit():
            try:
                block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
        if (
            block.shape != (len(lines), len(header))
            or not np.isfinite(block).all()
            or (np.diff(block[:, 0], prepend=last_ts) < 0).any()
        ):
            reader = csv.reader(itertools.chain(lines, fh))
            block = _parse_cells(
                reader, path, header, in_cols, out_cols, done, last_ts, read, len(lines)
            )
            read += reader.line_num
        else:
            read += len(lines)
        if len(block):
            blocks.append(block)
            done, last_ts = done + len(block), block[-1, 0]
        size = _BLOCK_LINES if done else 1
    return blocks


def _parse_cells(
    reader, path, header, in_cols, out_cols, done=0, last_ts=-math.inf, lines=0,
    stop=math.inf,
) -> np.ndarray:
    """Rows of the table cell by cell, after ``done`` records; raises at the
    first fault, by line and record.

    ``reader`` reads on after ``lines`` lines of the file, up to the end of
    the row that holds its ``stop``-th line.  A row's line is its first.  A
    row's cells are checked in one pass over its columns: the timestamp,
    which must not decrease, then the inputs, which record 1 may leave
    empty, then the outputs.
    """
    # (position, name, required on record 1)
    columns = [(0, "timestamp", True)]
    columns += [(pos, f"in.{name}", False) for pos, name in in_cols]
    columns += [(pos, f"out.{name}", True) for pos, name in out_cols]
    rows: list[list[float]] = []
    last = reader.line_num
    try:
        for row in reader:
            where = f"{path}:{lines + last + 1}"
            last = reader.line_num
            if any(cell.strip() for cell in row):
                if len(row) != len(header):
                    raise ParseError(f"expected {len(header)} cells, got {len(row)}", where)
                record_index = done + len(rows) + 1
                values = [math.nan] * len(header)
                for pos, name, required in columns:
                    raw = row[pos].strip()
                    if not raw:
                        if required or record_index > 1:
                            raise ParseError(
                                f"record {record_index} is missing column {name!r}", where
                            )
                        continue
                    try:
                        values[pos] = float(raw)
                    except ValueError:
                        raise ParseError(
                            f"record {record_index} column {name!r}: not a number: {raw!r}",
                            where,
                        ) from None
                    if not math.isfinite(values[pos]):
                        raise ParseError(
                            f"record {record_index} column {name!r}: not finite: {raw!r}",
                            where,
                        )
                    if not pos and values[0] < last_ts:
                        raise ParseError(
                            f"record {record_index}: timestamp {values[0]} decreases", where
                        )
                last_ts = values[0]
                rows.append(values)
            if last >= stop:
                break
    except csv.Error as exc:  # on the line the reader stopped at
        where = f"{path}:{lines + reader.line_num}"
        raise ParseError(f"malformed CSV: {exc}", where) from None
    return np.array(rows, dtype=float).reshape(-1, len(header))


def write_trace(
    path,
    trace: Trace | Sequence[TraceRecord],
    input_names: Iterable[str],
    output_names: Iterable[str],
) -> None:
    """Write a trace CSV from its columns; a missing value is an empty cell."""
    trace = Trace.from_records(trace)
    input_names = list(input_names)
    output_names = list(output_names)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["timestamp"]
            + [f"in.{n}" for n in input_names]
            + [f"out.{n}" for n in output_names]
        )
        for first in range(0, len(trace), _BLOCK_LINES):
            part = trace[first : first + _BLOCK_LINES]
            absent = np.full(len(part), np.nan)
            columns = [part.timestamps]
            columns += [part.inputs.get(n, absent) for n in input_names]
            columns += [part.outputs[n] for n in output_names]
            writer.writerows(zip(*map(_fmt, columns)))


def _fmt(column: np.ndarray) -> list[str]:
    """A column's cells, a NaN cell empty."""
    cells = [format(v, ".10g") for v in column.tolist()]
    for i in np.flatnonzero(np.isnan(column)).tolist():
        cells[i] = ""
    return cells
