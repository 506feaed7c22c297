"""Timestamped input/output observations, held as columns, and their CSV form.

A trace CSV is UTF-8 with LF line endings and a header of ``timestamp``
followed by ``in.<name>`` and ``out.<name>`` columns.  Output cells are
required on every record; input cells may be left empty on the first
record, whose inputs gate no transition.

:func:`read_trace` returns a :class:`Trace`: the timestamps and one float
column per variable, a first record's empty input cells read as NaN.  The
CSV rows are parsed a block of lines at a time into one float array each,
and each block is checked at once for its shape, non-finite cells and
decreasing timestamps.  From the first block that fails, the rows are read
on cell by cell, which locates the first fault by line and record with the
message it always had.  A ``Trace`` reads like the sequence of
:class:`TraceRecord` it replaces: indexing gives a record, slicing a trace
of column views.
"""

from __future__ import annotations

import csv
import itertools
import math
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

    Missing or unreadable files, non-numeric and non-finite cells all
    fail here, located by path (and line), never later in evaluation.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot read trace file: {exc}", str(path)) from exc
    with fh:
        reader = csv.reader(fh)
        header, in_cols, out_cols = _read_header(reader, path)
        blocks, rest = _parse_blocks(reader, len(header), [pos for pos, _ in in_cols])
        if rest is not None:  # read on cell by cell, which locates a fault
            done = sum(map(len, blocks))
            last_ts = float(blocks[-1][-1, 0]) if blocks else None
            rows = itertools.chain(rest, reader)
            blocks.append(
                _parse_cells(rows, path, header, in_cols, out_cols, done, last_ts)
            )
    columns = np.ascontiguousarray(np.concatenate(blocks).T)
    return Trace(
        columns[0],
        {name: columns[pos] for pos, name in in_cols},
        {name: columns[pos] for pos, name in out_cols},
    )


def _read_header(reader, path) -> tuple[list[str], list, list]:
    """The header, and the (position, name) of its input and output columns."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("trace file is empty", str(path)) from None
    header = [h.strip() for h in header]
    if not header or header[0] != "timestamp":
        raise ParseError(
            f"first column must be 'timestamp', got {header[:1]}", str(path)
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


def _parse_blocks(reader, width: int, in_pos: list[int]) -> tuple[list, list | None]:
    """Blocks of (records x columns) rows, each parsed at once, and the rows
    of the first block that fails, or None when none does.

    Record 0 is a block of its own.  Its empty input cells, found by
    position, parse as 0 and are set to NaN after the checks, so that a
    literal ``nan`` there still fails.  A blank line, a ragged row, a bad
    cell or a decreasing timestamp fails its block; so does a trace
    without records.
    """
    blocks, last = [], -math.inf
    rows = list(itertools.islice(reader, 1))
    while rows:
        cells, empty = rows, []
        if not blocks and len(rows[0]) == width:
            empty = [pos for pos in in_pos if not rows[0][pos].strip()]
            cells = [["0" if pos in empty else c for pos, c in enumerate(rows[0])]]
        try:
            block = np.array(cells, dtype=float)
        except ValueError:
            return blocks, rows
        if (
            block.shape[1:] != (width,)
            or not np.isfinite(block).all()
            or (np.diff(block[:, 0], prepend=last) < 0).any()
        ):
            return blocks, rows
        block[0, empty] = np.nan
        blocks.append(block)
        last = block[-1, 0]
        rows = list(itertools.islice(reader, _BLOCK_LINES))
    return blocks, None if blocks else []


def _parse_cells(
    reader, path, header, in_cols, out_cols, done: int = 0, last_ts=None
) -> np.ndarray:
    """Rows of the table cell by cell, after ``done`` records; raises at the
    first fault, by line and record."""
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2 + done):
        if not row or all(not cell.strip() for cell in row):
            continue
        where = f"{path}:{lineno}"
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} cells, got {len(row)}", where)
        record_index = done + len(rows) + 1

        def cell(pos, name, required):
            raw = row[pos].strip()
            if not raw:
                if required:
                    raise ParseError(
                        f"record {record_index} is missing column {name!r}", where
                    )
                return math.nan
            try:
                value = float(raw)
            except ValueError:
                raise ParseError(
                    f"record {record_index} column {name!r}: not a number: {raw!r}",
                    where,
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"record {record_index} column {name!r}: not finite: {raw!r}",
                    where,
                )
            return value

        ts = cell(0, "timestamp", True)
        if last_ts is not None and ts < last_ts:
            raise ParseError(f"record {record_index}: timestamp {ts} decreases", where)
        last_ts = ts
        values = [ts] + [math.nan] * (len(header) - 1)
        for pos, name in in_cols:
            values[pos] = cell(pos, f"in.{name}", required=record_index > 1)
        for pos, name in out_cols:
            values[pos] = cell(pos, f"out.{name}", required=True)
        rows.append(values)
    if not done + len(rows):
        raise ParseError("trace file has no records", str(path))
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
