"""Timestamped input/output observation records and their CSV form.

A trace CSV is UTF-8 with LF line endings and a header of ``timestamp``
followed by ``in.<name>`` and ``out.<name>`` columns.  Output cells are
required on every record; input cells may be left empty on the first
record, whose inputs gate no transition.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import ParseError


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


def read_trace(path) -> list[TraceRecord]:
    """Parse a trace CSV; raises :class:`ParseError` with the record number.

    Missing or unreadable files, non-numeric and non-finite cells all
    fail here, located by path (and line), never later in evaluation.
    """
    records: list[TraceRecord] = []
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot read trace file: {exc}", str(path)) from exc
    with fh:
        reader = csv.reader(fh)
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
            if name.startswith("in."):
                in_cols.append((pos, name[3:]))
            elif name.startswith("out."):
                out_cols.append((pos, name[4:]))
            else:
                raise ParseError(
                    f"column {name!r} is neither 'in.<name>' nor 'out.<name>'",
                    f"{path}:1",
                )
        last_ts = None
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            where = f"{path}:{lineno}"
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} cells, got {len(row)}", where
                )
            record_index = len(records) + 1

            def cell(pos, name, required):
                raw = row[pos].strip()
                if not raw:
                    if required:
                        raise ParseError(
                            f"record {record_index} is missing column {name!r}", where
                        )
                    return None
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
                raise ParseError(
                    f"record {record_index}: timestamp {ts} decreases", where
                )
            last_ts = ts
            inputs = {}
            for pos, name in in_cols:
                value = cell(pos, f"in.{name}", required=record_index > 1)
                if value is not None:
                    inputs[name] = value
            outputs = {}
            for pos, name in out_cols:
                outputs[name] = cell(pos, f"out.{name}", required=True)
            records.append(TraceRecord(ts, inputs, outputs))
    if not records:
        raise ParseError("trace file has no records", str(path))
    return records


def write_trace(
    path,
    records: Sequence[TraceRecord],
    input_names: Iterable[str],
    output_names: Iterable[str],
) -> None:
    input_names = list(input_names)
    output_names = list(output_names)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["timestamp"]
            + [f"in.{n}" for n in input_names]
            + [f"out.{n}" for n in output_names]
        )
        for rec in records:
            row = [_fmt(rec.timestamp)]
            row += [
                _fmt(rec.inputs[n]) if n in rec.inputs else "" for n in input_names
            ]
            row += [_fmt(rec.outputs[n]) for n in output_names]
            writer.writerow(row)


def _fmt(value: float) -> str:
    return format(float(value), ".10g")
