"""The columnar trace: its two parsers, and a Trace read as records."""

from __future__ import annotations

import csv
import json
import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from evimon import bundled, trace
from evimon.cli import main
from evimon.errors import ParseError
from evimon.forward import sliding_effectiveness
from evimon.generate import generate_trace
from evimon.modelfile import parse_model
from evimon.trace import Trace, TraceRecord, read_trace, write_trace

H = "timestamp,in.u,out.y\n"
# with blocks of 4 lines, records 2-5 are the first block after record 1
BLOCK = H + "".join(f"{t},1,1\n" for t in range(5))

# (text, line, message): each fails at the first bad cell it holds
HOSTILE = {
    "nan-output": (H + "0,1,1\n1,1,nan\n", 3, "record 2 column 'out.y': not finite: 'nan'"),
    "inf-input": (H + "0,1,1\n1,inf,1\n", 3, "record 2 column 'in.u': not finite: 'inf'"),
    "overflowing-timestamp": (
        H + "0,1,1\n1e999,1,1\n", 3, "record 2 column 'timestamp': not finite: '1e999'"
    ),
    "nan-in-record-0-input": (
        H + "0,nan,1\n1,1,1\n", 2, "record 1 column 'in.u': not finite: 'nan'"
    ),
    "padded-nan-in-record-0-input": (
        H + "0, nan ,1\n1,1,1\n", 2, "record 1 column 'in.u': not finite: 'nan'"
    ),
    "empty-record-0-output": (H + "0,,\n1,1,1\n", 2, "record 1 is missing column 'out.y'"),
    "empty-input-after-record-0": (
        H + "0,,1\n1,,1\n", 3, "record 2 is missing column 'in.u'"
    ),
    "blank-output": (H + "0,1,1\n1,1, \n", 3, "record 2 is missing column 'out.y'"),
    "not-a-number": (H + "0,1,1\n1,1_,1\n", 3, "record 2 column 'in.u': not a number: '1_'"),
    "short-row": (H + "0,1,1\n1,1\n", 3, "expected 3 cells, got 2"),
    "long-row": (H + "0,1,1\n1,1,1,1\n", 3, "expected 3 cells, got 4"),
    "every-row-of-a-block-long": (
        H + "0,1,1\n" + "".join(f"{t},1,1,1\n" for t in range(1, 6)),
        3,
        "expected 3 cells, got 4",
    ),
    "decreasing-timestamp": (
        H + "0,1,1\n2,1,1\n1,1,1\n", 4, "record 3: timestamp 1.0 decreases"
    ),
    "bad-cell-after-blank-lines": (
        H + "\n0,1,1\n\n , \n1,x,1\n", 6, "record 2 column 'in.u': not a number: 'x'"
    ),
    "bad-cell-after-a-block-boundary": (
        BLOCK + "5,1,oops\n6,1,1\n", 7, "record 6 column 'out.y': not a number: 'oops'"
    ),
    "decrease-across-a-block-boundary": (
        BLOCK + "3,1,1\n6,1,1\n", 7, "record 6: timestamp 3.0 decreases"
    ),
    "no-records": (H + "\n \n", None, "trace file has no records"),
    "comment-mark-after-a-number": (
        H + "0,1,1\n9,1,3#x\n", 3, "record 2 column 'out.y': not a number: '3#x'"
    ),
    "lone-comment-mark": (H + "0,1,1\n1,#,1\n", 3, "record 2 column 'in.u': not a number: '#'"),
    "hexadecimal": (
        H + "0,1,1\n0x10,1,1\n", 3, "record 2 column 'timestamp': not a number: '0x10'"
    ),
    "nul-byte": (
        H + "0,1,1\n1,1\x00,1\n",
        3,
        # before 3.11 the csv module rejects the line
        "malformed CSV: line contains NUL"
        if sys.version_info < (3, 11)
        else "record 2 column 'in.u': not a number: '1\\x00'",
    ),
    "blank-line-in-a-block-then-a-bad-cell": (
        H + "0,1,1\n1,1,1\n\n2,1,1\n3,1,1\n4,1,x\n",
        7,
        "record 5 column 'out.y': not a number: 'x'",
    ),
    "oversized-cell": (
        H + "0,1,1\n1," + "1" * (csv.field_size_limit() + 1) + ",1\n",
        3,
        f"malformed CSV: field larger than field limit ({csv.field_size_limit()})",
    ),
}
# a finite number longer than the csv field limit, on line 7 (a block of its own)
OVERSIZED = BLOCK + "5,0." + "0" * (csv.field_size_limit() - 1) + "1,1\n"
HOSTILE["oversized-finite-cell"] = (
    OVERSIZED, 7, f"malformed CSV: field larger than field limit ({csv.field_size_limit()})"
)
HOSTILE["oversized-finite-cell-then-a-bad-line"] = (
    OVERSIZED + "6,x,1\n", *HOSTILE["oversized-finite-cell"][1:]
)
# a fault after a quoted cell over two lines is located by physical line
HOSTILE["quoted-cell-over-lines-in-record-0"] = (
    H + '0,"1\n2",1\n1,1,1\n', 2, "record 1 column 'in.u': not a number: '1\\n2'"
)
HOSTILE["bad-cell-after-a-quoted-record-0-over-lines"] = (
    H + '0,"1\n",1\n1,x,1\n', 4, "record 2 column 'in.u': not a number: 'x'"
)
HOSTILE["bad-cell-after-a-quoted-cell-over-lines-in-a-later-block"] = (
    BLOCK + '5,"1\n",1\n6,1,1\n\n7,1,1\n8,x,1\n',
    12,
    "record 9 column 'in.u': not a number: 'x'",
)
# a quoted cell over two lines, from each line around the end of the first block
for first in range(4, 9):
    HOSTILE[f"quoted-cell-over-lines-{first}-{first + 1}"] = (
        H + "".join(f"{t},1,1\n" for t in range(first - 2)) + f'{first},"1\n2",1\n',
        first,
        f"record {first - 1} column 'in.u': not a number: '1\\n2'",
    )

# (text, records as (timestamp, inputs, outputs)): read as the format allows
ACCEPTED = {
    "blank-lines": (
        H + "\n0,,1\n\n , \n1,2,3\n\n",
        [(0.0, {}, {"y": 1.0}), (1.0, {"u": 2.0}, {"y": 3.0})],
    ),
    "padded-and-underscored-cells": (
        H + " 0 , , 1_000 \n1,\t2.5 ,-3\n2,1_0.5,+4e-3\n",
        [(0.0, {}, {"y": 1000.0}), (1.0, {"u": 2.5}, {"y": -3.0}),
         (2.0, {"u": 10.5}, {"y": 0.004})],
    ),
    "one-of-two-record-0-inputs-empty": (
        "timestamp,in.u,in.v,out.y\n0,,5,1\n1,2,3,4\n",
        [(0.0, {"v": 5.0}, {"y": 1.0}), (1.0, {"u": 2.0, "v": 3.0}, {"y": 4.0})],
    ),
    "records-across-blocks": (
        BLOCK + "5,1,1\n5,2,-1\n",
        [(float(t), {"u": 1.0}, {"y": 1.0}) for t in range(6)]
        + [(5.0, {"u": 2.0}, {"y": -1.0})],
    ),
    "quoted-cells": (
        H + '0,"1",1\n"1","2",3\n',
        [(0.0, {"u": 1.0}, {"y": 1.0}), (1.0, {"u": 2.0}, {"y": 3.0})],
    ),
    "crlf-line-endings": (
        H.replace("\n", "\r\n") + "0,1,1\r\n1,2,3\r\n",
        [(0.0, {"u": 1.0}, {"y": 1.0}), (1.0, {"u": 2.0}, {"y": 3.0})],
    ),
    "fullwidth-digit": (
        H + "0,1,1\n1,\uff12,3\n",
        [(0.0, {"u": 1.0}, {"y": 1.0}), (1.0, {"u": 2.0}, {"y": 3.0})],
    ),
    "whitespace-only-line": (
        H + "0,1,1\n \t \n1,2,3\n",
        [(0.0, {"u": 1.0}, {"y": 1.0}), (1.0, {"u": 2.0}, {"y": 3.0})],
    ),
    "blank-line-in-a-later-block": (
        H + "0,1,1\n1,1,1\n\n2,1,1\n3,1,1\n4,1,1\n",
        [(float(t), {"u": 1.0}, {"y": 1.0}) for t in range(5)],
    ),
    # lines 3-6, a whole block: loadtxt would warn that it holds no data
    "a-block-of-blank-lines": (
        H + "0,1,1\n" + "\n" * 4 + "1,2,3\n",
        [(0.0, {"u": 1.0}, {"y": 1.0}), (1.0, {"u": 2.0}, {"y": 3.0})],
    ),
}

# (text, line or None, message): each fails in the header, or for the lack of one
HEADER_FAULTS = {
    "empty-file": ("", None, "trace file is empty"),
    "wrong-first-column": (
        "time,in.u,out.y\n0,1,1\n", 1, "first column must be 'timestamp', got ['time']"
    ),
    "byte-order-mark": (
        "\ufeff" + H + "0,1,1\n",
        1,
        "first column must be 'timestamp', got ['\\ufefftimestamp']",
    ),
    "duplicate-column": ("timestamp,in.u,in.u,out.y\n0,1,1,1\n", 1, "duplicate column 'in.u'"),
    "unprefixed-column": (
        "timestamp,u,out.y\n0,1,1\n", 1, "column 'u' is neither 'in.<name>' nor 'out.<name>'"
    ),
}


def both_parsers(path):
    """The fast table (or None once a block is read cell by cell) and the
    per-cell table of the whole file (or its ParseError)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header, in_cols, out_cols = trace._read_header(reader, path)
        with mock.patch.object(trace, "_parse_cells", wraps=trace._parse_cells) as spy:
            try:
                blocks = trace._parse_blocks(
                    fh, path, header, in_cols, out_cols, reader.line_num
                )
            except ParseError:
                blocks = None
        fast = None if spy.called else np.concatenate(blocks)
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        try:
            cells = trace._parse_cells(reader, path, header, in_cols, out_cols)
            if not len(cells):  # which read_trace rejects
                raise ParseError("trace file has no records", str(path))
        except ParseError as exc:
            cells = exc
    return fast, cells


def as_tuples(records):
    return [(r.timestamp, r.inputs, r.outputs) for r in records]


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(trace, "_BLOCK_LINES", 4)


@pytest.mark.parametrize("name", bundled.TRACES)
def test_fast_and_per_cell_parsers_agree_on_bundled_traces(name):
    fast, cells = both_parsers(bundled.trace_path(name))
    assert fast is not None
    assert np.array_equal(fast, cells, equal_nan=True)


@pytest.mark.parametrize("case", HOSTILE)
def test_hostile_trace_fails_at_its_cell(tmp_path, small_blocks, case):
    text, line, message = HOSTILE[case]
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    location = str(path) if line is None else f"{path}:{line}"
    fast, cells = both_parsers(path)
    assert fast is None
    assert isinstance(cells, ParseError)
    with pytest.raises(ParseError) as err:
        read_trace(path)
    for exc in (cells, err.value):
        assert (str(exc), exc.location) == (f"{location}: {message}", location)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("case", HOSTILE)
def test_hostile_stream_fails_at_its_cell(tmp_path, small_blocks, case):
    # a pipe is read once: the per-cell loop reads on from the failed block
    text, line, message = HOSTILE[case]
    path = tmp_path / "t.csv"
    os.mkfifo(path)
    writer = threading.Thread(
        target=path.write_text, args=(text,), kwargs={"encoding": "utf-8"}, daemon=True
    )
    writer.start()
    try:
        with pytest.raises(ParseError) as err:
            read_trace(path)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    location = str(path) if line is None else f"{path}:{line}"
    assert str(err.value) == f"{location}: {message}"


@pytest.mark.parametrize("case", HEADER_FAULTS)
def test_header_fault_is_located(tmp_path, case):
    text, line, message = HEADER_FAULTS[case]
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    location = str(path) if line is None else f"{path}:{line}"
    with pytest.raises(ParseError) as err:
        read_trace(path)
    assert (str(err.value), err.value.location) == (f"{location}: {message}", location)


def test_only_a_block_with_an_odd_line_is_read_cell_by_cell(tmp_path, small_blocks):
    # blocks of lines 2 (blank), 3-6, 7-10 (blank line 8), 11-14, 15-18 (a
    # quoted cell from line 18 over line 19), 20-23 and 24
    rows = [f"{t},1,{t}\n" for t in range(20)]
    text = H + "\n" + "".join(rows[:5]) + "\n" + "".join(rows[5:14])
    text += '14,"1\n",14\n' + "".join(rows[15:])
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    cells = mock.Mock(wraps=trace._parse_cells)
    loadtxt = mock.Mock(wraps=np.loadtxt)
    with mock.patch.object(trace, "_parse_cells", cells):
        with mock.patch.object(np, "loadtxt", loadtxt):
            t = read_trace(path)
    # read cell by cell: the blocks after lines 1, 6 and 14, so loadtxt reads
    # those of lines 3, 11, 20 and 24 (it sees every block after the blank one)
    assert [c.args[7] for c in cells.call_args_list] == [1, 6, 14]
    assert [c.args[0][0] for c in loadtxt.call_args_list] == [
        rows[0], rows[4], rows[7], rows[11], rows[15], rows[19]
    ]
    table = np.column_stack([t.timestamps, t.inputs["u"], t.outputs["y"]])
    assert np.array_equal(table, both_parsers(path)[1])
    assert table[:, 0].tolist() == list(range(20))


def not_utf8(records: int) -> bytes:
    """A trace whose line after ``records`` good records holds the byte 0xff."""
    good = "".join(f"{t},1,1\n" for t in range(records))
    return (H + good).encode() + b"99999,\xff,1\n"


NOT_UTF8 = "trace file is not UTF-8 (invalid start byte)"


# the decoder reads ahead by chunks: the byte is in its first chunk, or later
@pytest.mark.parametrize("records", [1, 3000])
def test_non_utf8_trace_fails_at_its_line(tmp_path, small_blocks, capsys, records):
    path = tmp_path / "t.csv"
    path.write_bytes(not_utf8(records))
    location = f"{path}:{records + 2}"
    with pytest.raises(ParseError) as err:
        read_trace(path)
    assert (str(err.value), err.value.location) == (f"{location}: {NOT_UTF8}", location)
    assert main(["eval", "--model", "speed_limits", "--trace", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {location}: {NOT_UTF8}\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("records", [1, 3000])
def test_non_utf8_stream_fails_at_its_path(tmp_path, small_blocks, records):
    path = tmp_path / "t.csv"
    os.mkfifo(path)
    writer = threading.Thread(
        target=path.write_bytes, args=(not_utf8(records),), daemon=True
    )
    writer.start()
    try:
        with pytest.raises(ParseError) as err:
            read_trace(path)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert (str(err.value), err.value.location) == (f"{path}: {NOT_UTF8}", str(path))


@pytest.mark.parametrize("case", ["oversized-cell", "nul-byte"])
def test_eval_of_a_malformed_csv_exits_1(tmp_path, capsys, case):
    text, line, message = HOSTILE[case]
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["eval", "--model", "speed_limits", "--trace", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:{line}: {message}\n"


@pytest.mark.parametrize("line", [1, 2])
def test_oversized_cell_in_header_or_record_0_fails_at_its_line(tmp_path, line):
    limit = csv.field_size_limit()
    lines = [H, "0,1,1\n", "1,1,1\n"]
    lines[line - 1] = "1" * (limit + 1) + "," + lines[line - 1]
    path = tmp_path / "t.csv"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_trace(path)
    location = f"{path}:{line}"
    message = f"malformed CSV: field larger than field limit ({limit})"
    assert (str(err.value), err.value.location) == (f"{location}: {message}", location)


@pytest.mark.parametrize("bad_line", [False, True])
def test_oversized_finite_cell_fails_in_a_block_that_would_pass(tmp_path, bad_line):
    # in one block of the default length, with or without a line that
    # fails the block: loadtxt reads the cell, but the csv module rejects it
    case = "oversized-finite-cell" + ("-then-a-bad-line" if bad_line else "")
    text, line, message = HOSTILE[case]
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_trace(path)
    assert str(err.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("case", ACCEPTED)
def test_accepted_cells_parse_alike(tmp_path, small_blocks, case):
    text, expected = ACCEPTED[case]
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    fast, cells = both_parsers(path)
    if fast is not None:  # blank lines leave the reading to the per-cell loop
        assert np.array_equal(fast, cells, equal_nan=True)
    assert as_tuples(read_trace(path)) == expected


def csv_records(path):
    """The records of a well-formed trace CSV, read row by row."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            TraceRecord(
                float(row.pop("timestamp")),
                {k[3:]: float(v) for k, v in row.items() if k.startswith("in.") and v},
                {k[4:]: float(v) for k, v in row.items() if k.startswith("out.")},
            )
            for row in csv.DictReader(fh)
        ]


def bundled_model(name):
    manifest = bundled.trace_path(name).with_name(f"{name}.manifest.json")
    return parse_model(bundled.model_path(json.loads(manifest.read_text())["model"]))


@pytest.mark.parametrize("name", bundled.TRACES)
def test_trace_reads_as_its_records(name):
    path = bundled.trace_path(name)
    t = read_trace(path)
    records = csv_records(path)
    assert list(t) == records
    assert [t[i] for i in range(-len(t), len(t))] == records + records
    assert list(t[3:9]) == records[3:9]
    assert list(t[::7]) == records[::7]


@pytest.mark.parametrize("name", bundled.TRACES)
def test_trace_slices_are_column_views(name):
    t = read_trace(bundled.trace_path(name))
    part = t[5:20]
    assert len(part) == 15
    assert np.shares_memory(part.timestamps, t.timestamps)
    for side in ("inputs", "outputs"):
        columns, parents = getattr(part, side), getattr(t, side)
        assert list(columns) == list(parents)
        for name_, column in columns.items():
            assert np.shares_memory(column, parents[name_])
            assert column.flags.c_contiguous or len(column) < 2


@pytest.mark.parametrize("name", bundled.TRACES)
def test_write_trace_from_columns_reproduces_bundled_bytes(tmp_path, name):
    path = bundled.trace_path(name)
    model = bundled_model(name)
    out = tmp_path / "t.csv"
    write_trace(out, read_trace(path), model.input_variables, model.output_variables)
    assert out.read_bytes() == path.read_bytes()
    write_trace(out, csv_records(path), model.input_variables, model.output_variables)
    assert out.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("name", bundled.TRACES)
@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_sliding_effectiveness_same_for_trace_and_records(name, engine):
    t = read_trace(bundled.trace_path(name))[:60]
    model = bundled_model(name)
    a = sliding_effectiveness(t, model, 7, 3, engine=engine)
    b = sliding_effectiveness(list(t), model, 7, 3, engine=engine)
    for field in ("timestamps", "conflicts", "resets", "values"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_from_records_keeps_the_records():
    records = [
        TraceRecord(0.0, {}, {"y": 1.0}),
        TraceRecord(1.0, {"u": float("nan")}, {"y": 2.0}),
        TraceRecord(2.0, {"u": 3.0, "v": 4.0}, {}),
    ]
    t = Trace.from_records(records)
    assert Trace.from_records(t) is t
    assert [t[i] for i in range(3)] == records and t[1] is records[1]
    assert list(t[1:]) == records[1:]
    assert list(t.inputs) == ["u", "v"] and list(t.outputs) == ["y"]
    nan = float("nan")
    np.testing.assert_array_equal(t.inputs["u"], [nan, nan, 3.0])
    np.testing.assert_array_equal(t.inputs["v"], [nan, nan, 4.0])
    np.testing.assert_array_equal(t.outputs["y"], [1.0, 2.0, nan])


def test_generated_trace_is_columns():
    model = parse_model(bundled.model_path("ride_comfort"))
    t, zones = generate_trace(model, "mixed", 50, seed=3)
    assert isinstance(t, Trace) and len(t) == len(zones) == 50
    assert list(t.inputs) == list(model.input_variables)
    assert list(t.outputs) == list(model.output_variables)
    assert np.isfinite(np.stack([*t.inputs.values(), *t.outputs.values()])).all()
    assert all(isinstance(r, TraceRecord) for r in t)
