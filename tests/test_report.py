"""The report CSV's bytes against the csv.writer formulation it replaced."""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest

from evimon import report
from evimon.forward import EffectivenessReport
from evimon.report import write_report_csv

EDGES = [0.0, 1.0, 5e-324, 1e-300, 1 - 2**-53, 0.5, 1 / 3, 2**-1074 * 3, 1e-17]


def csv_writer_bytes(rep: EffectivenessReport) -> bytes:
    """The report as ``csv.writer`` wrote it, one ``format`` call per cell."""
    conflicts = rep.conflicts.tolist()
    window = [""] * len(conflicts)
    window[rep.window_len - 1 :: rep.stride] = [
        format(v, ".12g") for v in rep.values.tolist()
    ]
    rows = zip(
        [format(t, ".12g") for t in rep.timestamps.tolist()],
        [format(c, ".12g") for c in conflicts],
        [format(1.0 - c, ".12g") for c in conflicts],
        window,
    )
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["timestamp", "conflict", "step_effectiveness", "window_effectiveness"]
    )
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def make_report(timestamps, conflicts, window_len, stride) -> EffectivenessReport:
    conflicts = np.asarray(conflicts, dtype=float)
    starts = range(0, len(conflicts) - window_len + 1, stride)
    values = np.array(
        [np.prod(1.0 - conflicts[s : s + window_len]) for s in starts], dtype=float
    )
    return EffectivenessReport(
        np.asarray(timestamps, dtype=float),
        conflicts,
        np.flatnonzero(conflicts == 1.0),
        values,
        window_len,
        stride,
        "dempster",
    )


def edge_conflicts(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    c = rng.random(n) ** 3
    picks = rng.random(n) < 0.5
    c[picks] = rng.choice(EDGES, size=picks.sum())
    return c


TIMESTAMPS = {
    "counting": lambda n: np.arange(n, dtype=float),
    "epoch-seconds": lambda n: 1.7e9 + 0.1 * np.arange(n),
    "negative": lambda n: -5.0e3 + np.arange(n) / 3,
}


@pytest.mark.parametrize("timestamps", TIMESTAMPS)
@pytest.mark.parametrize(
    "window_len, stride", [(1, 1), (3, 1), (3, 2), (5, 4), (4, 7), (11, 3), (13, 1)]
)
def test_report_bytes_by_small_blocks(tmp_path, monkeypatch, timestamps, window_len, stride):
    # 13 records in blocks of 4: the last block is partial, and windows end
    # in some blocks and not in others
    monkeypatch.setattr(report, "_BLOCK_LINES", 4)
    rep = make_report(TIMESTAMPS[timestamps](13), edge_conflicts(13, window_len), window_len, stride)
    path = tmp_path / "r.csv"
    write_report_csv(rep, path)
    assert path.read_bytes() == csv_writer_bytes(rep)


@pytest.mark.parametrize("window_len, stride", [(10, 10), (50, 1), (7, 333)])
def test_report_bytes_over_more_than_one_block(tmp_path, window_len, stride):
    n = report._BLOCK_LINES * 2 + 123
    rep = make_report(TIMESTAMPS["epoch-seconds"](n), edge_conflicts(n, 7), window_len, stride)
    path = tmp_path / "r.csv"
    write_report_csv(rep, path)
    assert path.read_bytes() == csv_writer_bytes(rep)


def test_every_edge_value_is_written_as_before(tmp_path):
    edges = np.array(EDGES)
    rep = make_report(-edges * 1e300, edges, 1, 1)
    path = tmp_path / "r.csv"
    write_report_csv(rep, path)
    assert path.read_bytes() == csv_writer_bytes(rep)
    assert "\n-0,0,1,1\n" in path.read_text()  # -0.0 keeps its sign
    assert ",4.94065645841e-324,1,1\n" in path.read_text()
