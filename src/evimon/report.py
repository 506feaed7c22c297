"""Report emission: a per-record CSV plus an optional JSON summary.

The CSV is written ``_BLOCK_LINES`` rows at a time, one ``%`` format a row.
"""

from __future__ import annotations

import json

from .forward import EffectivenessReport, windows_ending
from .trace import _BLOCK_LINES

# timestamp, conflict, step effectiveness (1 - conflict), window cell
_ROW = "%.12g,%.12g,%.12g,%s\n"


def write_report_csv(report: EffectivenessReport, path) -> None:
    """One row per record; the window column fills where a window ends."""
    w, stride = report.window_len, report.stride
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,conflict,step_effectiveness,window_effectiveness\n")
        for first in range(0, len(report.conflicts), _BLOCK_LINES):
            conflicts = report.conflicts[first : first + _BLOCK_LINES]
            window = [""] * len(conflicts)
            here = windows_ending(first, first + len(conflicts), w, stride)
            ends = slice(w - 1 + here.start * stride - first, None, stride)
            values = report.values[here.start : here.stop].tolist()
            window[ends] = ["%.12g" % v for v in values]
            rows = zip(
                report.timestamps[first : first + _BLOCK_LINES].tolist(),
                conflicts.tolist(),
                (1.0 - conflicts).tolist(),
                window,
            )
            fh.write("".join([_ROW % row for row in rows]))


def summary_dict(report: EffectivenessReport) -> dict:
    breach_steps = list(report.breach_steps)
    return {
        "records": len(report.conflicts),
        "window_len": report.window_len,
        "stride": report.stride,
        "rule": report.rule,
        "overall_effectiveness": report.overall,
        "windows": len(report.values),
        "min_window_effectiveness": float(report.values.min()),
        "max_window_effectiveness": float(report.values.max()),
        "breach_steps": breach_steps,
        "reset_steps": report.resets.tolist(),
        "breached": bool(breach_steps),
    }


def summary_json(report: EffectivenessReport) -> str:
    """The summary as the JSON text that :func:`write_summary_json` writes."""
    return json.dumps(summary_dict(report), indent=2) + "\n"


def write_summary_json(report: EffectivenessReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary_json(report))
