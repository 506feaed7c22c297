"""Report emission: a per-record CSV plus an optional JSON summary.

The CSV is written ``_BLOCK_LINES`` rows at a time, each block one ``%``
format.  A block's distinct conflicts, told apart by their bits so that
``-0.0`` keeps its sign, are each formatted once with ``1 - conflict``;
most conflicts are exactly 0 or 1.  The summary writes its two step lists
as joined integers, not through ``json``'s indenting encoder, with the
same bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .forward import EffectivenessReport, windows_ending
from .trace import _BLOCK_LINES


def write_report_csv(report: EffectivenessReport, path) -> None:
    """One row per record; the window column fills where a window ends."""
    w, stride = report.window_len, report.stride
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,conflict,step_effectiveness,window_effectiveness\n")
        for first in range(0, len(report.conflicts), _BLOCK_LINES):
            # float64, whose bits tell -0.0 from 0.0
            conflicts = np.asarray(report.conflicts[first : first + _BLOCK_LINES], float)
            n = len(conflicts)
            bits, index = np.unique(conflicts.view(np.uint64), return_inverse=True)
            # conflict and step effectiveness, once per distinct conflict
            pairs = np.array(
                ["%.12g,%.12g" % (c, 1.0 - c) for c in bits.view(float).tolist()],
                dtype=object,
            )
            # timestamp, the pair, window cell: empty except where a window ends
            cells = [""] * (3 * n)
            cells[::3] = report.timestamps[first : first + n].tolist()
            cells[1::3] = pairs[index].tolist()
            here = windows_ending(first, first + n, w, stride)
            ends = slice(3 * (w - 1 + here.start * stride - first) + 2, None, 3 * stride)
            values = report.values[here.start : here.stop].tolist()
            cells[ends] = ["%.12g" % v for v in values]
            fh.write("%.12g,%s,%s\n" * n % tuple(cells))


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
    """The summary as the JSON text that :func:`write_summary_json` writes:
    the bytes of ``json.dumps(summary_dict(report), indent=2) + "\\n"``."""
    fields = []
    for key, value in summary_dict(report).items():
        if isinstance(value, list):  # of ints, one a line
            value = "[\n    " + ",\n    ".join(map(str, value)) + "\n  ]" if value else "[]"
        else:
            value = json.dumps(value)
        fields.append(f"  {json.dumps(key)}: {value}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def write_summary_json(report: EffectivenessReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary_json(report))
