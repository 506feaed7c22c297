"""Report emission: a per-record CSV plus an optional JSON summary."""

from __future__ import annotations

import csv
import json

from .forward import EffectivenessReport

_FMT = ".12g"


def write_report_csv(report: EffectivenessReport, path) -> None:
    """One row per record; the window column fills where a window ends."""
    conflicts = report.conflicts.tolist()
    window = [""] * len(conflicts)
    window[report.window_len - 1 :: report.stride] = [
        format(v, _FMT) for v in report.values.tolist()
    ]
    rows = zip(
        [format(t, _FMT) for t in report.timestamps.tolist()],
        [format(c, _FMT) for c in conflicts],
        [format(1.0 - c, _FMT) for c in conflicts],
        window,
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["timestamp", "conflict", "step_effectiveness", "window_effectiveness"]
        )
        writer.writerows(rows)


def summary_dict(report: EffectivenessReport) -> dict:
    return {
        "records": len(report.conflicts),
        "window_len": report.window_len,
        "stride": report.stride,
        "rule": report.rule,
        "overall_effectiveness": report.overall,
        "windows": len(report.values),
        "min_window_effectiveness": float(report.values.min()),
        "max_window_effectiveness": float(report.values.max()),
        "breach_steps": list(report.breach_steps),
        "reset_steps": report.resets.tolist(),
        "breached": bool(report.breach_steps),
    }


def write_summary_json(report: EffectivenessReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary_dict(report), fh, indent=2)
        fh.write("\n")
