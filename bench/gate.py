"""Correctness gate: the timed runs' report against the reference path.

The fast engine's output, as written by ``write_report_csv`` and
``write_summary_json``, is compared with ``sliding_effectiveness(...,
engine="reference")``, the object-level forward pass kept as the oracle:
the full-pass conflicts and reset indices over a fixed prefix, and the
values of a fixed, evenly spaced sample of windows.  The reference path
costs milliseconds per step on the 11-state model, so the sample is kept
to a few seconds per workload.
"""

from __future__ import annotations

import csv
import json

from evimon.forward import sliding_effectiveness

TOLERANCE = 1e-9
PREFIX = 200
SAMPLED_WINDOWS = 5
PERTURBATION = 1e-6


def read_output(report_path, summary_path) -> dict:
    conflicts, windows = [], {}
    with open(report_path, encoding="utf-8", newline="") as fh:
        for index, row in enumerate(csv.DictReader(fh)):
            conflicts.append(float(row["conflict"]))
            if row["window_effectiveness"]:
                windows[index] = float(row["window_effectiveness"])
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    return {
        "conflicts": conflicts,
        "windows": windows,
        "resets": summary["reset_steps"],
        "summary": summary,
    }


def reference(records, model, window: int, stride: int) -> dict:
    """Reference conflicts over the prefix and values of the sampled windows."""
    prefix = min(PREFIX, len(records))
    starts = range(0, len(records) - window + 1, stride)
    sample = sorted(
        {
            starts[round(k * (len(starts) - 1) / (SAMPLED_WINDOWS - 1))]
            for k in range(SAMPLED_WINDOWS)
        }
    )
    # only the full pass is used here; a one-step window with a stride past
    # the prefix keeps the windows' cost to a single step
    head = sliding_effectiveness(records[:prefix], model, 1, prefix, engine="reference")
    windows = {}
    for start in sample:
        rep = sliding_effectiveness(
            records[start : start + window], model, window, window, engine="reference"
        )
        windows[start + window - 1] = rep.windows[0].value
    return {
        "conflicts": [s.conflict for s in head.steps],
        "resets": [s.index for s in head.steps if s.reset],
        "windows": windows,
        "window_ends": [start + window - 1 for start in starts],
        "records": len(records),
    }


def compare(fast: dict, ref: dict) -> list[str]:
    """Every disagreement between the fast output and the reference."""
    problems = []
    if len(fast["conflicts"]) != ref["records"]:
        problems.append(
            f"{len(fast['conflicts'])} step rows for {ref['records']} records"
        )
    if sorted(fast["windows"]) != ref["window_ends"]:
        problems.append("window end positions differ from the window/stride grid")
    prefix = len(ref["conflicts"])
    for t, (got, want) in enumerate(zip(fast["conflicts"][:prefix], ref["conflicts"])):
        if not abs(got - want) <= TOLERANCE:
            problems.append(f"step {t}: conflict {got!r}, reference {want!r}")
    fast_resets = [t for t in fast["resets"] if t < prefix]
    if fast_resets != ref["resets"]:
        problems.append(f"resets {fast_resets} in the prefix, reference {ref['resets']}")
    for end, want in ref["windows"].items():
        got = fast["windows"].get(end)
        if got is None or not abs(got - want) <= TOLERANCE:
            problems.append(f"window ending at {end}: {got!r}, reference {want!r}")
    return problems


def self_check(fast: dict, ref: dict) -> bool:
    """True when the gate rejects one sampled window value moved by 1e-6."""
    end = min(ref["windows"])
    value = fast["windows"].get(end, 0.0)
    windows = dict(fast["windows"])
    windows[end] = value - PERTURBATION if value > 0.5 else value + PERTURBATION
    return bool(compare(dict(fast, windows=windows), ref))
