"""In-memory spans around the public calls the benchmark makes into evimon.

The benchmark traces from its own files: it replaces a module attribute
with a wrapper that records a span per call, so the library under test
carries no tracing code.  A span is ``[name, start, end, parent]`` where
``parent`` indexes the enclosing span (-1 at the root); every span in one
recorder shares the recorder's run id.  Spans stay in memory until
:meth:`Recorder.dump` writes them once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# (span name, module, attribute).  evaluate_constraint_vector and
# effectiveness are wrapped under the names evimon.forward binds them to,
# which is where the engine looks them up on every call.
TARGETS = (
    ("modelfile.parse_model", "evimon.modelfile", "parse_model"),
    ("trace.read_trace", "evimon.trace", "read_trace"),
    ("forward.sliding_effectiveness", "evimon.forward", "sliding_effectiveness"),
    (
        "possibility.evaluate_constraint_vector",
        "evimon.forward",
        "evaluate_constraint_vector",
    ),
    ("forward.effectiveness", "evimon.forward", "effectiveness"),
    ("report.write_report_csv", "evimon.report", "write_report_csv"),
    ("report.write_summary_json", "evimon.report", "write_summary_json"),
)


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack = [-1]
        self.absent: list[str] = []

    def install(self) -> None:
        """Wrap each target; a name the library no longer has is noted as absent."""
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
            else:
                setattr(module, attr, self._wrap(name, fn))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body of the ``with`` block."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        span = [name, time.perf_counter(), 0.0, stack[-1]]
        spans.append(span)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            span[2] = time.perf_counter()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"run_id": self.run_id, "absent": self.absent, "spans": self.spans}, fh
            )


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total time and self time.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest without overlapping, so that is the
    part of its interval no child covers.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, _), children in zip(spans, child_time):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - children
    return out


def root_coverage(spans, root: str) -> float:
    """Share of the ``root`` span's interval that its direct children cover."""
    index = next(i for i, s in enumerate(spans) if s[0] == root)
    _, start, end, _ = spans[index]
    covered = sum(s[2] - s[1] for s in spans if s[3] == index)
    return covered / (end - start)
