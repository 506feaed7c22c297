"""One repetition of the benchmark in a fresh interpreter.

Usage: ``python3 child.py '<json spec>'`` (``run.py`` builds the spec).

Times ``import evimon`` plus ``parse_model`` (set-up), then what
``evimon eval`` does once the model is resolved: ``read_trace`` ->
``sliding_effectiveness`` -> ``write_report_csv`` -> ``write_summary_json``.
Prints one JSON line with the timings, the process's peak RSS and the
time of a fixed calibration kernel run just before and just after the
eval, which ``run.py`` uses to scale the eval timings to a reference CPU
speed.  With ``traced`` set, the public calls are wrapped in spans (see
``tracing.py``) and the spans are written to ``<out_dir>/spans.json``
after the timed region.
"""

import contextlib
import json
import os
import resource
import sys
import time


def calibrate() -> float:
    """Seconds for a fixed kernel that does not touch evimon.

    Three parts of about equal time, in the shapes of the program's hot
    loops: subset-minimum tables and matrix-vector products over 2^11
    entries, small-array numpy calls mixed with dict stores, and pure
    Python number parsing.  A mix tracks how every workload slows down
    when other tenants contend for the CPU better than any single part.
    """
    import numpy as np

    n, size = 11, 1 << 11
    per_state = np.linspace(0.05, 1.0, n * n).reshape(n, n)
    signs = np.where(np.arange(size) % 3 == 0, 1.0, -1.0)
    a = np.linspace(0.0, 1.0, size)
    table = {}
    acc = 0.0
    t0 = time.perf_counter()
    for it in range(80):
        rows = np.ones((n, size))
        for j in range(n):
            v = rows.reshape((n, -1, 2, 1 << j))
            np.minimum(v[..., 1, :], per_state[:, j, None, None], out=v[..., 1, :])
        w = per_state[it % n] / per_state[it % n].sum()
        for k in range(20):
            acc += float(signs @ ((w @ rows) * rows[k % n]))
    for i in range(6000):
        acc += float(np.minimum(a, (i % 97) / 97.0).sum())
        for j in range(12):
            table[(i + j) & 255] = acc * 0.5 + j
    for i in range(40000):
        x = float(f"{i * 0.37:.6g}")
        table[i & 511] = min(acc, x)
    return time.perf_counter() - t0


def with_rule(model, rule):
    """The model under another normalization rule, as `evimon eval --rule` builds it."""
    if not rule:
        return model
    from evimon.iohmm import EvIohmm

    return EvIohmm(
        model.frame,
        model.transitions,
        model.emissions,
        prior=model.prior,
        rule=rule,
        input_variables=model.input_variables,
        output_variables=model.output_variables,
        name=model.name,
    )


def main(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import evimon  # noqa: F401  (the import is part of what set-up measures)
    from evimon import forward, modelfile, report, trace

    recorder = None
    if spec["traced"]:
        from tracing import Recorder

        recorder = Recorder(spec["run_id"])
        recorder.install()
    model = with_rule(modelfile.parse_model(spec["model"]), spec["rule"])
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if spec["setup_only"]:
        return result

    out = spec["out_dir"]
    report_path = os.path.join(out, "report.csv")
    summary_path = os.path.join(out, "summary.json")
    calibration_before = calibrate()
    t1 = time.perf_counter()
    with recorder.span("eval") if recorder else contextlib.nullcontext():
        records = trace.read_trace(spec["trace"])
        rep = forward.sliding_effectiveness(
            records, model, spec["window"], spec["stride"]
        )
        report.write_report_csv(rep, report_path)
        report.write_summary_json(rep, summary_path)
    result["eval_s"] = time.perf_counter() - t1
    result["calibration_s"] = (calibration_before + calibrate()) / 2
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        recorder.dump(os.path.join(out, "spans.json"))
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
