"""Benchmark of `evimon eval` on seed-generated workloads.

    python3 bench/run.py --workload speed-w50 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  The parent process generates the
workload's trace from ``--seed`` with ``evimon.generate``, then for
``--seconds`` starts one fresh interpreter at a time (``child.py``), each
timing ``import evimon`` + ``parse_model`` and then ``read_trace`` ->
``sliding_effectiveness`` -> ``write_report_csv`` -> ``write_summary_json``.
Medians over those repetitions, with eval times scaled to a reference
CPU speed (see ``CAL_REFERENCE_S``), are the end-to-end metrics
(``--trace 0``).  With ``--trace 1`` untraced and traced repetitions
alternate; the traced ones give the per-layer metrics from their spans.
After timing, the correctness gate (``gate.py``) checks the output against
the reference path.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full record with provenance.  See README.md for what each metric and
workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
MIN_REPS = 3
CHILD_TIMEOUT_S = 60
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    model: str
    rule: str | None
    scenario: str
    length: int
    window: int
    stride: int


# why each workload was chosen: README.md and BENCHMARK.json
WORKLOADS = {
    "speed-w50": Workload("speed_limits", None, "breach", 1500, 50, 1),
    "speed-dp": Workload("speed_limits", "dubois_prade", "breach", 400, 10, 1),
    "ride-long": Workload("ride_comfort", None, "mixed", 20000, 10, 10),
}

# per-layer metric -> (span name, field of tracing.summarize)
SPAN_METRICS = {
    "forward.sliding_effectiveness.s": ("forward.sliding_effectiveness", "total_s"),
    "forward.self.s": ("forward.sliding_effectiveness", "self_s"),
    "possibility.evaluate_constraint_vector.calls": (
        "possibility.evaluate_constraint_vector",
        "calls",
    ),
    "possibility.evaluate_constraint_vector.s": (
        "possibility.evaluate_constraint_vector",
        "total_s",
    ),
    "forward.effectiveness.calls": ("forward.effectiveness", "calls"),
    "forward.effectiveness.s": ("forward.effectiveness", "total_s"),
    "trace.read_trace.s": ("trace.read_trace", "total_s"),
    "report.write_report_csv.s": ("report.write_report_csv", "total_s"),
    "report.write_summary_json.s": ("report.write_summary_json", "total_s"),
    "modelfile.parse_model.s": ("modelfile.parse_model", "total_s"),
}
MIN_SPAN_COVERAGE = 0.99

# Eval and set-up timings are reported at a reference CPU speed: the one
# at which child.calibrate() takes CAL_REFERENCE_S, about its time on the
# 2-vCPU VM where the baseline was recorded.  That VM's speed drifts by
# +-20% over seconds to minutes as other tenants load the host, and the
# kernel drifts with it, so scaling each eval child's timings by
# CAL_REFERENCE_S / (its own kernel time) cuts the run-to-run spread of
# eval_s about threefold.  Raw wall-clock medians are kept in the record.
CAL_REFERENCE_S = 0.1


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "evimon").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def cap_threads(nproc: int) -> dict[str, str]:
    """Cap BLAS/OpenMP threads at nproc for this process and its children."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def make_inputs(workload: Workload, seed: int, work: Path):
    """Generate and write the workload's trace; returns (model, model path, trace path)."""
    from child import with_rule
    from evimon import bundled
    from evimon.generate import generate_trace
    from evimon.modelfile import parse_model
    from evimon.trace import write_trace

    model_path = Path(str(bundled.model_path(workload.model)))
    model = with_rule(parse_model(model_path), workload.rule)
    records, _ = generate_trace(model, workload.scenario, workload.length, seed)
    trace_path = work / "trace.csv"
    write_trace(trace_path, records, model.input_variables, model.output_variables)
    return model, model_path, trace_path


def run_child(spec: dict) -> dict | None:
    """One fresh interpreter; None when it fails or prints no result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"repetition {spec['run_id']} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"repetition {spec['run_id']} failed:\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def output_digest(out_dir: Path) -> dict:
    return {
        "report_sha256": sha256_file(out_dir / "report.csv"),
        "summary_sha256": sha256_file(out_dir / "summary.json"),
        "bytes": (out_dir / "report.csv").stat().st_size
        + (out_dir / "summary.json").stat().st_size,
    }


def at_reference_speed(result: dict) -> dict:
    """Scale one eval child's eval time by its calibration; keep the raw one."""
    result["scale"] = CAL_REFERENCE_S / result["calibration_s"]
    result["wall_eval_s"] = result["eval_s"]
    result["eval_s"] *= result["scale"]
    return result


def median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


def measure(args, workload: Workload, work: Path) -> dict:
    """Time the repetitions, then run the correctness gate on their output."""
    import gate
    import tracing
    from evimon.trace import read_trace

    model, model_path, trace_path = make_inputs(workload, args.seed, work)
    inputs = {
        "trace_sha256": sha256_file(trace_path),
        "model_sha256": sha256_file(model_path),
    }
    problems = []
    if args.seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "pins.json").read_text())[args.workload]
        if pinned != inputs:
            problems.append(
                f"INPUT DRIFT: seed {DEFAULT_SEED} no longer generates the pinned "
                f"inputs {pinned}; got {inputs}. Parent and change would be "
                "measured on different inputs."
            )
            print(problems[-1], file=sys.stderr)

    base = {
        "src": str(SRC),
        "model": str(model_path),
        "rule": workload.rule,
        "trace": str(trace_path),
        "window": workload.window,
        "stride": workload.stride,
    }
    runs, setups, failed, attempts = [], [], 0, {False: 0, True: 0}
    first_digest = first_dir = None
    kinds = (False, True) if args.trace else (False,)
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or min(attempts[t] for t in kinds) < MIN_REPS:
        traced = bool(args.trace) and attempts[False] > attempts[True]
        k = sum(attempts.values())
        attempts[traced] += 1
        out_dir = work / f"rep-{k}"
        out_dir.mkdir()
        result = run_child(
            dict(base, run_id=f"{args.workload}-seed{args.seed}-rep{k}",
                 traced=traced, setup_only=False, out_dir=str(out_dir))
        )
        if not args.trace:
            # set-up alone, interleaved so its samples span the whole run
            setup = run_child(
                dict(base, run_id=f"{args.workload}-seed{args.seed}-setup{k}",
                     traced=False, setup_only=True, out_dir=None)
            )
            if setup is None:
                problems.append(f"set-up-only repetition {k} failed")
            else:
                setups.append(setup["setup_s"])
        if result is None:
            failed += 1
            continue
        at_reference_speed(result)
        digest = output_digest(out_dir)
        if first_digest is None:
            first_digest, first_dir = digest, out_dir
        elif digest != first_digest:
            failed += 1
            problems.append(f"repetition {k}: report or summary bytes differ")
            continue
        if traced:
            spans = json.loads((out_dir / "spans.json").read_text())
            result["layers"] = tracing.summarize(spans["spans"])
            for entry in result["layers"].values():
                entry["total_s"] *= result["scale"]
                entry["self_s"] *= result["scale"]
            result["coverage"] = tracing.root_coverage(spans["spans"], "eval")
            result["absent"] = spans["absent"]
        result["traced"] = traced
        runs.append(result)
        if out_dir != first_dir:
            shutil.rmtree(out_dir)
    attempted = sum(attempts.values())

    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    setups += [r["setup_s"] for r in untraced]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": asdict(workload),
        "inputs": inputs,
        "outputs": first_digest,
    }
    metrics = {}
    if not untraced or (args.trace and not traced):
        problems.append("too few repetitions produced output")
    else:
        records = read_trace(trace_path)
        ref = gate.reference(records, model, workload.window, workload.stride)
        fast = gate.read_output(first_dir / "report.csv", first_dir / "summary.json")
        mismatches = gate.compare(fast, ref)
        if mismatches:
            # every repetition wrote these same bytes, so every one failed
            failed = attempted
            problems += mismatches[:20]
        rejects = gate.self_check(fast, ref)
        if not rejects:
            problems.append("gate self-check: a perturbed window value passed")
        record["gate"] = {
            "tolerance": gate.TOLERANCE,
            "prefix_steps": len(ref["conflicts"]),
            "sampled_window_ends": sorted(ref["windows"]),
            "mismatches": len(mismatches),
            "self_check_rejects_perturbed_window": rejects,
        }
        record["wall"] = {
            key: statistics.median(r[key] for r in untraced)
            for key in ("wall_eval_s", "calibration_s")
        }
        record["wall"]["setup_s"] = statistics.median(setups)
        # set-up is too short to bracket with the kernel one sample at a
        # time, so the whole run's set-up samples share its median scale
        setup_scale = CAL_REFERENCE_S / record["wall"]["calibration_s"]
        n_records = fast["summary"]["records"]
        eval_untraced = [r["eval_s"] for r in untraced]
        if not args.trace:
            metrics = {
                "eval_s": median_metric(eval_untraced, "s"),
                "records_per_s": median_metric(
                    [n_records / t for t in eval_untraced], "records/s"
                ),
                "setup_s": median_metric([t * setup_scale for t in setups], "s"),
                "peak_rss_mb": median_metric(
                    [r["peak_rss_mb"] for r in untraced], "MB"
                ),
            }
        else:
            metrics, layers = traced_metrics(
                traced, eval_untraced, fast["summary"],
                first_digest["bytes"], problems,
            )
            record["layers"] = layers
    record.update(
        problems=problems,
        correct=not problems and failed == 0,
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        metrics=metrics,
    )
    return record


def traced_metrics(traced, eval_untraced, summary, report_bytes, problems):
    """Per-layer metrics: medians over the traced repetitions' spans."""
    absent = sorted({name for r in traced for name in r["absent"]})
    metrics = {}
    for metric, (span, field) in SPAN_METRICS.items():
        values = [r["layers"].get(span, {}).get(field, 0) for r in traced]
        metrics[metric] = median_metric(values, "count" if field == "calls" else "s")
    counts = {
        "trace.records": (summary["records"], "count"),
        "forward.windows": (summary["windows"], "count"),
        "forward.resets": (len(summary["reset_steps"]), "count"),
        "forward.breach_steps": (len(summary["breach_steps"]), "count"),
        "report.bytes": (report_bytes, "bytes"),
    }
    for metric, (value, unit) in counts.items():
        metrics[metric] = {"value": value, "unit": unit, "samples": 1}
    eval_traced = [r["eval_s"] for r in traced]
    metrics["tracing.eval_s"] = median_metric(eval_traced, "s")
    metrics["tracing.overhead_s"] = {
        "value": statistics.median(eval_traced) - statistics.median(eval_untraced),
        "unit": "s",
        "samples": len(eval_traced),
    }
    coverage = min(r["coverage"] for r in traced)
    metrics["tracing.span_coverage"] = {
        "value": coverage, "unit": "ratio", "samples": len(traced)
    }
    if coverage < MIN_SPAN_COVERAGE:
        problems.append(
            f"spans cover {coverage:.4f} of the traced eval_s "
            f"(need {MIN_SPAN_COVERAGE})"
        )
    layers = {
        name: {
            field: statistics.median(r["layers"][name][field] for r in traced)
            for field in ("calls", "total_s", "self_s")
        }
        for name in sorted({n for r in traced for n in r["layers"]})
    }
    layers["absent"] = absent
    return metrics, layers


def print_summary(record: dict) -> None:
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"trace {record['trace']}  params {record['params']}"
    )
    print(f"  inputs  {record['inputs']}")
    print(f"  outputs {record['outputs']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<10} (n={m['samples']})")
    print(
        f"  {'error_rate':<44} {record['error_rate']:>14.6g} ratio      "
        f"({record['failed']}/{record['attempted']})"
    )
    if "gate" in record:
        g = record["gate"]
        print(
            f"  gate: prefix {g['prefix_steps']} steps, windows ending at "
            f"{g['sampled_window_ends']}, {g['mismatches']} mismatches; "
            "perturbed window "
            + ("rejected" if g["self_check_rejects_perturbed_window"] else "ACCEPTED")
        )
    if record.get("layers", {}).get("absent"):
        print(f"  absent (not wrapped): {record['layers']['absent']}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full record to this file")
    args = parser.parse_args(argv)

    if not (SRC / "evimon" / "__init__.py").is_file():
        print(f"no evimon sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    thread_caps = cap_threads(nproc)
    sys.path.insert(0, str(SRC))
    import numpy

    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        record = measure(args, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = {
        "nproc": nproc,
        "thread_caps": thread_caps,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }
    print_summary(record)
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
