"""Command-line front end: evaluate traces, run the demo, generate traces.

Exit codes: 0 success, 1 parse/validation problem with the inputs or an
output path that cannot be written, 2 evaluation failure at run time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import bundled
from .errors import EvimonError, ParseError, TraceTooShort, ValidationError
from .forward import sliding_effectiveness
from .generate import SCENARIOS, generate_trace, manifest_lines
from .modelfile import parse_model
from .report import summary_json, write_report_csv
from .trace import read_trace, write_trace


def _resolve_model(spec: str):
    """A model argument is a path or the name of a bundled model."""
    if spec in bundled.MODELS:
        return parse_model(bundled.model_path(spec))
    return parse_model(spec)


def _require_columns(path, trace, model) -> None:
    """Fail at the trace's header when it lacks a column the model reads.

    Record 0's inputs gate nothing, so input columns are needed only when
    there is a second record.  Columns declared but not read are optional.
    """
    sides = [("out", model.emissions, trace.outputs)]
    if len(trace) > 1:
        arcs = [cv for row in model.transitions for cv in row]
        sides.insert(0, ("in", arcs, trace.inputs))
    for prefix, vectors, present in sides:
        for name in sorted({v for cv in vectors for v in cv.required_variables()}):
            if name not in present:
                raise ParseError(f"missing column '{prefix}.{name}'", f"{path}:1")


def _check_writable(*paths) -> None:
    """Fail before any work on an output path that cannot be written.

    Opening for append truncates nothing; a file the check creates is
    removed again, so a failure leaves no output behind.
    """
    for path in filter(None, paths):
        existed = os.path.exists(path)
        open(path, "a").close()
        if not existed:
            os.remove(path)


def _cmd_eval(args) -> int:
    _check_writable(args.out, args.summary)
    model = _resolve_model(args.model)
    trace = read_trace(args.trace)
    _require_columns(args.trace, trace, model)
    if args.rule:
        model = dataclasses.replace(model, rule=args.rule)
    report = sliding_effectiveness(trace, model, args.window, args.stride)
    if args.out:
        write_report_csv(report, args.out)
    summary = summary_json(report)  # once: a long trace's summary is megabytes
    if args.summary:
        with open(args.summary, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(summary)
    sys.stdout.write(summary)
    return 0


def _cmd_demo(_args) -> int:
    from .demo import run_walkthrough

    run_walkthrough()
    return 0


def _cmd_gen_trace(args) -> int:
    if args.length < 1:
        raise ValueError(f"--length must be >= 1, got {args.length}")
    manifest_path = f"{args.out}.manifest.json"
    _check_writable(args.out, manifest_path)
    model = _resolve_model(args.model)
    trace, zones = generate_trace(model, args.scenario, args.length, args.seed)
    write_trace(args.out, trace, model.input_variables, model.output_variables)
    manifest = {
        "model": model.name,
        "scenario": args.scenario,
        "seed": args.seed,
        "records": len(trace),
        "zones": manifest_lines(zones),
    }
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(trace)} records to {args.out}")
    print("zones: " + " ".join(manifest["zones"]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evimon",
        description="Run-time effectiveness monitoring with belief-function models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a trace against a model")
    p_eval.add_argument("--model", required=True, help="model file or bundled name")
    p_eval.add_argument("--trace", required=True, help="trace CSV")
    p_eval.add_argument("--window", type=int, default=10, help="window length")
    p_eval.add_argument("--stride", type=int, default=1, help="window stride")
    p_eval.add_argument(
        "--rule",
        choices=("dempster", "yager", "dubois_prade"),
        help="override the model's normalization rule",
    )
    p_eval.add_argument("--out", help="report CSV path")
    p_eval.add_argument("--summary", help="JSON summary path")
    p_eval.set_defaults(func=_cmd_eval)

    p_demo = sub.add_parser(
        "demo", help="print and verify the two-state worked example"
    )
    p_demo.set_defaults(func=_cmd_demo)

    p_gen = sub.add_parser("gen-trace", help="generate a synthetic trace")
    p_gen.add_argument("--model", required=True, help="model file or bundled name")
    p_gen.add_argument("--scenario", choices=SCENARIOS, default="comfort")
    p_gen.add_argument("--length", type=int, default=60)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="trace CSV path")
    p_gen.set_defaults(func=_cmd_gen_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, TraceTooShort, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # reads fail as ParseError: this is an output
        print(f"error: {exc.filename}: cannot write: {exc.strerror}", file=sys.stderr)
        return 1
    except EvimonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
