"""End-to-end monitoring: generate traces, slide windows, emit reports.

Uses the bundled room-luminosity model.  Three synthetic traces (one per
zone class) are generated, scored with a sliding window, and written out
as report CSV plus JSON summary under a temporary directory, which is
removed when the run ends.
"""

import pathlib
import tempfile

from evimon import bundled, generate_trace, sliding_effectiveness
from evimon.generate import manifest_lines
from evimon.modelfile import parse_model
from evimon.report import summary_dict, write_report_csv, write_summary_json
from evimon.trace import write_trace

model = parse_model(bundled.model_path("luminosity"))
with tempfile.TemporaryDirectory(prefix="evimon-demo-") as tmp:
    workdir = pathlib.Path(tmp)
    print("Model:", model.name, "| states:", model.frame.labels)
    print("Working directory:", workdir, "\n")

    for scenario in ("comfort", "tolerance", "breach"):
        records, zones = generate_trace(model, scenario, length=40, seed=11)
        trace_path = workdir / f"{scenario}.csv"
        write_trace(trace_path, records, model.input_variables, model.output_variables)

        report = sliding_effectiveness(records, model, window_len=10, stride=1)
        write_report_csv(report, workdir / f"{scenario}_report.csv")
        write_summary_json(report, workdir / f"{scenario}_summary.json")

        summary = summary_dict(report)
        print(f"--- scenario {scenario!r}")
        print("    zones:", " ".join(manifest_lines(zones)))
        print(f"    overall effectiveness: {summary['overall_effectiveness']:.6g}")
        print(
            "    window effectiveness range:"
            f" [{summary['min_window_effectiveness']:.6g},"
            f" {summary['max_window_effectiveness']:.6g}]"
        )
        if summary["breached"]:
            print("    breach at records:", summary["breach_steps"])
        print()

    print("Report files written:")
    for path in sorted(workdir.iterdir()):
        print("   ", path.name)

    # the windowed value is always the product of its own step effectivenesses
    report_csv = (workdir / "breach_report.csv").read_text().splitlines()
    print("\nFirst windowed row of the breach report:")
    print("   ", report_csv[0])
    print("   ", report_csv[10])
