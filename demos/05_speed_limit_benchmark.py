"""The 11-state speed-limit model at scale.

Loads the bundled French speed-limit model (one state per limit context:
dry/rainy roads, trunk roads and motorways, urban zones, low visibility)
and the bundled 600-record drive.  The drive is comfortable except for
ten seconds at 92 km/h in a dry 90 zone (inside the radar tolerance
band) and a three-second runaway beyond every limit.

Materializes the full conditional transition structure through the
object path (2^11 rows), then scores 591 sliding windows with the
contour engine, which never builds those rows: each pass is one
11-vector of state plausibilities.
"""

import time

from evimon import bundled, sliding_effectiveness
from evimon.iohmm import build_transition_rows
from evimon.modelfile import parse_model
from evimon.trace import read_trace

model = parse_model(bundled.model_path("speed_limits"))
trace = read_trace(bundled.trace_path("speed_limits_mixed_600"))
print("States:", ", ".join(model.frame.labels))
print("Inputs:", model.input_variables, "| output:", model.output_variables)
print(f"Trace: {len(trace)} records\n")

t0 = time.perf_counter()
rows = build_transition_rows(model, trace[10].inputs)
full = rows.rows
t1 = time.perf_counter()
print(f"Materialized all {len(full)} conditional transition rows in {t1 - t0:.3f}s")
print("   row for the empty set:", full[0])
omega = model.frame.full_mask
print("   focal count of the full-frame row:", len(full[omega].focal_masks()))

t0 = time.perf_counter()
report = sliding_effectiveness(trace, model, window_len=10, stride=1)
t1 = time.perf_counter()
print(f"\nScored {len(report.windows)} windows in {t1 - t0:.3f}s")

print("\nWindow effectiveness along the drive (one value per 30 windows):")
for w in report.windows[::30]:
    bar = "#" * round(40 * w.value)
    print(f"   t={w.end_timestamp:>5.0f}  {w.value:8.6f}  {bar}")

dipped = [w for w in report.windows if w.value < 1.0]
print(f"\nWindows below 1.0: {len(dipped)}")
print(
    "   first/last dipped window ends:"
    f" {dipped[0].end_timestamp:.0f} / {dipped[-1].end_timestamp:.0f}"
)
print("   breach steps (conflict 1.0):", list(report.breach_steps))
print("   total-conflict resets:", [s.index for s in report.steps if s.reset])
