"""Two-state worked example with every intermediate table checked.

Runs one prediction-combination step of the room-luminosity model at
presence 3.5 and luminosity 2.34, printing the possibility, plausibility
and mass tables, the conditional transition rows, the prediction, the
emission, and the combined step; every cell is asserted against its
expected value so the routine doubles as a self-check.
"""

from __future__ import annotations

import numpy as np

from . import bundled
from .belief import mass_to_plausibility, combine_conjunctive, normalize, vacuous
from .errors import EvimonError
from .forward import predict
from .iohmm import build_transition_rows, emission_bba
from .modelfile import parse_model

TOL = 1e-9
# the one step the expected tables below were worked out for
PRES = 3.5
LUM = 2.34

_SUBSETS = ("{}", "{x1}", "{x2}", "OMEGA")


class DemoMismatch(EvimonError):
    """A demo table cell is off by more than the tolerance."""


def _check_table(title: str, rows: dict[str, np.ndarray], expected: dict[str, list]):
    print(f"\n{title}")
    header = " " * 14 + "".join(f"{s:>10}" for s in _SUBSETS)
    if all(len(v) == 2 for v in expected.values()):
        header = " " * 14 + f"{'x1':>10}{'x2':>10}"
    print(header)
    for label, values in rows.items():
        print(f"  {label:<12}" + "".join(f"{v:>10.6g}" for v in values))
        want = expected[label]
        for k, (got, ref) in enumerate(zip(values, want)):
            if abs(got - ref) > TOL:
                raise DemoMismatch(
                    f"{title}, row {label!r}, cell {k}: got {got!r}, expected {ref!r}"
                )


def run_walkthrough() -> None:
    """Print and verify every step of the worked example; raises on mismatch."""
    model = parse_model(bundled.model_path("luminosity"))
    frame = model.frame
    print(f"Room-luminosity model, one step: pres={PRES}, lum={LUM}")

    poss = model.transition_possibilities({"pres": PRES})
    _check_table(
        "Transition possibilities (per source state)",
        {"[x1]": poss[0], "[x2]": poss[1]},
        {"[x1]": [0.75, 0.0], "[x2]": [0.75, 0.0]},
    )

    rows = build_transition_rows(model, {"pres": PRES})
    pl_rows = {
        f"[x{i+1}]": mass_to_plausibility(rows.singleton_rows[i]).values
        for i in range(2)
    }
    _check_table(
        "Transition plausibilities over state subsets",
        pl_rows,
        {"[x1]": [0.0, 0.75, 0.0, 0.75], "[x2]": [0.0, 0.75, 0.0, 0.75]},
    )

    _check_table(
        "Transition masses (singleton-conditional rows)",
        {f"[x{i+1}]": rows.singleton_rows[i].masses for i in range(2)},
        {"[x1]": [0.25, 0.75, 0.0, 0.0], "[x2]": [0.25, 0.75, 0.0, 0.0]},
    )

    _check_table(
        "Conditional rows extended to all subsets (disjunctive)",
        {frame.format_subset(m): rows.row(m).masses for m in range(4)},
        {
            "{}": [1.0, 0.0, 0.0, 0.0],
            "{x1}": [0.25, 0.75, 0.0, 0.0],
            "{x2}": [0.25, 0.75, 0.0, 0.0],
            "OMEGA": [0.0625, 0.9375, 0.0, 0.0],
        },
    )

    predicted = predict(vacuous(frame), rows)
    _check_table(
        "Predicted state (vacuous prior)",
        {"m_hat": predicted.masses},
        {"m_hat": [0.25, 0.75, 0.0, 0.0]},
    )

    e_poss = model.emission_possibilities({"lum": LUM})
    _check_table(
        "Emission possibilities", {"poss": e_poss}, {"poss": [1.0, 0.0]}
    )
    e = emission_bba(model, {"lum": LUM})
    _check_table(
        "Emission plausibilities",
        {"pl": mass_to_plausibility(e).values},
        {"pl": [0.0, 1.0, 0.0, 1.0]},
    )
    _check_table("Emission masses", {"m": e.masses}, {"m": [0.0, 1.0, 0.0, 0.0]})

    combined = combine_conjunctive(predicted, e)
    _check_table(
        "Combined prediction and emission",
        {"m": combined.masses},
        {"m": [0.25, 0.75, 0.0, 0.0]},
    )
    conflict = combined.conflict
    print(f"\nStep conflict: {conflict:.6g}")
    if abs(conflict - 0.25) > TOL:
        raise DemoMismatch(f"step conflict: got {conflict!r}, expected 0.25")
    print(f"Step effectiveness: {1.0 - conflict:.6g}")
    if abs((1.0 - conflict) - 0.75) > TOL:
        raise DemoMismatch(f"step effectiveness: got {1.0 - conflict!r}")

    normalized = normalize(combined, "dempster")
    _check_table(
        "Running belief after Dempster renormalization",
        {"m": normalized.masses},
        {"m": [0.0, 1.0, 0.0, 0.0]},
    )
    print("\nAll walkthrough values check out within 1e-9.")
