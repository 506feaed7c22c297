"""Synthetic trace generation with known zone classes per record.

A generated trace follows a random state path whose inputs sit in the
comfort zone of the arcs taken.  Depending on the scenario, selected
records push the output into the tolerance band (conflict strictly
between 0 and 1) or outside every viability zone (conflict exactly 1).
Generation is deterministic for a seed, and a manifest records the zone
class of every record; the result is verified against the forward pass
before it is returned.
"""

from __future__ import annotations

import itertools

import numpy as np

from .belief import _TOTAL_CONFLICT_EPS
from .errors import GenerationError
from .forward import sliding_effectiveness
from .iohmm import EvIohmm
from .possibility import ConstraintVector, PossibilityDistribution
from .trace import Trace

SCENARIOS = ("comfort", "tolerance", "breach", "mixed")


def _span(dist: PossibilityDistribution) -> float:
    ps = dist.params
    base = max(abs(p) for p in ps) if ps else 1.0
    return max(1.0, 0.25 * base)


def comfort_value(dist: PossibilityDistribution, rng) -> float | None:
    """A value with possibility exactly 1, or None if the curve has none."""
    s = _span(dist)
    u = float(rng.uniform(0.1, 0.9))
    kind, p = dist.kind, dist.params
    if kind == "ramp_up":
        return p[1] + u * s
    if kind == "ramp_down":
        return p[0] - u * s
    if kind == "trapezoid":
        return p[1] + u * (p[2] - p[1])
    if kind == "crisp_above":
        return p[0] + 0.1 + u * s
    if kind == "crisp_below":
        return p[0] - 0.1 - u * s
    if kind == "crisp_interval":
        return p[0] + u * (p[1] - p[0])
    return 0.0 if p[0] == 1.0 else None  # constant


def tolerance_value(dist: PossibilityDistribution, rng) -> float | None:
    """A value with possibility strictly inside (0, 1), or None."""
    u = float(rng.uniform(0.25, 0.75))
    kind, p = dist.kind, dist.params
    if kind in ("ramp_up", "ramp_down"):
        return p[0] + u * (p[1] - p[0])
    if kind == "trapezoid":
        a, b, c, d = p
        if b > a:
            return a + u * (b - a)
        if d > c:
            return c + u * (d - c)
        return None
    return None  # crisp curves and constants have no tolerance band


def breach_values(model: EvIohmm, rng) -> dict[str, float]:
    """Output values giving every state possibility 0, if any exist.

    Every curve's zero set is bounded by its parameters, so if a breach
    assignment exists at all, one exists among the per-variable
    candidates: beyond either extreme parameter or at a midpoint between
    consecutive parameters.  Candidates are checked directly against the
    emission possibilities.
    """
    candidates: list[list[float]] = []
    for var in model.output_variables:
        points = sorted(
            {
                p
                for cv in model.emissions
                for e in cv.entries
                if not e.inhibited and e.variable == var
                for p in e.distribution.params
            }
        )
        if not points:
            candidates.append([0.0])
            continue
        span = max(1.0, 0.25 * max(abs(p) for p in points))
        values = [
            points[0] - span - float(rng.uniform(0.0, 1.0)),
            points[-1] + span + float(rng.uniform(0.0, 1.0)),
        ]
        values += [(a + b) / 2.0 for a, b in zip(points, points[1:]) if b > a]
        candidates.append(values)

    for combo in itertools.islice(itertools.product(*candidates), 512):
        outputs = dict(zip(model.output_variables, combo))
        if float(model.emission_possibilities(outputs).max()) == 0.0:
            return outputs
    raise GenerationError(
        "no output value lies outside every state's zone of viability"
    )


def generate_trace(
    model: EvIohmm,
    scenario: str,
    length: int,
    seed: int,
) -> tuple[Trace, list[str]]:
    """Build a trace plus the per-record zone-class manifest.

    The trace's columns are filled record by record, with no record kept.
    """
    if scenario not in SCENARIOS:
        raise GenerationError(f"unknown scenario {scenario!r}; pick from {SCENARIOS}")
    if length < 1:
        raise GenerationError(f"length must be >= 1, got {length}")
    rng = np.random.default_rng(seed)
    frame = model.frame
    n = frame.size

    def vector_values(cv: ConstraintVector, picker) -> dict[str, float] | None:
        values = {}
        for e in cv.entries:
            if e.inhibited:
                continue
            value = picker(e.distribution, rng)
            if value is None:
                return None
            if e.distribution.kind != "constant":
                values[e.variable] = value
        return values

    # states whose emission has a comfort zone (the spec of a state with
    # none is broken: no observation can ever fully satisfy it)
    emission_comfort = [vector_values(cv, comfort_value) for cv in model.emissions]
    broken = [frame.labels[j] for j, v in enumerate(emission_comfort) if v is None]
    if broken:
        raise GenerationError(
            f"states with an empty emission comfort zone: {broken}"
        )

    # arcs usable for comfort steps: all active entries have comfort zones
    comfort_arcs = [
        [j for j, cv in enumerate(row) if vector_values(cv, comfort_value) is not None]
        for row in model.transitions
    ]
    if not any(comfort_arcs):
        raise GenerationError("no transition arc has a comfort zone")

    if scenario == "tolerance" and all(
        vector_values(cv, tolerance_value) is None for cv in model.emissions
    ):
        raise GenerationError(
            "no emission curve has a tolerance band (all-crisp model?)"
        )
    breach_out = breach_values(model, rng) if scenario in ("breach", "mixed") else None

    # mark which records deviate from comfort
    deviant = np.zeros(length, dtype=bool)
    if scenario in ("tolerance", "breach"):
        k = max(1, length // 5)
        deviant[rng.choice(length, size=k, replace=False)] = True
    elif scenario == "mixed":
        deviant[rng.random(length) < 0.25] = True

    start_candidates = [i for i in range(n) if comfort_arcs[i]]
    state = int(rng.choice(start_candidates))
    in_columns = {var: np.empty(length) for var in model.input_variables}
    out_columns = {var: np.empty(length) for var in model.output_variables}
    zones: list[str] = []
    for t in range(length):
        if t == 0:
            inputs = {
                var: float(rng.uniform(0.0, 1.0)) for var in model.input_variables
            }
            # first record's inputs gate nothing; keep declared columns filled
            arc_inputs = vector_values(
                model.transitions[state][state], comfort_value
            ) or {}
            inputs.update(arc_inputs)
        else:
            prev = state
            choices = comfort_arcs[prev]
            if not choices:
                raise GenerationError(
                    f"state {frame.labels[prev]} has no outgoing comfort arc"
                )
            state = int(rng.choice(choices))
            inputs = vector_values(model.transitions[prev][state], comfort_value)

        zone, outputs = "comfort", None
        if deviant[t]:
            want_tolerance = scenario == "tolerance" or (
                scenario == "mixed" and rng.random() < 0.5
            )
            if want_tolerance:
                candidate = vector_values(model.emissions[state], tolerance_value)
                if candidate is not None:
                    zone, outputs = "tolerance", candidate
            if outputs is None and scenario in ("breach", "mixed"):
                zone, outputs = "breach", breach_out
        if outputs is None:
            zone = "comfort"
            outputs = vector_values(model.emissions[state], comfort_value)
        # a declared variable no active curve reads is 0
        for var, column in in_columns.items():
            column[t] = inputs.get(var, 0.0)
        for var, column in out_columns.items():
            column[t] = outputs.get(var, 0.0)
        zones.append(zone)

    trace = Trace(np.arange(length, dtype=float), in_columns, out_columns)
    _verify_zones(model, trace, zones)
    return trace, zones


def _verify_zones(model, trace, zones) -> None:
    """Check the constructed classes against the actual forward pass."""
    # one window of one record: the full pass alone
    conflicts = sliding_effectiveness(trace, model, 1, len(trace)).conflicts
    for t, (zone, conflict) in enumerate(zip(zones, conflicts)):
        ok = (
            conflict <= _TOTAL_CONFLICT_EPS
            if zone == "comfort"
            else conflict >= 1.0 - _TOTAL_CONFLICT_EPS
            if zone == "breach"
            else _TOTAL_CONFLICT_EPS < conflict < 1.0 - _TOTAL_CONFLICT_EPS
        )
        if not ok:
            raise GenerationError(
                f"record {t} was built for zone {zone!r} but its step conflict "
                f"is {conflict}; the model's arcs do not support clean "
                f"generation (overlapping or source-specific zones)"
            )


def manifest_lines(zones: list[str]) -> list[str]:
    """Compress per-record zones into 'zone:first-last' manifest entries."""
    out = []
    start = 0
    for t in range(1, len(zones) + 1):
        if t == len(zones) or zones[t] != zones[start]:
            out.append(f"{zones[start]}:{start}-{t - 1}")
            start = t
    return out
