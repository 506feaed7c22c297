"""Evidential forward pass and the degree-of-effectiveness products.

Each step predicts the next-state belief from the current one through
the input-conditioned transition rows, conjunctively combines the
prediction with the output-conditioned emission belief, records the
conflict the combination sent to the empty set, and renormalizes so the
running belief stays a normal BBA.  The degree of effectiveness of a
record sequence is the product of (1 - conflict) over its steps: the
plausibility that the observed behavior was produced by the model.

Prediction weights each singleton transition row by the prior's
normalized singleton plausibility (its contour).  Conditioning mass
never reaches larger subsets, whose disjunctively extended rows exist
for inspection but carry zero weight; see ``conditioning_weights``.

Two implementations are provided: a reference path through the public
mass-function objects and materialized conditional rows, and a fast path
that carries each pass as its contour (see ``ContourEngine``).  Every
row and emission is consonant, so a step's conflict is one minus the
area of a union of rectangles, and the full pass and every open window
advance together as one stack of contours.  Both paths agree to float
precision; per record the fast one costs one sort plus O(N**2), plus
O(N**2) per open pass, and Dubois-Prade adds O(N**3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .belief import (
    MassFunction,
    SetFunction,
    combine_conjunctive,
    commonality_to_mass,
    mass_to_commonality,
    normalize,
    vacuous,
)
from .errors import EmptyLog, TotalConflict, TraceTooShort
from .iohmm import (
    ConditionalTransitionBBAs,
    EvIohmm,
    build_transition_rows,
    emission_bba,
)
from .possibility import evaluate_constraint_vector
from .trace import TraceRecord

_TOTAL_CONFLICT_EPS = 1e-12
_CONTOUR_EPS = 1e-15


def _clip_unit(value: float) -> float:
    return min(1.0, max(0.0, float(value)))


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def conditioning_weights(prior: MassFunction) -> np.ndarray:
    """Mixture weight of each conditioning subset for the prediction step.

    The prior's singleton commonalities (= singleton plausibilities, its
    contour) are normalized into weights on the singleton subsets; every
    other subset gets weight zero.  A prior whose contour vanishes
    entirely conditions on the empty set.
    """
    frame = prior.frame
    q = mass_to_commonality(prior).values
    weights = np.zeros(frame.n_subsets)
    singles = [1 << i for i in range(frame.size)]
    contour = q[singles]
    total = float(contour.sum())
    if total <= _CONTOUR_EPS:
        weights[0] = 1.0
    else:
        weights[singles] = contour / total
    return weights


def predict(prior: MassFunction, rows: ConditionalTransitionBBAs) -> MassFunction:
    """Commonality-space mixture of conditional rows under the prior's weights."""
    frame = rows.frame
    weights = conditioning_weights(prior)
    q_hat = np.zeros(frame.n_subsets)
    for mask in np.flatnonzero(weights):
        q_hat += weights[mask] * mass_to_commonality(rows.row(int(mask))).values
    return commonality_to_mass(SetFunction(frame, "commonality", q_hat))


# ---------------------------------------------------------------------------
# forward recursion over mass-function objects (reference path)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForwardState:
    """Running normalized belief plus the conflict recorded at each step."""

    current: MassFunction
    conflict_log: tuple[float, ...]
    resets: tuple[int, ...] = ()

    @property
    def step_index(self) -> int:
        return len(self.conflict_log)


def _normalize_step(
    combined: MassFunction,
    parents: tuple[MassFunction, MassFunction],
    rule: str,
) -> tuple[MassFunction, bool]:
    """Renormalize one step's combination; True flags a vacuous reset."""
    if rule == "dempster":
        try:
            return normalize(combined, "dempster"), False
        except TotalConflict:
            # model breakdown: keep monitoring from total ignorance
            return vacuous(combined.frame), True
    return normalize(combined, rule, parents=parents), False


def forward_init(model: EvIohmm, outputs: Mapping[str, float]) -> ForwardState:
    """Start a pass: with a vacuous prior the first belief is the emission's.

    The emission's empty-set mass is then the first recorded conflict.
    The combination with the (normally vacuous) prior also defines the
    Dubois-Prade parents, under which the rule reduces to the Yager
    transfer at this step.
    """
    e = emission_bba(model, outputs)
    combined = combine_conjunctive(e, model.prior)
    conflict = _clip_unit(combined.conflict)
    current, reset = _normalize_step(combined, (e, model.prior), model.rule)
    return ForwardState(current, (conflict,), (0,) if reset else ())


def forward_step(
    state: ForwardState,
    model: EvIohmm,
    inputs: Mapping[str, float],
    outputs: Mapping[str, float],
) -> ForwardState:
    """Advance one record: predict, combine with the emission, renormalize."""
    rows = build_transition_rows(model, inputs)
    predicted = predict(state.current, rows)
    e = emission_bba(model, outputs)
    combined = combine_conjunctive(predicted, e)
    conflict = _clip_unit(combined.conflict)
    current, reset = _normalize_step(combined, (predicted, e), model.rule)
    resets = state.resets + ((state.step_index,) if reset else ())
    return ForwardState(current, state.conflict_log + (conflict,), resets)


def effectiveness(conflict_log: Sequence[float]) -> float:
    """Degree of effectiveness: the product of per-step (1 - conflict)."""
    if len(conflict_log) == 0:
        raise EmptyLog("effectiveness of an empty conflict log is undefined")
    return float(np.prod([1.0 - c for c in conflict_log]))


def run_forward(
    model: EvIohmm, records: Sequence[TraceRecord]
) -> ForwardState:
    """Reference full pass over a record sequence."""
    state = forward_init(model, records[0].outputs)
    for rec in records[1:]:
        state = forward_step(state, model, rec.inputs, rec.outputs)
    return state


# ---------------------------------------------------------------------------
# contour engine (fast path)
# ---------------------------------------------------------------------------

class ContourEngine:
    """Forward passes carried on contours (singleton plausibilities).

    A consonant BBA with contour ``p`` is the random set of its alpha-cuts
    ``{k : p_k >= a}``, ``a`` uniform on (0, 1].  A transition row ``P_i``
    and the emission ``e`` therefore conflict unless ``(a, b)`` falls in
    some rectangle ``[0, P_ik] x [0, e_k]``: the row's conflict is one
    minus the area of their union.  Prediction reads only the running
    belief's contour, and the combination's contour follows from the rule,
    so each pass is an N-vector and a stack of passes advances in one
    matrix product.  The prior enters the same way, as a mixture of crisp
    rows (one per focal set) weighted by its masses.

    An engine holds only what it derives from the model.
    """

    def __init__(self, model: EvIohmm):
        self.rule = model.rule
        labels = model.frame.labels
        n = model.frame.size
        # arcs routinely share one constraint vector; evaluate each only
        # once per record, then gather the values into place
        curves: dict = {}  # (reads outputs, vector) -> (slot, context)

        def slot(cv, outputs, context):
            return curves.setdefault((outputs, cv), (len(curves), context))[0]

        self._arc_slots = np.array([
            [
                slot(cv, False, f"transition {labels[i]}->{labels[j]}")
                for j, cv in enumerate(row)
            ]
            for i, row in enumerate(model.transitions)
        ])
        self._emission_slots = np.array([
            slot(cv, True, f"emission of state {labels[j]}")
            for j, cv in enumerate(model.emissions)
        ])
        self._curves = [(cv, out, ctx) for (out, cv), (_, ctx) in curves.items()]
        masses = model.prior.masses
        focal = np.flatnonzero(masses)
        self._prior_weights = masses[focal][None, :]
        self._prior_rows = ((focal[:, None] >> np.arange(n)) & 1).astype(float)

    def record(self, record: TraceRecord) -> tuple[np.ndarray, ...]:
        """(arc possibilities, emission contour, its descending order) of a record."""
        values = np.array([
            evaluate_constraint_vector(
                cv, record.outputs if out else record.inputs, context=context
            )
            for cv, out, context in self._curves
        ])
        e = values[self._emission_slots]
        return values[self._arc_slots], e, (-e).argsort()

    def start(self, e: np.ndarray, order: np.ndarray) -> tuple[float, np.ndarray]:
        """Conflict and contour of a pass's first step, where the prior meets ``e``."""
        conflicts, contours = self.step(
            self._prior_weights, self._prior_rows, e, order
        )
        return conflicts[0], contours[0]

    def step(
        self,
        weights: np.ndarray,
        rows: np.ndarray,
        e: np.ndarray,
        order: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Conflicts and next contours of the passes mixing ``rows`` under ``weights``.

        ``weights`` is (passes x rows) and ``rows`` (rows x N) consonant
        contours.  Taken in the descending ``order`` of ``e``, rectangle
        k adds the alpha-strip ``(max_{l<k} P_il, P_ik]`` at height
        ``e_k``, so ``strips @ e_sorted`` is each row's union area.
        """
        e_sorted = e[order]
        reach = np.maximum.accumulate(rows[:, order], axis=1)
        strips = _increments(reach)
        conflicts = weights @ (1.0 - strips @ e_sorted)
        if self.rule == "dubois_prade":
            transfer = _dubois_prade_rows(rows, e, e_sorted, reach, strips)
            return conflicts, weights @ transfer
        contours = (weights @ rows) * e
        if self.rule == "yager":
            contours += conflicts[:, None]
        else:
            # model breakdown: keep monitoring from total ignorance
            contours[conflicts >= 1.0 - _TOTAL_CONFLICT_EPS] = 1.0
        return conflicts, contours


def _increments(a: np.ndarray) -> np.ndarray:
    """Steps along the last axis, the first one taken from 0."""
    out = a.copy()
    out[..., 1:] -= a[..., :-1]
    return out


def _dubois_prade_rows(rows, e, e_sorted, reach, strips) -> np.ndarray:
    """Contour each row leaves once every disjoint pair of cuts moves to its union.

    ``D_ij = P_ij e_j + Pr(disjoint, a <= P_ij) + Pr(disjoint, b <= e_j)
    + (1 - max_k P_ik)(1 - max e)``; the last term is the pair of empty
    cuts, whose union is empty and moves to the whole frame.
    """
    # union area left of a = P_ij, and below b = e_j
    left = _increments(np.minimum(reach[:, None, :], rows[:, :, None])) @ e_sorted
    below = strips @ np.minimum(e_sorted[:, None], e)
    both_empty = np.outer(1.0 - reach[:, -1], 1.0 - e_sorted[0])
    return rows * e + (rows - left) + (e - below) + both_empty


# ---------------------------------------------------------------------------
# sliding-window evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepResult:
    index: int
    timestamp: float
    conflict: float
    step_effectiveness: float
    reset: bool = False


@dataclass(frozen=True)
class WindowResult:
    start: int
    end: int
    end_timestamp: float
    length: int
    value: float


@dataclass(frozen=True)
class EffectivenessReport:
    """Per-step conflict series of the whole trace plus windowed products."""

    steps: tuple[StepResult, ...]
    windows: tuple[WindowResult, ...]
    window_len: int
    stride: int
    rule: str

    @property
    def overall(self) -> float:
        return effectiveness([s.conflict for s in self.steps])

    @property
    def breach_steps(self) -> tuple[int, ...]:
        return tuple(
            s.index for s in self.steps if s.conflict >= 1.0 - _TOTAL_CONFLICT_EPS
        )


def sliding_effectiveness(
    trace: Sequence[TraceRecord],
    model: EvIohmm,
    window_len: int = 10,
    stride: int = 1,
    *,
    engine: str = "fast",
) -> EffectivenessReport:
    """Windowed effectiveness: every window restarts the forward pass.

    The report carries one step row per record (conflicts of the single
    full-trace pass) and one windowed product per window position; each
    windowed value is the product of that window's own step
    effectivenesses, cross-checked at emission time.
    """
    if window_len < 1:
        raise ValueError(f"window length must be >= 1, got {window_len}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if len(trace) < window_len:
        raise TraceTooShort(
            f"trace of {len(trace)} records is shorter than one window of {window_len}"
        )
    if engine == "fast":
        full_conflicts, full_resets, window_logs = _windows_fast(
            trace, model, window_len, stride
        )
    elif engine == "reference":
        full_conflicts, full_resets, window_logs = _windows_reference(
            trace, model, window_len, stride
        )
    else:
        raise ValueError(f"unknown engine {engine!r}")

    reset_set = set(full_resets)
    steps = tuple(
        StepResult(i, trace[i].timestamp, c, 1.0 - c, i in reset_set)
        for i, c in enumerate(full_conflicts)
    )
    windows = []
    for start, conflicts in window_logs:
        value = effectiveness(conflicts)
        check = math.prod(1.0 - c for c in conflicts)
        if abs(value - check) > 1e-12:
            raise AssertionError(
                f"window product mismatch at start={start}: {value} vs {check}"
            )
        end = start + window_len - 1
        windows.append(
            WindowResult(start, end, trace[end].timestamp, window_len, value)
        )
    return EffectivenessReport(steps, tuple(windows), window_len, stride, model.rule)


def _windows_fast(trace, model, window_len, stride):
    """Time-major sweep advancing one stack of contours per record.

    Row 0 of the stack is the full pass and every open window adds a row,
    oldest first; windows share one length, so they close in that order.
    """
    eng = ContourEngine(model)
    last_start = len(trace) - window_len
    logs: list[list[float]] = []  # one conflict log per row of the stack
    finished: list[tuple[int, list[float]]] = []
    for t, rec in enumerate(trace):
        rows, e, order = eng.record(rec)
        if t:
            weights = stack / stack.sum(axis=1, keepdims=True)
            conflicts, stack = eng.step(weights, rows, e, order)
            for log, conflict in zip(logs, map(_clip_unit, conflicts.tolist())):
                log.append(conflict)
        if t <= last_start and t % stride == 0:
            conflict, contour = eng.start(e, order)
            conflict = _clip_unit(conflict)
            if t == 0:  # the full pass starts with the first window
                logs.append([conflict])
                stack = contour[None, :]
            logs.append([conflict])
            stack = np.vstack((stack, contour))
        if len(logs) > 1 and len(logs[1]) == window_len:
            finished.append((t + 1 - window_len, logs.pop(1)))
            stack = np.delete(stack, 1, axis=0)
    resets = [t for t, c in enumerate(logs[0]) if c >= 1.0 - _TOTAL_CONFLICT_EPS]
    return logs[0], resets if model.rule == "dempster" else [], finished


def _windows_reference(trace, model, window_len, stride):
    def one(start, length):
        state = forward_init(model, trace[start].outputs)
        for rec in trace[start + 1 : start + length]:
            state = forward_step(state, model, rec.inputs, rec.outputs)
        return state

    full = one(0, len(trace))
    window_logs = [
        (start, list(one(start, window_len).conflict_log))
        for start in range(0, len(trace) - window_len + 1, stride)
    ]
    return list(full.conflict_log), list(full.resets), window_logs
