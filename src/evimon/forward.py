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
precision.  A pass's conflict and the total that normalizes its weights
come from one product, of the stack with each row's conflict next to a
1: both sums add the same terms in the same order, so a step whose
weighted rows all conflict totally reads exactly 1, not 1 - 2**-53.

Cost of the fast path.  What a step reads from the records alone (the
curves, the arc and emission contours, and each row's conflict and
transfer row, into which the rule is folded so that a step is one
linear map of the contour, up to scale) is computed a block of records
at a time, each distinct constraint vector once per block over a column
of observations: O(N**2) work per record, O(N**3) under Dubois-Prade,
and per block a number of numpy calls set by the model alone.  Per
record the time loop then only maps a fixed stack of P <= 1 + ceil(W /
stride) passes, the full pass and a ring of window rows, in O(P * N**2)
and a handful of small numpy calls whatever the model; with few states
those calls, not the arithmetic, are the cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .belief import (
    _TOTAL_CONFLICT_EPS,
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
from .possibility import ConstraintVector, compile_constraint_vector
from .trace import TraceRecord

_CONTOUR_EPS = 1e-15
# cells of the largest array the engine computes for a block of records at
# once (records x rows x N): bounds the memory of the block arrays
_BLOCK_CELLS = 1 << 12


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

    Everything but that product depends on the records alone, so
    :meth:`sweep` computes it ahead, a block of records at a time, with
    each distinct constraint vector compiled once and evaluated over a
    column of observations.  An engine holds no state of a trace.
    """

    def __init__(self, model: EvIohmm):
        self.rule = model.rule
        n = model.frame.size
        arcs = [cv for row in model.transitions for cv in row]
        self._arcs = _Curves(arcs, "inputs", (n, n))
        self._emissions = _Curves(model.emissions, "outputs", (n,))
        self._model = model  # whose scalar path locates a bad observation
        masses = model.prior.masses
        focal = np.flatnonzero(masses)
        self.prior_weights = masses[focal][None, :]
        self._prior_rows = ((focal[:, None] >> np.arange(n)) & 1).astype(float)
        self._block = max(1, _BLOCK_CELLS // (n * max(n, len(focal))))

    def sweep(self, trace: Sequence[TraceRecord]) -> Iterator[tuple]:
        """Per record, the operands of :meth:`step` that the records fix.

        Yields ``(arc, start)``: ``arc`` advances the passes from the
        previous record (None at record 0, whose inputs gate nothing) and
        ``start`` starts a pass at the record.
        """
        for first in range(0, len(trace), self._block):
            records = trace[first : first + self._block]
            size = len(records)
            skip = int(first == 0)
            inputs, outputs = self._read(records, skip)
            e = self._emissions.values(outputs, size)
            prior = np.broadcast_to(self._prior_rows, (size, *self._prior_rows.shape))
            starts = zip(*self._cuts(prior, e))
            arcs = self._arcs.values(inputs, size - skip)
            if skip:
                yield None, next(starts)
            yield from zip(zip(*self._cuts(arcs, e[skip:])), starts)

    def _read(self, records, skip) -> tuple[dict, dict]:
        """Input (from record ``skip`` on) and output columns of a block.

        A missing or non-finite observation fails as the scalar path fails
        on the first record that has one: with the same error, variable
        and arc or state.
        """
        try:
            inputs = self._arcs.columns(records[skip:])
            outputs = self._emissions.columns(records)
            columns = [*inputs.values(), *outputs.values()]
            if all(np.isfinite(c).all() for c in columns):
                return inputs, outputs
        except KeyError:
            pass
        for i, rec in enumerate(records):
            if i >= skip:
                self._model.transition_possibilities(rec.inputs)
            self._model.emission_possibilities(rec.outputs)
        raise AssertionError("a block failed to read, but none of its records")

    def _cuts(self, rows, e) -> tuple[np.ndarray, np.ndarray]:
        """Per-row tallies and transfer rows of a block of rows against its emissions.

        ``rows`` is (records x rows x N) consonant contours.  Taken in the
        descending order of ``e``, rectangle k adds the alpha-strip
        ``(max_{l<k} P_il, P_ik]`` at height ``e_k``, so ``strips @ e_sorted``
        is each row's union area.  A row's tally is its conflict, one minus
        that area, next to a 1 (records x rows x 2).  Its transfer row is
        what it sends to the next contour under the rule, so that a step is
        one linear map: ``P_i * e`` under Dempster, the same plus the row's
        conflict on every state under Yager, and the Dubois-Prade contour
        of the row.
        """
        order = (-e).argsort(axis=1)
        e_sorted = np.take_along_axis(e, order, axis=1)
        reach = np.maximum.accumulate(
            np.take_along_axis(rows, order[:, None, :], axis=2), axis=2
        )
        strips = _increments(reach)
        area = strips @ e_sorted[:, :, None]
        tally = np.concatenate((1.0 - area, np.ones_like(area)), axis=2)
        if self.rule == "dubois_prade":
            return tally, _dubois_prade_rows(rows, e, e_sorted, reach, strips)
        transfer = rows * e[:, None, :]
        if self.rule == "yager":
            transfer += 1.0 - area
        return tally, transfer

    def step(
        self, stack: np.ndarray, tally: np.ndarray, transfer: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Conflicts and next contours of a stack of passes.

        ``stack`` is (passes x rows): each pass mixes the rows in proportion
        to its entries, which need not sum to 1.  ``tally`` and ``transfer``
        are one record's operands from :meth:`sweep`.
        """
        sums = stack @ tally
        conflicts = sums[:, 0] / sums[:, 1]
        contours = (stack / sums[:, 1:]) @ transfer
        if self.rule == "dempster":
            # model breakdown: keep monitoring from total ignorance
            contours[conflicts >= 1.0 - _TOTAL_CONFLICT_EPS] = 1.0
        return conflicts, contours


class _Curves:
    """The distinct constraint vectors of one side of a model, compiled."""

    def __init__(self, vectors: Sequence[ConstraintVector], side: str, shape):
        slots: dict[ConstraintVector, int] = {}
        self._slots = np.array(
            [slots.setdefault(cv, len(slots)) for cv in vectors]
        ).reshape(shape)
        self._compiled = [compile_constraint_vector(cv) for cv in slots]
        self._variables = sorted({v for cv in slots for v in cv.required_variables()})
        self._side = side

    def columns(self, records: Sequence[TraceRecord]) -> dict[str, np.ndarray]:
        """One column per variable read; KeyError when a record lacks one."""
        return {
            v: np.array([getattr(rec, self._side)[v] for rec in records], dtype=float)
            for v in self._variables
        }

    def values(self, columns: dict[str, np.ndarray], size: int) -> np.ndarray:
        """Values (records x shape), each distinct vector evaluated once.

        ``np.take`` lays them out C-contiguously: matrix products over
        strided operands may round differently.
        """
        distinct = np.stack([f(columns, size) for f in self._compiled], axis=1)
        return np.take(distinct, self._slots, axis=1)


def _increments(a: np.ndarray) -> np.ndarray:
    """Steps along the last axis, the first one taken from 0."""
    out = a.copy()
    out[..., 1:] -= a[..., :-1]
    return out


def _dubois_prade_rows(rows, e, e_sorted, reach, strips) -> np.ndarray:
    """Contour each row leaves once every disjoint pair of cuts moves to its union.

    ``D_ij = P_ij e_j + Pr(disjoint, a <= P_ij) + Pr(disjoint, b <= e_j)
    + (1 - max_k P_ik)(1 - max e)``; the last term is the pair of empty
    cuts, whose union is empty and moves to the whole frame.  Every
    operand carries a leading axis of records.
    """
    e = e[:, None, :]
    # union area left of a = P_ij (a row at a time, to bound the memory),
    # and below b = e_j
    left = np.stack([
        (
            _increments(np.minimum(reach[:, i, None, :], rows[:, i, :, None]))
            @ e_sorted[:, :, None]
        )[..., 0]
        for i in range(rows.shape[1])
    ], axis=1)
    below = strips @ np.minimum(e_sorted[:, :, None], e)
    both_empty = (1.0 - reach[:, :, -1:]) * (1.0 - e_sorted[:, None, :1])
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
    engines = {"fast": _windows_fast, "reference": _windows_reference}
    if engine not in engines:
        raise ValueError(f"unknown engine {engine!r}")
    full_conflicts, full_resets, window_logs = engines[engine](
        trace, model, window_len, stride
    )

    reset_set = set(full_resets)
    steps = tuple(
        StepResult(i, trace[i].timestamp, c, 1.0 - c, i in reset_set)
        for i, c in enumerate(np.asarray(full_conflicts).tolist())
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

    Row 0 of the stack is the full pass.  At most ``ring`` windows are open
    at once, so window k, which starts at record ``k * stride``, owns row
    ``1 + k % ring``: the window that owned it before has closed.  Every
    row advances on every record, and its conflicts fill one column of a
    (records x rows) matrix, from which each window's log is gathered.
    """
    eng = ContourEngine(model)
    starts = np.arange(0, len(trace) - window_len + 1, stride)
    ring = min(-(-window_len // stride), len(starts))
    conflicts = np.empty((len(trace), 1 + ring))
    # idle rows hold any contour that keeps their step finite
    stack = np.ones((1 + ring, model.frame.size))
    for t, (arc, start) in enumerate(eng.sweep(trace)):
        if t:
            conflicts[t], stack = eng.step(stack, *arc)
        if t % stride == 0 and t <= starts[-1]:
            # the full pass starts with the first window
            rows = [0, 1] if t == 0 else 1 + t // stride % ring
            first, contour = eng.step(eng.prior_weights, *start)
            conflicts[t, rows] = first[0]
            stack[rows] = contour[0]
    np.clip(conflicts, 0.0, 1.0, out=conflicts)
    full = conflicts[:, 0]
    resets = np.flatnonzero(full >= 1.0 - _TOTAL_CONFLICT_EPS).tolist()
    logs = conflicts[
        starts[:, None] + np.arange(window_len),
        1 + np.arange(len(starts))[:, None] % ring,
    ]
    windows = ((int(s), log.tolist()) for s, log in zip(starts, logs))
    return full, resets if model.rule == "dempster" else [], windows


def _windows_reference(trace, model, window_len, stride):
    full = run_forward(model, trace)
    window_logs = [
        (s, list(run_forward(model, trace[s : s + window_len]).conflict_log))
        for s in range(0, len(trace) - window_len + 1, stride)
    ]
    return list(full.conflict_log), list(full.resets), window_logs
