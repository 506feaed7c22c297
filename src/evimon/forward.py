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
area of a union of rectangles, and the windows ready at once advance
together as one stack of contours.  Both paths agree to float
precision.  A pass's conflict and the total that normalizes its weights
are two columns of one product, which add the same terms in the same
order, so a step whose weighted rows all conflict totally reads exactly
1, not 1 - 2**-53.

Cost of the fast path.  What a step reads from the records alone is one
map ``M_t`` per record, (N + 1) x (N + 3), the rule folded in so that a
step is linear in the contour up to scale (see ``ContourEngine._maps``).
The maps are computed a block of records at a time, in parts of at most
half a block, over views of the trace's columns: each distinct
(variable, curve) pair once a part, then one cut of the N arc rows and
the F rows of a prior of F focal sets, O((N + F) * N) work per record
(O((N + F) * N**2) under Dubois-Prade) in a number of numpy calls the
model sets.  A pass writes each block's maps into one buffer, after the
last W - 1 maps before it, and frees a part's arrays before the next
part and the block's scan arrays before the next block, so it holds
under 2.7 times the bytes of one block's maps, which ``_BLOCK_CELLS``
bounds.  The full pass scans each block of B maps in place, in
speculative chunks of 16 records, each but the first started 12 records
early from the start row and checked bit for bit at its seam (see
``_scan``): about 28 batched steps per block, not B (B in a block of one
chunk).  A block whose seams do not agree, on a model that does not
forget, takes the product-carried scan ``_carry`` on top: 2L + C
iterations for C = ceil(B / L) chunks of L = isqrt(B) records.  A window
over an exact breach, a record whose map conflicts totally on every row,
is exactly 0 and never advances; the other windows that end in a block
advance together over the same buffer, W steps per block, each step
multiplying their running products, so no window keeps its W conflicts.
A step is O(N**2) per pass; with few states its small numpy calls, not
the arithmetic, are the cost.  The report is arrays, and its row objects
are built on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .belief import (
    _TOTAL_CONFLICT_EPS,
    MassFunction,
    combine_conjunctive,
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
from .possibility import Constraint, ConstraintVector, constant, evaluate_column
from .trace import Trace, TraceRecord

_CONTOUR_EPS = 1e-15
# cells of a block's maps (records x rows x N + 3, rows = N + 1 or focal
# sets): a pass holds one such buffer, plus W - 1 maps, and arrays of half
# a block at a time.  The scan's numpy calls per record fall as one over
# a block (one over its square root where it falls back to ``_carry``),
# and windows take W steps a block
_BLOCK_CELLS = 1 << 16
# the full pass's chunks of records, each but the first started this many
# records early from the start row (see ``_scan``); _WARM <= _SPAN
_SPAN, _WARM = 16, 12


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
    """Mixture of the conditional rows' masses under the prior's weights.

    Mixing is linear, so this is also the mixture of their commonalities.
    """
    weights = conditioning_weights(prior)
    masses = np.zeros(rows.frame.n_subsets)
    for mask in np.flatnonzero(weights):
        masses += weights[mask] * rows.row(int(mask)).masses
    return MassFunction(rows.frame, masses)


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
    return float(np.prod(1.0 - np.asarray(conflict_log, dtype=float)))


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
    so each pass is an N-vector, plus a weight on the start row through
    which the prior enters (a mixture of crisp rows, one per focal set),
    and a stack of passes advances in one matrix product.

    Everything but that product depends on the records alone, so
    :meth:`_maps` computes it ahead, a block of records at a time.  An
    engine holds no state of a trace.
    """

    def __init__(self, model: EvIohmm):
        self.rule = model.rule
        n = model.frame.size
        focal = np.flatnonzero(model.prior.masses)
        self._masses = model.prior.masses[focal]
        # the prior's focal sets as crisp rows of constant vectors, after the arcs
        crisp = [ConstraintVector([Constraint("_", constant(b))]) for b in (0.0, 1.0)]
        rows = [cv for row in model.transitions for cv in row]
        rows += [crisp[f >> k & 1] for f in focal.tolist() for k in range(n)]
        self._rows = _Curves(rows, (n + len(focal), n))
        self._emissions = _Curves(model.emissions, (n,))
        self._model = model  # whose scalar path locates a bad observation
        self._block = max(1, _BLOCK_CELLS // ((n + 3) * max(n + 1, len(focal))))
        self.start = np.eye(1, n + 1, n)

    def _maps(self, block: Trace, skip, maps) -> None:
        """Write the maps ``M_t`` of a block of records into ``maps`` (records x
        N + 1 x N + 3), in parts of at most half a block, freed in turn.

        A map's rows are the N arc rows from the previous record (ones at
        record 0, whose inputs gate nothing; no live pass weighs them) and
        the start row, the prior's F crisp rows mixed by its masses.  A
        part's N + F rows are cut together by :meth:`_cuts`, straight into
        the maps when the prior is one focal set of mass exactly 1.
        """
        n, half = maps.shape[1] - 1, -(-self._block // 2)
        mixed = self._masses.tolist() != [1.0]
        for first in range(0, len(block), half):
            part, out = block[first : first + half], maps[first : first + half]
            size, skip = len(part), skip if first == 0 else 0
            inputs, outputs = self._read(part, skip)
            e = self._emissions.values(outputs, size)
            cuts = np.empty((size, n + len(self._masses), n + 3)) if mixed else out
            self._cuts(self._rows.values(inputs, size, skip), e, cuts)
            if mixed:
                out[:, :n] = cuts[:, :n]
                np.matmul(self._masses, cuts[:, n:], out=out[:, n])
            out[:skip, :n] = 1.0
            del e, cuts  # before the next part's arrays

    def _read(self, block: Trace, skip) -> tuple[dict, dict]:
        """Input (from record ``skip`` on) and output columns of a block.

        A missing or non-finite observation fails as the scalar path fails
        on the first record that has one: with the same error, variable
        and arc or state.
        """
        absent = np.full(len(block), np.nan)  # a column the trace lacks
        inputs = {v: block.inputs.get(v, absent)[skip:] for v in self._rows.variables}
        outputs = {v: block.outputs.get(v, absent) for v in self._emissions.variables}
        if all(np.isfinite(c).all() for c in [*inputs.values(), *outputs.values()]):
            return inputs, outputs
        for i, rec in enumerate(block):
            if i >= skip:
                self._model.transition_possibilities(rec.inputs)
            self._model.emission_possibilities(rec.outputs)
        raise AssertionError("a block failed to read, but none of its records")

    def _cuts(self, rows, e, out) -> None:
        """Write the rows of ``M_t`` of a block of rows into ``out``.

        ``rows`` is (records x rows x N) consonant contours, which are
        overwritten, and ``out`` (records x rows x N + 3).  Taken in the
        descending order of ``e``, rectangle k adds the alpha-strip
        ``(max_{l<k} P_il, P_ik]`` at height ``e_k``, so ``strips @
        e_sorted`` is each row's union area, and one minus it the row's
        conflict.  A row holds what it sends to the next contour under the
        rule, so that a step is one linear map (``P_i * e`` under Dempster,
        the same plus the conflict on every state under Yager, the
        Dubois-Prade contour of the row), then 0 (nothing flows back to the
        start row), its conflict and 1.
        """
        n = e.shape[1]
        out[..., n] = 0.0
        out[..., n + 2] = 1.0
        if self.rule == "dubois_prade":  # held where the transfer goes last
            reach = out[..., :n]
        else:  # the transfer first, then the rows are sorted in place
            np.multiply(rows, e[:, None, :], out=out[..., :n])
            reach = rows
        order = (-e).argsort(axis=1)
        e_sorted = np.take_along_axis(e, order, axis=1)
        _gather(rows, order, reach)
        del order
        for k in range(1, n):  # a running max, a column at a time
            np.maximum(reach[..., k - 1], reach[..., k], out=reach[..., k])
        if self.rule == "dubois_prade":
            _dubois_prade_rows(rows, e, e_sorted, out)
            return
        for k in range(n - 1, 0, -1):  # then its strips, from the last
            np.subtract(reach[..., k], reach[..., k - 1], out=reach[..., k])
        np.subtract(1.0, (reach @ e_sorted[:, :, None])[..., 0], out=out[..., n + 1])
        if self.rule == "yager":
            out[..., :n] += out[..., n + 1, None]

    def step(self, stack, maps) -> tuple[np.ndarray, np.ndarray]:
        """Conflicts and next stack of a stack of passes.

        ``stack`` is (passes x N + 1) and ``maps`` one ``M_t`` or one per
        pass; a pass mixes its map's rows by its entries, which need not sum
        to 1.  Its conflict and total add the same terms in the same order:
        if its weighted rows all conflict totally, it reads exactly 1.
        """
        out = (stack[:, None, :] @ maps)[:, 0]
        conflicts = out[:, -2] / out[:, -1]
        stack = out[:, :-2] / out[:, -1:]
        if self.rule == "dempster":
            # model breakdown: keep monitoring from total ignorance
            stack[conflicts >= 1.0 - _TOTAL_CONFLICT_EPS, :-1] = 1.0
        return conflicts, stack


class _Curves:
    """Constraint vectors, in an array of ``shape``, over columns of
    observations: each distinct (variable, curve) pair of their active
    entries is one column of a table, a constant's filled with its level and
    any other's read once, and each distinct vector is the minimum of its
    entries' columns."""

    def __init__(self, vectors: Sequence[ConstraintVector], shape):
        distinct: dict[ConstraintVector, int] = {}
        slots = [distinct.setdefault(cv, len(distinct)) for cv in vectors]
        self._slots = np.reshape(slots, shape)
        keys: dict[tuple, int] = {}
        actives = ([e for e in cv.entries if not e.inhibited] for cv in distinct)
        members = [
            [keys.setdefault((e.variable, e.distribution), len(keys)) for e in active]
            for active in actives
        ]
        width = max(map(len, members))  # padded by a repeat, which min ignores
        self._members = np.array([m + m[:1] * (width - len(m)) for m in members]).T
        levels = [d.params[0] if d.kind == "constant" else 1.0 for _, d in keys]
        self._fill = np.array([levels])  # a read column's 1 until it is read
        self._reads = [(j, v, d) for (v, d), j in keys.items() if d.kind != "constant"]
        self.variables = sorted({v for _, v, _ in self._reads})

    def values(self, columns: dict[str, np.ndarray], size: int, skip=0) -> np.ndarray:
        """Values (records x shape) of ``size`` records whose ``columns`` start
        at record ``skip`` (each curve reads 1 before it), C-contiguous: matrix
        products over strided operands may round differently."""
        table = self._fill.repeat(size, 0)
        for j, variable, dist in self._reads:
            table[skip:, j] = evaluate_column(dist, columns[variable])
        fused = np.take(table, self._members, axis=1).min(axis=1)
        return np.take(fused, self._slots, axis=1)


def _gather(rows: np.ndarray, order: np.ndarray, out: np.ndarray) -> None:
    """Write ``rows`` (records x rows x N) with each record's last axis
    taken in its ``order`` (records x N) into ``out``, which may be
    ``rows``: a row at a time, by one flat index of (records x N)."""
    count, width, n = rows.shape
    index = order + np.arange(0, count * width * n, width * n)[:, None]
    flat = rows.reshape(-1)
    for i in range(width):
        out[:, i] = np.take(flat[i * n :], index)


def _dubois_prade_rows(rows, e, e_sorted, out) -> None:
    """Write each row's Dubois-Prade contour, the contour it leaves once
    every disjoint pair of cuts moves to its union, and its conflict into
    ``out``, whose transfer columns hold the running max of each sorted row.

    ``D_ij = P_ij e_j + Pr(disjoint, a <= P_ij) + Pr(disjoint, b <= e_j)
    + (1 - max_k P_ik)(1 - max e)``; the last term is the pair of empty
    cuts, whose union is empty and moves to the whole frame.  Each row of
    ``rows`` becomes its first two terms, and each running max its strips.
    """
    n = e.shape[1]
    reach = out[..., :n]
    both_empty = (1.0 - reach[:, :, -1:]) * (1.0 - e_sorted[:, None, :1])
    # the union area left of a = P_ij, a row at a time to bound the memory.
    # Strip k of the cut at P_ij, the increment of min(reach_k, P_ij), is
    # P_ij - reach_(k-1) clipped to [0, strip k], with reach_(-1) = 0
    before, strips = np.zeros((len(e), n)), np.empty((len(e), n))
    for i in range(rows.shape[1]):
        before[:, 1:] = reach[:, i, :-1]
        np.subtract(reach[:, i], before, out=strips)
        cut = np.subtract(rows[:, i, :, None], before[:, None, :])
        np.clip(cut, 0.0, strips[:, None, :], out=cut)
        left = (cut @ e_sorted[:, :, None])[..., 0]
        del cut
        # P_ij e_j + (P_ij - left) joins the sum, in either order
        np.subtract(rows[:, i], left, out=left)
        left += rows[:, i] * e
        rows[:, i], reach[:, i] = left, strips
    np.subtract(1.0, (reach @ e_sorted[:, :, None])[..., 0], out=out[..., n + 1])
    # the union area below b = e_j, Pr(disjoint, b <= e_j) = e_j - below
    below = reach @ np.minimum(e_sorted[:, :, None], e[:, None, :])
    np.subtract(e[:, None, :], below, out=below)
    np.add(rows, below, out=reach)
    reach += both_empty


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


@dataclass(frozen=True, eq=False)
class EffectivenessReport:
    """Arrays of the full pass's conflicts and resets, and the window values.

    Window k covers the W records from ``k * stride``.  ``steps`` and
    ``windows`` build their row objects on first read.
    """

    timestamps: np.ndarray
    conflicts: np.ndarray
    resets: np.ndarray
    values: np.ndarray
    window_len: int
    stride: int
    rule: str

    @property
    def overall(self) -> float:
        return effectiveness(self.conflicts)

    @property
    def breach_steps(self) -> tuple[int, ...]:
        return tuple(
            np.flatnonzero(self.conflicts >= 1.0 - _TOTAL_CONFLICT_EPS).tolist()
        )

    @cached_property
    def steps(self) -> tuple[StepResult, ...]:
        reset = np.isin(np.arange(len(self.conflicts)), self.resets).tolist()
        rows = zip(self.timestamps.tolist(), self.conflicts.tolist(), reset)
        return tuple(
            StepResult(i, t, c, 1.0 - c, r) for i, (t, c, r) in enumerate(rows)
        )

    @cached_property
    def windows(self) -> tuple[WindowResult, ...]:
        w, times = self.window_len, self.timestamps.tolist()
        starts = range(0, len(times), self.stride)
        return tuple(
            WindowResult(s, s + w - 1, times[s + w - 1], w, value)
            for s, value in zip(starts, self.values.tolist())
        )


def windows_ending(first: int, stop: int, window_len: int, stride: int) -> range:
    """The windows whose last record lies in records ``[first, stop)``, for
    ``stop`` up to the trace's length: window k ends at ``k * stride + W - 1``."""
    bounds = [max(0, -((window_len - 1 - t) // stride)) for t in (first, stop)]
    return range(*bounds)


def sliding_effectiveness(
    trace: Trace | Sequence[TraceRecord],
    model: EvIohmm,
    window_len: int = 10,
    stride: int = 1,
    *,
    engine: str = "fast",
) -> EffectivenessReport:
    """Windowed effectiveness: every window restarts the forward pass.

    Each window's value is the product of (1 - conflict) over its own W
    steps, as the engine returns it.  Records not given as a
    :class:`Trace` are read into one first.
    """
    if window_len < 1:
        raise ValueError(f"window length must be >= 1, got {window_len}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    trace = Trace.from_records(trace)
    if len(trace) < window_len:
        raise TraceTooShort(
            f"trace of {len(trace)} records is shorter than one window of {window_len}"
        )
    engines = {"fast": _windows_fast, "reference": _windows_reference}
    if engine not in engines:
        raise ValueError(f"unknown engine {engine!r}")
    conflicts, resets, values = engines[engine](trace, model, window_len, stride)
    return EffectivenessReport(
        trace.timestamps, conflicts, resets, values, window_len, stride, model.rule
    )


def _scan(eng, maps, size, state) -> tuple[np.ndarray, np.ndarray]:
    """Conflicts of the first ``size`` maps and the state after them, from
    ``state``: unless it falls back, a record-by-record pass's from
    ``state``, bit for bit, so the whole pass's wherever no earlier block
    fell back.

    A speculative scan in chunks of ``_SPAN`` records.  Chunk 0 starts from
    ``state``, every other chunk from the start row ``_WARM`` records before
    its first, as a window would; then all chunks step together.  A pass
    forgets where it started, so within a few records the early start holds
    the true pass's bits.  The scan is kept if every chunk's stack at its
    first record has the bits of its predecessor's end stack: every chunk
    then steps from the true pass's stack.  If any seam fails, ``_carry``
    scans the block.  The chunks' grid reaches past the block, but the
    last chunk stops at the block's end (an identity pad would divide its
    stack by its sum): no map after it is read.
    """
    if size <= _SPAN:  # one chunk, with no seam to check
        conflicts, state = _advance(eng, state, size, lambda j: maps[j : j + 1])
        return conflicts[0], state
    count = -(-size // _SPAN)
    cut = size - (count - 1) * _SPAN  # records of the last chunk
    grid = maps[: count * _SPAN].reshape(count, _SPAN, *maps.shape[1:])
    warm = eng.start.repeat(count - 1, 0)
    warm = _advance(eng, warm, _WARM, lambda j: grid[:-1, j - _WARM])[1]
    firsts = np.concatenate([state, warm])
    conflicts = np.empty((count, _SPAN))
    conflicts[:, :cut], ends = _advance(eng, firsts, cut, lambda j: grid[:, j])
    conflicts[:-1, cut:], ends[:-1] = _advance(
        eng, ends[:-1], _SPAN - cut, lambda j: grid[:-1, cut + j]
    )
    # by their bits: 0.0 and -0.0 differ, and a NaN equals itself
    if (ends[:-1].view(np.uint64) != firsts[1:].view(np.uint64)).any():
        return _carry(eng, maps, size, state)
    return conflicts.reshape(-1)[:size], ends[-1:]


def _carry(eng, maps, size, state) -> tuple[np.ndarray, np.ndarray]:
    """Conflicts of the first ``size`` maps and the state after them, from
    ``state``, to float precision; identity maps after them pad the last
    chunk.  ``_scan`` falls back to it where its chunks' seams disagree.

    A chunked scan of ``A_t = M_t[:, :N + 1]``.  A step is ambiguous unless
    all its rows' conflicts lie eps/2 or more above Dempster's threshold,
    where it resets for every state (rows ``[1...1, 0]`` overwrite ``A_t``),
    or all as far below.  The chunks' products are taken together, each
    row rescaled to a max of 1 and its log scale kept; a walk over the
    chunk boundaries carries the state, record by record through a chunk
    with an ambiguous step; then all chunks advance from their starts.
    """
    rows, cols = maps.shape[1:]
    span = math.isqrt(size)
    count = -(-size // span)
    maps[size : count * span] = np.eye(rows, cols) + np.eye(1, cols, cols - 1)
    grid = maps[: count * span].reshape(count, span, rows, cols)
    chunks, exact = grid[..., :rows], np.zeros(count, bool)
    if eng.rule == "dempster":
        # rounding is monotone: the least margin is the least conflict's
        conflicts, threshold = grid[..., -2], 1.0 - _TOTAL_CONFLICT_EPS
        always = conflicts.min(2) - threshold >= _TOTAL_CONFLICT_EPS / 2
        near = conflicts.max(2) - threshold > -_TOTAL_CONFLICT_EPS / 2
        exact = (~always & near).any(1)
        # in place: later reads go through ``eng.step``, which resets there
        # anyway, and the windows' breach test reads only the last two columns
        chunks[always] = 1.0 - np.eye(1, rows, rows - 1)
    # two buffers taken in turn, chunks last in memory: the max and the
    # divide below loop over the chunks, not over a row's N + 1 entries
    pair = np.empty((2, rows, rows, count)).transpose(0, 3, 1, 2)
    products, logs = np.eye(rows), np.zeros((count, rows))
    for j in range(span):
        products = np.matmul(products, chunks[:, j], out=pair[j % 2])
        scale = products.max(2)
        live = scale > 0  # a row that is exactly 0 stays 0
        np.divide(products, scale[..., None], out=products, where=live[..., None])
        logs += np.log(scale, out=np.full_like(scale, -np.inf), where=live)
    starts = np.empty((count, rows))
    for c in range(count):
        starts[c] = state
        if exact[c]:
            state = _advance(eng, state, span, lambda j: grid[c, j : j + 1])[1]
        else:  # rescale by the largest row the state weighs, not by all
            logw = np.log(state, out=np.full_like(state, -np.inf), where=state > 0)
            logw += logs[c]
            state = np.exp(logw - logw.max()) @ products[c]
    conflicts = _advance(eng, starts, span, lambda j: grid[:, j])[0]
    return conflicts.reshape(-1)[:size], state


def _advance(eng, stack, steps, operand):
    """Conflicts (passes x steps) and end stack of passes; step j takes
    ``operand(j)``, a map per pass."""
    log = np.empty((len(stack), steps))
    for j in range(steps):
        log[:, j], stack = eng.step(stack, operand(j))
    return np.clip(log, 0.0, 1.0, out=log), stack


def _products(eng, count, steps, operand):
    """Values of ``count`` windows from the start row; step j takes ``operand(j)``.

    A running product, in the order ``np.prod`` would take the factors."""
    stack, values = eng.start.repeat(count, 0), np.ones(count)
    for j in range(steps):
        conflicts, stack = eng.step(stack, operand(j))
        values *= 1.0 - np.clip(conflicts, 0.0, 1.0)
    return values


def _windows_fast(trace, model, window_len, stride):
    """The full pass, and the window values, over one buffer of maps.

    Each block's maps are written after the last W - 1 maps before it, and
    scanned there.  The windows that end in the block start on the start
    row and take W steps together over the buffer, each step a strided
    view of it, or gathered by their first maps when a window holds an
    exact breach: a record whose rows all conflict totally (conflict and
    total columns equal) reads 1 there from any stack, so the window is 0.
    The last W - 1 maps move to the front only once they shift: a window
    as long as the trace moves none.
    """
    eng = ContourEngine(model)
    n, tail = model.frame.size, window_len - 1
    room = min(len(trace), tail + eng._block) + max(math.isqrt(eng._block), _SPAN)
    maps = np.empty((room, n + 1, n + 3))
    flat, width = maps.reshape(-1), (n + 1) * (n + 3)
    conflicts, state, held = np.empty(len(trace)), eng.start, 0
    values = np.zeros(len(windows_ending(0, len(trace), window_len, stride)))
    for first in range(0, len(trace), eng._block):
        if held > tail:  # a flat view moves in place; 3-d views overlap by a copy
            flat[: tail * width] = flat[(held - tail) * width : held * width]
            held = tail
        block = trace[first : first + eng._block]
        size, base = len(block), first - held
        eng._maps(block, int(first == 0), maps[held : held + size])
        conflicts[first : first + size], state = _scan(eng, maps[held:], size, state)
        held += size
        ends = windows_ending(first, first + size, window_len, stride)
        if not ends:
            continue
        k, s = len(ends), ends.start * stride - base
        starts = np.arange(k) * stride  # from map s
        span = maps[s : s + starts[-1] + window_len]
        seen = np.zeros(len(span) + 1, int)  # breaches before each map
        np.cumsum((span[:, :, -2] == span[:, :, -1]).all(1), out=seen[1:])
        live = seen[starts + window_len] == seen[starts]
        batch = values[ends.start : ends.stop]
        if live.all():
            batch[:] = _products(
                eng, k, window_len, lambda j: maps[s + j :: stride][:k]
            )
        elif live.any():
            firsts = s + starts[live]
            batch[live] = _products(
                eng, len(firsts), window_len, lambda j: maps[firsts + j]
            )
    resets = np.flatnonzero(conflicts >= 1.0 - _TOTAL_CONFLICT_EPS)
    if model.rule != "dempster":
        resets = resets[:0]
    return conflicts, resets, values


def _windows_reference(trace, model, window_len, stride):
    full = run_forward(model, trace)
    values = [
        effectiveness(run_forward(model, trace[s : s + window_len]).conflict_log)
        for s in range(0, len(trace) - window_len + 1, stride)
    ]
    return np.array(full.conflict_log), np.array(full.resets, int), np.array(values)
