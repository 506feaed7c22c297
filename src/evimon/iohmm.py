"""Evidential input/output hidden Markov models over tolerance curves.

A model couples a frame of system states with one constraint vector per
ordered state pair (transition tolerances over the input variables,
possibly inhibited per arc) and one constraint vector per state
(emission tolerances over the output variables).  Evaluating the
transition table on an input observation yields one consonant BBA per
source state; conditioning on arbitrary state subsets extends those
rows disjunctively, with the empty-set row pinned to the empty-set
categorical.

The all-crisp reduction is also provided: with every curve crisp, a
trace plus an expected state sequence either passes or fails exactly as
a unit test would, decided for one sequence or for the best of all by
one linear pass over the states a passing prefix reaches.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import Mapping, Sequence

import numpy as np

from .belief import (
    NORMALIZATION_RULES,
    Frame,
    MassFunction,
    categorical,
    combine_disjunctive,
    vacuous,
)
from .errors import EmptyLog, LengthMismatch, ValidationError
from .possibility import ConstraintVector, evaluate_constraint_vector, \
    singleton_possibilities_to_bba
from .trace import TraceRecord


@dataclass(frozen=True, eq=False)
class EvIohmm:
    """Model tuple: frame, transition tolerances, emission tolerances, prior, rule.

    The tables may be given as any sequences and are kept as tuples.  A
    ``None`` prior is the vacuous one, and ``None`` variables of a side
    are those its constraints read, sorted; declared ones must cover them.
    """

    frame: Frame
    transitions: tuple[tuple[ConstraintVector, ...], ...]
    emissions: tuple[ConstraintVector, ...]
    _: KW_ONLY
    prior: MassFunction | None = None
    rule: str = "dempster"
    input_variables: tuple[str, ...] | None = None
    output_variables: tuple[str, ...] | None = None
    name: str = ""

    def __post_init__(self):
        n = self.frame.size
        transitions = tuple(tuple(row) for row in self.transitions)
        emissions = tuple(self.emissions)
        if len(transitions) != n or any(len(row) != n for row in transitions):
            raise ValidationError(
                f"transition table must be {n}x{n} constraint vectors"
            )
        if len(emissions) != n:
            raise ValidationError(f"need one emission vector per state, got {len(emissions)}")
        if self.rule not in NORMALIZATION_RULES:
            raise ValidationError(f"unknown normalization rule {self.rule!r}")
        prior = vacuous(self.frame) if self.prior is None else self.prior
        if prior.frame != self.frame:
            raise ValidationError("prior is defined on a different frame")

        arcs = [cv for row in transitions for cv in row]
        inputs = _declared(arcs, self.input_variables, "transition", "inputs")
        outputs = _declared(emissions, self.output_variables, "emission", "outputs")
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "emissions", emissions)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "input_variables", inputs)
        object.__setattr__(self, "output_variables", outputs)

    @property
    def is_crisp(self) -> bool:
        cvs = [cv for row in self.transitions for cv in row] + list(self.emissions)
        return all(cv.is_crisp for cv in cvs)

    def transition_possibilities(self, inputs: Mapping[str, float]) -> np.ndarray:
        """N x N matrix of per-arc possibilities for one input observation."""
        n = self.frame.size
        out = np.empty((n, n))
        labels = self.frame.labels
        for i in range(n):
            for j in range(n):
                out[i, j] = evaluate_constraint_vector(
                    self.transitions[i][j],
                    inputs,
                    context=f"transition {labels[i]}->{labels[j]}",
                )
        return out

    def emission_possibilities(self, outputs: Mapping[str, float]) -> np.ndarray:
        labels = self.frame.labels
        return np.array(
            [
                evaluate_constraint_vector(
                    cv, outputs, context=f"emission of state {labels[j]}"
                )
                for j, cv in enumerate(self.emissions)
            ]
        )


def _declared(vectors, declared, side: str, kind: str) -> tuple[str, ...]:
    """Declared variables of one side, by default those its constraints read."""
    seen = {v for cv in vectors for v in cv.required_variables()}
    if declared is None:
        return tuple(sorted(seen))
    declared = tuple(declared)
    undeclared = seen - set(declared)
    if undeclared:
        raise ValidationError(
            f"{side} constraints reference undeclared {kind} {sorted(undeclared)}"
        )
    return declared


class ConditionalTransitionBBAs:
    """Transition beliefs conditional on every subset of previous states.

    Singleton rows come straight from the evaluated tolerance curves;
    the row for a larger subset is the disjunctive combination of its
    member singleton rows, and the empty-set row is the empty-set
    categorical.  Rows are materialized lazily: the forward pass only
    ever weights rows with nonzero conditioning mass.
    """

    def __init__(self, frame: Frame, singleton_rows: Sequence[MassFunction]):
        if len(singleton_rows) != frame.size:
            raise ValueError("need one row per state")
        for row in singleton_rows:
            if row.frame != frame:
                raise ValueError("row frame mismatch")
        self.frame = frame
        self.singleton_rows = tuple(singleton_rows)
        self._cache: dict[int, MassFunction] = {0: categorical(frame, 0)}
        for i, row in enumerate(singleton_rows):
            self._cache[1 << i] = row

    def row(self, subset) -> MassFunction:
        """Row conditional on a subset of previous states (labels or mask)."""
        mask = self.frame.mask_of(subset)
        got = self._cache.get(mask)
        if got is None:
            low = mask & -mask
            got = combine_disjunctive(self.row(mask ^ low), self._cache[low])
            self._cache[mask] = got
        return got

    @property
    def rows(self) -> dict[int, MassFunction]:
        """All 2**N rows, materialized."""
        return {mask: self.row(mask) for mask in range(self.frame.n_subsets)}


def build_transition_rows(
    model: EvIohmm, inputs: Mapping[str, float]
) -> ConditionalTransitionBBAs:
    """Evaluate the transition table on one input and lift rows to BBAs."""
    poss = model.transition_possibilities(inputs)
    rows = [
        singleton_possibilities_to_bba(model.frame, poss[i])
        for i in range(model.frame.size)
    ]
    return ConditionalTransitionBBAs(model.frame, rows)


def emission_bba(model: EvIohmm, outputs: Mapping[str, float]) -> MassFunction:
    """Belief over states given one output observation."""
    return singleton_possibilities_to_bba(
        model.frame, model.emission_possibilities(outputs)
    )


def deterministic_test(
    model: EvIohmm,
    expected_states: Sequence[str],
    trace: Sequence[TraceRecord],
) -> int:
    """PASS/FAIL unit test of a trace against an expected state sequence.

    Requires an all-crisp model.  Returns 1 iff the first output lies in
    the first expected state's zone and, for every later instant, the
    record's input lies in the crisp zone of the expected transition and
    its output in the crisp zone of the expected state.
    """
    if not model.is_crisp:
        raise ValidationError("deterministic test needs an all-crisp model")
    if len(expected_states) != len(trace):
        raise LengthMismatch(
            f"{len(expected_states)} expected states for {len(trace)} records"
        )
    idx = [model.frame.index(s) for s in expected_states]
    return _crisp_pass(model, trace, np.eye(model.frame.size, dtype=bool)[idx])


def best_deterministic_test(model: EvIohmm, trace: Sequence[TraceRecord]) -> int:
    """Deterministic test maximized over all expected state sequences."""
    if not model.is_crisp:
        raise ValidationError("deterministic test needs an all-crisp model")
    return _crisp_pass(model, trace, np.ones((len(trace), model.frame.size), bool))


def _crisp_pass(model: EvIohmm, trace, allowed: np.ndarray) -> int:
    """1 iff some state sequence allowed by ``allowed`` (records x N) passes.

    Keeps the states a passing prefix reaches: those whose emission is
    exactly 1, entered after record 0 by an arc of possibility exactly 1
    from a state kept on the record before, and stops once none is kept.
    """
    if len(trace) == 0:
        raise EmptyLog("a deterministic test of an empty trace is undefined")
    kept = allowed[0] & (model.emission_possibilities(trace[0].outputs) == 1.0)
    for t in range(1, len(trace)):
        if not kept.any():
            return 0
        arcs = model.transition_possibilities(trace[t].inputs) == 1.0
        emitted = model.emission_possibilities(trace[t].outputs) == 1.0
        kept = arcs[kept].any(0) & emitted & allowed[t]
    return int(kept.any())
