"""Parametric tolerance curves and their conversion to belief assignments.

A curve maps a scalar observation to a possibility in [0, 1].  The value
1 region is the zone of comfort, the strictly-between region the zone of
tolerance, and their union the zone of viability; outside it the curve
is 0.  Ramps and trapezoids encode graded tolerances, the crisp kinds
encode hard zone boundaries exactly (no degenerate ramps), and
``constant`` pins a fixed possibility (0 marks a forbidden transition).

Per-singleton possibilities become a consonant BBA whose focal sets are
the nested cuts of the sorted possibilities, the empty set carrying one
minus the best of them.  Per-singleton likelihoods, rescaled by their
maximum, become the separable BBA in which each state is in the set
with its likelihood, independently of the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .belief import Frame, MassFunction
from .errors import AllZeroLikelihood, MissingVariable

_PARAM_COUNT = {
    "ramp_up": 2,
    "ramp_down": 2,
    "trapezoid": 4,
    "crisp_above": 1,
    "crisp_below": 1,
    "crisp_interval": 2,
    "constant": 1,
}

DISTRIBUTION_KINDS = tuple(_PARAM_COUNT)


@dataclass(frozen=True)
class PossibilityDistribution:
    """One tolerance curve; build instances via the module constructors."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        if len(params) != _PARAM_COUNT[self.kind]:
            raise ValueError(
                f"{self.kind} takes {_PARAM_COUNT[self.kind]} parameters, got {params}"
            )
        if any(not math.isfinite(p) for p in params):
            raise ValueError(f"{self.kind} parameters must be finite: {params}")
        if self.kind in ("ramp_up", "ramp_down") and not params[0] < params[1]:
            raise ValueError(f"{self.kind} needs a < b, got {params}")
        if self.kind == "trapezoid":
            a, b, c, d = params
            if not (a <= b <= c <= d):
                raise ValueError(f"trapezoid needs a <= b <= c <= d, got {params}")
            if a == b == c == d:
                raise ValueError("trapezoid collapsed to a single point")
        if self.kind == "crisp_interval" and not params[0] <= params[1]:
            raise ValueError(f"crisp_interval needs lo <= hi, got {params}")
        if self.kind == "constant" and not 0.0 <= params[0] <= 1.0:
            raise ValueError(f"constant level must lie in [0, 1], got {params[0]}")

    def __call__(self, value: float) -> float:
        return evaluate(self, value)

    @property
    def is_crisp(self) -> bool:
        """True when the curve only ever takes the values 0 and 1."""
        if self.kind in ("crisp_above", "crisp_below", "crisp_interval"):
            return True
        return self.kind == "constant" and self.params[0] in (0.0, 1.0)


def ramp_up(a: float, b: float) -> PossibilityDistribution:
    """0 below ``a``, 1 above ``b``, linear in between."""
    return PossibilityDistribution("ramp_up", (a, b))


def ramp_down(a: float, b: float) -> PossibilityDistribution:
    """1 below ``a``, 0 above ``b``, linear in between."""
    return PossibilityDistribution("ramp_down", (a, b))


def trapezoid(a: float, b: float, c: float, d: float) -> PossibilityDistribution:
    """0 outside [a, d], 1 on [b, c], linear on the shoulders."""
    return PossibilityDistribution("trapezoid", (a, b, c, d))


def crisp_above(threshold: float) -> PossibilityDistribution:
    """1 strictly above the threshold, else 0."""
    return PossibilityDistribution("crisp_above", (threshold,))


def crisp_below(threshold: float) -> PossibilityDistribution:
    """1 strictly below the threshold, else 0."""
    return PossibilityDistribution("crisp_below", (threshold,))


def crisp_interval(lo: float, hi: float) -> PossibilityDistribution:
    """1 on the closed interval [lo, hi], else 0."""
    return PossibilityDistribution("crisp_interval", (lo, hi))


def constant(level: float) -> PossibilityDistribution:
    """The fixed possibility ``level`` whatever the observation."""
    return PossibilityDistribution("constant", (level,))


def evaluate(dist: PossibilityDistribution, value: float) -> float:
    """Evaluate one curve at a scalar observation.

    Ramp endpoints take their extreme values exactly (a ramp_down returns
    1.0 at ``a`` and 0.0 at ``b``); crisp thresholds follow the strict
    inequalities of their names.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"observation must be finite, got {value!r}")
    kind = dist.kind
    p = dist.params
    if kind == "ramp_up":
        a, b = p
        if value <= a:
            return 0.0
        if value >= b:
            return 1.0
        return (value - a) / (b - a)
    if kind == "ramp_down":
        a, b = p
        if value <= a:
            return 1.0
        if value >= b:
            return 0.0
        return (b - value) / (b - a)
    if kind == "trapezoid":
        a, b, c, d = p
        if value < a or value > d:
            return 0.0
        if value < b:
            return (value - a) / (b - a)
        if value <= c:
            return 1.0
        return (d - value) / (d - c)
    if kind == "crisp_above":
        return 1.0 if value > p[0] else 0.0
    if kind == "crisp_below":
        return 1.0 if value < p[0] else 0.0
    if kind == "crisp_interval":
        return 1.0 if p[0] <= value <= p[1] else 0.0
    return p[0]  # constant


def evaluate_column(dist: PossibilityDistribution, values: np.ndarray) -> np.ndarray:
    """Evaluate one curve over an array of finite observations.

    Elementwise equal to :func:`evaluate`.  A shoulder clamps the
    observation into its interval before the scalar form's division, so
    the division never overflows outside it, and a vertical shoulder
    (``a == b`` or ``c == d``) is a step, never a division by zero.
    """
    kind = dist.kind
    p = dist.params
    if kind == "ramp_up":
        return _rise(values, *p)
    if kind == "ramp_down":
        return _fall(values, *p)
    if kind == "trapezoid":
        a, b, c, d = p
        return np.minimum(_rise(values, a, b), _fall(values, c, d))
    if kind == "crisp_above":
        return (values > p[0]).astype(float)
    if kind == "crisp_below":
        return (values < p[0]).astype(float)
    if kind == "crisp_interval":
        return ((p[0] <= values) & (values <= p[1])).astype(float)
    return np.full(values.shape, p[0])  # constant


def _rise(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """0 up to ``a``, 1 from ``b`` on, ``(x - a) / (b - a)`` in between."""
    if a == b:
        return (x >= a).astype(float)
    return (np.minimum(np.maximum(x, a), b) - a) / (b - a)


def _fall(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """1 up to ``a``, 0 from ``b`` on, ``(b - x) / (b - a)`` in between."""
    if a == b:
        return (x <= b).astype(float)
    return (b - np.minimum(np.maximum(x, a), b)) / (b - a)


@dataclass(frozen=True)
class Constraint:
    """One variable's tolerance curve inside a constraint vector."""

    variable: str
    distribution: PossibilityDistribution
    inhibited: bool = False


@dataclass(frozen=True)
class ConstraintVector:
    """Conjunctive multivariate constraint: the minimum over member curves.

    Inhibited entries are carried for documentation but never evaluated,
    mirroring model arcs that ignore part of the input vector.
    """

    entries: tuple[Constraint, ...]

    def __init__(self, entries: Iterable[Constraint]):
        entries = tuple(entries)
        names = [e.variable for e in entries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable in constraint vector: {names}")
        if not any(not e.inhibited for e in entries):
            raise ValueError("constraint vector needs at least one active entry")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", hash(entries))

    def __hash__(self) -> int:  # hashed once: an engine keys its dicts by vector
        return self._hash

    def __reduce__(self):  # a str's hash differs between processes
        return ConstraintVector, (self.entries,)

    @classmethod
    def forbidden(cls) -> "ConstraintVector":
        """Constant-zero vector marking an impossible transition."""
        return cls((Constraint("_", constant(0.0)),))

    @property
    def is_forbidden(self) -> bool:
        active = [e for e in self.entries if not e.inhibited]
        return all(
            e.distribution.kind == "constant" and e.distribution.params[0] == 0.0
            for e in active
        )

    def required_variables(self) -> tuple[str, ...]:
        """Variables whose observation value is actually read."""
        return tuple(
            e.variable
            for e in self.entries
            if not e.inhibited and e.distribution.kind != "constant"
        )

    @property
    def is_crisp(self) -> bool:
        return all(e.distribution.is_crisp for e in self.entries if not e.inhibited)

    def __call__(self, observation: Mapping[str, float]) -> float:
        return evaluate_constraint_vector(self, observation)


def evaluate_constraint_vector(
    cv: ConstraintVector, observation: Mapping[str, float], *, context: str = ""
) -> float:
    """Fuse the vector's active curves by minimum over the observation."""
    result = 1.0
    for entry in cv.entries:
        if entry.inhibited:
            continue
        if entry.distribution.kind == "constant":
            value = 0.0  # never read
        else:
            try:
                value = observation[entry.variable]
            except KeyError:
                raise MissingVariable(entry.variable, context) from None
        result = min(result, evaluate(entry.distribution, value))
    return result


def singleton_possibilities_to_bba(frame: Frame, poss: Sequence[float]) -> MassFunction:
    """Consonant BBA whose singleton plausibilities are the given possibilities.

    Its focal sets are the nested cuts: with the possibilities sorted
    descending, the k best states carry pi(k) - pi(k + 1) (pi(N + 1) = 0)
    and the empty set carries 1 - pi(1).
    """
    poss = [float(p) for p in poss]
    if any(not 0.0 <= p <= 1.0 for p in poss):
        raise ValueError(f"possibilities must lie in [0, 1], got {poss}")
    pi = np.asarray(poss)
    if pi.shape != (frame.size,):
        raise ValueError(
            f"expected {frame.size} singleton possibilities, got shape {pi.shape}"
        )
    order = np.argsort(-pi)
    levels = np.append(pi[order], 0.0)
    masses = np.zeros(frame.n_subsets)
    masses[np.cumsum(1 << order)] = levels[:-1] - levels[1:]  # distinct cuts
    masses[0] = 1.0 - levels[0]
    return MassFunction(frame, masses)


def singleton_likelihoods_to_bba(frame: Frame, likelihoods: Sequence[float]) -> MassFunction:
    """Separable BBA m(A) = prod_{i in A} L[i] * prod_{j not in A} (1 - L[j]).

    Raw likelihoods (e.g. density values) are first divided by their
    maximum, so that the commonality of a subset is the product of its
    members' rescaled likelihoods.
    """
    lik = np.asarray([float(v) for v in likelihoods], dtype=float)
    if lik.shape != (frame.size,):
        raise ValueError(
            f"expected {frame.size} singleton likelihoods, got shape {lik.shape}"
        )
    if (lik < 0.0).any():
        raise ValueError(f"likelihoods must be nonnegative, got {lik.tolist()}")
    top = float(lik.max())
    if top <= 0.0:
        raise AllZeroLikelihood("every singleton likelihood is zero")
    scaled = lik / top
    masses = np.ones(frame.n_subsets)
    for i in range(frame.size):
        v = masses.reshape(-1, 2, 1 << i)
        v[:, 0, :] *= 1.0 - scaled[i]
        v[:, 1, :] *= scaled[i]
    return MassFunction(frame, masses)


def normal_likelihood(value: float, mean: float, stddev: float) -> float:
    """Gaussian density helper for likelihood-style emissions."""
    if stddev <= 0.0:
        raise ValueError(f"stddev must be positive, got {stddev}")
    z = (value - mean) / stddev
    return math.exp(-0.5 * z * z) / (stddev * math.sqrt(2.0 * math.pi))
