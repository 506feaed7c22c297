"""Exact belief-function algebra on a finite frame of discernment.

Masses, commonalities, plausibilities and beliefs are stored as dense
float arrays of length ``2**N`` indexed by subset bitmask: bit ``i`` of an
index marks the presence of state ``frame.labels[i]``, index 0 is the
empty set and index ``2**N - 1`` is the whole frame.  All transforms are
fast Mobius/zeta passes, so every operation is O(N * 2**N) or better and
frames are capped at ``N <= 20`` to keep the tables materializable.

The empty set may carry mass (open world); it quantifies the conflict
between combined sources.  Combination rules are the unnormalized
conjunctive rule (mass on set intersections, a pointwise product of
commonalities) and the unnormalized disjunctive rule (mass on unions, a
pointwise product of implicabilities).  Conflict redistribution is
available as Dempster rescaling, Yager transfer to the full frame, and
Dubois-Prade reassignment of each conflicting product to the union of
its operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import FrameMismatch, InvalidSetFunction, TotalConflict

MAX_FRAME_SIZE = 20

#: kinds a :class:`SetFunction` can take
SET_FUNCTION_KINDS = ("mass", "commonality", "plausibility", "belief")

#: conflict redistribution rules
NORMALIZATION_RULES = ("dempster", "yager", "dubois_prade")

_TOTAL_CONFLICT_EPS = 1e-12
_NEG_MASS_TOL = 1e-9
_SUM_TOL = 1e-6


# ---------------------------------------------------------------------------
# fast zeta / Mobius passes over the subset lattice
# ---------------------------------------------------------------------------

def _zeta_superset(values: np.ndarray) -> np.ndarray:
    """out[A] = sum over supersets B of A of values[B] (in place)."""
    n = values.size.bit_length() - 1
    for i in range(n):
        v = values.reshape(-1, 2, 1 << i)
        v[:, 0, :] += v[:, 1, :]
    return values


def _mobius_superset(values: np.ndarray) -> np.ndarray:
    n = values.size.bit_length() - 1
    for i in range(n):
        v = values.reshape(-1, 2, 1 << i)
        v[:, 0, :] -= v[:, 1, :]
    return values


def _zeta_subset(values: np.ndarray) -> np.ndarray:
    """out[A] = sum over subsets B of A of values[B] (in place)."""
    n = values.size.bit_length() - 1
    for i in range(n):
        v = values.reshape(-1, 2, 1 << i)
        v[:, 1, :] += v[:, 0, :]
    return values


def _mobius_subset(values: np.ndarray) -> np.ndarray:
    n = values.size.bit_length() - 1
    for i in range(n):
        v = values.reshape(-1, 2, 1 << i)
        v[:, 1, :] -= v[:, 0, :]
    return values


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """An ordered frame of discernment; each state owns one bit position."""

    labels: tuple[str, ...]

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise ValueError("frame needs at least one state")
        if len(labels) > MAX_FRAME_SIZE:
            raise ValueError(
                f"frame of {len(labels)} states exceeds the cap of {MAX_FRAME_SIZE}"
            )
        if any(not lab for lab in labels):
            raise ValueError("state labels must be non-empty")
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be unique")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def n_subsets(self) -> int:
        return 1 << len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown state {label!r}") from None

    def mask_of(self, subset: Iterable[str] | int) -> int:
        """Bitmask of a subset given as state labels (or passed through)."""
        if isinstance(subset, int):
            if not 0 <= subset < self.n_subsets:
                raise ValueError(f"mask {subset} out of range for frame of {self.size}")
            return subset
        mask = 0
        for label in subset:
            mask |= 1 << self.index(label)
        return mask

    def subset_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    def format_subset(self, mask: int) -> str:
        if mask == 0:
            return "{}"
        if mask == self.full_mask:
            return "OMEGA"
        return "{" + ",".join(self.subset_labels(mask)) + "}"


def _as_table(frame: Frame, values: np.ndarray | Iterable[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (frame.n_subsets,):
        raise ValueError(
            f"expected {frame.n_subsets} subset values for frame of {frame.size}, "
            f"got shape {arr.shape}"
        )
    return arr.copy()


@dataclass(frozen=True, eq=False)
class MassFunction:
    """A basic belief assignment: nonnegative masses over all subsets, summing to 1.

    Instances are immutable; the backing array is copied on construction
    and write-protected.  ``masses[0]`` is the mass on the empty set and
    may be positive (sub-normal BBA).
    """

    frame: Frame
    masses: np.ndarray = field(repr=False)

    def __init__(self, frame: Frame, masses: np.ndarray | Iterable[float]):
        arr = _as_table(frame, masses)
        neg = arr < 0.0
        if neg.any():
            worst = arr.min()
            if worst < -_NEG_MASS_TOL:
                raise ValueError(f"negative mass {worst:.3e}")
            arr[neg] = 0.0  # forgive sub-tolerance float dust
        total = float(arr.sum())
        if abs(total - 1.0) > _NEG_MASS_TOL:
            raise ValueError(f"masses sum to {total!r}, expected 1")
        arr.flags.writeable = False
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "masses", arr)

    @classmethod
    def from_dict(
        cls, frame: Frame, focal: Mapping[Iterable[str] | int, float]
    ) -> "MassFunction":
        arr = np.zeros(frame.n_subsets)
        for subset, value in focal.items():
            arr[frame.mask_of(subset)] += value
        return cls(frame, arr)

    def mass_of(self, subset: Iterable[str] | int) -> float:
        return float(self.masses[self.frame.mask_of(subset)])

    @property
    def conflict(self) -> float:
        """Mass committed to the empty set."""
        return float(self.masses[0])

    def focal_masks(self) -> list[int]:
        return [int(a) for a in np.flatnonzero(self.masses)]

    def is_vacuous(self, tol: float = 1e-12) -> bool:
        return abs(self.masses[self.frame.full_mask] - 1.0) <= tol

    def approx_equals(self, other: "MassFunction", tol: float = 1e-9) -> bool:
        return self.frame == other.frame and bool(
            np.allclose(self.masses, other.masses, atol=tol, rtol=0.0)
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{self.frame.format_subset(a)}: {self.masses[a]:.6g}"
            for a in self.focal_masks()
        )
        return f"MassFunction({parts or 'all zero'})"


@dataclass(frozen=True, eq=False)
class SetFunction:
    """A mass, commonality, plausibility or belief table over all subsets."""

    frame: Frame
    kind: str
    values: np.ndarray = field(repr=False)

    def __init__(self, frame: Frame, kind: str, values: np.ndarray | Iterable[float]):
        if kind not in SET_FUNCTION_KINDS:
            raise ValueError(f"unknown set-function kind {kind!r}")
        arr = _as_table(frame, values)
        arr.flags.writeable = False
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", arr)

    def value_of(self, subset: Iterable[str] | int) -> float:
        return float(self.values[self.frame.mask_of(subset)])


# ---------------------------------------------------------------------------
# constructors and transforms
# ---------------------------------------------------------------------------

def vacuous(frame: Frame) -> MassFunction:
    """Total ignorance: all mass on the full frame."""
    arr = np.zeros(frame.n_subsets)
    arr[frame.full_mask] = 1.0
    return MassFunction(frame, arr)


def categorical(frame: Frame, subset: Iterable[str] | int) -> MassFunction:
    """All mass on one subset (possibly the empty set)."""
    arr = np.zeros(frame.n_subsets)
    arr[frame.mask_of(subset)] = 1.0
    return MassFunction(frame, arr)


def mass_to_commonality(m: MassFunction) -> SetFunction:
    """q(A) = sum of masses of all supersets of A; q({}) is the total mass."""
    return SetFunction(m.frame, "commonality", _zeta_superset(m.masses.copy()))


def commonality_to_mass(q: SetFunction) -> MassFunction:
    """Invert a commonality table back to masses (alternating superset sums)."""
    arr = _mobius_superset(q.values.copy())
    return _bba_from_transform(q.frame, arr, "commonality")


def mass_to_plausibility(m: MassFunction) -> SetFunction:
    """pl(A) = sum of masses of all subsets that intersect A; pl({}) = 0."""
    b = _zeta_subset(m.masses.copy())
    total = float(m.masses.sum())
    # complement lookup: index reversal flips every bit of the mask
    return SetFunction(m.frame, "plausibility", total - b[::-1])


def plausibility_to_mass(pl: SetFunction) -> MassFunction:
    """Invert a plausibility table back to masses.

    Works through the implicability function ``b(A) = 1 - pl(complement A)``
    whose subset-Mobius inverse is the mass table.  The alternating-sum
    form over complements holds for non-empty sets only; the empty set
    mass falls out of ``b`` directly as ``1 - pl(OMEGA)``.
    """
    b = 1.0 - pl.values[::-1]
    arr = _mobius_subset(b.copy())
    return _bba_from_transform(pl.frame, arr, "plausibility")


def mass_to_belief(m: MassFunction) -> SetFunction:
    """bel(A) = sum of masses of non-empty subsets of A.

    The empty-set mass is excluded from every sum and is not renormalized
    away; sub-normal inputs therefore yield bel(OMEGA) = 1 - m({}).
    """
    b = _zeta_subset(m.masses.copy())
    return SetFunction(m.frame, "belief", b - m.masses[0])


def _bba_from_transform(frame: Frame, arr: np.ndarray, source: str) -> MassFunction:
    worst = float(arr.min())
    if worst < -_NEG_MASS_TOL:
        raise InvalidSetFunction(
            f"{source} table is inconsistent: negative mass {worst:.3e}"
        )
    total = float(arr.sum())
    if abs(total - 1.0) > _SUM_TOL:
        raise InvalidSetFunction(
            f"{source} table is inconsistent: masses sum to {total!r}"
        )
    try:
        return MassFunction(frame, arr)
    except ValueError as exc:
        raise InvalidSetFunction(f"{source} table is inconsistent: {exc}") from exc


# ---------------------------------------------------------------------------
# combination rules
# ---------------------------------------------------------------------------

def _require_same_frame(m1: MassFunction, m2: MassFunction) -> None:
    if m1.frame != m2.frame:
        raise FrameMismatch(
            f"cannot combine masses over {m1.frame.labels} and {m2.frame.labels}"
        )


def combine_conjunctive(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Unnormalized conjunctive combination (both sources reliable).

    The mass of each pair of focal elements flows to their intersection;
    equivalently the combined commonality is the pointwise product of the
    operand commonalities, which is how it is computed.  The result may
    be sub-normal: the empty set collects the conflict.
    """
    _require_same_frame(m1, m2)
    q = _zeta_superset(m1.masses.copy()) * _zeta_superset(m2.masses.copy())
    return MassFunction(m1.frame, _mobius_superset(q))


def combine_disjunctive(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Unnormalized disjunctive combination (at least one source reliable).

    The mass of each pair of focal elements flows to their union;
    equivalently the combined implicability (belief including the empty
    set mass) is the pointwise product of the operand implicabilities.
    """
    _require_same_frame(m1, m2)
    b = _zeta_subset(m1.masses.copy()) * _zeta_subset(m2.masses.copy())
    return MassFunction(m1.frame, _mobius_subset(b))


def conflict_mass(m1: MassFunction, m2: MassFunction) -> float:
    """Mass the conjunctive combination sends to the empty set."""
    _require_same_frame(m1, m2)
    return combine_conjunctive(m1, m2).conflict


# ---------------------------------------------------------------------------
# conflict redistribution
# ---------------------------------------------------------------------------

def normalize(
    m: MassFunction,
    rule: str = "dempster",
    *,
    parents: tuple[MassFunction, MassFunction] | None = None,
) -> MassFunction:
    """Redistribute the empty-set mass so the result is a normal BBA.

    ``dempster`` rescales all non-empty masses by the inverse of their sum,
    1 - m({}) up to rounding, and raises :class:`TotalConflict` when
    nothing remains to rescale.  ``yager``
    transfers the empty-set mass to the full frame.  ``dubois_prade``
    reassigns each conflicting product of the two parent BBAs to the
    union of its operands and therefore needs ``parents``; the residual
    product of the two parent empty-set masses has no non-empty union to
    go to and is transferred to the full frame.
    """
    if rule == "dempster":
        k = m.conflict
        # divide by what is left rather than by 1 - k: near total conflict,
        # the masses' absolute rounding would be divided by a tiny number
        left = float(m.masses[1:].sum())
        if k >= 1.0 - _TOTAL_CONFLICT_EPS or left <= 0.0:
            raise TotalConflict(f"cannot rescale mass with conflict {k!r}")
        arr = m.masses / left
        arr[0] = 0.0
        return MassFunction(m.frame, arr)
    if rule == "yager":
        arr = m.masses.copy()
        arr[m.frame.full_mask] += arr[0]
        arr[0] = 0.0
        return MassFunction(m.frame, arr)
    if rule == "dubois_prade":
        if parents is None:
            raise ValueError(
                "dubois_prade redistributes per conflicting pair and needs "
                "parents=(m1, m2); see combine_conjunctive_normalized"
            )
        m1, m2 = parents
        arr = m.masses.copy()
        arr[0] = 0.0
        for b in m1.focal_masks():
            for c in m2.focal_masks():
                if b & c == 0:
                    target = (b | c) or m1.frame.full_mask
                    arr[target] += m1.masses[b] * m2.masses[c]
        return MassFunction(m.frame, arr)
    raise ValueError(f"unknown normalization rule {rule!r}")


def combine_conjunctive_normalized(
    m1: MassFunction, m2: MassFunction, rule: str = "dempster"
) -> MassFunction:
    """Conjunctive combination followed by conflict redistribution.

    This is the form under which Dubois-Prade is well defined, since the
    rule reassigns conflict per pair of combination operands.
    """
    combined = combine_conjunctive(m1, m2)
    return normalize(combined, rule, parents=(m1, m2))
