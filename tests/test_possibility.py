"""Tolerance-curve and BBA-conversion tests."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evimon.belief import Frame, mass_to_commonality
from evimon.errors import AllZeroLikelihood, MissingVariable
from evimon.possibility import (
    DISTRIBUTION_KINDS,
    Constraint,
    ConstraintVector,
    PossibilityDistribution,
    constant,
    crisp_above,
    crisp_below,
    crisp_interval,
    evaluate,
    evaluate_column,
    evaluate_constraint_vector,
    normal_likelihood,
    ramp_down,
    ramp_up,
    singleton_likelihoods_to_bba,
    singleton_possibilities_to_bba,
    trapezoid,
)

from oracles import naive_mass_from_commonality, powerset

TOL = 1e-9
AB = Frame(["x1", "x2"])


# ---------------------------------------------------------------------------
# curve evaluation
# ---------------------------------------------------------------------------

def test_ramp_pinned_values():
    assert evaluate(ramp_down(3.0, 5.0), 3.5) == pytest.approx(0.75)
    assert evaluate(ramp_down(5.0, 10.0), 2.34) == 1.0
    assert evaluate(ramp_up(15.0, 20.0), 3.5) == 0.0


def test_ramp_endpoints_take_extreme_values():
    rd = ramp_down(3.0, 5.0)
    assert evaluate(rd, 3.0) == 1.0
    assert evaluate(rd, 5.0) == 0.0
    ru = ramp_up(15.0, 20.0)
    assert evaluate(ru, 15.0) == 0.0
    assert evaluate(ru, 20.0) == 1.0


def test_crisp_strict_inequalities():
    assert evaluate(crisp_below(3.0), 2.999) == 1.0
    assert evaluate(crisp_below(3.0), 3.0) == 0.0
    assert evaluate(crisp_above(20.0), 20.0) == 0.0
    assert evaluate(crisp_above(20.0), 20.001) == 1.0
    ci = crisp_interval(1.0, 2.0)
    assert evaluate(ci, 1.0) == evaluate(ci, 2.0) == 1.0
    assert evaluate(ci, 0.999) == evaluate(ci, 2.001) == 0.0


def test_trapezoid_shape():
    tz = trapezoid(0.0, 1.0, 2.0, 4.0)
    assert evaluate(tz, -0.5) == 0.0
    assert evaluate(tz, 0.5) == pytest.approx(0.5)
    assert evaluate(tz, 1.5) == 1.0
    assert evaluate(tz, 3.0) == pytest.approx(0.5)
    assert evaluate(tz, 4.5) == 0.0
    # degenerate shoulders behave as steps
    step = trapezoid(1.0, 1.0, 2.0, 2.0)
    assert evaluate(step, 1.0) == 1.0
    assert evaluate(step, 2.0) == 1.0
    assert evaluate(step, 2.0001) == 0.0


def test_distribution_validation():
    with pytest.raises(ValueError):
        ramp_down(5.0, 5.0)
    with pytest.raises(ValueError):
        ramp_up(7.0, 3.0)
    with pytest.raises(ValueError):
        trapezoid(0, 2, 1, 3)
    with pytest.raises(ValueError):
        crisp_interval(2.0, 1.0)
    with pytest.raises(ValueError):
        constant(1.5)
    with pytest.raises(ValueError):
        evaluate(constant(1.0), float("nan"))


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=0.1, max_value=40),
    st.floats(min_value=-100, max_value=100),
)
def test_ramps_bounded_and_monotone(a, width, x):
    ru = ramp_up(a, a + width)
    rd = ramp_down(a, a + width)
    for dist in (ru, rd):
        v = evaluate(dist, x)
        assert 0.0 <= v <= 1.0
    step = width / 7.0
    assert evaluate(ru, x) <= evaluate(ru, x + step) + 1e-12
    assert evaluate(rd, x) >= evaluate(rd, x + step) - 1e-12


def test_curves_on_dense_grid():
    curves = [
        ramp_up(2.0, 7.0),
        ramp_down(-1.0, 4.0),
        trapezoid(0.0, 1.0, 3.0, 6.0),
        crisp_above(2.5),
        crisp_below(2.5),
        crisp_interval(1.0, 2.0),
        constant(0.3),
    ]
    grid = np.linspace(-10.0, 15.0, 2001)
    for dist in curves:
        values = np.array([evaluate(dist, x) for x in grid])
        assert values.min() >= 0.0 and values.max() <= 1.0
        diffs = np.diff(values)
        if dist.kind == "ramp_up":
            assert (diffs >= -1e-12).all()
        if dist.kind == "ramp_down":
            assert (diffs <= 1e-12).all()
        if not dist.is_crisp and dist.kind != "constant":
            # piecewise linear: second differences vanish off the knots
            knots = set(dist.params)
            inner = [
                i
                for i in range(1, len(grid) - 1)
                if not any(abs(grid[i] - k) < 0.02 or abs(grid[i + 1] - k) < 0.02
                           or abs(grid[i - 1] - k) < 0.02 for k in knots)
            ]
            second = values[:-2] - 2 * values[1:-1] + values[2:]
            assert np.max(np.abs(second[np.array(inner) - 1])) <= 1e-9


# ---------------------------------------------------------------------------
# possibility -> BBA
# ---------------------------------------------------------------------------

def test_possibility_to_bba_walkthrough_values():
    m = singleton_possibilities_to_bba(AB, [0.75, 0.0])
    assert np.allclose(m.masses, [0.25, 0.75, 0.0, 0.0], atol=TOL)
    m = singleton_possibilities_to_bba(AB, [1.0, 0.0])
    assert np.allclose(m.masses, [0.0, 1.0, 0.0, 0.0], atol=TOL)
    m = singleton_possibilities_to_bba(AB, [1.0, 1.0])
    assert np.allclose(m.masses, [0.0, 0.0, 0.0, 1.0], atol=TOL)


def test_possibility_to_bba_empty_mass_is_one_minus_max():
    rng = np.random.default_rng(7)
    frame = Frame(["a", "b", "c", "d"])
    for _ in range(200):
        poss = rng.random(4)
        m = singleton_possibilities_to_bba(frame, poss)
        assert m.conflict == pytest.approx(1.0 - poss.max(), abs=1e-12)


def test_possibility_to_bba_is_consonant():
    rng = np.random.default_rng(8)
    frame = Frame(["a", "b", "c"])
    for _ in range(200):
        poss = rng.random(3)
        m = singleton_possibilities_to_bba(frame, poss)
        focals = [a for a in m.focal_masks() if a != 0]
        for f1 in focals:
            for f2 in focals:
                assert f1 & f2 in (f1, f2), "focal elements must be nested"


def test_possibility_to_bba_matches_sorted_construction():
    # independent route: sort possibilities descending; the nested top-k
    # sets are the focal elements, with mass the drop between levels
    rng = np.random.default_rng(9)
    labels = ["a", "b", "c", "d"]
    frame = Frame(labels)
    for _ in range(200):
        poss = rng.random(4)
        order = np.argsort(-poss)
        expected = np.zeros(frame.n_subsets)
        mask = 0
        prev = None
        for rank, i in enumerate(order):
            mask |= 1 << int(i)
            nxt = poss[order[rank + 1]] if rank + 1 < len(order) else 0.0
            expected[mask] += poss[i] - nxt
        expected[0] += 1.0 - poss.max()
        m = singleton_possibilities_to_bba(frame, poss)
        assert np.max(np.abs(m.masses - expected)) <= TOL


def test_possibility_to_bba_rejects_out_of_range():
    with pytest.raises(ValueError):
        singleton_possibilities_to_bba(AB, [1.2, 0.0])
    with pytest.raises(ValueError):
        singleton_possibilities_to_bba(AB, [0.5])


def test_crisp_possibilities_give_zero_one_masses():
    frame = Frame(["a", "b", "c"])
    for poss in ([1, 0, 0], [1, 1, 0], [0, 0, 0], [1, 1, 1]):
        m = singleton_possibilities_to_bba(frame, poss)
        assert set(np.round(m.masses, 12)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# likelihood -> BBA
# ---------------------------------------------------------------------------

def test_likelihood_to_bba_pinned_examples():
    m = singleton_likelihoods_to_bba(AB, [1.0, 0.0])
    assert np.allclose(m.masses, [0, 1, 0, 0], atol=TOL)
    m = singleton_likelihoods_to_bba(AB, [1.0, 1.0])
    assert m.is_vacuous()
    m = singleton_likelihoods_to_bba(AB, [0.8, 0.4])
    assert np.allclose(m.masses, [0.0, 0.5, 0.0, 0.5], atol=TOL)
    q = mass_to_commonality(m)
    assert np.allclose(q.values, [1.0, 1.0, 0.5, 0.5], atol=TOL)


def test_likelihood_to_bba_matches_mobius_oracle():
    rng = np.random.default_rng(11)
    labels = ["a", "b", "c"]
    frame = Frame(labels)
    for _ in range(200):
        lik = rng.random(3) * 3.0
        if lik.max() == 0:
            continue
        scaled = lik / lik.max()
        q = {
            s: float(np.prod([scaled[labels.index(x)] for x in s]))
            for s in powerset(labels)
        }
        expected = naive_mass_from_commonality(q, labels)
        m = singleton_likelihoods_to_bba(frame, lik)
        for s, v in expected.items():
            assert m.mass_of(tuple(s)) == pytest.approx(v, abs=TOL)


def test_likelihood_all_zero_raises():
    with pytest.raises(AllZeroLikelihood):
        singleton_likelihoods_to_bba(AB, [0.0, 0.0])


def test_normal_likelihood_peak_and_symmetry():
    assert normal_likelihood(0.0, 0.0, 1.0) == pytest.approx(0.3989422804014327)
    assert normal_likelihood(1.0, 0.0, 2.0) == normal_likelihood(-1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        normal_likelihood(0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# constraint vectors
# ---------------------------------------------------------------------------

def test_constraint_vector_min_fusion_and_inhibition():
    cv = ConstraintVector(
        (
            Constraint("pres", ramp_down(3.0, 5.0)),
            Constraint("visibility", ramp_up(0.05, 0.2), inhibited=True),
        )
    )
    assert evaluate_constraint_vector(cv, {"pres": 3.5}) == pytest.approx(0.75)
    cv2 = ConstraintVector(
        (
            Constraint("a", constant(0.9)),
            Constraint("b", constant(0.4)),
        )
    )
    assert evaluate_constraint_vector(cv2, {}) == pytest.approx(0.4)


def test_constraint_vector_missing_variable():
    cv = ConstraintVector((Constraint("pres", ramp_down(3.0, 5.0)),))
    with pytest.raises(MissingVariable) as err:
        evaluate_constraint_vector(cv, {"lum": 1.0})
    assert "pres" in str(err.value)


def test_constraint_vector_validation():
    with pytest.raises(ValueError):
        ConstraintVector(
            (
                Constraint("x", constant(1.0)),
                Constraint("x", constant(0.5)),
            )
        )
    with pytest.raises(ValueError):
        ConstraintVector((Constraint("x", constant(1.0), inhibited=True),))


def test_equal_vectors_built_apart_hash_alike():
    # a vector computes its hash once, when it is built: equal vectors
    # from entries built apart must hash alike, and a copy or an unpickled
    # vector must compute its own (a str's hash differs between processes)
    def build():
        return ConstraintVector(
            (
                Constraint("pres", ramp_down(3.0, 5.0)),
                Constraint("lum", constant(0.5), inhibited=True),
            )
        )

    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a: 0, b: 1}) == 1
    assert a != ConstraintVector(a.entries[:1]) and hash(a) != hash(a.entries[:1])
    object.__setattr__(a, "_hash", hash(a) + 1)  # as if built in another process
    for c in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert c == b and hash(c) == hash(b)


def test_forbidden_vector():
    cv = ConstraintVector.forbidden()
    assert cv.is_forbidden
    assert evaluate_constraint_vector(cv, {}) == 0.0
    assert cv.required_variables() == ()


# ---------------------------------------------------------------------------
# column evaluators against the scalar oracle
# ---------------------------------------------------------------------------

# bounded magnitudes: differences such as b - a and x - a stay finite
finite = st.floats(-1e9, 1e9, allow_nan=False)


@st.composite
def curves(draw):
    kind = draw(st.sampled_from(DISTRIBUTION_KINDS))
    if kind == "constant":
        return constant(draw(st.floats(0.0, 1.0)))
    if kind in ("crisp_above", "crisp_below"):
        return PossibilityDistribution(kind, (draw(finite),))
    if kind in ("ramp_up", "ramp_down"):
        a, b = sorted(draw(st.lists(finite, min_size=2, max_size=2, unique=True)))
        if draw(st.booleans()):
            # one float wide: far off the ramp, (x - a) / (b - a) overflows
            b = float(np.nextafter(a, np.inf))
        return PossibilityDistribution(kind, (a, b))
    params = sorted(draw(st.lists(finite, min_size=4, max_size=4)))
    if kind == "crisp_interval":
        return crisp_interval(params[0], params[-1])
    a, b, c, d = params
    # vertical shoulders on either side, or both
    if draw(st.booleans()):
        b = a
    if draw(st.booleans()):
        c = d
    assume(a < d)
    return trapezoid(a, b, c, d)


def probe_points(draw, dist):
    """Every parameter, its float neighbours, and arbitrary observations."""
    points = list(draw(st.lists(finite, max_size=6)))
    for p in dist.params:
        points += [p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf)]
    return np.array(points, dtype=float)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_column_curves_equal_scalar_curves(data):
    dist = data.draw(curves())
    points = probe_points(data.draw, dist)
    # underflow is the scalar form's own (a shoulder value next to its end)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        column = evaluate_column(dist, points)
    assert column.shape == points.shape
    assert not np.isnan(column).any()
    assert column.tolist() == [evaluate(dist, x) for x in points]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fused_vectors_equal_scalar_vectors(data):
    # one side of a model as the contour engine evaluates it: each distinct
    # (variable, curve) pair once, a constant's by its level and any other's
    # over its column, and each vector the minimum of its pairs.  The
    # vectors draw their curves from one pool, so they share pairs and may
    # repeat, and they hold constant and inhibited entries; records before
    # ``skip`` read every curve as 1, and so each vector as its least
    # constant level, or 1
    from evimon.forward import _Curves

    pool = data.draw(st.lists(curves(), min_size=1, max_size=4))
    names = ["v0", "v1", "v2"]

    def vector():
        chosen = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        k = len(chosen)
        inhibited = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        assume(not all(inhibited))
        dists = [data.draw(st.sampled_from(pool)) for _ in chosen]
        return ConstraintVector(map(Constraint, chosen, dists, inhibited))

    vectors = [vector() for _ in range(data.draw(st.integers(1, 6)))]
    points = np.concatenate([probe_points(data.draw, dist) for dist in pool]).tolist()
    size = min(data.draw(st.integers(0, 6)), len(points))
    skip = data.draw(st.integers(0, min(1, size)))
    side = _Curves(vectors, (len(vectors),))
    # only the variables some vector reads: an inhibited or constant entry
    # must not touch its column
    read = {v for cv in vectors for v in cv.required_variables()}
    assert side.variables == sorted(read)
    columns = {
        v: np.array(data.draw(st.permutations(points))[skip:size])
        for v in side.variables
    }
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        fused = side.values(columns, size, skip)
    assert fused.shape == (size, len(vectors))
    for cv, got in zip(vectors, fused.T.tolist()):
        levels = [
            e.distribution.params[0]
            for e in cv.entries
            if not e.inhibited and e.distribution.kind == "constant"
        ]
        assert got[:skip] == [min([1.0] + levels)] * skip
        assert got[skip:] == [
            evaluate_constraint_vector(cv, {v: col[i] for v, col in columns.items()})
            for i in range(size - skip)
        ]
