"""Belief-algebra unit and property tests against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evimon.belief import (
    Frame,
    MassFunction,
    SetFunction,
    categorical,
    combine_conjunctive,
    combine_conjunctive_normalized,
    combine_disjunctive,
    commonality_to_mass,
    conflict_mass,
    mass_to_belief,
    mass_to_commonality,
    mass_to_plausibility,
    normalize,
    plausibility_to_mass,
    vacuous,
)
from evimon.errors import FrameMismatch, InvalidSetFunction, TotalConflict

from oracles import (
    dicts_close,
    mass_dict,
    naive_belief,
    naive_commonality,
    naive_conflict,
    naive_conjunctive,
    naive_disjunctive,
    naive_mass_from_commonality,
    naive_mass_from_plausibility,
    naive_plausibility,
    random_mass_dict,
)

TOL = 1e-9

AB = Frame(["x1", "x2"])


def mf(frame, focal):
    return MassFunction.from_dict(frame, focal)


def from_dict_oracle(frame, d):
    return MassFunction.from_dict(frame, {tuple(k): v for k, v in d.items()})


# ---------------------------------------------------------------------------
# frame and construction
# ---------------------------------------------------------------------------

def test_frame_rejects_duplicates_empties_and_oversize():
    with pytest.raises(ValueError):
        Frame(["a", "a"])
    with pytest.raises(ValueError):
        Frame(["a", ""])
    with pytest.raises(ValueError):
        Frame([])
    with pytest.raises(ValueError):
        Frame([f"s{i}" for i in range(21)])
    assert Frame([f"s{i}" for i in range(20)]).n_subsets == 1 << 20


def test_mass_function_validates_shape_sign_and_sum():
    with pytest.raises(ValueError):
        MassFunction(AB, [0.5, 0.5])
    with pytest.raises(ValueError):
        MassFunction(AB, [0.5, 0.6, 0.0, 0.0])
    with pytest.raises(ValueError):
        MassFunction(AB, [-0.1, 1.1, 0.0, 0.0])
    m = MassFunction(AB, [0.25, 0.75, 0.0, 0.0])
    assert m.conflict == 0.25
    with pytest.raises(ValueError):
        m.masses[1] = 0.0  # write-protected


def test_vacuous_examples():
    assert np.allclose(vacuous(AB).masses, [0, 0, 0, 1])
    assert np.allclose(vacuous(Frame(["x1"])).masses, [0, 1])
    big = vacuous(Frame([f"s{i}" for i in range(11)]))
    assert big.masses[2047] == 1.0
    assert big.masses.sum() == 1.0


def test_transforms_hold_up_on_a_wide_frame():
    frame = Frame([f"s{i}" for i in range(16)])
    rng = np.random.default_rng(13)
    arr = np.zeros(frame.n_subsets)
    focal = rng.integers(0, frame.n_subsets, size=50)
    arr[focal] += rng.random(50)
    arr /= arr.sum()
    m = MassFunction(frame, arr)
    back = commonality_to_mass(mass_to_commonality(m))
    assert np.max(np.abs(back.masses - m.masses)) <= TOL
    back = plausibility_to_mass(mass_to_plausibility(m))
    assert np.max(np.abs(back.masses - m.masses)) <= TOL


# ---------------------------------------------------------------------------
# transforms: pinned examples
# ---------------------------------------------------------------------------

def test_commonality_of_simple_mass():
    m = mf(AB, {(): 0.25, ("x1",): 0.75})
    q = mass_to_commonality(m)
    assert np.allclose(q.values, [1.0, 0.75, 0.0, 0.0], atol=TOL)


def test_commonality_of_vacuous_is_one_everywhere():
    q = mass_to_commonality(vacuous(AB))
    assert np.allclose(q.values, 1.0)


def test_commonality_of_categorical_singleton():
    q = mass_to_commonality(categorical(AB, ("x1",)))
    assert np.allclose(q.values, [1.0, 1.0, 0.0, 0.0])


def test_commonality_roundtrip_inverse():
    q = SetFunction(AB, "commonality", [1.0, 0.75, 0.0, 0.0])
    m = commonality_to_mass(q)
    assert np.allclose(m.masses, [0.25, 0.75, 0.0, 0.0], atol=TOL)
    assert commonality_to_mass(mass_to_commonality(vacuous(AB))).is_vacuous()


def test_commonality_to_mass_rejects_garbage():
    # q rising along supersets forces a negative mass
    with pytest.raises(InvalidSetFunction):
        commonality_to_mass(SetFunction(AB, "commonality", [1.0, 0.2, 0.2, 0.5]))
    # wrong total mass
    with pytest.raises(InvalidSetFunction):
        commonality_to_mass(SetFunction(AB, "commonality", [2.0, 0.2, 0.2, 0.1]))
    # a sum off by more than the type tolerance but under the table gate
    # still surfaces as an inconsistent-table error
    with pytest.raises(InvalidSetFunction):
        commonality_to_mass(
            SetFunction(AB, "commonality", [1.0 + 5e-8, 0.75, 0.0, 0.0])
        )


def test_plausibility_of_simple_mass():
    m = mf(AB, {(): 0.25, ("x1",): 0.75})
    pl = mass_to_plausibility(m)
    assert np.allclose(pl.values, [0.0, 0.75, 0.0, 0.75], atol=TOL)


def test_plausibility_of_vacuous_and_empty_categorical():
    pl = mass_to_plausibility(vacuous(AB))
    assert np.allclose(pl.values, [0.0, 1.0, 1.0, 1.0])
    pl0 = mass_to_plausibility(categorical(AB, ()))
    assert np.allclose(pl0.values, 0.0)


def test_plausibility_to_mass_examples():
    pl = SetFunction(AB, "plausibility", [0.0, 0.75, 0.0, 0.75])
    assert np.allclose(plausibility_to_mass(pl).masses, [0.25, 0.75, 0, 0], atol=TOL)
    pl = SetFunction(AB, "plausibility", [0.0, 1.0, 0.0, 1.0])
    assert np.allclose(plausibility_to_mass(pl).masses, [0.0, 1.0, 0, 0], atol=TOL)
    # roundtrip on the vacuous BBA
    back = plausibility_to_mass(mass_to_plausibility(vacuous(AB)))
    assert back.is_vacuous()


def test_belief_examples():
    assert np.allclose(mass_to_belief(categorical(AB, ("x1",))).values, [0, 1, 0, 1])
    bel = mass_to_belief(vacuous(AB))
    assert np.allclose(bel.values, [0, 0, 0, 1])
    bel = mass_to_belief(mf(AB, {(): 0.25, ("x1",): 0.75}))
    assert bel.value_of(("x1",)) == pytest.approx(0.75, abs=TOL)
    assert bel.value_of(AB.full_mask) == pytest.approx(0.75, abs=TOL)


# ---------------------------------------------------------------------------
# transforms: randomized oracle equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transform_roundtrips_against_oracle(n):
    rng = np.random.default_rng(100 + n)
    labels = [f"s{i}" for i in range(n)]
    frame = Frame(labels)
    for _ in range(250):
        d = random_mass_dict(rng, labels)
        m = from_dict_oracle(frame, d)

        q = mass_to_commonality(m)
        q_oracle = naive_commonality(d, labels)
        assert all(
            abs(q.value_of(tuple(a)) - v) <= TOL for a, v in q_oracle.items()
        )
        assert np.max(np.abs(commonality_to_mass(q).masses - m.masses)) <= TOL

        pl = mass_to_plausibility(m)
        pl_oracle = naive_plausibility(d, labels)
        assert all(
            abs(pl.value_of(tuple(a)) - v) <= TOL for a, v in pl_oracle.items()
        )
        assert np.max(np.abs(plausibility_to_mass(pl).masses - m.masses)) <= TOL

        bel = mass_to_belief(m)
        bel_oracle = naive_belief(d, labels)
        assert all(
            abs(bel.value_of(tuple(a)) - v) <= TOL for a, v in bel_oracle.items()
        )

        back = naive_mass_from_commonality(q_oracle, labels)
        assert dicts_close(back, d, TOL)
        back = naive_mass_from_plausibility(pl_oracle, labels)
        assert dicts_close(back, d, TOL)


# ---------------------------------------------------------------------------
# combination rules
# ---------------------------------------------------------------------------

def test_conjunctive_pinned_examples():
    pred = mf(AB, {(): 0.25, ("x1",): 0.75})
    emission = categorical(AB, ("x1",))
    out = combine_conjunctive(pred, emission)
    assert np.allclose(out.masses, [0.25, 0.75, 0, 0], atol=TOL)
    # vacuous is neutral
    m = mf(AB, {("x1",): 0.4, ("x1", "x2"): 0.6})
    assert combine_conjunctive(m, vacuous(AB)).approx_equals(m, TOL)
    # disjoint categoricals conflict totally
    out = combine_conjunctive(categorical(AB, ("x1",)), categorical(AB, ("x2",)))
    assert out.conflict == pytest.approx(1.0)


def test_disjunctive_pinned_examples():
    half = mf(AB, {(): 0.25, ("x1",): 0.75})
    out = combine_disjunctive(half, half)
    assert np.allclose(out.masses, [0.0625, 0.9375, 0, 0], atol=TOL)
    m = mf(AB, {("x1",): 0.4, ("x1", "x2"): 0.6})
    assert combine_disjunctive(m, categorical(AB, ())).approx_equals(m, TOL)
    out = combine_disjunctive(categorical(AB, ("x1",)), categorical(AB, ("x2",)))
    assert out.mass_of(("x1", "x2")) == pytest.approx(1.0)


def test_conflict_pinned_examples():
    assert conflict_mass(categorical(AB, ("x1",)), categorical(AB, ("x2",))) == 1.0
    m = mf(AB, {("x1",): 0.4, ("x1", "x2"): 0.6})
    assert conflict_mass(m, vacuous(AB)) == 0.0
    pred = mf(AB, {(): 0.25, ("x1",): 0.75})
    assert conflict_mass(pred, categorical(AB, ("x1",))) == pytest.approx(0.25, abs=TOL)


def test_combination_frame_mismatch():
    other = Frame(["a", "b"])
    with pytest.raises(FrameMismatch):
        combine_conjunctive(vacuous(AB), vacuous(other))
    with pytest.raises(FrameMismatch):
        combine_disjunctive(vacuous(AB), vacuous(other))
    with pytest.raises(FrameMismatch):
        conflict_mass(vacuous(AB), vacuous(other))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_combination_rules_against_oracle(n):
    rng = np.random.default_rng(200 + n)
    labels = [f"s{i}" for i in range(n)]
    frame = Frame(labels)
    for _ in range(120):
        d1 = random_mass_dict(rng, labels)
        d2 = random_mass_dict(rng, labels)
        m1, m2 = from_dict_oracle(frame, d1), from_dict_oracle(frame, d2)

        crc_oracle = naive_conjunctive(d1, d2, labels)
        assert dicts_close(mass_dict(combine_conjunctive(m1, m2)), crc_oracle, TOL)

        drc_oracle = naive_disjunctive(d1, d2, labels)
        assert dicts_close(mass_dict(combine_disjunctive(m1, m2)), drc_oracle, TOL)

        assert conflict_mass(m1, m2) == pytest.approx(naive_conflict(d1, d2), abs=TOL)

        # conflict from the alternating commonality-product sum
        q1 = mass_to_commonality(m1).values
        q2 = mass_to_commonality(m2).values
        signs = np.array([(-1) ** bin(a).count("1") for a in range(frame.n_subsets)])
        alt = 1.0 + float((signs * q1 * q2)[1:].sum())
        assert alt == pytest.approx(conflict_mass(m1, m2), abs=TOL)


# ---------------------------------------------------------------------------
# algebraic properties (hypothesis)
# ---------------------------------------------------------------------------

def bba_strategy(n=3, normal=False):
    size = 1 << n
    lo = 1 if normal else 0

    def build(weights):
        arr = np.zeros(size)
        total = sum(w for _, w in weights) or 1.0
        for idx, w in weights:
            arr[lo + idx % (size - lo)] += w / total
        if arr.sum() <= 0:
            arr[size - 1] = 1.0
        arr /= arr.sum()
        return MassFunction(Frame([f"s{i}" for i in range(n)]), arr)

    weight = st.tuples(
        st.integers(min_value=0, max_value=size - 1),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    return st.lists(weight, min_size=1, max_size=size).map(build)


@settings(max_examples=60, deadline=None)
@given(bba_strategy(), bba_strategy())
def test_crc_and_drc_commute(m1, m2):
    assert combine_conjunctive(m1, m2).approx_equals(combine_conjunctive(m2, m1), TOL)
    assert combine_disjunctive(m1, m2).approx_equals(combine_disjunctive(m2, m1), TOL)


@settings(max_examples=40, deadline=None)
@given(bba_strategy(), bba_strategy(), bba_strategy())
def test_crc_and_drc_associate(m1, m2, m3):
    left = combine_conjunctive(combine_conjunctive(m1, m2), m3)
    right = combine_conjunctive(m1, combine_conjunctive(m2, m3))
    assert left.approx_equals(right, TOL)
    left = combine_disjunctive(combine_disjunctive(m1, m2), m3)
    right = combine_disjunctive(m1, combine_disjunctive(m2, m3))
    assert left.approx_equals(right, TOL)


@settings(max_examples=60, deadline=None)
@given(bba_strategy(), bba_strategy())
def test_drc_implicability_product_identity(m1, m2):
    out = combine_disjunctive(m1, m2)
    bel1 = mass_to_belief(m1).values
    bel2 = mass_to_belief(m2).values
    bel12 = mass_to_belief(out).values
    lhs = bel12 + out.conflict
    rhs = (bel1 + m1.conflict) * (bel2 + m2.conflict)
    assert np.max(np.abs(lhs - rhs)) <= TOL


@settings(max_examples=60, deadline=None)
@given(bba_strategy())
def test_commonality_antitone_and_pl_bel_monotone(m):
    q = mass_to_commonality(m).values
    pl = mass_to_plausibility(m).values
    bel = mass_to_belief(m).values
    n = m.frame.size
    for a in range(m.frame.n_subsets):
        for i in range(n):
            b = a | (1 << i)
            if b != a:
                assert q[a] >= q[b] - TOL
                assert pl[a] <= pl[b] + TOL
                assert bel[a] <= bel[b] + TOL
    if m.conflict <= TOL:
        assert np.all(bel <= pl + TOL)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_pinned_examples():
    m = mf(AB, {(): 0.25, ("x1",): 0.75})
    assert np.allclose(normalize(m, "dempster").masses, [0, 1.0, 0, 0], atol=TOL)
    assert np.allclose(normalize(m, "yager").masses, [0, 0.75, 0, 0.25], atol=TOL)
    out = combine_conjunctive_normalized(
        categorical(AB, ("x1",)), categorical(AB, ("x2",)), "dubois_prade"
    )
    assert out.mass_of(("x1", "x2")) == pytest.approx(1.0)


def test_normalize_total_conflict_raises():
    with pytest.raises(TotalConflict):
        normalize(categorical(AB, ()), "dempster")
    # yager stays defined: everything moves to the frame
    out = normalize(categorical(AB, ()), "yager")
    assert out.is_vacuous()


def test_dubois_prade_needs_parents():
    with pytest.raises(ValueError):
        normalize(mf(AB, {(): 0.5, ("x1",): 0.5}), "dubois_prade")


@settings(max_examples=80, deadline=None)
@given(bba_strategy(), bba_strategy())
def test_normalization_invariants(m1, m2):
    combined = combine_conjunctive(m1, m2)
    for rule in ("dempster", "yager", "dubois_prade"):
        if rule == "dempster" and combined.conflict >= 1.0 - 1e-12:
            continue
        out = combine_conjunctive_normalized(m1, m2, rule)
        assert out.conflict == 0.0
        assert out.masses.sum() == pytest.approx(1.0, abs=TOL)
    if combined.conflict < 1.0 - 1e-12:
        dem = normalize(combined, "dempster")
        nz = [a for a in combined.focal_masks() if a != 0]
        for a in nz:
            for b in nz:
                lhs = dem.masses[a] * combined.masses[b]
                rhs = dem.masses[b] * combined.masses[a]
                assert lhs == pytest.approx(rhs, abs=TOL)
    yag = normalize(combined, "yager")
    full = combined.frame.full_mask
    assert yag.mass_of(full) == pytest.approx(
        combined.mass_of(full) + combined.conflict, abs=TOL
    )


@settings(max_examples=60, deadline=None)
@given(bba_strategy(normal=True), bba_strategy(normal=True))
def test_bayesian_crc_dempster_matches_probability_product(m1, m2):
    # project both onto singletons to get Bayesian BBAs
    frame = m1.frame
    n = frame.size

    def bayesianize(m):
        p = np.array([m.masses[1 << i] for i in range(n)])
        p = p + 1e-6
        p /= p.sum()
        arr = np.zeros(frame.n_subsets)
        for i in range(n):
            arr[1 << i] = p[i]
        return MassFunction(frame, arr), p

    b1, p1 = bayesianize(m1)
    b2, p2 = bayesianize(m2)
    out = combine_conjunctive_normalized(b1, b2, "dempster")
    expected = p1 * p2
    expected /= expected.sum()
    got = np.array([out.masses[1 << i] for i in range(n)])
    assert np.max(np.abs(got - expected)) <= TOL
