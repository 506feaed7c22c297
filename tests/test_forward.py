"""Model construction, prediction and forward-pass tests."""

import collections
import dataclasses
import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evimon.belief import (
    Frame,
    MassFunction,
    categorical,
    combine_disjunctive,
    vacuous,
)
from evimon.errors import (
    EmptyLog,
    LengthMismatch,
    MissingVariable,
    TraceTooShort,
    ValidationError,
)
from evimon.forward import (
    conditioning_weights,
    effectiveness,
    forward_init,
    forward_step,
    predict,
    run_forward,
    sliding_effectiveness,
)
from evimon.iohmm import (
    ConditionalTransitionBBAs,
    best_deterministic_test,
    build_transition_rows,
    deterministic_test,
    emission_bba,
)
from evimon.trace import TraceRecord

from model_builders import (
    bayesian_mass,
    brute_force_path_sum,
    cv,
    evidential_bayesian_effectiveness,
    luminosity_crisp_model,
    luminosity_model,
    random_bayesian_structures,
    random_crisp_deterministic_model,
    random_crisp_trace,
    random_possibilistic_model,
    random_trace,
)
from oracles import brute_max_crisp_test, exact_sliding

TOL = 1e-9
RULES = ("dempster", "yager", "dubois_prade")


# ---------------------------------------------------------------------------
# transition rows
# ---------------------------------------------------------------------------

def test_walkthrough_transition_rows():
    model = luminosity_model()
    rows = build_transition_rows(model, {"pres": 3.5})
    for i in range(2):
        assert np.allclose(
            rows.singleton_rows[i].masses, [0.25, 0.75, 0.0, 0.0], atol=TOL
        )
    assert np.allclose(rows.row(0).masses, [1, 0, 0, 0])
    assert np.allclose(rows.row(3).masses, [0.0625, 0.9375, 0.0, 0.0], atol=TOL)


def test_rows_equal_disjunctive_of_singletons():
    rng = np.random.default_rng(31)
    for _ in range(25):
        model = random_possibilistic_model(rng, n_states=3)
        rows = build_transition_rows(model, {"u": float(rng.uniform(0, 10))})
        materialized = rows.rows
        assert len(materialized) == 8
        for mask in range(8):
            d = {}
            members = [i for i in range(3) if mask >> i & 1]
            if not members:
                expected = categorical(model.frame, 0)
            else:
                expected = rows.singleton_rows[members[0]]
                for i in members[1:]:
                    expected = combine_disjunctive(expected, rows.singleton_rows[i])
            assert materialized[mask].approx_equals(expected, TOL)


def test_rows_crisp_input_is_categorical():
    model = luminosity_crisp_model()
    rows = build_transition_rows(model, {"pres": 2.0})
    assert np.allclose(rows.row(1).masses, [0, 1, 0, 0])
    assert np.allclose(rows.row(2).masses, [0, 1, 0, 0])
    # input in no crisp zone: the empty-set categorical everywhere
    rows = build_transition_rows(model, {"pres": 10.0})
    assert rows.row(3).conflict == 1.0


def test_rows_missing_variable():
    model = luminosity_model()
    with pytest.raises(MissingVariable) as err:
        build_transition_rows(model, {})
    assert "pres" in str(err.value)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_walkthrough_value():
    model = luminosity_model()
    rows = build_transition_rows(model, {"pres": 3.5})
    predicted = predict(vacuous(model.frame), rows)
    assert np.allclose(predicted.masses, [0.25, 0.75, 0.0, 0.0], atol=TOL)


def test_predict_categorical_prior_collapses_to_row():
    rng = np.random.default_rng(32)
    for _ in range(20):
        model = random_possibilistic_model(rng, n_states=3)
        rows = build_transition_rows(model, {"u": float(rng.uniform(0, 10))})
        for i in range(3):
            prior = categorical(model.frame, 1 << i)
            assert predict(prior, rows).approx_equals(rows.singleton_rows[i], TOL)


def test_predict_bayesian_reduces_to_probability_mixture():
    rng = np.random.default_rng(33)
    frame = Frame(["a", "b", "c"])
    for _ in range(50):
        mat = rng.random((3, 3)) + 0.05
        mat /= mat.sum(axis=1, keepdims=True)
        rows = ConditionalTransitionBBAs(
            frame, [bayesian_mass(frame, mat[i]) for i in range(3)]
        )
        p = rng.random(3) + 0.05
        p /= p.sum()
        prior = bayesian_mass(frame, p)
        predicted = predict(prior, rows)
        expected = p @ mat
        got = np.array([predicted.masses[1 << j] for j in range(3)])
        assert np.max(np.abs(got - expected)) <= TOL


def test_conditioning_weights_structure():
    frame = Frame(["a", "b", "c"])
    w = conditioning_weights(vacuous(frame))
    assert w[1] == w[2] == w[4] == pytest.approx(1 / 3)
    assert w.sum() == pytest.approx(1.0)
    # weight never lands on non-singleton subsets
    assert all(w[mask] == 0.0 for mask in (0, 3, 5, 6, 7))
    w = conditioning_weights(categorical(frame, ("b",)))
    assert w[2] == 1.0


def test_a_prior_on_the_empty_set_conditions_on_the_empty_set():
    model = luminosity_model()
    empty = categorical(model.frame, 0)
    w = conditioning_weights(empty)
    assert w.tolist() == [1.0, 0.0, 0.0, 0.0]
    rows = build_transition_rows(model, {"pres": 3.5})
    assert predict(empty, rows).masses.tolist() == [1.0, 0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_walkthrough_emission():
    model = luminosity_model()
    e = emission_bba(model, {"lum": 2.34})
    assert np.allclose(e.masses, [0, 1, 0, 0], atol=TOL)


def test_emission_outside_everything_and_double_comfort():
    model = luminosity_model()
    assert emission_bba(model, {"lum": 15.0}).conflict == 1.0
    # partial satisfaction: consonant doubt
    e = emission_bba(model, {"lum": 7.5})
    assert e.mass_of(("x1",)) == pytest.approx(0.5, abs=TOL)
    assert e.conflict == pytest.approx(0.5, abs=TOL)


def test_emission_inside_two_comfort_zones_is_vacuous():
    # overlapping curves: both states fully satisfied by the same output
    from evimon.iohmm import EvIohmm
    from evimon.possibility import Constraint, ConstraintVector, ramp_down, ramp_up

    frame = Frame(["slow", "fast"])
    gate = ConstraintVector((Constraint("u", ramp_up(0.0, 1.0)),))
    model = EvIohmm(
        frame,
        ((gate, gate), (gate, gate)),
        (
            ConstraintVector((Constraint("y", ramp_down(50.0, 60.0)),)),
            ConstraintVector((Constraint("y", ramp_down(90.0, 95.0)),)),
        ),
    )
    e = emission_bba(model, {"y": 40.0})
    assert e.is_vacuous()


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def test_forward_init_examples():
    model = luminosity_model()
    state = forward_init(model, {"lum": 2.34})
    assert state.conflict_log == (0.0,)
    assert np.allclose(state.current.masses, [0, 1, 0, 0], atol=TOL)
    state = forward_init(model, {"lum": 7.5})
    assert state.conflict_log[0] == pytest.approx(0.5, abs=TOL)
    state = forward_init(model, {"lum": 15.0})
    assert state.conflict_log == (1.0,)
    assert state.current.is_vacuous()
    assert state.resets == (0,)


def test_forward_step_walkthrough():
    model = luminosity_model()
    state = forward_init(model, {"lum": 2.0})
    state = forward_step(state, model, {"pres": 3.5}, {"lum": 2.34})
    assert state.conflict_log[-1] == pytest.approx(0.25, abs=TOL)
    assert np.allclose(state.current.masses, [0, 1, 0, 0], atol=TOL)
    assert effectiveness(state.conflict_log) == pytest.approx(0.75, abs=TOL)


def test_forward_comfort_trace_has_zero_conflict():
    model = luminosity_model()
    records = [
        TraceRecord(float(t), {"pres": 2.0}, {"lum": 3.0}) for t in range(8)
    ]
    state = run_forward(model, records)
    assert state.conflict_log == (0.0,) * 8


def test_forward_total_conflict_resets_and_recovers():
    model = luminosity_crisp_model()
    records = [
        TraceRecord(0.0, {}, {"lum": 2.0}),
        TraceRecord(1.0, {"pres": 10.0}, {"lum": 2.0}),  # input in no zone
        TraceRecord(2.0, {"pres": 2.0}, {"lum": 2.0}),
    ]
    state = run_forward(model, records)
    assert state.conflict_log == (0.0, 1.0, 0.0)
    assert state.resets == (1,)


def test_effectiveness_examples():
    assert effectiveness([0.0, 0.0, 0.0]) == 1.0
    assert effectiveness([0.25]) == 0.75
    assert effectiveness([0.1, 1.0, 0.2]) == 0.0
    with pytest.raises(EmptyLog):
        effectiveness([])


# ---------------------------------------------------------------------------
# sliding windows
# ---------------------------------------------------------------------------

def comfort_trace(n):
    return [TraceRecord(float(t), {"pres": 2.0}, {"lum": 3.0}) for t in range(n)]


def test_sliding_window_counts_and_values():
    model = luminosity_model()
    report = sliding_effectiveness(comfort_trace(30), model, 10, 1)
    assert len(report.windows) == 21
    assert len(report.steps) == 30
    assert all(w.value == pytest.approx(1.0) for w in report.windows)
    assert report.windows[0].end_timestamp == 9.0
    report = sliding_effectiveness(comfort_trace(30), model, 10, 5)
    assert [w.start for w in report.windows] == [0, 5, 10, 15, 20]


def test_sliding_window_len_one_equals_step_effectiveness():
    rng = np.random.default_rng(34)
    model = luminosity_model()
    records = [
        TraceRecord(
            float(t),
            {"pres": float(rng.uniform(0, 22))},
            {"lum": float(rng.uniform(0, 27))},
        )
        for t in range(12)
    ]
    report = sliding_effectiveness(records, model, 1, 1)
    # a one-record window has no transition, so its value is the init
    # conflict of that record, which matches the full pass only at t=0;
    # check the defining property instead: value == 1 - init conflict
    for w in report.windows:
        init = forward_init(model, records[w.start].outputs)
        assert w.value == pytest.approx(1.0 - init.conflict_log[0], abs=TOL)


def test_sliding_window_too_short():
    model = luminosity_model()
    with pytest.raises(TraceTooShort):
        sliding_effectiveness(comfort_trace(5), model, 10, 1)
    with pytest.raises(ValueError):
        sliding_effectiveness(comfort_trace(5), model, 0, 1)


def test_sliding_window_rejects_a_bad_stride_or_engine():
    model = luminosity_model()
    with pytest.raises(ValueError, match="stride must be >= 1, got 0"):
        sliding_effectiveness(comfort_trace(5), model, 2, stride=0)
    with pytest.raises(ValueError, match="unknown engine 'bogus'"):
        sliding_effectiveness(comfort_trace(5), model, 2, engine="bogus")


# ---------------------------------------------------------------------------
# fast engine vs reference path
# ---------------------------------------------------------------------------

def assert_engines_agree(records, model, window_len, stride):
    fast = sliding_effectiveness(records, model, window_len, stride, engine="fast")
    ref = sliding_effectiveness(records, model, window_len, stride, engine="reference")
    return assert_reports_agree(fast, ref)


def assert_reports_agree(fast, ref, tol=TOL):
    assert len(fast.steps) == len(ref.steps)
    for a, b in zip(fast.steps, ref.steps):
        assert a.conflict == pytest.approx(b.conflict, abs=tol)
    assert [w.start for w in fast.windows] == [w.start for w in ref.windows]
    for a, b in zip(fast.windows, ref.windows):
        assert a.value == pytest.approx(b.value, abs=tol)
    resets = [s.index for s in fast.steps if s.reset]
    assert resets == [s.index for s in ref.steps if s.reset]
    return fast


@pytest.mark.parametrize("rule", ["dempster", "yager", "dubois_prade"])
def test_engine_agrees_with_reference(rule):
    rng = np.random.default_rng(35)
    for trial in range(30):
        n = int(rng.integers(2, 5))
        multivariate = trial % 2 == 1
        model = random_possibilistic_model(
            rng, n_states=n, rule=rule, multivariate=multivariate
        )
        records = random_trace(
            rng,
            int(rng.integers(3, 9)),
            input_names=model.input_variables,
            output_names=model.output_variables,
        )
        assert_engines_agree(records, model, 3, 1)


def test_engine_full_pass_agrees_with_run_forward():
    rng = np.random.default_rng(36)
    for _ in range(20):
        model = random_possibilistic_model(rng, n_states=3)
        records = random_trace(rng, 6)
        steps = sliding_effectiveness(records, model, len(records), engine="fast").steps
        state = run_forward(model, records)
        assert np.allclose([s.conflict for s in steps], state.conflict_log, atol=TOL)
        assert tuple(s.index for s in steps if s.reset) == state.resets
        assert state.current.conflict == 0.0  # always renormalized
        assert all(0.0 <= c <= 1.0 for c in state.conflict_log)


def test_engine_agrees_with_reference_under_explicit_prior():
    from evimon.iohmm import EvIohmm

    rng = np.random.default_rng(40)
    for _ in range(15):
        base = random_possibilistic_model(rng, n_states=3)
        raw = rng.random(8)
        raw[0] = 0.0
        prior = MassFunction(base.frame, raw / raw.sum())
        model = EvIohmm(
            base.frame,
            base.transitions,
            base.emissions,
            prior=prior,
            rule=str(rng.choice(["dempster", "yager", "dubois_prade"])),
            input_variables=base.input_variables,
            output_variables=base.output_variables,
        )
        records = random_trace(rng, 5)
        assert_engines_agree(records, model, 2, 1)


def graded_model(n, rule, prior=None):
    """Arc i->j reads input ``a<i>_<j>`` and state j's emission output
    ``e<j>``, each through ramp_up(0, 1), so a record's cell values in
    [0, 1] are the possibilities themselves."""
    from evimon.iohmm import EvIohmm
    from evimon.possibility import ramp_up

    return EvIohmm(
        Frame([f"s{i}" for i in range(n)]),
        [[cv((f"a{i}_{j}", ramp_up(0.0, 1.0))) for j in range(n)] for i in range(n)],
        [cv((f"e{j}", ramp_up(0.0, 1.0))) for j in range(n)],
        prior=prior,
        rule=rule,
    )


def graded_record(t, arcs, emission):
    n = len(emission)
    return TraceRecord(
        float(t),
        {f"a{i}_{j}": float(arcs[i][j]) for i in range(n) for j in range(n)},
        {f"e{j}": float(emission[j]) for j in range(n)},
    )


@st.composite
def graded_cases(draw):
    n = draw(st.integers(1, 8))
    # up to 24 records: the full pass scans chunks of 16 records
    length = draw(st.integers(1, 24))
    # no grade in (0, 0.05): with grades of 1e-6, K = 1 - 1e-6 * 1e-6 lands
    # on Dempster's reset threshold 1 - 1e-12, where the last bit of K
    # decides the reset and the engines, which round differently, can
    # disagree.  Near-total conflict is pinned by the exact oracle below
    grade = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.05, 1.0))
    cells = draw(hnp.arrays(np.float64, (length, n * n + n), elements=grade))
    prior = None
    kind = draw(st.sampled_from(["vacuous", "normal", "mass on the empty set"]))
    if kind != "vacuous":
        masses = draw(
            hnp.arrays(
                np.float64, 1 << n, elements=st.floats(1e-3, 1.0), fill=st.just(0.0)
            )
        )
        masses[0] = 0.0 if kind == "normal" else draw(st.floats(1e-3, 1.0))
        if masses.sum() == 0.0:
            masses[-1] = 1.0
        prior = MassFunction(Frame([f"s{i}" for i in range(n)]), masses / masses.sum())
    model = graded_model(n, draw(st.sampled_from(RULES)), prior)
    records = [
        graded_record(t, row[: n * n].reshape(n, n), row[n * n :])
        for t, row in enumerate(cells)
    ]
    window_len = draw(st.integers(1, length))
    return records, model, window_len, draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(graded_cases())
def test_contour_engine_matches_reference(case):
    assert_engines_agree(*case)


TINY, SMALL = 2.0**-44, 2.0**-36  # 1 - TINY >= 1 - 1e-13, 1 - SMALL <= 1 - 1e-11


def near_reset_records():
    """Two states' records whose conflicts are 1, 1 - TINY and 1 - SMALL:
    powers of two keep the reference's mass-space arithmetic exact this
    close to K = 1."""
    ones = [[1, 1], [1, 1]]
    return [
        graded_record(0, ones, [1.0, 0.5]),
        graded_record(1, [[0, 0], [0, 0]], [1.0, 1.0]),  # K == 1
        graded_record(2, [[2.0**-22] * 2] * 2, [2.0**-22] * 2),  # K == 1 - TINY
        graded_record(3, ones, [1.0, 1.0]),
        graded_record(4, [[2.0**-18] * 2] * 2, [2.0**-18, 0.0]),  # K == 1 - SMALL
        graded_record(5, ones, [TINY, 0.0]),  # K == 1 - TINY, also as a first step
        # state s0 leads nowhere: K is 1/2 after a reset, 1 without one
        graded_record(6, [[0, 0], [1, 1]], [1.0, 0.5]),
    ]


def test_dempster_reset_means_conflict_within_1e12_of_one():
    # K is one minus the area of the union of the rectangles [0, P_ik] x
    # [0, e_k]; a step resets to total ignorance iff K >= 1 - 1e-12
    model = graded_model(2, "dempster")
    report = assert_engines_agree(near_reset_records(), model, 2, 1)
    conflicts = [s.conflict for s in report.steps]
    assert conflicts[1] == 1.0
    assert conflicts[2] == 1.0 - TINY
    assert conflicts[4] == 1.0 - SMALL
    assert conflicts[6] == 0.5
    assert [s.index for s in report.steps if s.reset] == [1, 2, 5]
    # the window opened at record 5 resets on its first step as well
    assert report.windows[-1].start == 5
    assert report.windows[-1].value == TINY * 0.5


def assert_engines_match_exact(records, model, window_len, stride):
    """Both engines against the exact pass: conflicts and window values to
    1e-12, and the same resets."""
    conflicts, resets, values = exact_sliding(model, records, window_len, stride)
    for engine in ("fast", "reference"):
        report = sliding_effectiveness(
            records, model, window_len, stride, engine=engine
        )
        assert report.resets.tolist() == resets, engine
        for got, want in ((report.conflicts, conflicts), (report.values, values)):
            assert len(got) == len(want)
            gap = max(abs(a - float(b)) for a, b in zip(got.tolist(), want))
            assert gap <= 1e-12, engine


def test_engines_match_the_exact_oracle():
    # tiny grades leave 1 - K between about 1e-12 and 1e-6 on some steps,
    # where Dempster's division magnifies any residue on a mass that
    # should be 0: beliefs built through a Moebius inverse, whose residue
    # is about 1e-17, fail 3 of these 90 traces under Dempster
    for rule in RULES:
        assert_engines_match_exact(near_reset_records(), graded_model(2, rule), 2, 1)
    grades = [0.0, 1e-200, 1e-20, 2.0**-19, 0.5, 1.0]
    rng = np.random.default_rng(1)
    for trial in range(90):
        n = 1 + trial % 3
        records = [
            graded_record(t, rng.choice(grades, (n, n)), rng.choice(grades, n))
            for t in range(5)
        ]
        window_len, stride = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        for rule in RULES:
            assert_engines_match_exact(records, graded_model(n, rule), window_len, stride)


def test_graded_near_total_conflict_agrees_with_reference():
    # 1 - K is about 1e-9 at every step: dividing the Moebius rounding by
    # 1 - K used to push the reference's Dempster masses off a sum of 1
    n = 2
    arcs = [[1e-9, 1e-9], [1e-9, 1.0]]
    records = [graded_record(t, arcs, [1e-9, 1e-9]) for t in range(4)]
    for rule in RULES:
        report = assert_engines_agree(records, graded_model(n, rule), 2, 1)
        assert all(s.conflict > 1.0 - 1e-8 for s in report.steps)


def test_tiny_grades_agree_with_reference():
    # grades from 1e-200 to 1 on three states: the reference's Moebius
    # residue, divided by 1 - K near total conflict, once put its Dempster
    # conflicts up to 5.4e-4 off and its resets off in 4 of these 20 traces
    grades = [0.0, 1e-200, 1e-100, 1e-20, 2.0**-19, 0.5, 1.0]
    rng = np.random.default_rng(5)
    traces = [
        [
            graded_record(t, rng.choice(grades, (3, 3)), rng.choice(grades, 3))
            for t in range(100)
        ]
        for _ in range(20)
    ]
    for rule in RULES:
        for records in traces:
            assert_engines_agree(records, graded_model(3, rule), 5, 3)


# records per block: one chunk of the full pass's scan, or four; its
# fallback ``_carry`` scans them in chunks of 1, 1, 2, 4 and 8 records
BLOCKS = (1, 2, 5, 16, 64)


def with_rule(base, rule, prior=None):
    """``base`` under ``rule``, and ``prior`` (vacuous if None)."""
    from evimon.iohmm import EvIohmm

    return EvIohmm(
        base.frame, base.transitions, base.emissions, prior=prior, rule=rule,
        input_variables=base.input_variables, output_variables=base.output_variables,
    )


def with_priors(base, rule):
    """``base`` under ``rule``: with a vacuous prior, with a prior of four
    focal sets, one of them empty, and with one of the whole frame alone at
    mass 1 - 1e-12, which the engine must mix, not cut straight into its
    maps as it does a mass of exactly 1."""
    n = base.frame.size
    masses = np.zeros(1 << n)
    masses[[0, 1, 0b110, (1 << n) - 1]] = [0.1, 0.2, 0.3, 0.4]
    almost = np.zeros(1 << n)
    almost[-1] = 1.0 - 1e-12
    priors = [MassFunction(base.frame, m) for m in (masses, almost)]
    for prior in (None, *priors):
        yield with_rule(base, rule, prior)


def set_block(monkeypatch, model, records_per_block):
    """Make the engine build its maps ``records_per_block`` at a time."""
    from evimon import forward

    # one (N + 1) x (N + 3) map per record
    n = model.frame.size
    monkeypatch.setattr(forward, "_BLOCK_CELLS", records_per_block * (n + 1) * (n + 3))
    assert forward.ContourEngine(model)._block == records_per_block


def both_scans(monkeypatch):
    """Yield with the speculative scan, then with every block scanned by
    its fallback, the carried products of ``_carry``."""
    from evimon import forward

    yield
    with monkeypatch.context() as patch:
        patch.setattr(forward, "_scan", forward._carry)
        yield


@pytest.mark.parametrize("rule", RULES)
def test_block_length_does_not_change_the_report(rule, monkeypatch):
    # the engine builds each record's map a block of records at a time, and
    # the full pass scans each block in chunks, so the last bits may follow
    # the block where it falls back to ``_carry``, whose chunks are of
    # isqrt(block) records: with the speculative scan and with ``_carry``
    # alone, every block length must agree with the reference to 1e-9 and
    # with the default block to 1e-12, also under a prior of several focal
    # sets (one of them empty), whose start row is part of every block's
    # maps.  Windows that skip whole blocks (stride above the block
    # length), cross blocks (W above it) or span the trace must agree with
    # the reference: a buffer of pending maps whose first record moves
    # past the records read misplaces them.
    from evimon import bundled
    from evimon.modelfile import parse_model
    from evimon.trace import read_trace

    def block_lengths(model):
        for records_per_block in BLOCKS:
            set_block(monkeypatch, model, records_per_block)
            yield
        monkeypatch.undo()

    trace = read_trace(bundled.trace_path("speed_limits_mixed_600"))[160:220]
    for model in with_priors(parse_model(bundled.model_path("speed_limits")), rule):
        ref = sliding_effectiveness(trace, model, 7, 2, engine="reference")
        for _ in both_scans(monkeypatch):
            default = sliding_effectiveness(trace, model, 7, 2)
            for _ in block_lengths(model):
                report = sliding_effectiveness(trace, model, 7, 2)
                assert_reports_agree(report, ref)
                assert_reports_agree(report, default, tol=1e-12)

    # graded conflicts on every record, so that a window read from the
    # wrong records shows
    rng = np.random.default_rng(7)
    small = random_possibilistic_model(rng, n_states=3, rule=rule)
    short = random_trace(rng, 16)
    cases = [(2, 11), (1, 7), (3, 6), (8, 3), (len(short), 1)]
    for model in with_priors(small, rule):
        refs = {
            case: sliding_effectiveness(short, model, *case, engine="reference")
            for case in cases
        }
        for _ in both_scans(monkeypatch):
            defaults = {case: sliding_effectiveness(short, model, *case) for case in cases}
            for _ in block_lengths(model):
                for case, ref in refs.items():
                    report = sliding_effectiveness(short, model, *case)
                    assert_reports_agree(report, ref)
                    assert_reports_agree(report, defaults[case], tol=1e-12)


def concatenated_cuts(rule, rows, e):
    """Rows of ``M_t``: the transfer, then 0, the conflict and 1, put
    together by ``np.concatenate``.  The engine writes them in place; this
    formulation is kept as their oracle."""

    def increments(a):
        return np.diff(a, axis=2, prepend=0.0)

    order = (-e).argsort(axis=1)
    e_sorted = np.take_along_axis(e, order, axis=1)
    reach = np.maximum.accumulate(
        np.take_along_axis(rows, order[:, None, :], axis=2), axis=2
    )
    strips = increments(reach)
    area = strips @ e_sorted[:, :, None]
    if rule == "dubois_prade":
        ee = e[:, None, :]
        left = np.stack([
            (
                increments(np.minimum(reach[:, i, None, :], rows[:, i, :, None]))
                @ e_sorted[:, :, None]
            )[..., 0]
            for i in range(rows.shape[1])
        ], axis=1)
        below = strips @ np.minimum(e_sorted[:, :, None], ee)
        both_empty = (1.0 - reach[:, :, -1:]) * (1.0 - e_sorted[:, None, :1])
        transfer = rows * ee + (rows - left) + (ee - below) + both_empty
    else:
        transfer = rows * e[:, None, :]
        if rule == "yager":
            transfer += 1.0 - area
    readout = (np.zeros_like(area), 1.0 - area, np.ones_like(area))
    return np.concatenate((transfer, *readout), axis=2)


def engine_maps(eng, records):
    """Every record's map, each block's written by ``ContourEngine._maps``."""
    from evimon.trace import Trace

    trace, n = Trace.from_records(records), eng.start.shape[1] - 1
    maps = np.empty((len(trace), n + 1, n + 3))
    for first in range(0, len(trace), eng._block):
        block = trace[first : first + eng._block]
        eng._maps(block, int(first == 0), maps[first : first + len(block)])
    return maps


def concatenated_maps(model, records):
    """Every record's map, each block's built by ``concatenated_cuts``."""
    from evimon.forward import ContourEngine
    from evimon.trace import Trace

    eng, n = ContourEngine(model), model.frame.size
    trace = Trace.from_records(records)
    focal = np.flatnonzero(model.prior.masses)
    crisp = ((focal[:, None] >> np.arange(n)) & 1).astype(float)
    blocks = []
    for first in range(0, len(trace), eng._block):
        block = trace[first : first + eng._block]
        size, skip = len(block), int(first == 0)
        inputs, outputs = eng._read(block, skip)
        e = eng._emissions.values(outputs, size)
        maps = np.ones((size, n + 1, n + 3))
        arcs = eng._rows.values(inputs, size, skip)[skip:, :n]
        maps[skip:, :n] = concatenated_cuts(model.rule, arcs, e[skip:])
        starts = concatenated_cuts(model.rule, crisp[None].repeat(size, 0), e)
        maps[:, n] = model.prior.masses[focal] @ starts
        blocks.append(maps)
    return np.concatenate(blocks)


def tied_records(rng, n, length):
    """Records of ``graded_model(n, ...)`` whose emissions tie: each puts
    two or three states at grade 1.0, two or three at 0.0 and the rest in
    between; its arcs are graded, 0.0 or 1.0."""
    records = []
    for t in range(length):
        ones, zeros = rng.integers(2, 4, size=2)
        emission = rng.uniform(0.05, 1.0, n)
        emission[:ones], emission[ones : ones + zeros] = 1.0, 0.0
        arcs = rng.choice([0.0, 1.0, 0.5], (n, n)) * (rng.random((n, n)) < 0.8)
        arcs[rng.random((n, n)) < 0.5] = rng.uniform(0.05, 1.0)
        records.append(graded_record(t, arcs, rng.permutation(emission)))
    return records


@pytest.mark.parametrize("rule", RULES)
def test_in_place_maps_equal_the_concatenated_maps(rule, monkeypatch):
    # the engine writes each block's maps in place, in parts of at most
    # half a block, cuts a part's arc rows and the prior's crisp rows
    # together, and straight into the maps for one focal set of mass
    # exactly 1, sorts Dempster's and Yager's rows in place after their
    # transfer, and under Dubois-Prade builds each cut's strips by clipping
    # and sums a row's terms in another order (a + b = b + a exactly); the
    # maps must equal the concatenated formulation's bit for bit, with 3, 8
    # and 11 states, under a vacuous prior, one of four focal sets and the
    # whole frame at mass 1 - 1e-12, at blocks of 1 and 7 records and at
    # the default block.  The 8-state
    # records tie their emissions at 1.0 and at 0.0, where the descending
    # order of each record's grades is not unique, and span a default block
    # and a half
    from evimon import bundled
    from evimon.forward import ContourEngine
    from evimon.modelfile import parse_model
    from evimon.trace import read_trace

    rng = np.random.default_rng(20)
    speed = parse_model(bundled.model_path("speed_limits"))
    tied = graded_model(8, rule)
    cases = [
        (random_possibilistic_model(rng, n_states=3), random_trace(rng, 40)),
        (speed, read_trace(bundled.trace_path("speed_limits_mixed_600"))[150:270]),
        (tied, tied_records(rng, 8, ContourEngine(tied)._block * 3 // 2)),
    ]
    for base, records in cases:
        for model in with_priors(base, rule):
            for records_per_block in (1, 7, None):
                held = records
                if records_per_block:  # at most 120 records, a block at a time
                    set_block(monkeypatch, model, records_per_block)
                    held = records[:120]
                maps = engine_maps(ContourEngine(model), held)
                assert maps.tobytes() == concatenated_maps(model, held).tobytes()
                monkeypatch.undo()


@pytest.mark.parametrize("rule", ["dempster", "dubois_prade"])
@pytest.mark.parametrize(
    "name, scenario",
    [("ride_comfort", "mixed"), ("speed_limits", "comfort"), ("never_forgetting", None)],
)
def test_a_block_holds_a_few_times_the_bytes_of_its_maps(name, scenario, rule, monkeypatch):
    # a block's maps take (N + 1) x (N + 3) floats a record.  The block
    # writes them in place, in parts of at most half a block, and frees
    # its columns, values and scan arrays before the next one, so a pass
    # over 2.5 blocks peaks under 3 times the bytes of one block's maps:
    # 1.94 and 2.63 times with 3 states, 1.82 and 2.50 with 11, under
    # Dempster and Dubois-Prade, whose parts cut the prior's rows with the
    # arc rows (1.88, 2.49, 1.79 and 2.44 while they were cut apart;
    # Dempster took 2.30 and 2.28 while its scan copied the
    # block's transition columns to put its reset rows in).  It took 3.6
    # to 5.1 times while each block built its maps whole, with the sorted
    # rows, their running max and their strips each an array of its own,
    # and 7.5 to 10.5 times while each block's maps were concatenated and
    # its arrays kept.  The same bound holds with ``_carry`` scanning every
    # block, and on a model that never forgets, where every block's
    # speculation falls back to ``_carry`` while its own arrays are held
    # (2.33 and 2.67 times)
    import tracemalloc

    from evimon import bundled
    from evimon.forward import ContourEngine
    from evimon.generate import generate_trace
    from evimon.modelfile import parse_model
    from evimon.trace import Trace

    if scenario is None:
        model = never_forgetting_model(rule)
        block = ContourEngine(model)._block
        records = random_trace(np.random.default_rng(3), block * 5 // 2)
    else:
        model = with_rule(parse_model(bundled.model_path(name)), rule)
        block = ContourEngine(model)._block
        records, _ = generate_trace(model, scenario, block * 5 // 2, 3)
    trace, n = Trace.from_records(records), model.frame.size
    for _ in both_scans(monkeypatch):
        sliding_effectiveness(trace, model, 10, 1)  # warm-up
        tracemalloc.start()
        try:
            sliding_effectiveness(trace, model, 10, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * block * (n + 1) * (n + 3) * 8


@pytest.mark.parametrize("rule", RULES)
def test_a_pass_reads_no_memory_it_did_not_write(rule, monkeypatch):
    # the engine writes each block's maps into a buffer from np.empty and
    # overwrites its arrays in place: a cell read before it is written
    # would carry whatever the allocator left there.  A second pass whose
    # np.empty fills floats with NaN and integers with their largest value
    # must write the bytes of the first, at blocks of 1 and 7 records and
    # at the default block, with windows that cross blocks (W above a
    # block) and that skip them (stride above a block), with the
    # speculative scan and with ``_carry``, which pads its last chunk in
    # the buffer and rewrites Dempster's reset rows there
    from evimon import bundled
    from evimon.forward import ContourEngine
    from evimon.modelfile import parse_model
    from evimon.trace import read_trace

    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan if out.dtype.kind == "f" else np.iinfo(out.dtype).max)
        return out

    trace = read_trace(bundled.trace_path("speed_limits_mixed_600"))
    for model in with_priors(parse_model(bundled.model_path("speed_limits")), rule):
        for _ in both_scans(monkeypatch):
            for records_per_block in (1, 7, None):
                held = trace
                if records_per_block:  # 120 records around the breach at 450-452
                    set_block(monkeypatch, model, records_per_block)
                    held = trace[400:520]
                block = ContourEngine(model)._block
                for shape in ((50, 3), (block + 3, 2), (3, block + 2)):
                    first = sliding_effectiveness(held, model, *shape)
                    with monkeypatch.context() as poison:
                        poison.setattr(np, "empty", poisoned)
                        second = sliding_effectiveness(held, model, *shape)
                    for name in ("conflicts", "values", "resets"):
                        written = getattr(first, name), getattr(second, name)
                        assert written[0].tobytes() == written[1].tobytes()
                monkeypatch.undo()


def stepwise_conflicts(model, records):
    """The full pass one record at a time, each step read from the engine."""
    from evimon.forward import ContourEngine

    eng = ContourEngine(model)
    state, conflicts = eng.start, []
    for operand in engine_maps(eng, records):
        conflict, state = eng.step(state, operand)
        conflicts.append(float(conflict[0]))
    return np.clip(conflicts, 0.0, 1.0)


@pytest.mark.parametrize("rule", RULES)
def test_chunked_scan_agrees_with_reference(rule, monkeypatch):
    # with the speculative scan, and with its fallback alone, which cuts
    # each block into chunks of isqrt(block) records;
    # 141 records leave ragged last chunks (blocks of 5 are chunks of 2, 2
    # and 1; the last block of 13 records is chunks of 3, 3, 3, 3 and 1).
    # Records 72, 75 and 76 conflict totally: a Dempster reset at a
    # chunk's first step and one inside a chunk, for every block length
    # above 2.  Record 101 leaves only s0 plausible, and record 102 maps s0
    # to nothing and s1 to everything: an ambiguous step, which resets;
    # record 103 is the same and does not (K = 1/2 from the reset state).
    rng = np.random.default_rng(12)
    model = graded_model(2, rule)
    records = [
        graded_record(t, rng.uniform(0.05, 1.0, (2, 2)), rng.uniform(0.05, 1.0, 2))
        for t in range(141)
    ]
    for t in (72, 75, 76):
        records[t] = graded_record(t, [[0, 0], [0, 0]], [1.0, 1.0])
    records[101] = graded_record(101, [[1, 1], [1, 1]], [1.0, 0.0])
    for t in (102, 103):
        records[t] = graded_record(t, [[0, 0], [1, 1]], [1.0, 1.0])
    ref = sliding_effectiveness(records, model, 7, 3, engine="reference")
    for _ in both_scans(monkeypatch):
        for records_per_block in BLOCKS:
            set_block(monkeypatch, model, records_per_block)
            report = sliding_effectiveness(records, model, 7, 3)
            assert_reports_agree(report, ref)
            assert report.steps[103].conflict == 0.5
            if rule == "dempster":
                assert [s.index for s in report.steps if s.reset] == [72, 75, 76, 102]


@pytest.mark.parametrize("rule", RULES)
def test_chunked_scan_keeps_tiny_grades(rule, monkeypatch):
    # with the speculative scan, and with its fallback alone: there each
    # chunk's product rescales its rows to a max of 1 and keeps their
    # log scales, and the walk over the chunk boundaries rescales by the
    # rows the state weighs.  Grades down to 1e-200 must turn no exact 0
    # into a non-zero and no non-zero into 0, so the conflicts match the
    # record-by-record pass at both ends, and the reference to 1e-9.  Most
    # records keep every row in play through a shared state k, so that the
    # steps do not all reset.
    rng = np.random.default_rng(13)
    grades = [0.0, 1e-200, 1e-100, 1e-30, 2.0**-19, 0.5, 1.0]
    model = graded_model(3, rule)
    records = []
    for t in range(141):
        arcs, emission = rng.choice(grades, (3, 3)), rng.choice(grades, 3)
        if rng.random() < 0.8:
            k = rng.integers(3)
            arcs[:, k] = emission[k] = 1.0
        records.append(graded_record(t, arcs, emission))
    expected = stepwise_conflicts(model, records)
    ref = sliding_effectiveness(records, model, 5, 2, engine="reference")
    for _ in both_scans(monkeypatch):
        for records_per_block in BLOCKS:
            set_block(monkeypatch, model, records_per_block)
            report = sliding_effectiveness(records, model, 5, 2)
            conflicts = np.array([s.conflict for s in report.steps])
            assert np.allclose(conflicts, expected, rtol=0.0, atol=1e-12)
            assert ((conflicts == 0.0) == (expected == 0.0)).all()
            assert ((conflicts == 1.0) == (expected == 1.0)).all()
            assert_reports_agree(report, ref)

    # the only plausible state s1 keeps a transfer of 2**-38 per step while
    # s0 keeps 1: 900 records are one block at N = 2, scanned in chunks of
    # 30, over which s1's row scale falls to 2**-1140.  Scaled by the
    # largest of all rows, the state would underflow to 0 and read 0 / 0.
    monkeypatch.undo()
    tiny = 2.0**-19
    records = [
        graded_record(0, [[1, 1], [1, 1]], [1.0, 1.0]),
        graded_record(1, [[1, 1], [1, 1]], [0.0, 1.0]),
    ] + [graded_record(t, [[1, 0], [0, tiny]], [1.0, tiny]) for t in range(2, 900)]
    for _ in both_scans(monkeypatch):
        report = assert_engines_agree(records, graded_model(2, rule), 2, 299)
        if rule == "dempster":
            assert all(s.conflict == 1.0 - tiny**2 for s in report.steps[2:])


def scan_paths(monkeypatch):
    """Count the full pass's block scans and their ``_carry`` fallbacks."""
    from evimon import forward

    calls = collections.Counter()
    for name in ("_scan", "_carry"):

        def spy(*args, _name=name, _wrapped=getattr(forward, name)):
            calls[_name] += 1
            return _wrapped(*args)

        monkeypatch.setattr(forward, name, spy)
    return calls


def assert_stepwise_pass(report, model, records):
    """The report's conflicts are the record-by-record pass's, bit for bit,
    and its resets are where that pass resets."""
    from evimon.belief import _TOTAL_CONFLICT_EPS

    expected = stepwise_conflicts(model, records)
    assert report.conflicts.tobytes() == expected.tobytes()
    resets = np.flatnonzero(expected >= 1.0 - _TOTAL_CONFLICT_EPS)
    assert report.resets.tolist() == (resets.tolist() if model.rule == "dempster" else [])


@pytest.mark.parametrize("rule", RULES)
def test_a_forgetting_model_is_scanned_in_speculative_chunks_alone(rule, monkeypatch):
    # a bundled model's passes forget where they started within a few
    # records, so each chunk, started _WARM records early from the start
    # row, holds its predecessor's end stack at its first record: every
    # seam agrees at once, and the conflicts are the record-by-record
    # pass's, over blocks of 50 and 257 records and the default block
    from evimon import bundled
    from evimon.generate import generate_trace
    from evimon.modelfile import parse_model

    model = with_rule(parse_model(bundled.model_path("ride_comfort")), rule)
    records, _ = generate_trace(model, "mixed", 700, 2)
    for records_per_block, blocks in ((50, 14), (257, 3), (None, 1)):
        with monkeypatch.context() as patch:
            if records_per_block:
                set_block(patch, model, records_per_block)
            calls = scan_paths(patch)
            report = sliding_effectiveness(records, model, 10, 10)
        assert (calls["_scan"], calls["_carry"]) == (blocks, 0)
        assert_stepwise_pass(report, model, records)


@pytest.mark.parametrize("rule", RULES)
def test_a_kept_scan_is_the_record_by_record_pass_at_any_block_length(rule, monkeypatch):
    # wherever no block falls back, the conflicts are the record-by-record
    # pass's bits at blocks of 37, 50 and 77 records, none a whole number
    # of chunks: a block's last chunk stops at the block's end.  Stepping
    # on through identity pads would divide the state handed to the next
    # block by its sum, which moved the bits of 21 of 55 such cases
    kept = 0
    for seed in range(10):
        rng = np.random.default_rng([36, seed])
        model = random_possibilistic_model(rng, n_states=2 + seed % 3, rule=rule)
        records = random_trace(rng, 200)
        for records_per_block in (37, 50, 77):
            with monkeypatch.context() as patch:
                set_block(patch, model, records_per_block)
                calls = scan_paths(patch)
                report = sliding_effectiveness(records, model, 5, 5)
            if not calls["_carry"]:
                kept += 1
                assert_stepwise_pass(report, model, records)
    assert kept >= 10


def never_forgetting_model(rule):
    """Three states that each keep to themselves: arcs of possibility 1 on
    the diagonal and 0.1 or forbidden off it, and emissions constant(1),
    constant(0.5) and a trapezoid.  A pass keeps the ratios of its start's
    contour, so no chunk started early holds its predecessor's end stack."""
    from evimon.iohmm import EvIohmm
    from evimon.possibility import ConstraintVector, constant, trapezoid

    def arc(i, j):
        if i == j:
            return cv(("u", constant(1.0)))
        return ConstraintVector.forbidden() if (i + j) % 2 else cv(("u", constant(0.1)))

    emissions = [constant(1.0), constant(0.5), trapezoid(2.0, 4.0, 6.0, 8.0)]
    return EvIohmm(
        Frame(["s0", "s1", "s2"]),
        [[arc(i, j) for j in range(3)] for i in range(3)],
        [cv(("y", dist)) for dist in emissions],
        rule=rule,
        input_variables=("u",),
        output_variables=("y",),
    )


@pytest.mark.parametrize("rule", RULES)
def test_a_model_that_never_forgets_falls_back_to_the_carried_products(rule, monkeypatch):
    # seams fail in every block, so each block is scanned by ``_carry``:
    # its chunk products carried over the chunk seams, which agree with
    # the record-by-record pass to 1e-12 and keep its exact 0s and 1s
    rng = np.random.default_rng(34)
    model = never_forgetting_model(rule)
    records = random_trace(rng, 300)
    expected = stepwise_conflicts(model, records)
    ref = sliding_effectiveness(records, model, 10, 10, engine="reference")
    for records_per_block, blocks in ((64, 5), (100, 3), (None, 1)):
        with monkeypatch.context() as patch:
            if records_per_block:
                set_block(patch, model, records_per_block)
            calls = scan_paths(patch)
            report = sliding_effectiveness(records, model, 10, 10)
        assert calls["_scan"] == calls["_carry"] == blocks
        assert_reports_agree(report, ref)
        assert np.allclose(report.conflicts, expected, rtol=0.0, atol=1e-12)
        assert ((report.conflicts == 0.0) == (expected == 0.0)).all()
        assert ((report.conflicts == 1.0) == (expected == 1.0)).all()


@pytest.mark.parametrize("rule", RULES)
def test_a_stack_row_steps_to_the_same_bits_batched_or_alone(rule):
    # the seam test trusts a chunk whose first stack equals the true
    # pass's: it assumes that ``step`` gives a row the same bits whether it
    # is stepped alone on its own map, or in a stack of per-pass maps,
    # contiguous or a strided view of a grid of chunks.  Random stacks, with
    # exact 0s and 1s, and the passes' own stacks, on each bundled model
    from evimon import bundled
    from evimon.forward import ContourEngine
    from evimon.generate import generate_trace
    from evimon.modelfile import parse_model

    rng = np.random.default_rng(35)
    cases = [
        ("speed_limits", "breach"),
        ("ride_comfort", "mixed"),
        ("luminosity", "mixed"),
        ("luminosity_crisp", "mixed"),
    ]
    for name, scenario in cases:
        model = with_rule(parse_model(bundled.model_path(name)), rule)
        eng, n = ContourEngine(model), model.frame.size
        maps = engine_maps(eng, generate_trace(model, scenario, 160, 3)[0])
        passes = [eng.start]
        for operand in maps[:-1]:
            passes.append(eng.step(passes[-1], operand)[1])
        random = rng.random((160, n + 1))
        random[rng.random((160, n + 1)) < 0.3] = 0.0
        random[rng.random((160, n + 1)) < 0.2] = 1.0
        random[random.sum(1) == 0.0, 0] = 1.0
        grid = maps.reshape(10, 16, n + 1, n + 3)
        for stacks in (np.concatenate(passes), random):
            alone = [eng.step(stacks[i : i + 1], maps[i]) for i in range(160)]
            batches = [(range(160), eng.step(stacks, maps))]
            for j in range(16):  # a view: chunk k's j-th map is map 16k + j
                rows = range(j, 160, 16)
                batches.append((rows, eng.step(stacks[rows.start :: 16], grid[:, j])))
            for rows, (conflicts, stepped) in batches:
                for i, conflict, stack in zip(rows, conflicts, stepped):
                    assert conflict.tobytes() == alone[i][0].tobytes()
                    assert stack.tobytes() == alone[i][1][0].tobytes()


@pytest.mark.parametrize("rule", RULES)
def test_window_grid_agrees_with_reference(rule):
    # windows advance by offset over a buffer of pending maps.  Strides
    # above 1, windows shorter than their stride, several windows ready
    # in one block and W = T catch a window read from the wrong maps.
    rng = np.random.default_rng(91)
    model = random_possibilistic_model(rng, n_states=3, rule=rule)
    records = random_trace(rng, 25)
    grid = [(1, 1), (1, 4), (3, 1), (5, 2), (7, 3), (4, 4), (2, 5), (len(records), 1)]
    for window_len, stride in grid:
        assert_engines_agree(records, model, window_len, stride)


def stepwise_windows(model, records, window_len, stride):
    """Every window advanced on its own, one record at a time, each step
    read from the engine, and its value the product of (1 - conflict)."""
    from evimon.forward import ContourEngine

    eng = ContourEngine(model)
    maps = engine_maps(eng, records)
    values = []
    for first in range(0, len(records) - window_len + 1, stride):
        state, log = eng.start, []
        for operand in maps[first : first + window_len]:
            conflict, state = eng.step(state, operand)
            log.append(float(conflict[0]))
        values.append(np.prod(1.0 - np.clip(log, 0.0, 1.0)))
    return np.array(values)


@pytest.mark.parametrize("rule", RULES)
def test_windows_over_an_exact_breach_are_exactly_0(rule, monkeypatch):
    # a record whose rows all conflict totally (emission all 0) reads 1
    # from any stack: every window over it is exactly 0 and never
    # advances.  The test of a breach takes every row: arcs that all map
    # to nothing conflict totally on the arc rows alone, which a window
    # never weighs at its first step, and under a prior on {s0} an
    # emission [0, 1] conflicts totally on the start row alone, which no
    # window weighs after its first step.  Near-breaches (K = 1 - 2**-44)
    # are no breach.  Blocks of 1 to 64 records make batches of windows
    # that are all dead, all live or mixed, and blocks that open none.
    # Windows read the maps after the full pass, so the same must hold
    # when ``_carry`` scans every block and rewrites Dempster's reset rows.
    rng = np.random.default_rng(18)
    tiny = 2.0**-44
    kinds = ["graded"] * 90
    for t in (9, 33, 34, 70):
        kinds[t] = "breach"
    for t in (0, 15, 52):
        kinds[t] = "near-breach"
    for t in (20, 44, 61, 80):
        kinds[t] = "arc rows"
    for t in (1, 26, 27, 57, 85):
        kinds[t] = "start row"
    records = []
    for t, kind in enumerate(kinds):
        arcs, emission = rng.uniform(0.05, 1.0, (2, 2)), rng.uniform(0.05, 1.0, 2)
        if kind == "breach":
            emission = [0.0, 0.0]
        elif kind == "near-breach":
            arcs, emission = [[1, 1], [1, 1]], [tiny, 0.0]
        elif kind == "arc rows":
            arcs, emission = [[0, 0], [0, 0]], [1.0, 1.0]
        elif kind == "start row":
            emission = [0.0, 1.0]
        records.append(graded_record(t, arcs, emission))
    frame = Frame(["s0", "s1"])
    grid = [(1, 1), (1, 4), (2, 3), (3, 1), (5, 7), (7, 3), (12, 5), (len(kinds), 1)]
    seen = {"arc rows": 0, "start row": 0}
    for prior in (None, categorical(frame, {"s0"})):
        model = graded_model(2, rule, prior)
        refs = {
            case: sliding_effectiveness(records, model, *case, engine="reference")
            for case in grid
        }
        for _ in both_scans(monkeypatch):
            for records_per_block in BLOCKS:
                set_block(monkeypatch, model, records_per_block)
                for (window_len, stride), ref in refs.items():
                    report = sliding_effectiveness(records, model, window_len, stride)
                    assert_reports_agree(report, ref)
                    expected = stepwise_windows(model, records, window_len, stride)
                    assert report.values.tobytes() == expected.tobytes()
                    for window in report.windows:
                        held = kinds[window.start : window.end + 1]
                        start_row = prior is not None and held[0] == "start row"
                        if "breach" in held:
                            assert window.value == 0.0
                        elif "arc rows" not in held[1:] and not start_row:
                            assert window.value > 0.0
                            seen["arc rows"] += held[0] == "arc rows"
                            seen["start row"] += (
                                prior is not None and "start row" in held[1:]
                            )
            monkeypatch.undo()
    assert seen["arc rows"] and seen["start row"]


@pytest.mark.parametrize("rule", RULES)
def test_a_long_live_window_is_a_running_product(rule):
    # a batch of windows keeps a running product of its factors, not a
    # log of W conflicts a window: 1000-record windows at stride 1 over a
    # tolerance trace, none of them 0, must take the bits of each window's
    # product of (1 - conflict), multiplied by np.prod
    from evimon import bundled
    from evimon.generate import generate_trace
    from evimon.modelfile import parse_model

    model = with_rule(parse_model(bundled.model_path("ride_comfort")), rule)
    records, _ = generate_trace(model, "tolerance", 1024, 7)
    report = sliding_effectiveness(records, model, 1000, 1)
    assert len(report.values) == 25 and (report.values > 0.0).all()
    expected = stepwise_windows(model, records, 1000, 1)
    assert report.values.tobytes() == expected.tobytes()


# sha256 of float.hex of every conflict, then every window value, of
# five seeded random models per rule, whose transition rows depend on the
# source state.  The speculative scan moved 2 Yager and 7 Dubois-Prade
# conflicts, by at most 2.2e-16, to the record-by-record pass's bits;
# three Dubois-Prade cases fall back to ``_carry`` and keep their bits
ENGINE_DIGESTS = {
    "dempster": "ed6c571cf777bab357c155fdb62bc04b867c93dfd27ee0edabf77d707d2e9d6c",
    "yager": "5d5a1340adc2683f67176e0a7deff4153c862bf6a230e55b65b17bc9d7f3b6d8",
    "dubois_prade": "c390b1ddc5efd5d513e559730dc91471960920b15cc31a5f1c7c436fc5278421",
}


@pytest.mark.parametrize("rule", RULES)
def test_engine_bits_are_pinned(rule, monkeypatch):
    # agreement with the reference to 1e-9 lets the last bits move; this
    # digest does not.  A change that moves them must say so and re-pin.
    # Each case that no block of falls back has the record-by-record
    # pass's conflicts
    rng = np.random.default_rng(2024)
    digest = hashlib.sha256()
    for trial in range(5):
        model = random_possibilistic_model(
            rng, n_states=2 + trial % 3, rule=rule, multivariate=trial % 2 == 1
        )
        records = random_trace(
            rng, 30, model.input_variables, model.output_variables
        )
        with monkeypatch.context() as patch:
            calls = scan_paths(patch)
            report = sliding_effectiveness(records, model, 6, 2)
        if not calls["_carry"]:
            expected = stepwise_conflicts(model, records)
            assert report.conflicts.tobytes() == expected.tobytes()
        values = [s.conflict for s in report.steps] + [w.value for w in report.windows]
        digest.update("\n".join(v.hex() for v in values).encode())
    assert digest.hexdigest() == ENGINE_DIGESTS[rule]


def drop(record, side, variable):
    values = dict(getattr(record, side))
    del values[variable]
    return dataclasses.replace(record, **{side: values})


def put(record, side, variable, value):
    return dataclasses.replace(
        record, **{side: {**getattr(record, side), variable: value}}
    )


@pytest.mark.parametrize(
    "change, variable, context",
    [
        # arcs are evaluated before emissions, row by row
        (lambda r: drop(drop(r, "inputs", "a1_1"), "outputs", "e0"),
         "a1_1", "transition s1->s1"),
        (lambda r: drop(drop(r, "inputs", "a1_1"), "inputs", "a0_1"),
         "a0_1", "transition s0->s1"),
        (lambda r: drop(r, "outputs", "e1"), "e1", "emission of state s1"),
    ],
)
@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_missing_variable_is_located_after_the_first_record(
    change, variable, context, engine, monkeypatch
):
    from evimon import forward

    # blocks of three records: the bad record opens the second block, and
    # a later record of that block fails too but is not the one reported
    monkeypatch.setattr(forward, "_BLOCK_CELLS", 12, raising=False)
    model = graded_model(2, "dempster")
    records = [graded_record(t, [[0.5, 1], [1, 0.5]], [1, 0.5]) for t in range(6)]
    records[3] = change(records[3])
    records[4] = drop(records[4], "outputs", "e0")
    with pytest.raises(MissingVariable) as err:
        sliding_effectiveness(records, model, 2, 1, engine=engine)
    assert (err.value.variable, err.value.context) == (variable, context)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("side, variable", [("inputs", "a1_0"), ("outputs", "e1")])
@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_non_finite_observation_is_rejected(side, variable, value, engine, monkeypatch):
    from evimon import forward

    monkeypatch.setattr(forward, "_BLOCK_CELLS", 12, raising=False)
    model = graded_model(2, "yager")
    records = [graded_record(t, [[0.5, 1], [1, 0.5]], [1, 0.5]) for t in range(6)]
    records[3] = put(records[3], side, variable, value)
    with pytest.raises(ValueError, match="observation must be finite"):
        sliding_effectiveness(records, model, 2, 1, engine=engine)


def test_parallel_traces_share_one_model():
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(42)
    model = random_possibilistic_model(rng, n_states=3)
    traces = [random_trace(np.random.default_rng(100 + k), 12) for k in range(6)]
    sequential = [sliding_effectiveness(t, model, 4, 1) for t in traces]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda t: sliding_effectiveness(t, model, 4, 1), traces))
    for a, b in zip(sequential, parallel):
        assert [s.conflict for s in a.steps] == [s.conflict for s in b.steps]
        assert [w.value for w in a.windows] == [w.value for w in b.windows]


def test_engine_no_drift_on_long_traces():
    rng = np.random.default_rng(41)
    for rule in ("dempster", "yager"):
        model = random_possibilistic_model(rng, n_states=3, rule=rule)
        records = random_trace(rng, 200)
        steps = sliding_effectiveness(records, model, len(records), engine="fast").steps
        conflicts = [s.conflict for s in steps]
        state = run_forward(model, records)
        assert np.max(np.abs(np.array(conflicts) - np.array(state.conflict_log))) <= TOL


def test_engine_agrees_with_reference_on_eleven_states():
    # spot check on the bundled wide-frame model, dip window included
    from evimon import bundled
    from evimon.modelfile import parse_model
    from evimon.trace import read_trace

    model = parse_model(bundled.model_path("speed_limits"))
    trace = read_trace(bundled.trace_path("speed_limits_mixed_600"))
    for start in (0, 170, 180, 448):
        window = trace[start : start + 10]
        steps = sliding_effectiveness(window, model, 10, engine="fast").steps
        fast = [s.conflict for s in steps]
        state = forward_init(model, trace[start].outputs)
        for rec in trace[start + 1 : start + 10]:
            state = forward_step(state, model, rec.inputs, rec.outputs)
        assert np.allclose(fast, state.conflict_log, atol=TOL)


# ---------------------------------------------------------------------------
# monotonicity: wider tolerance never increases a step's conflict
# ---------------------------------------------------------------------------

def widen(dist):
    from evimon import possibility as ps

    if dist.kind == "ramp_up":
        a, b = dist.params
        return ps.ramp_up(a - 1.0, b - 1.0 if b - 1.0 > a - 1.0 else b)
    if dist.kind == "ramp_down":
        a, b = dist.params
        return ps.ramp_down(a + 1.0, b + 1.5)
    if dist.kind == "trapezoid":
        a, b, c, d = dist.params
        return ps.trapezoid(a - 1.0, b - 0.5, c + 0.5, d + 1.0)
    if dist.kind == "crisp_interval":
        lo, hi = dist.params
        return ps.crisp_interval(lo - 1.0, hi + 1.0)
    return dist


def test_step_effectiveness_monotone_under_zone_enlargement():
    rng = np.random.default_rng(37)
    from evimon.iohmm import EvIohmm
    from evimon.possibility import Constraint, ConstraintVector

    for _ in range(40):
        model = random_possibilistic_model(rng, n_states=3)
        u = {"u": float(rng.uniform(0, 10))}
        y = {"y": float(rng.uniform(0, 10))}
        prior_raw = rng.random(8)
        prior_raw[0] = 0.0
        prior = MassFunction(model.frame, prior_raw / prior_raw.sum())

        def step_eff(m):
            rows = build_transition_rows(m, u)
            pred = predict(prior, rows)
            from evimon.belief import conflict_mass

            return 1.0 - conflict_mass(pred, emission_bba(m, y))

        base = step_eff(model)
        # widen one random curve
        widened_tr = [list(row) for row in model.transitions]
        widened_em = list(model.emissions)
        if rng.random() < 0.5:
            i, j = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            old = widened_tr[i][j]
            widened_tr[i][j] = ConstraintVector(
                tuple(
                    Constraint(e.variable, widen(e.distribution), e.inhibited)
                    for e in old.entries
                )
            )
        else:
            j = int(rng.integers(0, 3))
            widened_em[j] = ConstraintVector(
                tuple(
                    Constraint(e.variable, widen(e.distribution), e.inhibited)
                    for e in widened_em[j].entries
                )
            )
        widened = EvIohmm(
            model.frame,
            tuple(tuple(row) for row in widened_tr),
            tuple(widened_em),
            rule=model.rule,
            input_variables=model.input_variables,
            output_variables=model.output_variables,
        )
        assert step_eff(widened) >= base - TOL


# ---------------------------------------------------------------------------
# Bayesian reduction (mini version; the full sweep is in acceptance)
# ---------------------------------------------------------------------------

def test_bayesian_reduction_mini():
    rng = np.random.default_rng(38)
    for _ in range(20):
        frame, mats, emissions = random_bayesian_structures(rng, 3, 5)
        got = evidential_bayesian_effectiveness(frame, mats, emissions)
        expected = brute_force_path_sum(mats, emissions)
        assert got == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# deterministic test and crisp reduction
# ---------------------------------------------------------------------------

def test_deterministic_test_examples():
    model = luminosity_crisp_model()
    trace = [
        TraceRecord(0.0, {}, {"lum": 2.0}),
        TraceRecord(1.0, {"pres": 2.0}, {"lum": 3.0}),
    ]
    assert deterministic_test(model, ["x1", "x1"], trace) == 1
    trace_bad = [
        TraceRecord(0.0, {}, {"lum": 2.0}),
        TraceRecord(1.0, {"pres": 10.0}, {"lum": 3.0}),
    ]
    assert deterministic_test(model, ["x1", "x1"], trace_bad) == 0
    assert best_deterministic_test(model, trace_bad) == 0
    with pytest.raises(LengthMismatch):
        deterministic_test(model, ["x1"], trace)
    with pytest.raises(ValidationError):
        deterministic_test(luminosity_model(), ["x1", "x1"], trace)
    # in this order: a model not all crisp, a length, then a state
    with pytest.raises(ValidationError):
        deterministic_test(luminosity_model(), ["x9"], trace)
    with pytest.raises(ValidationError):
        best_deterministic_test(luminosity_model(), trace)
    with pytest.raises(LengthMismatch):
        deterministic_test(model, ["x9"], trace)
    with pytest.raises(KeyError):
        deterministic_test(model, ["x1", "x9"], trace)


def test_deterministic_test_of_an_empty_trace():
    model = luminosity_crisp_model()
    with pytest.raises(EmptyLog):
        deterministic_test(model, [], [])
    with pytest.raises(EmptyLog):
        best_deterministic_test(model, [])
    # a model not all crisp, then a length, come first
    with pytest.raises(ValidationError):
        deterministic_test(luminosity_model(), [], [])
    with pytest.raises(ValidationError):
        best_deterministic_test(luminosity_model(), [])
    with pytest.raises(LengthMismatch):
        deterministic_test(model, ["x1"], [])


def test_crisp_reduction_mini():
    rng = np.random.default_rng(39)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        model = random_crisp_deterministic_model(rng, n)
        records = random_crisp_trace(rng, n, int(rng.integers(2, 6)), model)
        state = run_forward(model, records)
        eff = effectiveness(state.conflict_log)
        assert eff in (0.0, 1.0)
        assert eff == float(best_deterministic_test(model, records))
        assert best_deterministic_test(model, records) == brute_max_crisp_test(
            model, records
        )


@pytest.mark.parametrize("scenario", ["comfort", "breach", "mixed"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_crisp_windows_are_the_deterministic_test_at_length(scenario, seed):
    # with every curve crisp, a window's value is 1 exactly when some state
    # sequence passes its records: the fast path checked without the
    # reference, over 285 windows of a 2000-record trace
    from evimon import bundled
    from evimon.generate import generate_trace
    from evimon.modelfile import parse_model

    model = parse_model(bundled.model_path("luminosity_crisp"))
    records, _ = generate_trace(model, scenario, 2000, seed)
    report = sliding_effectiveness(records, model, 10, 7)
    assert len(report.values) == 285
    expected = [
        float(best_deterministic_test(model, records[s : s + 10]))
        for s in range(0, 1991, 7)
    ]
    assert report.values.tolist() == expected
    assert report.overall == best_deterministic_test(model, records)
    assert (0.0 in expected) == (scenario != "comfort")


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize(
    "name, scenario",
    [("speed_limits", "breach"), ("ride_comfort", "mixed"), ("luminosity", "mixed")],
)
def test_relabelling_the_states_changes_no_result(name, scenario, rule):
    # the states' order in a model document is a labelling: permuting it
    # moves the rounding of tied rows at most, and no reset
    from evimon import bundled
    from evimon.generate import generate_trace
    from evimon.modelfile import model_from_dict, model_to_dict, parse_model

    doc = model_to_dict(parse_model(bundled.model_path(name)))
    doc["normalization"] = rule
    model = model_from_dict(doc)
    records, _ = generate_trace(model, scenario, 3000, 4)
    doc["states"] = doc["states"][1:] + doc["states"][:1]  # moves every state
    relabelled = model_from_dict(doc)
    got, want = (sliding_effectiveness(records, m, 10, 3) for m in (relabelled, model))
    np.testing.assert_allclose(got.conflicts, want.conflicts, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)
    assert got.resets.tolist() == want.resets.tolist()


@functools.lru_cache(maxsize=None)
def locality_case(name, scenario, rule):
    """A model under ``rule``, its block length, and a trace of two blocks
    and a bit."""
    from evimon import bundled
    from evimon.forward import ContourEngine
    from evimon.generate import generate_trace
    from evimon.modelfile import parse_model

    model = dataclasses.replace(parse_model(bundled.model_path(name)), rule=rule)
    block = ContourEngine(model)._block
    return model, block, generate_trace(model, scenario, 2 * block + 60, 5)[0]


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("name, scenario", [("ride_comfort", "mixed"), ("speed_limits", "breach")])
@settings(max_examples=25, deadline=None)
@given(
    window_len=st.integers(1, 40),
    stride=st.integers(1, 13),
    edge=st.integers(1, 2),
    offsets=st.lists(st.integers(-45, 4), min_size=1, max_size=4),
)
def test_a_window_is_its_own_records_evaluated_alone(
    name, scenario, rule, window_len, stride, edge, offsets
):
    # window k depends on records k * stride ... k * stride + W - 1 alone:
    # it is window 0 of those records, bit for bit, whether it ends before,
    # across or after one of the full pass's block edges
    model, block, records = locality_case(name, scenario, rule)
    values = sliding_effectiveness(records, model, window_len, stride).values
    for offset in offsets:
        k = min(max(0, (edge * block + offset) // stride), len(values) - 1)
        first = k * stride
        alone = sliding_effectiveness(records[first : first + window_len], model, window_len)
        assert values[k] == alone.values[0], (k, first)
