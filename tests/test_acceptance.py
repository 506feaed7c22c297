"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
Every tolerance and runtime budget is asserted here.
"""

import time

import numpy as np
import pytest

from evimon import bundled
from evimon.belief import (
    MassFunction,
    combine_conjunctive,
    combine_conjunctive_normalized,
    categorical,
    commonality_to_mass,
    mass_to_commonality,
    mass_to_plausibility,
    normalize,
    plausibility_to_mass,
    vacuous,
    Frame,
)
from evimon.forward import effectiveness, run_forward, sliding_effectiveness
from evimon.generate import generate_trace
from evimon.iohmm import (
    best_deterministic_test,
    build_transition_rows,
    deterministic_test,
)
from evimon.modelfile import parse_model
from evimon.trace import read_trace

from model_builders import (
    brute_force_path_sum,
    evidential_bayesian_effectiveness,
    luminosity_model,
    random_bayesian_structures,
    random_crisp_deterministic_model,
    random_crisp_trace,
)
from oracles import (
    brute_max_crisp_test,
    dicts_close,
    mass_dict,
    naive_commonality,
    naive_conjunctive,
    naive_plausibility,
    random_mass_dict,
)

TOL = 1e-9


def _verdict(number: int, elapsed: float, budget: float, text: str) -> None:
    print(f"\n[acceptance] criterion {number} PASS"
          f" ({elapsed:.2f}s of {budget:.0f}s budget): {text}")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


# ---------------------------------------------------------------------------
# 1. walkthrough reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_walkthrough_reproduction(capsys):
    from evimon.demo import run_walkthrough

    start = time.perf_counter()
    run_walkthrough()  # raises DemoMismatch on any cell off by > 1e-9
    elapsed = time.perf_counter() - start

    # pin the headline values here as well, independently of the demo
    model = luminosity_model()
    rows = build_transition_rows(model, {"pres": 3.5})
    poss = model.transition_possibilities({"pres": 3.5})
    assert poss[0][0] == pytest.approx(0.75, abs=TOL)
    pl = mass_to_plausibility(rows.singleton_rows[0]).values
    assert np.allclose(pl, [0.0, 0.75, 0.0, 0.75], atol=TOL)
    assert np.allclose(rows.singleton_rows[0].masses, [0.25, 0.75, 0, 0], atol=TOL)
    assert np.allclose(rows.row(0).masses, [1, 0, 0, 0], atol=TOL)
    assert np.allclose(rows.row(3).masses, [0.0625, 0.9375, 0, 0], atol=TOL)
    from evimon.forward import predict
    from evimon.iohmm import emission_bba

    predicted = predict(vacuous(model.frame), rows)
    assert np.allclose(predicted.masses, [0.25, 0.75, 0, 0], atol=TOL)
    e_poss = model.emission_possibilities({"lum": 2.34})
    assert np.allclose(e_poss, [1.0, 0.0], atol=TOL)
    e = emission_bba(model, {"lum": 2.34})
    assert np.allclose(mass_to_plausibility(e).values, [0, 1, 0, 1], atol=TOL)
    assert np.allclose(e.masses, [0, 1, 0, 0], atol=TOL)

    with capsys.disabled():
        _verdict(1, elapsed, 1.0, "worked example reproduced cell for cell")


# ---------------------------------------------------------------------------
# 2. transform oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_transform_oracle_equivalence(capsys):
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        labels = [f"s{i}" for i in range(n)]
        frame = Frame(labels)
        bbas = []
        for _ in range(1000):
            d = random_mass_dict(rng, labels)
            m = MassFunction.from_dict(frame, {tuple(k): v for k, v in d.items()})
            bbas.append((d, m))

        for d, m in bbas:
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

        for (d1, m1), (d2, m2) in zip(bbas[0::2], bbas[1::2]):
            oracle = naive_conjunctive(d1, d2, labels)
            assert dicts_close(mass_dict(combine_conjunctive(m1, m2)), oracle, TOL)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _verdict(
            2, elapsed, 10.0,
            "1000 BBAs per frame size 1-4 match the double-loop oracle",
        )


# ---------------------------------------------------------------------------
# 3. Bayesian-reduction oracle
# ---------------------------------------------------------------------------

def test_criterion_3_bayesian_reduction(capsys):
    rng = np.random.default_rng(3033)
    start = time.perf_counter()
    for _ in range(100):
        frame, mats, emissions = random_bayesian_structures(rng, 3, 6)
        got = evidential_bayesian_effectiveness(frame, mats, emissions)
        expected = brute_force_path_sum(mats, emissions)
        assert got == pytest.approx(expected, rel=1e-9)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _verdict(
            3, elapsed, 30.0,
            "100 singleton-mass models equal the 3^6-path probabilistic forward",
        )


# ---------------------------------------------------------------------------
# 4. crisp-reduction equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_crisp_reduction(capsys):
    rng = np.random.default_rng(4044)
    start = time.perf_counter()
    pass_count = 0
    for trial in range(200):
        n = int(rng.integers(2, 4))
        model = random_crisp_deterministic_model(rng, n)
        records = random_crisp_trace(rng, n, int(rng.integers(2, 9)), model)
        eff = effectiveness(run_forward(model, records).conflict_log)
        assert eff in (0.0, 1.0)
        oracle = brute_max_crisp_test(model, records)
        assert eff == float(oracle)
        assert best_deterministic_test(model, records) == oracle
        pass_count += oracle
        if trial % 29 == 0:
            # tie the indicator oracle back to the boxed pass/fail operation
            seq = [model.frame.labels[int(s)] for s in rng.integers(0, n, len(records))]
            by_op = deterministic_test(model, seq, records)
            assert by_op <= oracle
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _verdict(
            4, elapsed, 30.0,
            f"200 crisp models/traces match the brute-force test"
            f" ({pass_count} passing traces)",
        )


# ---------------------------------------------------------------------------
# 5. zone semantics
# ---------------------------------------------------------------------------

def test_criterion_5_zone_semantics(capsys):
    start = time.perf_counter()
    for name in ("luminosity", "speed_limits", "ride_comfort"):
        model = parse_model(bundled.model_path(name))
        records, zones = generate_trace(model, "comfort", 40, seed=55)
        report = sliding_effectiveness(records, model, 10, 1)
        assert report.overall == 1.0
        assert all(w.value == 1.0 for w in report.windows)

        records, zones = generate_trace(model, "breach", 40, seed=56)
        breach_records = {i for i, z in enumerate(zones) if z == "breach"}
        assert breach_records
        report = sliding_effectiveness(records, model, 10, 1)
        assert set(report.breach_steps) == breach_records
        assert all(
            report.steps[i].conflict >= 1.0 - 1e-12 for i in breach_records
        )
        for w in report.windows:
            if any(w.start <= b <= w.end for b in breach_records):
                assert w.value == 0.0
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _verdict(
            5, elapsed, 30.0,
            "comfort traces score exactly 1.0; breaches zero their windows",
        )


# ---------------------------------------------------------------------------
# 6. scenario scale
# ---------------------------------------------------------------------------

def test_criterion_6_scenario_scale(capsys):
    model = parse_model(bundled.model_path("speed_limits"))
    trace = read_trace(bundled.trace_path("speed_limits_mixed_600"))
    assert model.frame.size == 11
    assert len(trace) == 600

    start = time.perf_counter()
    rows = build_transition_rows(model, trace[10].inputs)
    materialized = rows.rows
    report = sliding_effectiveness(trace, model, 10, 1)
    elapsed = time.perf_counter() - start

    assert len(materialized) == 2048
    assert materialized[0].conflict == 1.0
    assert len(report.windows) == 591

    dip = set(range(180, 190))      # 92 km/h inside the 5% band of a 90 zone
    breach = set(range(450, 453))   # speed beyond every limit
    for s in report.steps:
        if s.index in breach:
            assert s.conflict >= 1.0 - 1e-12
        elif s.index in dip:
            assert 0.0 < s.conflict < 1.0
        else:
            assert s.conflict <= 1e-12
    for w in report.windows:
        hits_breach = any(w.start <= t <= w.end for t in breach)
        # a window only sees the dip through a transition, i.e. when the
        # deviant record is past the window's first position
        hits_dip = any(w.start < t <= w.end for t in dip)
        if hits_breach:
            assert w.value == 0.0
        elif hits_dip:
            assert w.value < 1.0 - 1e-9
        else:
            assert w.value == pytest.approx(1.0, abs=1e-12)

    with capsys.disabled():
        _verdict(
            6, elapsed, 2.0,
            "11-state model: 2^11 rows built and 600 records evaluated"
            f" across 591 windows; dips exactly on violation intervals",
        )


# ---------------------------------------------------------------------------
# 7. normalization invariants
# ---------------------------------------------------------------------------

def test_criterion_7_normalization_invariants(capsys):
    rng = np.random.default_rng(7077)
    start = time.perf_counter()
    labels = ["a", "b", "c"]
    frame = Frame(labels)
    checked = 0
    for _ in range(1000):
        d1 = random_mass_dict(rng, labels)
        d2 = random_mass_dict(rng, labels)
        m1 = MassFunction.from_dict(frame, {tuple(k): v for k, v in d1.items()})
        m2 = MassFunction.from_dict(frame, {tuple(k): v for k, v in d2.items()})
        combined = combine_conjunctive(m1, m2)
        if combined.conflict < 1e-12:
            continue  # not sub-normal; nothing to redistribute
        checked += 1
        for rule in ("dempster", "yager", "dubois_prade"):
            if rule == "dempster" and combined.conflict >= 1.0 - 1e-12:
                continue
            out = combine_conjunctive_normalized(m1, m2, rule)
            assert out.conflict == 0.0
            assert abs(out.masses.sum() - 1.0) <= TOL
        if combined.conflict < 1.0 - 1e-12:
            dem = normalize(combined, "dempster")
            nz = [a for a in combined.focal_masks() if a != 0]
            for a in nz:
                for b in nz:
                    assert dem.masses[a] * combined.masses[b] == pytest.approx(
                        dem.masses[b] * combined.masses[a], abs=TOL
                    )
        yag = normalize(combined, "yager")
        moved = yag.mass_of(frame.full_mask) - combined.mass_of(frame.full_mask)
        assert moved == pytest.approx(combined.conflict, abs=TOL)
        assert np.allclose(
            np.delete(yag.masses, [0, frame.full_mask]),
            np.delete(combined.masses, [0, frame.full_mask]),
            atol=TOL,
        )
    assert checked >= 900  # essentially every random pair carries conflict

    # disjoint categorical parents: the whole mass lands on the union
    for n in (2, 3, 4):
        f = Frame([f"s{i}" for i in range(n)])
        for a in range(1, f.n_subsets):
            for b in range(1, f.n_subsets):
                if a & b == 0:
                    out = combine_conjunctive_normalized(
                        categorical(f, a), categorical(f, b), "dubois_prade"
                    )
                    assert out.mass_of(a | b) == pytest.approx(1.0, abs=TOL)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _verdict(
            7, elapsed, 30.0,
            f"all three rules normalize {checked} sub-normal BBAs correctly",
        )
