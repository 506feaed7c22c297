"""Model files, trace files, report emission, generation, and the CLI."""

import dataclasses
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from evimon import bundled
from evimon.belief import MassFunction
from evimon.errors import (
    GenerationError,
    ParseError,
    ValidationError,
)
from evimon.forward import sliding_effectiveness
from evimon.generate import generate_trace, manifest_lines
from evimon.iohmm import EvIohmm
from evimon.modelfile import model_from_dict, model_to_dict, parse_model, write_model
from evimon.report import summary_dict, write_report_csv, write_summary_json
from evimon.trace import TraceRecord, read_trace, write_trace

from model_builders import luminosity_model

TOL = 1e-9


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def test_bundled_luminosity_matches_programmatic_model():
    parsed = parse_model(bundled.model_path("luminosity"))
    assert model_to_dict(parsed) == model_to_dict(luminosity_model())


def test_bundled_crisp_model_is_crisp():
    model = parse_model(bundled.model_path("luminosity_crisp"))
    assert model.is_crisp
    assert not parse_model(bundled.model_path("luminosity")).is_crisp


def test_bundled_speed_model_shape():
    model = parse_model(bundled.model_path("speed_limits"))
    assert model.frame.size == 11
    assert set(model.input_variables) == {"max_speed", "precipitation", "visibility"}
    assert model.output_variables == ("speed",)
    # visibility-only state: every other input inhibited on its arcs
    low_vis = model.frame.index("LOW_VISIBILITY_50")
    gate = model.transitions[0][low_vis]
    assert gate.required_variables() == ("visibility",)


def test_model_roundtrip_field_for_field(tmp_path):
    for name in bundled.MODELS:
        model = parse_model(bundled.model_path(name))
        path = tmp_path / f"{name}.json"
        write_model(model, path)
        again = parse_model(path)
        assert model_to_dict(again) == model_to_dict(model)


def test_model_roundtrip_with_prior(tmp_path):
    base = luminosity_model()
    prior = MassFunction.from_dict(base.frame, {("x1",): 0.25, ("x1", "x2"): 0.75})
    model = EvIohmm(
        base.frame,
        base.transitions,
        base.emissions,
        prior=prior,
        rule="yager",
        input_variables=base.input_variables,
        output_variables=base.output_variables,
        name="with-prior",
    )
    path = tmp_path / "prior.json"
    write_model(model, path)
    again = parse_model(path)
    assert model_to_dict(again) == model_to_dict(model)
    assert np.allclose(again.prior.masses, prior.masses)
    assert again.rule == "yager"


def test_model_rejects_undeclared_variables():
    base = luminosity_model()
    with pytest.raises(ValidationError) as err:
        EvIohmm(base.frame, base.transitions, base.emissions, input_variables=("x",))
    assert str(err.value) == "transition constraints reference undeclared inputs ['pres']"
    with pytest.raises(ValidationError) as err:
        EvIohmm(base.frame, base.transitions, base.emissions, output_variables=())
    assert str(err.value) == "emission constraints reference undeclared outputs ['lum']"


def test_parse_model_bad_ramp_names_the_arc(tmp_path):
    doc = model_to_dict(luminosity_model())
    doc["transitions"][0]["constraints"][0]["params"] = [5.0, 3.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        parse_model(path)
    assert "x1->x1" in str(err.value)
    assert "a < b" in str(err.value)


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def mutate(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value

    return mutate


# name: (mutation of the luminosity document, located field)
HOSTILE_DOCUMENTS = {
    "state-name": (_set("states", [["x1"], ["x2"]]), "states[0]"),
    "input-name": (_set("inputs", [["pres"]]), "inputs[0]"),
    "output-name": (_set("outputs", ["lum", 3]), "outputs[1]"),
    "variable": (
        _set("transitions", 0, "constraints", 0, "variable", ["pres"]),
        "transitions[0] (arc x1->x1).constraints[0]",
    ),
    "prior-null": (_set("prior", {"x1": None}), "prior"),
    "prior-string": (_set("prior", {"x1": "abc"}), "prior"),
    "prior-bool": (_set("prior", {"x1": True}), "prior"),
    "prior-huge": (_set("prior", {"x1": 10**400}), "prior"),
}


def test_parse_model_structural_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError) as err:
        parse_model(path)
    assert ":1:" in str(err.value)  # line-precise

    doc = model_to_dict(luminosity_model())
    del doc["transitions"][1]  # drop one arc
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        parse_model(path)
    assert "x1->x2" in str(err.value)

    doc = model_to_dict(luminosity_model())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        parse_model(path)

    doc = model_to_dict(luminosity_model())
    doc["transitions"][0]["constraints"][0]["variable"] = "ghost"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        parse_model(path)
    assert "ghost" in str(err.value)

    for hostile, location in HOSTILE_DOCUMENTS.values():
        doc = model_to_dict(luminosity_model())
        hostile(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as err:
            parse_model(path)
        assert err.value.location == f"{path}:{location}"


def test_model_from_dict_rejects_unknown_state_and_duplicate_arc():
    doc = model_to_dict(luminosity_model())
    doc["transitions"][0]["to"] = "nope"
    with pytest.raises(ValidationError):
        model_from_dict(doc)
    doc = model_to_dict(luminosity_model())
    doc["transitions"].append(doc["transitions"][0])
    with pytest.raises(ValidationError):
        model_from_dict(doc)


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------

def test_trace_roundtrip(tmp_path):
    records = [
        TraceRecord(0.0, {}, {"y": 1.25}),
        TraceRecord(1.5, {"u": -3.0}, {"y": 2.0}),
    ]
    path = tmp_path / "t.csv"
    write_trace(path, records, ["u"], ["y"])
    back = read_trace(path)
    assert len(back) == 2
    assert back[0].inputs == {}
    assert back[1].inputs == {"u": -3.0}
    assert back[1].outputs == {"y": 2.0}
    assert back[1].timestamp == 1.5


def test_trace_missing_column_names_record(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "timestamp,in.u,out.y\n0,,1.0\n1,2.0,\n", encoding="utf-8"
    )
    with pytest.raises(ParseError) as err:
        read_trace(path)
    assert "record 2" in str(err.value)
    assert "out.y" in str(err.value)


def test_trace_input_required_after_first_record(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "timestamp,in.u,out.y\n0,,1.0\n1,,2.0\n", encoding="utf-8"
    )
    with pytest.raises(ParseError) as err:
        read_trace(path)
    assert "in.u" in str(err.value)


def test_trace_rejects_duplicate_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "timestamp,in.pres,in.pres,out.lum\n0,1,1,1\n1,2,9,2\n", encoding="utf-8"
    )
    with pytest.raises(ParseError) as err:
        read_trace(path)
    assert err.value.location == f"{path}:1"
    assert "'in.pres'" in str(err.value)


def test_trace_rejects_decreasing_timestamps_and_bad_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("timestamp,in.u,out.y\n5,1,1\n4,1,1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_trace(path)
    path.write_text("time,in.u,out.y\n0,1,1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_trace(path)
    path.write_text("timestamp,u,out.y\n0,1,1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_trace(path)


@pytest.mark.parametrize("column", ["timestamp", "in.u", "out.y"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_trace_rejects_non_finite_cells(tmp_path, column, raw):
    row = {"timestamp": "1", "in.u": "1", "out.y": "1", column: raw}
    path = tmp_path / "t.csv"
    path.write_text(
        "timestamp,in.u,out.y\n0,1,1\n" + ",".join(row.values()) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as err:
        read_trace(path)
    message = str(err.value)
    assert f"{path}:3" in message
    assert "record 2" in message and repr(column) in message


def test_trace_missing_file_is_parse_error(tmp_path):
    from evimon.cli import main

    missing = tmp_path / "no" / "such.csv"
    with pytest.raises(ParseError) as err:
        read_trace(missing)
    assert str(missing) in str(err.value)
    assert main(["eval", "--model", "speed_limits", "--trace", str(missing)]) == 1


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_csv_layout(tmp_path):
    model = luminosity_model()
    trace = read_trace(bundled.trace_path("luminosity_comfort_30"))
    report = sliding_effectiveness(trace, model, 10, 1)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "timestamp,conflict,step_effectiveness,window_effectiveness"
    assert len(lines) == 31
    # no window value before the first full window
    assert all(line.endswith(",") for line in lines[1:10])
    assert all(not line.endswith(",") for line in lines[10:])
    summary = summary_dict(report)
    assert summary["overall_effectiveness"] == 1.0
    assert summary["breached"] is False


def test_report_window_column_respects_stride(tmp_path):
    model = luminosity_model()
    trace = read_trace(bundled.trace_path("luminosity_comfort_30"))
    report = sliding_effectiveness(trace, model, 10, 5)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()[1:]
    filled = [i for i, line in enumerate(lines) if not line.endswith(",")]
    assert filled == [9, 14, 19, 24, 29]


# sha256 of the report CSV of each bundled trace (W=10, stride 3) and of
# its summary JSON under each rule.  The bundled models give every source
# state the same transition row, so the rules write the same report; the
# engine's rule-specific bits are pinned in test_forward.py.
REPORT_DIGESTS = {
    "luminosity_comfort_30": (
        "ffd87beae455ec2364ec60adac7ee994a2b412d2fd3df4ca41dc587c482b82fb"
    ),
    "speed_limits_mixed_600": (
        "65e26cd60d075e1f89f32e1018e7cb55441e8d83e058eea022508031eabe5458"
    ),
    "ride_comfort_mixed_120": (
        "3866a34fbd718f6431cfa707d978ff33c44f00d7e3a8436828a348a56881b91c"
    ),
}
SUMMARY_DIGESTS = {
    ("luminosity_comfort_30", "dempster"): (
        "5ca15daf73e5352c9ec3d0ce21d29e54cab213001f56651853bc4e78ab71760e"
    ),
    ("luminosity_comfort_30", "yager"): (
        "74c3e30be910d2c5cc8a5b615121c6ec1b5b9fddba5a79bdc00ea7654017293b"
    ),
    ("luminosity_comfort_30", "dubois_prade"): (
        "7c269661a66ef456cad68d1a19cd35c6f820e12e780ed4230f8ec8c4efb80a4c"
    ),
    ("speed_limits_mixed_600", "dempster"): (
        "7fde43c5ab75f48301420560f0c95354d2e959d6e2582b6875443ff264254e43"
    ),
    ("speed_limits_mixed_600", "yager"): (
        "9887ef5a9e8bd53e854e994094c3ba85b34ad071a08b06df45b05731fc379e32"
    ),
    ("speed_limits_mixed_600", "dubois_prade"): (
        "4bda79f37adb36a61a9e0db914896e43038d64a43874c44b119b5515816235a5"
    ),
    ("ride_comfort_mixed_120", "dempster"): (
        "a662f5fdf7d9caf2e7d5030d113009e614005544cb6f78fc058b3778650df121"
    ),
    ("ride_comfort_mixed_120", "yager"): (
        "2ae64692c0bdcd04c6b98d0fe1fde19f3bd74bac66b3855904f688a0ad4533ca"
    ),
    ("ride_comfort_mixed_120", "dubois_prade"): (
        "3b968c9a7d22a393ad64dd3efc10742749c14a7c1ff3be40ed02e78589599dc6"
    ),
}


@pytest.mark.parametrize("rule", ["dempster", "yager", "dubois_prade"])
@pytest.mark.parametrize("trace_name", sorted(REPORT_DIGESTS))
def test_bundled_report_bits_are_pinned(tmp_path, trace_name, rule):
    # agreement with the reference to 1e-9 lets the last bits move; these
    # digests do not.  A change that moves them must say so and re-pin.
    model_name = trace_name.rsplit("_", 2)[0]
    model = parse_model(bundled.model_path(model_name))
    model = dataclasses.replace(model, rule=rule)
    trace = read_trace(bundled.trace_path(trace_name))
    report = sliding_effectiveness(trace, model, 10, 3)
    write_report_csv(report, tmp_path / "r.csv")
    write_summary_json(report, tmp_path / "s.json")
    report_digest, summary_digest = (
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("r.csv", "s.json")
    )
    assert report_digest == REPORT_DIGESTS[trace_name]
    assert summary_digest == SUMMARY_DIGESTS[trace_name, rule]


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generate_comfort_scores_one():
    model = luminosity_model()
    records, zones = generate_trace(model, "comfort", 40, seed=5)
    assert all(z == "comfort" for z in zones)
    report = sliding_effectiveness(records, model, 10, 1)
    assert all(w.value == 1.0 for w in report.windows)
    assert report.overall == 1.0


def test_generate_breach_has_total_conflict_and_zero_windows():
    # a breach must read exactly 1 under every rule, not 1 - 2**-53 from
    # rounding, so that every window over it is exactly 0
    speed = parse_model(bundled.model_path("speed_limits"))
    ride = parse_model(bundled.model_path("ride_comfort"))
    cases = [
        (luminosity_model(), "breach", 40, 6),
        (speed, "breach", 200, 1),
        (speed, "breach", 200, 4),
        (speed, "breach", 200, 5),
        (ride, "mixed", 200, 5),
    ]
    for model, scenario, length, seed in cases:
        records, zones = generate_trace(model, scenario, length, seed)
        breach_records = {i for i, z in enumerate(zones) if z == "breach"}
        assert breach_records
        for rule in ("dempster", "yager", "dubois_prade"):
            case = (model.name, scenario, seed, rule)
            report = sliding_effectiveness(
                records, dataclasses.replace(model, rule=rule), 10, 1
            )
            assert set(report.breach_steps) == breach_records, case
            for b in breach_records:
                assert report.steps[b].conflict == 1.0, (case, b)
            for w in report.windows:
                if any(w.start <= b <= w.end for b in breach_records):
                    assert w.value == 0.0, (case, w)


def test_generate_tolerance_zone_classes():
    model = luminosity_model()
    records, zones = generate_trace(model, "tolerance", 40, seed=7)
    assert "tolerance" in zones
    report = sliding_effectiveness(records, model, 1, 1)
    for z, s in zip(zones, report.steps):
        if z == "tolerance":
            assert 0.0 < s.conflict < 1.0


def test_generate_deterministic_for_seed(tmp_path):
    model = luminosity_model()
    a, _ = generate_trace(model, "mixed", 25, seed=9)
    b, _ = generate_trace(model, "mixed", 25, seed=9)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(pa, a, model.input_variables, model.output_variables)
    write_trace(pb, b, model.input_variables, model.output_variables)
    assert pa.read_bytes() == pb.read_bytes()
    c, _ = generate_trace(model, "mixed", 25, seed=10)
    assert any(
        ra.outputs != rc.outputs or ra.inputs != rc.inputs for ra, rc in zip(a, c)
    )


def test_breach_search_finds_interval_interior_values():
    # the only lum values outside both states' viability lie in [10, 23]
    from evimon.generate import breach_values

    model = luminosity_model()
    rng = np.random.default_rng(1)
    for _ in range(10):
        out = breach_values(model, rng)
        assert 10.0 <= out["lum"] <= 23.0
        assert model.emission_possibilities(out).max() == 0.0


def test_breach_impossible_raises():
    from evimon.belief import Frame
    from evimon.generate import breach_values
    from evimon.iohmm import EvIohmm
    from evimon.possibility import Constraint, ConstraintVector, ramp_down, ramp_up

    # the two emission curves cover the whole axis: no breach exists
    frame = Frame(["lo", "hi"])
    gate = ConstraintVector((Constraint("u", ramp_up(0.0, 1.0)),))
    model = EvIohmm(
        frame,
        ((gate, gate), (gate, gate)),
        (
            ConstraintVector((Constraint("y", ramp_down(5.0, 10.0)),)),
            ConstraintVector((Constraint("y", ramp_up(4.0, 6.0)),)),
        ),
    )
    with pytest.raises(GenerationError):
        breach_values(model, np.random.default_rng(0))
    with pytest.raises(GenerationError):
        generate_trace(model, "breach", 10, seed=0)


def test_generate_rejects_empty_comfort_zone():
    from evimon.belief import Frame
    from evimon.iohmm import EvIohmm
    from evimon.possibility import Constraint, ConstraintVector, constant, ramp_down

    frame = Frame(["a"])
    gate = ConstraintVector((Constraint("u", ramp_down(0.0, 1.0)),))
    # an emission pinned below possibility 1 has no comfort zone
    emission = ConstraintVector((Constraint("y", constant(0.5)),))
    model = EvIohmm(frame, ((gate,),), (emission,))
    with pytest.raises(GenerationError) as err:
        generate_trace(model, "comfort", 5, seed=0)
    assert "comfort" in str(err.value)


def test_manifest_lines_compression():
    assert manifest_lines(["comfort"] * 3 + ["breach"] + ["comfort"] * 2) == [
        "comfort:0-2",
        "breach:3-3",
        "comfort:4-5",
    ]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "evimon.cli", *args],
        capture_output=True,
        text=True,
    )


def test_cli_demo_exit_zero():
    proc = run_cli("demo")
    assert proc.returncode == 0, proc.stderr
    assert "0.75" in proc.stdout
    assert "0.9375" in proc.stdout


@pytest.mark.parametrize("name", ["prior-nan", *HOSTILE_DOCUMENTS])
def test_cli_eval_hostile_model_exits_1_without_traceback(tmp_path, name):
    doc = json.loads(bundled.model_path("luminosity").read_text())
    if name == "prior-nan":
        doc["prior"] = {"x1": float("nan")}
    else:
        HOSTILE_DOCUMENTS[name][0](doc)
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc))  # json writes and reads NaN
    proc = run_cli(
        "eval",
        "--model", str(path),
        "--trace", str(bundled.trace_path("luminosity_comfort_30")),
    )
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.startswith(f"error: {path}:")
    assert "Traceback" not in proc.stderr


def test_demo_mismatch_names_the_cell():
    from evimon.demo import DemoMismatch, _check_table

    with pytest.raises(DemoMismatch) as err:
        _check_table(
            "Some table",
            {"row": np.array([0.25, 0.75, 0.0, 0.0])},
            {"row": [0.25, 0.5, 0.0, 0.0]},
        )
    message = str(err.value)
    assert "Some table" in message and "'row'" in message and "cell 1" in message


def test_cli_eval_bundled(tmp_path):
    out = tmp_path / "r.csv"
    summary = tmp_path / "r.json"
    proc = run_cli(
        "eval",
        "--model", "luminosity",
        "--trace", str(bundled.trace_path("luminosity_comfort_30")),
        "--out", str(out),
        "--summary", str(summary),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(summary.read_text())
    assert payload["overall_effectiveness"] == 1.0
    assert out.exists()


def test_cli_eval_missing_column_is_exit_1(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,in.pres,out.lum\n0,,1.0\n1,2.0,\n")
    proc = run_cli("eval", "--model", "luminosity", "--trace", str(bad))
    assert proc.returncode == 1
    assert "out.lum" in proc.stderr
    assert "record 2" in proc.stderr


def test_cli_eval_runtime_error_is_exit_2(tmp_path):
    # columns parse fine but the model needs a variable the trace lacks
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,in.other,out.lum\n0,,1.0\n1,2.0,2.0\n")
    proc = run_cli(
        "eval", "--model", "luminosity", "--trace", str(bad), "--window", "2"
    )
    assert proc.returncode == 2
    assert "pres" in proc.stderr


def test_cli_eval_first_record_without_inputs(tmp_path):
    # the first record's inputs gate no transition, so the trace format
    # lets them be empty and no engine reads them
    t = tmp_path / "t.csv"
    t.write_text("timestamp,in.pres,out.lum\n0,,1.0\n1,2.0,2.0\n2,2.0,2.0\n")
    out = tmp_path / "r.csv"
    summary = tmp_path / "r.json"
    proc = run_cli(
        "eval", "--model", "luminosity", "--trace", str(t), "--window", "2",
        "--out", str(out), "--summary", str(summary),
    )
    assert proc.returncode == 0, proc.stderr
    ref = sliding_effectiveness(
        read_trace(t), parse_model(bundled.model_path("luminosity")), 2,
        engine="reference",
    )
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == len(ref.steps) == 3
    for row, step in zip(rows, ref.steps):
        assert float(row.split(",")[1]) == pytest.approx(step.conflict, abs=TOL)
    windows = [float(row.split(",")[3]) for row in rows if row.split(",")[3]]
    assert windows == pytest.approx([w.value for w in ref.windows], abs=TOL)
    payload = json.loads(summary.read_text())
    expected = summary_dict(ref)
    assert payload["overall_effectiveness"] == pytest.approx(
        expected["overall_effectiveness"], abs=TOL
    )
    assert payload["reset_steps"] == expected["reset_steps"]


def test_cli_eval_window_longer_than_trace_is_exit_1(tmp_path):
    t = tmp_path / "t.csv"
    t.write_text("timestamp,in.pres,out.lum\n0,,1.0\n1,2.0,2.0\n")
    proc = run_cli("eval", "--model", "luminosity", "--trace", str(t), "--window", "10")
    assert proc.returncode == 1
    proc = run_cli("eval", "--model", "luminosity", "--trace", str(t), "--window", "0")
    assert proc.returncode == 1
    assert "window" in proc.stderr


def test_cli_gen_trace_roundtrip(tmp_path):
    out = tmp_path / "g.csv"
    proc = run_cli(
        "gen-trace",
        "--model", "luminosity",
        "--scenario", "comfort",
        "--length", "15",
        "--seed", "4",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert manifest["zones"] == ["comfort:0-14"]
    proc2 = run_cli(
        "eval", "--model", "luminosity", "--trace", str(out), "--window", "5"
    )
    assert proc2.returncode == 0
    assert '"overall_effectiveness": 1.0' in proc2.stdout


def test_cli_eval_bit_reproducible(tmp_path):
    outs = []
    for run in range(2):
        out = tmp_path / f"r{run}.csv"
        summary = tmp_path / f"s{run}.json"
        proc = run_cli(
            "eval",
            "--model", "speed_limits",
            "--trace", str(bundled.trace_path("speed_limits_mixed_600")),
            "--out", str(out),
            "--summary", str(summary),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((out.read_bytes(), summary.read_bytes()))
    assert outs[0] == outs[1]
    payload = json.loads(outs[0][1])
    assert payload["breached"] is True
    assert payload["breach_steps"] == [450, 451, 452]
    assert payload["min_window_effectiveness"] == 0.0
    assert payload["max_window_effectiveness"] == 1.0


def test_cli_rule_override(tmp_path):
    out = tmp_path / "g.csv"
    run_cli(
        "gen-trace", "--model", "luminosity", "--scenario", "breach",
        "--length", "12", "--seed", "11", "--out", str(out),
    )
    # the override must keep everything else of the model, its prior too
    base = luminosity_model()
    prior = MassFunction.from_dict(base.frame, {("x1",): 0.5, ("x2",): 0.5})
    write_model(dataclasses.replace(base, prior=prior), tmp_path / "prior.json")
    summary = tmp_path / "s.json"
    proc = run_cli(
        "eval", "--model", str(tmp_path / "prior.json"), "--trace", str(out),
        "--window", "4", "--rule", "yager", "--summary", str(summary),
    )
    assert proc.returncode == 0, proc.stderr
    by_hand = EvIohmm(
        base.frame,
        base.transitions,
        base.emissions,
        prior=prior,
        rule="yager",
        input_variables=base.input_variables,
        output_variables=base.output_variables,
        name=base.name,
    )
    report = sliding_effectiveness(read_trace(out), by_hand, 4, 1)
    expected = json.loads(json.dumps(summary_dict(report)))
    assert json.loads(summary.read_text()) == expected
