"""Model files, trace files, report emission, generation, and the CLI."""

import dataclasses
import functools
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evimon import bundled
from evimon.belief import Frame, MassFunction, vacuous
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


@pytest.mark.parametrize(
    "change, message",
    [
        ({"transitions": ((None,) * 2,)}, "transition table must be 2x2 constraint vectors"),
        ({"emissions": (None,)}, "need one emission vector per state, got 1"),
        ({"rule": "bogus"}, "unknown normalization rule 'bogus'"),
        ({"prior": vacuous(Frame(["x1"]))}, "prior is defined on a different frame"),
    ],
)
def test_model_construction_fails_on_a_bad_part(change, message):
    base = luminosity_model()
    parts = dict(
        frame=base.frame,
        transitions=base.transitions,
        emissions=base.emissions,
        input_variables=base.input_variables,
        output_variables=base.output_variables,
    )
    with pytest.raises(ValidationError) as err:
        EvIohmm(**{**parts, **change})
    assert str(err.value) == message


def test_model_construction_defaults_and_keywords():
    base = luminosity_model()
    # a replaced field is checked as in the constructor
    with pytest.raises(ValidationError) as err:
        dataclasses.replace(base, rule="bogus")
    assert str(err.value) == "unknown normalization rule 'bogus'"
    with pytest.raises(TypeError):
        EvIohmm(base.frame, base.transitions, base.emissions, vacuous(base.frame))
    model = EvIohmm(base.frame, base.transitions, base.emissions, prior=None)
    assert model.prior.frame == base.frame and model.prior.is_vacuous()
    speed = parse_model(bundled.model_path("speed_limits"))
    read = EvIohmm(speed.frame, speed.transitions, speed.emissions, input_variables=None)
    assert read.input_variables == ("max_speed", "precipitation", "visibility")
    assert read.output_variables == ("speed",)


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
    # a prior key separates states by ',', so none could name this one
    "state-comma": (_set("states", 1, "x1,x2"), "states[1]"),
    "input-name": (_set("inputs", [["pres"]]), "inputs[0]"),
    # a generated trace would name the column twice, which its reader rejects
    "input-twice": (_set("inputs", ["pres", "pres"]), "inputs[1]"),
    "output-twice": (_set("outputs", ["lum", "lum"]), "outputs[1]"),
    "state-twice": (_set("states", ["x1", "x2", "x1"]), "states[2]"),
    "output-name": (_set("outputs", ["lum", 3]), "outputs[1]"),
    "variable": (
        _set("transitions", 0, "constraints", 0, "variable", ["pres"]),
        "transitions[0] (arc x1->x1).constraints[0]",
    ),
    "prior-null": (_set("prior", {"x1": None}), "prior"),
    "prior-string": (_set("prior", {"x1": "abc"}), "prior"),
    "prior-bool": (_set("prior", {"x1": True}), "prior"),
    "prior-huge": (_set("prior", {"x1": 10**400}), "prior"),
    "version-bool": (_set("format_version", True), "format_version"),
    "name-object": (_set("name", {"a": 1}), "name"),
    "forbidden-string": (
        _set("transitions", 0, "forbidden", "no"),
        "transitions[0] (arc x1->x1).forbidden",
    ),
    "inhibited-string": (
        _set("transitions", 0, "constraints", 0, "inhibited", "no"),
        "transitions[0] (arc x1->x1).constraints[0].inhibited",
    ),
    "param-bool": (
        _set("transitions", 0, "constraints", 0, "params", 0, True),
        "transitions[0] (arc x1->x1).constraints[0].params[0]",
    ),
    "param-huge": (
        _set("transitions", 0, "constraints", 0, "params", 1, 10**400),
        "transitions[0] (arc x1->x1).constraints[0].params[1]",
    ),
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


def _del(*keys):
    *keys, last = keys

    def mutate(doc):
        for key in keys:
            doc = doc[key]
        del doc[last]

    return mutate


_ARC = "transitions[0] (arc x1->x1)"

# name: (mutation of the luminosity document, error, its message with source "m")
MALFORMED_DOCUMENTS = {
    "missing-field": (_del("states"), ParseError, "m:$: missing field 'states'"),
    "constraint-number": (
        _set("transitions", 0, "constraints", 0, 3),
        ParseError,
        f"m:{_ARC}.constraints[0]: constraint must be an object",
    ),
    "missing-kind": (
        _del("transitions", 0, "constraints", 0, "kind"),
        ParseError,
        f"m:{_ARC}.constraints[0]: constraint is missing 'kind'",
    ),
    "params-number": (
        _set("transitions", 0, "constraints", 0, "params", 1.0),
        ParseError,
        f"m:{_ARC}.constraints[0].params: params must be a list",
    ),
    "missing-variable": (
        _del("transitions", 0, "constraints", 0, "variable"),
        ParseError,
        f"m:{_ARC}.constraints[0]: constraint is missing 'variable'",
    ),
    "no-constraints": (
        _set("transitions", 0, "constraints", []),
        ParseError,
        f"m:{_ARC}: constraints must be a non-empty list",
    ),
    "transition-string": (
        _set("transitions", 0, "x1->x1"),
        ParseError,
        "m:transitions[0]: transition must be an object",
    ),
    "emission-number": (
        _set("emissions", 0, 1),
        ParseError,
        "m:emissions[0]: emission must be an object",
    ),
    "emission-state": (
        _set("emissions", 0, "state", "x3"),
        ValidationError,
        "m:emissions[0]: unknown state 'x3'",
    ),
    "emission-twice": (
        _set("emissions", 1, "state", "x1"),
        ValidationError,
        "m:emissions[1]: duplicate emission for x1",
    ),
    "emission-missing": (
        _del("emissions", 1),
        ValidationError,
        "m: states without emissions: ['x2']",
    ),
    "prior-list": (
        _set("prior", [1.0]), ParseError, "m:prior: prior must map subsets to masses"
    ),
    "prior-state": (
        _set("prior", {"x3": 1.0}), ValidationError, "m:prior: unknown state 'x3'"
    ),
}


def test_model_from_dict_names_each_malformed_field():
    with pytest.raises(ParseError) as err:
        model_from_dict([], source="m")
    assert str(err.value) == "m: model document must be a JSON object"
    for mutate, error, message in MALFORMED_DOCUMENTS.values():
        doc = model_to_dict(luminosity_model())
        mutate(doc)
        with pytest.raises(error) as err:
            model_from_dict(doc, source="m")
        assert str(err.value) == message


def test_model_roundtrip_with_forbidden_arc_and_constant_entry(tmp_path):
    # a forbidden arc and a constant entry, which names no variable, are
    # written and read back as they were given
    doc = model_to_dict(luminosity_model())
    doc["transitions"][1] = {"from": "x1", "to": "x2", "forbidden": True}
    doc["emissions"][0]["constraints"].append({"kind": "constant", "params": [0.5]})
    model = model_from_dict(doc)
    assert model.transitions[0][1].is_forbidden
    assert model.emissions[0].entries[1].variable == "_"
    assert model_to_dict(model) == doc
    path = tmp_path / "m.json"
    write_model(model, path)
    assert model_to_dict(parse_model(path)) == doc


def test_model_from_dict_rejects_unknown_state_and_duplicate_arc():
    doc = model_to_dict(luminosity_model())
    doc["transitions"][0]["to"] = "nope"
    with pytest.raises(ValidationError):
        model_from_dict(doc)
    doc = model_to_dict(luminosity_model())
    doc["transitions"].append(doc["transitions"][0])
    with pytest.raises(ValidationError):
        model_from_dict(doc)


# what a mutation may put in place of a value
ODD_VALUES = (None, True, False, 2**70, 10**400, math.nan, math.inf, -math.inf, "", " ", ",")


@functools.lru_cache(maxsize=None)
def bundled_document(name):
    return bundled.model_path(name).read_text(encoding="utf-8")


@st.composite
def mutated_documents(draw):
    """A bundled model document after one to three mutations: a key or list
    entry deleted, a list entry duplicated, or a value swapped for an odd
    one.  Each mutation picks its spot by a walk down from the top."""
    doc = json.loads(bundled_document(draw(st.sampled_from(bundled.MODELS))))
    for _ in range(draw(st.integers(1, 3))):
        parent, key = doc, draw(st.sampled_from(list(doc)))
        while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
            parent = parent[key]
            keys = parent if isinstance(parent, dict) else range(len(parent))
            key = draw(st.sampled_from(list(keys)))
        ops = ("delete", "swap", "duplicate") if isinstance(parent, list) else ("delete", "swap")
        op = draw(st.sampled_from(ops))
        if op == "delete":
            del parent[key]
        elif op == "swap":
            parent[key] = draw(st.sampled_from(ODD_VALUES))
        else:
            parent.insert(key, json.loads(json.dumps(parent[key])))
    return doc


@settings(max_examples=1000, deadline=None)
@given(doc=mutated_documents())
def test_a_mutated_model_document_fails_as_a_parse_error_or_round_trips(doc):
    # nothing but a ParseError or ValidationError escapes, and what
    # is accepted is written and read back as it was
    try:
        once = model_to_dict(model_from_dict(doc))
    except (ParseError, ValidationError):
        return
    assert model_to_dict(model_from_dict(once)) == once


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


@pytest.mark.parametrize("window_len, stride", [(10, 5), (10, 7), (10, 12), (30, 1)])
def test_report_window_column_respects_stride(tmp_path, window_len, stride):
    model = luminosity_model()
    trace = read_trace(bundled.trace_path("luminosity_comfort_30"))
    report = sliding_effectiveness(trace, model, window_len, stride)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()[1:]
    filled = [i for i, line in enumerate(lines) if not line.endswith(",")]
    assert filled == list(range(window_len - 1, 30, stride))
    assert filled == [w.end for w in report.windows]
    for k, w in enumerate(report.windows):
        assert w.start == k * stride
        assert w.end_timestamp == trace[w.end].timestamp


def test_writers_do_not_build_report_rows(tmp_path):
    model = parse_model(bundled.model_path("speed_limits"))
    trace = read_trace(bundled.trace_path("speed_limits_mixed_600"))
    report = sliding_effectiveness(trace, model, 10, 3)

    def written(name):
        write_report_csv(report, tmp_path / f"{name}.csv")
        write_summary_json(report, tmp_path / f"{name}.json")
        return [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("csv", "json")]

    from_arrays = written("arrays")
    assert "steps" not in vars(report)
    assert "windows" not in vars(report)
    assert report.steps and report.windows
    assert written("rows") == from_arrays


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


@pytest.mark.parametrize("name", ["nested", "latin-1"])
def test_cli_eval_unreadable_model_document_is_located(tmp_path, name):
    # a document nested past Python's recursion limit stops json.load; a
    # byte that is not UTF-8 is located at its line, as in a trace
    text = bundled.model_path("luminosity").read_bytes()
    if name == "nested":
        data, where = b"[" * 100_000 + b"]" * 100_000, ""
        message = "model document is nested too deeply"
    else:
        data = text.replace(b'"luminosity"', b'"lumin\xe9osity"', 1)
        line = text[: text.index(b'"luminosity"')].count(b"\n") + 1
        where = f":{line}"
        message = "model file is not UTF-8 (invalid continuation byte)"
    path = tmp_path / "hostile.json"
    path.write_bytes(data)
    proc = run_cli(
        "eval",
        "--model", str(path),
        "--trace", str(bundled.trace_path("luminosity_comfort_30")),
    )
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.startswith(f"error: {path}{where}: ")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "command, flag, target",
    [
        ("eval", "--out", "missing/r.csv"),
        ("eval", "--summary", "missing/s.json"),
        ("eval", "--out", "."),
        ("gen-trace", "--out", "missing/x.csv"),
        # the trace is written, its manifest path is a directory
        ("gen-trace", "--out", "x.csv"),
    ],
)
def test_cli_unwritable_output_exits_1_without_traceback(
    tmp_path, command, flag, target
):
    # outputs are checked before any work: the trace, which does not
    # exist, is never read, and a report path that can be written is not
    # written when the summary path cannot be
    (tmp_path / "x.csv.manifest.json").mkdir()
    path = tmp_path / target
    args = ["--model", "luminosity"]
    if command == "eval":
        args += ["--trace", str(tmp_path / "no_such_trace.csv")]
    if flag == "--summary":
        args += ["--out", str(tmp_path / "ok.csv")]
    proc = run_cli(command, *args, flag, str(path))
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.startswith("error: ")
    assert str(path) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv.manifest.json"]


@pytest.mark.parametrize("length", ["0", "-3"])
def test_cli_gen_trace_bad_length_is_exit_1(tmp_path, length):
    out = tmp_path / "x.csv"
    proc = run_cli(
        "gen-trace", "--model", "luminosity", "--length", length, "--out", str(out)
    )
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr == f"error: --length must be >= 1, got {length}\n"
    assert list(tmp_path.iterdir()) == []


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
    assert proc.stdout == summary.read_text()


def test_cli_eval_missing_column_is_exit_1(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,in.pres,out.lum\n0,,1.0\n1,2.0,\n")
    proc = run_cli("eval", "--model", "luminosity", "--trace", str(bad))
    assert proc.returncode == 1
    assert "out.lum" in proc.stderr
    assert "record 2" in proc.stderr


def test_cli_runtime_error_is_exit_2(tmp_path):
    # the model parses, but emissions pinned below possibility 1 leave no
    # comfort zone to generate
    doc = json.loads(bundled.model_path("luminosity").read_text())
    for entry in doc["emissions"]:
        entry["constraints"] = [{"kind": "constant", "params": [0.5]}]
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    proc = run_cli(
        "gen-trace", "--model", str(model), "--scenario", "comfort",
        "--out", str(tmp_path / "t.csv"),
    )
    assert proc.returncode == 2, proc.stderr
    assert "comfort" in proc.stderr


@pytest.mark.parametrize(
    "text, column",
    [
        ("timestamp,in.other,out.lum\n0,,1.0\n1,2.0,2.0\n", "in.pres"),
        ("timestamp,in.pres\n0,\n1,2.0\n", "out.lum"),
    ],
    ids=["input", "output"],
)
def test_cli_eval_trace_without_a_read_column_exits_1(tmp_path, text, column):
    # located at the trace's header, not as an unlocated missing
    # observation once the engine reaches the record
    path = tmp_path / "t.csv"
    path.write_text(text)
    proc = run_cli("eval", "--model", "luminosity", "--trace", str(path), "--window", "2")
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr == f"error: {path}:1: missing column {column!r}\n"


def test_cli_eval_columns_not_read_are_optional(tmp_path):
    # a declared output no constraint reads, and the inputs of a trace
    # whose only record is record 0, which gates nothing
    doc = json.loads(bundled.model_path("luminosity").read_text())
    doc["outputs"].append("temp")
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    path = tmp_path / "t.csv"
    path.write_text("timestamp,out.lum\n0,1.0\n")
    proc = run_cli("eval", "--model", str(model), "--trace", str(path), "--window", "1")
    assert proc.returncode == 0, proc.stderr


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
