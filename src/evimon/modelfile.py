"""Self-describing JSON model documents.

A document declares the states, the input and output variables, one
constraint list (or a ``forbidden`` marker) per ordered state pair, one
constraint list per state, the normalization rule and an optional prior.
``format_version`` is checked so the schema can evolve.
"""

from __future__ import annotations

import json
from numbers import Real
from typing import Mapping

import numpy as np

from .belief import Frame, MassFunction
from .errors import ParseError, ValidationError
from .iohmm import EvIohmm
from .possibility import (
    Constraint,
    ConstraintVector,
    PossibilityDistribution,
)
from .trace import _undecodable_at

FORMAT_VERSION = 1


def parse_model(path) -> EvIohmm:
    """Load and validate a model file; see :func:`model_from_dict`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read model file: {exc}", str(path)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"{path}:{exc.lineno}:{exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"model file is not UTF-8 ({exc.reason})", _undecodable_at(path)
        ) from None
    except RecursionError:  # json.load recurses once per nested array or object
        raise ParseError("model document is nested too deeply", str(path)) from None
    return model_from_dict(doc, source=str(path))


def model_from_dict(doc, *, source: str = "<dict>") -> EvIohmm:
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object", source)

    def need(key, kind):
        if key not in doc:
            raise ParseError(f"missing field {key!r}", f"{source}:$")
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ParseError(
                f"field {key!r} must be {kind.__name__}", f"{source}:{key}"
            )
        return value

    def flag(entry, key, where):
        """A JSON boolean, false when absent: ``"no"`` is not false."""
        value = entry.get(key, False)
        if not isinstance(value, bool):
            raise ParseError(
                f"{key!r} must be true or false, got {value!r}",
                f"{source}:{where}.{key}",
            )
        return value

    def names(key):
        values = need(key, list)
        for k, value in enumerate(values):
            where = f"{source}:{key}[{k}]"
            if not isinstance(value, str):
                raise ParseError(f"{key} must be strings, got {value!r}", where)
            if value in values[:k]:  # a frame names each state once, a trace each column
                raise ParseError(f"{key} must be distinct, got {value!r} twice", where)
        return values

    version = need("format_version", int)
    if version != FORMAT_VERSION:
        raise ParseError(
            f"unsupported format_version {version} (expected {FORMAT_VERSION})", source
        )
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError(f"name must be a string, got {name!r}", f"{source}:name")
    states = names("states")
    for k, state in enumerate(states):
        if "," in state:  # which a prior key cannot name
            where = f"{source}:states[{k}]"
            raise ParseError(f"state name must not contain ',', got {state!r}", where)
    inputs = names("inputs")
    outputs = names("outputs")
    try:
        frame = Frame(states)
    except ValueError as exc:
        raise ValidationError(f"{source}: bad states: {exc}") from exc
    declared_in = set(inputs)
    declared_out = set(outputs)

    def build_constraint(entry, declared, where):
        if not isinstance(entry, dict):
            raise ParseError("constraint must be an object", f"{source}:{where}")
        kind = entry.get("kind")
        if kind is None:
            raise ParseError("constraint is missing 'kind'", f"{source}:{where}")
        params = entry.get("params", [])
        if not isinstance(params, list):
            raise ParseError("params must be a list", f"{source}:{where}.params")
        params = [
            _number(p, "param", f"{source}:{where}.params[{k}]")
            for k, p in enumerate(params)
        ]
        variable = entry.get("variable")
        if variable is None or variable == "_":
            if kind != "constant":
                raise ParseError(
                    "constraint is missing 'variable'", f"{source}:{where}"
                )
            variable = "_"
        elif not isinstance(variable, str):
            raise ParseError(
                f"constraint variable must be a string, got {variable!r}",
                f"{source}:{where}",
            )
        elif variable not in declared:
            raise ValidationError(
                f"{source}:{where}: variable {variable!r} is not declared"
            )
        inhibited = flag(entry, "inhibited", where)
        try:
            dist = PossibilityDistribution(kind, tuple(params))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{source}:{where}: {exc}") from exc
        return Constraint(variable, dist, inhibited)

    def build_vector(entries, declared, where):
        if not isinstance(entries, list) or not entries:
            raise ParseError(
                "constraints must be a non-empty list", f"{source}:{where}"
            )
        built = [
            build_constraint(entry, declared, f"{where}.constraints[{k}]")
            for k, entry in enumerate(entries)
        ]
        try:
            return ConstraintVector(tuple(built))
        except ValueError as exc:
            raise ValidationError(f"{source}:{where}: {exc}") from exc

    arcs: dict[tuple[str, str], ConstraintVector] = {}
    for k, arc in enumerate(need("transitions", list)):
        where = f"transitions[{k}]"
        if not isinstance(arc, dict):
            raise ParseError("transition must be an object", f"{source}:{where}")
        src, dst = arc.get("from"), arc.get("to")
        if src not in frame.labels or dst not in frame.labels:
            raise ValidationError(
                f"{source}:{where}: unknown state in arc {src!r}->{dst!r}"
            )
        if (src, dst) in arcs:
            raise ValidationError(f"{source}:{where}: duplicate arc {src}->{dst}")
        if flag(arc, "forbidden", f"{where} (arc {src}->{dst})"):
            arcs[(src, dst)] = ConstraintVector.forbidden()
        else:
            arcs[(src, dst)] = build_vector(
                arc.get("constraints"), declared_in, f"{where} (arc {src}->{dst})"
            )
    missing = [
        (s, d)
        for s in frame.labels
        for d in frame.labels
        if (s, d) not in arcs
    ]
    if missing:
        raise ValidationError(
            f"{source}: arcs without constraints or forbidden marker: "
            + ", ".join(f"{s}->{d}" for s, d in missing[:5])
        )

    emis: dict[str, ConstraintVector] = {}
    for k, entry in enumerate(need("emissions", list)):
        where = f"emissions[{k}]"
        if not isinstance(entry, dict):
            raise ParseError("emission must be an object", f"{source}:{where}")
        state = entry.get("state")
        if state not in frame.labels:
            raise ValidationError(f"{source}:{where}: unknown state {state!r}")
        if state in emis:
            raise ValidationError(f"{source}:{where}: duplicate emission for {state}")
        emis[state] = build_vector(
            entry.get("constraints"), declared_out, f"{where} (state {state})"
        )
    lacking = [s for s in frame.labels if s not in emis]
    if lacking:
        raise ValidationError(f"{source}: states without emissions: {lacking}")

    rule = doc.get("normalization", "dempster")
    prior = _parse_prior(doc.get("prior"), frame, source)

    try:
        return EvIohmm(
            frame,
            tuple(
                tuple(arcs[(s, d)] for d in frame.labels) for s in frame.labels
            ),
            tuple(emis[s] for s in frame.labels),
            prior=prior,
            rule=rule,
            input_variables=tuple(inputs),
            output_variables=tuple(outputs),
            name=name,
        )
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from exc


def _parse_prior(raw, frame: Frame, source: str) -> MassFunction | None:
    if raw is None:
        return None
    if not isinstance(raw, Mapping):
        raise ParseError("prior must map subsets to masses", f"{source}:prior")
    arr = np.zeros(frame.n_subsets)
    for key, value in raw.items():
        labels = [s for s in str(key).split(",") if s]
        try:
            mask = frame.mask_of(labels)
        except KeyError as exc:  # whose str() quotes its message
            raise ValidationError(f"{source}:prior: {exc.args[0]}") from exc
        arr[mask] += _number(value, f"mass of {key!r}", f"{source}:prior")
    try:
        return MassFunction(frame, arr)
    except ValueError as exc:
        raise ValidationError(f"{source}:prior: {exc}") from exc


def _number(value, what: str, where: str) -> float:
    """A JSON number as a float; bools and integers beyond the float range fail."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ParseError(f"{what} must be a number, got {value!r}", where)
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{what} is out of range", where) from None


def model_to_dict(model: EvIohmm) -> dict:
    """Serialize a model to the document form that :func:`parse_model` reads."""

    def constraint_entry(c: Constraint) -> dict:
        entry = {
            "variable": c.variable,
            "kind": c.distribution.kind,
            "params": list(c.distribution.params),
        }
        if c.variable == "_":
            del entry["variable"]
        if c.inhibited:
            entry["inhibited"] = True
        return entry

    transitions = []
    for i, src in enumerate(model.frame.labels):
        for j, dst in enumerate(model.frame.labels):
            cv = model.transitions[i][j]
            arc = {"from": src, "to": dst}
            if cv.is_forbidden:
                arc["forbidden"] = True
            else:
                arc["constraints"] = [constraint_entry(c) for c in cv.entries]
            transitions.append(arc)
    emissions = [
        {
            "state": state,
            "constraints": [constraint_entry(c) for c in model.emissions[j].entries],
        }
        for j, state in enumerate(model.frame.labels)
    ]
    doc = {
        "format_version": FORMAT_VERSION,
        "name": model.name,
        "states": list(model.frame.labels),
        "inputs": list(model.input_variables),
        "outputs": list(model.output_variables),
        "normalization": model.rule,
        "transitions": transitions,
        "emissions": emissions,
    }
    if not model.prior.is_vacuous():
        doc["prior"] = {
            ",".join(model.frame.subset_labels(mask)): float(model.prior.masses[mask])
            for mask in model.prior.focal_masks()
        }
    return doc


def write_model(model: EvIohmm, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
