"""Scenario files: a JSON document describing one complete run.

The format is strict: unknown fields anywhere are an error (typo safety) and
every validation failure names the offending path.  Field-by-field reference
lives in ``docs/scenario_format.md``.

Each section is read through a table that maps every accepted JSON key to a
*reader*, a function ``(value, path) -> parsed value`` that raises
``ScenarioError`` naming ``path``.  ``_fields`` reads only the keys a document
sets, and the section is built as ``Cls(**fields)``: an absent key takes the
dataclass default, so no default is restated here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, NoReturn, Optional, Union

from ..gll import GllConfig, MacScheme, MappingConfig, ReportingConfig
from ..mobility import TRACE_POINTS, MobilityDelayModel
from ..mrrm import PolicySet, SelectionConfig, TerminalCapabilities
from ..trg import RESERVED_TYPES, CorrelationRule, PolicyRecord
from .env import ACTION_KINDS, MUTABLE_CELL_FIELDS, RAMP_FIELDS, Cell, Flow, ScenarioAction

NODE_ROLES = ("MN", "MR")
MRRM_LOCATIONS = ("terminal", "network")
VERDICTS = ("allow", "deny")
_RESOURCE_FIELDS = ("total_resources", "used_resources")
_MIN_DURATION_MS = 10000
_TAIL_AFTER_LAST_ACTION_MS = 5000


class ScenarioError(ValueError):
    """Malformed or invalid scenario; the message names the offending path."""


@dataclass
class TrgSettings:
    drop_types: list[str] = field(default_factory=list)
    policy_store: dict[str, PolicyRecord] = field(default_factory=dict)
    respond_to_policies_check: bool = True
    default_verdict: str = "allow"
    correlations: list[CorrelationRule] = field(default_factory=list)


@dataclass
class Scenario:
    seed: int = 0
    node_role: str = "MN"
    mrrm_location: str = "terminal"
    duration_ms: int = _MIN_DURATION_MS
    gll: GllConfig = field(default_factory=GllConfig)
    policies: PolicySet = field(default_factory=PolicySet)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    capabilities: TerminalCapabilities = field(default_factory=TerminalCapabilities)
    policies_check_timeout_ms: int = 1000
    make_before_break: bool = True
    trg: TrgSettings = field(default_factory=TrgSettings)
    mobility: MobilityDelayModel = field(default_factory=MobilityDelayModel)
    cells: list[Cell] = field(default_factory=list)
    flows: list[Flow] = field(default_factory=list)
    timeline: list[ScenarioAction] = field(default_factory=list)


# -- paths and readers -----------------------------------------------------------

# A path is a string ("" at the top level) or a (parent path, key) pair; a
# string key names a field and an int key a list index.  Readers hand pairs
# down, and only a diagnostic renders them to text.
_Path = Union[str, tuple]
_Reader = Callable[[Any, _Path], Any]


def _render(path: _Path) -> str:
    if type(path) is str:
        return path
    parent, key = path
    parent = _render(parent)
    if type(key) is int:
        return f"{parent}[{key}]"
    return f"{parent}.{key}" if parent else f"{key}"


def _fail(path: _Path, message: str) -> NoReturn:
    raise ScenarioError(f"{_render(path)}: {message}")


def _type_error(path: _Path, expected: str, value: Any) -> NoReturn:
    _fail(path, f"expected {expected}, got {type(value).__name__}")


def _int(value: Any, path: _Path) -> int:
    if type(value) is not int:
        _type_error(path, "an integer", value)
    return value


def _positive_int(value: Any, path: _Path) -> int:
    if _int(value, path) <= 0:
        _fail(path, "must be positive")
    return value


def _non_negative_int(value: Any, path: _Path) -> int:
    if _int(value, path) < 0:
        _fail(path, "must be >= 0")
    return value


def _number(value: Any, path: _Path) -> float:
    if type(value) is float:
        if value != value:  # NaN passes every range and weight-sum check
            _fail(path, "must be a number, not NaN")
        return value
    if type(value) is not int:
        _type_error(path, "a number", value)
    return float(value)  # a JSON 64000 reads as 64000.0, as the traces expect


def _fraction(value: Any, path: _Path) -> float:
    value = _number(value, path)
    if not 0.0 <= value <= 1.0:
        _fail(path, "must lie in [0,1]")
    return value


def _str(value: Any, path: _Path) -> str:
    if type(value) is not str:
        _type_error(path, "a string", value)
    return value


def _name(value: Any, path: _Path) -> str:
    if not _str(value, path):
        _fail(path, "must be non-empty")
    return value


def _bool(value: Any, path: _Path) -> bool:
    if type(value) is not bool:
        _type_error(path, "a boolean", value)
    return value


def _one_of(choices: tuple[str, ...]) -> _Reader:
    def read(value: Any, path: _Path) -> str:
        if value not in choices:
            _fail(path, f"expected one of {choices}")
        return value
    return read


def _optional(reader: _Reader) -> _Reader:
    def read(value: Any, path: _Path) -> Any:
        return None if value is None else reader(value, path)
    return read


def _list(value: Any, path: _Path) -> list:
    if not isinstance(value, list):
        _type_error(path, "a list", value)
    return value


def _object(value: Any, path: _Path) -> dict:
    if not isinstance(value, dict):
        _type_error(path, "an object", value)
    return value


def _list_of(reader: _Reader, build: Callable = list) -> _Reader:
    """Reader of a JSON list whose items ``reader`` reads, collected by ``build``."""
    def read(value: Any, path: _Path) -> Any:
        return build(reader(item, (path, i)) for i, item in enumerate(_list(value, path)))
    return read


def _map_of(reader: _Reader) -> _Reader:
    """Reader of a JSON object with free keys (classes, RATs, operators)."""
    def read(value: Any, path: _Path) -> dict:
        return {key: reader(item, (path, key)) for key, item in _object(value, path).items()}
    return read


def _fields(data: Any, path: _Path, table: dict[str, Optional[_Reader]],
            required: tuple[str, ...] = ()) -> dict[str, Any]:
    """Read the keys that ``data`` sets, each with its reader in ``table``.

    A key missing from ``table`` is an unknown field; a reader of ``None``
    copies the value as it is.
    """
    fields = {}
    for key, value in _object(data, path).items():
        if key not in table:
            _fail((path, key), "unknown field")
        reader = table[key]
        fields[key] = value if reader is None else reader(value, (path, key))
    for key in required:
        if key not in fields:
            _fail((path, key), "required field missing")
    return fields


def _validated(obj: Any, path: _Path) -> Any:
    try:
        obj.validate()
    except ValueError as exc:
        _fail(path, str(exc))
    return obj


def _section(cls: type, table: dict[str, Optional[_Reader]],
             required: tuple[str, ...] = ()) -> _Reader:
    """Reader of a JSON object into ``cls(**fields)``, validated if ``cls`` can."""
    validates = hasattr(cls, "validate")

    def read(value: Any, path: _Path) -> Any:
        obj = cls(**_fields(value, path, table, required))
        return _validated(obj, path) if validates else obj
    return read


_ints = _map_of(_int)
_numbers = _map_of(_number)


# -- readers whose JSON differs from the field -----------------------------------


def _reference_rate(value: Any, path: _Path) -> Union[float, dict[str, float]]:
    return _numbers(value, path) if isinstance(value, dict) else _number(value, path)


def _intervals(value: Any, path: _Path) -> dict[str, int]:
    """Listed classes override the default table; the others keep theirs."""
    return {**ReportingConfig().intervals_ms, **_ints(value, path)}


def _rat_frequency(value: Any, path: _Path) -> tuple[str, str]:
    if not (isinstance(value, list) and len(value) == 2
            and type(value[0]) is str and type(value[1]) is str):
        _fail(path, "expected a [rat, frequency] pair")
    return (value[0], value[1])


def _static_preference(value: Any, path: _Path) -> dict[tuple[str, str], float]:
    """``{"operator|rat": preference}`` keyed by ``(operator, rat)``."""
    table = {}
    for key, preference in _object(value, path).items():
        if "|" not in key:
            _fail((path, key), "key must be 'operator|rat'")
        operator_id, _, rat = key.partition("|")
        table[(operator_id, rat)] = _number(preference, (path, key))
    return table


def _mrrm(value: Any, path: _Path) -> dict[str, Any]:
    """The ``mrrm`` section fans out to four Scenario fields of the same names."""
    return _fields(value, path, _MRRM)


def _output_type(value: Any, path: _Path) -> str:
    if _str(value, path) in RESERVED_TYPES:
        _fail(path, f"{value!r} is a reserved event type")
    return value


def _delay_model(value: Any, path: _Path) -> MobilityDelayModel:
    if not (isinstance(value, list) and len(value) == TRACE_POINTS
            and all(type(d) is int for d in value)):
        _fail(path, "expected five integer delays")
    return _validated(MobilityDelayModel(delays_ms=tuple(value)), path)


def _mobility(value: Any, path: _Path) -> dict[str, Any]:
    """The ``mobility`` section fans out to two Scenario fields: the delay
    model ``mobility`` (JSON ``delays_ms``) and ``make_before_break``, which
    only MRRM reads."""
    fields = _fields(value, path, _MOBILITY)
    if "delays_ms" in fields:
        fields["mobility"] = fields.pop("delays_ms")
    return fields


# -- reader tables ---------------------------------------------------------------

_MAPPING = {
    "w_error": _number, "w_rate": _number, "w_delay": _number, "w_load": _number,
    "fer_max": _number, "reference_rate": _reference_rate, "delay_max_ms": _number,
}
_GLL = {
    "mapping": _section(MappingConfig, _MAPPING),
    "reporting": _section(ReportingConfig, {"intervals_ms": _intervals, "enabled": _bool}),
    "mac": _section(MacScheme, {"max_retransmissions": _ints}),
    "attach_latency_ms": _int,
    "targeted_probe_ms": _int,
    "full_scan_per_rat_ms": _int,
    "probe_energy": _numbers,
    "history": _list_of(_rat_frequency),
}
_POLICIES = {
    "allowed_operators": _list_of(_str, set),
    "denied_operators": _list_of(_str, set),
    "min_security_level": _int,
    "max_cost_per_mb": _optional(_number),
    "roaming_allowed": _bool,
    "home_operator": _optional(_str),
    "static_preference": _static_preference,
}
_SELECTION = {
    "w_qos": _number, "w_link": _number, "w_cell": _number, "w_term": _number,
    "w_pol": _number, "load_threshold": _number, "hysteresis_delta": _number,
    "quality_floor": _number, "failure_cooldown_ms": _int,
}
_MRRM = {
    "policies": _section(PolicySet, _POLICIES),
    "selection": _section(SelectionConfig, _SELECTION),
    "capabilities": _section(TerminalCapabilities, {
        "supported_rats": _list_of(_str, set), "energy_cost": _numbers}),
    "policies_check_timeout_ms": _non_negative_int,
}
_CORRELATION = {
    "rule_id": _str, "pattern": _list_of(_str, tuple), "window_ms": _int,
    "output_type": _output_type, "reset_on_fire": _bool,
}
_TRG = {
    "drop_types": _list_of(_str),
    "policy_store": _map_of(_section(PolicyRecord, {
        "verdict": _one_of(VERDICTS), "preference": _optional(_fraction)})),
    "respond_to_policies_check": _bool,
    "default_verdict": _one_of(VERDICTS),
    "correlations": _list_of(_section(CorrelationRule, _CORRELATION,
                                      required=("rule_id", "pattern", "window_ms",
                                                "output_type"))),
}
_MOBILITY = {"delays_ms": _delay_model, "make_before_break": _bool}
_CELL = {
    "cell_id": _str, "rat": _str, "operator_id": _str, "frequency": _str,
    "covered": _bool, "total_resources": _int, "used_resources": _int,
    "raw_error_rate": _number, "achievable_rate": _number, "base_delay_ms": _number,
    "security_level": _int, "cost_per_mb": _number,
}
_FLOW_PARAMS = {
    "service_class": _str, "min_rate": _number, "max_delay_ms": _number,
    "max_loss": _number, "resource_demand": _int,
}
_FLOW = {"flow_id": _str, "serving": _optional(_str), **_FLOW_PARAMS}


def _action_table(params: dict[str, Optional[_Reader]],
                  required: tuple[str, ...] = ()) -> tuple[dict, tuple[str, ...]]:
    return ({"at": _non_negative_int, "kind": None, "target": _name, **params},
            ("at", "target", *required))


# The parameters of the action kinds that take any, and which are required.
# A set-cell-field value is copied as written and checked against its field.
_ACTION_PARAMS = {
    "set-cell-field": ({"field": _one_of(MUTABLE_CELL_FIELDS), "value": None},
                       ("field", "value")),
    "flow-arrival": (_FLOW_PARAMS,),
    "quality-ramp": ({"field": _one_of(RAMP_FIELDS), "start": _number, "end": _number,
                      "duration_ms": _positive_int, "step_ms": _positive_int},
                     ("field", "end", "duration_ms")),
}
_ACTIONS = {kind: _action_table(*_ACTION_PARAMS.get(kind, ({},))) for kind in ACTION_KINDS}
# The reader of a set-cell-field value by field, a number for any other.  A
# resource count's sign does not depend on the run, so the loader checks it.
_CELL_FIELD_VALUES = {"total_resources": _positive_int, "used_resources": _non_negative_int,
                      "security_level": _int}

_read_cell = _section(Cell, _CELL, required=("cell_id", "rat", "operator_id", "frequency"))


# -- cells, flows and the timeline ---------------------------------------------------


def _cells(value: Any, path: _Path) -> dict[str, Cell]:
    cells: dict[str, Cell] = {}
    for i, raw in enumerate(_list(value, path)):
        cell = _read_cell(raw, (path, i))
        if cell.cell_id in cells:
            _fail(((path, i), "cell_id"), f"duplicate cell {cell.cell_id!r}")
        cells[cell.cell_id] = cell
    return cells


def _flow(value: Any, path: _Path, cells: dict[str, Cell]) -> Flow:
    """A ``serving`` cell id must name a covered cell."""
    fields = _fields(value, path, _FLOW, required=("flow_id",))
    serving_id = fields.get("serving")
    if serving_id is not None:
        cell = cells.get(serving_id)
        if cell is None:
            _fail((path, "serving"), f"unknown cell {serving_id!r}")
        if not cell.covered:
            _fail((path, "serving"), f"cell {serving_id!r} is not covered")
    return _validated(Flow(**fields), path)


def _flows(value: Any, path: _Path, cells: dict[str, Cell]) -> dict[str, Flow]:
    """Flows in file order; the initial demands on a cell, on top of its base
    load, must fit its capacity."""
    flows: dict[str, Flow] = {}
    used = {cell_id: cell.used_resources for cell_id, cell in cells.items()}
    for i, raw in enumerate(_list(value, path)):
        flow = _flow(raw, (path, i), cells)
        if flow.flow_id in flows:
            _fail(((path, i), "flow_id"), f"duplicate flow {flow.flow_id!r}")
        if flow.serving is not None:
            cell = cells[flow.serving]
            used[cell.cell_id] += flow.resource_demand
            if used[cell.cell_id] > cell.total_resources:
                _fail(((path, i), "serving"), f"initial demand of {flow.flow_id!r} exceeds "
                                              f"capacity of cell {cell.cell_id!r}")
        flows[flow.flow_id] = flow
    return flows


def _action(value: Any, path: _Path) -> ScenarioAction:
    kind = _object(value, path).get("kind")
    if type(kind) is not str or kind not in _ACTIONS:
        _fail((path, "kind"), f"unknown action kind {kind!r}")
    params = _fields(value, path, *_ACTIONS[kind])
    at, target = params.pop("at"), params.pop("target")
    del params["kind"]
    if kind == "flow-arrival":
        flow = _validated(Flow(flow_id=target, **params), path)
        return ScenarioAction(at=at, kind=kind, target=target, flow=flow)
    if kind == "set-cell-field":
        _CELL_FIELD_VALUES.get(params["field"], _number)(params["value"], (path, "value"))
    return ScenarioAction(at=at, kind=kind, target=target, params=params)


def _timeline(value: Any, path: _Path, cells: dict[str, Cell],
              flows: dict[str, Flow]) -> list[ScenarioAction]:
    """Entries in time order, each aimed at a known cell or a live flow.  A
    quality ramp's ``start`` and ``end``, and a set-cell-field ``value``, must
    be values the cell may hold; a resource count's range past its sign is
    left to the run, where it depends on the flows charged there."""
    actions = []
    live_flows = set(flows)
    last_at = 0
    for i, raw in enumerate(_list(value, path)):
        action = _action(raw, (path, i))
        if action.at < last_at:
            _fail(((path, i), "at"), "timeline must be in non-decreasing time order")
        last_at = action.at
        if action.kind == "flow-arrival":
            if action.target in live_flows:
                _fail(((path, i), "target"), f"flow {action.target!r} already exists")
            live_flows.add(action.target)
        elif action.kind == "flow-departure":
            if action.target not in live_flows:
                _fail(((path, i), "target"), f"unknown flow {action.target!r}")
            live_flows.discard(action.target)
        elif action.target not in cells:
            _fail(((path, i), "target"), f"unknown cell {action.target!r}")
        elif "field" in action.params and action.params["field"] not in _RESOURCE_FIELDS:
            for key in ("start", "end", "value"):
                if key in action.params:
                    changed = {action.params["field"]: action.params[key]}
                    _validated(replace(cells[action.target], **changed), ((path, i), key))
        actions.append(action)
    return actions


_SCENARIO = {
    "seed": _int,
    "node_role": _one_of(NODE_ROLES),
    "mrrm_location": _one_of(MRRM_LOCATIONS),
    "duration_ms": _positive_int,
    "gll": _section(GllConfig, _GLL),
    "mrrm": _mrrm,
    "trg": _section(TrgSettings, _TRG),
    "mobility": _mobility,
    # Read after the others: flows name cells, and the timeline names both.
    "cells": None,
    "flows": None,
    "timeline": None,
}


# -- entry points -----------------------------------------------------------------


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a Scenario from a parsed JSON tree."""
    if not isinstance(data, dict):
        raise ScenarioError("top level: expected an object")
    fields = _fields(data, "", _SCENARIO)
    for section in ("mrrm", "mobility"):
        fields.update(fields.pop(section, {}))
    cells = _cells(fields.pop("cells", []), "cells")
    flows = _flows(fields.pop("flows", []), "flows", cells)
    timeline = _timeline(fields.pop("timeline", []), "timeline", cells, flows)
    if "duration_ms" not in fields:
        last_at = timeline[-1].at if timeline else 0
        fields["duration_ms"] = max(_MIN_DURATION_MS, last_at + _TAIL_AFTER_LAST_ACTION_MS)
    return Scenario(cells=list(cells.values()), flows=list(flows.values()),
                    timeline=timeline, **fields)


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load, parse and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: parse error: {exc}") from exc
    return scenario_from_dict(data)
