"""Scenario files: a JSON document describing one complete run.

The format is strict: unknown fields anywhere are an error (typo safety) and
every validation failure names the offending path.  Field-by-field reference
lives in ``docs/scenario_format.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Union

from ..gll import GllConfig, MacScheme, MappingConfig, ReportingConfig, candidate_for
from ..mobility import MobilityConfig, MobilityDelayModel
from ..mrrm import Flow, PolicySet, SelectionConfig, TerminalCapabilities
from ..trg import CorrelationRule, PolicyRecord
from .env import ACTION_KINDS, MUTABLE_CELL_FIELDS, RAMP_FIELDS, Cell, ScenarioAction

NODE_ROLES = ("MN", "MR")
MRRM_LOCATIONS = ("terminal", "network")
_INT_CELL_FIELDS = ("total_resources", "used_resources", "security_level")
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
    trg: TrgSettings = field(default_factory=TrgSettings)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    cells: list[Cell] = field(default_factory=list)
    flows: list[Flow] = field(default_factory=list)
    timeline: list[ScenarioAction] = field(default_factory=list)


# -- parsing helpers ---------------------------------------------------------


def _fail(path: str, message: str) -> None:
    raise ScenarioError(f"{path}: {message}")


def _check_keys(data: dict, path: str, allowed: set[str]) -> None:
    for key in data:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown field")


def _expect(data: dict, path: str, key: str, kinds: tuple[type, ...], default: Any) -> Any:
    if key not in data:
        return default
    value = data[key]
    if kinds == (int,) and isinstance(value, bool):
        _fail(f"{path}.{key}", "expected an integer")
    if not isinstance(value, kinds):
        names = "/".join(k.__name__ for k in kinds)
        _fail(f"{path}.{key}", f"expected {names}, got {type(value).__name__}")
    return value


def _expect_number(data: dict, path: str, key: str, default: float) -> float:
    value = _expect(data, path, key, (int, float), default)
    if isinstance(value, bool):
        _fail(f"{path}.{key}", "expected a number")
    return float(value)


def _expect_int(data: dict, path: str, key: str, default: int) -> int:
    return _expect(data, path, key, (int,), default)


def _expect_positive_int(data: dict, path: str, key: str, default: int) -> int:
    value = _expect_int(data, path, key, default)
    if value <= 0:
        _fail(f"{path}.{key}", "must be positive")
    return value


def _require(data: dict, path: str, key: str) -> None:
    if key not in data:
        _fail(f"{path}.{key}", "required field missing")


def _expect_str(data: dict, path: str, key: str, default: str) -> str:
    return _expect(data, path, key, (str,), default)


def _expect_bool(data: dict, path: str, key: str, default: bool) -> bool:
    return _expect(data, path, key, (bool,), default)


def _str_list(data: dict, path: str, key: str) -> list[str]:
    raw = _expect(data, path, key, (list,), [])
    for i, item in enumerate(raw):
        if not isinstance(item, str):
            _fail(f"{path}.{key}[{i}]", "expected a string")
    return list(raw)


def _validated(obj: Any, path: str) -> Any:
    try:
        obj.validate()
    except ValueError as exc:
        _fail(path, str(exc))
    return obj


# -- section parsers -----------------------------------------------------------


def _parse_mapping(data: dict, path: str) -> MappingConfig:
    _check_keys(data, path, {"w_error", "w_rate", "w_delay", "w_load",
                             "fer_max", "reference_rate", "delay_max_ms"})
    reference: Union[float, dict[str, float]]
    raw_ref = data.get("reference_rate", 2e6)
    if isinstance(raw_ref, dict):
        reference = {}
        for cls, rate in raw_ref.items():
            if not isinstance(rate, (int, float)) or isinstance(rate, bool):
                _fail(f"{path}.reference_rate.{cls}", "expected a number")
            reference[cls] = float(rate)
    elif isinstance(raw_ref, (int, float)) and not isinstance(raw_ref, bool):
        reference = float(raw_ref)
    else:
        _fail(f"{path}.reference_rate", "expected a number or per-class object")
    cfg = MappingConfig(
        w_error=_expect_number(data, path, "w_error", 0.25),
        w_rate=_expect_number(data, path, "w_rate", 0.25),
        w_delay=_expect_number(data, path, "w_delay", 0.25),
        w_load=_expect_number(data, path, "w_load", 0.25),
        fer_max=_expect_number(data, path, "fer_max", 0.1),
        reference_rate=reference,
        delay_max_ms=_expect_number(data, path, "delay_max_ms", 200.0),
    )
    return _validated(cfg, path)


def _parse_reporting(data: dict, path: str) -> ReportingConfig:
    _check_keys(data, path, {"intervals_ms", "enabled"})
    cfg = ReportingConfig(enabled=_expect_bool(data, path, "enabled", True))
    raw = _expect(data, path, "intervals_ms", (dict,), None)
    if raw is not None:
        for cls, interval in raw.items():
            if not isinstance(interval, int) or isinstance(interval, bool):
                _fail(f"{path}.intervals_ms.{cls}", "expected an integer")
            cfg.intervals_ms[cls] = interval
    return _validated(cfg, path)


def _parse_mac(data: dict, path: str) -> MacScheme:
    _check_keys(data, path, {"max_retransmissions"})
    raw = _expect(data, path, "max_retransmissions", (dict,), {})
    table = {}
    for rat, count in raw.items():
        if not isinstance(count, int) or isinstance(count, bool):
            _fail(f"{path}.max_retransmissions.{rat}", "expected an integer")
        table[rat] = count
    return _validated(MacScheme(max_retransmissions=table), path)


def _parse_gll(data: dict, path: str) -> GllConfig:
    _check_keys(data, path, {"mapping", "reporting", "mac", "attach_latency_ms",
                             "targeted_probe_ms", "full_scan_per_rat_ms",
                             "probe_energy", "history"})
    history = []
    for i, pair in enumerate(_expect(data, path, "history", (list,), [])):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(p, str) for p in pair)):
            _fail(f"{path}.history[{i}]", "expected a [rat, frequency] pair")
        history.append((pair[0], pair[1]))
    energy = {}
    for rat, cost in _expect(data, path, "probe_energy", (dict,), {}).items():
        if not isinstance(cost, (int, float)) or isinstance(cost, bool):
            _fail(f"{path}.probe_energy.{rat}", "expected a number")
        energy[rat] = float(cost)
    cfg = GllConfig(
        mapping=_parse_mapping(_expect(data, path, "mapping", (dict,), {}), f"{path}.mapping"),
        reporting=_parse_reporting(_expect(data, path, "reporting", (dict,), {}), f"{path}.reporting"),
        mac=_parse_mac(_expect(data, path, "mac", (dict,), {}), f"{path}.mac"),
        attach_latency_ms=_expect_int(data, path, "attach_latency_ms", 50),
        targeted_probe_ms=_expect_int(data, path, "targeted_probe_ms", 50),
        full_scan_per_rat_ms=_expect_int(data, path, "full_scan_per_rat_ms", 200),
        probe_energy=energy,
        history=history,
    )
    return _validated(cfg, path)


def _parse_policies(data: dict, path: str) -> PolicySet:
    _check_keys(data, path, {"allowed_operators", "denied_operators", "min_security_level",
                             "max_cost_per_mb", "roaming_allowed", "home_operator",
                             "static_preference"})
    preference = {}
    for key, value in _expect(data, path, "static_preference", (dict,), {}).items():
        if "|" not in key:
            _fail(f"{path}.static_preference.{key}", "key must be 'operator|rat'")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            _fail(f"{path}.static_preference.{key}", "expected a number")
        operator_id, _, rat = key.partition("|")
        preference[(operator_id, rat)] = float(value)
    max_cost = data.get("max_cost_per_mb")
    if max_cost is not None and (not isinstance(max_cost, (int, float)) or isinstance(max_cost, bool)):
        _fail(f"{path}.max_cost_per_mb", "expected a number or null")
    home = data.get("home_operator")
    if home is not None and not isinstance(home, str):
        _fail(f"{path}.home_operator", "expected a string or null")
    cfg = PolicySet(
        allowed_operators=set(_str_list(data, path, "allowed_operators")),
        denied_operators=set(_str_list(data, path, "denied_operators")),
        min_security_level=_expect_int(data, path, "min_security_level", 0),
        max_cost_per_mb=None if max_cost is None else float(max_cost),
        roaming_allowed=_expect_bool(data, path, "roaming_allowed", True),
        home_operator=home,
        static_preference=preference,
    )
    return _validated(cfg, path)


def _parse_selection(data: dict, path: str) -> SelectionConfig:
    _check_keys(data, path, {"w_qos", "w_link", "w_cell", "w_term", "w_pol",
                             "load_threshold", "hysteresis_delta", "quality_floor",
                             "failure_cooldown_ms"})
    cfg = SelectionConfig(
        w_qos=_expect_number(data, path, "w_qos", 0.3),
        w_link=_expect_number(data, path, "w_link", 0.3),
        w_cell=_expect_number(data, path, "w_cell", 0.2),
        w_term=_expect_number(data, path, "w_term", 0.1),
        w_pol=_expect_number(data, path, "w_pol", 0.1),
        load_threshold=_expect_number(data, path, "load_threshold", 0.9),
        hysteresis_delta=_expect_number(data, path, "hysteresis_delta", 0.05),
        quality_floor=_expect_number(data, path, "quality_floor", 0.1),
        failure_cooldown_ms=_expect_int(data, path, "failure_cooldown_ms", 5000),
    )
    return _validated(cfg, path)


def _parse_capabilities(data: dict, path: str) -> TerminalCapabilities:
    _check_keys(data, path, {"supported_rats", "energy_cost"})
    energy = {}
    for rat, cost in _expect(data, path, "energy_cost", (dict,), {}).items():
        if not isinstance(cost, (int, float)) or isinstance(cost, bool):
            _fail(f"{path}.energy_cost.{rat}", "expected a number")
        energy[rat] = float(cost)
    cfg = TerminalCapabilities(
        supported_rats=set(_str_list(data, path, "supported_rats")),
        energy_cost=energy,
    )
    return _validated(cfg, path)


def _parse_mrrm(data: dict, path: str) -> tuple[PolicySet, SelectionConfig, TerminalCapabilities, int]:
    _check_keys(data, path, {"policies", "selection", "capabilities",
                             "policies_check_timeout_ms"})
    return (
        _parse_policies(_expect(data, path, "policies", (dict,), {}), f"{path}.policies"),
        _parse_selection(_expect(data, path, "selection", (dict,), {}), f"{path}.selection"),
        _parse_capabilities(_expect(data, path, "capabilities", (dict,), {}), f"{path}.capabilities"),
        _expect_int(data, path, "policies_check_timeout_ms", 1000),
    )


def _parse_trg(data: dict, path: str) -> TrgSettings:
    _check_keys(data, path, {"drop_types", "policy_store", "respond_to_policies_check",
                             "default_verdict", "correlations"})
    store = {}
    for operator, raw in _expect(data, path, "policy_store", (dict,), {}).items():
        entry_path = f"{path}.policy_store.{operator}"
        if not isinstance(raw, dict):
            _fail(entry_path, "expected an object")
        _check_keys(raw, entry_path, {"verdict", "preference"})
        verdict = _expect_str(raw, entry_path, "verdict", "allow")
        if verdict not in ("allow", "deny"):
            _fail(f"{entry_path}.verdict", "expected allow or deny")
        preference = raw.get("preference")
        if preference is not None:
            if not isinstance(preference, (int, float)) or isinstance(preference, bool):
                _fail(f"{entry_path}.preference", "expected a number")
            preference = float(preference)
        store[operator] = PolicyRecord(verdict=verdict, preference=preference)
    default_verdict = _expect_str(data, path, "default_verdict", "allow")
    if default_verdict not in ("allow", "deny"):
        _fail(f"{path}.default_verdict", "expected allow or deny")
    correlations = []
    for i, raw in enumerate(_expect(data, path, "correlations", (list,), [])):
        rule_path = f"{path}.correlations[{i}]"
        if not isinstance(raw, dict):
            _fail(rule_path, "expected an object")
        _check_keys(raw, rule_path, {"rule_id", "pattern", "window_ms",
                                     "output_type", "reset_on_fire"})
        pattern = tuple(_str_list(raw, rule_path, "pattern"))
        if len(pattern) < 2:
            _fail(f"{rule_path}.pattern", "pattern length must be >= 2")
        window = _expect_positive_int(raw, rule_path, "window_ms", 0)
        rule_id = _expect_str(raw, rule_path, "rule_id", "")
        output_type = _expect_str(raw, rule_path, "output_type", "")
        if not rule_id or not output_type:
            _fail(rule_path, "rule_id and output_type are required")
        correlations.append(CorrelationRule(
            rule_id=rule_id,
            pattern=pattern,
            window_ms=window,
            output_type=output_type,
            reset_on_fire=_expect_bool(raw, rule_path, "reset_on_fire", True),
        ))
    return TrgSettings(
        drop_types=_str_list(data, path, "drop_types"),
        policy_store=store,
        respond_to_policies_check=_expect_bool(data, path, "respond_to_policies_check", True),
        default_verdict=default_verdict,
        correlations=correlations,
    )


def _parse_mobility(data: dict, path: str) -> MobilityConfig:
    _check_keys(data, path, {"delays_ms", "make_before_break"})
    raw = _expect(data, path, "delays_ms", (list,), [0, 0, 0, 0, 0])
    if len(raw) != 5 or not all(isinstance(d, int) and not isinstance(d, bool) for d in raw):
        _fail(f"{path}.delays_ms", "expected five integer delays")
    model = MobilityDelayModel(delays_ms=tuple(raw))
    _validated(model, f"{path}.delays_ms")
    return MobilityConfig(
        model=model,
        make_before_break=_expect_bool(data, path, "make_before_break", True),
    )


def _parse_cell(data: dict, path: str) -> Cell:
    _check_keys(data, path, {"cell_id", "rat", "operator_id", "frequency", "covered",
                             "total_resources", "used_resources", "raw_error_rate",
                             "achievable_rate", "base_delay_ms", "security_level",
                             "cost_per_mb"})
    for required in ("cell_id", "rat", "operator_id", "frequency"):
        _require(data, path, required)
    cell = Cell(
        cell_id=_expect_str(data, path, "cell_id", ""),
        rat=_expect_str(data, path, "rat", ""),
        operator_id=_expect_str(data, path, "operator_id", ""),
        frequency=_expect_str(data, path, "frequency", ""),
        covered=_expect_bool(data, path, "covered", True),
        total_resources=_expect_int(data, path, "total_resources", 100),
        used_resources=_expect_int(data, path, "used_resources", 0),
        raw_error_rate=_expect_number(data, path, "raw_error_rate", 0.0),
        achievable_rate=_expect_number(data, path, "achievable_rate", 10e6),
        base_delay_ms=_expect_number(data, path, "base_delay_ms", 20.0),
        security_level=_expect_int(data, path, "security_level", 1),
        cost_per_mb=_expect_number(data, path, "cost_per_mb", 0.0),
    )
    return _validated(cell, path)


FLOW_PARAM_FIELDS = {"service_class", "min_rate", "max_delay_ms", "max_loss",
                     "resource_demand"}


def _parse_flow_params(data: dict, path: str) -> dict[str, Any]:
    return {
        "service_class": _expect_str(data, path, "service_class", "background"),
        "min_rate": _expect_number(data, path, "min_rate", 0.0),
        "max_delay_ms": _expect_number(data, path, "max_delay_ms", float("inf")),
        "max_loss": _expect_number(data, path, "max_loss", 1.0),
        "resource_demand": _expect_int(data, path, "resource_demand", 1),
    }


def _parse_flow(data: dict, path: str, cells: dict[str, Cell]) -> Flow:
    _check_keys(data, path, FLOW_PARAM_FIELDS | {"flow_id", "serving"})
    _require(data, path, "flow_id")
    serving_id = data.get("serving")
    serving = None
    if serving_id is not None:
        if not isinstance(serving_id, str):
            _fail(f"{path}.serving", "expected a cell id or null")
        cell = cells.get(serving_id)
        if cell is None:
            _fail(f"{path}.serving", f"unknown cell {serving_id!r}")
        if not cell.covered:
            _fail(f"{path}.serving", f"cell {serving_id!r} is not covered")
        serving = candidate_for(cell)
    flow = Flow(
        flow_id=_expect_str(data, path, "flow_id", ""),
        serving=serving,
        **_parse_flow_params(data, path),
    )
    return _validated(flow, path)


_ACTION_PARAMS = {
    "set-cell-field": {"field", "value"},
    "cell-up": set(),
    "cell-down": set(),
    "flow-arrival": FLOW_PARAM_FIELDS,
    "flow-departure": set(),
    "link-down-cable": set(),
    "emit-router-advertisement": set(),
    "quality-ramp": {"field", "start", "end", "duration_ms", "step_ms"},
}


def _parse_action(data: dict, path: str) -> ScenarioAction:
    if not isinstance(data, dict):
        _fail(path, "expected an object")
    kind = data.get("kind")
    if kind not in ACTION_KINDS:
        _fail(f"{path}.kind", f"unknown action kind {kind!r}")
    _check_keys(data, path, {"at", "kind", "target"} | _ACTION_PARAMS[kind])
    at = _expect_int(data, path, "at", -1)
    if at < 0:
        _fail(f"{path}.at", "must be a non-negative integer")
    target = _expect_str(data, path, "target", "")
    if not target:
        _fail(f"{path}.target", "required field missing")
    params = {k: v for k, v in data.items() if k not in ("at", "kind", "target")}
    if kind == "flow-arrival":
        params = _parse_flow_params(data, path)
    return ScenarioAction(at=at, kind=kind, target=target, params=params)


def _validate_timeline(actions: list[ScenarioAction], cells: dict[str, Cell],
                       flows: dict[str, Flow]) -> None:
    live_flows = set(flows)
    last_at = 0
    for i, action in enumerate(actions):
        path = f"timeline[{i}]"
        if action.at < last_at:
            _fail(f"{path}.at", "timeline must be in non-decreasing time order")
        last_at = action.at
        if action.kind == "flow-arrival":
            if action.target in live_flows:
                _fail(f"{path}.target", f"flow {action.target!r} already exists")
            live_flows.add(action.target)
        elif action.kind == "flow-departure":
            if action.target not in live_flows:
                _fail(f"{path}.target", f"unknown flow {action.target!r}")
            live_flows.discard(action.target)
        else:
            if action.target not in cells:
                _fail(f"{path}.target", f"unknown cell {action.target!r}")
        params = action.params
        if action.kind == "quality-ramp":
            if params.get("field") not in RAMP_FIELDS:
                _fail(f"{path}.field", f"ramp field must be one of {RAMP_FIELDS}")
            _require(params, path, "end")
            _expect_number(params, path, "end", 0.0)
            _expect_number(params, path, "start", 0.0)
            _expect_positive_int(params, path, "duration_ms", 0)
            _expect_positive_int(params, path, "step_ms", 100)
        if action.kind == "set-cell-field":
            if params.get("field") not in MUTABLE_CELL_FIELDS:
                _fail(f"{path}.field", f"expected one of {MUTABLE_CELL_FIELDS}")
            _require(params, path, "value")
            if params["field"] in _INT_CELL_FIELDS:
                _expect_int(params, path, "value", 0)
            else:
                _expect_number(params, path, "value", 0.0)


# -- entry points -----------------------------------------------------------------


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a Scenario from a parsed JSON tree."""
    if not isinstance(data, dict):
        raise ScenarioError("top level: expected an object")
    _check_keys(data, "", {"seed", "node_role", "mrrm_location", "duration_ms",
                           "gll", "mrrm", "trg", "mobility", "cells", "flows",
                           "timeline"})
    node_role = _expect_str(data, "", "node_role", "MN")
    if node_role not in NODE_ROLES:
        _fail("node_role", f"expected one of {NODE_ROLES}")
    location = _expect_str(data, "", "mrrm_location", "terminal")
    if location not in MRRM_LOCATIONS:
        _fail("mrrm_location", f"expected one of {MRRM_LOCATIONS}")

    cells: dict[str, Cell] = {}
    for i, raw in enumerate(_expect(data, "", "cells", (list,), [])):
        if not isinstance(raw, dict):
            _fail(f"cells[{i}]", "expected an object")
        cell = _parse_cell(raw, f"cells[{i}]")
        if cell.cell_id in cells:
            _fail(f"cells[{i}].cell_id", f"duplicate cell {cell.cell_id!r}")
        cells[cell.cell_id] = cell

    flows: dict[str, Flow] = {}
    for i, raw in enumerate(_expect(data, "", "flows", (list,), [])):
        if not isinstance(raw, dict):
            _fail(f"flows[{i}]", "expected an object")
        flow = _parse_flow(raw, f"flows[{i}]", cells)
        if flow.flow_id in flows:
            _fail(f"flows[{i}].flow_id", f"duplicate flow {flow.flow_id!r}")
        flows[flow.flow_id] = flow

    timeline = [_parse_action(raw, f"timeline[{i}]")
                for i, raw in enumerate(_expect(data, "", "timeline", (list,), []))]
    _validate_timeline(timeline, cells, flows)

    policies, selection, capabilities, check_timeout = _parse_mrrm(
        _expect(data, "", "mrrm", (dict,), {}), "mrrm")

    last_at = timeline[-1].at if timeline else 0
    default_duration = max(_MIN_DURATION_MS, last_at + _TAIL_AFTER_LAST_ACTION_MS)
    duration = _expect_int(data, "", "duration_ms", default_duration)
    if duration <= 0:
        _fail("duration_ms", "must be positive")

    return Scenario(
        seed=_expect_int(data, "", "seed", 0),
        node_role=node_role,
        mrrm_location=location,
        duration_ms=duration,
        gll=_parse_gll(_expect(data, "", "gll", (dict,), {}), "gll"),
        policies=policies,
        selection=selection,
        capabilities=capabilities,
        policies_check_timeout_ms=check_timeout,
        trg=_parse_trg(_expect(data, "", "trg", (dict,), {}), "trg"),
        mobility=_parse_mobility(_expect(data, "", "mobility", (dict,), {}), "mobility"),
        cells=list(cells.values()),
        flows=list(flows.values()),
        timeline=timeline,
    )


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load, parse and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: parse error: {exc}") from exc
    return scenario_from_dict(data)
