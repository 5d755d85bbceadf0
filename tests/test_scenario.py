"""Scenario file parsing, defaults and validation diagnostics."""

import json
import re

import pytest

from hetsel.cli import EXIT_BAD_INPUT
from hetsel.cli import main as cli_main
from hetsel.gll import GllConfig
from hetsel.mobility import MobilityDelayModel
from hetsel.mrrm import Flow, PolicySet, SelectionConfig, TerminalCapabilities
from hetsel.simenv.env import Cell
from hetsel.simenv.scenario import (
    Scenario,
    ScenarioError,
    TrgSettings,
    load_scenario,
    scenario_from_dict,
)

from conftest import SCENARIO_DIR


def minimal() -> dict:
    return {
        "cells": [{"cell_id": "c1", "rat": "WLAN", "operator_id": "OpA",
                   "frequency": "ch6"}],
        "flows": [{"flow_id": "f1"}],
        "timeline": [],
    }


def test_minimal_scenario_gets_all_defaults():
    sc = scenario_from_dict(minimal())
    assert sc.seed == 0
    assert sc.duration_ms == 10000
    assert sc.gll.attach_latency_ms == 50
    assert sc.gll.targeted_probe_ms == 50
    assert sc.gll.full_scan_per_rat_ms == 200
    assert sc.gll.mapping.fer_max == 0.1
    assert sc.gll.mapping.reference_rate_for() == 2e6
    assert sc.gll.mapping.delay_max_ms == 200.0
    assert sc.gll.reporting.interval_for("real-time") == 100
    assert sc.gll.reporting.interval_for("background") == 500
    assert (sc.selection.w_qos, sc.selection.w_link, sc.selection.w_cell,
            sc.selection.w_term, sc.selection.w_pol) == (0.3, 0.3, 0.2, 0.1, 0.1)
    assert sc.selection.load_threshold == 0.9
    assert sc.selection.hysteresis_delta == 0.05
    assert sc.selection.quality_floor == 0.1
    assert sc.selection.failure_cooldown_ms == 5000
    assert sc.policies_check_timeout_ms == 1000
    assert sc.trg.default_verdict == "allow"
    assert sc.mobility.delays_ms == (0, 0, 0, 0, 0)
    assert sc.make_before_break is True


def test_minimal_scenario_sections_equal_the_dataclass_defaults():
    sc = scenario_from_dict(minimal())
    assert sc.gll == GllConfig()
    assert sc.selection == SelectionConfig()
    assert sc.policies == PolicySet()
    assert sc.capabilities == TerminalCapabilities()
    assert sc.trg == TrgSettings()
    assert sc.mobility == MobilityDelayModel()
    assert sc.cells == [Cell("c1", "WLAN", "OpA", "ch6")]
    assert sc.flows == [Flow("f1")]
    assert sc == Scenario(cells=sc.cells, flows=sc.flows)


def test_partial_reporting_intervals_keep_the_other_classes():
    data = minimal()
    data["gll"] = {"reporting": {"intervals_ms": {"real-time": 200}}}
    sc = scenario_from_dict(data)
    assert sc.gll.reporting.intervals_ms == {**GllConfig().reporting.intervals_ms,
                                             "real-time": 200}


@pytest.mark.parametrize("gll, path, key", [
    ({"reporting": {"intervals_ms": {"real_time": 50}}}, "gll.reporting", "real_time"),
    ({"mapping": {"reference_rate": {"realtime": 4e6}}}, "gll.mapping", "realtime"),
], ids=("intervals_ms", "reference_rate"))
def test_a_per_class_table_naming_no_service_class_is_rejected(tmp_path, capsys, gll, path,
                                                                key):
    # such a key once loaded and changed nothing
    data = {**minimal(), "gll": gll}
    with pytest.raises(ScenarioError, match=rf"^{re.escape(path)}: unknown service class "
                                            rf"'{key}'"):
        scenario_from_dict(data)
    file = tmp_path / "s.json"
    file.write_text(json.dumps(data), encoding="utf-8")
    assert cli_main(["run", str(file), "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
    assert f"{path}: unknown service class" in capsys.readouterr().err


def test_per_class_tables_accept_every_service_class_and_default():
    classes = {"real-time": 1, "interactive": 2, "background": 3}
    sc = scenario_from_dict({**minimal(), "gll": {
        "reporting": {"intervals_ms": classes},
        "mapping": {"reference_rate": {**classes, "default": 4}}}})
    assert sc.gll.reporting.intervals_ms == classes
    assert sc.gll.mapping.reference_rate_for() == 4.0


@pytest.mark.parametrize("key, value", [("duration_ms", "x"), ("seed", True)])
def test_top_level_diagnostic_starts_with_the_field(key, value):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict({**minimal(), key: value})
    assert str(info.value).startswith(f"{key}:")


_RULE = {"rule_id": "r", "pattern": ["link-down", "link-up"], "window_ms": 1000,
         "output_type": "link-flap"}


@pytest.mark.parametrize("section, path", [
    pytest.param({"mrrm": {"policies_check_timeout_ms": -1}},
                 "mrrm.policies_check_timeout_ms", id="negative-check-timeout"),
    pytest.param({"trg": {"policy_store": {"OpA": {"verdict": "allow", "preference": 7}}}},
                 "trg.policy_store.OpA.preference", id="store-preference-above-one"),
    pytest.param({"timeline": [{"at": 500, "kind": "flow-arrival", "target": "g",
                                "service_class": "bogus"}]},
                 "timeline[0]", id="arrival-unknown-service-class"),
    pytest.param({"timeline": [{"at": 500, "kind": "flow-arrival", "target": "g",
                                "max_loss": 3}]},
                 "timeline[0]", id="arrival-loss-above-one"),
    pytest.param({"trg": {"correlations": [{
        "rule_id": "r", "pattern": ["link-quality-report", "measurement-batch"],
        "window_ms": 1000, "output_type": "access-lost"}]}},
                 "trg.correlations[0].output_type", id="correlation-reserved-output"),
    *(pytest.param({"trg": {"correlations": [_RULE, {**_RULE, **change}]}}, path, id=name)
      for name, change, path in (
          ("correlation-one-type-pattern", {"pattern": ["link-up"]}, "trg.correlations[1]"),
          ("correlation-zero-window", {"window_ms": 0}, "trg.correlations[1]"),
          ("correlation-empty-rule-id", {"rule_id": ""}, "trg.correlations[1]"),
          ("correlation-empty-output", {"output_type": ""}, "trg.correlations[1]"),
          ("correlation-window-not-int", {"window_ms": 1.5}, "trg.correlations[1].window_ms"),
      )),
    *(pytest.param({"trg": {"correlations": [
        {k: v for k, v in _RULE.items() if k != missing}]}},
        f"trg.correlations[0].{missing}", id=f"correlation-missing-{missing}")
      for missing in ("rule_id", "pattern", "window_ms", "output_type")),
    pytest.param({"flows": [{"flow_id": "f1", "serving": "c1", "resource_demand": 60},
                            {"flow_id": "f2", "serving": "c1", "resource_demand": 60}]},
                 "flows[1].serving", id="initial-demands-above-capacity"),
    pytest.param({"timeline": [{"at": 500, "kind": "quality-ramp", "target": "c1",
                                "field": "raw_error_rate", "end": 2.5, "duration_ms": 1000}]},
                 "timeline[0].end", id="ramp-error-rate-above-one"),
    pytest.param({"timeline": [{"at": 500, "kind": "quality-ramp", "target": "c1",
                                "field": "achievable_rate", "end": -5e6, "duration_ms": 1000}]},
                 "timeline[0].end", id="ramp-negative-rate"),
    pytest.param({"timeline": [{"at": 500, "kind": "quality-ramp", "target": "c1",
                                "field": "raw_error_rate", "start": -0.1, "end": 0.5,
                                "duration_ms": 1000}]},
                 "timeline[0].start", id="ramp-error-rate-start-below-zero"),
    *(pytest.param({"timeline": [{"at": 500, "kind": "set-cell-field", "target": "c1",
                                  "field": field, "value": value}]},
                   "timeline[0].value", id=f"set-{field}-out-of-range")
      for field, value in (("achievable_rate", -5e6), ("raw_error_rate", 2.5),
                           ("security_level", 7), ("base_delay_ms", -1.0),
                           ("used_resources", -5), ("total_resources", 0),
                           ("total_resources", -1))),
    *(pytest.param({"gll": {"probe_energy": {"WLAN": value}}}, "gll", id=f"probe-energy-{name}")
      for name, value in (("negative", -1), ("infinite", float("inf")))),
    # an infinite rate would ramp through NaN into the trace
    pytest.param({"cells": [{**minimal()["cells"][0], "achievable_rate": float("inf")}]},
                 "cells[0]", id="cell-infinite-rate"),
    pytest.param({"timeline": [{"at": 500, "kind": "set-cell-field", "target": "c1",
                                "field": "achievable_rate", "value": float("inf")}]},
                 "timeline[0].value", id="set-achievable_rate-infinite"),
    *(pytest.param({"timeline": [{"at": 500, "kind": "quality-ramp", "target": "c1",
                                  "field": "achievable_rate", "start": 1e6, "end": 0.0,
                                  "duration_ms": 1000, key: float("inf")}]},
                   f"timeline[0].{key}", id=f"ramp-infinite-rate-{key}")
      for key in ("start", "end")),
])
def test_out_of_range_values_rejected_at_load(section, path):
    with pytest.raises(ScenarioError, match=rf"^{re.escape(path)}:"):
        scenario_from_dict({**minimal(), **section})


def test_range_boundaries_are_accepted():
    sc = scenario_from_dict({
        **minimal(),
        "mrrm": {"policies_check_timeout_ms": 0},
        "trg": {"policy_store": {"OpA": {"preference": 0}, "OpB": {"preference": 1}}},
    })
    assert sc.policies_check_timeout_ms == 0
    assert [r.preference for r in sc.trg.policy_store.values()] == [0.0, 1.0]
    assert sc.trg.policy_store["OpA"].verdict == "allow"


def test_resource_invariant_violation_names_the_cell():
    data = minimal()
    data["cells"][0]["total_resources"] = 10
    data["cells"][0]["used_resources"] = 20
    with pytest.raises(ScenarioError, match=r"cells\[0\]"):
        scenario_from_dict(data)


def test_unknown_field_is_an_error_with_path():
    data = minimal()
    data["gll"] = {"mappnig": {}}
    with pytest.raises(ScenarioError, match="gll.mappnig"):
        scenario_from_dict(data)


def test_dangling_flow_serving_reference():
    data = minimal()
    data["flows"][0]["serving"] = "ghost"
    with pytest.raises(ScenarioError, match=r"flows\[0\].serving"):
        scenario_from_dict(data)


def test_unordered_timeline_rejected():
    data = minimal()
    data["timeline"] = [
        {"at": 500, "kind": "cell-down", "target": "c1"},
        {"at": 100, "kind": "cell-up", "target": "c1"},
    ]
    with pytest.raises(ScenarioError, match=r"timeline\[1\].at"):
        scenario_from_dict(data)


def test_timeline_flow_membership_tracking():
    data = minimal()
    data["timeline"] = [
        {"at": 100, "kind": "flow-departure", "target": "f1"},
        {"at": 200, "kind": "flow-arrival", "target": "f1", "service_class": "background"},
    ]
    scenario_from_dict(data)  # departure then re-arrival is fine

    data["timeline"] = [{"at": 100, "kind": "flow-arrival", "target": "f1"}]
    with pytest.raises(ScenarioError, match="already exists"):
        scenario_from_dict(data)


_RAMP = {"at": 100, "kind": "quality-ramp", "target": "c1",
         "field": "raw_error_rate", "end": 0.5, "duration_ms": 1000}


def _set_field(field, value):
    return {"at": 100, "kind": "set-cell-field", "target": "c1",
            "field": field, "value": value}


@pytest.mark.parametrize("action, param", [
    pytest.param(_set_field("total_resources", "abc"), "value", id="set-int-field-str"),
    pytest.param(_set_field("security_level", 2.5), "value", id="set-int-field-float"),
    pytest.param(_set_field("raw_error_rate", True), "value", id="set-number-field-bool"),
    pytest.param(_set_field("bogus", 1), "field", id="set-unknown-field"),
    pytest.param({k: v for k, v in _set_field("cost_per_mb", 1.0).items() if k != "value"},
                 "value", id="set-no-value"),
    pytest.param({**_RAMP, "end": "x"}, "end", id="ramp-end-str"),
    pytest.param({k: v for k, v in _RAMP.items() if k != "end"}, "end", id="ramp-no-end"),
    pytest.param({**_RAMP, "start": None}, "start", id="ramp-start-null"),
    pytest.param({**_RAMP, "step_ms": "x"}, "step_ms", id="ramp-step-str"),
    pytest.param({**_RAMP, "step_ms": 0}, "step_ms", id="ramp-step-zero"),
    pytest.param({**_RAMP, "duration_ms": "1000"}, "duration_ms", id="ramp-duration-str"),
    pytest.param({**_RAMP, "field": "total_resources"}, "field", id="ramp-unknown-field"),
])
def test_malformed_timeline_parameters_rejected_at_load(tmp_path, capsys, action, param):
    data = minimal()
    data["timeline"] = [action]
    with pytest.raises(ScenarioError, match=rf"timeline\[0\]\.{param}:"):
        scenario_from_dict(data)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
    assert f"timeline[0].{param}:" in capsys.readouterr().err


def test_a_negative_base_load_is_refused_at_load_not_by_the_run(tmp_path, capsys):
    # a charged flow would hide the negative base until the flow departs
    data = minimal()
    data["flows"] = [{"flow_id": "f1", "serving": "c1", "resource_demand": 10}]
    data["timeline"] = [_set_field("used_resources", -5),
                        {"at": 1000, "kind": "flow-departure", "target": "f1"}]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: timeline[0].value: must be >= 0\n"


def test_bad_weight_sum_rejected():
    data = minimal()
    data["mrrm"] = {"selection": {"w_qos": 0.9}}
    with pytest.raises(ScenarioError, match="mrrm.selection"):
        scenario_from_dict(data)


@pytest.mark.parametrize("section, key, path", [
    ("cells", "achievable_rate", "cells[0].achievable_rate"),
    ("cells", "base_delay_ms", "cells[0].base_delay_ms"),
    ("selection", "w_cell", "mrrm.selection.w_cell"),
])
def test_nan_is_rejected_by_path(tmp_path, capsys, section, key, path):
    data = minimal()
    if section == "cells":
        data["cells"][0][key] = float("nan")
    else:
        data["mrrm"] = {"selection": {key: float("nan")}}
    with pytest.raises(ScenarioError, match=rf"^{re.escape(path)}: .*NaN"):
        scenario_from_dict(data)
    file = tmp_path / "s.json"
    file.write_text(json.dumps(data), encoding="utf-8")  # written as a bare NaN
    assert cli_main(["run", str(file), "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
    assert f"{path}:" in capsys.readouterr().err


def test_an_unbounded_max_delay_is_accepted():
    data = minimal()
    data["flows"][0]["max_delay_ms"] = float("inf")
    assert scenario_from_dict(data).flows[0].max_delay_ms == float("inf")


def test_malformed_json_reports_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError, match="parse error"):
        load_scenario(path)


def test_shipped_table1_mn_delay_model():
    sc = load_scenario(SCENARIO_DIR / "table1_mn.json")
    assert sc.mobility.delays_ms == (209, 2, 1, 13, 2809)
    assert sc.mobility.total_ms == 3034


def test_shipped_table1_mr_delay_model():
    sc = load_scenario(SCENARIO_DIR / "table1_mr.json")
    assert sc.mobility.delays_ms == (10, 1, 19, 16, 302)
    assert sc.mobility.total_ms == 348


def test_duration_defaults_to_timeline_tail():
    data = minimal()
    data["timeline"] = [{"at": 20000, "kind": "cell-down", "target": "c1"}]
    sc = scenario_from_dict(data)
    assert sc.duration_ms == 25000


def test_scenario_roundtrips_through_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(minimal()), encoding="utf-8")
    sc = load_scenario(path)
    assert sc.cells[0].cell_id == "c1"
    assert sc.flows[0].flow_id == "f1"
