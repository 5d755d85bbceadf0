"""Environment mutation actions and resource conservation."""

import random

import pytest

from hetsel.gll import candidate_for
from hetsel.mrrm import Flow
from hetsel.simenv.env import ActionError, Environment, ScenarioAction
from hetsel.simenv.loop import EventLoop

from conftest import make_cell, make_flow
from oracles import linear_ramp_value


def make_env(cells, flows=()):
    loop = EventLoop()
    emitted = []
    env = Environment(loop, cells,
                      emit=lambda t, p: emitted.append((loop.now, t, p)),
                      flow_factory=Flow)
    for flow in flows:
        env.flows[flow.flow_id] = flow
    return loop, env, emitted


def test_cell_down_emits_one_coverage_change():
    loop, env, emitted = make_env([make_cell("wlan1")])
    events = env.apply_action(ScenarioAction(0, "cell-down", "wlan1"))
    assert env.cells["wlan1"].covered is False
    assert events == [("cell-coverage-change",
                       {"cell": "wlan1", "covered": False, "cause": "scenario"})]


def test_cell_down_is_idempotent():
    loop, env, emitted = make_env([make_cell("wlan1", covered=False)])
    events = env.apply_action(ScenarioAction(0, "cell-down", "wlan1"))
    assert events == []


def test_link_down_cable_names_its_cause():
    loop, env, emitted = make_env([make_cell("lan1", rat="LAN")])
    events = env.apply_action(ScenarioAction(0, "link-down-cable", "lan1"))
    assert events[0][1]["cause"] == "cable"


def test_unknown_target_rejected():
    loop, env, emitted = make_env([make_cell("wlan1")])
    with pytest.raises(ActionError):
        env.apply_action(ScenarioAction(0, "cell-down", "nope"))


def test_flow_arrival_registers_and_notifies():
    loop, env, emitted = make_env([make_cell("wlan1")])
    events = env.apply_action(ScenarioAction(
        0, "flow-arrival", "f2",
        params=dict(service_class="real-time", min_rate=1e6, max_delay_ms=100,
                    max_loss=0.01, resource_demand=5)))
    assert "f2" in env.flows
    assert events[0][0] == "flow-arrival"
    assert events[0][1]["flow"] == "f2"


def test_quality_ramp_is_linear_pointwise():
    # 10 s ramp at 100 ms steps: 100 interpolation points, last lands exactly
    # on the end value.
    cell = make_cell("wlan1", achievable_rate=10e6)
    loop, env, emitted = make_env([cell])
    env.apply_action(ScenarioAction(
        0, "quality-ramp", "wlan1",
        params=dict(field="achievable_rate", end=0.0, duration_ms=10000, step_ms=100)))
    assert loop.pending() == 100
    for k in range(1, 101):
        loop.run_until(k * 100)
        expected = linear_ramp_value(10e6, 0.0, k, 100, 10000)
        assert cell.achievable_rate == pytest.approx(expected)
    assert cell.achievable_rate == 0.0


def test_quality_ramp_with_partial_last_step_lands_on_end():
    # 250 ms at 100 ms steps: steps at 100 and 200, then a short one at 250.
    cell = make_cell("wlan1", achievable_rate=10e6)
    loop, env, emitted = make_env([cell])
    env.apply_action(ScenarioAction(
        0, "quality-ramp", "wlan1",
        params=dict(field="achievable_rate", end=0.0, duration_ms=250, step_ms=100)))
    for k, at in enumerate((100, 200, 250), start=1):
        loop.run_until(at)
        expected = linear_ramp_value(10e6, 0.0, k, 100, 250)
        assert cell.achievable_rate == pytest.approx(expected)
    assert cell.achievable_rate == 0.0
    assert loop.pending() == 0


def test_quality_ramp_rejects_bad_duration():
    loop, env, emitted = make_env([make_cell("wlan1")])
    with pytest.raises(ActionError):
        env.apply_action(ScenarioAction(
            0, "quality-ramp", "wlan1",
            params=dict(field="achievable_rate", end=0.0, duration_ms=0)))


def test_set_cell_field_validates_result():
    loop, env, emitted = make_env([make_cell("wlan1", total_resources=100,
                                              used_resources=50)])
    with pytest.raises(ActionError):
        env.apply_action(ScenarioAction(
            0, "set-cell-field", "wlan1",
            params=dict(field="total_resources", value=10)))
    # rejected action leaves the cell untouched
    assert env.cells["wlan1"].total_resources == 100


def test_set_cell_field_cannot_touch_coverage():
    loop, env, emitted = make_env([make_cell("wlan1")])
    with pytest.raises(ActionError):
        env.apply_action(ScenarioAction(
            0, "set-cell-field", "wlan1", params=dict(field="covered", value=False)))


def test_resource_conservation_under_random_flow_churn():
    cell = make_cell("wlan1", total_resources=50)
    loop, env, emitted = make_env([cell])
    rng = random.Random(99)
    flows = [make_flow(f"f{i}", resource_demand=rng.randint(1, 20)) for i in range(8)]
    mapped = set()
    for step in range(300):
        flow = rng.choice(flows)
        if flow.flow_id in mapped and rng.random() < 0.5:
            env.unmap_flow(flow, "wlan1")
            mapped.discard(flow.flow_id)
        else:
            if env.map_flow(flow, "wlan1"):
                mapped.add(flow.flow_id)
        assert 0 <= cell.used_resources <= cell.total_resources


def test_map_flow_is_idempotent_per_cell():
    cell = make_cell("wlan1", total_resources=30)
    loop, env, emitted = make_env([cell])
    flow = make_flow("f1", resource_demand=20)
    env.flows["f1"] = flow
    assert env.map_flow(flow, "wlan1")
    assert env.map_flow(flow, "wlan1")  # no double charge
    assert cell.used_resources == 20
    env.unmap_flow(flow, "wlan1")
    assert cell.used_resources == 0
    env.unmap_flow(flow, "wlan1")  # releasing twice is harmless
    assert cell.used_resources == 0


def test_release_cell_resources_keeps_serving_pointer():
    cell = make_cell("wlan1")
    loop, env, emitted = make_env([cell])
    flow = make_flow("f1", resource_demand=10, serving=candidate_for(cell))
    env.flows["f1"] = flow
    env.map_flow(flow, "wlan1")
    affected = env.release_cell_resources("wlan1")
    assert affected == [flow]
    assert cell.used_resources == 0
    assert flow.serving is not None
