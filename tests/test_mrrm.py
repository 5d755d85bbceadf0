"""Access selection: filters, scoring, ranking, decisions, policies-check."""

import logging
import random
from types import SimpleNamespace

import pytest

from hetsel import mrrm as mrrm_mod
from hetsel import trg
from hetsel.gll import GenericLinkLayer, GllConfig, report_to_payload
from hetsel.harness import execute_scenario
from hetsel.harness.runner import build_run, execute_run
from hetsel.harness.trace import read_trace
from hetsel.mobility import MobilityDelayModel, MobilityExecutor
from hetsel.mrrm import (
    MultiRadioResourceManager,
    PolicySet,
    SelectionConfig,
    TerminalCapabilities,
    round_candidates,
    select_access,
)
from hetsel.simenv.env import Environment, ScenarioAction
from hetsel.simenv.loop import EventLoop
from hetsel.simenv.scenario import load_scenario, scenario_from_dict
from hetsel.trg import PoliciesCheckResponder, Subscription, TriggerBus

from conftest import (
    DEPARTED_WHILE_ATTACHING_WORLD,
    SCENARIO_DIR,
    TARGET_LOST_COVERAGE_WORLD,
    make_cell,
    make_flow,
    random_instance,
    random_tentative,
    report_for_cell,
    synthetic_report,
)
from oracles import long_hand_key, long_hand_score, selection_oracle_best

# -- stage one's filter -----------------------------------------------------------


def _candidate_ids(cells, policies, caps, cfg=SelectionConfig()):
    stage = round_candidates([report_for_cell(c) for c in cells], policies, caps, cfg,
                             {c.cell_id: c for c in cells})
    return [entry[0] for entry in stage.entries]


def test_candidates_are_listed_by_operator_rat_and_cell():
    cells = [make_cell("c", operator_id="OpB", rat="UMTS"), make_cell("b", operator_id="OpB"),
             make_cell("z", operator_id="OpA"), make_cell("a", operator_id="OpB")]
    assert _candidate_ids(cells, PolicySet(), TerminalCapabilities()) == ["z", "c", "a", "b"]


# every limit at the cell's own value: each bound admits it, inclusively
_AT_THE_LIMITS = dict(allowed_operators={"OpA"}, min_security_level=2, max_cost_per_mb=1.0,
                      roaming_allowed=False, home_operator="OpA")


@pytest.mark.parametrize("rule, policies, supported_rats", [
    ("operator not allowed", {"allowed_operators": {"OpB"}}, {"WLAN"}),
    ("operator denied", {"denied_operators": {"OpA"}, "allowed_operators": set()}, {"WLAN"}),
    ("security too low", {"min_security_level": 3}, {"WLAN"}),
    ("cost too high", {"max_cost_per_mb": 0.5}, {"WLAN"}),
    ("roaming", {"home_operator": "OpB"}, {"WLAN"}),
    # a RAT the terminal lacks goes whatever its preference
    ("RAT unsupported", {"static_preference": {("OpA", "WLAN"): 1.0}}, {"UMTS", "GSM"}),
])
def test_each_stage_one_rule_alone_removes_a_cell(rule, policies, supported_rats):
    cell = make_cell("a", security_level=2, cost_per_mb=1.0)
    caps = TerminalCapabilities(supported_rats={"WLAN"})
    assert _candidate_ids([cell], PolicySet(**_AT_THE_LIMITS), caps) == ["a"]
    removing = PolicySet(**{**_AT_THE_LIMITS, **policies})
    assert _candidate_ids([cell], removing, TerminalCapabilities(supported_rats)) == [], rule


def test_a_rule_removes_only_the_cells_it_names():
    cells = [make_cell("a", operator_id="OpA"), make_cell("b", operator_id="OpB"),
             make_cell("c", operator_id="OpC")]
    kept = _candidate_ids(cells, PolicySet(denied_operators={"OpC"}), TerminalCapabilities())
    assert kept == ["a", "b"]


# -- scores against the long-hand formula --------------------------------------------


def _serving_score(flow, report, cell, policies, caps, cfg=SelectionConfig()):
    """The score ``select_access`` gives ``flow`` on the one access it is
    served by; it must equal the long-hand score bit for bit."""
    flow.serving = cell.cell_id
    stage = round_candidates([report], policies, caps, cfg, {cell.cell_id: cell})
    ranked = select_access(flow, stage, {})
    assert ranked.serving_score == long_hand_score(flow, report, cell, policies, caps, cfg, {})
    return ranked.serving_score


def test_score_upper_bound():
    report = synthetic_report(quality=1.0)
    policies = PolicySet(static_preference={("OpA", "WLAN"): 1.0})
    score = _serving_score(make_flow(min_rate=1e6), report, make_cell(), policies,
                           TerminalCapabilities())
    assert score == pytest.approx(1.0)


def test_infeasible_qos_costs_exactly_its_weight():
    report = synthetic_report(quality=1.0, achievable_rate=0.5e6)
    policies = PolicySet(static_preference={("OpA", "WLAN"): 1.0})
    score = _serving_score(make_flow(min_rate=1e6), report, make_cell(), policies,
                           TerminalCapabilities())
    assert score == pytest.approx(0.7)


def test_hand_evaluated_score_example():
    # defaults; f_qos=1, quality 0.6875, q_load 0.6, energy 0.2, pref 0.5
    report = synthetic_report(quality=0.6875, load=0.4)
    caps = TerminalCapabilities(energy_cost={"WLAN": 0.2})
    score = _serving_score(make_flow(min_rate=1e6), report, make_cell(), PolicySet(), caps)
    assert score == pytest.approx(0.75625)


@pytest.mark.parametrize("rate, delay_ms, error_rate, feasible", [
    (2e6, 50, 0.001, True),
    (1e6, 100, 0.01, True),  # every bound is inclusive
    (0.9e6, 50, 0.001, False),
    (2e6, 101, 0.001, False),
    (2e6, 50, 0.011, False),
])
def test_qos_fit_is_the_conjunction_of_rate_delay_and_loss(rate, delay_ms, error_rate, feasible):
    flow = make_flow(min_rate=1e6, max_delay_ms=100, max_loss=0.01)
    report = synthetic_report(quality=0.5, achievable_rate=rate, delay_ms=delay_ms,
                              residual_error_rate=error_rate)
    score = _serving_score(flow, report, make_cell(), PolicySet(), TerminalCapabilities())
    # quality 0.5, q_load 1, no energy cost, preference 0.5: 0.15 + 0.2 + 0.1 + 0.05
    assert score == pytest.approx(0.5 + (0.3 if feasible else 0.0))


# -- select_access ------------------------------------------------------------------


def test_singleton_candidate():
    cell = make_cell("a")
    reports = [report_for_cell(cell)]
    flow = make_flow(resource_demand=10)
    ranked = select_access(flow, round_candidates(
        reports, PolicySet(), TerminalCapabilities(), SelectionConfig(), {"a": cell}), {"a": 5})
    assert [cell_id for cell_id, _ in ranked.entries] == ["a"]
    assert ranked.entries[0][1] == long_hand_score(flow, reports[0], cell, PolicySet(),
                                                   TerminalCapabilities(), SelectionConfig(),
                                                   {"a": 5})
    # quality 0.25 * (1 + 1 + 0.95 + 1), so 0.3 + 0.3 * 0.9875 + 0.2 + 0.1 + 0.05 unloaded;
    # an unserved flow sees the cell at its post-move load: 5 committed + 10 own of 100
    assert ranked.entries[0][1] == pytest.approx(0.94625 - 0.2 * 15 / 100)


def test_serving_cell_is_scored_at_its_reported_load():
    a = make_cell("a")
    b = make_cell("b")
    cells = {"a": a, "b": b}
    # a's load 0.1 is the flow's own demand; b is empty before the move
    reports = [synthetic_report(a.cell_id, quality=0.8, load=0.1),
               synthetic_report(b.cell_id, quality=0.8)]
    flow = make_flow(resource_demand=10, serving=a.cell_id)
    policies, caps, cfg = PolicySet(), TerminalCapabilities(), SelectionConfig()
    ranked = select_access(flow, round_candidates(reports, policies, caps, cfg, cells), {})
    scores = dict(ranked.entries)
    assert scores["a"] == long_hand_score(flow, reports[0], a, policies, caps, cfg, {})
    assert ranked.serving_score == scores["a"]
    # b at its post-move load is a's twin: 0.3 + 0.3 * 0.8 + 0.2 * 0.9 + 0.1 + 0.05
    assert scores["a"] == pytest.approx(0.87)
    assert scores["b"] == pytest.approx(0.87)
    # the same move committed by an earlier flow of the round makes b worse
    ranked = select_access(flow, round_candidates(reports, policies, caps, cfg, cells), {"b": 10})
    assert ranked.entries[0][0] == "a"
    assert ranked.entries[1][1] == pytest.approx(0.85)


def test_load_threshold_hard_termination():
    good = make_cell("good", achievable_rate=2e6)
    hot = make_cell("hot", used_resources=95, achievable_rate=100e6, base_delay_ms=1)
    cells = {"good": good, "hot": hot}
    reports = [report_for_cell(good), report_for_cell(hot)]
    ranked = select_access(make_flow(), round_candidates(
        reports, PolicySet(), TerminalCapabilities(), SelectionConfig(load_threshold=0.9), cells),
        {})
    assert [cell_id for cell_id, _ in ranked.entries] == ["good"]


def test_uncovered_candidates_never_ranked():
    gone = make_cell("gone", covered=False)
    reports = [report_for_cell(gone)]
    ranked = select_access(make_flow(), round_candidates(
        reports, PolicySet(), TerminalCapabilities(), SelectionConfig(), {"gone": gone}), {})
    assert ranked.entries == ()


def test_serving_access_wins_score_ties():
    a = make_cell("a")
    b = make_cell("b")
    cells = {"a": a, "b": b}
    reports = [report_for_cell(a), report_for_cell(b)]
    # no demand, so nothing separates the twins but the tie-break
    serving_b = make_flow(resource_demand=0, serving=b.cell_id)
    ranked = select_access(serving_b, round_candidates(
        reports, PolicySet(), TerminalCapabilities(), SelectionConfig(), cells), {})
    assert ranked.entries[0][0] == "b"


def test_head_matches_brute_force_oracle_on_random_instances(rng):
    for _ in range(300):
        cells, reports, flows, policies, caps, cfg = random_instance(rng)
        tentative = random_tentative(rng, cells)
        for flow in flows:
            ranked = select_access(flow, round_candidates(reports, policies, caps, cfg, cells),
                                   tentative)
            expected = selection_oracle_best(flow, reports, policies, caps, cfg, cells, tentative)
            if expected is None:
                assert ranked.entries == ()
            else:
                assert ranked.entries[0][0] == expected[0]
                assert ranked.entries[0][1] == pytest.approx(expected[1])


def test_filter_soundness_on_random_instances(rng):
    for _ in range(200):
        cells, reports, flows, policies, caps, cfg = random_instance(rng)
        by_cell = {r.cell: r for r in reports}
        tentative = random_tentative(rng, cells)
        for flow in flows:
            ranked = select_access(flow, round_candidates(reports, policies, caps, cfg, cells),
                                   tentative)
            for cell_id, _ in ranked.entries:
                report = by_cell[cell_id]
                cell = cells[cell_id]
                assert report.load < cfg.load_threshold
                assert report.covered
                assert cell.operator_id not in policies.denied_operators
                if policies.allowed_operators:
                    assert cell.operator_id in policies.allowed_operators
                assert cell.security_level >= policies.min_security_level
                if policies.max_cost_per_mb is not None:
                    assert cell.cost_per_mb <= policies.max_cost_per_mb
                if caps.supported_rats:
                    assert cell.rat in caps.supported_rats


def _long_hand_ranking(flow, reports, policies, caps, cfg, cells, tentative):
    """One flow's ranking the way it reads in the docs: score every access
    with ``long_hand_score`` and sort by ``long_hand_key``."""
    scored = []
    for report in reports:
        score = long_hand_score(flow, report, cells[report.cell], policies, caps, cfg, tentative)
        if score is not None:
            scored.append((long_hand_key(flow, cells[report.cell], score), report.cell, score))
    return [(cell_id, score) for _, cell_id, score in sorted(scored)]


def _assert_same_as_long_hand(ranked, flow, reports, policies, caps, cfg, cells, tentative):
    expected = _long_hand_ranking(flow, reports, policies, caps, cfg, cells, tentative)
    assert [c for c, _ in ranked.entries] == [c for c, _ in expected]
    # bit-identical scores: both sum the terms in the same order
    assert [score for _, score in ranked.entries] == [score for _, score in expected]
    serving = [score for cell_id, score in expected if cell_id == flow.serving]
    assert ranked.serving_score == (serving[0] if serving else None)


def test_per_round_stages_equal_long_hand_ranking_exactly(rng):
    for _ in range(500):
        cells, reports, flows, policies, caps, cfg = random_instance(rng)
        tentative = random_tentative(rng, cells)
        stage = round_candidates(reports, policies, caps, cfg, cells)
        for flow in flows:
            _assert_same_as_long_hand(select_access(flow, stage, tentative),
                                      flow, reports, policies, caps, cfg, cells, tentative)


def test_identical_cells_tie_break_serving_first_exactly():
    a = make_cell("a")
    b = make_cell("b")
    cells = {"a": a, "b": b}
    reports = [report_for_cell(a), report_for_cell(b)]
    policies, caps, cfg = PolicySet(), TerminalCapabilities(), SelectionConfig()
    stage = round_candidates(reports, policies, caps, cfg, cells)
    for serving in (None, "a", "b"):
        # no demand: a twin's post-move load equals the serving cell's load
        flow = make_flow(resource_demand=0, serving=serving)
        ranked = select_access(flow, stage, {})
        assert ranked.entries[0][1] == ranked.entries[1][1]
        assert ranked.entries[0][0] == ("b" if serving == "b" else "a")
        _assert_same_as_long_hand(ranked, flow, reports, policies, caps, cfg, cells, {})


def test_weight_scaling_leaves_order_unchanged(rng):
    for _ in range(100):
        cells, reports, flows, policies, caps, cfg = random_instance(rng)
        scale = rng.uniform(0.1, 7.0)
        scaled = SelectionConfig(
            w_qos=cfg.w_qos * scale, w_link=cfg.w_link * scale,
            w_cell=cfg.w_cell * scale, w_term=cfg.w_term * scale,
            w_pol=cfg.w_pol * scale, load_threshold=cfg.load_threshold,
            hysteresis_delta=cfg.hysteresis_delta)
        tentative = random_tentative(rng, cells)
        for flow in flows:
            base = select_access(flow, round_candidates(reports, policies, caps, cfg, cells),
                                 tentative)
            other = select_access(flow, round_candidates(reports, policies, caps, scaled, cells),
                                  tentative)
            assert [c for c, _ in base.entries] == [c for c, _ in other.entries]


# -- live decision engine ---------------------------------------------------------


def make_world(cells, flows=(), selection=None, policies=None, caps=None,
               respond=True, gll_cfg=None, delays=(10, 1, 19, 16, 302),
               make_before_break=True, check_timeout=1000, record=None, drop_types=()):
    loop = EventLoop()
    bus = TriggerBus(clock=lambda: loop.now, drop_types=drop_types)
    if respond:
        PoliciesCheckResponder(bus)
    env = Environment(loop, cells,
                      emit=lambda t, p: bus.publish(trg.Event(t, "env", payload=p)))
    gll = GenericLinkLayer(loop, env, bus, cfg=gll_cfg or GllConfig())
    mrrm = MultiRadioResourceManager(
        loop, env, bus, gll,
        policies=policies, selection=selection, caps=caps,
        policies_check_timeout_ms=check_timeout,
        make_before_break=make_before_break, record=record)
    executor = MobilityExecutor(loop, env, bus, model=MobilityDelayModel(tuple(delays)))
    events = []
    bus.subscribe(Subscription("probe", ("*",)), events.append)
    for flow in flows:
        env.flows[flow.flow_id] = flow
        if flow.serving is not None:
            if not gll.is_attached(flow.serving):
                gll.force_attach(flow.serving)
            assert env.map_flow(flow, flow.serving)
    return SimpleNamespace(loop=loop, bus=bus, env=env, gll=gll, mrrm=mrrm,
                           executor=executor, events=events)


def seed_reports(world, *cells):
    for cell in cells:
        report = report_for_cell(cell)
        world.mrrm.reports[cell.cell_id] = report
        world.gll.detected.setdefault(cell.cell_id, None)


def events_of(world, event_type):
    return [e for e in world.events if e.event_type == event_type]


def test_unserved_flow_attaches_to_head():
    cell = make_cell("a")
    world = make_world([cell], flows=[make_flow("f1")])
    seed_reports(world, cell)
    decisions = world.mrrm.decide()
    assert decisions[0]["action"] == "attach"
    world.loop.run_until(100)
    assert world.env.flows["f1"].serving == "a"
    assert events_of(world, trg.FLOW_MAPPED)[0].payload == {"flow": "f1", "cell": "a"}


def test_hysteresis_blocks_small_improvements():
    a = make_cell("a")
    b = make_cell("b")
    flow = make_flow("f1", serving=a.cell_id)
    world = make_world([a, b], flows=[flow])
    # a's load 0.1 is f1's own demand of 10, and b's post-move load is the same,
    # so both score 0.63 + 0.3 * quality  ->  serving 0.68, head 0.72
    world.mrrm.reports[a.cell_id] = synthetic_report(a.cell_id, quality=1 / 6, load=0.1)
    world.mrrm.reports[b.cell_id] = synthetic_report(b.cell_id, quality=0.3)
    decisions = world.mrrm.decide()
    assert decisions[0]["action"] == "none"
    assert decisions[0]["target"] == "b"
    assert decisions[0]["target_score"] - decisions[0]["serving_score"] == pytest.approx(0.04)


def test_improvement_beyond_delta_triggers_handover():
    a = make_cell("a")
    b = make_cell("b")
    flow = make_flow("f1", serving=a.cell_id)
    world = make_world([a, b], flows=[flow])
    # as above: serving 0.63 + 0.3 / 6 = 0.68, head 0.63 + 0.3 * 0.4 = 0.75
    world.mrrm.reports[a.cell_id] = synthetic_report(a.cell_id, quality=1 / 6, load=0.1)
    world.mrrm.reports[b.cell_id] = synthetic_report(b.cell_id, quality=0.4)
    decisions = world.mrrm.decide()
    assert decisions[0]["action"] == "handover"
    assert decisions[0]["target_score"] - decisions[0]["serving_score"] == pytest.approx(0.07)
    world.loop.run_until(500)
    requests = events_of(world, trg.HANDOVER_EXECUTION_REQUEST)
    assert len(requests) == 1
    assert requests[0].payload == {"flow": "f1", "from": "a", "to": "b"}
    # serving switches only on handover-complete
    assert world.env.flows["f1"].serving == "b"
    completes = events_of(world, trg.HANDOVER_COMPLETE)
    assert len(completes) == 1


def test_serving_updates_only_upon_completion():
    a = make_cell("a")
    b = make_cell("b")
    flow = make_flow("f1", serving=a.cell_id)
    world = make_world([a, b], flows=[flow], delays=(100, 100, 100, 100, 100))
    world.mrrm.reports[a.cell_id] = synthetic_report(a.cell_id, quality=0.0)
    world.mrrm.reports[b.cell_id] = synthetic_report(b.cell_id, quality=1.0)
    world.mrrm.decide()
    world.loop.run_until(400)  # link-up at 50, request at 50, pipeline ends at 550
    assert world.env.flows["f1"].serving == "a"
    world.loop.run_until(600)
    assert world.env.flows["f1"].serving == "b"


def test_lost_serving_access_scores_zero_and_hands_over():
    a = make_cell("a")
    b = make_cell("b")
    flow = make_flow("f1", serving=a.cell_id)
    world = make_world([a, b], flows=[flow])
    seed_reports(world, b)
    # the environment kills the serving cell
    world.env.apply_action(ScenarioAction(0, "cell-down", "a"))
    downs = events_of(world, trg.LINK_DOWN)
    assert downs and downs[0].payload["reason"] == "lost"
    world.loop.run_until(600)
    assert world.env.flows["f1"].serving == "b"
    assert len(events_of(world, trg.HANDOVER_COMPLETE)) == 1


def test_serving_cell_that_comes_back_is_reattached():
    scenario = scenario_from_dict({
        "cells": [{"cell_id": "c1", "rat": "WLAN", "operator_id": "OpA", "frequency": "ch6"}],
        "flows": [{"flow_id": "f1", "serving": "c1", "resource_demand": 30}],
        "timeline": [{"at": 500, "kind": "cell-down", "target": "c1"},
                     {"at": 1000, "kind": "cell-up", "target": "c1"}],
        "duration_ms": 8000,
    })
    run = build_run(scenario)
    result = execute_run(run)
    flow = run.env.flows["f1"]
    assert flow.serving == "c1"
    assert run.gll.is_attached("c1")
    assert run.env.is_charged(flow, "c1")
    assert run.env.cells["c1"].used_resources == 30
    decisions = [r for r in read_trace(result.trace_lines) if r.kind == "decision"]
    assert [r.attributes["action"] for r in decisions if r.attributes["action"] != "none"] == [
        "attach"]


def test_resource_check_walks_down_the_ranking():
    small = make_cell("small", total_resources=5)
    big = make_cell("big", total_resources=100)
    world = make_world([small, big], flows=[make_flow("f1", resource_demand=10)])
    world.mrrm.reports[small.cell_id] = synthetic_report(small.cell_id, quality=1.0)
    world.mrrm.reports[big.cell_id] = synthetic_report(big.cell_id, quality=0.5)
    decisions = world.mrrm.decide()
    assert decisions[0]["action"] == "attach"
    assert decisions[0]["target"] == "big"


def test_sequential_assignment_respects_tentative_demand():
    cell = make_cell("a", total_resources=15)
    other = make_cell("b")
    flows = [make_flow("f1", resource_demand=10), make_flow("f2", resource_demand=10)]
    world = make_world([cell, other], flows=flows)
    world.mrrm.reports[cell.cell_id] = synthetic_report(cell.cell_id, quality=1.0)
    world.mrrm.reports[other.cell_id] = synthetic_report(other.cell_id, quality=0.5)
    decisions = world.mrrm.decide()
    by_flow = {d["flow"]: d for d in decisions}
    assert by_flow["f1"]["target"] == "a"
    assert by_flow["f2"]["target"] == "b"  # a cannot fit both demands


def test_attach_to_an_attached_cell_counts_its_demand_once_in_the_round():
    """f1 attaches to a, which is already attached, so f1 is charged there at
    once; f2's fit check must not count f1's demand again through
    ``tentative``.  Both fit a's 90 spare units, and b is too slow for them."""
    def wlan(cell_id, rate, channel):
        return {"cell_id": cell_id, "rat": "WLAN", "operator_id": "OpA",
                "frequency": channel, "total_resources": 100, "achievable_rate": rate}
    scenario = scenario_from_dict({
        "duration_ms": 4000,
        "cells": [wlan("a", 54e6, "ch1"), wlan("b", 1e6, "ch6")],
        "mrrm": {"selection": {"load_threshold": 1.0}},
        "flows": [{"flow_id": "f0", "serving": "a", "resource_demand": 10}],
        "timeline": [{"at": 2000, "kind": "flow-arrival", "target": flow_id,
                      "resource_demand": 40, "min_rate": 2e6} for flow_id in ("f1", "f2")],
    })
    result = execute_scenario(scenario)
    records = read_trace(result.trace_lines)
    attaches = [(r.at, r.attributes["flow"], r.attributes["target"]) for r in records
                if r.kind == "decision" and r.attributes["action"] == "attach"]
    assert attaches == [(2000, "f1", "a"), (2000, "f2", "a")]
    assert result.stats.service_gap_total_ms == 0


def test_decide_is_idempotent_in_static_environment():
    a = make_cell("a")
    b = make_cell("b")
    flow = make_flow("f1")
    world = make_world([a, b], flows=[flow])
    seed_reports(world, a, b)
    world.mrrm.decide()
    world.loop.run_until(200)
    serving_after_first = world.env.flows["f1"].serving
    for _ in range(5):
        decisions = world.mrrm.decide()
        assert decisions[0]["action"] == "none"
    assert world.env.flows["f1"].serving == serving_after_first
    assert len(events_of(world, trg.HANDOVER_EXECUTION_REQUEST)) == 0


def test_flow_whose_cell_returns_under_a_denied_operator_is_released():
    # c0 drops and returns at once; its operator, first checked on its
    # return, is denied, so f1 can neither re-attach there nor keep pointing
    # at a covered cell that holds nothing of it.
    scenario = scenario_from_dict({
        "cells": [{"cell_id": "c0", "rat": "WLAN", "operator_id": "OpA", "frequency": "ch1"}],
        "flows": [{"flow_id": "f1", "serving": "c0", "resource_demand": 1}],
        "trg": {"default_verdict": "deny"},
        "timeline": [{"at": 0, "kind": "cell-down", "target": "c0"},
                     {"at": 0, "kind": "cell-up", "target": "c0"}],
        "duration_ms": 1000,
    })
    run = build_run(scenario)
    result = execute_run(run)
    assert run.env.flows["f1"].serving is None
    assert run.env.cells["c0"].used_resources == 0
    actions = [r.attributes["action"] for r in read_trace(result.trace_lines)
               if r.kind == "decision"]
    assert actions.count("release") == 1
    assert set(actions) == {"none", "release"}


def test_flow_that_departed_while_attaching_is_not_mapped_when_the_link_comes_up():
    run = build_run(scenario_from_dict(DEPARTED_WHILE_ATTACHING_WORLD))
    result = execute_run(run)
    assert run.env.flows == {}
    assert run.env.cells["c1"].used_resources == 0
    assert run.env._charges == {}
    assert not run.gll.is_attached("c1")
    assert not run.mrrm.in_flight
    assert not [r for r in read_trace(result.trace_lines)
                if r.kind == "event" and r.attributes["type"] == trg.FLOW_MAPPED]


def test_handover_target_that_loses_coverage_keeps_no_charge():
    run = build_run(scenario_from_dict(TARGET_LOST_COVERAGE_WORLD))
    execute_run(run)
    # each flow left is charged on its serving cell alone, and f0 nowhere
    assert sorted(run.env._charges) == sorted(
        (flow.flow_id, flow.serving) for flow in run.env.flows.values())
    assert "f0" not in run.env.flows
    for cell in run.env.cells.values():
        assert cell.used_resources == sum(
            demand for (_, cell_id), demand in run.env._charges.items()
            if cell_id == cell.cell_id)


def test_handover_whose_target_went_dark_and_came_back_fails():
    run = build_run(scenario_from_dict(TARGET_LOST_COVERAGE_WORLD))
    result = execute_run(run)
    # c1 went dark and came back before the first pipeline step, releasing
    # the targets' charges: no handover completes onto it
    stats = result.stats
    assert (stats.handovers_attempted, stats.handovers_completed,
            stats.handovers_failed) == (3, 0, 3)
    events = [r for r in read_trace(result.trace_lines) if r.kind == "event"]
    assert [e.attributes["failed_at_point"] for e in events
            if e.attributes["type"] == trg.HANDOVER_FAILED] == [1, 1, 1]
    assert [(e.at, e.attributes["flow"], e.attributes["cell"]) for e in events
            if e.attributes["type"] == trg.FLOW_MAPPED] == [
        (50, "f3", "c1"), (500, "f1", "c0"), (500, "f2", "c0"), (500, "f3", "c0")]
    for flow in run.env.flows.values():
        assert run.gll.is_attached(flow.serving)
        assert run.env.is_charged(flow, flow.serving)


def test_flow_that_departed_mid_handover_releases_its_target():
    # f hands over from the slow c0 to the fast c1 (requested at 100, done at
    # 205) and leaves at 150; the bus drops its departure
    cell = {"rat": "WLAN", "operator_id": "OpA", "frequency": "ch1"}
    run = build_run(scenario_from_dict({
        "duration_ms": 1000,
        "mobility": {"delays_ms": [10, 20, 5, 30, 40]},
        "trg": {"drop_types": ["flow-departure"]},
        "cells": [{"cell_id": "c0", "achievable_rate": 1e5, **cell},
                  {"cell_id": "c1", "achievable_rate": 9e6, **cell}],
        "flows": [{"flow_id": "f", "resource_demand": 30, "serving": "c0"}],
        "timeline": [{"at": 150, "kind": "flow-departure", "target": "f"}],
    }))
    execute_run(run)
    assert run.env._charges == {}
    assert run.env.cells["c1"].used_resources == 0
    assert not run.gll.attached
    assert not run.mrrm.in_flight


# -- settled-round replay ------------------------------------------------------


@pytest.fixture
def selects(monkeypatch):
    """The flow ids that stage two ranks, call by call."""
    calls = []

    def counting(flow, stage, tentative):
        calls.append(flow.flow_id)
        return select_access(flow, stage, tentative)

    monkeypatch.setattr(mrrm_mod, "select_access", counting)
    return calls


def _settled_world(serving_quality, flows=("f1",), drop_types=()):
    """f1 holds a, at a's load 0.1; b (quality 0.3) heads the ranking inside
    the hysteresis when a's quality is 1/6, and a heads it at quality 1.
    Further flows hold a too."""
    a, b = make_cell("a"), make_cell("b")
    world = make_world([a, b], flows=[make_flow(flow_id, serving="a") for flow_id in flows],
                       drop_types=drop_types)
    world.mrrm.reports["a"] = synthetic_report(a.cell_id, quality=serving_quality,
                                               load=0.1)
    world.mrrm.reports["b"] = synthetic_report(b.cell_id, quality=0.3)
    return world


def test_settled_round_is_replayed_without_stage_two(selects):
    world = _settled_world(1 / 6)
    first = world.mrrm.decide()
    assert first[0]["action"] == "none" and first[0]["target"] == "b"
    expected = dict(first[0])
    first[0]["target"] = "changed by the caller"
    for _ in range(3):
        assert world.mrrm.decide() == [expected]
    assert selects == ["f1"]


def test_round_that_initiated_an_attach_is_not_replayed(selects):
    cell = make_cell("a")
    world = make_world([cell], flows=[make_flow("f1")])
    seed_reports(world, cell)
    assert world.mrrm.decide()[0]["action"] == "attach"
    world.bus.publish(trg.Event(trg.ATTACH_FAILED, "gll", payload={"cell": "a"}))
    assert "f1" not in world.mrrm.in_flight  # every input is as it was
    assert world.mrrm.decide()[0]["action"] == "attach"
    assert selects == ["f1", "f1"]
    assert "f1" in world.mrrm.in_flight


def test_settled_round_is_decided_afresh_when_a_candidate_residual_changes(selects):
    world = _settled_world(1 / 6)
    world.mrrm.decide()
    world.mrrm.decide()
    world.env.apply_action(ScenarioAction(0, "set-cell-field", "b",
                                          {"field": "used_resources", "value": 95}))
    decisions = world.mrrm.decide()
    assert selects == ["f1", "f1"]
    # f1's demand of 10 no longer fits b's residual of 5
    assert decisions[0]["action"] == "none" and decisions[0]["target"] == "a"


def test_settled_round_is_decided_afresh_when_a_cooldown_expires(selects):
    world = _settled_world(1 / 6)
    world.mrrm.cooldown_until["b"] = 100
    assert world.mrrm.decide()[0]["target"] == "a"
    world.loop.run_until(99)
    world.mrrm.decide()
    assert selects == ["f1"]
    world.loop.run_until(100)
    decisions = world.mrrm.decide()
    assert selects == ["f1", "f1"]
    assert decisions[0]["target"] == "b"


def test_settled_round_is_decided_afresh_when_the_serving_link_is_lost(selects):
    world = _settled_world(1.0)
    world.mrrm.decide()
    world.mrrm.decide()
    # the link goes without a link-down event, so nothing else that a round
    # reads changes
    world.gll.attached.discard("a")
    decisions = world.mrrm.decide()
    assert selects == ["f1", "f1"]
    assert decisions[0]["action"] == "attach" and decisions[0]["target"] == "a"


def test_settled_round_ignores_report_fields_stage_two_does_not_read(selects):
    world = _settled_world(1 / 6)
    assert world.mrrm.decide()[0]["action"] == "none"
    for tick in range(1, 4):
        # fresh reports through the bus: other sub-metrics behind the same
        # composite quality
        for cell_id in ("a", "b"):
            report = world.mrrm.reports[cell_id]._replace(q_error=1.0 - tick / 10,
                                                          q_rate=tick / 10,
                                                          q_delay=0.5 + tick / 10)
            world.bus.publish(trg.Event(trg.LINK_QUALITY_REPORT, "gll",
                                        payload=report_to_payload(report)))
        assert world.mrrm.reports["a"].q_rate == tick / 10
        world.mrrm.decide()
    assert selects == ["f1"]


def test_a_replayed_round_runs_no_stage_one(monkeypatch):
    world = _settled_world(1 / 6)
    first = world.mrrm.decide()
    calls = []
    monkeypatch.setattr(mrrm_mod, "round_candidates", lambda *args: calls.append(args))
    monkeypatch.setattr(world.mrrm, "usable_reports", lambda: calls.append(()))
    assert world.mrrm.decide() == first
    assert calls == []


def test_a_link_lost_under_a_dropped_link_down_is_decided_afresh(selects):
    world = _settled_world(1.0, drop_types=["link-down"])
    world.mrrm.decide()
    world.gll.detach("a")  # its link-down never reaches mrrm
    decisions = world.mrrm.decide()
    assert selects == ["f1", "f1"]
    assert decisions[0]["action"] == "attach" and decisions[0]["target"] == "a"


def test_a_departure_under_a_dropped_flow_departure_is_decided_afresh(selects):
    world = _settled_world(1 / 6, flows=("f1", "f2"), drop_types=["flow-departure"])
    assert [d["flow"] for d in world.mrrm.decide()] == ["f1", "f2"]
    world.env.apply_action(ScenarioAction(0, "flow-departure", "f2"))
    assert [d["flow"] for d in world.mrrm.decide()] == ["f1"]
    assert selects == ["f1", "f2", "f1"]


def test_an_arrival_under_a_dropped_flow_arrival_is_decided_afresh(selects):
    world = _settled_world(1 / 6, drop_types=["flow-arrival"])
    world.mrrm.decide()
    world.env.admit_flow(make_flow("f2"))
    assert [d["flow"] for d in world.mrrm.decide()] == ["f1", "f2"]
    assert selects == ["f1", "f1", "f2"]


def test_a_quality_ramp_step_is_decided_afresh(selects):
    world = _settled_world(1 / 6)
    world.mrrm.decide()
    world.env.apply_action(ScenarioAction(0, "quality-ramp", "b", {
        "field": "raw_error_rate", "end": 0.5, "duration_ms": 100, "step_ms": 100}))
    world.mrrm.decide()  # the ramp has not stepped yet
    assert selects == ["f1"]
    world.loop.run_until(100)
    world.mrrm.decide()
    assert selects == ["f1", "f1"]


# -- written decisions and arrival rounds ---------------------------------------


def test_decision_record_is_written_only_when_it_changes():
    a, b = make_cell("a"), make_cell("b")
    written = []
    world = make_world([a, b], flows=[make_flow("f1", serving="a")],
                       record=lambda kind, attrs: written.append(dict(attrs)))
    world.mrrm.reports["a"] = synthetic_report(a.cell_id, quality=1 / 6, load=0.1)
    world.mrrm.reports["b"] = synthetic_report(b.cell_id, quality=0.3)
    first = world.mrrm.decide()
    for _ in range(3):
        assert world.mrrm.decide() == first  # returned, though not written again
    assert written == first
    world.bus.publish(trg.Event(trg.LINK_QUALITY_REPORT, "gll", payload=report_to_payload(
        synthetic_report(b.cell_id, quality=0.0))))
    changed = world.mrrm.decide()
    assert changed != first
    assert written == first + changed
    # an arrival under the flow's id starts it afresh: its next decision is
    # written even though it repeats the last one
    world.bus.publish(trg.Event(trg.FLOW_ARRIVAL, "env", payload={"flow": "f1"}))
    world.loop.run_until(0)
    assert written == first + changed + changed


def test_an_arrival_burst_is_decided_in_one_round(monkeypatch):
    arrivals = 6
    # no flow fits the cell, so none goes in flight and every round ranks
    # every flow that has arrived so far
    scenario = scenario_from_dict({
        "cells": [{"cell_id": "c1", "rat": "WLAN", "operator_id": "OpA", "frequency": "ch1",
                   "used_resources": 60, "total_resources": 100}],
        "timeline": [{"at": 1000, "kind": "flow-arrival", "target": f"f{j}",
                      "resource_demand": 50} for j in range(arrivals)],
        "duration_ms": 1500,
    })
    run = build_run(scenario)
    ranked_at = []

    def counting(flow, stage, tentative):
        ranked_at.append(run.loop.now)
        return select_access(flow, stage, tentative)

    monkeypatch.setattr(mrrm_mod, "select_access", counting)
    execute_run(run)
    # one round ranks every new flow once; a round per arrival would rank
    # 1 + 2 + ... + 6 = 21 times
    assert 0 < ranked_at.count(1000) <= arrivals


def test_herd_two_cells_settles_without_ping_pong():
    # ten unattached flows on two twin cells: each flow sees the other's moves
    result = execute_scenario(load_scenario(SCENARIO_DIR / "herd_two_cells.json"))
    assert result.stats.ping_pong_count == 0
    assert result.stats.handovers_attempted <= len(result.scenario.flows)


def test_candidate_report_lists_current_set_and_publishes():
    a = make_cell("a")
    b = make_cell("b")
    world = make_world([a, b])
    seed_reports(world, a, b)
    entries = world.mrrm.candidate_report()
    assert [e.cell for e in entries] == ["a", "b"]
    published = events_of(world, trg.CANDIDATE_REPORT)
    assert published[-1].payload == {"count": 2, "candidates": "a,b"}


def test_candidate_report_empty_still_publishes():
    world = make_world([make_cell("a")])
    entries = world.mrrm.candidate_report()
    assert entries == []
    assert events_of(world, trg.CANDIDATE_REPORT)[-1].payload["count"] == 0


def spy_scans(world):
    """The modes of the scans MRRM asks GLL for, call by call."""
    modes = []
    request = world.gll.request_scan

    def spy(mode):
        modes.append(mode)
        request(mode)

    world.gll.request_scan = spy
    return modes


def test_quality_floor_triggers_scan_in_same_step():
    a = make_cell("a")
    flow = make_flow("f1", serving=a.cell_id)
    world = make_world([a], flows=[flow])
    world.mrrm.reports[a.cell_id] = synthetic_report(a.cell_id, quality=0.05)
    scans = spy_scans(world)
    world.bus.publish(trg.Event(trg.MEASUREMENT_BATCH, "gll", payload={"count": 1}))
    assert scans == ["targeted"]


def _batch(world):
    world.bus.publish(trg.Event(trg.MEASUREMENT_BATCH, "gll", payload={"count": 1}))


def test_quality_floor_is_checked_again_when_only_a_report_changes():
    world = _settled_world(1.0)
    scans = spy_scans(world)
    _batch(world)
    _batch(world)
    assert scans == []
    report = world.mrrm.reports["a"]._replace(quality=0.05)
    world.bus.publish(trg.Event(trg.LINK_QUALITY_REPORT, "gll",
                                payload=report_to_payload(report)))
    _batch(world)
    assert scans == ["targeted"]


def test_quality_floor_is_checked_again_when_only_the_environment_changes():
    # the bus drops the arrival, so only the environment knows of the flow
    world = _settled_world(1.0, drop_types=(trg.FLOW_ARRIVAL,))
    world.mrrm.reports["b"] = synthetic_report("b", quality=0.05)
    world.gll.force_attach("b")
    scans = spy_scans(world)
    _batch(world)
    _batch(world)
    assert scans == []
    world.env.admit_flow(make_flow("f2", serving="b"))
    assert world.env.map_flow(world.env.flows["f2"], "b")
    _batch(world)
    assert scans == ["targeted"]


def test_policy_change_denying_current_operator_moves_the_flow():
    a = make_cell("a", operator_id="OpA")
    b = make_cell("b", operator_id="OpB")
    flow = make_flow("f1", serving=a.cell_id)
    world = make_world([a, b], flows=[flow])
    seed_reports(world, a, b)
    world.bus.send_downward(
        trg.Event(trg.POLICY_CHANGED, "policy-editor",
                  payload={"action": "deny-operator", "operator": "OpA"}),
        target="mrrm")
    world.loop.run_until(600)
    assert world.env.flows["f1"].serving == "b"


def test_unknown_trigger_type_logs_and_ignores(caplog):
    world = make_world([make_cell("a")])
    with caplog.at_level(logging.WARNING, logger="hetsel.mrrm"):
        world.mrrm.on_trigger(trg.Event("mystery-event", "app"))
    assert any("mystery-event" in message for message in caplog.messages)


def test_qos_unsatisfied_triggers_spontaneous_scan():
    world = make_world([make_cell("a")])
    scans = spy_scans(world)
    world.bus.send_downward(trg.Event(trg.QOS_UNSATISFIED, "app", payload={"flow": "f1"}),
                            target="mrrm")
    assert scans == ["targeted"]


# -- policies check ---------------------------------------------------------------


def test_new_operator_checked_and_admitted_with_preference():
    responderless = make_world([make_cell("a", operator_id="OpB")], respond=False)
    PoliciesCheckResponder(responderless.bus,
                           {"OpB": trg.PolicyRecord("allow", preference=0.9)})
    responderless.bus.publish(trg.Event(trg.NEW_ACCESS_DETECTED, "gll", payload={
        "cell": "a", "rat": "WLAN", "operator": "OpB", "frequency": "ch6"}))
    assert responderless.mrrm.operators["OpB"].verdict == "allow"
    assert responderless.mrrm.policies.operator_preference["OpB"] == 0.9
    assert responderless.mrrm.policies.preference("OpB", "WLAN") == 0.9


def test_denied_answer_blocks_operator():
    world = make_world([make_cell("a", operator_id="OpB")], respond=False)
    PoliciesCheckResponder(world.bus, {"OpB": trg.PolicyRecord("deny")})
    world.bus.publish(trg.Event(trg.NEW_ACCESS_DETECTED, "gll", payload={
        "cell": "a", "rat": "WLAN", "operator": "OpB", "frequency": "ch6"}))
    assert "OpB" in world.mrrm.policies.denied_operators


def test_unanswered_check_times_out_and_excludes():
    a = make_cell("a", operator_id="OpA")
    b = make_cell("b", operator_id="OpB", achievable_rate=100e6, base_delay_ms=1)
    flow = make_flow("f1", serving=a.cell_id)
    world = make_world([a, b], flows=[flow], respond=False,
                       policies=PolicySet(static_preference={("OpB", "WLAN"): 0.9}))
    world.gll.start()
    world.loop.run_until(3000)
    # no answer: pending -> timeout; OpB accesses never enter selection
    assert world.mrrm.operators["OpB"].verdict == "timeout"
    assert world.env.flows["f1"].serving == "a"
    assert events_of(world, trg.HANDOVER_EXECUTION_REQUEST) == []
    first_requests = len(events_of(world, trg.POLICIES_CHECK_REQUEST))
    assert first_requests >= 1
    # re-detection retries the check
    world.env.apply_action(ScenarioAction(0, "cell-down", "b"))
    world.env.apply_action(ScenarioAction(0, "cell-up", "b"))
    world.loop.run_until(4000)
    assert len(events_of(world, trg.POLICIES_CHECK_REQUEST)) > first_requests


def test_allow_operator_readmits_an_operator_its_policies_check_denied():
    a = make_cell("a", operator_id="OpA")
    b = make_cell("b", operator_id="OpB", achievable_rate=100e6, base_delay_ms=1)
    flow = make_flow("f1", serving=a.cell_id)
    world = make_world([a, b], flows=[flow], respond=False,
                       policies=PolicySet(static_preference={("OpB", "WLAN"): 0.9}))
    PoliciesCheckResponder(world.bus, {"OpB": trg.PolicyRecord("deny")})
    world.gll.start()
    world.loop.run_until(2000)
    assert world.mrrm.operators["OpB"].verdict == "deny"
    assert world.env.flows["f1"].serving == "a"
    world.bus.send_downward(
        trg.Event(trg.POLICY_CHANGED, "policy-editor",
                  payload={"action": "allow-operator", "operator": "OpB"}),
        target="mrrm")
    world.loop.run_until(6000)
    assert world.env.flows["f1"].serving == "b"


def test_late_answer_admits_candidate():
    a = make_cell("a", operator_id="OpA")
    b = make_cell("b", operator_id="OpB", achievable_rate=100e6, base_delay_ms=1)
    flow = make_flow("f1", serving=a.cell_id)
    world = make_world([a, b], flows=[flow], respond=False,
                       policies=PolicySet(static_preference={("OpB", "WLAN"): 0.9}))
    world.gll.start()
    world.loop.run_until(2000)
    assert world.env.flows["f1"].serving == "a"
    world.bus.publish(trg.Event(trg.POLICIES_CHECK_ANSWER, "trg", payload={
        "operator": "OpB", "verdict": "allow"}))
    world.loop.run_until(4000)
    assert world.env.flows["f1"].serving == "b"
