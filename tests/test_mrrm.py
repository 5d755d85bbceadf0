"""Access selection: filters, scoring, ranking, decisions, policies-check."""

import logging
import random
from types import SimpleNamespace

import pytest

from hetsel import trg
from hetsel.gll import GenericLinkLayer, GllConfig, candidate_for
from hetsel.harness.mobility import MobilityDelayModel, MobilityExecutor
from hetsel.mrrm import (
    Flow,
    MultiRadioResourceManager,
    PolicySet,
    SelectionConfig,
    TerminalCapabilities,
    dynamic_score,
    policy_filter,
    round_candidates,
    select_access,
)
from hetsel.simenv.env import Environment, ScenarioAction
from hetsel.simenv.loop import EventLoop
from hetsel.trg import PoliciesCheckResponder, Subscription, TriggerBus

from conftest import (
    make_cell,
    make_flow,
    random_instance,
    report_for_cell,
    synthetic_report,
)
from oracles import selection_oracle_best

# -- policy filter ------------------------------------------------------------


def _candidates(*cells):
    return [candidate_for(c) for c in cells]


def test_denied_operator_is_excluded():
    a = make_cell("a", operator_id="OpA")
    b = make_cell("b", rat="UMTS", operator_id="OpB", frequency="f1")
    c = make_cell("c", operator_id="OpC", frequency="ch11")
    cells = {x.cell_id: x for x in (a, b, c)}
    kept = policy_filter(_candidates(a, b, c), PolicySet(denied_operators={"OpC"}),
                         TerminalCapabilities(), cells)
    assert {k.cell_id for k in kept} == {"a", "b"}


def test_empty_policy_keeps_all_in_preference_order():
    a = make_cell("a", operator_id="OpA")
    b = make_cell("b", operator_id="OpB")
    cells = {x.cell_id: x for x in (a, b)}
    policies = PolicySet(static_preference={("OpB", "WLAN"): 0.8, ("OpA", "WLAN"): 0.3})
    kept = policy_filter(_candidates(a, b), policies, TerminalCapabilities(), cells)
    assert [k.cell_id for k in kept] == ["b", "a"]


def test_unsupported_rat_excluded_regardless_of_preference():
    a = make_cell("a", rat="GSM")
    cells = {"a": a}
    policies = PolicySet(static_preference={("OpA", "GSM"): 1.0})
    kept = policy_filter(_candidates(a), policies,
                         TerminalCapabilities(supported_rats={"WLAN", "UMTS"}), cells)
    assert kept == []


def test_security_cost_and_roaming_gates():
    low_sec = make_cell("lowsec", security_level=0)
    pricey = make_cell("pricey", cost_per_mb=2.0)
    foreign = make_cell("foreign", operator_id="OpB")
    home = make_cell("home", operator_id="OpA")
    cells = {c.cell_id: c for c in (low_sec, pricey, foreign, home)}
    policies = PolicySet(min_security_level=1, max_cost_per_mb=1.0,
                         roaming_allowed=False, home_operator="OpA")
    kept = policy_filter(_candidates(low_sec, pricey, foreign, home), policies,
                         TerminalCapabilities(), cells)
    assert [k.cell_id for k in kept] == ["home"]


# -- dynamic score ---------------------------------------------------------------


def test_score_upper_bound():
    report = synthetic_report(quality=1.0)
    flow = make_flow(min_rate=1e6)
    policies = PolicySet(static_preference={("OpA", "WLAN"): 1.0})
    score = dynamic_score(flow, report, policies, TerminalCapabilities(), SelectionConfig())
    assert score == pytest.approx(1.0)


def test_infeasible_qos_costs_exactly_its_weight():
    report = synthetic_report(quality=1.0, achievable_rate=0.5e6)
    flow = make_flow(min_rate=1e6)
    policies = PolicySet(static_preference={("OpA", "WLAN"): 1.0})
    score = dynamic_score(flow, report, policies, TerminalCapabilities(), SelectionConfig())
    assert score == pytest.approx(0.7)


def test_hand_evaluated_score_example():
    # defaults; f_qos=1, quality 0.6875, rel 0.6, energy 0.2, pref 0.5
    report = synthetic_report(quality=0.6875, relative_resources=0.6)
    flow = make_flow(min_rate=1e6)
    caps = TerminalCapabilities(energy_cost={"WLAN": 0.2})
    score = dynamic_score(flow, report, PolicySet(), caps, SelectionConfig())
    assert score == pytest.approx(0.75625)


# -- select_access ------------------------------------------------------------------


def test_singleton_candidate():
    cell = make_cell("a")
    reports = [report_for_cell(cell)]
    flow = make_flow()
    ranked = select_access(flow, round_candidates(
        reports, PolicySet(), TerminalCapabilities(), SelectionConfig(), {"a": cell}))
    assert len(ranked.entries) == 1
    assert ranked.head.cell_id == "a"
    expected = dynamic_score(flow, reports[0], PolicySet(), TerminalCapabilities(),
                             SelectionConfig())
    assert ranked.entries[0][1] == pytest.approx(expected)


def test_load_threshold_hard_termination():
    good = make_cell("good", achievable_rate=2e6)
    hot = make_cell("hot", used_resources=95, achievable_rate=100e6, base_delay_ms=1)
    cells = {"good": good, "hot": hot}
    reports = [report_for_cell(good), report_for_cell(hot)]
    ranked = select_access(make_flow(), round_candidates(
        reports, PolicySet(), TerminalCapabilities(), SelectionConfig(load_threshold=0.9), cells))
    assert [c.cell_id for c, _ in ranked.entries] == ["good"]


def test_uncovered_candidates_never_ranked():
    gone = make_cell("gone", covered=False)
    reports = [report_for_cell(gone)]
    ranked = select_access(make_flow(), round_candidates(
        reports, PolicySet(), TerminalCapabilities(), SelectionConfig(), {"gone": gone}))
    assert ranked.entries == ()


def test_serving_access_wins_score_ties():
    a = make_cell("a")
    b = make_cell("b")
    cells = {"a": a, "b": b}
    reports = [report_for_cell(a), report_for_cell(b)]
    serving_b = make_flow(serving=candidate_for(b))
    ranked = select_access(serving_b, round_candidates(
        reports, PolicySet(), TerminalCapabilities(), SelectionConfig(), cells))
    assert ranked.head.cell_id == "b"


def test_head_matches_brute_force_oracle_on_random_instances(rng):
    for _ in range(300):
        cells, reports, flows, policies, caps, cfg = random_instance(rng)
        for flow in flows:
            ranked = select_access(flow, round_candidates(reports, policies, caps, cfg, cells))
            expected = selection_oracle_best(flow, reports, policies, caps, cfg, cells)
            if expected is None:
                assert ranked.head is None
            else:
                assert ranked.head == expected[0]
                assert ranked.entries[0][1] == pytest.approx(expected[1])


def test_filter_soundness_on_random_instances(rng):
    for _ in range(200):
        cells, reports, flows, policies, caps, cfg = random_instance(rng)
        by_candidate = {r.candidate: r for r in reports}
        for flow in flows:
            ranked = select_access(flow, round_candidates(reports, policies, caps, cfg, cells))
            for candidate, _ in ranked.entries:
                report = by_candidate[candidate]
                meta = cells[candidate.cell_id]
                assert report.raw.load < cfg.load_threshold
                assert report.raw.covered
                assert candidate.operator_id not in policies.denied_operators
                if policies.allowed_operators:
                    assert candidate.operator_id in policies.allowed_operators
                assert meta.security_level >= policies.min_security_level
                if policies.max_cost_per_mb is not None:
                    assert meta.cost_per_mb <= policies.max_cost_per_mb
                if caps.supported_rats:
                    assert candidate.rat in caps.supported_rats


def _long_hand_ranking(flow, reports, policies, caps, cfg, cells):
    """One flow's ranking the way it reads in the docs: filter, score every
    candidate with ``dynamic_score``, sort by (-score, serving first, identity)."""
    by_candidate = {r.candidate: r for r in reports if r.raw.covered}
    scored = [(c, dynamic_score(flow, by_candidate[c], policies, caps, cfg))
              for c in policy_filter(by_candidate, policies, caps, cells)
              if by_candidate[c].raw.load < cfg.load_threshold]
    scored.sort(key=lambda pair: (-pair[1], pair[0] != flow.serving, pair[0].sort_key()))
    return scored


def _assert_same_as_long_hand(ranked, flow, reports, policies, caps, cfg, cells):
    expected = _long_hand_ranking(flow, reports, policies, caps, cfg, cells)
    assert [c for c, _ in ranked.entries] == [c for c, _ in expected]
    # bit-identical scores: the per-round sums are taken in dynamic_score's order
    assert [score for _, score in ranked.entries] == [score for _, score in expected]
    serving = [score for c, score in expected if c == flow.serving]
    assert ranked.serving_score == (serving[0] if serving else None)


def test_per_round_stages_equal_long_hand_ranking_exactly(rng):
    for _ in range(500):
        cells, reports, flows, policies, caps, cfg = random_instance(rng)
        stage = round_candidates(reports, policies, caps, cfg, cells)
        for flow in flows:
            _assert_same_as_long_hand(select_access(flow, stage),
                                      flow, reports, policies, caps, cfg, cells)


def test_identical_cells_tie_break_serving_first_exactly():
    a = make_cell("a")
    b = make_cell("b")
    cells = {"a": a, "b": b}
    reports = [report_for_cell(a), report_for_cell(b)]
    policies, caps, cfg = PolicySet(), TerminalCapabilities(), SelectionConfig()
    stage = round_candidates(reports, policies, caps, cfg, cells)
    for serving in (None, candidate_for(a), candidate_for(b)):
        flow = make_flow(serving=serving)
        ranked = select_access(flow, stage)
        assert ranked.entries[0][1] == ranked.entries[1][1]
        assert ranked.head.cell_id == ("b" if serving == candidate_for(b) else "a")
        _assert_same_as_long_hand(ranked, flow, reports, policies, caps, cfg, cells)


def test_weight_scaling_leaves_order_unchanged(rng):
    for _ in range(100):
        cells, reports, flows, policies, caps, cfg = random_instance(rng)
        scale = rng.uniform(0.1, 7.0)
        scaled = SelectionConfig(
            w_qos=cfg.w_qos * scale, w_link=cfg.w_link * scale,
            w_cell=cfg.w_cell * scale, w_term=cfg.w_term * scale,
            w_pol=cfg.w_pol * scale, load_threshold=cfg.load_threshold,
            hysteresis_delta=cfg.hysteresis_delta)
        for flow in flows:
            base = select_access(flow, round_candidates(reports, policies, caps, cfg, cells))
            other = select_access(flow, round_candidates(reports, policies, caps, scaled, cells))
            assert [c for c, _ in base.entries] == [c for c, _ in other.entries]


# -- live decision engine ---------------------------------------------------------


def make_world(cells, flows=(), selection=None, policies=None, caps=None,
               respond=True, gll_cfg=None, delays=(10, 1, 19, 16, 302),
               make_before_break=True, check_timeout=1000):
    loop = EventLoop()
    bus = TriggerBus(clock=lambda: loop.now)
    if respond:
        PoliciesCheckResponder(bus)
    env = Environment(loop, cells,
                      emit=lambda t, p: bus.publish(trg.Event(t, "env", payload=p)),
                      flow_factory=Flow)
    gll = GenericLinkLayer(loop, env, bus, cfg=gll_cfg or GllConfig())
    mrrm = MultiRadioResourceManager(
        loop, env, bus, gll,
        policies=policies, selection=selection, caps=caps,
        policies_check_timeout_ms=check_timeout,
        make_before_break=make_before_break)
    executor = MobilityExecutor(loop, env, bus, model=MobilityDelayModel(tuple(delays)))
    events = []
    bus.subscribe(Subscription("probe", ("*",)), events.append)
    for flow in flows:
        env.flows[flow.flow_id] = flow
        if flow.serving is not None:
            if not gll.is_attached(flow.serving.cell_id):
                gll.force_attach(flow.serving.cell_id)
            assert env.map_flow(flow, flow.serving.cell_id)
    return SimpleNamespace(loop=loop, bus=bus, env=env, gll=gll, mrrm=mrrm,
                           executor=executor, events=events)


def seed_reports(world, *cells):
    for cell in cells:
        report = report_for_cell(cell, taken_at=world.loop.now)
        world.mrrm.reports[report.candidate] = report
        world.gll.detected.setdefault(cell.cell_id, candidate_for(cell))


def events_of(world, event_type):
    return [e for e in world.events if e.event_type == event_type]


def test_unserved_flow_attaches_to_head():
    cell = make_cell("a")
    world = make_world([cell], flows=[make_flow("f1")])
    seed_reports(world, cell)
    decisions = world.mrrm.decide()
    assert decisions[0]["action"] == "attach"
    world.loop.run_until(100)
    assert world.env.flows["f1"].serving.cell_id == "a"
    assert events_of(world, trg.FLOW_MAPPED)[0].payload == {"flow": "f1", "cell": "a"}


def test_hysteresis_blocks_small_improvements():
    a = make_cell("a")
    b = make_cell("b")
    flow = make_flow("f1", serving=candidate_for(a))
    world = make_world([a, b], flows=[flow])
    # scores: 0.65 + 0.3 * quality  ->  serving 0.70, head 0.74
    world.mrrm.reports[candidate_for(a)] = synthetic_report(candidate_for(a), quality=1 / 6)
    world.mrrm.reports[candidate_for(b)] = synthetic_report(candidate_for(b), quality=0.3)
    decisions = world.mrrm.decide()
    assert decisions[0]["action"] == "none"
    assert decisions[0]["target"] == "b"
    assert decisions[0]["target_score"] - decisions[0]["serving_score"] == pytest.approx(0.04)


def test_improvement_beyond_delta_triggers_handover():
    a = make_cell("a")
    b = make_cell("b")
    flow = make_flow("f1", serving=candidate_for(a))
    world = make_world([a, b], flows=[flow])
    world.mrrm.reports[candidate_for(a)] = synthetic_report(candidate_for(a), quality=1 / 6)
    world.mrrm.reports[candidate_for(b)] = synthetic_report(candidate_for(b), quality=0.4)
    decisions = world.mrrm.decide()
    assert decisions[0]["action"] == "handover"
    world.loop.run_until(500)
    requests = events_of(world, trg.HANDOVER_EXECUTION_REQUEST)
    assert len(requests) == 1
    assert requests[0].payload == {"flow": "f1", "from": "a", "to": "b"}
    # serving switches only on handover-complete
    assert world.env.flows["f1"].serving.cell_id == "b"
    completes = events_of(world, trg.HANDOVER_COMPLETE)
    assert len(completes) == 1


def test_serving_updates_only_upon_completion():
    a = make_cell("a")
    b = make_cell("b")
    flow = make_flow("f1", serving=candidate_for(a))
    world = make_world([a, b], flows=[flow], delays=(100, 100, 100, 100, 100))
    world.mrrm.reports[candidate_for(a)] = synthetic_report(candidate_for(a), quality=0.0)
    world.mrrm.reports[candidate_for(b)] = synthetic_report(candidate_for(b), quality=1.0)
    world.mrrm.decide()
    world.loop.run_until(400)  # link-up at 50, request at 50, pipeline ends at 550
    assert world.env.flows["f1"].serving.cell_id == "a"
    world.loop.run_until(600)
    assert world.env.flows["f1"].serving.cell_id == "b"


def test_lost_serving_access_scores_zero_and_hands_over():
    a = make_cell("a")
    b = make_cell("b")
    flow = make_flow("f1", serving=candidate_for(a))
    world = make_world([a, b], flows=[flow])
    seed_reports(world, b)
    # the environment kills the serving cell
    world.env.apply_action(ScenarioAction(0, "cell-down", "a"))
    downs = events_of(world, trg.LINK_DOWN)
    assert downs and downs[0].payload["reason"] == "lost"
    world.loop.run_until(600)
    assert world.env.flows["f1"].serving.cell_id == "b"
    assert len(events_of(world, trg.HANDOVER_COMPLETE)) == 1


def test_resource_check_walks_down_the_ranking():
    small = make_cell("small", total_resources=5)
    big = make_cell("big", total_resources=100)
    world = make_world([small, big], flows=[make_flow("f1", resource_demand=10)])
    world.mrrm.reports[candidate_for(small)] = synthetic_report(candidate_for(small), quality=1.0)
    world.mrrm.reports[candidate_for(big)] = synthetic_report(candidate_for(big), quality=0.5)
    decisions = world.mrrm.decide()
    assert decisions[0]["action"] == "attach"
    assert decisions[0]["target"] == "big"


def test_sequential_assignment_respects_tentative_demand():
    cell = make_cell("a", total_resources=15)
    other = make_cell("b")
    flows = [make_flow("f1", resource_demand=10), make_flow("f2", resource_demand=10)]
    world = make_world([cell, other], flows=flows)
    world.mrrm.reports[candidate_for(cell)] = synthetic_report(candidate_for(cell), quality=1.0)
    world.mrrm.reports[candidate_for(other)] = synthetic_report(candidate_for(other), quality=0.5)
    decisions = world.mrrm.decide()
    by_flow = {d["flow"]: d for d in decisions}
    assert by_flow["f1"]["target"] == "a"
    assert by_flow["f2"]["target"] == "b"  # a cannot fit both demands


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


def test_candidate_report_lists_current_set_and_publishes():
    a = make_cell("a")
    b = make_cell("b")
    world = make_world([a, b])
    seed_reports(world, a, b)
    entries = world.mrrm.candidate_report()
    assert [e.candidate.cell_id for e in entries] == ["a", "b"]
    published = events_of(world, trg.CANDIDATE_REPORT)
    assert published[-1].payload == {"count": 2, "candidates": "a,b"}


def test_candidate_report_empty_still_publishes():
    world = make_world([make_cell("a")])
    entries = world.mrrm.candidate_report()
    assert entries == []
    assert events_of(world, trg.CANDIDATE_REPORT)[-1].payload["count"] == 0


def test_quality_floor_triggers_scan_in_same_step():
    a = make_cell("a")
    flow = make_flow("f1", serving=candidate_for(a))
    world = make_world([a], flows=[flow])
    world.mrrm.reports[candidate_for(a)] = synthetic_report(candidate_for(a), quality=0.05)
    assert world.gll.scan_counts["targeted"] == 0
    world.bus.publish(trg.Event(trg.MEASUREMENT_BATCH, "gll", payload={"count": 1}))
    assert world.gll.scan_counts["targeted"] == 1


def test_policy_change_denying_current_operator_moves_the_flow():
    a = make_cell("a", operator_id="OpA")
    b = make_cell("b", operator_id="OpB")
    flow = make_flow("f1", serving=candidate_for(a))
    world = make_world([a, b], flows=[flow])
    seed_reports(world, a, b)
    world.bus.send_downward(
        trg.Event(trg.POLICY_CHANGED, "policy-editor",
                  payload={"action": "deny-operator", "operator": "OpA"}),
        target="mrrm")
    world.loop.run_until(600)
    assert world.env.flows["f1"].serving.cell_id == "b"


def test_unknown_trigger_type_logs_and_ignores(caplog):
    world = make_world([make_cell("a")])
    with caplog.at_level(logging.WARNING, logger="hetsel.mrrm"):
        world.mrrm.on_trigger(trg.Trigger("mystery-event", "app"))
    assert any("mystery-event" in message for message in caplog.messages)


def test_qos_unsatisfied_triggers_spontaneous_scan():
    world = make_world([make_cell("a")])
    world.bus.send_downward(trg.Event(trg.QOS_UNSATISFIED, "app", payload={"flow": "f1"}),
                            target="mrrm")
    assert world.gll.scan_counts["targeted"] == 1


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
    flow = make_flow("f1", serving=candidate_for(a))
    world = make_world([a, b], flows=[flow], respond=False,
                       policies=PolicySet(static_preference={("OpB", "WLAN"): 0.9}))
    world.gll.start()
    world.loop.run_until(3000)
    # no answer: pending -> timeout; OpB accesses never enter selection
    assert world.mrrm.operators["OpB"].verdict == "timeout"
    assert world.env.flows["f1"].serving.cell_id == "a"
    assert events_of(world, trg.HANDOVER_EXECUTION_REQUEST) == []
    first_requests = len(events_of(world, trg.POLICIES_CHECK_REQUEST))
    assert first_requests >= 1
    # re-detection retries the check
    world.env.apply_action(ScenarioAction(0, "cell-down", "b"))
    world.env.apply_action(ScenarioAction(0, "cell-up", "b"))
    world.loop.run_until(4000)
    assert len(events_of(world, trg.POLICIES_CHECK_REQUEST)) > first_requests


def test_late_answer_admits_candidate():
    a = make_cell("a", operator_id="OpA")
    b = make_cell("b", operator_id="OpB", achievable_rate=100e6, base_delay_ms=1)
    flow = make_flow("f1", serving=candidate_for(a))
    world = make_world([a, b], flows=[flow], respond=False,
                       policies=PolicySet(static_preference={("OpB", "WLAN"): 0.9}))
    world.gll.start()
    world.loop.run_until(2000)
    assert world.env.flows["f1"].serving.cell_id == "a"
    world.bus.publish(trg.Event(trg.POLICIES_CHECK_ANSWER, "trg", payload={
        "operator": "OpB", "verdict": "allow"}))
    world.loop.run_until(4000)
    assert world.env.flows["f1"].serving.cell_id == "b"
