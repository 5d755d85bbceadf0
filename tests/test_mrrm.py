"""Access selection: filters, scoring, ranking, decisions, policies-check."""

import copy
import logging
import random
import statistics
from types import SimpleNamespace

import pytest

from hetsel import gll as gll_mod
from hetsel import mrrm as mrrm_mod
from hetsel import trg
from hetsel.gll import GenericLinkLayer, GllConfig
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
    OPERATORS,
    SCENARIO_DIR,
    TARGET_LOST_COVERAGE_WORLD,
    make_cell,
    make_flow,
    random_instance,
    random_tentative,
    report_for_cell,
    synthetic_report,
    tied_instance,
)
from oracles import long_hand_fits, long_hand_key, long_hand_score, selection_oracle_best

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
    ranked = select_access(flow, stage, {}, True)
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
        reports, PolicySet(), TerminalCapabilities(), SelectionConfig(), {"a": cell}), {"a": 5},
        False)
    assert [cell_id for cell_id, _ in ranked.entries] == ["a"]
    assert ranked.target == "a"
    assert ranked.entries[0][1] == long_hand_score(flow, reports[0], cell, PolicySet(),
                                                   TerminalCapabilities(), SelectionConfig(),
                                                   {"a": 5})
    # quality 0.25 * (1 + 1 + 0.95 + 1), so 0.3 + 0.3 * 0.9875 + 0.2 + 0.1 + 0.05 unloaded;
    # an unserved flow sees the cell at its post-move load: 5 committed + 10 own of 100
    assert ranked.entries[0][1] == pytest.approx(0.94625 - 0.2 * 15 / 100)


def test_serving_cell_is_scored_at_its_reported_load():
    # a has no room left, so it is the target only while it holds the flow
    a = make_cell("a", used_resources=95)
    b = make_cell("b")
    cells = {"a": a, "b": b}
    # a's load 0.1 is the flow's own demand; b is empty before the move
    reports = [synthetic_report(a.cell_id, quality=0.8, load=0.1),
               synthetic_report(b.cell_id, quality=0.8)]
    flow = make_flow(resource_demand=10, serving=a.cell_id)
    policies, caps, cfg = PolicySet(), TerminalCapabilities(), SelectionConfig()
    stage = round_candidates(reports, policies, caps, cfg, cells)
    serving_score = long_hand_score(flow, reports[0], a, policies, caps, cfg, {})
    b_score = long_hand_score(flow, reports[1], b, policies, caps, cfg, {})
    # b at its post-move load is a's twin: 0.3 + 0.3 * 0.8 + 0.2 * 0.9 + 0.1 + 0.05
    assert serving_score == pytest.approx(0.87)
    assert b_score == pytest.approx(0.87)
    ranked = select_access(flow, stage, {}, False)
    assert ranked.serving_score == serving_score
    assert ranked.entries == (("b", b_score),)
    assert ranked.target == "b"
    # holding the flow, a wins the tie
    ranked = select_access(flow, stage, {}, True)
    assert ranked.serving_score == serving_score
    assert ranked.entries == (("a", serving_score),)
    assert ranked.target == "a"
    # the same move committed by an earlier flow of the round makes b worse
    b_score = long_hand_score(flow, reports[1], b, policies, caps, cfg, {"b": 10})
    assert b_score == pytest.approx(0.85)
    ranked = select_access(flow, stage, {"b": 10}, False)
    assert ranked.entries == (("b", b_score),)


def test_load_threshold_hard_termination():
    good = make_cell("good", achievable_rate=2e6)
    hot = make_cell("hot", used_resources=95, achievable_rate=100e6, base_delay_ms=1)
    cells = {"good": good, "hot": hot}
    reports = [report_for_cell(good), report_for_cell(hot)]
    ranked = select_access(make_flow(), round_candidates(
        reports, PolicySet(), TerminalCapabilities(), SelectionConfig(load_threshold=0.9), cells),
        {}, False)
    assert [cell_id for cell_id, _ in ranked.entries] == ["good"]


def test_uncovered_candidates_never_ranked():
    gone = make_cell("gone", covered=False)
    reports = [report_for_cell(gone)]
    ranked = select_access(make_flow(), round_candidates(
        reports, PolicySet(), TerminalCapabilities(), SelectionConfig(), {"gone": gone}), {},
        False)
    assert ranked.entries == ()
    assert ranked.target is None


def test_serving_access_wins_score_ties():
    a = make_cell("a")
    b = make_cell("b")
    cells = {"a": a, "b": b}
    reports = [report_for_cell(a), report_for_cell(b)]
    # no demand, so nothing separates the twins but the tie-break
    serving_b = make_flow(resource_demand=0, serving=b.cell_id)
    ranked = select_access(serving_b, round_candidates(
        reports, PolicySet(), TerminalCapabilities(), SelectionConfig(), cells), {}, False)
    assert ranked.entries[0][0] == "b"


def test_a_candidate_without_room_is_skipped_before_it_is_scored(monkeypatch):
    # full meets the flow's QoS and roomy misses its rate, so full outranks
    # roomy; but only roomy has room for the flow's demand of 20
    full = make_cell("full", used_resources=85)
    roomy = make_cell("roomy", achievable_rate=0.5e6)
    cells = {"full": full, "roomy": roomy}
    reports = [report_for_cell(full), report_for_cell(roomy)]
    flow = make_flow(resource_demand=20)
    policies, caps, cfg = PolicySet(), TerminalCapabilities(), SelectionConfig()
    full_score, roomy_score = (long_hand_score(flow, report, cells[report["cell"]], policies,
                                               caps, cfg, {}) for report in reports)
    assert full_score > roomy_score
    stage = round_candidates(reports, policies, caps, cfg, cells)
    scored = []
    carries = mrrm_mod._carries

    def counting_carries(*args):
        scored.append(args[0])
        return carries(*args)

    monkeypatch.setattr(mrrm_mod, "_carries", counting_carries)
    ranked = select_access(flow, stage, {}, False)
    assert ranked.entries == (("roomy", roomy_score),)
    assert ranked.target == "roomy"
    # one QoS check, roomy's: full is never scored
    assert scored == [flow]


def _holds_choices(flow):
    """Both values of ``holds`` for a served flow; an unserved one holds nothing."""
    return (False, True) if flow.serving is not None else (False,)


def test_head_matches_brute_force_oracle_on_random_instances(rng):
    for _ in range(300):
        cells, reports, flows, policies, caps, cfg = random_instance(rng)
        tentative = random_tentative(rng, cells)
        stage = round_candidates(reports, policies, caps, cfg, cells)
        for flow in flows:
            for holds in _holds_choices(flow):
                expected = selection_oracle_best(flow, reports, policies, caps, cfg, cells,
                                                 tentative, holds)
                ranked = select_access(flow, stage, tentative, holds)
                # the choice and its score, bit for bit, or none
                assert ranked.entries == ((expected,) if expected is not None else ())
                assert ranked.target == (expected[0] if expected is not None else None)


def test_filter_soundness_on_random_instances(rng):
    # every candidate stage one admits, so every one stage two can choose
    for _ in range(200):
        cells, reports, flows, policies, caps, cfg = random_instance(rng)
        by_cell = {r["cell"]: r for r in reports}
        for entry in round_candidates(reports, policies, caps, cfg, cells).entries:
            report = by_cell[entry[0]]
            cell = cells[entry[0]]
            assert report["load"] < cfg.load_threshold
            assert report["covered"]
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
        cell = cells[report["cell"]]
        score = long_hand_score(flow, report, cell, policies, caps, cfg, tentative)
        if score is not None:
            scored.append((long_hand_key(flow, cell, score), cell.cell_id, score))
    return [(cell_id, score) for _, cell_id, score in sorted(scored)]


def _assert_same_as_long_hand(ranked, flow, reports, policies, caps, cfg, cells, tentative,
                              holds):
    """``ranked`` holds the first candidate with room for the flow in the
    long-hand ranking, as its target and with its score, and its serving
    score is the serving access's long-hand score."""
    full = _long_hand_ranking(flow, reports, policies, caps, cfg, cells, tentative)
    fitting = [(cell_id, score) for cell_id, score in full
               if long_hand_fits(flow, cells[cell_id], tentative, holds)]
    # bit-identical scores: both sum the terms in the same order
    assert ranked.entries == tuple(fitting[:1])
    assert ranked.target == (fitting[0][0] if fitting else None)
    serving = [score for cell_id, score in full if cell_id == flow.serving]
    assert ranked.serving_score == (serving[0] if serving else None)


@pytest.mark.parametrize("instance", [random_instance, tied_instance])
def test_per_round_stages_equal_long_hand_ranking_exactly(rng, instance):
    for _ in range(500):
        cells, reports, flows, policies, caps, cfg = instance(rng)
        tentative = random_tentative(rng, cells)
        stage = round_candidates(reports, policies, caps, cfg, cells)
        for flow in flows:
            for holds in _holds_choices(flow):
                _assert_same_as_long_hand(select_access(flow, stage, tentative, holds),
                                          flow, reports, policies, caps, cfg, cells, tentative,
                                          holds)


def test_identical_cells_tie_break_serving_first_exactly():
    a = make_cell("a")
    b = make_cell("b")
    cells = {"a": a, "b": b}
    reports = [report_for_cell(a), report_for_cell(b)]
    policies, caps, cfg = PolicySet(), TerminalCapabilities(), SelectionConfig()
    stage = round_candidates(reports, policies, caps, cfg, cells)
    for serving in (None, "a", "b"):
        # no demand: a twin's post-move load equals the serving cell's load,
        # so a's bound ties b's score and the walk must still reach b
        flow = make_flow(resource_demand=0, serving=serving)
        for holds in _holds_choices(flow):
            ranked = select_access(flow, stage, {}, holds)
            assert ranked.target == ("b" if serving == "b" else "a")
            _assert_same_as_long_hand(ranked, flow, reports, policies, caps, cfg, cells, {},
                                      holds)
    # with room on neither twin, there is no choice
    flow = make_flow(resource_demand=101)
    ranked = select_access(flow, stage, {}, False)
    assert ranked.entries == ()
    assert ranked.target is None
    _assert_same_as_long_hand(ranked, flow, reports, policies, caps, cfg, cells, {}, False)


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
            for holds in _holds_choices(flow):
                base = select_access(flow, round_candidates(reports, policies, caps, cfg, cells),
                                     tentative, holds)
                other = select_access(flow, round_candidates(reports, policies, caps, scaled,
                                                             cells), tentative, holds)
                assert [c for c, _ in base.entries] == [c for c, _ in other.entries]
                assert base.target == other.target


# -- stage two's early stop at scale ----------------------------------------------

# (total resources, rate, delay and raw error ranges, retransmissions) of each
# RAT in a metro world
_METRO_RATS = {"WLAN": (100, (11e6, 54e6), (3.0, 25.0), (0.02, 0.3), 3),
               "UMTS": (200, (384e3, 2e6), (40.0, 120.0), (0.01, 0.15), 2),
               "GSM": (50, (60e3, 236e3), (90.0, 250.0), (0.01, 0.08), 1)}
_METRO_KINDS = [(operator, rat, frequency) for operator in OPERATORS
                for rat, frequency in (("WLAN", "ch1"), ("WLAN", "ch6"),
                                       ("UMTS", "u2100"), ("GSM", "g900"))]


def _metro_scenario(n_cells, n_flows, duration_ms, seed=1):
    """A dense multi-operator city: ``n_cells`` overlapping cells of every
    (operator, access kind), each at most 60% loaded, ``n_flows`` unserved
    real-time flows and network-side reports of every cell."""
    rng = random.Random(seed)
    cells = []
    for n in range(n_cells):
        operator, rat, frequency = _METRO_KINDS[n % len(_METRO_KINDS)]
        total, rates, delays, errors, _ = _METRO_RATS[rat]
        cells.append({"cell_id": f"c{n}", "rat": rat, "operator_id": operator,
                      "frequency": frequency, "total_resources": total,
                      "used_resources": int(total * rng.uniform(0.0, 0.6)),
                      "raw_error_rate": round(rng.uniform(*errors), 4),
                      "achievable_rate": round(rng.uniform(*rates), -3),
                      "base_delay_ms": round(rng.uniform(*delays), 1)})
    flows = [{"flow_id": f"f{n}", "service_class": "real-time",
              "min_rate": rng.choice((64e3, 128e3, 384e3, 1e6)),
              "max_delay_ms": float(rng.randint(150, 400)),
              "max_loss": round(rng.uniform(0.01, 0.05), 3),
              "resource_demand": rng.randint(1, 4)} for n in range(n_flows)]
    preference = {f"{operator}|{rat}": round(rng.uniform(0.3, 0.9), 3)
                  for operator in OPERATORS for rat in _METRO_RATS}
    retransmissions = {rat: profile[-1] for rat, profile in _METRO_RATS.items()}
    return scenario_from_dict({
        "mrrm_location": "network", "duration_ms": duration_ms,
        "gll": {"mac": {"max_retransmissions": retransmissions}},
        "mrrm": {"policies": {"static_preference": preference},
                 "capabilities": {"energy_cost": {"WLAN": 0.3, "UMTS": 0.5, "GSM": 0.2}}},
        "cells": cells, "flows": flows})


def test_stage_two_ranks_a_small_share_of_a_metro_round(monkeypatch):
    # counts, not timings: per select of a round with candidates, the
    # candidates, those stage two scores before the bound stops it (each
    # QoS check is one score) and those its result lists, the target or none
    stage_counts, scored_counts, ranked_counts = [], [], []
    carries = mrrm_mod._carries

    def counting_carries(*args):
        scored_counts[-1] += 1
        return carries(*args)

    def counting(flow, stage, tentative, holds):
        if not stage.entries:  # the round before the first scan completes
            return select_access(flow, stage, tentative, holds)
        stage_counts.append(len(stage.entries))
        scored_counts.append(0)
        ranked = select_access(flow, stage, tentative, holds)
        ranked_counts.append(len(ranked.entries))
        return ranked

    monkeypatch.setattr(mrrm_mod, "_carries", counting_carries)
    monkeypatch.setattr(mrrm_mod, "select_access", counting)
    execute_run(build_run(_metro_scenario(320, 960, duration_ms=300)))
    assert len(stage_counts) >= 960
    quarter = statistics.median(stage_counts) / 4
    assert statistics.median(ranked_counts) < quarter
    assert statistics.median(scored_counts) < quarter


# -- live decision engine ---------------------------------------------------------


def make_world(cells, flows=(), selection=None, policies=None, caps=None,
               respond=True, gll_cfg=None, delays=(10, 1, 19, 16, 302),
               make_before_break=True, check_timeout=1000, drop_types=()):
    """A manager wired to GLL, the bus and the mobility layer; its decisions
    go to ``world.decisions``."""
    loop = EventLoop()
    bus = TriggerBus(clock=lambda: loop.now, drop_types=drop_types)
    if respond:
        PoliciesCheckResponder(bus)
    env = Environment(loop, cells,
                      emit=lambda t, p: bus.publish(trg.Event(t, "env", payload=p)))
    gll = GenericLinkLayer(loop, env, bus, cfg=gll_cfg or GllConfig())
    decisions = []
    mrrm = MultiRadioResourceManager(
        loop, env, bus, gll,
        policies=policies, selection=selection, caps=caps,
        policies_check_timeout_ms=check_timeout,
        make_before_break=make_before_break, record=decisions.append)
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
                           executor=executor, events=events, decisions=decisions)


def decide(world):
    """Run a round; the decisions it recorded."""
    recorded = len(world.decisions)
    world.mrrm.decide()
    return world.decisions[recorded:]


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
    decisions = decide(world)
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
    decisions = decide(world)
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
    decisions = decide(world)
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
    decisions = decide(world)
    assert decisions[0]["action"] == "attach"
    assert decisions[0]["target"] == "big"


def test_sequential_assignment_respects_tentative_demand():
    cell = make_cell("a", total_resources=15)
    other = make_cell("b")
    flows = [make_flow("f1", resource_demand=10), make_flow("f2", resource_demand=10)]
    world = make_world([cell, other], flows=flows)
    world.mrrm.reports[cell.cell_id] = synthetic_report(cell.cell_id, quality=1.0)
    world.mrrm.reports[other.cell_id] = synthetic_report(other.cell_id, quality=0.5)
    decisions = decide(world)
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
        world.mrrm.decide()
        # a replayed round records nothing: f1's last decision stands
        assert world.decisions[-1]["action"] == "none"
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


def test_link_whose_flow_cannot_be_mapped_after_link_up_is_released():
    # c1 fills up during f's attach latency, so f does not fit when the link
    # comes up at 700
    run = build_run(scenario_from_dict({
        "duration_ms": 1500,
        "gll": {"attach_latency_ms": 200},
        "cells": [{"cell_id": "c1", "rat": "WLAN", "operator_id": "OpA", "frequency": "ch1"}],
        "timeline": [{"at": 500, "kind": "flow-arrival", "target": "f", "resource_demand": 30},
                     {"at": 550, "kind": "set-cell-field", "target": "c1",
                      "field": "used_resources", "value": 90}],
    }))
    result = execute_run(run)
    events = [(r.at, r.attributes["type"]) for r in read_trace(result.trace_lines)
              if r.kind == "event" and r.attributes["type"] in (trg.LINK_UP, trg.LINK_DOWN)]
    assert events == [(700, trg.LINK_UP), (700, trg.LINK_DOWN)]
    assert not run.gll.attached
    assert run.env.flows["f"].serving is None
    assert run.env.cells["c1"].used_resources == 90
    assert not run.mrrm.in_flight


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

    def counting(flow, stage, tentative, holds):
        calls.append(flow.flow_id)
        return select_access(flow, stage, tentative, holds)

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
    first = decide(world)
    assert first[0]["action"] == "none" and first[0]["target"] == "b"
    for _ in range(3):
        assert decide(world) == []  # a replayed round records nothing
    assert selects == ["f1"]


def test_round_that_initiated_an_attach_is_not_replayed(selects):
    cell = make_cell("a")
    world = make_world([cell], flows=[make_flow("f1")])
    seed_reports(world, cell)
    assert decide(world)[0]["action"] == "attach"
    world.bus.publish(trg.Event(trg.ATTACH_FAILED, "gll", payload={"cell": "a"}))
    assert "f1" not in world.mrrm.in_flight  # every input is as it was
    assert decide(world)[0]["action"] == "attach"
    assert selects == ["f1", "f1"]
    assert "f1" in world.mrrm.in_flight


def test_settled_round_is_decided_afresh_when_a_candidate_residual_changes(selects):
    world = _settled_world(1 / 6)
    world.mrrm.decide()
    assert decide(world) == []
    world.env.apply_action(ScenarioAction(0, "set-cell-field", "b",
                                          {"field": "used_resources", "value": 95}))
    decisions = decide(world)
    assert selects == ["f1", "f1"]
    # f1's demand of 10 no longer fits b's residual of 5
    assert decisions[0]["action"] == "none" and decisions[0]["target"] == "a"


def test_settled_round_is_decided_afresh_when_a_cooldown_expires(selects):
    world = _settled_world(1 / 6)
    world.mrrm.cooldown_until["b"] = 100
    assert decide(world)[0]["target"] == "a"
    world.loop.run_until(99)
    assert decide(world) == []
    assert selects == ["f1"]
    world.loop.run_until(100)
    decisions = decide(world)
    assert selects == ["f1", "f1"]
    assert decisions[0]["target"] == "b"


def test_settled_round_is_decided_afresh_when_the_serving_link_is_lost(selects):
    world = _settled_world(1.0)
    world.mrrm.decide()
    assert decide(world) == []
    # the link goes without a link-down event, so nothing else that a round
    # reads changes
    world.gll.attached.discard("a")
    decisions = decide(world)
    assert selects == ["f1", "f1"]
    assert decisions[0]["action"] == "attach" and decisions[0]["target"] == "a"


def test_a_class_flip_to_an_equal_report_republishes_it_and_the_round_replays(
        selects, monkeypatch):
    # one reference rate for every class, so the class alone changes no report
    maps = []
    map_link_quality = gll_mod.map_link_quality
    monkeypatch.setattr(gll_mod, "map_link_quality",
                        lambda *args: maps.append(args[2]) or map_link_quality(*args))
    world = make_world([make_cell("a")], flows=[
        make_flow("f1", serving="a", service_class="background"),
        make_flow("f2", serving="a", service_class="real-time")])
    world.gll.start()
    world.loop.run_until(100)
    assert selects == ["f1", "f2"]
    world.bus.send_downward(trg.Event(trg.REPORTING_INTERVAL_CHANGE, "app", payload={
        "service_class": "real-time", "interval_ms": 1000}), target="gll")
    world.loop.run_until(200)
    assert maps == ["real-time", "background"]
    first, second = [e.payload for e in events_of(world, trg.LINK_QUALITY_REPORT)]
    assert second is first
    assert selects == ["f1", "f2"]


def test_mrrms_own_detach_keeps_the_report_and_the_next_round_replays(selects):
    # f2 demands nothing, so its departure leaves b's report as it was
    a, b = make_cell("a"), make_cell("b")
    world = make_world([a, b], flows=[make_flow("f1", serving="a"),
                                      make_flow("f2", serving="b", resource_demand=0)])
    world.gll.start()
    world.loop.run_until(100)
    assert selects == ["f1", "f2"]
    held = world.mrrm.reports["b"]
    world.env.apply_action(ScenarioAction(100, "flow-departure", "f2"))
    assert not world.gll.is_attached("b")  # MRRM released the link no flow uses
    assert [e.payload["reason"] for e in events_of(world, trg.LINK_DOWN)] == ["requested"]
    assert world.mrrm.reports["b"] is held
    world.mrrm.decide()
    assert selects == ["f1", "f2", "f1"]
    lists = len(events_of(world, trg.CANDIDATE_REPORT))
    world.loop.run_until(200)
    assert world.mrrm.reports["b"] is held
    assert len(events_of(world, trg.CANDIDATE_REPORT)) == lists
    assert selects == ["f1", "f2", "f1"]


def test_a_replayed_round_runs_no_stage_one(monkeypatch):
    world = _settled_world(1 / 6)
    assert decide(world)
    calls = []
    monkeypatch.setattr(mrrm_mod, "round_candidates", lambda *args: calls.append(args))
    monkeypatch.setattr(world.mrrm, "usable_reports", lambda: calls.append(()))
    assert decide(world) == []
    assert calls == []


def test_a_link_lost_under_a_dropped_link_down_is_decided_afresh(selects):
    world = _settled_world(1.0, drop_types=["link-down"])
    world.mrrm.decide()
    world.gll.detach("a")  # its link-down never reaches mrrm
    decisions = decide(world)
    assert selects == ["f1", "f1"]
    assert decisions[0]["action"] == "attach" and decisions[0]["target"] == "a"


def test_a_departure_under_a_dropped_flow_departure_is_decided_afresh(selects):
    world = _settled_world(1 / 6, flows=("f1", "f2"), drop_types=["flow-departure"])
    assert [d["flow"] for d in decide(world)] == ["f1", "f2"]
    world.env.apply_action(ScenarioAction(0, "flow-departure", "f2"))
    assert [d["flow"] for d in decide(world)] == ["f1"]
    assert selects == ["f1", "f2", "f1"]


def test_an_arrival_under_a_dropped_flow_arrival_is_decided_afresh(selects):
    world = _settled_world(1 / 6, drop_types=["flow-arrival"])
    world.mrrm.decide()
    world.env.admit_flow(make_flow("f2"))
    assert [d["flow"] for d in decide(world)] == ["f1", "f2"]
    assert selects == ["f1", "f1", "f2"]


def test_a_quality_ramp_step_is_decided_afresh(selects):
    world = _settled_world(1 / 6)
    world.mrrm.decide()
    world.env.apply_action(ScenarioAction(0, "quality-ramp", "b", {
        "field": "raw_error_rate", "end": 0.5, "duration_ms": 100, "step_ms": 100}))
    assert decide(world) == []  # the ramp has not stepped yet
    assert selects == ["f1"]
    world.loop.run_until(100)
    world.mrrm.decide()
    assert selects == ["f1", "f1"]


# -- reports held as their payloads -------------------------------------------------


def _publish_report(world, payload):
    world.bus.publish(trg.Event(trg.LINK_QUALITY_REPORT, "gll", payload=payload))


def test_a_republished_payload_is_taken_once():
    cell = make_cell("a")
    world = make_world([cell])
    generation = world.mrrm._generation
    payload = report_for_cell(cell)
    for _ in range(3):
        _publish_report(world, payload)
    assert world.mrrm.reports["a"] is payload
    assert world.mrrm._generation == generation + 1
    equal = dict(payload)
    _publish_report(world, equal)  # equal, but not the payload held
    assert world.mrrm.reports["a"] is equal
    assert world.mrrm._generation == generation + 2


@pytest.mark.parametrize("event_type, payload", (
    (trg.ACCESS_LOST, {"cell": "a"}),
    (trg.LINK_DOWN, {"cell": "a", "reason": "lost"}),
))
def test_a_dropped_report_is_learned_again_from_the_same_payload(event_type, payload):
    cell = make_cell("a")
    world = make_world([cell])
    report = report_for_cell(cell)
    _publish_report(world, report)
    world.bus.publish(trg.Event(event_type, "gll", payload=payload))
    assert "a" not in world.mrrm.reports
    _publish_report(world, report)
    assert world.mrrm.reports["a"] is report
    world.mrrm.candidate_report()
    assert events_of(world, trg.CANDIDATE_REPORT)[-1].payload == {"count": 1, "candidates": "a"}


# -- arrival rounds -----------------------------------------------------------------


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

    def counting(flow, stage, tentative, holds):
        ranked_at.append(run.loop.now)
        return select_access(flow, stage, tentative, holds)

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
    seed_reports(world, b, a)
    world.mrrm.candidate_report()
    published = events_of(world, trg.CANDIDATE_REPORT)
    assert published[-1].payload == {"count": 2, "candidates": "a,b"}


def test_candidate_report_empty_still_publishes():
    world = make_world([make_cell("a")])
    world.mrrm.candidate_report()
    assert events_of(world, trg.CANDIDATE_REPORT)[-1].payload["count"] == 0


def _candidate_lists(location, drop_types=()):
    """(time, candidates) of each candidate-report of a run in which cell b
    goes dark at 1000 and comes back at 3000."""
    result = execute_scenario(scenario_from_dict({
        "duration_ms": 4000,
        "mrrm_location": location,
        "trg": {"drop_types": list(drop_types)},
        "cells": [{"cell_id": c, "rat": "WLAN", "operator_id": "OpA", "frequency": "ch6"}
                  for c in ("a", "b")],
        "flows": [{"flow_id": "f1", "resource_demand": 5}],
        "timeline": [{"at": 1000, "kind": "cell-down", "target": "b"},
                     {"at": 3000, "kind": "cell-up", "target": "b"}],
    }))
    return [(r.at, r.attributes["candidates"]) for r in read_trace(result.trace_lines)
            if r.kind == "event" and r.attributes["type"] == trg.CANDIDATE_REPORT]


def test_candidate_report_follows_a_network_side_cell_that_comes_back():
    # network-side GLL keeps reporting the dark cell, as uncovered
    assert _candidate_lists("network") == [(200, "a,b"), (1000, "a"), (3000, "a,b")]


def test_candidate_report_follows_a_report_that_flips_coverage():
    # with the coverage change dropped, GLL never loses the cell: only its
    # report says that it went dark and came back
    assert _candidate_lists("terminal", drop_types=["cell-coverage-change"]) == [
        (200, "a,b"), (1000, "a"), (3000, "a,b")]


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
    _publish_report(world, {**world.mrrm.reports["a"], "quality": 0.05})
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


def test_a_denial_at_run_time_wins_over_the_allowed_operators():
    # a file listing OpA as both allowed and denied is refused at load; at run
    # time the denial wins and OpA stays listed, so allowing it undoes the denial
    a = make_cell("a", operator_id="OpA")
    b = make_cell("b", operator_id="OpB")
    policies = PolicySet(allowed_operators={"OpA", "OpB"})
    world = make_world([a, b], policies=policies)
    seed_reports(world, a, b)

    def stage_one():
        mrrm = world.mrrm
        stage = round_candidates(mrrm.usable_reports(), mrrm.policies, mrrm.caps,
                                 mrrm.selection, world.env.cells)
        return [entry[0] for entry in stage.entries]

    assert stage_one() == ["a", "b"]
    for action, candidates in (("deny-operator", ["b"]), ("allow-operator", ["a", "b"])):
        world.bus.send_downward(
            trg.Event(trg.POLICY_CHANGED, "policy-editor",
                      payload={"action": action, "operator": "OpA"}),
            target="mrrm")
        assert world.mrrm.policies.allowed_operators == {"OpA", "OpB"}
        assert stage_one() == candidates
    assert policies == PolicySet(allowed_operators={"OpA", "OpB"})


def _send_to_mrrm(world, event_type, payload):
    """Send an event down to MRRM; returns the rounds it ran."""
    rounds = []
    world.mrrm.decide = lambda: rounds.append(world.loop.now)
    world.bus.send_downward(trg.Event(event_type, "policy-editor", payload=payload),
                            target="mrrm")
    return rounds


def _change_policy(world, **payload):
    return _send_to_mrrm(world, trg.POLICY_CHANGED, payload)


@pytest.mark.parametrize("payload, changed", (
    ({"action": "deny-operator", "operator": "OpC"}, {"denied_operators": {"OpB", "OpC"}}),
    ({"action": "allow-operator", "operator": "OpB"},
     {"denied_operators": set(), "allowed_operators": {"OpA", "OpB"}}),
    ({"action": "set-min-security", "value": 3}, {"min_security_level": 3}),
    ({"action": "set-max-cost", "value": 2}, {"max_cost_per_mb": 2.0}),
    ({"action": "set-roaming", "value": False}, {"roaming_allowed": False}),
    ({"action": "set-preference", "operator": "OpA", "value": 1},
     {"operator_preference": {"OpA": 1.0}}),
), ids=("deny-operator", "allow-operator", "set-min-security", "set-max-cost", "set-roaming",
        "set-preference"))
def test_a_policy_change_applies_its_value_and_decides(payload, changed):
    policies = PolicySet(allowed_operators={"OpA"}, denied_operators={"OpB"},
                         max_cost_per_mb=0.5)
    world = make_world([make_cell("a")], policies=policies)
    before = copy.deepcopy(policies)
    expected = {**vars(before), **changed}
    assert _change_policy(world, **payload) == [0]
    assert vars(world.mrrm.policies) == expected
    world.mrrm.policies.validate()
    # the change is a new value: the one the manager was given is left as it was
    assert policies == before


@pytest.mark.parametrize("payload", (
    {"action": "set-roaming", "value": "false"},
    {"action": "set-roaming", "value": 0},
    {"action": "set-min-security", "value": "x"},
    {"action": "set-min-security", "value": 7},
    {"action": "set-min-security", "value": 2.0},
    {"action": "set-min-security", "value": True},
    {"action": "set-max-cost", "value": "x"},
    {"action": "set-max-cost", "value": float("nan")},
    {"action": "set-max-cost", "value": None},
    {"action": "set-preference", "operator": "OpA", "value": 2.0},
    {"action": "set-preference", "operator": "OpA", "value": "0.5"},
    {"action": "set-preference", "value": 0.5},
    {"action": "deny-operator"},
    {"action": "deny-operator", "operator": ""},
    {"action": "allow-operator", "operator": 5},
    {"action": "promote-operator", "operator": "OpA"},
    {},
), ids=repr)
def test_a_bad_policy_change_is_logged_and_changes_nothing(payload, caplog):
    world = make_world([make_cell("a")])
    before = copy.deepcopy(world.mrrm.policies)
    with caplog.at_level(logging.WARNING, logger="hetsel.mrrm"):
        assert _change_policy(world, **payload) == []
    assert world.mrrm.policies == before
    assert any("ignoring policy change" in message for message in caplog.messages)


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


def _pending_check(operator="OpB"):
    """A world whose manager awaits the answer to its policies check of ``operator``."""
    world = make_world([make_cell("a", operator_id=operator)], respond=False)
    world.mrrm.policies_check(operator, "a", "WLAN")
    assert world.mrrm.operators[operator].verdict == "pending"
    return world


@pytest.mark.parametrize("payload, denied, preference", (
    ({"operator": "OpB", "verdict": "allow"}, set(), {}),
    ({"operator": "OpB", "verdict": "deny"}, {"OpB"}, {}),
    ({"operator": "OpB", "verdict": "allow", "preference": 1}, set(), {"OpB": 1.0}),
    ({"operator": "OpB", "verdict": "deny", "preference": 0.0}, {"OpB"}, {"OpB": 0.0}),
), ids=repr)
def test_a_policies_check_answer_applies_its_verdict_and_decides(payload, denied, preference):
    world = _pending_check()
    given = world.mrrm.policies
    assert _send_to_mrrm(world, trg.POLICIES_CHECK_ANSWER, payload) == [0]
    assert given == PolicySet()
    assert world.mrrm.operators["OpB"].verdict == payload["verdict"]
    assert world.mrrm.policies.denied_operators == denied
    assert world.mrrm.policies.operator_preference == preference
    world.mrrm.policies.validate()


@pytest.mark.parametrize("payload", (
    {"operator": "OpB", "verdict": "maybe"},
    {"operator": "OpB", "verdict": "DENY"},
    {"operator": "OpB", "verdict": None},
    {"operator": "OpB"},
    {"operator": "OpB", "verdict": "allow", "preference": 2.0},
    {"operator": "OpB", "verdict": "allow", "preference": -0.1},
    {"operator": "OpB", "verdict": "allow", "preference": "x"},
    {"operator": "OpB", "verdict": "allow", "preference": "0.5"},
    {"operator": "OpB", "verdict": "allow", "preference": True},
    {"operator": "OpB", "verdict": "allow", "preference": float("nan")},
    {"operator": "", "verdict": "allow"},
    {"operator": 5, "verdict": "deny"},
    {"verdict": "deny"},
    {},
), ids=repr)
def test_a_bad_policies_check_answer_is_logged_and_changes_nothing(payload, caplog):
    world = _pending_check()
    before = copy.deepcopy(world.mrrm.policies)
    with caplog.at_level(logging.WARNING, logger="hetsel.mrrm"):
        assert _send_to_mrrm(world, trg.POLICIES_CHECK_ANSWER, payload) == []
    assert world.mrrm.policies == before
    assert list(world.mrrm.operators) == ["OpB"]
    assert world.mrrm.operators["OpB"].verdict == "pending"
    assert not world.mrrm._operator_admitted("OpB")
    assert any("ignoring policies-check answer" in message for message in caplog.messages)
