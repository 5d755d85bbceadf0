"""Properties of whole runs over generated scenarios.

Every generated scenario passes validation, so it must run to completion with
its invariants holding: cells stay within capacity, every served flow holds
its link and its charge, every charge belongs to a live flow, only a flow in
a make-before-break handover is charged on two cells, the event records'
consumer lists and carried counts add up to every delivery, the written trace replays to the in-run
statistics, and a second run is byte-identical.  Timeline values leave room for every
demand, so no action fails a capacity check.  In a world whose timeline is
empty, selection converges: handovers stop after a bounded number of
decision rounds.  Replaying settled decision rounds changes no trace, of a
generated or of a shipped scenario, and a round is replayed only when the
full round key (``oracles.ReplayGate``) says its inputs are those of the
settled round: on every round of the generated, shipped, mutated and
benchmark worlds.  Likewise a quality-floor check skips its walk only when a
full walk (``oracles.FloorGate``) finds no flow under the floor, and scans
exactly when it finds one.  A report that GLL publishes, its payload reused
or not, equals a fresh mapping of the cell, and MRRM holds what it reads
back to (``oracles.ReportGate``): on the same worlds, and every shipped and
benchmark world reuses some.  After each measurement batch, the candidate
list MRRM last published names the covered reports it held when the batch
arrived (``oracles.CandidateGate``).  A run writes exactly the records of a run
whose recorder leaves nothing out and that decides every round afresh, less
the repeated decision and report records, whose deliveries later records
carry, and reads back to the same statistics: on generated, shipped and
benchmark worlds.
A shipped scenario or seed-1 benchmark world with one leaf mutated is
rejected by a diagnostic that names a path of the document, or runs clean.

Worlds ramp link quality, and their operators' policies checks are answered
from a drawn store and default verdict, or go unanswered and time out, so
that what selection admits changes over a run.  A flow may leave and arrive
again under the same id, and the bus may drop every flow departure.  Up to
three correlation rules watch the run's own events and one another's
synthetic ones, so the trace holds synthetic and nested publishes.
"""

import json
import math
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hetsel import mrrm as mrrm_mod
from hetsel.harness.runner import RunRecorder, build_run, execute_run
from hetsel.harness.stats import compute_stats
from hetsel.harness.trace import read_trace
from hetsel.mrrm import MultiRadioResourceManager, select_access
from hetsel.simenv.scenario import ScenarioError, load_scenario, scenario_from_dict

from conftest import (
    DEPARTED_WHILE_ATTACHING_WORLD,
    REPO_ROOT,
    SHIPPED_SCENARIOS,
    TARGET_LOST_COVERAGE_WORLD,
)
from oracles import (
    CandidateGate,
    FloorGate,
    ReplayGate,
    ReportGate,
    long_hand_service_gaps,
    thin_decisions,
    thin_reports,
)

sys.path.insert(0, str(REPO_ROOT / "perfbench"))

from worker import _subscribe_all  # noqa: E402
from worlds import WORKLOADS, generate  # noqa: E402

MAX_BASE = 40      # base load of a cell, initial and set
MIN_TOTAL = 200    # capacity of a cell, initial and set
MAX_DEMAND = 20
MAX_FLOWS = 8      # initial flows plus arrivals: at most 160 charged on a cell

_COVERAGE = ("cell-up", "cell-down", "link-down-cable")

# Ids that a trace codec which guesses types would read back as numbers,
# booleans or other strings; replaying the trace must keep them as they are.
_AWKWARD_IDS = ("007", "1e3", "true", "a b", "-", "None")


def _ids(draw, prefix, count):
    pool = [f"{prefix}{i}" for i in range(count)] + list(_AWKWARD_IDS)
    return draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count, unique=True))


# Types the run itself publishes; reports and batches come every tick.
_WATCHED_TYPES = ("link-quality-report", "measurement-batch", "flow-mapped",
                  "handover-complete")


def _correlations(draw):
    """Zero to three correlation rules.  A later rule may also watch an
    earlier rule's output, so one synthetic publish nests in another."""
    rules = []
    for i in range(draw(st.integers(0, 3))):
        pattern = draw(st.lists(st.sampled_from(_WATCHED_TYPES), min_size=2, max_size=3))
        if rules and draw(st.booleans()):
            slot = draw(st.integers(0, len(pattern) - 1))
            pattern[slot] = draw(st.sampled_from([rule["output_type"] for rule in rules]))
        rules.append({"rule_id": f"r{i}",
                      "pattern": pattern,
                      "window_ms": draw(st.sampled_from((50, 500, 5000))),
                      "output_type": f"burst-{i}",
                      "reset_on_fire": draw(st.booleans())})
    return rules


@st.composite
def scenarios(draw, max_initial_flows=4, max_actions=16):
    cell_ids = _ids(draw, "c", draw(st.integers(1, 3)))
    flow_ids = _ids(draw, "f", MAX_FLOWS)
    cells = []
    for cell_id in cell_ids:
        # A twin of the previous cell scores the same for every flow: the
        # world in which moving as a herd is most tempting.
        if cells and draw(st.booleans()):
            cells.append({**cells[-1], "cell_id": cell_id})
            continue
        cells.append({
            "cell_id": cell_id,
            "rat": draw(st.sampled_from(("WLAN", "UMTS", "LAN"))),
            "operator_id": draw(st.sampled_from(("OpA", "OpB"))),
            "frequency": draw(st.sampled_from(("ch1", "ch6"))),
            "covered": draw(st.sampled_from((True, True, False))),
            "total_resources": draw(st.integers(MIN_TOTAL, 300)),
            "used_resources": draw(st.integers(0, MAX_BASE)),
            "raw_error_rate": draw(st.floats(0.0, 0.3)),
            "achievable_rate": draw(st.floats(1e5, 1e7)),
            "base_delay_ms": draw(st.floats(1.0, 150.0)),
        })
    covered = [c["cell_id"] for c in cells if c["covered"]]

    def flow_params():
        return {"service_class": draw(st.sampled_from(("real-time", "interactive", "background"))),
                "min_rate": draw(st.floats(0.0, 2e6)),
                "resource_demand": draw(st.integers(1, MAX_DEMAND))}

    flows = []
    for j in range(draw(st.integers(0, max_initial_flows))):
        flow = {"flow_id": flow_ids[j], **flow_params()}
        if covered and draw(st.sampled_from((True, True, False))):
            flow["serving"] = draw(st.sampled_from(covered))
        flows.append(flow)

    live = [f["flow_id"] for f in flows]
    departed = []
    arrivals = len(flows)
    timeline = []
    at = 0
    for _ in range(draw(st.integers(0, max_actions))):
        at += draw(st.sampled_from((0, 50, 100, 400, 1000)))
        # set-cell-field, and in it used_resources, is listed twice: setting the
        # base load under live charges is the path most worth hitting often.
        kind = draw(st.sampled_from(_COVERAGE + ("flow-arrival", "flow-departure",
                                                 "set-cell-field", "set-cell-field",
                                                 "quality-ramp")))
        if kind == "flow-arrival" and (departed or arrivals < MAX_FLOWS):
            # a departed flow may come back under its old id
            if departed and (arrivals == MAX_FLOWS or draw(st.booleans())):
                target = draw(st.sampled_from(departed))
                departed.remove(target)
            else:
                target = flow_ids[arrivals]
                arrivals += 1
            live.append(target)
            timeline.append({"at": at, "kind": kind, "target": target, **flow_params()})
        elif kind == "flow-departure" and live:
            target = draw(st.sampled_from(live))
            live.remove(target)
            departed.append(target)
            timeline.append({"at": at, "kind": kind, "target": target})
        elif kind == "set-cell-field":
            field, value = draw(st.sampled_from((
                ("used_resources", st.integers(0, MAX_BASE)),
                ("used_resources", st.integers(0, MAX_BASE)),
                ("total_resources", st.integers(MIN_TOTAL, 300)),
                ("raw_error_rate", st.floats(0.0, 0.3)),
                ("achievable_rate", st.floats(0.0, 1e7)),
            )))
            timeline.append({"at": at, "kind": kind, "target": draw(st.sampled_from(cell_ids)),
                             "field": field, "value": draw(value)})
        elif kind == "quality-ramp":
            field, value = draw(st.sampled_from((("raw_error_rate", st.floats(0.0, 1.0)),
                                                 ("achievable_rate", st.floats(0.0, 1e7)))))
            ramp = {"at": at, "kind": kind, "target": draw(st.sampled_from(cell_ids)),
                    "field": field, "end": draw(value),
                    "duration_ms": draw(st.sampled_from((100, 350, 1000))),
                    "step_ms": draw(st.sampled_from((50, 100)))}
            if draw(st.booleans()):
                ramp["start"] = draw(value)
            timeline.append(ramp)
        elif kind in _COVERAGE:
            timeline.append({"at": at, "kind": kind, "target": draw(st.sampled_from(cell_ids))})
    return {
        "duration_ms": at + 2000,
        "mrrm_location": draw(st.sampled_from(("terminal", "network"))),
        "gll": {"attach_latency_ms": draw(st.sampled_from((0, 50, 200)))},
        "mobility": {"make_before_break": draw(st.booleans()),
                     "delays_ms": draw(st.sampled_from(([0] * 5, [10, 20, 5, 30, 40])))},
        "mrrm": {"policies_check_timeout_ms": draw(st.sampled_from((0, 50, 300)))},
        # a dropped departure leaves mrrm and the statistics unaware that a
        # flow left before it arrives again
        "trg": {"drop_types": draw(st.sampled_from(([], [], [], ["flow-departure"]))),
                "respond_to_policies_check": draw(st.sampled_from((True, True, True, False))),
                "default_verdict": draw(st.sampled_from(("allow", "allow", "deny"))),
                "policy_store": draw(st.dictionaries(
                    st.sampled_from(("OpA", "OpB")),
                    st.fixed_dictionaries({"verdict": st.sampled_from(("allow", "deny")),
                                           "preference": st.none() | st.floats(0.0, 1.0)}),
                    max_size=2)),
                "correlations": _correlations(draw)},
        "cells": cells,
        "flows": flows,
        "timeline": timeline,
    }


# A generated world in which three flows kept pointing at a cell that came
# back under an operator its policies check now denied, holding nothing there.
_DENIED_ON_RETURN_WORLD = {
    "duration_ms": 2000,
    "trg": {"default_verdict": "deny"},
    "cells": [{"cell_id": "c0", "rat": "WLAN", "operator_id": "OpA", "frequency": "ch1"}],
    "flows": [{"flow_id": f"f{j}", "resource_demand": 1, "serving": "c0"} for j in range(3)],
    "timeline": [{"at": 0, "kind": "cell-down", "target": "c0"},
                 {"at": 0, "kind": "cell-up", "target": "c0"}],
}


# Each tick's pair of reports fires r0, r1 fires on r0's events inside their
# publish, and r2 watches r1's events and the GLL's batches.
_CHAINED_RULES_WORLD = {
    "duration_ms": 3000,
    "trg": {"correlations": [
        {"rule_id": "r0", "pattern": ["link-quality-report"] * 2, "window_ms": 50,
         "output_type": "burst-0"},
        {"rule_id": "r1", "pattern": ["burst-0", "burst-0"], "window_ms": 500,
         "output_type": "burst-1", "reset_on_fire": False},
        {"rule_id": "r2", "pattern": ["burst-1", "measurement-batch"], "window_ms": 5000,
         "output_type": "burst-2"}]},
    "cells": [{"cell_id": f"c{i}", "rat": "WLAN", "operator_id": "OpA", "frequency": "ch1"}
              for i in range(2)],
    "flows": [{"flow_id": "f0", "resource_demand": 5}],
    "timeline": [{"at": 1000, "kind": "flow-arrival", "target": "f1", "resource_demand": 5}],
}


@given(doc=scenarios())
@example(doc=_CHAINED_RULES_WORLD)
@example(doc=_DENIED_ON_RETURN_WORLD)
@example(doc=DEPARTED_WHILE_ATTACHING_WORLD)
@example(doc=TARGET_LOST_COVERAGE_WORLD)
@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_scenarios_run_clean(doc):
    _check_run_clean(scenario_from_dict(doc))


def _check_run_clean(scenario):
    """Run ``scenario`` under the replay, floor and report gates and check its
    invariants."""
    run = build_run(scenario)
    ReplayGate(run.mrrm)
    FloorGate(run.mrrm)
    ReportGate(run)
    CandidateGate(run)
    result = execute_run(run)
    for cell in run.env.cells.values():
        assert 0 <= cell.used_resources <= cell.total_resources, cell.cell_id
    # GLL reports on the detected cells alone, so every attached one must be there
    assert run.gll.attached <= run.gll.detected.keys()
    charged = {}
    for flow_id, cell_id in run.env._charges:
        assert flow_id in run.env.flows, (flow_id, cell_id)
        charged.setdefault(flow_id, []).append(cell_id)
    for flow_id, cell_ids in charged.items():
        # only a make-before-break handover holds two charges at once
        entry = run.mrrm.in_flight.get(flow_id)
        assert len(cell_ids) == 1 or (entry is not None and entry.source is not None), (
            flow_id, cell_ids)
    for flow in run.env.flows.values():
        # a flow keeps pointing at a cell that went dark until it moves away
        if flow.serving is not None and run.env.cells[flow.serving].covered:
            cell_id = flow.serving
            assert run.gll.is_attached(cell_id), (flow.flow_id, cell_id)
            assert run.env.is_charged(flow, cell_id), (flow.flow_id, cell_id)
    records = list(read_trace(result.trace_lines))
    assert _listed(records) + _carried(records) == run.bus.delivered == (
        result.stats.trigger_deliveries)
    assert compute_stats(records).as_dict() == result.stats.as_dict()
    assert execute_run(build_run(scenario)).trace_text == result.trace_text


def _listed(records):
    """The deliveries the event records list under ``consumers``."""
    return sum(len(r.attributes.get("consumers", ())) for r in records if r.kind == "event")


def _carried(records):
    """The deliveries of left-out report records, carried by later records."""
    return sum(r.attributes.get("repeated_deliveries", 0) for r in records if r.kind == "event")


CONVERGED_AFTER_ROUNDS = 20   # instants with decisions, well past any settling move
STATIC_DURATION_MS = 20000    # at least 40 rounds at the slowest cadence


# A generated world, reduced, in which four unattached flows moved as a herd
# between two unlike cells while targets were scored at their reported load.
_HERD_WORLD = {
    "mrrm_location": "network",
    "cells": [{"cell_id": "c0", "rat": "UMTS", "operator_id": "OpA", "frequency": "ch6",
               "covered": True, "total_resources": 200, "used_resources": 16,
               "raw_error_rate": 0.22, "achievable_rate": 1e6, "base_delay_ms": 112.0},
              {"cell_id": "c1", "rat": "LAN", "operator_id": "OpB", "frequency": "ch1",
               "covered": True, "total_resources": 248, "used_resources": 21,
               "raw_error_rate": 0.2, "achievable_rate": 9e6, "base_delay_ms": 138.0}],
    "flows": [{"flow_id": f"f{j}", "service_class": "background", "resource_demand": demand}
              for j, demand in enumerate((19, 20, 19, 14))],
    "timeline": [],
}


@given(doc=scenarios(max_initial_flows=MAX_FLOWS, max_actions=0))
@example(doc=_HERD_WORLD)
@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_static_world_stops_handing_over(doc):
    run = build_run(scenario_from_dict({**doc, "duration_ms": STATIC_DURATION_MS}))
    round_at = set()
    decide = run.mrrm.decide

    def spy():
        round_at.add(run.loop.now)
        return decide()

    run.mrrm.decide = spy
    result = execute_run(run)
    records = list(read_trace(result.trace_lines))
    round_times = sorted(round_at)
    requests = [r.at for r in records
                if r.kind == "event" and r.attributes["type"] == "handover-execution-request"]
    if not doc["flows"] or not any(cell["covered"] for cell in doc["cells"]):
        assert requests == []  # nothing to move, or nowhere to move it
        return
    assert len(round_times) > CONVERGED_AFTER_ROUNDS
    settled = round_times[CONVERGED_AFTER_ROUNDS]
    assert [at for at in requests if at > settled] == []


def _run(scenario, replay=True):
    """The run's trace and how many flows stage two ranked; without replay,
    every round's inputs are new, so every round is decided afresh."""
    ranked = []

    def counting(flow, stage, tentative, holds):
        ranked.append(flow.flow_id)
        return select_access(flow, stage, tentative, holds)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mrrm_mod, "select_access", counting)
        if not replay:
            patch.setattr(MultiRadioResourceManager, "_round_inputs", lambda self, *args: object())
        return execute_run(build_run(scenario)).trace_text, len(ranked)


@pytest.mark.parametrize("path", SHIPPED_SCENARIOS, ids=lambda p: p.stem)
def test_replaying_settled_rounds_leaves_shipped_traces_unchanged(path):
    scenario = load_scenario(path)
    trace, ranked = _run(scenario)
    fresh_trace, fresh_ranked = _run(scenario, replay=False)
    assert trace == fresh_trace
    assert ranked < fresh_ranked  # every shipped scenario settles at some point


@given(doc=scenarios(max_initial_flows=MAX_FLOWS))
@example(doc=_CHAINED_RULES_WORLD)
@example(doc=_DENIED_ON_RETURN_WORLD)
@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_replaying_settled_rounds_leaves_generated_traces_unchanged(doc):
    scenario = scenario_from_dict(doc)
    assert _run(scenario)[0] == _run(scenario, replay=False)[0]


# One WLAN cell too loaded for the flow: "big" stays unserved with one
# candidate, leaves unseen by mrrm and the statistics (its departure is
# dropped) and arrives again, where the statistics start it afresh.  Its
# first decision after the return repeats its last one, and must be written
# all the same, or its service gap after 2500 goes uncounted.
_REARRIVAL_WORLD = {
    "duration_ms": 5000,
    "trg": {"drop_types": ["flow-departure"]},
    "cells": [{"cell_id": "c1", "rat": "WLAN", "operator_id": "OpA", "frequency": "ch1",
               "used_resources": 60, "total_resources": 100}],
    "flows": [],
    "timeline": [{"at": 500, "kind": "flow-arrival", "target": "big", "resource_demand": 50},
                 {"at": 1500, "kind": "flow-departure", "target": "big"},
                 {"at": 2500, "kind": "flow-arrival", "target": "big", "resource_demand": 50}],
}


def _check_thinned_against_full(build):
    """The run writes the full trace less its repeated decision and report
    records, later records carry the deliveries of the reports left out, and
    both traces read back to the same statistics.  The full trace is written
    by a recorder that leaves nothing out, of a run that decides every round
    afresh, since a replayed round writes nothing.  ``build`` makes a fresh
    run each time it is called."""
    result = execute_run(build())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RunRecorder, "_repeats", lambda self, key, held: False)
        patch.setattr(MultiRadioResourceManager, "_round_inputs", lambda self, *args: object())
        full = execute_run(build())
    records = list(read_trace(result.trace_lines))
    full_records = list(read_trace(full.trace_lines))
    assert records == thin_reports(thin_decisions(full_records))
    assert compute_stats(records).as_dict() == compute_stats(full_records).as_dict()
    assert compute_stats(full_records).service_gap_ms == long_hand_service_gaps(full_records)
    assert _carried(records) == _listed(full_records) - _listed(records)
    assert _carried(full_records) == 0
    return result, records, full_records


def _left_out(records, full_records):
    """How many decision records and report records the run left out."""
    def count(of):
        return (sum(r.kind == "decision" for r in of),
                sum(r.attributes.get("type") == "link-quality-report" for r in of))
    (decisions, reports), (all_decisions, all_reports) = count(records), count(full_records)
    return all_decisions - decisions, all_reports - reports


@pytest.mark.parametrize("path", SHIPPED_SCENARIOS, ids=lambda p: p.stem)
def test_shipped_traces_are_the_full_traces_less_repeats(path):
    scenario = load_scenario(path)
    _, records, full_records = _check_thinned_against_full(lambda: build_run(scenario))
    assert min(_left_out(records, full_records)) > 0  # each repeats decisions and reports


@given(doc=scenarios(max_initial_flows=MAX_FLOWS))
@example(doc=_REARRIVAL_WORLD)
@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_traces_are_the_full_traces_less_repeats(doc):
    scenario = scenario_from_dict(doc)
    _check_thinned_against_full(lambda: build_run(scenario))


def test_a_flow_that_returns_unseen_keeps_its_service_gap():
    scenario = scenario_from_dict(_REARRIVAL_WORLD)
    result, _, _ = _check_thinned_against_full(lambda: build_run(scenario))
    assert result.stats.service_gap_ms == {"big": 4500}


def _check_gaps_against_the_long_hand_walk(scenario):
    records = list(read_trace(execute_run(build_run(scenario)).trace_lines))
    gaps = long_hand_service_gaps(records)
    assert compute_stats(records).service_gap_ms == gaps
    return gaps


@pytest.mark.parametrize("path", SHIPPED_SCENARIOS, ids=lambda p: p.stem)
def test_shipped_service_gaps_equal_the_long_hand_walk(path):
    _check_gaps_against_the_long_hand_walk(load_scenario(path))


@given(doc=scenarios(max_initial_flows=MAX_FLOWS))
@example(doc=_REARRIVAL_WORLD)
@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_service_gaps_equal_the_long_hand_walk(doc):
    _check_gaps_against_the_long_hand_walk(scenario_from_dict(doc))


def _benchmark_run(world):
    """The world's run with its passive upper-layer subscriptions, as the
    benchmark worker builds it."""
    run = build_run(scenario_from_dict(world.scenario))
    _subscribe_all(run.bus, world.subscriptions)
    return run


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_traces_are_the_full_traces_less_repeats(workload, seed):
    world = generate(workload, seed)
    _, records, full_records = _check_thinned_against_full(lambda: _benchmark_run(world))
    assert min(_left_out(records, full_records)) > 0


# -- the marks against the full round key ----------------------------------------

MIN_REPLAY_COVERAGE = 0.95  # of the rounds that a comparison of full keys replays


def _gated_run(scenario):
    run = build_run(scenario)
    gate = ReplayGate(run.mrrm)
    execute_run(run)
    return gate


@pytest.mark.parametrize("path", SHIPPED_SCENARIOS, ids=lambda p: p.stem)
def test_marks_replay_shipped_rounds_only_on_unchanged_inputs(path):
    assert _gated_run(load_scenario(path)).replayed > 0


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_marks_replay_benchmark_rounds_only_on_unchanged_inputs(workload, seed):
    gate = _gated_run(scenario_from_dict(generate(workload, seed).scenario))
    if seed == 1:
        assert gate.replayed >= MIN_REPLAY_COVERAGE * gate.replayable > 0, (
            gate.replayed, gate.replayable)


# -- the quality-floor walk against a full walk -------------------------------------


def _floor_gated_run(scenario):
    run = build_run(scenario)
    gate = FloorGate(run.mrrm)
    execute_run(run)
    return gate


@pytest.mark.parametrize("path", SHIPPED_SCENARIOS, ids=lambda p: p.stem)
def test_floor_checks_skip_shipped_walks_only_with_no_flow_under(path):
    assert _floor_gated_run(load_scenario(path)).skipped > 0


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_floor_checks_skip_benchmark_walks_only_with_no_flow_under(workload, seed):
    gate = _floor_gated_run(scenario_from_dict(generate(workload, seed).scenario))
    assert gate.skipped > 0


# -- reused report payloads against a fresh mapping ---------------------------------


def _report_gated_run(run):
    gate = ReportGate(run)
    execute_run(run)
    return gate


@pytest.mark.parametrize("path", SHIPPED_SCENARIOS, ids=lambda p: p.stem)
def test_reports_are_reused_only_when_unchanged_shipped(path):
    gate = _report_gated_run(build_run(load_scenario(path)))
    assert 0 < gate.reused < gate.reports


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_are_reused_only_when_unchanged_benchmark(workload, seed):
    gate = _report_gated_run(_benchmark_run(generate(workload, seed)))
    assert 0 < gate.reused < gate.reports


# -- mutated shipped scenarios and benchmark worlds ---------------------------------

_MUTANT_VALUES = (0, 1, -1, 1e9, -1e9, 1e300, math.nan, "", None, True, False, [], {})
_DELETE = object()


def _leaves(node, path=()):
    """The key paths of every scalar, empty list and empty object."""
    if isinstance(node, (dict, list)) and node:
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, path + (key,))
    else:
        yield path


def _rendered_paths(node, path=""):
    """Every node's path as a diagnostic names it: ``cells[0].rat``."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _rendered_paths(child, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _rendered_paths(child, f"{path}[{index}]")


_SHIPPED_TEXTS = tuple(path.read_text(encoding="utf-8") for path in SHIPPED_SCENARIOS)
_BENCHMARK_TEXTS = tuple(json.dumps(generate(workload, 1).scenario) for workload in WORKLOADS)


@st.composite
def mutants(draw, texts=_SHIPPED_TEXTS):
    """One of ``texts``, parsed, and a copy with one leaf replaced, or its key deleted."""
    text = draw(st.sampled_from(texts))
    doc, mutant = json.loads(text), json.loads(text)
    names = sorted({cell[key] for cell in doc.get("cells", ())
                    for key in ("cell_id", "operator_id")})
    *parents, key = draw(st.sampled_from(list(_leaves(doc))))
    value = draw(st.sampled_from(_MUTANT_VALUES + tuple(names) + (_DELETE,)))
    node = mutant
    for parent in parents:
        node = node[parent]
    if value is _DELETE:
        del node[key]
    else:
        node[key] = value
    return doc, mutant


@given(docs=mutants())
@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_mutated_shipped_scenario_is_rejected_by_path_or_runs_clean(docs):
    _check_mutant(*docs)


# Most mutants are rejected at load; one that runs clean runs its world twice,
# up to a second or two each, so 25 examples stay well under 15 s.
@given(docs=mutants(_BENCHMARK_TEXTS))
@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_mutated_benchmark_world_is_rejected_by_path_or_runs_clean(docs):
    _check_mutant(*docs)


def _check_mutant(doc, mutant):
    try:
        _check_run_clean(scenario_from_dict(mutant))
    except ScenarioError as exc:
        # a missing key is named by its path in the unmutated document
        assert str(exc).split(": ", 1)[0] in set(_rendered_paths(doc)), str(exc)
