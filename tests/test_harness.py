"""Mobility pipeline, trace processing, run statistics, CLI."""

import json

import pytest

from hetsel import trg
from hetsel.cli import main as cli_main
from hetsel.harness import (
    MobilityDelayModel,
    MobilityExecutor,
    bench_trg,
    compute_stats,
    execute_scenario,
    report_breakdown,
)
from hetsel.harness.trace import (
    TraceError,
    TraceRecord,
    TraceRecorder,
    format_record,
    parse_record,
    read_trace,
)
from hetsel.mrrm import Flow
from hetsel.simenv.env import Environment
from hetsel.simenv.loop import EventLoop
from hetsel.simenv.scenario import load_scenario, scenario_from_dict
from hetsel.trg import Event, Subscription, TriggerBus

from conftest import SCENARIO_DIR, make_cell


def pipeline_world(delays, cells):
    loop = EventLoop()
    recorder = TraceRecorder()
    bus = TriggerBus(clock=lambda: loop.now,
                     recorder=lambda at, kind, attrs: recorder.record(at, "trg", kind, attrs))
    env = Environment(loop, cells, emit=lambda t, p: bus.publish(Event(t, "env", payload=p)),
                      flow_factory=Flow)
    executor = MobilityExecutor(loop, env, bus, model=MobilityDelayModel(delays),
                                record=lambda kind, attrs: recorder.record(
                                    loop.now, "mobility", kind, attrs))
    events = []
    bus.subscribe(Subscription("probe", ("handover-*",)), events.append)
    return loop, bus, env, executor, recorder, events


def request(bus, flow="f1", source="a", target="b"):
    bus.publish(Event(trg.HANDOVER_EXECUTION_REQUEST, "mrrm",
                      payload={"flow": flow, "from": source, "to": target}))


def test_mn_model_completes_after_3034_ms():
    loop, bus, env, executor, recorder, events = pipeline_world(
        (209, 2, 1, 13, 2809), [make_cell("a"), make_cell("b")])
    loop.schedule(100, lambda: request(bus))
    loop.run_until(5000)
    completes = [e for e in events if e.event_type == trg.HANDOVER_COMPLETE]
    assert len(completes) == 1
    assert completes[0].at == 100 + 3034


def test_mr_model_completes_after_348_ms():
    loop, bus, env, executor, recorder, events = pipeline_world(
        (10, 1, 19, 16, 302), [make_cell("a"), make_cell("b")])
    loop.schedule(0, lambda: request(bus))
    loop.run_until(1000)
    completes = [e for e in events if e.event_type == trg.HANDOVER_COMPLETE]
    assert completes[0].at == 348


def test_target_coverage_loss_fails_the_handover():
    cells = [make_cell("a"), make_cell("b")]
    loop, bus, env, executor, recorder, events = pipeline_world((10, 1, 19, 16, 302), cells)
    loop.schedule(0, lambda: request(bus))
    loop.schedule(100, lambda: setattr(env.cells["b"], "covered", False))
    loop.run_until(1000)
    kinds = [e.event_type for e in events]
    assert trg.HANDOVER_FAILED in kinds and trg.HANDOVER_COMPLETE not in kinds
    # the failed pipeline produces no complete breakdown
    assert report_breakdown(recorder.records) == []


def test_breakdown_identity():
    loop, bus, env, executor, recorder, events = pipeline_world(
        (209, 2, 1, 13, 2809), [make_cell("a"), make_cell("b")])
    loop.schedule(100, lambda: request(bus))
    loop.run_until(5000)
    (report,) = report_breakdown(recorder.records)
    assert report.durations_ms == (209, 2, 1, 13, 2809)
    assert report.total_ms == sum(report.durations_ms) == 3034
    completes = [e for e in events if e.event_type == trg.HANDOVER_COMPLETE]
    assert report.total_ms == completes[0].at - report.request_at


def test_zero_delay_model_keeps_point_order():
    loop, bus, env, executor, recorder, events = pipeline_world(
        (0, 0, 0, 0, 0), [make_cell("a"), make_cell("b")])
    loop.schedule(0, lambda: request(bus))
    loop.run_until(10)
    points = [r.attributes["point"] for r in recorder.records if r.kind == "trace-point"]
    assert points == [1, 2, 3, 4, 5]


# -- trace format ----------------------------------------------------------------


def test_trace_record_roundtrip():
    record = TraceRecord(12, "mrrm", "decision",
                         {"flow": "f1", "score": 0.75625, "ok": True, "empty": ""})
    assert parse_record(format_record(record)) == record


def test_trace_rejects_time_going_backwards():
    recorder = TraceRecorder()
    recorder.record(10, "x", "event", {})
    with pytest.raises(TraceError):
        recorder.record(9, "x", "event", {})


def test_read_trace_on_missing_file(tmp_path):
    with pytest.raises(TraceError):
        list(read_trace(tmp_path / "missing.txt"))


# -- stats -----------------------------------------------------------------------


def run_shipped(name):
    return execute_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))


def test_stats_accounting_identity_on_shipped_runs():
    for name in ("table1_mn", "table1_mr", "attenuation_sweep"):
        stats = run_shipped(name).stats
        assert stats.handovers_completed + stats.handovers_failed <= stats.handovers_attempted


def test_stats_recomputation_is_pure(tmp_path):
    result = run_shipped("table1_mr")
    path = tmp_path / "trace.txt"
    path.write_text(result.trace_text, encoding="utf-8")
    again = compute_stats(read_trace(path))
    assert again.as_dict() == result.stats.as_dict()


def test_static_single_access_run_has_no_handovers():
    stats = run_shipped("scan_targeted_hit").stats
    assert stats.handovers_attempted == 0
    assert stats.ping_pong_count == 0


def test_make_before_break_attaches_before_detaching():
    result = run_shipped("attenuation_sweep")
    records = [parse_record(line) for line in result.trace_lines]
    up_umts = next(r.at for r in records
                   if r.kind == "event" and r.attributes.get("type") == "link-up"
                   and r.attributes.get("cell") == "umts1")
    down_wlan = next(r.at for r in records
                     if r.kind == "event" and r.attributes.get("type") == "link-down"
                     and r.attributes.get("cell") == "wlan1")
    assert up_umts < down_wlan
    assert result.stats.service_gap_total_ms == 0


def failure_scenario(cooldown_ms=5000):
    return scenario_from_dict({
        "seed": 5,
        "duration_ms": 9000,
        "gll": {"history": [["WLAN", "ch6"]]},
        "mrrm": {
            "policies": {"static_preference": {"OpB|WLAN": 0.9, "OpA|WLAN": 0.3}},
            "selection": {"failure_cooldown_ms": cooldown_ms},
        },
        "mobility": {"delays_ms": [10, 1, 19, 16, 302]},
        "cells": [
            {"cell_id": "a", "rat": "WLAN", "operator_id": "OpA", "frequency": "ch6",
             "achievable_rate": 10000000, "base_delay_ms": 10, "security_level": 2},
            {"cell_id": "b", "rat": "WLAN", "operator_id": "OpB", "frequency": "ch6",
             "achievable_rate": 54000000, "base_delay_ms": 5, "security_level": 2},
        ],
        "flows": [
            {"flow_id": "f1", "service_class": "background", "min_rate": 1000000,
             "max_delay_ms": 200, "max_loss": 0.05, "resource_demand": 10,
             "serving": "a"}],
        "timeline": [
            {"at": 300, "kind": "cell-down", "target": "b"},
            {"at": 600, "kind": "cell-up", "target": "b"},
        ],
    })


def test_failed_handover_puts_target_on_cooldown():
    result = execute_scenario(failure_scenario())
    records = [parse_record(line) for line in result.trace_lines]
    fails = [r for r in records
             if r.kind == "event" and r.attributes.get("type") == "handover-failed"]
    assert len(fails) == 1
    failed_at = fails[0].at
    requests = [r.at for r in records
                if r.kind == "event"
                and r.attributes.get("type") == "handover-execution-request"]
    # no new attempt during the 5 s cool-down, retry afterwards succeeds
    in_cooldown = [t for t in requests if failed_at < t < failed_at + 5000]
    assert in_cooldown == []
    assert result.stats.handovers_attempted == 2
    assert result.stats.handovers_failed == 1
    assert result.stats.handovers_completed == 1


def test_break_before_make_records_the_gap_honestly():
    data = {
        "seed": 5,
        "duration_ms": 4000,
        "gll": {"history": [["WLAN", "ch6"]]},
        "mrrm": {"policies": {"static_preference": {"OpB|WLAN": 0.9, "OpA|WLAN": 0.3}}},
        "mobility": {"delays_ms": [10, 1, 19, 16, 302], "make_before_break": False},
        "cells": [
            {"cell_id": "a", "rat": "WLAN", "operator_id": "OpA", "frequency": "ch6",
             "achievable_rate": 10000000, "base_delay_ms": 10, "security_level": 2},
            {"cell_id": "b", "rat": "WLAN", "operator_id": "OpB", "frequency": "ch6",
             "achievable_rate": 54000000, "base_delay_ms": 5, "security_level": 2},
        ],
        "flows": [
            {"flow_id": "f1", "service_class": "background", "min_rate": 1000000,
             "max_delay_ms": 200, "max_loss": 0.05, "resource_demand": 10,
             "serving": "a"}],
        "timeline": [],
    }
    result = execute_scenario(scenario_from_dict(data))
    assert result.stats.handovers_completed == 1
    assert result.stats.service_gap_total_ms > 0


def test_ping_pong_counter_sees_a_b_a():
    # force oscillation by flipping which cell is loaded
    data = {
        "seed": 5,
        "duration_ms": 8000,
        "gll": {"history": [["WLAN", "ch6"]]},
        "mrrm": {"selection": {"hysteresis_delta": 0.0}},
        "mobility": {"delays_ms": [0, 0, 0, 0, 0]},
        "cells": [
            {"cell_id": "a", "rat": "WLAN", "operator_id": "OpA", "frequency": "ch6",
             "achievable_rate": 10000000, "base_delay_ms": 10, "security_level": 2},
            {"cell_id": "b", "rat": "WLAN", "operator_id": "OpB", "frequency": "ch6",
             "achievable_rate": 10000000, "base_delay_ms": 10, "security_level": 2},
        ],
        "flows": [
            {"flow_id": "f1", "service_class": "background", "min_rate": 1000000,
             "max_delay_ms": 200, "max_loss": 0.05, "resource_demand": 10,
             "serving": "a"}],
        "timeline": [
            {"at": 1000, "kind": "set-cell-field", "target": "a",
             "field": "achievable_rate", "value": 1500000},
            {"at": 3000, "kind": "set-cell-field", "target": "a",
             "field": "achievable_rate", "value": 10000000},
            {"at": 3000, "kind": "set-cell-field", "target": "b",
             "field": "achievable_rate", "value": 1500000},
        ],
    }
    result = execute_scenario(scenario_from_dict(data))
    assert result.stats.handovers_completed >= 2
    assert result.stats.ping_pong_count >= 1


def test_run_registers_information_sources_in_uci_registry():
    from hetsel.harness.runner import build_run

    run = build_run(load_scenario(SCENARIO_DIR / "scan_targeted_hit.json"))
    assert run.bus.resolve_uci("multiaccess/link-quality").source == "gll"
    assert run.bus.resolve_uci("multiaccess/candidate-report").source == "mrrm"
    assert run.bus.resolve_uci("multiaccess/handover-events").source == "mobility"


def test_mid_run_flow_arrival_gets_served():
    data = {
        "seed": 4,
        "duration_ms": 5000,
        "gll": {"history": [["WLAN", "ch6"]]},
        "cells": [
            {"cell_id": "a", "rat": "WLAN", "operator_id": "OpA", "frequency": "ch6",
             "achievable_rate": 10000000, "base_delay_ms": 10, "security_level": 2}],
        "flows": [],
        "timeline": [
            {"at": 1000, "kind": "flow-arrival", "target": "f9",
             "service_class": "real-time", "min_rate": 1000000, "max_delay_ms": 100,
             "max_loss": 0.01, "resource_demand": 5},
            {"at": 4000, "kind": "flow-departure", "target": "f9"},
        ],
    }
    result = execute_scenario(scenario_from_dict(data))
    records = [parse_record(line) for line in result.trace_lines]
    mapped = [r for r in records
              if r.kind == "event" and r.attributes.get("type") == "flow-mapped"]
    assert mapped and mapped[0].attributes["flow"] == "f9"
    assert 1000 < mapped[0].at <= 1200
    # departure releases the access (no flows left -> detach)
    downs = [r for r in records
             if r.kind == "event" and r.attributes.get("type") == "link-down"]
    assert any(r.at >= 4000 and r.attributes.get("reason") == "requested" for r in downs)


def test_liveness_flow_served_one_round_after_attach_latency():
    result = run_shipped("scan_targeted_hit")
    records = [parse_record(line) for line in result.trace_lines]
    first_decide = next(r.at for r in records
                        if r.kind == "decision" and r.attributes["candidates"] >= 1)
    mapped_at = next(r.at for r in records
                     if r.kind == "event" and r.attributes.get("type") == "flow-mapped")
    attach_latency = 50
    assert mapped_at == first_decide + attach_latency
    assert result.stats.service_gap_total_ms == attach_latency


def test_new_access_event_precedes_the_next_candidate_report():
    data = {
        "seed": 9,
        "duration_ms": 3000,
        "gll": {"history": [["WLAN", "ch6"]]},
        "cells": [
            {"cell_id": "a", "rat": "WLAN", "operator_id": "OpA", "frequency": "ch6",
             "achievable_rate": 10000000, "base_delay_ms": 10, "security_level": 2},
            {"cell_id": "late", "rat": "UMTS", "operator_id": "OpA", "frequency": "f2100",
             "covered": False, "achievable_rate": 5000000, "base_delay_ms": 30,
             "security_level": 2},
        ],
        "flows": [
            {"flow_id": "f1", "service_class": "background", "min_rate": 1000000,
             "max_delay_ms": 200, "max_loss": 0.05, "resource_demand": 5,
             "serving": "a"}],
        "timeline": [{"at": 1000, "kind": "cell-up", "target": "late"}],
    }
    result = execute_scenario(scenario_from_dict(data))
    records = [parse_record(line) for line in result.trace_lines]
    detected_idx = next(i for i, r in enumerate(records)
                        if r.kind == "event"
                        and r.attributes.get("type") == "new-access-detected"
                        and r.attributes.get("cell") == "late")
    report_idx = next(i for i, r in enumerate(records)
                      if r.kind == "event"
                      and r.attributes.get("type") == "candidate-report"
                      and "late" in str(r.attributes.get("candidates", "")))
    assert detected_idx < report_idx
    assert records[detected_idx].at == records[report_idx].at == 1000


# -- determinism -------------------------------------------------------------------


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_shipped_scenarios_are_deterministic(path):
    scenario = load_scenario(path)
    first = execute_scenario(scenario).trace_text
    second = execute_scenario(scenario).trace_text
    assert first == second


def test_seed_override_changes_only_the_seed(tmp_path):
    scenario = load_scenario(SCENARIO_DIR / "scan_targeted_hit.json")
    base = execute_scenario(scenario).trace_text
    overridden = execute_scenario(scenario, seed_override=123)
    # the seed is only a label: it changes the run's scenario, not its trace
    assert overridden.scenario.seed == 123
    assert scenario.seed != 123
    assert base == overridden.trace_text


# -- bench ---------------------------------------------------------------------------


def test_bench_degenerate_single_event():
    summary = bench_trg(1, 1)
    assert summary.events == 1
    assert summary.min_ms <= summary.median_ms <= summary.p99_ms


def test_bench_zero_subscribers_floor():
    summary = bench_trg(0, 1000)
    assert summary.deliveries == 0
    assert summary.median_ms < 1.0


def test_bench_rejects_bad_counts():
    with pytest.raises(ValueError):
        bench_trg(10, 0)


# -- CLI -------------------------------------------------------------------------------


def test_cli_run_report_stats_roundtrip(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(["run", str(SCENARIO_DIR / "table1_mn.json"), "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "handovers: attempted=1 completed=1 failed=0" in captured

    code = cli_main(["report", str(out / "trace.txt")])
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["durations_ms"] == [209, 2, 1, 13, 2809]
    assert reports[0]["total_ms"] == 3034

    code = cli_main(["stats", str(out / "trace.txt")])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["handovers"]["completed"] == 1

    written = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert written == stats


def test_cli_rejects_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cells": [{"cell_id": "c1"}]}), encoding="utf-8")
    code = cli_main(["run", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "cells[0]" in capsys.readouterr().err


def test_cli_reports_empty_for_handover_free_trace(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["run", str(SCENARIO_DIR / "scan_targeted_hit.json"),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli_main(["report", str(out / "trace.txt")]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_cli_bench_outputs_summary(capsys):
    assert cli_main(["bench-trg", "--subscribers", "10", "--events", "200"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["events"] == 200
