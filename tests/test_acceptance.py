"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``); the per-test
verdicts of ``pytest -v`` carry the same information.
"""

import random
import time

import pytest

from hetsel.gll import MappingConfig, map_link_quality, residual_error_rate
from hetsel.harness import bench_trg, compute_stats, execute_scenario
from hetsel.harness.trace import parse_record
from hetsel.mrrm import round_candidates, select_access
from hetsel.simenv.scenario import load_scenario, scenario_from_dict

from conftest import SCENARIO_DIR, make_measurement, random_instance, random_tentative
from oracles import selection_oracle_best

SHIPPED = sorted(SCENARIO_DIR.glob("*.json"))


def announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def records_of(result):
    return [parse_record(line) for line in result.trace_lines]


def events_of(result, event_type):
    return [r for r in records_of(result)
            if r.kind == "event" and r.attributes.get("type") == event_type]


def test_criterion_1_table1_pipeline_reproduction():
    started = time.perf_counter()
    mn = execute_scenario(load_scenario(SCENARIO_DIR / "table1_mn.json"))
    mn_runtime = time.perf_counter() - started

    started = time.perf_counter()
    mr = execute_scenario(load_scenario(SCENARIO_DIR / "table1_mr.json"))
    mr_runtime = time.perf_counter() - started

    mn_reports = compute_stats(records_of(mn)).breakdowns
    mr_reports = compute_stats(records_of(mr)).breakdowns
    ok = (mn.stats.breakdowns == mn_reports and mr.stats.breakdowns == mr_reports
          and mn.stats.handovers_completed == 1
          and len(mn_reports) == 1
          and mn_reports[0].durations_ms == (209, 2, 1, 13, 2809)
          and mn_reports[0].total_ms == 3034
          and mr.stats.handovers_completed == 1
          and len(mr_reports) == 1
          and mr_reports[0].durations_ms == (10, 1, 19, 16, 302)
          and mr_reports[0].total_ms == 348
          and mr_reports[0].total_ms < 350
          and mn_runtime < 1.0 and mr_runtime < 1.0)
    announce(1, ok, f"MN {mn_reports[0].durations_ms} total {mn_reports[0].total_ms} ms, "
                    f"MR {mr_reports[0].durations_ms} total {mr_reports[0].total_ms} ms "
                    f"(runtimes {mn_runtime:.2f}s/{mr_runtime:.2f}s)")


def test_criterion_2_trigger_bus_latency():
    started = time.perf_counter()
    summary = bench_trg(subscribers=100, events=10000)
    runtime = time.perf_counter() - started
    ok = summary.median_ms <= 1.0 and runtime < 60.0
    announce(2, ok, f"median {summary.median_ms:.4f} ms/event over {summary.events} events "
                    f"with {summary.subscribers} subscriptions (p99 {summary.p99_ms:.4f} ms)")


def test_criterion_3_attenuation_sweep_handover():
    started = time.perf_counter()
    result = execute_scenario(load_scenario(SCENARIO_DIR / "attenuation_sweep.json"))
    runtime = time.perf_counter() - started
    completes = events_of(result, "handover-complete")
    to_umts = [r for r in completes if r.attributes.get("to") == "umts1"]
    # ramp ends at 12 s; the run holds a static tail beyond 30 s after it
    tail_ms = result.scenario.duration_ms - 12000
    ok = (len(to_umts) >= 1
          and result.stats.service_gap_total_ms == 0
          and result.stats.ping_pong_count == 0
          and tail_ms >= 30000
          and runtime < 5.0)
    announce(3, ok, f"{len(to_umts)} handover(s) to UMTS, service gap "
                    f"{result.stats.service_gap_total_ms} ms, ping-pong "
                    f"{result.stats.ping_pong_count}, tail {tail_ms} ms, {runtime:.2f}s")


def test_criterion_4_selection_oracle_equivalence():
    rng = random.Random(20260810)
    started = time.perf_counter()
    mismatches = 0
    checked = 0
    for _ in range(1000):
        cells, reports, flows, policies, caps, cfg = random_instance(rng)
        tentative = random_tentative(rng, cells)
        stage = round_candidates(reports, policies, caps, cfg, cells)
        for flow in flows:
            expected = selection_oracle_best(flow, reports, policies, caps, cfg, cells, tentative)
            # a ranking is cut after its target, and its head is the best candidate
            # whichever candidate has room for the flow
            for holds in (False, True):
                ranked = select_access(flow, stage, tentative, holds)
                checked += 1
                if expected is None:
                    if ranked.entries:
                        mismatches += 1
                elif not ranked.entries or ranked.entries[0][0] != expected[0]:
                    mismatches += 1
    runtime = time.perf_counter() - started
    ok = mismatches == 0 and runtime < 30.0
    announce(4, ok, f"{checked} ranked lists vs brute force, {mismatches} mismatches, "
                    f"{runtime:.2f}s")


def test_criterion_5_hard_termination_property():
    rng = random.Random(555)
    violations = 0
    for _ in range(1000):
        cells, reports, flows, policies, caps, cfg = random_instance(rng)
        by_cell = {r["cell"]: r for r in reports}
        # every candidate stage one admits, so every one a flow's ranking can list
        for entry in round_candidates(reports, policies, caps, cfg, cells).entries:
            if by_cell[entry[0]]["load"] >= cfg.load_threshold:
                violations += 1
    announce(5, violations == 0, f"{violations} overloaded candidates admitted")


def test_criterion_6_scan_ordering():
    hit = execute_scenario(load_scenario(SCENARIO_DIR / "scan_targeted_hit.json"))
    fallback = execute_scenario(load_scenario(SCENARIO_DIR / "scan_full_fallback.json"))
    ok = (hit.stats.scan_counts["targeted"] == 1
          and hit.stats.scan_counts["full"] == 0
          and fallback.stats.scan_counts["targeted"] == 1
          and fallback.stats.scan_counts["full"] == 1)
    announce(6, ok, f"remembered frequency: {hit.stats.scan_counts}; "
                    f"empty targeted result: {fallback.stats.scan_counts}")


def _cadence_scenario(service_class, duration_ms):
    return scenario_from_dict({
        "seed": 2,
        "duration_ms": duration_ms,
        "gll": {"history": [["WLAN", "ch6"]]},
        "cells": [{"cell_id": "c1", "rat": "WLAN", "operator_id": "OpA",
                   "frequency": "ch6", "achievable_rate": 10000000,
                   "base_delay_ms": 10, "security_level": 2}],
        "flows": [{"flow_id": "f1", "service_class": service_class,
                   "min_rate": 1000000, "max_delay_ms": 200, "max_loss": 0.05,
                   "resource_demand": 5, "serving": "c1"}],
        "timeline": [],
    })


def _report_cadence(result, interval):
    """The reporting ticks, read from their ``measurement-batch`` records: the
    trace leaves out a report that repeats the cell's last one, but each tick
    writes one batch record, counting the reports it published."""
    batches = [r for r in records_of(result)
               if r.kind == "event"
               and r.attributes.get("type") == "measurement-batch"
               and r.at >= interval]
    assert all(r.attributes["count"] >= 1 for r in batches)
    times = [r.at for r in batches]
    return times, [b - a for a, b in zip(times, times[1:])]


def test_criterion_7_reporting_cadence():
    rt = execute_scenario(_cadence_scenario("real-time", 6200))
    rt_times, rt_diffs = _report_cadence(rt, 100)
    bg = execute_scenario(_cadence_scenario("background", 26000))
    bg_times, bg_diffs = _report_cadence(bg, 500)
    ok = (len(rt_times) >= 50 and all(d == 100 for d in rt_diffs)
          and len(bg_times) >= 50 and all(d == 500 for d in bg_diffs))
    announce(7, ok, f"real-time: {len(rt_times)} report ticks all 100 ms apart; "
                    f"background: {len(bg_times)} report ticks all 500 ms apart")


def test_criterion_8_gll_metric_properties():
    rng = random.Random(88)
    cfg = MappingConfig()
    violations = 0
    for _ in range(100_000):
        m = make_measurement(
            residual_error_rate=rng.random(),
            achievable_rate=rng.random() * 1e8,
            delay_ms=rng.random() * 1000,
            load=rng.random(),
            covered=rng.random() < 0.9,
        )
        report = map_link_quality(m, cfg)
        values = (report.q_error, report.q_rate, report.q_delay, report.q_load,
                  report.quality)
        if any(not 0.0 <= v <= 1.0 for v in values):
            violations += 1
            continue
        worse = make_measurement(
            residual_error_rate=min(1.0, m.residual_error_rate + 0.05),
            achievable_rate=m.achievable_rate * 0.9,
            delay_ms=m.delay_ms + 50,
            load=min(1.0, m.load + 0.05),
            covered=m.covered,
        )
        if map_link_quality(worse, cfg).quality > report.quality + 1e-12:
            violations += 1
            continue
        p, r = rng.random(), rng.randint(0, 16)
        if residual_error_rate(p, r) > p + 1e-15:
            violations += 1
    announce(8, violations == 0, f"100000 randomized measurements, {violations} violations")


def test_criterion_9_determinism_of_shipped_scenarios():
    unequal = []
    for path in SHIPPED:
        scenario = load_scenario(path)
        first = execute_scenario(scenario).trace_text
        second = execute_scenario(scenario).trace_text
        if first != second:
            unequal.append(path.stem)
    announce(9, not unequal,
             f"{len(SHIPPED)} shipped scenarios byte-identical across double runs"
             + (f"; diverged: {unequal}" if unequal else ""))
