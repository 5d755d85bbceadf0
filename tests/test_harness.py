"""Mobility pipeline, trace processing, run statistics, CLI."""

import copy
import importlib.util
import json
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hetsel
from hetsel import trg
from hetsel.cli import EXIT_BAD_INPUT, EXIT_BROKEN_PIPE, EXIT_INTERNAL
from hetsel.cli import main as cli_main
from hetsel.harness import bench_trg, compute_stats, execute_scenario
from hetsel.harness import runner as runner_mod
from hetsel.harness import trace as trace_mod
from hetsel.harness.runner import RunRecorder, build_run, execute_run
from hetsel.harness.trace import (
    RecordError,
    TraceError,
    TraceRecord,
    format_record,
    parse_record,
    read_trace,
)
from hetsel.gll import GenericLinkLayer
from hetsel.mobility import MobilityDelayModel, MobilityExecutor
from hetsel.mrrm import MultiRadioResourceManager
from hetsel.simenv.env import Environment
from hetsel.simenv.loop import EventLoop
from hetsel.simenv.scenario import load_scenario, scenario_from_dict
from hetsel.trg import Event, Subscription, TriggerBus

from conftest import SCENARIO_DIR, make_cell, synthetic_report
from oracles import long_hand_service_gaps, thin_decisions, thin_reports


def pipeline_world(delays, cells):
    loop = EventLoop()
    recorder = RunRecorder()
    bus = TriggerBus(clock=lambda: loop.now, recorder=recorder.record_event)
    env = Environment(loop, cells, emit=lambda t, p: bus.publish(Event(t, "env", payload=p)))
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
    assert compute_stats(recorder.records).breakdowns == []


def test_breakdown_identity():
    loop, bus, env, executor, recorder, events = pipeline_world(
        (209, 2, 1, 13, 2809), [make_cell("a"), make_cell("b")])
    loop.schedule(100, lambda: request(bus))
    loop.run_until(5000)
    (report,) = compute_stats(recorder.records).breakdowns
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


# -- the run's recorder ----------------------------------------------------------


def recorded_bus():
    recorder = RunRecorder()
    return TriggerBus(recorder=recorder.record_event), recorder


def test_an_event_record_holds_the_event_and_who_it_reached():
    bus, recorder = recorded_bus()
    bus.subscribe(Subscription("c2", ("x",)), lambda t: None)
    bus.subscribe(Subscription("c1", ("x",)), lambda t: None)
    bus.publish(Event("x", "s", payload={"v": 0}))
    bus.publish(Event("y", "s", payload={"v": 1}))
    assert [(r.component, r.kind, r.attributes) for r in recorder.records] == [
        ("trg", "event", {"type": "x", "source": "s", "synthetic": False, "v": 0,
                          "consumers": ["c2", "c1"]}),
        # a publish that reaches no one lists no consumers
        ("trg", "event", {"type": "y", "source": "s", "synthetic": False, "v": 1}),
    ]


@pytest.mark.parametrize("key", ["type", "source", "synthetic", "consumers",
                                 "repeated_deliveries"])
def test_a_payload_that_overwrites_a_record_attribute_is_refused(key):
    bus, recorder = recorded_bus()
    received = []
    bus.subscribe(Subscription("c1", ("policy-changed",)), received.append)
    with pytest.raises(ValueError, match=repr(key)):
        bus.publish(Event("policy-changed", "upper", payload={key: "handover-complete"}))
    assert recorder.records == [] and received == [] and bus.published == 0


def test_a_report_record_is_written_only_when_it_changes():
    bus, recorder = recorded_bus()
    bus.subscribe(Subscription("mrrm", ("link-quality-report",)), lambda t: None)
    payload = {"cell": "a", "quality": 0.5}
    for report in (payload, payload, dict(payload), {"cell": "b", "quality": 0.5},
                   {"cell": "a", "quality": 0.4}, payload):
        bus.publish(Event("link-quality-report", "gll", payload=report))
    bus.publish(Event("measurement-batch", "gll", payload={"count": 6}))
    bus.publish(Event("link-quality-report", "gll", payload=payload))
    recorder.record_end(0)
    assert [(r.attributes["type"], r.attributes.get("cell"), r.attributes.get("quality"),
             r.attributes.get("repeated_deliveries")) for r in recorder.records] == [
        ("link-quality-report", "a", 0.5, None),
        ("link-quality-report", "b", 0.5, None),
        ("link-quality-report", "a", 0.4, None),
        ("link-quality-report", "a", 0.5, None),
        ("measurement-batch", None, None, 2),  # the held payload, then an equal one
        ("run-end", None, None, 1),
    ]


def test_a_report_record_is_written_again_for_another_source_or_consumers():
    bus, recorder = recorded_bus()
    payload = {"cell": "a"}
    bus.publish(Event("link-quality-report", "gll", payload=payload))
    bus.publish(Event("link-quality-report", "upper", payload=payload))
    bus.publish(Event("link-quality-report", "upper", payload=payload, synthetic=True))
    bus.subscribe(Subscription("mrrm", ("link-quality-report",)), lambda t: None)
    bus.publish(Event("link-quality-report", "upper", payload=payload, synthetic=True))
    assert len(recorder.records) == 4


def test_decision_record_is_written_only_when_it_changes(monkeypatch):
    # every round is decided afresh, so none is left unwritten as a replay
    monkeypatch.setattr(MultiRadioResourceManager, "_round_inputs", lambda self: object())
    run = build_run(scenario_from_dict({
        "cells": [{"cell_id": c, "rat": "WLAN", "operator_id": "OpA", "frequency": "ch6",
                   "total_resources": 100} for c in ("a", "b")],
        "flows": [{"flow_id": "f1", "serving": "a", "resource_demand": 10, "min_rate": 1e6}],
    }))
    runner_mod._install_initial_flows(run)
    mrrm = run.mrrm
    mrrm.reports["a"] = synthetic_report("a", quality=1 / 6, load=0.1)
    mrrm.reports["b"] = synthetic_report("b", quality=0.3)
    handed = []
    record = mrrm._record
    mrrm._record = lambda decision: handed.append(decision) or record(decision)

    def written():
        return [r.attributes for r in run.recorder.records if r.kind == "decision"]

    def decide():
        start = len(handed)
        mrrm.decide()
        return handed[start:]

    first = decide()
    for _ in range(3):
        assert decide() == first  # handed over, though not written again
    assert written() == first
    # the recorder keeps the decision it was handed, not a copy
    assert run.recorder.records[-1].attributes is first[0]
    mrrm.reports["b"] = synthetic_report("b", quality=0.0)
    changed = decide()
    assert changed != first
    assert written() == first + changed
    # an arrival under the flow's id starts it afresh: its next decision is
    # written even though it repeats the last one
    run.bus.publish(Event(trg.FLOW_ARRIVAL, "env", payload={"flow": "f1"}))
    run.loop.run_until(0)
    assert written() == first + changed + changed
    # and so does a departure, should the flow be decided again
    run.bus.publish(Event(trg.FLOW_DEPARTURE, "env", payload={"flow": "f1"}))
    mrrm.decide()
    assert written() == first + changed + changed + changed


# -- trace format ----------------------------------------------------------------


# Strings that a guessing codec reads back as another type or another string.
_AWKWARD_STRINGS = ("007", "1e3", "", "-", " ", "t=1", "a b", "x=y", "true", "None")

_strings = st.sampled_from(_AWKWARD_STRINGS) | st.text()
_attribute_values = (_strings | st.integers() | st.booleans() | st.none()
                     | st.floats(allow_nan=False) | st.lists(_strings, max_size=4))


@given(at=st.integers(0, 10**12),
       component=st.sampled_from(("trg", "gll", "mrrm", "mobility", "harness")),
       kind=st.sampled_from(("event", "decision", "trace-point")),
       attributes=st.dictionaries(_strings, _attribute_values, max_size=8))
@example(at=0, component="trg", kind="event",
         attributes={value: value for value in _AWKWARD_STRINGS})
@example(at=0, component="trg", kind="event",
         attributes={"consumers": list(_AWKWARD_STRINGS), "type": "x"})
@example(at=0, component="trg", kind="event",
         attributes={"inf": float("inf"), "-inf": float("-inf"), "zero": 0.0, "one": 1})
def test_trace_record_roundtrip(at, component, kind, attributes):
    record = TraceRecord(at, component, kind, attributes)
    parsed = parse_record(format_record(record))
    assert parsed == record
    # == alone would accept True for 1 and 1.0 for 1
    assert {k: type(v) for k, v in parsed.attributes.items()} == {
        k: type(v) for k, v in attributes.items()}


_json_leaves = _strings | st.integers() | st.booleans() | st.none() | st.floats()


@given(at=st.integers(0, 10**12),
       component=st.sampled_from(("trg", "gll", "mrrm", "mobility", "harness")),
       kind=st.sampled_from(("event", "decision", "trace-point")),
       attributes=st.dictionaries(_strings, st.recursive(
           _json_leaves, lambda inner: st.lists(inner, max_size=3), max_leaves=8), max_size=8))
@example(at=7, component="trg", kind="event", attributes={
    "nan": float("nan"), "inf": [float("inf"), float("-inf")], "big": 2**70, "neg": -0.0,
    "\u00e9": "\u00fcn\u00efc\u00f6de \U0001f600", "ctl": "\x00\x1f\"\\\u2028", "t": True})
def test_format_record_writes_what_json_dumps_writes(at, component, kind, attributes):
    compact = json.dumps(attributes, sort_keys=True, separators=(",", ":"))
    assert format_record(TraceRecord(at, component, kind, attributes)) == (
        f"t={at} {component} {kind} {compact}")


def test_the_fallback_without_the_c_encoder_writes_the_same_lines(monkeypatch):
    # a copy of the module built as on an interpreter without _json
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    spec = importlib.util.spec_from_file_location("trace_without_c", trace_mod.__file__)
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    assert fallback._iterencode == fallback._ENCODER.iterencode
    record = TraceRecord(3, "trg", "event", {"z": [1, 2.5, float("inf")], "a": "\u00e9\x00",
                                             "n": None, "b": False})
    assert fallback.format_record(record) == format_record(record)
    with pytest.raises(TypeError):
        fallback.format_record(TraceRecord(0, "trg", "event", {"cells": {"a", "b"}}))


def test_trace_records_are_read_only():
    record = TraceRecord(0, "trg", "event", {})
    for name in TraceRecord._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_read_trace_names_the_file_and_line_of_a_corrupt_line(tmp_path, capsys):
    good = format_record(TraceRecord(0, "harness", "event", {"type": "run-end"}))
    path = tmp_path / "trace.txt"
    path.write_text(f"{good}\n{good}\nt=5 trg event {{\"type\":\n", encoding="utf-8")
    with pytest.raises(TraceError, match=f"{re.escape(str(path))}:3: "):
        list(read_trace(path))
    for command in ("stats", "report"):
        assert cli_main([command, str(path)]) == 2
        assert f"{path}:3: " in capsys.readouterr().err


@pytest.mark.parametrize("blank", ["\x0b", "\x0c", "\xa0", "\u2028"])
def test_read_trace_strips_only_json_whitespace_as_parse_record_does(tmp_path, capsys, blank):
    good = format_record(TraceRecord(0, "harness", "event", {"type": "run-end"}))
    with pytest.raises(TraceError):
        parse_record(good + blank)
    path = tmp_path / "trace.txt"
    path.write_text(f" {good}\r\n{good}{blank}\n", encoding="utf-8")
    with pytest.raises(TraceError, match=f"{re.escape(str(path))}:2: "):
        list(read_trace(path))
    assert cli_main(["stats", str(path)]) == 2
    assert f"{path}:2: " in capsys.readouterr().err


def test_read_trace_decodes_each_distinct_line_once(monkeypatch):
    decoded = []
    raw_decode = trace_mod._raw_decode
    monkeypatch.setattr(trace_mod, "_raw_decode",
                        lambda text: decoded.append(text) or raw_decode(text))
    lines = [f't={50 * n} gll event {{"cell":"c{n % 2}","type":"link-quality-report"}}'
             for n in range(100)]
    records = list(read_trace(lines))
    assert len(decoded) == 2
    assert records[0].attributes is records[2].attributes  # equal lines may share one dict
    assert records == [parse_record(line) for line in lines]


def test_read_trace_decodes_through_parse_record_once_per_distinct_line(monkeypatch):
    # a wrapper set on the module, as a profiler sets one, sees every decode
    parsed = []
    parse_record = trace_mod.parse_record
    monkeypatch.setattr(trace_mod, "parse_record",
                        lambda line: parsed.append(line) or parse_record(line))
    decoded = []
    raw_decode = trace_mod._raw_decode
    monkeypatch.setattr(trace_mod, "_raw_decode",
                        lambda text: decoded.append(text) or raw_decode(text))
    bodies = ('trg event {"type":"x"}', 'gll event {"cell":"c1","type":"link-quality-report"}')
    lines = [f"t={10 * n} {bodies[n % 3 == 0]}" for n in range(60)]
    records = list(read_trace(lines))
    assert [line.partition(" ")[2] for line in parsed] == [bodies[1], bodies[0]]
    assert len(decoded) == 2
    assert records == [parse_record(line) for line in lines]


def test_read_trace_reads_more_distinct_lines_than_its_memo_holds():
    distinct = trace_mod.MEMO_LINES + 7
    lines = [f't={at} trg event {{"n":{at % distinct},"type":"x"}}' for at in range(3 * distinct)]
    lines += lines[::-5]  # and in reverse, so some come back while still held
    assert list(read_trace(lines)) == [parse_record(line) for line in lines]


def test_read_trace_names_the_first_line_of_a_repeated_malformed_line():
    good = 't=5 harness event {"type":"run-end"}'
    bad = 't=5 trg event {"type":'
    with pytest.raises(TraceError) as caught:
        list(read_trace([good, good, bad, good, bad]))
    with pytest.raises(TraceError) as alone:
        parse_record(bad)
    assert str(caught.value) == f"trace:3: {alone.value}"


# ``hetsel stats`` and ``hetsel report`` are one pass over a trace, so each
# refuses exactly the traces the other does.
BOTH = pytest.mark.parametrize("command", ["stats", "report"])


def _refuse(tmp_path, capsys, command, lines, bad=-1):
    """Run ``command`` on a trace of ``lines``; assert that it exits 2 naming the
    file and the record ``lines[bad]``, and return its message after the file."""
    path = tmp_path / "trace.txt"
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    assert cli_main([command, str(path)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.endswith(f": {lines[bad]}\n")
    return err[len(f"error: {path}: "):]


@BOTH
@pytest.mark.parametrize("line", [
    't=5 trg event {"source":"env","synthetic":false,"type":"flow-arrival"}',
    # an event record that reached a consumer but lacks its payload
    't=5 trg event {"consumers":["gll"],"source":"env","synthetic":false,"type":"link-up"}',
])
def test_cli_names_the_file_and_record_that_lacks_an_attribute(tmp_path, capsys, command, line):
    assert _refuse(tmp_path, capsys, command, [line]).startswith("record lacks attribute ")


@BOTH
def test_cli_report_names_a_trace_point_that_lacks_an_attribute(tmp_path, capsys, command):
    err = _refuse(tmp_path, capsys, command, ['t=5 mobility trace-point {"handover":"h","point":1}'])
    assert err.startswith("record lacks attribute 'request_at'")


@BOTH
@pytest.mark.parametrize("at", ["5_000", "+7", "\u0665", "05"])
def test_cli_refuses_a_time_that_str_does_not_write(tmp_path, capsys, command, at):
    # the second line repeats the first line's text, so the memo sees it first
    good = 't=0 trg event {"type":"x"}'
    bad = f't={at} trg event {{"type":"x"}}'
    path = tmp_path / "trace.txt"
    path.write_text(f"{good}\n{bad}\n", encoding="utf-8")
    assert cli_main([command, str(path)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == (
        f"error: {path}:2: malformed trace line: time is not plain digits without a "
        f"leading zero: {bad!r}\n")


_ARRIVAL = ('t=0 trg event {"flow":"f1","serving":"a","source":"env","synthetic":false,'
            '"type":"flow-arrival"}')


def _scan(energy):
    return (f't=0 gll event {{"energy":{energy},"mode":"full","source":"gll","synthetic":false,'
            f'"type":"scan-complete"}}')


def _point(point, request_at=0, handover='"h"'):
    return (f't=5 mobility trace-point {{"handover":{handover},"point":{point},'
            f'"request_at":{request_at}}}')


@BOTH
@pytest.mark.parametrize("lines", [
    pytest.param(['t=0 trg event {"consumers":5,"source":"env","synthetic":false,"type":"x"}'],
                 id="consumers-5"),
    pytest.param(['t=0 trg event {"count":1,"interval_ms":100,"repeated_deliveries":"3",'
                  '"source":"gll","synthetic":false,"type":"measurement-batch"}'],
                 id="repeated-string"),
    pytest.param([_point('"x"')], id="point-x"),
    # nothing is coerced: a string is neither a list of consumers nor an energy
    pytest.param(['t=0 trg event {"consumers":"mrrm","source":"env","synthetic":false,'
                  '"type":"x"}'], id="consumers-string"),
    pytest.param([_scan('"1e3"')], id="energy-string"),
    pytest.param([_point("Infinity")], id="point-infinity"),
    # an int no float holds
    pytest.param([_scan("1" + "0" * 400)], id="energy-past-a-float"),
    # an energy that is not finite would print as NaN, which strict JSON refuses
    pytest.param([_scan("NaN")], id="energy-nan"),
    pytest.param([_scan("Infinity")], id="energy-infinity"),
    pytest.param([_scan("-Infinity")], id="energy-minus-infinity"),
    # finite energies whose total is not
    pytest.param([_scan("1e+308"), _scan("1e+308")], id="energy-total-past-a-float"),
    pytest.param([_point('"1"')], id="point-string"),
    pytest.param([_point(1), _point(2.9)], id="point-float"),
    pytest.param([_point("true")], id="point-bool"),
    pytest.param([_point(1, request_at='"0"')], id="request-at-string"),
    pytest.param([_point(1, handover=5)], id="handover-int"),
    pytest.param([_ARRIVAL, 't=1 mrrm decision {"candidates":"3","flow":"f1"}'],
                 id="candidates-string"),
    pytest.param([_ARRIVAL, 't=1 mrrm decision {"candidates":2.7,"flow":"f1"}'],
                 id="candidates-float"),
    pytest.param(['t=1 mrrm decision {"candidates":1,"flow":5}'], id="decision-flow-int"),
    pytest.param(['t=0 trg event {"flow":5,"source":"env","synthetic":false,'
                  '"type":"flow-departure"}'], id="departure-flow-int"),
    pytest.param(['t=0 trg event {"flow":"f1","serving":null,"source":"env","synthetic":false,'
                  '"type":"flow-arrival"}'], id="serving-null"),
    pytest.param([_ARRIVAL, 't=1 trg event {"cell":5,"flow":"f1","source":"env",'
                  '"synthetic":false,"type":"flow-mapped"}'], id="mapped-cell-int"),
    pytest.param(['t=0 trg event {"cell":5,"source":"env","synthetic":false,"type":"link-up"}'],
                 id="link-cell-int"),
    pytest.param(['t=0 gll event {"energy":0.0,"mode":5,"source":"gll","synthetic":false,'
                  '"type":"scan-complete"}'], id="mode-int"),
    pytest.param([_ARRIVAL, 't=1 trg event {"flow":"f1","from":"a","handover":"h",'
                  '"source":"mobility","synthetic":false,"to":5,"type":"handover-complete"}'],
                 id="to-int"),
])
def test_cli_names_the_file_and_record_whose_attribute_has_the_wrong_type(
        tmp_path, capsys, command, lines):
    err = _refuse(tmp_path, capsys, command, lines)
    assert err.startswith("record has an attribute of the wrong type ")


@pytest.mark.parametrize("count", ["3", 1.5, True, -1, None, [1]])
def test_stats_rejects_a_carried_delivery_count_that_is_not_a_count(count):
    record = TraceRecord(100, "harness", "event", {"type": "run-end", "repeated_deliveries": count})
    with pytest.raises(RecordError, match="wrong type") as caught:
        compute_stats([record])
    assert format_record(record) in str(caught.value)


@pytest.mark.parametrize("attributes", [
    {"cells": {"a", "b"}}, {"cells": ["a", {"b"}]}, {"raw": b"x"}, {"at": object()},
    {(1, 2): "key"},
])
def test_format_record_rejects_a_value_json_cannot_encode(attributes):
    with pytest.raises(TypeError):
        format_record(TraceRecord(0, "trg", "event", attributes))


@pytest.mark.parametrize("line", ["5 trg event {}", "t=5 trg event", "t=x trg event {}",
                                  "t=5 trg event [1]", 't=5 trg event {"a":1} x',
                                  "t=5 trg event {}{}", 't=5 trg event "s"', "t=5 trg event 1",
                                  "t=5 trg event ",
                                  # a time is only the text str() gives a non-negative int
                                  "t=5_000 trg event {}", "t=+7 trg event {}",
                                  "t=\u0665 trg event {}", "t=05 trg event {}",
                                  "t=-5 trg event {}", "t= trg event {}"])
def test_parse_record_rejects_malformed_lines(line):
    with pytest.raises(TraceError):
        parse_record(line)


@st.composite
def _attribute_texts(draw):
    """An attribute text json.loads may or may not read as one object."""
    blank = st.text(alphabet=" \t\n\r\x0b\x0c\xa0\ufeff", max_size=3)
    value = st.recursive(_json_leaves, lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(_strings, inner, max_size=3), max_leaves=6)
    body = draw(value.map(json.dumps) | st.text(max_size=12))
    tail = draw(st.sampled_from(("", "x", "{}", "1", ",", "}", '"')) | st.text(max_size=3))
    return draw(blank) + body + draw(blank) + tail


@given(text=_attribute_texts())
@example(text=' \t{"a": [1, NaN]}\r\n ')
@example(text='\ufeff{}')
@example(text='{} \x0b')
def test_parse_record_accepts_exactly_what_json_loads_reads_as_an_object(text):
    try:
        expected = json.loads(text)
    except ValueError:
        expected = None
    line = f"t=5 trg event {text}"
    if isinstance(expected, dict):
        # repr, not ==: it tells 1 from 1.0 and True, and NaN equals no NaN
        assert repr(parse_record(line)) == repr(TraceRecord(5, "trg", "event", expected))
    else:
        with pytest.raises(TraceError):
            parse_record(line)


_HEADS = ("t=5 trg event ", "t=7 gll event ", "t=x trg event ", "5 trg event ", "x=5 trg event ",
          "t=5 trg ", "t=5  event ", "t=+9 trg event ", "t=5 trg event", "t=5_000 trg event ",
          "t=+7 trg event ", "t=\u0665 trg event ", "t=05 trg event ")


@given(lines=st.lists(st.builds(str.__add__, st.sampled_from(_HEADS), st.sampled_from(
    ('{"type":"x"}', '{"a":1} ', '[1]', '{"a":1} x', '')) | _attribute_texts()), max_size=12))
@example(lines=["t=5 trg event {}", "t=x trg event {", "t=5 trg event {"])
@example(lines=["t=5 trg event {}", "", "  ", "t=5 trg event {} x"])
@example(lines=["t=5 trg event {}", "x=5 trg event {}"])
def test_read_trace_reads_and_refuses_what_parse_record_does_line_by_line(lines):
    expected, error = [], None
    for number, line in enumerate(lines, 1):
        line = line.strip(" \t\n\r")
        if not line:
            continue
        try:
            expected.append(parse_record(line))
        except TraceError as exc:
            error = f"trace:{number}: {exc}"
            break
    if error is None:
        # repr, not ==: it tells 1 from 1.0 and True, and NaN equals no NaN
        assert repr(list(read_trace(lines))) == repr(expected)
    else:
        with pytest.raises(TraceError) as caught:
            list(read_trace(lines))
        assert str(caught.value) == error


def test_trace_rejects_time_going_backwards():
    recorder = RunRecorder()
    recorder.record(10, "x", "event", {})
    with pytest.raises(TraceError) as caught:
        recorder.record(9, "x", "event", {})
    # the writer states the rule as the readers do
    assert str(caught.value) == "trace time went backwards after t=10: t=9 x event {}"


@BOTH
def test_stats_refuses_a_trace_whose_time_runs_backwards(tmp_path, capsys, command):
    lines = ['t=9 harness event {"type":"x"}', 't=5 harness event {"type":"run-end"}']
    with pytest.raises(RecordError, match="trace time went backwards after t=9: t=5 "):
        compute_stats(read_trace(lines))
    assert _refuse(tmp_path, capsys, command, lines) == (
        f"trace time went backwards after t=9: {lines[1]}\n")


@BOTH
def test_report_refuses_a_trace_point_before_its_request(tmp_path, capsys, command):
    line = 't=900 mobility trace-point {"handover":"h","point":1,"request_at":1000}'
    assert _refuse(tmp_path, capsys, command, [line]) == (
        f"trace point before its request at t=1000: {line}\n")


def _trace_point(at, point, request_at=1000):
    return (f't={at} mobility trace-point {{"flow":"f1","from":"a","handover":"h",'
            f'"point":{point},"request_at":{request_at},"to":"b"}}')


@BOTH
@pytest.mark.parametrize("points, bad, problem", [
    # a phase would read -1 ms: point 2 comes before point 1
    ([2, 1, 3, 4, 5], 0, "trace point 2 out of order after 0 of its handover's points"),
    ([1, 2, 2, 3, 4], 2, "trace point 2 out of order after 2 of its handover's points"),
    ([1, 2, 3, 4, 5, 6], 5, "trace point 6 out of order after 5 of its handover's points"),
], ids=["swapped", "repeated", "past-the-last"])
def test_report_refuses_a_trace_point_out_of_order(tmp_path, capsys, command, points, bad,
                                                   problem):
    lines = [_trace_point(1001 + n, point) for n, point in enumerate(points)]
    assert _refuse(tmp_path, capsys, command, lines, bad) == f"{problem}: {lines[bad]}\n"


@BOTH
def test_report_refuses_a_trace_point_whose_request_disagrees_with_its_first(
        tmp_path, capsys, command):
    lines = [_trace_point(1001, 1), _trace_point(1002, 2, request_at=990)]
    assert _refuse(tmp_path, capsys, command, lines) == (
        "trace point request at t=990 disagrees with t=1000 "
        f"on its handover's first point: {lines[1]}\n")


def test_read_trace_on_missing_file(tmp_path):
    with pytest.raises(TraceError):
        list(read_trace(tmp_path / "missing.txt"))


@pytest.mark.parametrize("command", ["stats", "report"])
def test_cli_names_a_trace_that_is_not_utf8(tmp_path, capsys, command):
    path = tmp_path / "trace.txt"
    path.write_bytes(b't=5 harness event {"type":"run-end"}\xff\n')
    assert cli_main([command, str(path)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith(f"error: cannot read trace {path}: ")


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


def _event(at, event_type, **payload):
    return TraceRecord(at, "trg", "event", {"type": event_type, **payload})


def _decision(at, flow, candidates):
    return TraceRecord(at, "mrrm", "decision", {"flow": flow, "candidates": candidates})


_GAP_TRACES = {
    "several records at one instant": [
        _event(0, "flow-arrival", flow="f1"),
        _decision(100, "f1", 1),
        _event(100, "link-up", cell="c1"),
        _event(100, "flow-mapped", flow="f1", cell="c1"),
        _event(200, "link-down", cell="c1"),
        _event(200, "link-up", cell="c1"),
        _event(300, "link-down", cell="c1"),
        _decision(300, "f1", 0),
        _decision(300, "f1", 2),
        _event(450, "run-end"),
    ],
    "re-arrival of a flow id": [
        _event(0, "flow-arrival", flow="f1", serving="c1"),
        _decision(0, "f1", 2),
        _event(400, "flow-arrival", flow="f1", serving="c1"),
        _decision(600, "f1", 1),
        _event(650, "flow-departure", flow="f1"),
        _event(700, "flow-arrival", flow="f1"),
        _decision(800, "f1", 1),
        _event(1000, "run-end"),
    ],
    "a link flap on a cell serving two flows": [
        _event(0, "link-up", cell="c1"),
        _event(0, "flow-arrival", flow="f1", serving="c1"),
        _event(0, "flow-arrival", flow="f2", serving="c1"),
        _decision(10, "f1", 1),
        _decision(20, "f2", 3),
        _event(100, "link-down", cell="c1"),
        _event(250, "link-up", cell="c1"),
        _event(400, "link-down", cell="c1"),
        _event(500, "flow-departure", flow="f2"),
        _event(700, "run-end"),
    ],
    "flow-mapped onto a cell whose link is down": [
        _event(0, "link-up", cell="c1"),
        _event(0, "flow-arrival", flow="f1"),
        _event(50, "link-down", cell="c1"),
        _decision(100, "f1", 3),
        _event(200, "flow-mapped", flow="f1", cell="c1"),
        _event(300, "link-up", cell="c1"),
        _event(300, "flow-mapped", flow="f1", cell="c2"),
        _event(400, "run-end"),
    ],
    "a decision with 0 candidates": [
        _event(0, "flow-arrival", flow="f1"),
        _decision(100, "f1", 0),
        _decision(200, "f1", 1),
        _decision(300, "f1", 0),
        _decision(350, "ghost", 1),
        _event(900, "flow-departure", flow="ghost"),
    ],
}


@pytest.mark.parametrize("records", _GAP_TRACES.values(), ids=_GAP_TRACES)
def test_service_gaps_equal_the_long_hand_walk(records):
    gaps = long_hand_service_gaps(records)
    assert gaps  # each trace holds a gap, so a walk that counts none fails
    assert compute_stats(records).service_gap_ms == gaps


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


def _moves(result):
    """Attach and handover decisions of a run, in trace order."""
    records = [parse_record(line) for line in result.trace_lines]
    return [r.attributes for r in records
            if r.kind == "decision" and r.attributes["action"] in ("attach", "handover")]


def test_two_operators_deny_keeps_flows_off_the_denied_operator():
    result = run_shipped("two_operators_deny")
    events = [r.attributes for r in map(parse_record, result.trace_lines) if r.kind == "event"]
    requests = [e["operator"] for e in events if e["type"] == "policies-check-request"]
    assert sorted(requests) == ["OpA", "OpB"]
    answers = {e["operator"]: e["verdict"] for e in events
               if e["type"] == "policies-check-answer"}
    assert answers["OpB"] == "deny"
    moves = _moves(result)
    assert moves and all(m["target"] != "opb_wlan" for m in moves)
    # Only the verdict keeps the flow off OpB: allowed, its cell scores higher.
    doc = json.loads((SCENARIO_DIR / "two_operators_deny.json").read_text(encoding="utf-8"))
    del doc["trg"]["policy_store"]["OpB"]
    assert _moves(execute_scenario(scenario_from_dict(doc)))[0]["target"] == "opb_wlan"


def test_policies_check_timeout_keeps_flows_off_the_unanswered_operator():
    run = build_run(load_scenario(SCENARIO_DIR / "policies_check_timeout.json"))
    result = execute_run(run)
    events = [r.attributes for r in map(parse_record, result.trace_lines) if r.kind == "event"]
    # the flow already holds OpA's cell, so only OpB is asked about, and no one answers
    assert [e["operator"] for e in events if e["type"] == "policies-check-request"] == ["OpB"]
    assert not [e for e in events if e["type"] == "policies-check-answer"]
    assert run.mrrm.operators["OpB"].verdict == "timeout"
    assert not _moves(result)
    assert run.env.flows["f1"].serving == "opa_wlan"
    assert result.stats.handovers_attempted == 0
    # Only the silence keeps the flow off OpB: answered, its cell scores higher.
    doc = json.loads((SCENARIO_DIR / "policies_check_timeout.json").read_text(encoding="utf-8"))
    doc["trg"]["respond_to_policies_check"] = True
    assert [m["target"] for m in _moves(execute_scenario(scenario_from_dict(doc)))] == [
        "opb_wlan"]


def test_dropped_flow_arrival_keeps_the_served_flows_cadence():
    # GLL reads flow classes from the environment, not from flow-arrival
    # events, so the real-time flow still sets a 100 ms reporting grid.
    doc = json.loads((SCENARIO_DIR / "table1_mn.json").read_text(encoding="utf-8"))
    doc["trg"] = {"drop_types": ["flow-arrival"]}
    result = execute_scenario(scenario_from_dict(doc))
    records = [parse_record(line) for line in result.trace_lines]
    batches = {r.at for r in records
               if r.kind == "event" and r.attributes.get("type") == "measurement-batch"}
    assert sorted(batches) == list(range(100, doc["duration_ms"] + 1, 100))


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


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_delivery_records_list_every_delivery(path):
    """Event records list their deliveries under ``consumers``, and carry
    those of the report records left out as repeats."""
    run = build_run(load_scenario(path))
    result = execute_run(run)
    records = list(read_trace(result.trace_lines))
    events = [r.attributes for r in records if r.kind == "event"]
    listed = sum(len(attrs.get("consumers", ())) for attrs in events)
    carried = sum(attrs.get("repeated_deliveries", 0) for attrs in events)
    assert carried > 0
    assert listed + carried == run.bus.delivered == result.stats.trigger_deliveries
    assert compute_stats(records).as_dict() == result.stats.as_dict()


def test_a_trace_of_every_report_replays_to_the_same_stats(monkeypatch):
    """A trace that writes every report and decision, as traces did before
    repeats were left out, carries no delivery counts and replays to the
    same stats."""
    scenario = load_scenario(SCENARIO_DIR / "table1_mn.json")
    result = execute_scenario(scenario)
    monkeypatch.setattr(runner_mod.RunRecorder, "_repeats", lambda self, key, held: False)
    full = list(read_trace(execute_scenario(scenario).trace_lines))
    assert len(thin_reports(thin_decisions(full))) == len(result.trace_lines) < len(full)
    assert not any("repeated_deliveries" in r.attributes for r in full)
    assert compute_stats(full).as_dict() == result.stats.as_dict()


# -- determinism -------------------------------------------------------------------


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_shipped_scenarios_are_deterministic(path):
    scenario = load_scenario(path)
    first = execute_scenario(scenario).trace_text
    second = execute_scenario(scenario).trace_text
    assert first == second


# -- a run shares its scenario's configuration ------------------------------------------


def test_src_makes_no_deep_copy():
    sources = sorted(Path(hetsel.__file__).parent.rglob("*.py"))
    assert len(sources) > 10
    for source in sources:
        assert "deepcopy" not in source.read_text(encoding="utf-8"), source


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_a_run_shares_its_scenario_configuration_and_leaves_it_as_it_was(path):
    scenario = load_scenario(path)
    snapshot = copy.deepcopy(scenario)
    run = build_run(scenario)
    assert run.gll.cfg is scenario.gll and run.mrrm.policies is scenario.policies
    assert run.mrrm.selection is scenario.selection
    assert run.mrrm.caps is scenario.capabilities
    first = execute_run(run).trace_text
    assert scenario == snapshot
    assert execute_scenario(scenario).trace_text == first


def _steered_run(scenario, target, event_type, payload):
    """A run whose subscriber sends one event down at its first measurement
    batch from 1 s on."""
    run = build_run(scenario)
    sent = []

    def steer(_event):
        if not sent and run.loop.now >= 1000:
            sent.append(run.loop.now)
            run.bus.send_downward(Event(event_type, "app", payload=payload), target=target)
    run.bus.subscribe(Subscription("app", (trg.MEASUREMENT_BATCH,)), steer)
    return run, sent


@pytest.mark.parametrize("target, event_type, payload, changed", (
    ("mrrm", trg.POLICY_CHANGED, {"action": "deny-operator", "operator": "OpB"},
     lambda run: "OpB" in run.mrrm.policies.denied_operators),
    ("mrrm", trg.POLICY_CHANGED, {"action": "allow-operator", "operator": "OpC"},
     lambda run: run.mrrm.policies.allowed_operators == {"OpA", "OpB", "OpC"}),
    ("mrrm", trg.POLICY_CHANGED, {"action": "set-preference", "operator": "OpA", "value": 0.2},
     lambda run: run.mrrm.policies.operator_preference == {"OpA": 0.2}),
    ("mrrm", trg.POLICY_CHANGED, {"action": "set-roaming", "value": False},
     lambda run: run.mrrm.policies.roaming_allowed is False),
    ("mrrm", trg.POLICIES_CHECK_ANSWER, {"operator": "OpC", "verdict": "deny", "preference": 0.9},
     lambda run: run.mrrm.policies.operator_preference == {"OpC": 0.9}
     and "OpC" in run.mrrm.policies.denied_operators),
    ("gll", trg.REPORTING_INTERVAL_CHANGE, {"service_class": "real-time", "interval_ms": 250},
     lambda run: run.gll.cfg.reporting.intervals_ms["real-time"] == 250),
    ("gll", trg.REPORTING_INTERVAL_CHANGE, {"enabled": False},
     lambda run: run.gll.cfg.reporting.enabled is False),
), ids=("deny-operator", "allow-operator", "set-preference", "set-roaming",
        "policies-check-answer", "reporting-interval", "reporting-switch"))
def test_a_runtime_change_leaves_the_scenario_as_it_was(target, event_type, payload, changed):
    scenario = load_scenario(SCENARIO_DIR / "table1_mr.json")
    scenario = replace(scenario, policies=replace(
        scenario.policies, allowed_operators={"OpA", "OpB"}, denied_operators={"OpC"}))
    snapshot = copy.deepcopy(scenario)
    traces = []
    for _ in range(2):
        run, sent = _steered_run(scenario, target, event_type, dict(payload))
        traces.append(execute_run(run).trace_text)
        assert sent and changed(run)
        assert scenario == snapshot
    assert traces[0] == traces[1]


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


def test_cli_stats_equals_written_stats_for_numeric_looking_flow_id(tmp_path, capsys):
    doc = json.loads((SCENARIO_DIR / "table1_mn.json").read_text(encoding="utf-8"))
    doc["mobility"]["make_before_break"] = False
    doc["flows"][0]["flow_id"] = "007"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["run", str(scenario), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli_main(["stats", str(out / "trace.txt")]) == 0
    replayed = json.loads(capsys.readouterr().out)
    written = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert list(written["service_gap_ms"]) == ["007"]
    assert replayed["service_gap_ms"] == written["service_gap_ms"]
    assert replayed == written


def test_cli_rejects_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cells": [{"cell_id": "c1"}]}), encoding="utf-8")
    code = cli_main(["run", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "cells[0]" in capsys.readouterr().err


def test_cli_names_a_scenario_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"cells": [], "seed": "\xff"}')
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


def _dangle(path):
    """A symlink into a missing directory, where opening it cannot create its target."""
    path.symlink_to(path.parent / "missing" / path.name)


@pytest.mark.parametrize("output, make, reason", [
    ("trace.txt", Path.mkdir, "Is a directory"),
    ("stats.json", Path.mkdir, "Is a directory"),
    ("trace.txt", _dangle, "No such file or directory"),
], ids=["trace.txt", "stats.json", "trace.txt-dangling-symlink"])
def test_cli_run_exits_2_and_names_an_output_it_cannot_write(tmp_path, capsys, monkeypatch,
                                                            output, make, reason):
    out = tmp_path / "out"
    out.mkdir()
    make(out / output)
    runs = []
    monkeypatch.setattr(runner_mod, "execute_scenario", runs.append)
    code = cli_main(["run", str(SCENARIO_DIR / "scan_targeted_hit.json"), "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    assert runs == []
    assert capsys.readouterr().err == f"error: {out / output}: cannot write: {reason}\n"


def test_cli_run_exits_2_without_running_when_out_cannot_be_created(tmp_path, capsys,
                                                                   monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    runs = []
    monkeypatch.setattr(runner_mod, "execute_scenario", runs.append)
    out = blocker / "sub"
    code = cli_main(["run", str(SCENARIO_DIR / "scan_targeted_hit.json"), "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    assert runs == []
    assert capsys.readouterr().err == f"error: {out}: cannot write: Not a directory\n"


def _write_refused_action_scenario(path):
    """A scenario that passes the loader, but whose timeline sets a base load
    that leaves no room for the demand already charged on the cell."""
    doc = {
        "duration_ms": 1000,
        "cells": [{"cell_id": "a", "rat": "WLAN", "operator_id": "OpA", "frequency": "ch6",
                   "total_resources": 100}],
        "flows": [{"flow_id": "f1", "service_class": "interactive", "min_rate": 0,
                   "max_delay_ms": 500, "max_loss": 1.0, "resource_demand": 10,
                   "serving": "a"}],
        "timeline": [{"at": 500, "kind": "set-cell-field", "target": "a",
                      "field": "used_resources", "value": 95}],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_scenario(path)


def test_cli_names_the_timeline_entry_whose_action_the_run_refuses(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    _write_refused_action_scenario(scenario)
    out = tmp_path / "out"
    out.mkdir()
    for output in ("trace.txt", "stats.json"):
        (out / output).write_text("an earlier run's output\n", encoding="utf-8")
    assert cli_main(["run", str(scenario), "--out", str(out)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: timeline[0]: a.used_resources: ")
    # as after a shell redirect, a failed run leaves its outputs empty
    assert [(out / output).read_text(encoding="utf-8")
            for output in ("trace.txt", "stats.json")] == ["", ""]


def test_cli_exits_3_with_a_traceback_when_a_run_raises_value_error(tmp_path, capsys,
                                                                   monkeypatch):
    def broken(self, *args, **kwargs):
        raise ValueError("defect inside a run")

    monkeypatch.setattr(GenericLinkLayer, "_tick", broken)
    code = cli_main(["run", str(SCENARIO_DIR / "table1_mn.json"), "--out", str(tmp_path)])
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("Traceback ") and "ValueError: defect inside a run" in err


def test_cli_bench_rejects_bad_counts(capsys):
    assert cli_main(["bench-trg", "--subscribers", "-1", "--events", "10"]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: --subscribers must be >= 0")


def test_cli_reports_empty_for_handover_free_trace(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["run", str(SCENARIO_DIR / "scan_targeted_hit.json"),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli_main(["report", str(out / "trace.txt")]) == 0
    assert json.loads(capsys.readouterr().out) == []


class _ClosedPipe:
    """A stdout whose reader has gone away, over the descriptor of ``sink``."""

    def __init__(self, sink):
        self.fileno = sink.fileno

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("command", ["stats", "report"])
def test_cli_exits_quietly_when_the_reader_closes_the_pipe(tmp_path, capsys, monkeypatch,
                                                           command):
    out = tmp_path / "out"
    assert cli_main(["run", str(SCENARIO_DIR / "table1_mn.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    with open(tmp_path / "stdout", "wb") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink))
        assert cli_main([command, str(out / "trace.txt")]) == EXIT_BROKEN_PIPE
        # what is still written to stdout now goes to devnull
        os.write(sink.fileno(), b"late output")
    assert capsys.readouterr().err == ""
    assert (tmp_path / "stdout").read_bytes() == b""


def test_cli_bench_outputs_summary(capsys):
    assert cli_main(["bench-trg", "--subscribers", "10", "--events", "200"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["events"] == 200
