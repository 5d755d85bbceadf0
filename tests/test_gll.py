"""Link abstraction: metric mapping, scans, attach lifecycle, reporting cadence."""

import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsel import trg
from hetsel.gll import (
    AccessHistory,
    GenericLinkLayer,
    GllConfig,
    LinkQualityReport,
    MacScheme,
    MappingConfig,
    NotAttachedError,
    ReportingConfig,
    map_link_quality,
    report_from_payload,
    report_to_payload,
    residual_error_rate,
    scan_results,
)
from hetsel.simenv.env import Environment, ScenarioAction
from hetsel.simenv.loop import EventLoop

from conftest import make_cell, make_flow, make_measurement
from oracles import monte_carlo_residual

# -- residual error ------------------------------------------------------------


def test_residual_zero_loss_stays_zero():
    assert residual_error_rate(0.0, 2) == 0.0


def test_residual_identity_without_retransmissions():
    assert residual_error_rate(0.1, 0) == 0.1


def test_residual_closed_form():
    assert residual_error_rate(0.1, 2) == pytest.approx(0.001)


def test_residual_matches_monte_carlo_within_3_sigma():
    p, retransmissions, trials = 0.1, 2, 10**6
    expected = residual_error_rate(p, retransmissions)
    estimate = monte_carlo_residual(p, retransmissions, trials, random.Random(77))
    sigma = (expected * (1 - expected) / trials) ** 0.5
    assert abs(estimate - expected) <= 3 * sigma


# -- quality mapping ----------------------------------------------------------


def test_perfect_link_maps_to_one():
    m = make_measurement(residual_error_rate=0.0, achievable_rate=2e6,
                         delay_ms=0.0, load=0.0)
    assert map_link_quality(m, MappingConfig()).quality == 1.0


def test_uncovered_access_is_hard_zero():
    m = make_measurement(covered=False, achievable_rate=10e6)
    report = map_link_quality(m, MappingConfig())
    assert report.quality == 0.0


def test_zero_rate_is_hard_zero():
    m = make_measurement(achievable_rate=0.0)
    assert map_link_quality(m, MappingConfig()).quality == 0.0


def test_hand_evaluated_mapping_example():
    # equal weights, residual 0.01 of fer_max 0.1, rate 1e6 of ref 2e6,
    # delay 50 of 200, load 0.4 -> (0.9 + 0.5 + 0.75 + 0.6) / 4
    m = make_measurement(residual_error_rate=0.01, achievable_rate=1e6,
                         delay_ms=50.0, load=0.4)
    report = map_link_quality(m, MappingConfig())
    assert report.q_error == pytest.approx(0.9)
    assert report.q_rate == pytest.approx(0.5)
    assert report.q_delay == pytest.approx(0.75)
    assert report.q_load == pytest.approx(0.6)
    assert report.quality == pytest.approx(0.6875)


def test_per_class_reference_rate():
    cfg = MappingConfig(reference_rate={"default": 2e6, "real-time": 4e6})
    m = make_measurement(achievable_rate=2e6, delay_ms=0.0)
    assert map_link_quality(m, cfg, "real-time").q_rate == pytest.approx(0.5)
    assert map_link_quality(m, cfg, "background").q_rate == 1.0
    assert map_link_quality(m, cfg).q_rate == 1.0


# -- property tests ------------------------------------------------------------------

_measurements = st.builds(
    make_measurement,
    residual_error_rate=st.floats(0, 1),
    achievable_rate=st.floats(0, 1e9),
    delay_ms=st.floats(0, 10_000),
    load=st.floats(0, 1),
    covered=st.booleans(),
)


def _normalized_mapping(draw_weights):
    total = sum(draw_weights) or 1.0
    w = [x / total for x in draw_weights]
    # absorb float dust into the largest weight so the sum is exact enough
    w[w.index(max(w))] += 1.0 - sum(w)
    return MappingConfig(w_error=w[0], w_rate=w[1], w_delay=w[2], w_load=w[3])


_mappings = st.builds(
    _normalized_mapping,
    st.tuples(st.floats(0.01, 1), st.floats(0.01, 1),
              st.floats(0.01, 1), st.floats(0.01, 1)),
)


@given(m=_measurements, cfg=_mappings)
@settings(max_examples=300)
def test_all_metrics_stay_in_unit_range(m, cfg):
    report = map_link_quality(m, cfg)
    for value in (report.q_error, report.q_rate, report.q_delay, report.q_load,
                  report.quality):
        assert 0.0 <= value <= 1.0 + 1e-12


@given(m=_measurements, cfg=_mappings, bump=st.floats(0.001, 1))
@settings(max_examples=200)
def test_quality_monotone_in_each_field(m, cfg, bump):
    base = map_link_quality(m, cfg).quality

    worse_load = make_measurement(load=min(1.0, m.load + bump),
                                  residual_error_rate=m.residual_error_rate,
                                  achievable_rate=m.achievable_rate,
                                  delay_ms=m.delay_ms, covered=m.covered)
    assert map_link_quality(worse_load, cfg).quality <= base + 1e-12

    worse_delay = make_measurement(delay_ms=m.delay_ms + bump * 1000,
                                   residual_error_rate=m.residual_error_rate,
                                   achievable_rate=m.achievable_rate,
                                   load=m.load, covered=m.covered)
    assert map_link_quality(worse_delay, cfg).quality <= base + 1e-12

    worse_error = make_measurement(residual_error_rate=min(1.0, m.residual_error_rate + bump),
                                   achievable_rate=m.achievable_rate,
                                   delay_ms=m.delay_ms, load=m.load, covered=m.covered)
    assert map_link_quality(worse_error, cfg).quality <= base + 1e-12

    better_rate = make_measurement(achievable_rate=m.achievable_rate * (1 + bump) + 1,
                                   residual_error_rate=m.residual_error_rate,
                                   delay_ms=m.delay_ms, load=m.load, covered=m.covered)
    assert map_link_quality(better_rate, cfg).quality >= base - 1e-12


@given(p=st.floats(0, 1), r=st.integers(0, 16))
def test_residual_never_exceeds_raw(p, r):
    assert residual_error_rate(p, r) <= p + 1e-15


@given(data=st.data())
@settings(max_examples=150)
def test_targeted_scan_subset_of_full_scan(data):
    rng_cells = data.draw(st.lists(
        st.tuples(st.sampled_from(("WLAN", "UMTS", "GSM")),
                  st.sampled_from(("ch1", "ch6", "ch11")),
                  st.booleans()),
        min_size=0, max_size=8))
    cells = {}
    for i, (rat, freq, covered) in enumerate(rng_cells):
        cell = make_cell(cell_id=f"c{i}", rat=rat, frequency=freq, covered=covered)
        cells[cell.cell_id] = cell
    history = AccessHistory(data.draw(st.lists(
        st.tuples(st.sampled_from(("WLAN", "UMTS", "GSM")),
                  st.sampled_from(("ch1", "ch6", "ch11"))),
        min_size=0, max_size=5)))
    targeted = set(scan_results("targeted", history, cells))
    full = set(scan_results("full", history, cells))
    assert targeted <= full


_CLASSES = ("real-time", "interactive", "background")


@given(
    m=st.builds(
        make_measurement,
        cell_id=st.text(min_size=1, max_size=8),
        residual_error_rate=st.floats(0, 1),
        achievable_rate=st.one_of(st.just(0.0), st.floats(0, 1e9)),
        delay_ms=st.floats(0, 10_000),
        load=st.floats(0, 1),
        covered=st.booleans(),
    ),
    reference_rate=st.one_of(
        st.floats(1, 1e9),
        st.dictionaries(st.sampled_from(("default",) + _CLASSES), st.floats(1, 1e9),
                        min_size=1)),
    service_class=st.sampled_from((None,) + _CLASSES),
)
@settings(max_examples=200)
def test_report_payload_roundtrip(m, reference_rate, service_class):
    report = map_link_quality(m, MappingConfig(reference_rate=reference_rate), service_class)
    payload = report_to_payload(report)
    assert report_from_payload(payload) == report
    # the payload names its access by cell id alone
    assert payload["cell"] == m.cell_id
    assert not {"rat", "operator", "frequency"} & payload.keys()
    # one form: the report's fields are the payload's keys, in order
    assert list(payload) == list(LinkQualityReport._fields)


def test_report_from_payload_rejects_a_missing_key():
    payload = report_to_payload(map_link_quality(make_measurement(), MappingConfig()))
    for key in list(payload):
        partial = {k: v for k, v in payload.items() if k != key}
        with pytest.raises(TypeError):
            report_from_payload(partial)


def test_report_from_payload_rejects_an_unknown_key():
    payload = report_to_payload(map_link_quality(make_measurement(), MappingConfig()))
    with pytest.raises(TypeError):
        report_from_payload({**payload, "rat": "WLAN"})


@pytest.mark.parametrize("value", [make_measurement(),
                                   map_link_quality(make_measurement(), MappingConfig())],
                         ids=lambda v: type(v).__name__)
def test_measurements_and_reports_are_read_only(value):
    for name in type(value)._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


# -- scan behaviour over the environment -----------------------------------------


def test_full_scan_filters_and_sorts():
    cells = {}
    for spec in (("b", "WLAN", "OpB"), ("a", "WLAN", "OpA"),
                 ("d", "GSM", "OpA"), ("c", "UMTS", "OpA")):
        cell = make_cell(cell_id=spec[0], rat=spec[1], operator_id=spec[2])
        cells[cell.cell_id] = cell
    cells["x"] = make_cell(cell_id="x", covered=False)
    found = scan_results("full", AccessHistory(), cells)
    # covered only, ordered by (rat, operator, cell)
    assert found == ["d", "c", "a", "b"]


def test_targeted_scan_probes_history_in_order():
    cells = {
        "w6": make_cell(cell_id="w6", rat="WLAN", frequency="ch6"),
        "u1": make_cell(cell_id="u1", rat="UMTS", frequency="f2100"),
        "w11": make_cell(cell_id="w11", rat="WLAN", frequency="ch11", covered=False),
    }
    history = AccessHistory([("UMTS", "f2100"), ("WLAN", "ch6"), ("WLAN", "ch11")])
    found = scan_results("targeted", history, cells)
    assert found == ["u1", "w6"]


def test_empty_history_targeted_scan_is_empty():
    cells = {"w6": make_cell(cell_id="w6")}
    assert scan_results("targeted", AccessHistory(), cells) == []


def test_access_history_dedupes_and_bounds():
    history = AccessHistory(max_len=3)
    for freq in ("ch1", "ch2", "ch3", "ch2", "ch4"):
        history.remember("WLAN", freq)
    assert history.pairs() == [("WLAN", "ch4"), ("WLAN", "ch2"), ("WLAN", "ch3")]


# -- attach / detach / cadence on a live loop ---------------------------------------


def live_gll(cells, cfg=None):
    loop = EventLoop()
    bus = trg.TriggerBus(clock=lambda: loop.now)
    env = Environment(loop, cells, emit=lambda t, p: bus.publish(trg.Event(t, "env", payload=p)))
    gll = GenericLinkLayer(loop, env, bus, cfg=cfg or GllConfig())
    events = []
    bus.subscribe(trg.Subscription("probe", ("*",)), events.append)
    return loop, bus, env, gll, events


def test_attach_completes_after_latency():
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    gll.attach(cell.cell_id)
    loop.run_until(49)
    assert not gll.is_attached("wlan1")
    loop.run_until(50)
    assert gll.is_attached("wlan1")
    ups = [e for e in events if e.event_type == trg.LINK_UP]
    assert len(ups) == 1 and ups[0].at == 50


def test_attach_fails_when_coverage_lost_in_window():
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    gll.attach(cell.cell_id)
    loop.schedule(20, lambda: setattr(cell, "covered", False))
    loop.run_until(100)
    assert not gll.is_attached("wlan1")
    kinds = [e.event_type for e in events]
    assert trg.ATTACH_FAILED in kinds and trg.LINK_UP not in kinds


def test_attach_is_idempotent():
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    gll.attach(cell.cell_id)
    loop.run_until(50)
    gll.attach(cell.cell_id)
    loop.run_until(200)
    assert len([e for e in events if e.event_type == trg.LINK_UP]) == 1


def test_detach_requested_and_not_attached_error():
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    gll.attach(cell.cell_id)
    loop.run_until(50)
    gll.detach(cell.cell_id)
    downs = [e for e in events if e.event_type == trg.LINK_DOWN]
    assert downs[0].payload["reason"] == "requested"
    with pytest.raises(NotAttachedError):
        gll.detach(cell.cell_id)


def test_unsolicited_loss_emits_link_down_lost():
    cell = make_cell("lan1", rat="LAN", frequency="eth0")
    loop, bus, env, gll, events = live_gll([cell])
    gll.force_attach("lan1")
    from hetsel.simenv.env import ScenarioAction
    env.apply_action(ScenarioAction(0, "link-down-cable", "lan1"))
    downs = [e for e in events if e.event_type == trg.LINK_DOWN]
    assert downs[0].payload["reason"] == "lost"
    assert not gll.is_attached("lan1")


def _batch_times(events):
    return [e.at for e in events if e.event_type == trg.MEASUREMENT_BATCH]


def test_real_time_flow_reports_every_100_ms():
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    env.admit_flow(make_flow(service_class="real-time"))
    gll.start()
    loop.run_until(2000)
    times = _batch_times(events)
    assert times[0] == 100
    assert all(b - a == 100 for a, b in zip(times, times[1:]))


def test_background_flow_reports_every_500_ms():
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    env.admit_flow(make_flow(service_class="background"))
    gll.start()
    loop.run_until(5000)
    times = _batch_times(events)
    assert times[0] == 500
    assert all(b - a == 500 for a, b in zip(times, times[1:]))


def test_reporting_disabled_suppresses_periodic_reports():
    cell = make_cell("wlan1")
    cfg = GllConfig(reporting=ReportingConfig(enabled=False))
    loop, bus, env, gll, events = live_gll([cell], cfg)
    gll.start()
    gll.request_scan("full")
    loop.run_until(3000)
    assert _batch_times(events) == []
    scans = [e for e in events if e.event_type == trg.SCAN_COMPLETE]
    assert len(scans) == 1 and scans[0].payload["count"] == 1


@pytest.mark.parametrize("probe_energy, targeted, full", [
    ({}, 2.0, 3.0),
    # each WLAN probe costs 0.25; the UMTS probe, unlisted, still costs 1.0
    ({"WLAN": 0.25}, 1.25, 1.5),
])
def test_probe_energy_prices_each_probe_of_a_scan(probe_energy, targeted, full):
    cells = [make_cell("w1"), make_cell("w2", frequency="ch11"),
             make_cell("u1", rat="UMTS", frequency="f1")]
    cfg = GllConfig(probe_energy=probe_energy, history=[("WLAN", "ch6"), ("UMTS", "f1")])
    loop, bus, env, gll, events = live_gll(cells, cfg)
    gll.request_scan("targeted")
    loop.run_until(1000)
    gll.request_scan("full")
    loop.run_until(2000)
    scans = [e.payload for e in events if e.event_type == trg.SCAN_COMPLETE]
    assert [(s["mode"], s["energy"]) for s in scans] == [("targeted", targeted), ("full", full)]


def test_interval_change_takes_effect_at_next_tick():
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    env.admit_flow(make_flow(service_class="real-time"))
    gll.start()
    loop.run_until(350)
    bus.send_downward(trg.Event(trg.REPORTING_INTERVAL_CHANGE, "app", payload={
        "service_class": "real-time", "interval_ms": 50}), target="gll")
    loop.run_until(1000)
    times = _batch_times(events)
    # 100 ms grid up to and including the tick after the change, then 50 ms
    assert times[:4] == [100, 200, 300, 400]
    tail = [b - a for a, b in zip(times[4:], times[5:])]
    assert all(d == 50 for d in tail)


def _switch_reporting(bus, enabled):
    bus.send_downward(trg.Event(trg.REPORTING_INTERVAL_CHANGE, "app", payload={
        "enabled": enabled}), target="gll")


def test_reporting_switched_off_sends_no_batch_until_switched_on():
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    env.admit_flow(make_flow(service_class="real-time"))
    gll.start()
    loop.run_until(250)
    _switch_reporting(bus, False)
    loop.run_until(1050)  # the tick already due at 300 sends nothing
    assert _batch_times(events) == [100, 200]
    _switch_reporting(bus, True)  # one interval from now, 100 ms apart
    loop.run_until(1350)
    assert _batch_times(events) == [100, 200, 1150, 1250, 1350]


def test_configure_reporting_restarts_switched_off_reporting():
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    env.admit_flow(make_flow(service_class="real-time"))
    gll.start()
    loop.run_until(150)
    _switch_reporting(bus, False)
    loop.run_until(1000)
    gll.configure_reporting(ReportingConfig(intervals_ms={"real-time": 200}))
    loop.run_until(1600)
    assert _batch_times(events) == [100, 1200, 1400, 1600]


def test_a_reporting_switch_that_is_not_a_boolean_is_ignored(caplog):
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    gll.start()
    with caplog.at_level(logging.WARNING, logger="hetsel.gll"):
        _switch_reporting(bus, "false")
    assert gll.cfg.reporting.enabled is True
    assert any("non-boolean" in message for message in caplog.messages)
    loop.run_until(1000)
    assert _batch_times(events) == [500, 1000]


@pytest.mark.parametrize("interval", (0, -5, 0.5, 100.0, "100", True))
def test_a_reporting_interval_that_is_not_a_positive_integer_is_ignored(interval, caplog):
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    env.admit_flow(make_flow(service_class="real-time"))
    gll.start()
    loop.run_until(150)
    # a zero interval once stored would tick forever at one instant
    bus.subscribe(trg.Subscription("guard", (trg.MEASUREMENT_BATCH,)),
                  lambda e: len(_batch_times(events)) < 50 or pytest.fail("runaway ticks"))
    with caplog.at_level(logging.WARNING, logger="hetsel.gll"):
        bus.send_downward(trg.Event(trg.REPORTING_INTERVAL_CHANGE, "app", payload={
            "service_class": "real-time", "interval_ms": interval}), target="gll")
    assert any("not a positive integer" in message for message in caplog.messages)
    loop.run_until(450)
    assert _batch_times(events) == [100, 200, 300, 400]


def test_mac_scheme_applies_per_rat():
    cell = make_cell("wlan1", raw_error_rate=0.1)
    cfg = GllConfig(mac=MacScheme(max_retransmissions={"WLAN": 2}))
    loop, bus, env, gll, events = live_gll([cell], cfg)
    m = gll.measure(cell)
    assert m.residual_error_rate == pytest.approx(0.001)


def test_configure_reporting_swaps_table_at_next_tick():
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    gll.start()
    loop.run_until(1000)  # two ticks at the 500 ms no-flow default
    gll.configure_reporting(ReportingConfig(intervals_ms={"real-time": 100},
                                            enabled=True))
    loop.run_until(2000)
    times = _batch_times(events)
    assert times[:2] == [500, 1000]
    # already-scheduled tick at 1500 fires, then the new table applies;
    # with no active flows the fallback interval still rules
    assert all(b - a == 500 for a, b in zip(times, times[1:]))


def test_configure_reporting_rejects_bad_interval():
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    with pytest.raises(ValueError):
        gll.configure_reporting(ReportingConfig(intervals_ms={"real-time": 0}))


@pytest.mark.parametrize("reporting", (
    ReportingConfig(intervals_ms={"real-time": 0.5}),
    ReportingConfig(intervals_ms={"real-time": True}),
    ReportingConfig(intervals_ms={"real-time": 100.0}),
    ReportingConfig(intervals_ms={"real_time": 50}),
    ReportingConfig(enabled="false"),
    ReportingConfig(enabled=1),
), ids=repr)
def test_configure_reporting_refuses_a_bad_table_and_changes_nothing(reporting):
    # a 0.5 ms interval once took ticks to t=200.5, a time no trace reader accepts
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    env.admit_flow(make_flow(service_class="real-time"))
    gll.start()
    loop.run_until(150)
    cfg = gll.cfg
    with pytest.raises(ValueError):
        gll.configure_reporting(reporting)
    assert gll.cfg is cfg and cfg.reporting == ReportingConfig()
    loop.run_until(450)
    assert _batch_times(events) == [100, 200, 300, 400]


@pytest.mark.parametrize("payload", (
    {"enabled": False, "service_class": "real-time", "interval_ms": 0},
    {"enabled": "false", "service_class": "real-time", "interval_ms": 50},
    {"enabled": False, "service_class": "real_time", "interval_ms": 50},
    # a class that cannot key the table once raised TypeError out of the publish
    {"service_class": ["real-time"], "interval_ms": 50},
    {"service_class": {"c": 1}, "interval_ms": 50},
), ids=repr)
def test_a_reporting_change_is_applied_whole_or_not_at_all(payload, caplog):
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    env.admit_flow(make_flow(service_class="real-time"))
    gll.start()
    loop.run_until(150)
    with caplog.at_level(logging.WARNING, logger="hetsel.gll"):
        bus.send_downward(trg.Event(trg.REPORTING_INTERVAL_CHANGE, "app", payload=payload),
                          target="gll")
    assert any("ignoring reporting change" in message for message in caplog.messages)
    assert gll.cfg.reporting == ReportingConfig()
    loop.run_until(450)
    assert _batch_times(events) == [100, 200, 300, 400]


def test_a_reporting_change_swaps_in_a_new_table_and_leaves_the_old_one():
    cell = make_cell("wlan1")
    cfg = GllConfig()
    loop, bus, env, gll, events = live_gll([cell], cfg)
    env.admit_flow(make_flow(service_class="real-time"))
    gll.start()
    bus.send_downward(trg.Event(trg.REPORTING_INTERVAL_CHANGE, "app", payload={
        "enabled": True, "service_class": "real-time", "interval_ms": 50}), target="gll")
    assert gll.cfg.reporting.intervals_ms["real-time"] == 50
    assert cfg == GllConfig()


# -- reused report payloads ------------------------------------------------------


def _report_payloads(events):
    return [e.payload for e in events if e.event_type == trg.LINK_QUALITY_REPORT]


def _fresh_payload(gll, cell, service_class):
    return report_to_payload(map_link_quality(gll.measure(cell), gll.cfg.mapping, service_class))


def test_an_unchanged_cell_republishes_its_payload():
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    gll.start()
    loop.run_until(1500)
    first, *rest = _report_payloads(events)
    assert len(rest) == 2 and all(payload is first for payload in rest)
    assert first == _fresh_payload(gll, cell, None)


def test_a_new_demanding_class_maps_the_report_again():
    # only the class changes: a real-time flow reads a higher reference rate
    cell = make_cell("wlan1", achievable_rate=5e6)
    mapping = MappingConfig(reference_rate={"default": 2e6, "real-time": 1e7})
    loop, bus, env, gll, events = live_gll([cell], GllConfig(mapping=mapping))
    env.admit_flow(make_flow("f1", service_class="background"))
    gll.start()
    loop.run_until(500)
    env.admit_flow(make_flow("f2", service_class="real-time"))
    loop.run_until(1000)
    before, after = _report_payloads(events)
    assert before["q_rate"] == 1.0 and after["q_rate"] == 0.5
    assert after == _fresh_payload(gll, cell, "real-time")


def _slow_real_time_by_trigger(bus, gll):
    bus.send_downward(trg.Event(trg.REPORTING_INTERVAL_CHANGE, "app", payload={
        "service_class": "real-time", "interval_ms": 1000}), target="gll")


def _slow_real_time_by_table(bus, gll):
    gll.configure_reporting(ReportingConfig(intervals_ms={"real-time": 1000, "background": 500}))


@pytest.mark.parametrize("slow_real_time", (_slow_real_time_by_trigger, _slow_real_time_by_table))
def test_a_reporting_interval_change_flips_the_demanding_class(slow_real_time):
    # no flow arrives or leaves, so the world's generation stays put
    cell = make_cell("wlan1", achievable_rate=5e6)
    mapping = MappingConfig(reference_rate={"default": 2e6, "real-time": 1e7})
    loop, bus, env, gll, events = live_gll([cell], GllConfig(mapping=mapping))
    env.admit_flow(make_flow("f1", service_class="background"))
    env.admit_flow(make_flow("f2", service_class="real-time"))
    gll.start()
    loop.run_until(150)
    assert gll.demanding_class() == "real-time"
    generation = env.generation
    slow_real_time(bus, gll)
    assert env.generation == generation and gll.demanding_class() == "background"
    loop.run_until(700)
    batches = [e for e in events if e.event_type == trg.MEASUREMENT_BATCH]
    assert [(e.at, e.payload["interval_ms"]) for e in batches] == [(100, 100), (200, 500),
                                                                    (700, 500)]
    assert [p["q_rate"] for p in _report_payloads(events)] == [0.5, 1.0, 1.0]
    assert _report_payloads(events)[-1] == _fresh_payload(gll, cell, "background")


@pytest.mark.parametrize("params", (
    {"field": "achievable_rate", "value": 1e6},
    {"field": "used_resources", "value": 40},
))
def test_a_set_cell_field_maps_the_report_again(params):
    cell = make_cell("wlan1")
    loop, bus, env, gll, events = live_gll([cell])
    gll.start()
    loop.run_until(500)
    env.apply_action(ScenarioAction(600, "set-cell-field", "wlan1", params))
    loop.run_until(1500)
    first, changed, repeated = _report_payloads(events)
    assert changed != first and changed == _fresh_payload(gll, cell, None)
    assert repeated is changed


def test_a_quality_ramp_step_maps_the_report_again():
    cell = make_cell("wlan1", raw_error_rate=0.0)
    loop, bus, env, gll, events = live_gll([cell])
    gll.start()
    loop.run_until(600)
    # steps at 1100 and 1600, between the ticks every 500 ms
    env.apply_action(ScenarioAction(600, "quality-ramp", "wlan1", {
        "field": "raw_error_rate", "end": 0.1, "duration_ms": 1000, "step_ms": 500}))
    loop.run_until(2500)
    payloads = _report_payloads(events)
    assert [payload["residual_error_rate"] for payload in payloads] == [0.0, 0.0, 0.05, 0.1, 0.1]
    assert payloads[1] is payloads[0] and payloads[4] is payloads[3]
    assert payloads[-1] == _fresh_payload(gll, cell, None)
