"""Trigger bus: filtering, delivery order, correlation, UCI registry."""

import random

import pytest

from hetsel import trg
from hetsel.trg import (
    CorrelationRule,
    Event,
    PoliciesCheckResponder,
    PolicyRecord,
    Subscription,
    SubscriptionError,
    TriggerBus,
    UciConflictError,
    UciNotFoundError,
    UciRecord,
    UnknownHandleError,
)

from oracles import LinearScanCorrelation, LinearScanDelivery, correlation_fires


class Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def collector():
    received = []
    return received, received.append


def test_prefix_pattern_matches():
    bus = TriggerBus()
    received, cb = collector()
    bus.subscribe(Subscription("c1", ("link-*",)), cb)
    assert bus.publish(Event("link-down", "gll")) == 1
    assert received[0].event_type == "link-down"


def test_consumers_receive_the_published_event_itself():
    clock = Clock()
    clock.now = 250
    bus = TriggerBus(clock=clock)
    first, cb1 = collector()
    second, cb2 = collector()
    bus.subscribe(Subscription("c1", ("link-down",)), cb1)
    bus.subscribe(Subscription("c2", ("link-*",)), cb2)
    event = Event("link-down", "gll", payload={"cell": "a"})
    assert bus.publish(event) == 2
    assert first[0] is event and second[0] is event
    assert event.at == 250
    assert event.synthetic is False


def test_type_mismatch_not_delivered():
    bus = TriggerBus()
    received, cb = collector()
    bus.subscribe(Subscription("c1", ("handover-complete",)), cb)
    assert bus.publish(Event("link-down", "gll")) == 0
    assert received == []


def test_payload_predicate_comparators():
    bus = TriggerBus()
    received, cb = collector()
    bus.subscribe(Subscription("c1", ("candidate-report",),
                               payload_predicates=(("quality", "<", 0.2),)), cb)
    assert bus.publish(Event("candidate-report", "mrrm", payload={"quality": 0.15})) == 1
    assert bus.publish(Event("candidate-report", "mrrm", payload={"quality": 0.25})) == 0


def test_predicate_on_missing_attribute_is_false():
    bus = TriggerBus()
    received, cb = collector()
    bus.subscribe(Subscription("c1", ("x",), payload_predicates=(("v", "=", 1),)), cb)
    assert bus.publish(Event("x", "s")) == 0


def test_source_filter():
    bus = TriggerBus()
    received, cb = collector()
    bus.subscribe(Subscription("c1", ("x",), source_filter="gll"), cb)
    assert bus.publish(Event("x", "gll")) == 1
    assert bus.publish(Event("x", "mrrm")) == 0


def test_malformed_predicate_rejected():
    bus = TriggerBus()
    with pytest.raises(SubscriptionError):
        bus.subscribe(Subscription("c1", ("x",), payload_predicates=(("v", "~", 1),)),
                      lambda t: None)


def test_duplicate_subscription_is_idempotent():
    bus = TriggerBus()
    received, cb = collector()
    spec = Subscription("c1", ("x",))
    h1 = bus.subscribe(spec, cb)
    h2 = bus.subscribe(Subscription("c1", ("x",)), cb)
    assert h1 == h2
    assert bus.publish(Event("x", "s")) == 1


def test_unsubscribe_stops_delivery_and_isolates_others():
    bus = TriggerBus()
    got1, cb1 = collector()
    got2, cb2 = collector()
    h1 = bus.subscribe(Subscription("c1", ("x",)), cb1)
    bus.subscribe(Subscription("c2", ("x",)), cb2)
    bus.unsubscribe(h1)
    assert bus.publish(Event("x", "s")) == 1
    assert got1 == [] and len(got2) == 1
    with pytest.raises(UnknownHandleError):
        bus.unsubscribe(h1)


def test_delivery_order_is_subscription_creation_order():
    bus = TriggerBus()
    order = []
    for i in range(100):
        bus.subscribe(Subscription(f"c{i}", ("x",)),
                      lambda t, i=i: order.append(i))
    assert bus.publish(Event("x", "s")) == 100
    assert order == list(range(100))


def recording_bus(**options):
    """A bus whose recorder notes each publish's event and consumer ids."""
    records = []
    bus = TriggerBus(recorder=lambda event, consumers: records.append(
        ("event", event, list(consumers))), **options)
    return bus, records


def test_the_recorder_sees_each_publish_once_before_its_consumers_run():
    bus, records = recording_bus()

    def consumer(name):
        return lambda t: records.append(("ran", name))

    # created c2, c1, c3; c3's predicate fails
    bus.subscribe(Subscription("c2", ("x",)), consumer("c2"))
    bus.subscribe(Subscription("c1", ("x",)), consumer("c1"))
    bus.subscribe(Subscription("c3", ("x",), payload_predicates=(("v", "=", 1),)),
                  consumer("c3"))
    event = Event("x", "s", payload={"v": 0})
    assert bus.publish(event) == 2
    assert records == [("event", event, ["c2", "c1"]), ("ran", "c2"), ("ran", "c1")]


def test_a_publish_that_reaches_no_one_is_recorded_with_no_consumers():
    bus, records = recording_bus()
    bus.subscribe(Subscription("c1", ("y",)), lambda t: None)
    event = Event("x", "s")
    assert bus.publish(event) == 0
    assert records == [("event", event, [])]
    assert (bus.published, bus.delivered) == (1, 0)


def test_dropped_and_too_deep_publishes_are_not_recorded():
    bus, records = recording_bus(drop_types=("noise",))
    # each delivery of "deep" publishes another one inside it
    bus.subscribe(Subscription("c1", ("noise", "deep")), lambda t: bus.publish(Event("deep", "s")))
    bus.publish(Event("noise", "s"))
    bus.publish(Event("deep", "s"))
    assert [event.event_type for _, event, _ in records] == ["deep"] * 16  # not the 17th
    assert bus.published == 16


def test_a_recorder_that_raises_stops_the_publish_uncounted():
    def refuse(event, consumers):
        raise ValueError("refused")

    bus = TriggerBus(recorder=refuse)
    received, cb = collector()
    bus.subscribe(Subscription("c1", ("x",)), cb)
    with pytest.raises(ValueError, match="refused"):
        bus.publish(Event("x", "s"))
    assert received == [] and (bus.published, bus.delivered) == (0, 0)


def test_consumers_are_chosen_before_a_nested_publish_at_the_same_instant():
    bus, records = recording_bus()
    bus.subscribe(Subscription("outer", ("x",)), lambda t: bus.publish(Event("y", "outer")))
    bus.subscribe(Subscription("inner", ("y",)), lambda t: None)
    # a later subscriber to x: chosen for x before outer's nested publish of y
    # runs, so x reaches it and that delivery rate-limits it for y
    bus.subscribe(Subscription("both", ("x", "y"), min_interval_ms=100), lambda t: None)
    assert bus.publish(Event("x", "s")) == 2
    assert [(event.event_type, consumers) for _, event, consumers in records] == [
        ("x", ["outer", "both"]),
        ("y", ["inner"]),
    ]
    assert bus.delivered == 3


def test_rate_limit_skips_events_inside_interval():
    clock = Clock()
    bus = TriggerBus(clock=clock)
    received, cb = collector()
    bus.subscribe(Subscription("c1", ("x",), min_interval_ms=500), cb)
    clock.now = 0
    assert bus.publish(Event("x", "s")) == 1
    clock.now = 100
    assert bus.publish(Event("x", "s")) == 0
    clock.now = 500
    assert bus.publish(Event("x", "s")) == 1  # boundary inclusive


def test_drop_rules_apply_before_subscriptions():
    bus = TriggerBus(drop_types=("noise-*",))
    received, cb = collector()
    bus.subscribe(Subscription("c1", ("noise-a",)), cb)
    assert bus.publish(Event("noise-a", "s")) == 0
    assert received == []


def test_exact_types_and_prefixes_mix_in_one_filter():
    bus = TriggerBus(drop_types=("noise", "debug-*"))
    received, cb = collector()
    bus.subscribe(Subscription("c1", ("handover-complete", "link-*", "noise")), cb)
    for event_type in ("link-up", "handover-complete", "handover-failed", "noise",
                       "noise-a", "debug-x", "link-down"):
        bus.publish(Event(event_type, "s"))
    assert [e.event_type for e in received] == ["link-up", "handover-complete", "link-down"]


def test_deliveries_match_a_linear_scan_across_subscription_changes():
    # Overlapping patterns, one subscription accepting a type twice, and
    # subscriptions that come and go between publishes.
    patterns = (("link-up",), ("link-*",), ("link-up", "link-*"), ("link-down", "handover-*"),
                ("*",), ("flow-arrival", "link-up"), ("handover-complete",), ("link-quality-*", "x"))
    types = ("link-up", "link-down", "link-quality-report", "handover-complete",
             "handover-failed", "flow-arrival", "x", "y")
    # every comparator spelling, and predicates whose values do not compare
    # (a str against a number): those are false
    predicates = ((), (("cell", "=", "c1"),), (("rate", ">=", 5),), (("cell", "≠", "c1"),),
                  (("rate", "≤", 5.0), ("cell", "!=", "c2")), (("rate", "<", 4),),
                  (("rate", ">", 3.0),), (("rate", "≥", 3),), (("cell", "<=", "c1"),),
                  (("cell", ">", 2.5),), (("rate", "=", 3.0), ("rate", "<=", "3")))
    payloads = ({}, {"cell": "c1"}, {"cell": "c2", "rate": 7}, {"rate": "high"}, {"rate": 3},
                {"cell": "c1", "rate": 5.0}, {"cell": "c0", "rate": 3.0})
    rng = random.Random(1234)
    for trial in range(200):
        pool = [Subscription(f"s{i}", rng.choice(patterns),
                             source_filter=rng.choice((None, None, "gll", "mrrm")),
                             payload_predicates=rng.choice(predicates),
                             min_interval_ms=rng.choice((None, None, 100)))
                for i in range(8)]
        clock = Clock()
        recorded = []
        bus = TriggerBus(clock=clock, recorder=lambda event, consumers: recorded.append(
            consumers))
        oracle = LinearScanDelivery()
        handles = {}
        got = []
        for _ in range(40):
            op = rng.random()
            if op < 0.3:
                spec = rng.choice(pool)
                handles[spec] = bus.subscribe(spec, lambda t, c=spec.consumer_id: got.append(c))
                oracle.subscribe(spec)
            elif op < 0.45 and handles:
                spec = rng.choice(sorted(handles, key=lambda s: s.consumer_id))
                bus.unsubscribe(handles.pop(spec))
                oracle.unsubscribe(spec)
            else:
                clock.now += rng.choice((0, 50, 100))
                event_type = rng.choice(types)
                source = rng.choice(("gll", "mrrm"))
                payload = dict(rng.choice(payloads))
                got.clear()
                count = bus.publish(Event(event_type, source, payload=payload))
                expected = oracle.publish(event_type, source, payload, clock.now)
                assert got == expected, (trial, event_type, source, payload)
                assert recorded[-1] == expected
                assert count == len(expected)


# -- correlation ------------------------------------------------------------


def test_correlation_fires_within_window():
    clock = Clock()
    bus = TriggerBus(clock=clock)
    received, cb = collector()
    bus.subscribe(Subscription("c1", ("link-flap",)), cb)
    bus.define_correlation(CorrelationRule("r1", ("link-down", "link-up"), 1000, "link-flap"))
    clock.now = 0
    bus.publish(Event("link-down", "gll"))
    clock.now = 400
    bus.publish(Event("link-up", "gll"))
    assert len(received) == 1
    assert received[0].synthetic is True
    assert received[0].at == 400


def test_correlation_window_expiry():
    clock = Clock()
    bus = TriggerBus(clock=clock)
    received, cb = collector()
    bus.subscribe(Subscription("c1", ("link-flap",)), cb)
    bus.define_correlation(CorrelationRule("r1", ("link-down", "link-up"), 1000, "link-flap"))
    clock.now = 0
    bus.publish(Event("link-down", "gll"))
    clock.now = 1500
    bus.publish(Event("link-up", "gll"))
    assert received == []


def test_correlation_respects_order():
    clock = Clock()
    bus = TriggerBus(clock=clock)
    received, cb = collector()
    bus.subscribe(Subscription("c1", ("ab",)), cb)
    bus.define_correlation(CorrelationRule("r1", ("a", "b"), 1000, "ab"))
    for at, etype in ((0, "b"), (10, "a"), (20, "b")):
        clock.now = at
        bus.publish(Event(etype, "s"))
    assert [t.at for t in received] == [20]


def test_intervening_unrelated_events_allowed():
    clock = Clock()
    bus = TriggerBus(clock=clock)
    received, cb = collector()
    bus.subscribe(Subscription("c1", ("ab",)), cb)
    bus.define_correlation(CorrelationRule("r1", ("a", "b"), 1000, "ab"))
    for at, etype in ((0, "a"), (10, "zzz"), (20, "b")):
        clock.now = at
        bus.publish(Event(etype, "s"))
    assert len(received) == 1


def test_synthetic_flag_integrity():
    clock = Clock()
    bus = TriggerBus(clock=clock)
    everything, cb = collector()
    bus.subscribe(Subscription("c1", ("*",)), cb)
    bus.define_correlation(CorrelationRule("r1", ("a", "b"), 1000, "ab"))
    for at, etype in ((0, "a"), (10, "b")):
        clock.now = at
        bus.publish(Event(etype, "s"))
    by_type = {t.event_type: t.synthetic for t in everything}
    assert by_type == {"a": False, "b": False, "ab": True}


@pytest.mark.parametrize("rule", (
    CorrelationRule("r1", ("a",), 1000, "ab"),
    CorrelationRule("r1", ("a", "b"), 0, "ab"),
    CorrelationRule("", ("a", "b"), 1000, "ab"),
    CorrelationRule("r1", ("a", "b"), 1000, ""),
), ids=("one-type", "zero-window", "no-rule-id", "no-output"))
def test_define_correlation_rejects_what_the_rule_check_rejects(rule):
    bus = TriggerBus(clock=Clock())
    with pytest.raises(trg.CorrelationRuleError):
        rule.validate()
    with pytest.raises(trg.CorrelationRuleError):
        bus.define_correlation(rule)


def test_correlation_against_oracle_on_random_strings():
    rng = random.Random(4242)
    alphabet = ["a", "b", "c", "d"]
    for trial in range(300):
        pattern = tuple(rng.choice(alphabet) for _ in range(rng.randint(2, 3)))
        window = rng.choice([5, 20, 100])
        events = []
        at = 0
        for _ in range(rng.randint(0, 12)):
            at += rng.randint(1, 40)
            events.append((at, rng.choice(alphabet)))
        clock = Clock()
        bus = TriggerBus(clock=clock)
        fired = []
        bus.subscribe(Subscription("c1", ("out",)), lambda t: fired.append(t.at))
        bus.define_correlation(CorrelationRule("r", pattern, window, "out"))
        for at, etype in events:
            clock.now = at
            bus.publish(Event(etype, "s"))
        expected = correlation_fires(pattern, window, events)
        assert fired == expected, (pattern, window, events)


def test_correlation_matches_a_linear_scan_over_every_rule():
    # Patterns repeat types and mix in the output of other rules; events
    # mix in types no pattern names; rules come and go between publishes.
    in_pattern = ("a", "b", "c", "x")
    types = in_pattern + ("u", "quality-alert-1")
    fixed = (CorrelationRule("rep", ("a", "a", "b"), 20, "x"),
             CorrelationRule("armed", ("b", "c"), 100, "y", reset_on_fire=False),
             CorrelationRule("chain", ("x", "c"), 50, "y"))
    rng = random.Random(2718)
    fired_by = []
    for trial in range(300):
        pool = list(fixed)
        for i in range(5):
            pattern = tuple(rng.choice(in_pattern) for _ in range(rng.randint(2, 3)))
            # "x" is fired only by rules that do not wait for it: no cycles
            pool.append(CorrelationRule(f"r{i}", pattern, rng.choice((5, 20, 100)),
                                        "y" if "x" in pattern else rng.choice(("x", "y")),
                                        reset_on_fire=rng.random() < 0.6))
        clock = Clock()
        bus = TriggerBus(clock=clock)
        oracle = LinearScanCorrelation()
        got = []

        def collect(t):
            if t.synthetic:
                got.append((t.event_type, t.payload["rule"], t.payload["completed_by"]))

        bus.subscribe(Subscription("c1", ("*",)), collect)
        handles = []
        for _ in range(60):
            op = rng.random()
            if op < 0.1:
                rule = rng.choice(pool)
                handle = bus.define_correlation(rule)
                oracle.define(handle, rule)
                handles.append(handle)
            elif op < 0.15 and handles:
                handle = handles.pop(rng.randrange(len(handles)))
                bus.drop_correlation(handle)
                oracle.drop(handle)
            else:
                clock.now += rng.choice((0, 1, 5, 30, 100))
                event_type = rng.choice(types)
                got.clear()
                bus.publish(Event(event_type, "s"))
                expected = oracle.publish(event_type, clock.now)
                assert got == expected, (trial, clock.now, event_type)
                fired_by.extend(rule_id for _, rule_id, _ in expected)
    assert len(fired_by) > 500
    assert {"rep", "armed", "chain"} <= set(fired_by)


# -- UCI registry ---------------------------------------------------------------


def test_register_and_resolve():
    bus = TriggerBus()
    record = UciRecord("multiaccess/candidates", "mrrm", "candidate set")
    bus.register_uci(record)
    assert bus.resolve_uci("multiaccess/candidates") == record


def test_reregistration_same_source_is_idempotent():
    bus = TriggerBus()
    bus.register_uci(UciRecord("u1", "mrrm"))
    bus.register_uci(UciRecord("u1", "mrrm", "updated text"))
    assert bus.resolve_uci("u1").description == "updated text"


def test_conflicting_source_rejected():
    bus = TriggerBus()
    bus.register_uci(UciRecord("u1", "mrrm"))
    with pytest.raises(UciConflictError):
        bus.register_uci(UciRecord("u1", "gll"))


def test_unknown_uci_not_found():
    bus = TriggerBus()
    with pytest.raises(UciNotFoundError):
        bus.resolve_uci("ghost")


def test_registry_does_not_survive_across_buses():
    bus1 = TriggerBus()
    bus1.register_uci(UciRecord("u1", "mrrm"))
    bus2 = TriggerBus()
    with pytest.raises(UciNotFoundError):
        bus2.resolve_uci("u1")


# -- downward triggers -------------------------------------------------------------


def test_send_downward_uses_normal_delivery_path():
    bus = TriggerBus()
    received, cb = collector()
    bus.subscribe(Subscription("mrrm", ("policy-changed",)), cb)
    count = bus.send_downward(
        Event("policy-changed", "policy-editor",
              payload={"action": "deny-operator", "operator": "OpC"}),
        target="mrrm")
    assert count == 1
    assert received[0].source == "policy-editor"
    assert received[0].synthetic is False


def test_send_downward_requires_live_target():
    bus = TriggerBus()
    with pytest.raises(SubscriptionError):
        bus.send_downward(Event("policy-changed", "x"), target="gll")


# -- policies-check responder --------------------------------------------------------


def test_responder_answers_from_store_and_default():
    bus = TriggerBus()
    answers, cb = collector()
    bus.subscribe(Subscription("mrrm", (trg.POLICIES_CHECK_ANSWER,)), cb)
    PoliciesCheckResponder(bus, {"OpB": PolicyRecord("deny"),
                                 "OpC": PolicyRecord("allow", preference=0.9)},
                           default_verdict="allow")
    bus.publish(Event(trg.POLICIES_CHECK_REQUEST, "mrrm", payload={"operator": "OpB"}))
    bus.publish(Event(trg.POLICIES_CHECK_REQUEST, "mrrm", payload={"operator": "OpC"}))
    bus.publish(Event(trg.POLICIES_CHECK_REQUEST, "mrrm", payload={"operator": "OpX"}))
    got = [(t.payload["operator"], t.payload["verdict"], t.payload.get("preference"))
           for t in answers]
    assert got == [("OpB", "deny", None), ("OpC", "allow", 0.9), ("OpX", "allow", None)]
