"""Trigger bus: event collection, filtered delivery, temporal correlation, UCI registry.

Producers publish :class:`Event` values; the bus stamps the current sim time
on the event, takes the live subscriptions whose type patterns accept its
type (a per-type list, built on first use and rebuilt after any subscribe or
unsubscribe), checks the source, payload predicates and rate limit of each
one that has any, and hands that same event to each match synchronously, in
subscription-creation order.  A subscription's predicates are compiled when
it is made: each comparator is looked up by its spelling once.  Delivery is
fully synchronous so that a run embedding the bus stays deterministic.

Correlation rules watch the event stream and publish synthetic events through
the same path.  An event advances only the rules whose pattern contains its
type, taken from a second per-type index kept like the delivery one.  The
others may skip it because a partial match expires lazily: the next event
whose type is in the pattern drops an expired match before it compares.

A publish's consumers are chosen from the event as it was published, rate
limits included, before the first callback, and handed with the event to the
recorder, which alone decides what the trace holds.  So a consumer's nested
publish at the same instant cannot rate-limit a later consumer of the outer
event, nor change what a later predicate reads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

logger = logging.getLogger(__name__)

# Reserved event type strings.  The vocabulary is open: components may publish
# further types without touching this module.
LINK_UP = "link-up"
LINK_DOWN = "link-down"
ATTACH_FAILED = "attach-failed"
NEW_ACCESS_DETECTED = "new-access-detected"
ACCESS_LOST = "access-lost"
LINK_QUALITY_REPORT = "link-quality-report"
MEASUREMENT_BATCH = "measurement-batch"
SCAN_COMPLETE = "scan-complete"
CANDIDATE_REPORT = "candidate-report"
HANDOVER_EXECUTION_REQUEST = "handover-execution-request"
HANDOVER_COMPLETE = "handover-complete"
HANDOVER_FAILED = "handover-failed"
QOS_UNSATISFIED = "qos-unsatisfied"
POLICY_CHANGED = "policy-changed"
POLICIES_CHECK_REQUEST = "policies-check-request"
POLICIES_CHECK_ANSWER = "policies-check-answer"
ROUTER_ADVERTISEMENT = "router-advertisement"
CELL_COVERAGE_CHANGE = "cell-coverage-change"
FLOW_ARRIVAL = "flow-arrival"
FLOW_DEPARTURE = "flow-departure"
FLOW_MAPPED = "flow-mapped"
REPORTING_INTERVAL_CHANGE = "reporting-interval-change"
RUN_END = "run-end"

#: The reserved types above.  A scenario's correlation rule may not output
#: one: its synthetic event carries only ``rule`` and ``completed_by``, not the
#: payload the components read from these types.
RESERVED_TYPES = frozenset((
    LINK_UP, LINK_DOWN, ATTACH_FAILED, NEW_ACCESS_DETECTED, ACCESS_LOST,
    LINK_QUALITY_REPORT, MEASUREMENT_BATCH, SCAN_COMPLETE, CANDIDATE_REPORT,
    HANDOVER_EXECUTION_REQUEST, HANDOVER_COMPLETE, HANDOVER_FAILED,
    QOS_UNSATISFIED, POLICY_CHANGED, POLICIES_CHECK_REQUEST, POLICIES_CHECK_ANSWER,
    ROUTER_ADVERTISEMENT, CELL_COVERAGE_CHANGE, FLOW_ARRIVAL, FLOW_DEPARTURE,
    FLOW_MAPPED, REPORTING_INTERVAL_CHANGE, RUN_END,
))

#: Comparator spellings accepted in payload predicates (ASCII and symbol forms).
COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "≠": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "≤": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "≥": lambda a, b: a >= b,
}

# Nested synthetic publications deeper than this are dropped (mis-configured
# correlation rules could otherwise recurse without bound).
_MAX_PUBLISH_DEPTH = 16


class SubscriptionError(ValueError):
    """Malformed subscription (bad predicate, empty consumer id)."""


class UnknownHandleError(KeyError):
    """Unsubscribe of a handle that is not live."""


class CorrelationRuleError(ValueError):
    """Malformed correlation rule."""


class UciConflictError(ValueError):
    """UCI already registered by a different source."""


class UciNotFoundError(KeyError):
    """UCI lookup miss."""


@dataclass
class Event:
    """A typed, timestamped notification with flat named attributes.

    ``at`` is stamped by :meth:`TriggerBus.publish`; ``synthetic`` marks an
    event fired by a correlation rule.
    """

    event_type: str
    source: str
    at: int = 0
    payload: dict[str, Any] = field(default_factory=dict)
    synthetic: bool = False


@dataclass(frozen=True)
class Subscription:
    """Filter owned by one consumer.

    ``accepted_types`` entries are exact event types or prefixes with a
    trailing ``*``.  ``payload_predicates`` are ``(attribute, comparator,
    constant)`` triples; a predicate on a missing attribute is false.
    ``min_interval_ms`` rate-limits deliveries: events arriving sooner than
    the interval after the last delivery are silently skipped.
    """

    consumer_id: str
    accepted_types: tuple[str, ...]
    source_filter: Optional[str] = None
    payload_predicates: tuple[tuple[str, str, Any], ...] = ()
    min_interval_ms: Optional[int] = None


@dataclass(frozen=True)
class CorrelationRule:
    """Ordered event-type pattern that fires a synthetic event.

    Matching is an ordered subsequence anchored at the first matched element:
    unrelated events in between are allowed, the partial match expires once
    ``window_ms`` has elapsed after the anchor, and ``reset_on_fire`` clears
    the state after each firing.
    """

    rule_id: str
    pattern: tuple[str, ...]
    window_ms: int
    output_type: str
    reset_on_fire: bool = True

    def validate(self) -> None:
        if not self.rule_id or not self.output_type:
            raise CorrelationRuleError("rule_id and output_type must be non-empty")
        if len(self.pattern) < 2:
            raise CorrelationRuleError("pattern length must be >= 2")
        if self.window_ms <= 0:
            raise CorrelationRuleError("window_ms must be positive")


@dataclass(frozen=True)
class UciRecord:
    """Registry entry naming a multiaccess information source."""

    uci: str
    source: str
    description: str = ""


def _compile_types(patterns: tuple[str, ...]) -> tuple[frozenset[str], tuple[str, ...]]:
    """Split type patterns into exact types and the prefixes of ``*`` patterns."""
    exact, prefixes = [], []
    for pattern in patterns:
        if pattern.endswith("*"):
            prefixes.append(pattern[:-1])
        else:
            exact.append(pattern)
    return frozenset(exact), tuple(prefixes)


class _LiveSubscription:
    __slots__ = ("spec", "callback", "consumer_id", "last_delivery_at", "exact",
                 "prefixes", "source_filter", "predicates", "min_interval_ms", "filtered")

    def __init__(self, spec: Subscription, callback: Callable[[Event], None]):
        self.spec = spec
        self.callback = callback
        self.consumer_id = spec.consumer_id
        self.last_delivery_at: Optional[int] = None
        self.exact, self.prefixes = _compile_types(spec.accepted_types)
        self.source_filter = spec.source_filter
        self.predicates = tuple((attribute, COMPARATORS[comparator], constant)
                                for attribute, comparator, constant in spec.payload_predicates)
        self.min_interval_ms = spec.min_interval_ms
        # an unfiltered subscription takes every event of its types, so the
        # bus checks nothing for it and stamps no delivery time
        self.filtered = (self.source_filter is not None or bool(self.predicates)
                         or self.min_interval_ms is not None)

    def accepts(self, event_type: str) -> bool:
        return event_type in self.exact or event_type.startswith(self.prefixes)

    def passes(self, event: Event) -> bool:
        """Source filter and payload predicates; the type is checked apart.  A
        predicate on a missing attribute, or on values that do not compare, is
        false."""
        if self.source_filter is not None and event.source != self.source_filter:
            return False
        payload = event.payload
        for attribute, compare, constant in self.predicates:
            if attribute not in payload:
                return False
            try:
                if not compare(payload[attribute], constant):
                    return False
            except TypeError:
                return False
        return True

    def rate_limited(self, now: int) -> bool:
        if self.min_interval_ms is None or self.last_delivery_at is None:
            return False
        return now - self.last_delivery_at < self.min_interval_ms


class _RuleState:
    __slots__ = ("rule", "next_index", "anchor_at")

    def __init__(self, rule: CorrelationRule):
        self.rule = rule
        self.next_index = 0
        self.anchor_at: Optional[int] = None

    def reset(self) -> None:
        self.next_index = 0
        self.anchor_at = None

    def advance(self, event: Event) -> bool:
        """Feed one event; return True when the pattern completes.

        The bus feeds a rule only the events whose type is in its pattern.
        Any other event would only reset an expired partial match and then
        fail the type comparison.  The next event whose type is in the pattern
        makes that same reset before it compares: time never decreases, so a
        window that had expired at the skipped event has expired at that later
        one too.
        """
        rule = self.rule
        if self.anchor_at is not None and event.at - self.anchor_at > rule.window_ms:
            self.reset()
        if event.event_type != rule.pattern[self.next_index]:
            return False
        if self.next_index == 0:
            self.anchor_at = event.at
        self.next_index += 1
        if self.next_index < len(rule.pattern):
            return False
        if rule.reset_on_fire:
            self.reset()
        else:
            # Stay armed on the final element so trailing repeats re-fire
            # inside the window.
            self.next_index = len(rule.pattern) - 1
        return True


class TriggerBus:
    """Synchronous in-process trigger bus with a local UCI registry.

    ``clock`` supplies the current sim time stamped onto published events.
    Every consumer of a publish receives the same event and the same payload
    object, and a producer may publish one payload object again in later
    events (GLL does, for a report that has not changed).  So a consumer must
    not mutate a payload.  A read-only ``MappingProxyType`` would enforce
    that, but unpacking one into a record takes about 0.7 µs against 0.3 µs
    for a dict of a report's 11 keys (CPython 3.11).
    ``recorder``, when given, is called as ``recorder(event, consumer_ids)``,
    the ids in subscription-creation order, once per publish that is not
    dropped, before any consumer runs; if it raises, the publish is neither
    counted nor delivered, though the rate limits of its consumers count it.
    """

    def __init__(
        self,
        clock: Callable[[], int] = lambda: 0,
        recorder: Optional[Callable[[Event, list[str]], None]] = None,
        drop_types: Iterable[str] = (),
    ):
        self._clock = clock
        self._recorder = recorder
        self._drop_exact, self._drop_prefixes = _compile_types(tuple(drop_types))
        self._subscriptions: dict[int, _LiveSubscription] = {}
        # event type -> live subscriptions accepting it, in creation order;
        # filled on first use, emptied whenever a subscription comes or goes
        self._delivery: dict[str, tuple[_LiveSubscription, ...]] = {}
        self._by_spec: dict[Subscription, int] = {}
        self._next_handle = 1
        self._rules: dict[int, _RuleState] = {}
        # event type -> rules whose pattern contains it, in handle order;
        # filled on first use, emptied whenever a rule comes or goes
        self._rules_by_type: dict[str, tuple[_RuleState, ...]] = {}
        self._next_rule_handle = 1
        self._registry: dict[str, UciRecord] = {}
        self._depth = 0
        self.published = 0
        self.delivered = 0

    # -- subscriptions ----------------------------------------------------

    def subscribe(self, spec: Subscription, callback: Callable[[Event], None]) -> int:
        """Register a subscription; duplicate (consumer, identical filter) is idempotent."""
        if not spec.consumer_id:
            raise SubscriptionError("consumer_id must be non-empty")
        if not spec.accepted_types:
            raise SubscriptionError("accepted_types must be non-empty")
        for predicate in spec.payload_predicates:
            if len(predicate) != 3 or predicate[1] not in COMPARATORS:
                raise SubscriptionError(f"malformed predicate: {predicate!r}")
        if spec.min_interval_ms is not None and spec.min_interval_ms <= 0:
            raise SubscriptionError("min_interval_ms must be positive")
        existing = self._by_spec.get(spec)
        if existing is not None:
            return existing
        handle = self._next_handle
        self._next_handle += 1
        self._subscriptions[handle] = _LiveSubscription(spec, callback)
        self._by_spec[spec] = handle
        self._delivery.clear()
        return handle

    def unsubscribe(self, handle: int) -> None:
        live = self._subscriptions.pop(handle, None)
        if live is None:
            raise UnknownHandleError(handle)
        del self._by_spec[live.spec]
        self._delivery.clear()

    def has_consumer(self, consumer_id: str) -> bool:
        return any(s.consumer_id == consumer_id for s in self._subscriptions.values())

    # -- publication -------------------------------------------------------

    def publish(self, event: Event) -> int:
        """Stamp ``event.at`` and hand ``event`` itself to every matching
        subscription; returns the delivery count.

        Bus-level drop rules apply before anything else.  Correlation rules
        advance after the deliveries; completed patterns publish their
        synthetic event recursively through this same method.
        """
        event.at = self._clock()
        if (event.event_type in self._drop_exact
                or event.event_type.startswith(self._drop_prefixes)):
            return 0
        if self._depth >= _MAX_PUBLISH_DEPTH:
            logger.warning("publish depth limit reached, dropping %s", event.event_type)
            return 0
        self._depth += 1
        try:
            consumers: list[_LiveSubscription] = []
            for live in self._deliveries(event.event_type):
                if live.filtered:
                    if not live.passes(event) or live.rate_limited(event.at):
                        continue
                    live.last_delivery_at = event.at
                consumers.append(live)
            if self._recorder is not None:
                self._recorder(event, [live.consumer_id for live in consumers])
            self.published += 1
            self.delivered += len(consumers)
            for live in consumers:
                live.callback(event)
            rules = self._rules_by_type.get(event.event_type)
            if rules is None:
                rules = self._watching(event.event_type)
            if rules:
                for fired in self._advance_rules(event, rules):
                    self.publish(fired)
            return len(consumers)
        finally:
            self._depth -= 1

    def _deliveries(self, event_type: str) -> tuple[_LiveSubscription, ...]:
        subscribers = self._delivery.get(event_type)
        if subscribers is None:
            subscribers = self._delivery[event_type] = tuple(
                live for live in self._subscriptions.values() if live.accepts(event_type))
        return subscribers

    def send_downward(self, event: Event, target: str) -> int:
        """Publish an upper-layer event aimed at ``mrrm`` or ``gll``.

        Routing happens through ordinary subscriptions; the only visible
        difference is the event's source naming the upper-layer producer.
        """
        if target not in ("mrrm", "gll"):
            raise ValueError(f"unknown downward target: {target}")
        if not self.has_consumer(target):
            raise SubscriptionError(f"target {target} has no live subscription")
        return self.publish(event)

    def _watching(self, event_type: str) -> tuple[_RuleState, ...]:
        """Index and return the rules whose pattern contains ``event_type``."""
        states = self._rules_by_type[event_type] = tuple(
            state for state in self._rules.values() if event_type in state.rule.pattern)
        return states

    def _advance_rules(self, event: Event, states: tuple[_RuleState, ...]) -> list[Event]:
        fired: list[Event] = []
        for state in states:
            if state.advance(event):
                fired.append(Event(
                    event_type=state.rule.output_type,
                    source="trg",
                    payload={"rule": state.rule.rule_id, "completed_by": event.event_type},
                    synthetic=True,
                ))
        return fired

    # -- correlation -------------------------------------------------------

    def define_correlation(self, rule: CorrelationRule) -> int:
        rule.validate()
        handle = self._next_rule_handle
        self._next_rule_handle += 1
        self._rules[handle] = _RuleState(rule)
        self._rules_by_type.clear()
        return handle

    def drop_correlation(self, handle: int) -> None:
        if self._rules.pop(handle, None) is None:
            raise UnknownHandleError(handle)
        self._rules_by_type.clear()

    # -- UCI registry --------------------------------------------------------

    def register_uci(self, record: UciRecord) -> None:
        """Store a record; same (uci, source) is idempotent, same uci with a
        different source is a conflict."""
        if not record.uci:
            raise ValueError("uci must be non-empty")
        existing = self._registry.get(record.uci)
        if existing is not None and existing.source != record.source:
            raise UciConflictError(record.uci)
        self._registry[record.uci] = record

    def resolve_uci(self, uci: str) -> UciRecord:
        try:
            return self._registry[uci]
        except KeyError:
            raise UciNotFoundError(uci) from None


@dataclass(frozen=True)
class PolicyRecord:
    """Stored operator policy used for policies-check answers."""

    verdict: str = "allow"  # allow | deny
    preference: Optional[float] = None


class PoliciesCheckResponder:
    """Answers policies-check-request events from a local policy store.

    Operators without a stored record get the configured default verdict.
    Disable responding (scenario configuration) to exercise the requesting
    side's timeout handling.
    """

    def __init__(
        self,
        bus: TriggerBus,
        store: Optional[dict[str, PolicyRecord]] = None,
        default_verdict: str = "allow",
    ):
        if default_verdict not in ("allow", "deny"):
            raise ValueError(f"unknown default verdict {default_verdict!r}")
        self.bus = bus
        self.store = store or {}
        self.default_verdict = default_verdict
        bus.subscribe(
            Subscription(consumer_id="trg", accepted_types=(POLICIES_CHECK_REQUEST,)),
            self._answer,
        )

    def _answer(self, t: Event) -> None:
        operator = t.payload.get("operator", "")
        record = self.store.get(operator)
        payload: dict[str, Any] = {
            "operator": operator,
            "verdict": record.verdict if record else self.default_verdict,
        }
        if record is not None and record.preference is not None:
            payload["preference"] = record.preference
        self.bus.publish(Event(POLICIES_CHECK_ANSWER, "trg", payload=payload))
