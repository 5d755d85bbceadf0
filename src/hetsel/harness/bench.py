"""Standalone trigger-bus benchmark: wall-clock cost of filter + deliver."""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

from .. import trg

_TYPE_POOL = (
    "link-up",
    "link-down",
    "link-quality-report",
    "candidate-report",
    "measurement-batch",
    "handover-complete",
    "qos-unsatisfied",
    "router-advertisement",
)
_PREFIX_POOL = ("link-*", "handover-*", "candidate-*", "measurement-*")


@dataclass(frozen=True)
class BenchSummary:
    subscribers: int
    events: int
    deliveries: int
    min_ms: float
    median_ms: float
    p99_ms: float
    total_s: float

    def as_dict(self) -> dict:
        return {
            "subscribers": self.subscribers,
            "events": self.events,
            "deliveries": self.deliveries,
            "min_ms": self.min_ms,
            "median_ms": self.median_ms,
            "p99_ms": self.p99_ms,
            "total_s": self.total_s,
        }


def _mixed_subscription(rng: random.Random, index: int) -> trg.Subscription:
    shape = index % 4
    if shape == 0:
        types: tuple[str, ...] = (rng.choice(_TYPE_POOL),)
        predicates: tuple = ()
        min_interval = None
    elif shape == 1:
        types = (rng.choice(_PREFIX_POOL),)
        predicates = ()
        min_interval = None
    elif shape == 2:
        types = (rng.choice(_TYPE_POOL), rng.choice(_TYPE_POOL))
        predicates = (("value", rng.choice(("<", ">=")), rng.random()),)
        min_interval = None
    else:
        types = (rng.choice(_PREFIX_POOL),)
        predicates = (("value", "<=", rng.random()),)
        min_interval = rng.choice((5, 20, 100))
    return trg.Subscription(
        consumer_id=f"bench-{index}",
        accepted_types=types,
        payload_predicates=predicates,
        min_interval_ms=min_interval,
    )


def bench_trg(subscribers: int, events: int, seed: int = 20117) -> BenchSummary:
    """Publish synthetic events through mixed-filter subscriptions.

    Events are stamped 1 ms apart of simulated time so rate-limited
    subscriptions exercise their skip path.  Reported costs are real wall
    clock per publish call.
    """
    if subscribers < 0 or events <= 0:
        raise ValueError("subscribers must be >= 0 and events positive")
    rng = random.Random(seed)
    now = [0]
    bus = trg.TriggerBus(clock=lambda: now[0])
    sink = [0]

    def consume(_event: trg.Event) -> None:
        sink[0] += 1

    for i in range(subscribers):
        bus.subscribe(_mixed_subscription(rng, i), consume)

    samples_ns = []
    started = time.perf_counter()
    for i in range(events):
        now[0] = i
        event = trg.Event(
            event_type=rng.choice(_TYPE_POOL),
            source="bench",
            payload={"value": rng.random(), "seq": i},
        )
        t0 = time.perf_counter_ns()
        bus.publish(event)
        samples_ns.append(time.perf_counter_ns() - t0)
    total_s = time.perf_counter() - started

    samples_ns.sort()
    p99 = samples_ns[min(len(samples_ns) - 1, int(0.99 * (len(samples_ns) - 1)))]
    return BenchSummary(
        subscribers=subscribers,
        events=events,
        deliveries=sink[0],
        min_ms=samples_ns[0] / 1e6,
        median_ms=statistics.median(samples_ns) / 1e6,
        p99_ms=p99 / 1e6,
        total_s=total_s,
    )
