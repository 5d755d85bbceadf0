"""Seeded world generator for the benchmark workloads.

Each workload is a function of its seed alone: the same seed renders
byte-identical files, so a run can be repeated exactly.  The simulator only
ever sees the rendered files; they are loaded back through the strict
``load_scenario``, so a generator bug fails with a path diagnostic.

Ids are plain ``c<n>`` (cells), ``f<n>`` (flows), ``r<n>`` (correlation rules)
and ``u<n>`` (upper-layer subscribers).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("metro_dense", "monitor_fanout", "commuter_churn")

OPERATORS = ("OpA", "OpB", "OpC")
# (rat, frequency) of every access kind a cell can have.
ACCESS_KINDS = (("WLAN", "ch1"), ("WLAN", "ch6"), ("UMTS", "u2100"), ("GSM", "g900"))

# Per-RAT ranges the cell attributes are drawn from.
_RAT_PROFILES = {
    "WLAN": dict(total=(100, 100), rate=(11e6, 54e6), delay=(3.0, 25.0),
                 error=(0.02, 0.3), security=(1, 2), cost=(0.0, 0.01)),
    "UMTS": dict(total=(150, 250), rate=(384e3, 2e6), delay=(40.0, 120.0),
                 error=(0.01, 0.15), security=(2, 3), cost=(0.02, 0.1)),
    "GSM": dict(total=(40, 60), rate=(60e3, 236e3), delay=(90.0, 250.0),
                error=(0.01, 0.08), security=(2, 3), cost=(0.05, 0.2)),
}

_REAL_TIME_RATES = (64e3, 128e3, 384e3, 1e6)
_MOBILITY_TABLE1_MN = [209, 2, 1, 13, 2809]

# Event types and prefixes the passive upper-layer subscribers ask for.
_WATCH_TYPES = (
    "link-quality-report",
    "measurement-batch",
    "candidate-report",
    "flow-mapped",
    "handover-execution-request",
    "handover-complete",
    "new-access-detected",
    "quality-alert-0",
    "quality-alert-1",
)
_WATCH_PREFIXES = ("link-*", "handover-*", "measurement-*", "quality-alert-*")


@dataclass
class World:
    """One generated workload instance: the scenario plus, for
    ``monitor_fanout``, the passive subscriptions registered after build."""

    workload: str
    seed: int
    scenario: dict
    subscriptions: list[dict] = field(default_factory=list)

    def files(self) -> dict[str, bytes]:
        """File name to exact bytes; identical for identical (workload, seed)."""
        out = {"scenario.json": _render(self.scenario)}
        if self.subscriptions:
            out["subscriptions.json"] = _render(self.subscriptions)
        return out

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, data in self.files().items():
            (directory / name).write_bytes(data)


def _render(value) -> bytes:
    return (json.dumps(value, indent=1) + "\n").encode("utf-8")


def generate(workload: str, seed: int) -> World:
    builders = {
        "metro_dense": _metro_dense,
        "monitor_fanout": _monitor_fanout,
        "commuter_churn": _commuter_churn,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return builders[workload](rng, seed)


# -- building blocks ------------------------------------------------------------


def _cell(rng: random.Random, n: int, operator: str, rat: str, frequency: str,
          max_base_load: float, covered: bool = True) -> dict:
    p = _RAT_PROFILES[rat]
    total = rng.randint(*p["total"])
    return {
        "cell_id": f"c{n}",
        "rat": rat,
        "operator_id": operator,
        "frequency": frequency,
        "covered": covered,
        "total_resources": total,
        "used_resources": int(total * rng.uniform(0.0, max_base_load)),
        "raw_error_rate": round(rng.uniform(*p["error"]), 4),
        "achievable_rate": round(rng.uniform(*p["rate"]), -3),
        "base_delay_ms": round(rng.uniform(*p["delay"]), 1),
        "security_level": rng.randint(*p["security"]),
        "cost_per_mb": round(rng.uniform(*p["cost"]), 4),
    }


def _flow_params(rng: random.Random, service_class: str) -> dict:
    if service_class == "real-time":
        return {
            "service_class": "real-time",
            "min_rate": rng.choice(_REAL_TIME_RATES),
            "max_delay_ms": float(rng.randint(150, 400)),
            "max_loss": round(rng.uniform(0.01, 0.05), 3),
            "resource_demand": rng.randint(1, 4),
        }
    return {
        "service_class": service_class,
        "min_rate": rng.choice((32e3, 64e3)),
        "max_delay_ms": float(rng.randint(400, 1000)),
        "max_loss": round(rng.uniform(0.02, 0.1), 3),
        "resource_demand": rng.randint(1, 3),
    }


def _common(rng: random.Random, seed: int, location: str, duration_ms: int) -> dict:
    preference = {f"{op}|{rat}": round(rng.uniform(0.3, 0.9), 3)
                  for op in OPERATORS for rat in _RAT_PROFILES}
    return {
        "seed": seed,
        "node_role": "MN",
        "mrrm_location": location,
        "duration_ms": duration_ms,
        "gll": {"mac": {"max_retransmissions": {"WLAN": 3, "UMTS": 2, "GSM": 1}}},
        "mrrm": {
            "policies": {"static_preference": preference},
            "capabilities": {"energy_cost": {"WLAN": 0.3, "UMTS": 0.5, "GSM": 0.2}},
        },
    }


def _all_kinds():
    return [(op, rat, freq) for op in OPERATORS for rat, freq in ACCESS_KINDS]


# -- workloads ---------------------------------------------------------------------


def _metro_dense(rng: random.Random, seed: int) -> World:
    """40 cells over every (operator, access kind), 120 real-time flows,
    network-side reporting of every cell, no timeline, 10 s.

    The mobility pipeline keeps its default of no delay, so every flow takes
    part in every 100 ms decision round and all ticks do the same kind of
    work.  A pipeline of a few hundred ms splits the flows into phase groups,
    and the tick time then falls into a few classes whose shares, and so the
    tick p50, change from seed to seed.
    """
    kinds = _all_kinds()
    doc = _common(rng, seed, "network", 10000)
    doc["cells"] = [_cell(rng, n, *kinds[(n - 1) % len(kinds)], max_base_load=0.6)
                    for n in range(1, 41)]
    doc["flows"] = [{"flow_id": f"f{n}", **_flow_params(rng, "real-time")}
                    for n in range(1, 121)]
    doc["timeline"] = []
    return World("metro_dense", seed, doc)


def _monitor_fanout(rng: random.Random, seed: int) -> World:
    """12 cells, 4 real-time flows, 20 correlation rules and 100 passive
    subscriptions in the four filter shapes of ``bench_trg``, 30 s."""
    kinds = _all_kinds()
    doc = _common(rng, seed, "network", 30000)
    doc["cells"] = [_cell(rng, n, *kinds[n - 1], max_base_load=0.6)
                    for n in range(1, 13)]
    doc["flows"] = [{"flow_id": f"f{n}", **_flow_params(rng, "real-time")}
                    for n in range(1, 5)]
    doc["trg"] = {"correlations": [{
        "rule_id": f"r{n}",
        "pattern": ["link-quality-report", "measurement-batch"],
        "window_ms": rng.choice((50, 100, 200, 500)),
        "output_type": f"quality-alert-{n % 4}",
        "reset_on_fire": True,
    } for n in range(1, 21)]}
    doc["timeline"] = []
    return World("monitor_fanout", seed, doc, [_subscription(rng, n) for n in range(1, 101)])


def _subscription(rng: random.Random, n: int) -> dict:
    """Subscriber ``u<n>``: the shape is ``n % 4`` and the types cycle, so
    every seed has the same filters.  Predicate constants are random but
    stratified over (0, 1), so the number of deliveries varies little."""
    shape, k = n % 4, n // 4
    predicates: list = []
    min_interval = None
    if shape == 0:  # exact type
        types = [_WATCH_TYPES[k % len(_WATCH_TYPES)]]
    elif shape == 1:  # prefix
        types = [_WATCH_PREFIXES[k % len(_WATCH_PREFIXES)]]
    elif shape == 2:  # two exact types and a payload predicate
        types = [_WATCH_TYPES[k % len(_WATCH_TYPES)], _WATCH_TYPES[(k + 4) % len(_WATCH_TYPES)]]
        predicates = [["quality", "<" if k % 2 else ">=", round((k + rng.random()) / 25, 3)]]
    else:  # prefix, predicate and a rate limit
        types = [_WATCH_PREFIXES[k % len(_WATCH_PREFIXES)]]
        predicates = [["load", "<=", round((k + rng.random()) / 25, 3)]]
        min_interval = (5, 20, 100)[k % 3]
    return {"consumer_id": f"u{n}", "accepted_types": types,
            "payload_predicates": predicates, "min_interval_ms": min_interval}


def _commuter_churn(rng: random.Random, seed: int) -> World:
    """24 cells on a ring, a window of 4 covered that slides one cell every
    5 s; 4 flows attached at start, one more arriving every 7 s for 20 s;
    terminal-side reporting and the Table-1 MN delay pipeline, 300 s."""
    duration = 300000
    window = 4
    # The ring's operator and access-kind pattern is fixed, so seeds differ in
    # radio conditions and demands but not in how often each kind recurs.
    kinds = [(OPERATORS[n % 3], *ACCESS_KINDS[(n // 3) % 3]) for n in range(24)]
    doc = _common(rng, seed, "terminal", duration)
    doc["mobility"] = {"delays_ms": list(_MOBILITY_TABLE1_MN), "make_before_break": True}
    doc["cells"] = [_cell(rng, n, *kinds[n - 1], max_base_load=0.5, covered=n <= window)
                    for n in range(1, 25)]
    doc["flows"] = [{"flow_id": f"f{n}", "serving": f"c{n}", **_flow_params(rng, "real-time")}
                    for n in range(1, 5)]
    # (at, order within the same instant, entry): equal times keep this order.
    entries: list[tuple[int, int, dict]] = []
    for step in range(1, duration // 5000):
        at = step * 5000
        up = f"c{(step + window - 1) % 24 + 1}"
        down = f"c{(step - 1) % 24 + 1}"
        entries.append((at, 0, {"at": at, "kind": "cell-up", "target": up}))
        entries.append((at, 1, {"at": at, "kind": "emit-router-advertisement", "target": up}))
        entries.append((at, 2, {"at": at, "kind": "cell-down", "target": down}))
    for n, at in enumerate(range(7000, duration, 7000), start=5):
        service_class = ("real-time", "interactive", "background")[n % 3]
        entries.append((at, 3, {"at": at, "kind": "flow-arrival", "target": f"f{n}",
                                **_flow_params(rng, service_class)}))
        if at + 20000 < duration:
            entries.append((at + 20000, 4, {"at": at + 20000, "kind": "flow-departure",
                                            "target": f"f{n}"}))
    entries.sort(key=lambda e: (e[0], e[1]))
    doc["timeline"] = [entry for _, _, entry in entries]
    return World("commuter_churn", seed, doc)
