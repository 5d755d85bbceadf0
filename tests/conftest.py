"""Shared builders for tests."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from hetsel.gll import (
    LinkMeasurement,
    LinkQualityReport,
    MappingConfig,
    map_link_quality,
    report_to_payload,
    residual_error_rate,
)
from hetsel.mrrm import Flow, PolicySet, SelectionConfig, TerminalCapabilities
from hetsel.simenv.env import Cell

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
SHIPPED_SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))

OPERATORS = ("OpA", "OpB", "OpC")
RATS = ("WLAN", "UMTS", "GSM")


# A flow that leaves while its attach is pending, and whose departure the bus
# drops, so MRRM learns of it only from the environment.
DEPARTED_WHILE_ATTACHING_WORLD = {
    "duration_ms": 1500,
    "gll": {"attach_latency_ms": 200},
    "trg": {"drop_types": ["flow-departure"]},
    "cells": [{"cell_id": "c1", "rat": "WLAN", "operator_id": "OpA", "frequency": "ch1"}],
    "timeline": [{"at": 500, "kind": "flow-arrival", "target": "f", "resource_demand": 30},
                 {"at": 550, "kind": "flow-departure", "target": "f"}],
}


# Three flows hand over, break-before-make, from c0 to c1 when c0 goes dark;
# c1 goes dark and comes back before the handovers complete, and f0 leaves
# later.  The targets' charges on c1 must not survive c1's loss of coverage.
_WLAN = {"rat": "WLAN", "operator_id": "OpA", "frequency": "ch1",
         "achievable_rate": 1e5, "base_delay_ms": 1}
TARGET_LOST_COVERAGE_WORLD = {
    "duration_ms": 2000,
    "gll": {"attach_latency_ms": 0},
    "mobility": {"make_before_break": False, "delays_ms": [0] * 5},
    "cells": [{"cell_id": "c0", **_WLAN}, {"cell_id": "c1", **_WLAN}],
    "flows": [{"flow_id": f"f{j}", "resource_demand": 1, "serving": "c0"} for j in range(3)]
    + [{"flow_id": "f3", "resource_demand": 1}],
    "timeline": [{"at": 100, "kind": kind, "target": cell_id}
                 for kind in ("cell-down", "cell-up") for cell_id in ("c0", "c1")]
    + [{"at": 500, "kind": "flow-departure", "target": "f0"}],
}


def make_cell(cell_id="wlan1", rat="WLAN", operator_id="OpA", frequency="ch6", **over) -> Cell:
    defaults = dict(
        covered=True,
        total_resources=100,
        used_resources=0,
        raw_error_rate=0.0,
        achievable_rate=10e6,
        base_delay_ms=10.0,
        security_level=2,
        cost_per_mb=0.0,
    )
    defaults.update(over)
    return Cell(cell_id=cell_id, rat=rat, operator_id=operator_id,
                frequency=frequency, **defaults)


def make_measurement(cell_id="wlan1", **over) -> LinkMeasurement:
    defaults = dict(
        residual_error_rate=0.0,
        achievable_rate=10e6,
        delay_ms=10.0,
        load=0.0,
        covered=True,
    )
    defaults.update(over)
    return LinkMeasurement(cell_id=cell_id, **defaults)


def synthetic_report(cell_id="wlan1", quality=1.0, **raw_over) -> dict:
    """The payload GLL would publish for a report with an explicitly chosen
    composite quality (raw fields stay consistent enough for feasibility
    checks)."""
    raw = make_measurement(cell_id, **raw_over)
    return report_to_payload(LinkQualityReport(
        cell=cell_id,
        q_error=1.0,
        q_rate=1.0,
        q_delay=1.0,
        q_load=1.0 - raw.load,
        quality=quality,
        residual_error_rate=raw.residual_error_rate,
        achievable_rate=raw.achievable_rate,
        delay_ms=raw.delay_ms,
        load=raw.load,
        covered=raw.covered,
    ))


def report_for_cell(cell: Cell, cfg: MappingConfig | None = None,
                    retransmissions: int = 0) -> dict:
    """The payload GLL publishes for ``cell`` with no demanding service class."""
    cfg = cfg or MappingConfig()
    m = LinkMeasurement(
        cell_id=cell.cell_id,
        residual_error_rate=residual_error_rate(cell.raw_error_rate, retransmissions),
        achievable_rate=cell.achievable_rate,
        delay_ms=cell.base_delay_ms,
        load=cell.load,
        covered=cell.covered,
    )
    return report_to_payload(map_link_quality(m, cfg))


def make_flow(flow_id="f1", **over) -> Flow:
    defaults = dict(
        service_class="real-time",
        min_rate=1e6,
        max_delay_ms=100.0,
        max_loss=0.01,
        resource_demand=10,
        serving=None,
    )
    defaults.update(over)
    return Flow(flow_id=flow_id, **defaults)


def random_weights(rng: random.Random) -> SelectionConfig:
    raw = [rng.random() + 1e-6 for _ in range(5)]
    total = sum(raw)
    return SelectionConfig(
        w_qos=raw[0] / total,
        w_link=raw[1] / total,
        w_cell=raw[2] / total,
        w_term=raw[3] / total,
        w_pol=raw[4] / total,
        load_threshold=rng.uniform(0.3, 1.0),
        hysteresis_delta=rng.uniform(0.0, 0.2),
    )


def random_instance(rng: random.Random):
    """One randomized selection problem: cells+reports, flows, policies,
    capabilities and weights."""
    cells: dict[str, Cell] = {}
    reports = []
    n_cells = rng.randint(1, 6)
    for i in range(n_cells):
        total = rng.randint(1, 100)
        cell = make_cell(
            cell_id=f"c{i}",
            rat=rng.choice(RATS),
            operator_id=rng.choice(OPERATORS),
            frequency=f"ch{rng.randint(1, 11)}",
            covered=rng.random() < 0.9,
            total_resources=total,
            used_resources=rng.randint(0, total),
            raw_error_rate=rng.random() * 0.3,
            achievable_rate=rng.random() * 10e6,
            base_delay_ms=rng.random() * 300,
            security_level=rng.randint(0, 3),
            cost_per_mb=rng.random() * 1.5,
        )
        cells[cell.cell_id] = cell
        reports.append(report_for_cell(cell, retransmissions=rng.randint(0, 3)))

    preference = {}
    for operator in OPERATORS:
        for rat in RATS:
            if rng.random() < 0.4:
                preference[(operator, rat)] = rng.random()
    policies = PolicySet(
        denied_operators=set(rng.sample(OPERATORS, k=rng.randint(0, 1))),
        min_security_level=rng.randint(0, 2),
        max_cost_per_mb=rng.choice([None, rng.random() * 1.5]),
        roaming_allowed=rng.random() < 0.8,
        home_operator=rng.choice([None, "OpA"]),
        static_preference=preference,
    )
    caps = TerminalCapabilities(
        supported_rats=set(rng.sample(RATS, k=rng.randint(0, len(RATS)))),
        energy_cost={rat: rng.random() for rat in RATS},
    )
    cfg = random_weights(rng)

    flows = []
    for j in range(rng.randint(1, 4)):
        serving = None
        if reports and rng.random() < 0.5:
            serving = rng.choice(reports)["cell"]
        flows.append(make_flow(
            flow_id=f"f{j}",
            service_class=rng.choice(("real-time", "interactive", "background")),
            min_rate=rng.random() * 5e6,
            max_delay_ms=rng.random() * 400,
            max_loss=rng.random() * 0.2,
            resource_demand=rng.randint(1, 30),
            serving=serving,
        ))
    return cells, reports, flows, policies, caps, cfg


def tied_instance(rng: random.Random):
    """A selection problem full of score ties, shaped like ``random_instance``.

    Cells come as twins, equal but for their ids, so they share a feasible
    score; a flow's demand is often 0, so a twin's post-move load equals the
    load of the twin that serves it; and a flow is often served by a twin
    with no room left for it, so that twin can be the target only when it
    holds the flow.
    """
    cells: dict[str, Cell] = {}
    reports = []
    for _ in range(rng.randint(1, 3)):
        total = rng.choice((10, 20))
        twin = dict(rat=rng.choice(RATS), operator_id=rng.choice(OPERATORS),
                    total_resources=total, used_resources=rng.randint(0, total - 1),
                    achievable_rate=rng.choice((0.5e6, 2e6)),
                    base_delay_ms=rng.choice((10.0, 200.0)))
        for _ in range(rng.randint(2, 3)):
            cell = make_cell(f"c{len(cells)}", **twin)
            cells[cell.cell_id] = cell
            reports.append(report_for_cell(cell))
    flows = [make_flow(flow_id=f"f{j}", resource_demand=rng.choice((0, 0, 1, 5, 15)),
                       serving=rng.choice([None, *cells]))
             for j in range(rng.randint(1, 4))]
    # no cell is dropped for its load: every one of them is a candidate
    cfg = SelectionConfig(load_threshold=1.0)
    return cells, reports, flows, PolicySet(), TerminalCapabilities(), cfg


def random_tentative(rng: random.Random, cells: dict[str, Cell]) -> dict[str, int]:
    """Demand already committed this round to a random subset of ``cells``."""
    return {cell_id: rng.randint(0, 30) for cell_id in cells if rng.random() < 0.5}


@pytest.fixture
def rng():
    return random.Random(1234)
