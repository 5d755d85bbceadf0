"""Simulated multi-operator, multi-RAT radio environment.

Cells are authored state, not propagation models: scenario actions mutate
their fields directly and the link layer samples whatever is current.
Flows are world state too: this module defines them, admits them and
releases them.  A flow names its serving access by cell id.  Resource
accounting (cell ``used_resources``) is centralised here so the
conservation invariant is enforced in one place.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from .loop import EventLoop

logger = logging.getLogger(__name__)

ACTION_KINDS = (
    "set-cell-field",
    "cell-up",
    "cell-down",
    "flow-arrival",
    "flow-departure",
    "link-down-cable",
    "emit-router-advertisement",
    "quality-ramp",
)

# Fields a set-cell-field action may touch.  Coverage changes must go through
# cell-up/cell-down so the change event fires; identity fields are immutable.
MUTABLE_CELL_FIELDS = (
    "total_resources",
    "used_resources",
    "raw_error_rate",
    "achievable_rate",
    "base_delay_ms",
    "security_level",
    "cost_per_mb",
)

RAMP_FIELDS = ("raw_error_rate", "achievable_rate")

SERVICE_CLASSES = ("real-time", "interactive", "background")


class ActionError(ValueError):
    """Scenario action referencing an unknown target or carrying bad parameters."""


class InvariantError(RuntimeError):
    """Internal invariant violated (resource conservation, clock order)."""


@dataclass
class Cell:
    """One access cell: identity plus directly-authored radio conditions."""

    cell_id: str
    rat: str
    operator_id: str
    frequency: str
    covered: bool = True
    total_resources: int = 100
    used_resources: int = 0
    raw_error_rate: float = 0.0
    achievable_rate: float = 10e6
    base_delay_ms: float = 20.0
    security_level: int = 1
    cost_per_mb: float = 0.0

    def validate(self) -> None:
        if not (self.cell_id and self.rat and self.operator_id and self.frequency):
            raise ValueError("identity fields must be non-empty")
        if self.total_resources <= 0:
            raise ValueError("total_resources must be positive")
        if not 0 <= self.used_resources <= self.total_resources:
            raise ValueError("used_resources exceeds total_resources")
        if not 0.0 <= self.raw_error_rate <= 1.0:
            raise ValueError("raw_error_rate outside [0,1]")
        if self.achievable_rate < 0:
            raise ValueError("achievable_rate must be >= 0")
        if self.base_delay_ms < 0:
            raise ValueError("base_delay_ms must be >= 0")
        if not 0 <= self.security_level <= 3:
            raise ValueError("security_level outside 0..3")

    @property
    def load(self) -> float:
        return self.used_resources / self.total_resources


@dataclass
class Flow:
    """One user traffic stream; the unit of access selection.  ``serving``
    is the cell id of the access that carries it, if any."""

    flow_id: str
    service_class: str = "background"
    min_rate: float = 0.0
    max_delay_ms: float = float("inf")
    max_loss: float = 1.0
    resource_demand: int = 1
    serving: Optional[str] = None

    def validate(self) -> None:
        if self.service_class not in SERVICE_CLASSES:
            raise ValueError(f"unknown service_class {self.service_class!r}")
        if self.min_rate < 0 or self.max_delay_ms < 0:
            raise ValueError("QoS fields must be non-negative")
        if not 0.0 <= self.max_loss <= 1.0:
            raise ValueError("max_loss outside [0,1]")
        if self.resource_demand < 0:
            raise ValueError("resource_demand must be non-negative")


@dataclass(frozen=True)
class ScenarioAction:
    """One timeline entry: a deferred environment mutation.  A flow-arrival
    carries the validated ``flow`` it admits instead of ``params``."""

    at: int
    kind: str
    target: str
    params: dict[str, Any] = field(default_factory=dict)
    flow: Optional[Flow] = None


class Environment:
    """Mutable world state driven by scenario actions.

    ``emit`` publishes an environment-change event (type, payload) onto the
    run's bus.  Flows arrive already built and validated.  ``generation``
    counts the writes to cells, flows and charges, whether or not their event
    is ever delivered: equal generations mean an unchanged world.
    """

    def __init__(
        self,
        loop: EventLoop,
        cells: list[Cell],
        emit: Callable[[str, dict[str, Any]], None],
    ):
        self.loop = loop
        self.cells: dict[str, Cell] = {}
        for cell in cells:
            if cell.cell_id in self.cells:
                raise ActionError(f"duplicate cell_id {cell.cell_id}")
            self.cells[cell.cell_id] = cell
        self.flows: dict[str, Flow] = {}
        self._emit = emit
        # (flow_id, cell_id) -> the demand currently charged there; during a
        # make-before-break handover a flow is briefly charged on both cells.
        self._charges: dict[tuple[str, str], int] = {}
        self.generation = 0

    # -- actions -----------------------------------------------------------

    def apply_action(self, action: ScenarioAction) -> None:
        """Mutate the world and emit the events the change causes."""
        handler = getattr(self, "_apply_" + action.kind.replace("-", "_"), None)
        if handler is None:
            raise ActionError(f"unknown action kind {action.kind!r}")
        handler(action)

    def _cell(self, action: ScenarioAction) -> Cell:
        cell = self.cells.get(action.target)
        if cell is None:
            raise ActionError(f"unknown cell {action.target!r}")
        return cell

    def _apply_set_cell_field(self, action) -> None:
        cell = self._cell(action)
        name = action.params.get("field")
        if name not in MUTABLE_CELL_FIELDS:
            raise ActionError(f"field {name!r} is not settable")
        value = action.params["value"]
        if name == "used_resources":  # the base load; flow charges stay on top
            if value < 0:
                raise ActionError(f"{action.target}.{name}: base load must be >= 0")
            value += sum(demand for (_, cell_id), demand in self._charges.items()
                         if cell_id == cell.cell_id)
        previous = getattr(cell, name)
        setattr(cell, name, value)
        self.generation += 1
        try:
            cell.validate()
        except ValueError as exc:
            setattr(cell, name, previous)
            raise ActionError(f"{action.target}.{name}: {exc}") from None

    def _set_coverage(self, cell: Cell, covered: bool, cause: str = "scenario") -> None:
        if cell.covered == covered:
            return
        cell.covered = covered
        self.generation += 1
        if not covered:
            # A dead cell carries nothing: the charges of the flows it serves
            # go, and so do those of handovers and attaches aiming at it.  Its
            # flows keep their serving pointer until a handover completes or
            # they are re-attached.
            for flow_id, cell_id in [key for key in self._charges if key[1] == cell.cell_id]:
                self._uncharge(flow_id, cell_id)
        self._emit("cell-coverage-change", {
            "cell": cell.cell_id,
            "covered": covered,
            "cause": cause,
        })

    def _apply_cell_up(self, action) -> None:
        self._set_coverage(self._cell(action), True)

    def _apply_cell_down(self, action) -> None:
        self._set_coverage(self._cell(action), False)

    def _apply_link_down_cable(self, action) -> None:
        self._set_coverage(self._cell(action), False, cause="cable")

    def _apply_emit_router_advertisement(self, action) -> None:
        self._cell(action)
        self._emit("router-advertisement", {"cell": action.target})

    def admit_flow(self, flow: Flow) -> None:
        """Register a copy of ``flow`` and announce it: the one way a flow
        enters the run, so the scenario's own flows are never mutated.  A flow
        that starts served is already attached and charged there."""
        if flow.flow_id in self.flows:
            raise ActionError(f"flow {flow.flow_id!r} already exists")
        self.flows[flow.flow_id] = replace(flow)
        self.generation += 1
        self._emit("flow-arrival", {
            "flow": flow.flow_id,
            "service_class": flow.service_class,
            "min_rate": flow.min_rate,
            "max_delay_ms": flow.max_delay_ms,
            "max_loss": flow.max_loss,
            "resource_demand": flow.resource_demand,
            "serving": flow.serving or "",
        })

    def _apply_flow_arrival(self, action) -> None:
        self.admit_flow(action.flow)

    def _apply_flow_departure(self, action) -> None:
        flow = self.flows.pop(action.target, None)
        if flow is None:
            raise ActionError(f"unknown flow {action.target!r}")
        self.generation += 1
        if flow.serving is not None:
            self.unmap_flow(flow, flow.serving)
            flow.serving = None
        self._emit("flow-departure", {"flow": action.target})

    def _apply_quality_ramp(self, action) -> None:
        cell = self._cell(action)
        name = action.params.get("field")
        if name not in RAMP_FIELDS:
            raise ActionError(f"cannot ramp field {name!r}")
        duration = action.params.get("duration_ms", 0)
        if duration <= 0:
            raise ActionError("ramp duration must be positive")
        step = action.params.get("step_ms", 100)
        if step <= 0:
            raise ActionError("ramp step must be positive")
        start = action.params.get("start", getattr(cell, name))
        end = action.params["end"]
        steps = -(-duration // step)  # the last, possibly shorter, step lands on end

        def make_step(k: int) -> Callable[[], None]:
            def apply_step() -> None:
                fraction = min(1.0, (k * step) / duration)
                setattr(cell, name, start + (end - start) * fraction)
                self.generation += 1
            return apply_step

        for k in range(1, steps + 1):
            self.loop.schedule(self.loop.now + min(k * step, duration), make_step(k))

    # -- resource accounting -------------------------------------------------

    def map_flow(self, flow: Flow, cell_id: str) -> bool:
        """Charge the flow's demand against the cell; False when it cannot fit.

        Charging is idempotent per (flow, cell): re-mapping an already-charged
        pair succeeds without double-counting.
        """
        key = (flow.flow_id, cell_id)
        if key in self._charges:
            return True
        cell = self.cells[cell_id]
        if cell.used_resources + flow.resource_demand > cell.total_resources:
            return False
        cell.used_resources += flow.resource_demand
        self._charges[key] = flow.resource_demand
        self.generation += 1
        return True

    def is_charged(self, flow: Flow, cell_id: str) -> bool:
        return (flow.flow_id, cell_id) in self._charges

    def unmap_flow(self, flow: Flow, cell_id: str) -> None:
        self._uncharge(flow.flow_id, cell_id)

    def _uncharge(self, flow_id: str, cell_id: str) -> None:
        demand = self._charges.pop((flow_id, cell_id), None)
        if demand is None:
            return
        self.generation += 1
        cell = self.cells[cell_id]
        cell.used_resources -= demand
        if cell.used_resources < 0:
            raise InvariantError(f"negative used_resources on {cell_id}")
