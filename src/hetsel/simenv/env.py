"""Simulated multi-operator, multi-RAT radio environment.

Cells are authored state, not propagation models: scenario actions mutate
their fields directly and the link layer samples whatever is current.
Resource accounting (cell ``used_resources``) is centralised here so the
conservation invariant is enforced in one place.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from .loop import EventLoop

if TYPE_CHECKING:
    from ..mrrm import Flow

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


@dataclass(frozen=True)
class ScenarioAction:
    """One timeline entry: a deferred environment mutation."""

    at: int
    kind: str
    target: str
    params: dict[str, Any] = field(default_factory=dict)


class Environment:
    """Mutable world state driven by scenario actions.

    ``emit`` publishes an environment-change event (type, payload) onto the
    run's bus; ``flow_factory`` builds Flow objects from flow-arrival
    parameters so this module stays independent of the decision layer.
    """

    def __init__(
        self,
        loop: EventLoop,
        cells: list[Cell],
        emit: Callable[[str, dict[str, Any]], None],
        flow_factory: Optional[Callable[..., "Flow"]] = None,
    ):
        self.loop = loop
        self.cells: dict[str, Cell] = {}
        for cell in cells:
            if cell.cell_id in self.cells:
                raise ActionError(f"duplicate cell_id {cell.cell_id}")
            self.cells[cell.cell_id] = cell
        self.flows: dict[str, Flow] = {}
        self._emit = emit
        self._flow_factory = flow_factory
        # (flow_id, cell_id) pairs whose demand is currently charged; during a
        # make-before-break handover a flow is briefly charged on both cells.
        self._charges: set[tuple[str, str]] = set()

    # -- actions -----------------------------------------------------------

    def apply_action(self, action: ScenarioAction) -> list[tuple[str, dict[str, Any]]]:
        """Mutate the world; returns the (type, payload) events it emitted."""
        handler = getattr(self, "_apply_" + action.kind.replace("-", "_"), None)
        if handler is None:
            raise ActionError(f"unknown action kind {action.kind!r}")
        emitted: list[tuple[str, dict[str, Any]]] = []

        def emit(event_type: str, payload: dict[str, Any]) -> None:
            emitted.append((event_type, payload))
            self._emit(event_type, payload)

        handler(action, emit)
        return emitted

    def _cell(self, action: ScenarioAction) -> Cell:
        cell = self.cells.get(action.target)
        if cell is None:
            raise ActionError(f"unknown cell {action.target!r}")
        return cell

    def _apply_set_cell_field(self, action, emit) -> None:
        cell = self._cell(action)
        name = action.params.get("field")
        if name not in MUTABLE_CELL_FIELDS:
            raise ActionError(f"field {name!r} is not settable")
        value = action.params["value"]
        previous = getattr(cell, name)
        setattr(cell, name, value)
        try:
            cell.validate()
        except ValueError as exc:
            setattr(cell, name, previous)
            raise ActionError(f"{action.target}.{name}: {exc}") from None

    def _set_coverage(self, cell: Cell, covered: bool, emit, cause: str = "scenario") -> None:
        if cell.covered == covered:
            return
        cell.covered = covered
        emit("cell-coverage-change", {
            "cell": cell.cell_id,
            "covered": covered,
            "cause": cause,
        })

    def _apply_cell_up(self, action, emit) -> None:
        self._set_coverage(self._cell(action), True, emit)

    def _apply_cell_down(self, action, emit) -> None:
        self._set_coverage(self._cell(action), False, emit)

    def _apply_link_down_cable(self, action, emit) -> None:
        self._set_coverage(self._cell(action), False, emit, cause="cable")

    def _apply_emit_router_advertisement(self, action, emit) -> None:
        self._cell(action)
        emit("router-advertisement", {"cell": action.target})

    def _apply_flow_arrival(self, action, emit) -> None:
        if action.target in self.flows:
            raise ActionError(f"flow {action.target!r} already exists")
        if self._flow_factory is None:
            raise ActionError("environment has no flow factory")
        flow = self._flow_factory(flow_id=action.target, **action.params)
        self.flows[flow.flow_id] = flow
        emit("flow-arrival", {
            "flow": flow.flow_id,
            "service_class": flow.service_class,
            "min_rate": flow.min_rate,
            "max_delay_ms": flow.max_delay_ms,
            "max_loss": flow.max_loss,
            "resource_demand": flow.resource_demand,
            "serving": "",
        })

    def _apply_flow_departure(self, action, emit) -> None:
        flow = self.flows.pop(action.target, None)
        if flow is None:
            raise ActionError(f"unknown flow {action.target!r}")
        if flow.serving is not None:
            self.unmap_flow(flow, flow.serving.cell_id)
            flow.serving = None
        emit("flow-departure", {"flow": action.target})

    def _apply_quality_ramp(self, action, emit) -> None:
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
            return apply_step

        for k in range(1, steps + 1):
            self.loop.schedule(self.loop.now + min(k * step, duration), make_step(k))

    # -- resource accounting -------------------------------------------------

    def residual_resources(self, cell_id: str) -> int:
        cell = self.cells[cell_id]
        return cell.total_resources - cell.used_resources

    def map_flow(self, flow: "Flow", cell_id: str) -> bool:
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
        self._charges.add(key)
        return True

    def unmap_flow(self, flow: "Flow", cell_id: str) -> None:
        key = (flow.flow_id, cell_id)
        if key not in self._charges:
            return
        self._charges.discard(key)
        cell = self.cells[cell_id]
        cell.used_resources -= flow.resource_demand
        if cell.used_resources < 0:
            raise InvariantError(f"negative used_resources on {cell_id}")

    def release_cell_resources(self, cell_id: str) -> list["Flow"]:
        """Release resources of flows mapped on a dead cell.

        Their ``serving`` pointer is left in place: a flow stays bound to its
        (now dead) access until a handover completes or it is re-attached.
        """
        affected = []
        for flow in self.flows.values():
            if flow.serving is not None and flow.serving.cell_id == cell_id:
                self.unmap_flow(flow, cell_id)
                affected.append(flow)
        return affected
