"""Mobility executor: turns handover requests into a timed five-phase pipeline.

The real re-establishment of network-layer connectivity is modeled as five
configurable fixed delays (event capture/address configuration, trigger
processing, trigger delivery, mobility-protocol processing, update
signaling).  A trace-point record is written as each phase completes.  The
handover fails at the first step whose target is out of coverage or no longer
carries the charge of a flow still admitted; a cell that goes dark releases
every charge on it, so a target that goes dark and comes back between two
steps fails the handover too.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable, Optional

from . import trg
from .simenv.env import Environment
from .simenv.loop import EventLoop

logger = logging.getLogger(__name__)

TRACE_POINTS = 5


@dataclass(frozen=True)
class MobilityDelayModel:
    """Fixed per-phase delays in milliseconds."""

    delays_ms: tuple[int, int, int, int, int] = (0, 0, 0, 0, 0)

    def validate(self) -> None:
        if len(self.delays_ms) != TRACE_POINTS:
            raise ValueError("exactly five phase delays required")
        if any(d < 0 for d in self.delays_ms):
            raise ValueError("phase delays must be non-negative")

    @property
    def total_ms(self) -> int:
        return sum(self.delays_ms)


class _Pipeline:
    __slots__ = ("handover_id", "flow_id", "source", "target", "request_at", "aborted")

    def __init__(self, handover_id: str, flow_id: str, source: str, target: str, request_at: int):
        self.handover_id = handover_id
        self.flow_id = flow_id
        self.source = source
        self.target = target
        self.request_at = request_at
        self.aborted = False


class MobilityExecutor:
    """Consumes handover-execution-request events and drives the pipeline."""

    COMPONENT = "mobility"

    def __init__(
        self,
        loop: EventLoop,
        env: Environment,
        bus: trg.TriggerBus,
        model: Optional[MobilityDelayModel] = None,
        record: Optional[Callable[[str, dict[str, Any]], None]] = None,
    ):
        self.loop = loop
        self.env = env
        self.bus = bus
        self.model = model or MobilityDelayModel()
        self.model.validate()
        self._record = record or (lambda kind, attrs: None)
        self._counter = 0
        bus.subscribe(
            trg.Subscription(consumer_id="mobility",
                             accepted_types=(trg.HANDOVER_EXECUTION_REQUEST,)),
            self._on_request,
        )

    def _on_request(self, t: trg.Event) -> None:
        self._counter += 1
        pipeline = _Pipeline(
            handover_id=f"ho-{self._counter}",
            flow_id=t.payload["flow"],
            source=t.payload["from"],
            target=t.payload["to"],
            request_at=self.loop.now,
        )
        offset = 0
        for point, delay in enumerate(self.model.delays_ms, start=1):
            offset += delay
            self.loop.schedule(pipeline.request_at + offset,
                               self._make_step(pipeline, point))

    def _make_step(self, pipeline: _Pipeline, point: int) -> Callable[[], None]:
        return lambda: self._step(pipeline, point)

    def _step(self, pipeline: _Pipeline, point: int) -> None:
        if pipeline.aborted:
            return
        target = self.env.cells.get(pipeline.target)
        flow = self.env.flows.get(pipeline.flow_id)
        if (target is None or not target.covered
                or (flow is not None and not self.env.is_charged(flow, pipeline.target))):
            pipeline.aborted = True
            self.bus.publish(trg.Event(trg.HANDOVER_FAILED, self.COMPONENT, payload={
                "handover": pipeline.handover_id,
                "flow": pipeline.flow_id,
                "from": pipeline.source,
                "to": pipeline.target,
                "failed_at_point": point,
            }))
            return
        self._record("trace-point", {
            "handover": pipeline.handover_id,
            "point": point,
            "request_at": pipeline.request_at,
            "flow": pipeline.flow_id,
            "from": pipeline.source,
            "to": pipeline.target,
        })
        if point == TRACE_POINTS:
            self.bus.publish(trg.Event(trg.HANDOVER_COMPLETE, self.COMPONENT, payload={
                "handover": pipeline.handover_id,
                "flow": pipeline.flow_id,
                "from": pipeline.source,
                "to": pipeline.target,
            }))
