"""Run statistics and handover breakdowns, recomputed from the trace alone.

``compute_stats`` is the one pass over trace records, so re-running it on a
written trace file reproduces exactly what the run reported.  A record timed
before the one it follows raises ``went_backwards``'s error, and one that lacks
an attribute the pass reads, or holds one of a type it cannot use (each is
checked, not coerced), raises a ``RecordError`` that names the record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Iterable, Optional

from ..mobility import TRACE_POINTS
from .trace import RecordError, TraceRecord, went_backwards

PING_PONG_WINDOW_MS = 10000
_NO_CONSUMERS: list = []  # the consumers of an event record that reached no one; only read
_FLOW_EVENTS = frozenset({"flow-arrival", "flow-departure", "flow-mapped", "handover-complete"})


@dataclass(frozen=True)
class BreakdownReport:
    """Per-phase durations of one completed handover."""

    handover_id: str
    request_at: int
    durations_ms: tuple[int, ...]

    @property
    def total_ms(self) -> int:
        return sum(self.durations_ms)

    def as_dict(self) -> dict:
        return {
            "handover_id": self.handover_id,
            "request_at": self.request_at,
            "durations_ms": list(self.durations_ms),
            "total_ms": self.total_ms,
        }


@dataclass
class RunStats:
    handovers_attempted: int = 0
    handovers_completed: int = 0
    handovers_failed: int = 0
    ping_pong_count: int = 0
    service_gap_ms: dict[str, int] = field(default_factory=dict)
    scan_counts: dict[str, int] = field(default_factory=lambda: {"targeted": 0, "full": 0})
    energy: float = 0.0
    trigger_deliveries: int = 0
    # completed handovers, in first-point order; as_dict (so stats.json) leaves them out
    breakdowns: list[BreakdownReport] = field(default_factory=list)

    @property
    def service_gap_total_ms(self) -> int:
        return sum(self.service_gap_ms.values())

    def as_dict(self) -> dict:
        return {
            "handovers": {
                "attempted": self.handovers_attempted,
                "completed": self.handovers_completed,
                "failed": self.handovers_failed,
            },
            "ping_pong_count": self.ping_pong_count,
            "service_gap_ms": dict(sorted(self.service_gap_ms.items())),
            "service_gap_total_ms": self.service_gap_total_ms,
            "scan_counts": dict(self.scan_counts),
            "energy": self.energy,
            "trigger_deliveries": self.trigger_deliveries,
        }


class _FlowState:
    __slots__ = ("cell", "known_candidates", "last_move", "gap_since")

    def __init__(self, cell: Optional[str]):
        self.cell = cell
        self.known_candidates = 0
        # (at, source, target) of the flow's last completed handover
        self.last_move: Optional[tuple[int, str, str]] = None
        # when the flow's current service gap began; None while it has none
        self.gap_since: Optional[int] = None


def compute_stats(records: Iterable[TraceRecord]) -> RunStats:
    """Single ordered pass over the trace.

    A flow counts as in a service gap while it has no working serving link
    (no cell, or its cell's link is down) and its most recent decision showed
    at least one ranked candidate.  A flow's gap time accrues when a record
    changes that state, and at the trace's last record, so only a link record
    costs more with more flows live; time must not run backwards.
    Trigger deliveries are the ``consumers`` an event record lists, plus the
    ``repeated_deliveries`` it carries for the report records that the run
    left out as repeats.  ``breakdowns`` lists the handovers with all five
    trace points, i.e. the completed ones; no point may come before its
    request, and a handover's points come in order, each with its first
    point's request.
    """
    stats = RunStats()
    # handover -> (its request time, the times of its points so far)
    handovers: dict[str, tuple[int, list[int]]] = {}
    flows: dict[str, _FlowState] = {}
    link_up: dict[str, bool] = {}
    gaps: dict[str, int] = {}
    now = 0

    def accrue(flow_id: str, state: _FlowState, at: int) -> None:
        since = state.gap_since
        if since is not None and at > since:
            gaps[flow_id] = gaps.get(flow_id, 0) + at - since

    def settle(flow_id: str, state: _FlowState, at: int) -> None:
        """Accrue the flow's gap up to ``at`` and note whether one runs on
        from its state as it is now."""
        accrue(flow_id, state, at)
        # in a gap: not serviced (a cell of None is never a key of link_up)
        # while its last decision ranked a candidate
        in_gap = state.known_candidates >= 1 and not link_up.get(state.cell, False)
        state.gap_since = at if in_gap else None

    try:
        for record in records:
            if record.at < now:
                raise went_backwards(record, now)
            now = record.at

            payload = record.attributes
            if record.kind == "decision":
                flow_id = payload["flow"]
                if type(flow_id) is not str:
                    raise TypeError(f"flow {flow_id!r} is not a string")
                flow = flows.get(flow_id)
                if flow is not None:
                    candidates = payload["candidates"]
                    if type(candidates) is not int:
                        raise TypeError(f"candidates {candidates!r} is not an int")
                    flow.known_candidates = candidates
                    settle(flow_id, flow, now)
                continue
            if record.kind != "event":
                if record.kind != "trace-point":
                    continue
                handover, requested, point = (payload["handover"], payload["request_at"],
                                              payload["point"])
                if type(handover) is not str:
                    raise TypeError(f"handover {handover!r} is not a string")
                if type(requested) is not int:
                    raise TypeError(f"request_at {requested!r} is not an int")
                if type(point) is not int:
                    raise TypeError(f"point {point!r} is not an int")
                if now < requested:
                    raise RecordError(record, f"trace point before its request at t={requested}")
                first_requested, stamps = handovers.setdefault(handover, (requested, []))
                if point != len(stamps) + 1 or point > TRACE_POINTS:
                    raise RecordError(record, f"trace point {point} out of order after "
                                      f"{len(stamps)} of its handover's points")
                if requested != first_requested:
                    raise RecordError(record, f"trace point request at t={requested} disagrees "
                                      f"with t={first_requested} on its handover's first point")
                stamps.append(now)
                continue

            event_type = payload.get("type")
            consumers = payload.get("consumers", _NO_CONSUMERS)
            if type(consumers) is not list:
                raise TypeError(f"consumers {consumers!r} is not a list")
            stats.trigger_deliveries += len(consumers)
            if "repeated_deliveries" in payload:
                repeated = payload["repeated_deliveries"]
                if type(repeated) is not int or repeated < 0:
                    raise TypeError(f"repeated_deliveries {repeated!r} is not a count")
                stats.trigger_deliveries += repeated
            if event_type in _FLOW_EVENTS:
                flow_id = payload["flow"]
                if type(flow_id) is not str:
                    raise TypeError(f"flow {flow_id!r} is not a string")
                flow = flows.get(flow_id)
                if event_type == "flow-arrival":
                    serving = payload.get("serving", "")
                    if type(serving) is not str:
                        raise TypeError(f"serving {serving!r} is not a string")
                    if flow is not None:
                        accrue(flow_id, flow, now)
                    flows[flow_id] = _FlowState(serving or None)
                elif event_type == "flow-departure":
                    if flow is not None:
                        accrue(flow_id, flow, now)
                        del flows[flow_id]
                elif event_type == "flow-mapped":
                    cell = payload["cell"]
                    if type(cell) is not str:
                        raise TypeError(f"cell {cell!r} is not a string")
                    if flow is not None:
                        flow.cell = cell
                        settle(flow_id, flow, now)
                else:
                    stats.handovers_completed += 1
                    if flow is not None:
                        source, target = payload["from"], payload["to"]
                        if type(source) is not str or type(target) is not str:
                            raise TypeError(f"from {source!r} or to {target!r} is not a string")
                        if flow.last_move is not None:
                            at, prev_source, prev_target = flow.last_move
                            if (prev_target == source and prev_source == target
                                    and record.at - at <= PING_PONG_WINDOW_MS):
                                stats.ping_pong_count += 1
                        flow.last_move = (record.at, source, target)
            elif event_type == "link-up" or event_type == "link-down":
                cell = payload["cell"]
                if type(cell) is not str:
                    raise TypeError(f"cell {cell!r} is not a string")
                link_up[cell] = event_type == "link-up"
                for flow_id, flow in flows.items():
                    if flow.cell == cell:
                        settle(flow_id, flow, now)
            elif event_type == "handover-execution-request":
                stats.handovers_attempted += 1
            elif event_type == "handover-failed":
                stats.handovers_failed += 1
            elif event_type == "scan-complete":
                mode, energy = payload["mode"], payload.get("energy", 0.0)
                if type(mode) is not str:
                    raise TypeError(f"mode {mode!r} is not a string")
                if type(energy) is not float and type(energy) is not int:
                    raise TypeError(f"energy {energy!r} is not a number")
                stats.scan_counts[mode] = stats.scan_counts.get(mode, 0) + 1
                # adding an int past a float's range raises OverflowError
                stats.energy += energy
                if not isfinite(stats.energy):
                    raise TypeError(f"energy {energy!r} leaves the total energy not finite")
    except (KeyError, TypeError, OverflowError) as exc:
        raise RecordError(record, f"record lacks attribute {exc.args[0]!r}" if type(exc) is KeyError
                          else f"record has an attribute of the wrong type ({exc})") from None

    for flow_id, flow in flows.items():
        accrue(flow_id, flow, now)
    stats.service_gap_ms = gaps
    stats.breakdowns = [
        BreakdownReport(handover_id=handover, request_at=requested,
                        durations_ms=tuple(b - a for a, b in zip((requested, *stamps), stamps)))
        for handover, (requested, stamps) in handovers.items() if len(stamps) == TRACE_POINTS]
    return stats
