"""Run statistics and handover breakdowns, recomputed from the trace alone.

Both functions are pure passes over trace records, so re-running them on a
written trace file reproduces exactly what the run reported.  A record timed
before the one it follows raises ``went_backwards``'s error, and one that lacks
an attribute a pass reads, or holds one of a type it cannot use (a count or
list is checked, not coerced), raises ``_unreadable``'s; both name the record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..mobility import TRACE_POINTS
from .trace import RecordError, TraceError, TraceRecord, went_backwards

PING_PONG_WINDOW_MS = 10000
_NO_CONSUMERS: list = []  # the consumers of an event record that reached no one; only read


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


def _unreadable(record: TraceRecord, exc: Exception) -> RecordError:
    """The error for a record whose attribute a pass could not read: ``exc`` is
    the ``KeyError`` of a missing one, else what a use of a wrong one raised."""
    if isinstance(exc, KeyError):
        return RecordError(record, f"record lacks attribute {exc.args[0]!r}")
    return RecordError(record, f"record has an attribute of the wrong type ({exc})")


def report_breakdown(records: Iterable[TraceRecord]) -> list[BreakdownReport]:
    """Group trace points by handover and compute per-phase durations.

    Only handovers with all five points (i.e. completed ones) are reported.
    Time must not run backwards, nor a point come before its request.  A
    handover's points must come in order, each with its first point's request.
    """
    # handover -> (its request time, the times of its points so far)
    handovers: dict[str, tuple[int, list[int]]] = {}
    now = 0
    try:
        for record in records:
            if record.at < now:
                raise went_backwards(record, now)
            now = record.at
            if record.kind != "trace-point":
                continue
            handover = str(record.attributes["handover"])
            requested = int(record.attributes["request_at"])
            if now < requested:
                raise RecordError(record, f"trace point before its request at t={requested}")
            first_requested, stamps = handovers.setdefault(handover, (requested, []))
            point = int(record.attributes["point"])
            if point != len(stamps) + 1 or point > TRACE_POINTS:
                raise RecordError(record, f"trace point {point} out of order after "
                                          f"{len(stamps)} of its handover's points")
            if requested != first_requested:
                raise RecordError(record, f"trace point request at t={requested} disagrees "
                                          f"with t={first_requested} on its handover's first point")
            stamps.append(now)
    except TraceError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _unreadable(record, exc) from None
    return [BreakdownReport(handover_id=handover, request_at=requested,
                            durations_ms=tuple(b - a for a, b in zip((requested, *stamps), stamps)))
            for handover, (requested, stamps) in handovers.items()
            if len(stamps) == TRACE_POINTS]


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
    left out as repeats.
    """
    stats = RunStats()
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

    def leave(flow_id: str, at: int) -> None:
        state = flows.pop(flow_id, None)
        if state is not None:
            accrue(flow_id, state, at)

    try:
        for record in records:
            if record.at < now:
                raise went_backwards(record, now)
            now = record.at

            if record.kind == "decision":
                flow_id = str(record.attributes["flow"])
                flow = flows.get(flow_id)
                if flow is not None:
                    flow.known_candidates = int(record.attributes["candidates"])
                    settle(flow_id, flow, now)
                continue
            if record.kind != "event":
                continue

            payload = record.attributes
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
            if event_type == "flow-arrival":
                flow_id = str(payload["flow"])
                leave(flow_id, now)
                flows[flow_id] = _FlowState(payload.get("serving") or None)
            elif event_type == "flow-departure":
                leave(str(payload["flow"]), now)
            elif event_type == "flow-mapped":
                flow_id = str(payload["flow"])
                flow = flows.get(flow_id)
                if flow is not None:
                    flow.cell = str(payload["cell"])
                    settle(flow_id, flow, now)
            elif event_type == "link-up" or event_type == "link-down":
                cell = str(payload["cell"])
                link_up[cell] = event_type == "link-up"
                for flow_id, flow in flows.items():
                    if flow.cell == cell:
                        settle(flow_id, flow, now)
            elif event_type == "handover-execution-request":
                stats.handovers_attempted += 1
            elif event_type == "handover-complete":
                stats.handovers_completed += 1
                flow = flows.get(str(payload["flow"]))
                if flow is not None:
                    source, target = str(payload["from"]), str(payload["to"])
                    if flow.last_move is not None:
                        at, prev_source, prev_target = flow.last_move
                        if (prev_target == source and prev_source == target
                                and record.at - at <= PING_PONG_WINDOW_MS):
                            stats.ping_pong_count += 1
                    flow.last_move = (record.at, source, target)
            elif event_type == "handover-failed":
                stats.handovers_failed += 1
            elif event_type == "scan-complete":
                mode = str(payload["mode"])
                stats.scan_counts[mode] = stats.scan_counts.get(mode, 0) + 1
                energy = payload.get("energy", 0.0)
                if type(energy) is not float and type(energy) is not int:
                    raise TypeError(f"energy {energy!r} is not a number")
                stats.energy += energy
    except TraceError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _unreadable(record, exc) from None

    for flow_id, flow in flows.items():
        accrue(flow_id, flow, now)
    stats.service_gap_ms = gaps
    return stats
