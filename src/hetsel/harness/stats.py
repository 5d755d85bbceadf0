"""Run statistics and handover breakdowns, recomputed from the trace alone.

Both functions are pure passes over trace records, so re-running them on a
written trace file reproduces exactly what the run reported.  A record that
lacks an attribute a pass reads raises ``MissingAttributeError`` naming it,
and one whose attribute has a type the pass cannot use raises ``RecordError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..mobility import TRACE_POINTS
from .trace import MissingAttributeError, RecordError, TraceError, TraceRecord

PING_PONG_WINDOW_MS = 10000


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


def report_breakdown(records: Iterable[TraceRecord]) -> list[BreakdownReport]:
    """Group trace points by handover and compute per-phase durations.

    Only handovers with all five points (i.e. completed ones) are reported.
    """
    points: dict[str, dict[int, int]] = {}
    request_at: dict[str, int] = {}
    try:
        for record in records:
            if record.kind != "trace-point":
                continue
            handover = str(record.attributes["handover"])
            points.setdefault(handover, {})[int(record.attributes["point"])] = record.at
            request_at[handover] = int(record.attributes["request_at"])
    except KeyError as exc:
        raise MissingAttributeError(record, exc.args[0]) from None
    except TraceError:
        raise
    except (TypeError, ValueError) as exc:
        raise RecordError(record, f"record has an attribute of the wrong type ({exc})") from None
    reports = []
    for handover, stamps in points.items():
        if set(stamps) != set(range(1, TRACE_POINTS + 1)):
            continue
        durations = []
        previous = request_at[handover]
        for point in range(1, TRACE_POINTS + 1):
            durations.append(stamps[point] - previous)
            previous = stamps[point]
        reports.append(BreakdownReport(
            handover_id=handover,
            request_at=request_at[handover],
            durations_ms=tuple(durations),
        ))
    return reports


class _FlowState:
    __slots__ = ("cell", "known_candidates", "last_move")

    def __init__(self, cell: Optional[str]):
        self.cell = cell
        self.known_candidates = 0
        # (at, source, target) of the flow's last completed handover
        self.last_move: Optional[tuple[int, str, str]] = None


def compute_stats(records: Iterable[TraceRecord]) -> RunStats:
    """Single ordered pass over the trace.

    A flow counts as in a service gap while it has no working serving link
    (no cell, or its cell's link is down) and its most recent decision showed
    at least one ranked candidate.  Trigger deliveries are the ``consumers``
    an event record lists, plus the ``repeated_deliveries`` it carries for
    the report records that the run left out as repeats.
    """
    stats = RunStats()
    flows: dict[str, _FlowState] = {}
    link_up: dict[str, bool] = {}
    gaps: dict[str, int] = {}
    last_at = 0
    try:
        for record in records:
            elapsed = record.at - last_at
            if elapsed > 0:
                for flow_id, state in flows.items():
                    # in a gap: not serviced (a cell of None is never a key of
                    # link_up) while its last decision ranked a candidate
                    if state.known_candidates >= 1 and not link_up.get(state.cell, False):
                        gaps[flow_id] = gaps.get(flow_id, 0) + elapsed
            last_at = record.at

            if record.kind == "decision":
                flow_id = str(record.attributes["flow"])
                if flow_id in flows:
                    flows[flow_id].known_candidates = int(record.attributes["candidates"])
                continue
            if record.kind != "event":
                continue

            payload = record.attributes
            event_type = payload.get("type")
            stats.trigger_deliveries += len(payload.get("consumers", ()))
            if "repeated_deliveries" in payload:
                repeated = payload["repeated_deliveries"]
                if type(repeated) is not int or repeated < 0:
                    raise TypeError(f"repeated_deliveries {repeated!r} is not a count")
                stats.trigger_deliveries += repeated
            if event_type == "flow-arrival":
                serving = payload.get("serving") or None
                flows[str(payload["flow"])] = _FlowState(serving)
            elif event_type == "flow-departure":
                flows.pop(str(payload["flow"]), None)
            elif event_type == "flow-mapped":
                flow = flows.get(str(payload["flow"]))
                if flow is not None:
                    flow.cell = str(payload["cell"])
            elif event_type == "link-up":
                link_up[str(payload["cell"])] = True
            elif event_type == "link-down":
                link_up[str(payload["cell"])] = False
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
                stats.energy += float(payload.get("energy", 0.0))
    except KeyError as exc:
        raise MissingAttributeError(record, exc.args[0]) from None
    except TraceError:
        raise
    except (TypeError, ValueError) as exc:
        raise RecordError(record, f"record has an attribute of the wrong type ({exc})") from None

    stats.service_gap_ms = gaps
    return stats
