"""Generic link layer: the only technology-facing component.

Maps per-RAT measurements onto normalized [0,1] metrics, runs scans and
attach/detach against the simulated environment, and reports periodically on
all detected accesses.  Reports and link changes leave this layer as events
on the trigger bus; everything above it sees a report as its
``link-quality-report`` payload, a mapping that names its access by cell id
and is RAT-agnostic, and keeps that payload as it is, without writing to it.
``map_link_quality`` builds a :class:`LinkQualityReport`, whose fields are
the payload's keys in order, and ``report_to_payload`` flattens it once per
changed report.  :class:`LinkMeasurement` is this layer's raw sample and the
input of ``map_link_quality``.  A measurement is taken of every access on
every tick, and a ``NamedTuple`` builds several times faster than a frozen
dataclass.  This layer alone decides when a cell's
report changed: its payload object changes exactly when its content does.
A report is mapped only when the measurement or the demanding service class
differs from the cell's last report, and the cell's last payload is
published again when they do not differ or when the fresh mapping equals it.
An access and its report are withdrawn only by ``access-lost`` or by
``link-down`` with reason ``lost``.

The layer keeps only link state, each access named by its cell id: the
attached and detected cells, the access history and each cell's last
report.  Every attached cell is also detected.  Flows belong to the
environment; the reporting cadence reads their service classes from
``Environment.flows``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, NamedTuple, Optional, Union

from . import trg
from .simenv.env import SERVICE_CLASSES, Cell, Environment
from .simenv.loop import EventLoop

logger = logging.getLogger(__name__)


class NotAttachedError(ValueError):
    """Detach of an access that is not attached."""


class LinkMeasurement(NamedTuple):
    """Raw per-access numbers as sampled from the environment; a report
    copies them after its normalized metrics."""

    cell_id: str
    residual_error_rate: float
    achievable_rate: float
    delay_ms: float
    load: float
    covered: bool


class LinkQualityReport(NamedTuple):
    """Normalized metrics in [0,1] followed by the raw numbers they summarize.

    The fields are, in order, the keys of a ``link-quality-report`` payload,
    so the access is named ``cell`` as in every event payload.
    """

    cell: str
    q_error: float
    q_rate: float
    q_delay: float
    q_load: float
    quality: float
    residual_error_rate: float
    achievable_rate: float
    delay_ms: float
    load: float
    covered: bool


@dataclass
class MappingConfig:
    """Weights and normalization references for the quality mapping.

    ``reference_rate`` may be a single value or a mapping keyed by service
    class, with key ``default`` as fallback.
    """

    w_error: float = 0.25
    w_rate: float = 0.25
    w_delay: float = 0.25
    w_load: float = 0.25
    fer_max: float = 0.1
    reference_rate: Union[float, dict[str, float]] = 2e6
    delay_max_ms: float = 200.0

    def reference_rate_for(self, service_class: Optional[str] = None) -> float:
        rates = self.reference_rate
        if isinstance(rates, dict):
            return rates.get(service_class, rates.get("default", 2e6))
        return rates

    def validate(self) -> None:
        weights = (self.w_error, self.w_rate, self.w_delay, self.w_load)
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if self.fer_max <= 0 or self.delay_max_ms <= 0:
            raise ValueError("fer_max and delay_max_ms must be positive")
        rates = self.reference_rate
        for key, rate in (rates.items() if isinstance(rates, dict) else [("default", rates)]):
            if key != "default" and key not in SERVICE_CLASSES:
                raise ValueError(f"unknown service class {key!r} in reference_rate")
            if rate <= 0:
                raise ValueError("reference rates must be positive")


@dataclass
class ReportingConfig:
    """Per-service-class reporting cadence; any other class, or none, every 500 ms."""

    intervals_ms: dict[str, int] = field(default_factory=lambda: {
        "real-time": 100,
        "interactive": 500,
        "background": 500,
    })
    enabled: bool = True

    def interval_for(self, service_class: Optional[str]) -> int:
        return self.intervals_ms.get(service_class, 500)

    def validate(self) -> None:
        if type(self.enabled) is not bool:
            raise ValueError(f"non-boolean reporting switch {self.enabled!r}")
        for service_class, interval in self.intervals_ms.items():
            if service_class not in SERVICE_CLASSES:
                raise ValueError(f"unknown service class {service_class!r} in intervals_ms")
            if type(interval) is not int or interval <= 0:  # a bool is not an interval
                raise ValueError(f"reporting interval {interval!r} is not a positive integer")


@dataclass
class MacScheme:
    """Retransmission budget per RAT kind (0 when unlisted)."""

    max_retransmissions: dict[str, int] = field(default_factory=dict)

    def retransmissions_for(self, rat: str) -> int:
        return self.max_retransmissions.get(rat, 0)

    def validate(self) -> None:
        for rat, r in self.max_retransmissions.items():
            if not 0 <= r <= 16:
                raise ValueError(f"max_retransmissions[{rat}] outside 0..16")


class AccessHistory:
    """Previously used (rat, frequency) pairs, most recent first, no duplicates."""

    def __init__(self, pairs: Iterable[tuple[str, str]] = (), max_len: int = 16):
        self.max_len = max_len
        self._pairs: list[tuple[str, str]] = list(dict.fromkeys(tuple(p) for p in pairs))[:max_len]

    def remember(self, rat: str, frequency: str) -> None:
        pair = (rat, frequency)
        if pair in self._pairs:
            self._pairs.remove(pair)
        self._pairs.insert(0, pair)
        del self._pairs[self.max_len:]

    def pairs(self) -> list[tuple[str, str]]:
        return list(self._pairs)


@dataclass
class GllConfig:
    mapping: MappingConfig = field(default_factory=MappingConfig)
    reporting: ReportingConfig = field(default_factory=ReportingConfig)
    mac: MacScheme = field(default_factory=MacScheme)
    attach_latency_ms: int = 50
    targeted_probe_ms: int = 50
    full_scan_per_rat_ms: int = 200
    probe_energy: dict[str, float] = field(default_factory=dict)
    history: list[tuple[str, str]] = field(default_factory=list)

    def validate(self) -> None:
        self.mapping.validate()
        self.reporting.validate()
        self.mac.validate()
        if self.attach_latency_ms < 0:
            raise ValueError("attach_latency_ms must be >= 0")
        if self.targeted_probe_ms < 0 or self.full_scan_per_rat_ms < 0:
            raise ValueError("scan costs must be >= 0")
        if any(not 0.0 <= e < math.inf for e in self.probe_energy.values()):
            raise ValueError("probe energies must be non-negative and finite")


# -- pure metric functions ---------------------------------------------------


def residual_error_rate(raw_frame_loss: float, max_retransmissions: int) -> float:
    """Error rate left after MAC retransmissions: independent trials, so
    a frame is lost only when the original and every retry fail."""
    return raw_frame_loss ** (max_retransmissions + 1)


def map_link_quality(
    m: LinkMeasurement,
    cfg: MappingConfig,
    service_class: Optional[str] = None,
) -> LinkQualityReport:
    """Normalize a measurement into [0,1] sub-metrics and their weighted mean.

    The composite is forced to 0 when the access is out of coverage or offers
    no rate at all, regardless of the other sub-metrics.
    """
    q_error = 1.0 - min(1.0, m.residual_error_rate / cfg.fer_max)
    q_rate = min(1.0, m.achievable_rate / cfg.reference_rate_for(service_class))
    q_delay = max(0.0, 1.0 - m.delay_ms / cfg.delay_max_ms)
    q_load = 1.0 - m.load
    if not m.covered or m.achievable_rate == 0:
        quality = 0.0
    else:
        quality = (cfg.w_error * q_error + cfg.w_rate * q_rate
                   + cfg.w_delay * q_delay + cfg.w_load * q_load)
    return LinkQualityReport(m.cell_id, q_error, q_rate, q_delay, q_load, quality,
                             m.residual_error_rate, m.achievable_rate, m.delay_ms,
                             m.load, m.covered)


def scan_results(
    mode: str,
    history: AccessHistory,
    cells: Mapping[str, Cell],
) -> list[str]:
    """Cell ids of the covered accesses a scan would find.

    Targeted mode probes only the remembered (rat, frequency) pairs, in
    history order (the pairs are distinct, so no cell is found twice); full
    mode probes everything and sorts by (rat, operator, cell).
    """
    if mode == "targeted":
        found: list[Cell] = []
        for rat, frequency in history.pairs():
            hits = [c for c in cells.values()
                    if c.covered and c.rat == rat and c.frequency == frequency]
            found += sorted(hits, key=lambda c: (c.operator_id, c.cell_id))
    elif mode == "full":
        found = sorted((c for c in cells.values() if c.covered),
                       key=lambda c: (c.rat, c.operator_id, c.cell_id))
    else:
        raise ValueError(f"unknown scan mode {mode!r}")
    return [c.cell_id for c in found]


# -- event payload round-trip --------------------------------------------------


def report_to_payload(report: LinkQualityReport) -> dict[str, Any]:
    return report._asdict()


def report_from_payload(payload: Mapping[str, Any]) -> LinkQualityReport:
    return LinkQualityReport(**payload)


# -- the component -------------------------------------------------------------


class GenericLinkLayer:
    """Scans, attaches, measures and reports on the run's event loop.

    ``report_all_cells`` widens periodic reporting to every cell of the world
    (network-side load knowledge); candidates are still only covered cells.
    """

    COMPONENT = "gll"

    def __init__(
        self,
        loop: EventLoop,
        env: Environment,
        bus: trg.TriggerBus,
        cfg: Optional[GllConfig] = None,
        report_all_cells: bool = False,
    ):
        self.loop = loop
        self.env = env
        self.bus = bus
        self.cfg = cfg or GllConfig()
        self.cfg.validate()
        self.report_all_cells = report_all_cells
        self.history = AccessHistory(self.cfg.history)
        self.attached: set[str] = set()
        self.detected: dict[str, None] = {}  # insertion-ordered; holds every attached cell
        self._pending_attach: set[str] = set()
        # cell id -> (measurement, service class, payload) of its last report;
        # a report is a function of those two and the run's fixed mapping, so
        # an unchanged cell republishes its payload
        self._last_reports: dict[str, tuple[LinkMeasurement, Optional[str], dict[str, Any]]] = {}
        # (env.generation, class) of the last demanding_class; flows change
        # only with the generation, intervals only through configure_reporting
        self._demanding: Optional[tuple[int, Optional[str]]] = None
        self._tick_scheduled = False
        self._subscribe()

    def _subscribe(self) -> None:
        spec = trg.Subscription(
            consumer_id="gll",
            accepted_types=(
                trg.CELL_COVERAGE_CHANGE,
                trg.ROUTER_ADVERTISEMENT,
                trg.REPORTING_INTERVAL_CHANGE,
            ),
        )
        self.bus.subscribe(spec, self._on_trigger)

    def start(self) -> None:
        """Begin periodic reporting (first tick one interval from now)."""
        self._schedule_tick(self.effective_interval())

    # -- cadence ------------------------------------------------------------

    def demanding_class(self) -> Optional[str]:
        """The service class of the live flow with the shortest interval; the
        first admitted wins a tie."""
        generation = self.env.generation
        held = self._demanding
        if held is None or held[0] != generation:
            held = self._demanding = (generation, min(
                (f.service_class for f in self.env.flows.values()),
                key=self.cfg.reporting.interval_for, default=None))
        return held[1]

    def effective_interval(self) -> int:
        return self.cfg.reporting.interval_for(self.demanding_class())

    def configure_reporting(self, cfg: ReportingConfig) -> None:
        """Check the cadence table and swap it in whole; a new interval takes
        effect at the next tick.  A table that fails its check raises
        ``ValueError`` and changes nothing."""
        cfg.validate()
        self.cfg = replace(self.cfg, reporting=cfg)
        self._demanding = None
        self._schedule_tick(self.effective_interval())

    def _schedule_tick(self, interval_ms: int) -> None:
        if not self.cfg.reporting.enabled or self._tick_scheduled:
            return
        self._tick_scheduled = True
        self.loop.schedule_after(interval_ms, self._tick)

    def _tick(self) -> None:
        self._tick_scheduled = False
        if not self.cfg.reporting.enabled:
            return
        self._detect_sweep()
        # One pass over the flows per tick: no report delivery admits or
        # releases a flow.
        service_class = self.demanding_class()
        self._publish_reports(self._report_targets(), service_class, batch=True)
        self._schedule_tick(self.cfg.reporting.interval_for(service_class))

    # -- detection and measurement -------------------------------------------

    def _detect_sweep(self) -> None:
        for cell in self.env.cells.values():
            if cell.covered and cell.cell_id not in self.detected:
                self._detect(cell)

    def _detect(self, cell: Cell) -> None:
        self.detected[cell.cell_id] = None
        self.bus.publish(trg.Event(trg.NEW_ACCESS_DETECTED, self.COMPONENT, payload={
            "cell": cell.cell_id,
            "rat": cell.rat,
            "operator": cell.operator_id,
            "frequency": cell.frequency,
        }))

    def _report_targets(self) -> list[Cell]:
        if self.report_all_cells:
            return list(self.env.cells.values())
        return [self.env.cells[cell_id] for cell_id in self.detected]

    def measure(self, cell: Cell) -> LinkMeasurement:
        # positional: keyword construction costs more than the tuple itself
        return LinkMeasurement(
            cell.cell_id,
            residual_error_rate(cell.raw_error_rate, self.cfg.mac.retransmissions_for(cell.rat)),
            cell.achievable_rate, cell.base_delay_ms, cell.load, cell.covered)

    def _publish_reports(self, cells: list[Cell], service_class: Optional[str],
                         batch: bool) -> None:
        count = 0
        held = self._last_reports
        for cell in cells:
            measurement = self.measure(cell)
            last = held.get(cell.cell_id)
            if last is not None and last[0] == measurement and last[1] == service_class:
                payload = last[2]
            else:
                report = map_link_quality(measurement, self.cfg.mapping, service_class)
                payload = report_to_payload(report)
                if last is not None and last[2] == payload:
                    payload = last[2]
                held[cell.cell_id] = (measurement, service_class, payload)
            self.bus.publish(trg.Event(trg.LINK_QUALITY_REPORT, self.COMPONENT, payload=payload))
            count += 1
        if batch:
            self.bus.publish(trg.Event(trg.MEASUREMENT_BATCH, self.COMPONENT, payload={
                "count": count,
                "interval_ms": self.cfg.reporting.interval_for(service_class),
            }))

    # -- scanning -------------------------------------------------------------

    def request_scan(self, mode: str) -> None:
        """Probe for accesses; results arrive in a scan-complete event after
        the probing time has elapsed on the sim clock."""
        if mode not in ("targeted", "full"):
            raise ValueError(f"unknown scan mode {mode!r}")
        if mode == "targeted":
            pairs = self.history.pairs()
            cost = self.cfg.targeted_probe_ms * len(pairs)
            energy = sum(self.cfg.probe_energy.get(rat, 1.0) for rat, _ in pairs)
        else:
            rats = sorted({c.rat for c in self.env.cells.values()})
            cost = self.cfg.full_scan_per_rat_ms * len(rats)
            energy = sum(self.cfg.probe_energy.get(c.rat, 1.0)
                         for c in self.env.cells.values())
        self.loop.schedule_after(cost, lambda: self._complete_scan(mode, energy))

    def _complete_scan(self, mode: str, energy: float) -> None:
        results = scan_results(mode, self.history, self.env.cells)
        for cell_id in results:
            if cell_id not in self.detected:
                self._detect(self.env.cells[cell_id])
        self._publish_reports(self._report_targets(), self.demanding_class(), batch=False)
        self.bus.publish(trg.Event(trg.SCAN_COMPLETE, self.COMPONENT, payload={
            "mode": mode,
            "count": len(results),
            "candidates": ",".join(results),
            "energy": energy,
        }))

    # -- attach / detach --------------------------------------------------------

    def attach(self, cell_id: str) -> None:
        """Establish the link after the configured latency.

        Attaching to an already-attached or attach-pending access is a no-op;
        coverage loss during the latency window yields attach-failed.
        """
        if cell_id in self.attached or cell_id in self._pending_attach:
            return
        cell = self.env.cells.get(cell_id)
        if cell is None or not cell.covered:
            self._attach_failed(cell_id, "not-covered")
            return
        self._pending_attach.add(cell_id)
        self.loop.schedule_after(self.cfg.attach_latency_ms,
                                 lambda: self._complete_attach(cell_id))

    def _complete_attach(self, cell_id: str) -> None:
        self._pending_attach.discard(cell_id)
        cell = self.env.cells.get(cell_id)
        if cell is None or not cell.covered:
            self._attach_failed(cell_id, "coverage-lost")
            return
        self.attached.add(cell_id)
        self.history.remember(cell.rat, cell.frequency)
        if cell_id not in self.detected:
            self._detect(cell)
        self._link_up(cell)

    def _attach_failed(self, cell_id: str, reason: str) -> None:
        self.bus.publish(trg.Event(trg.ATTACH_FAILED, self.COMPONENT, payload={
            "cell": cell_id,
            "reason": reason,
        }))

    def force_attach(self, cell_id: str) -> None:
        """Install an attachment instantly (initial scenario state)."""
        cell = self.env.cells[cell_id]
        self.attached.add(cell_id)
        self.detected[cell_id] = None
        self.history.remember(cell.rat, cell.frequency)
        self._link_up(cell)

    def _link_up(self, cell: Cell) -> None:
        self.bus.publish(trg.Event(trg.LINK_UP, self.COMPONENT, payload={
            "cell": cell.cell_id,
            "rat": cell.rat,
            "operator": cell.operator_id,
            "frequency": cell.frequency,
        }))

    def detach(self, cell_id: str) -> None:
        """Tear the link down on request; the caller unmaps any flow on it first."""
        if cell_id not in self.attached:
            raise NotAttachedError(cell_id)
        self.attached.remove(cell_id)
        self.bus.publish(trg.Event(trg.LINK_DOWN, self.COMPONENT, payload={
            "cell": cell_id,
            "reason": "requested",
        }))

    def is_attached(self, cell_id: str) -> bool:
        return cell_id in self.attached

    # -- trigger handling ----------------------------------------------------

    def _on_trigger(self, t: trg.Event) -> None:
        if t.event_type == trg.CELL_COVERAGE_CHANGE:
            self._on_coverage_change(t.payload)
        elif t.event_type == trg.ROUTER_ADVERTISEMENT:
            self._on_router_advertisement(t.payload)
        elif t.event_type == trg.REPORTING_INTERVAL_CHANGE:
            self._on_reporting_change(t.payload)

    def _on_coverage_change(self, payload: Mapping[str, Any]) -> None:
        cell_id = payload["cell"]
        if payload["covered"]:
            return  # picked up by the next tick sweep (or a router advertisement)
        if cell_id not in self.detected:
            return
        del self.detected[cell_id]
        if cell_id in self.attached:
            self.attached.remove(cell_id)
            self.bus.publish(trg.Event(trg.LINK_DOWN, self.COMPONENT, payload={
                "cell": cell_id,
                "reason": "lost",
            }))
        else:
            self.bus.publish(trg.Event(trg.ACCESS_LOST, self.COMPONENT, payload={
                "cell": cell_id,
            }))

    def _on_router_advertisement(self, payload: Mapping[str, Any]) -> None:
        cell = self.env.cells.get(payload.get("cell", ""))
        if cell is None or not cell.covered or cell.cell_id in self.detected:
            return
        self._detect(cell)
        self._publish_reports([cell], self.demanding_class(), batch=True)

    def _on_reporting_change(self, payload: Mapping[str, Any]) -> None:
        """Apply what the payload sets, whole; a change that fails the
        table's check is logged and ignored whole."""
        reporting = self.cfg.reporting
        changed = {}
        if "enabled" in payload:
            changed["enabled"] = payload["enabled"]
        service_class = payload.get("service_class")
        interval = payload.get("interval_ms")
        try:
            if service_class is not None and interval is not None:
                if not isinstance(service_class, str):  # a list cannot even key the table
                    raise ValueError(f"service class {service_class!r} is not a string")
                changed["intervals_ms"] = {**reporting.intervals_ms, service_class: interval}
            self.configure_reporting(replace(reporting, **changed))
        except ValueError as exc:
            logger.warning("ignoring reporting change %r: %s", dict(payload), exc)
