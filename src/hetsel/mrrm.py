"""Multiradio resource management: per-flow access selection and handover control.

Selection runs in two stages.  Stage one, ``round_candidates``, runs once per
decision round: it drops uncovered accesses, filters on the slow-changing
policy constraints (operators, security, cost, roaming, terminal RAT
support), terminates cells at or above the load threshold, and sums every
flow-independent score term (link quality, cell resources, terminal energy
cost, preference) for each survivor.  Stage two, ``select_access``, runs once
per flow: it adds the QoS-fit term and ranks the candidates.  The head of the
ranked list serves each flow, guarded by hysteresis and a failure cool-down.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional

from . import gll as gll_mod
from . import trg
from .gll import AccessCandidate, GenericLinkLayer, LinkMeasurement, LinkQualityReport
from .simenv.env import Cell, Environment
from .simenv.loop import EventLoop

logger = logging.getLogger(__name__)

DEFAULT_PREFERENCE = 0.5


@dataclass
class Flow:
    """One user traffic stream; the unit of access selection."""

    flow_id: str
    service_class: str = "background"
    min_rate: float = 0.0
    max_delay_ms: float = float("inf")
    max_loss: float = 1.0
    resource_demand: int = 1
    serving: Optional[AccessCandidate] = None

    def validate(self) -> None:
        if self.service_class not in gll_mod.SERVICE_CLASSES:
            raise ValueError(f"unknown service_class {self.service_class!r}")
        if self.min_rate < 0 or self.max_delay_ms < 0:
            raise ValueError("QoS fields must be non-negative")
        if not 0.0 <= self.max_loss <= 1.0:
            raise ValueError("max_loss outside [0,1]")
        if self.resource_demand < 0:
            raise ValueError("resource_demand must be non-negative")


@dataclass
class PolicySet:
    """Slow-changing selection constraints and operator preferences.

    An empty ``allowed_operators`` set allows every operator.  Preference
    lookups fall back from the per-operator override (merged from
    policies-check answers) to the static (operator, RAT) table, then 0.5.
    """

    allowed_operators: set[str] = field(default_factory=set)
    denied_operators: set[str] = field(default_factory=set)
    min_security_level: int = 0
    max_cost_per_mb: Optional[float] = None
    roaming_allowed: bool = True
    home_operator: Optional[str] = None
    static_preference: dict[tuple[str, str], float] = field(default_factory=dict)
    operator_preference: dict[str, float] = field(default_factory=dict)

    def preference(self, operator_id: str, rat: str) -> float:
        if operator_id in self.operator_preference:
            return self.operator_preference[operator_id]
        return self.static_preference.get((operator_id, rat), DEFAULT_PREFERENCE)

    def validate(self) -> None:
        if self.allowed_operators & self.denied_operators:
            raise ValueError("allowed and denied operators overlap")
        for table in (self.static_preference, self.operator_preference):
            if any(not 0.0 <= p <= 1.0 for p in table.values()):
                raise ValueError("preferences must lie in [0,1]")
        if not 0 <= self.min_security_level <= 3:
            raise ValueError("min_security_level outside 0..3")


@dataclass
class TerminalCapabilities:
    """What the terminal hardware can do; empty supported_rats means all."""

    supported_rats: set[str] = field(default_factory=set)
    energy_cost: dict[str, float] = field(default_factory=dict)

    def supports(self, rat: str) -> bool:
        return not self.supported_rats or rat in self.supported_rats

    def energy_cost_for(self, rat: str) -> float:
        return self.energy_cost.get(rat, 0.0)

    def validate(self) -> None:
        if any(not 0.0 <= c <= 1.0 for c in self.energy_cost.values()):
            raise ValueError("energy costs must lie in [0,1]")


@dataclass
class SelectionConfig:
    w_qos: float = 0.3
    w_link: float = 0.3
    w_cell: float = 0.2
    w_term: float = 0.1
    w_pol: float = 0.1
    load_threshold: float = 0.9
    hysteresis_delta: float = 0.05
    quality_floor: float = 0.1
    failure_cooldown_ms: int = 5000

    def validate(self) -> None:
        weights = (self.w_qos, self.w_link, self.w_cell, self.w_term, self.w_pol)
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        for name in ("load_threshold", "hysteresis_delta", "quality_floor"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} outside [0,1]")
        if self.failure_cooldown_ms < 0:
            raise ValueError("failure_cooldown_ms must be >= 0")


@dataclass(frozen=True)
class RankedList:
    """Scored candidates for one flow, best first."""

    flow_id: str
    entries: tuple[tuple[AccessCandidate, float], ...]
    serving_score: Optional[float] = None  # None when the serving access is not ranked

    @property
    def head(self) -> Optional[AccessCandidate]:
        return self.entries[0][0] if self.entries else None


@dataclass(frozen=True)
class RoundCandidates:
    """Stage-one result of one decision round, shared by every flow.

    ``entries`` holds the admitted candidates in lexicographic order, each
    with its raw measurement and its score for a QoS-feasible and for an
    infeasible flow; ``position`` maps a candidate to its index there.
    """

    entries: tuple[tuple[AccessCandidate, LinkMeasurement, float, float], ...]
    position: dict[AccessCandidate, int]


# -- pure selection pipeline ---------------------------------------------------


def policy_filter(
    candidates: Iterable[AccessCandidate],
    policies: PolicySet,
    caps: TerminalCapabilities,
    cell_meta: Mapping[str, Cell],
) -> list[AccessCandidate]:
    """Stage one's policy check: drop disallowed accesses, order the rest by
    preference."""
    kept = []
    for candidate in candidates:
        meta = cell_meta.get(candidate.cell_id)
        if meta is None:
            continue
        op = candidate.operator_id
        if policies.allowed_operators and op not in policies.allowed_operators:
            continue
        if op in policies.denied_operators:
            continue
        if meta.security_level < policies.min_security_level:
            continue
        if policies.max_cost_per_mb is not None and meta.cost_per_mb > policies.max_cost_per_mb:
            continue
        if (not policies.roaming_allowed and policies.home_operator is not None
                and op != policies.home_operator):
            continue
        if not caps.supports(candidate.rat):
            continue
        kept.append(candidate)
    kept.sort(key=lambda c: (-policies.preference(c.operator_id, c.rat), c.sort_key()))
    return kept


def _score(
    f_qos: float,
    report: LinkQualityReport,
    policies: PolicySet,
    caps: TerminalCapabilities,
    cfg: SelectionConfig,
) -> float:
    """The one score formula; ``f_qos`` is 1.0 or 0.0.  Both stages sum
    through here, in this order, so their scores are bit-identical."""
    candidate = report.candidate
    return (cfg.w_qos * f_qos
            + cfg.w_link * report.quality
            + cfg.w_cell * report.relative_resources
            + cfg.w_term * (1.0 - caps.energy_cost_for(candidate.rat))
            + cfg.w_pol * policies.preference(candidate.operator_id, candidate.rat))


def dynamic_score(
    flow: Flow,
    report: LinkQualityReport,
    policies: PolicySet,
    caps: TerminalCapabilities,
    cfg: SelectionConfig,
) -> float:
    """Weighted sum of the five decision factors for one flow on one access."""
    f_qos = 1.0 if gll_mod.qos_feasible(flow, report.raw) else 0.0
    return _score(f_qos, report, policies, caps, cfg)


def round_candidates(
    reports: Iterable[LinkQualityReport],
    policies: PolicySet,
    caps: TerminalCapabilities,
    cfg: SelectionConfig,
    cell_meta: Mapping[str, Cell],
) -> RoundCandidates:
    """Stage one, once per decision round: everything no flow changes.

    Uncovered accesses are not candidates, the policy filter applies, and
    cells at or above the load threshold are terminated outright.  Each
    survivor's two possible scores are summed exactly as ``dynamic_score``
    sums them, so stage two only has to pick one.
    """
    by_candidate = {r.candidate: r for r in reports if r.raw.covered}
    allowed = policy_filter(by_candidate.keys(), policies, caps, cell_meta)
    entries = []
    for candidate in sorted(allowed, key=AccessCandidate.sort_key):
        report = by_candidate[candidate]
        if report.raw.load >= cfg.load_threshold:
            continue
        entries.append((candidate, report.raw,
                        _score(1.0, report, policies, caps, cfg),
                        _score(0.0, report, policies, caps, cfg)))
    return RoundCandidates(
        entries=tuple(entries),
        position={entry[0]: i for i, entry in enumerate(entries)},
    )


def select_access(flow: Flow, stage: RoundCandidates) -> RankedList:
    """Stage two, once per flow: rank the round's candidates for ``flow``.

    Ties break serving-access-first and then lexicographically.  An empty
    list means no feasible access.
    """
    serving = stage.position.get(flow.serving, -1)
    qos_feasible = gll_mod.qos_feasible
    scores = [feasible if qos_feasible(flow, raw) else infeasible
              for _, raw, feasible, infeasible in stage.entries]
    # False sorts before True: the serving access wins a score tie
    order = sorted((-score, i != serving, i) for i, score in enumerate(scores))
    entries = tuple((stage.entries[i][0], scores[i]) for _, _, i in order)
    serving_score = scores[serving] if serving >= 0 else None
    return RankedList(flow_id=flow.flow_id, entries=entries, serving_score=serving_score)


# -- the component ---------------------------------------------------------------


@dataclass
class _OperatorState:
    verdict: str  # pending | allow | deny | timeout
    asked_at: int


@dataclass
class _InFlight:
    stage: str  # attaching | executing
    flow: Flow
    target: AccessCandidate
    source: Optional[AccessCandidate]


class MultiRadioResourceManager:
    """Event-driven decision engine on top of GLL and the trigger bus."""

    COMPONENT = "mrrm"

    SUBSCRIBED_TYPES = (
        trg.LINK_QUALITY_REPORT,
        trg.MEASUREMENT_BATCH,
        trg.SCAN_COMPLETE,
        trg.NEW_ACCESS_DETECTED,
        trg.ACCESS_LOST,
        trg.LINK_UP,
        trg.LINK_DOWN,
        trg.ATTACH_FAILED,
        trg.FLOW_ARRIVAL,
        trg.FLOW_DEPARTURE,
        trg.HANDOVER_COMPLETE,
        trg.HANDOVER_FAILED,
        trg.QOS_UNSATISFIED,
        trg.POLICY_CHANGED,
        trg.POLICIES_CHECK_ANSWER,
    )

    def __init__(
        self,
        loop: EventLoop,
        env: Environment,
        bus: trg.TriggerBus,
        gll: GenericLinkLayer,
        policies: Optional[PolicySet] = None,
        selection: Optional[SelectionConfig] = None,
        caps: Optional[TerminalCapabilities] = None,
        record: Optional[Callable[[str, dict[str, Any]], None]] = None,
        policies_check_timeout_ms: int = 1000,
        make_before_break: bool = True,
    ):
        self.loop = loop
        self.env = env
        self.bus = bus
        self.gll = gll
        self.policies = policies or PolicySet()
        self.selection = selection or SelectionConfig()
        self.caps = caps or TerminalCapabilities()
        self.make_before_break = make_before_break
        self.policies_check_timeout_ms = policies_check_timeout_ms
        self._record = record or (lambda kind, attrs: None)
        self.flows = env.flows
        self.reports: dict[AccessCandidate, LinkQualityReport] = {}
        self.operators: dict[str, _OperatorState] = {}
        self.cooldown_until: dict[AccessCandidate, int] = {}
        self.in_flight: dict[str, _InFlight] = {}
        self._scan_pending: Optional[str] = None
        self._set_dirty = False
        self._deciding = False
        self._decide_again = False
        bus.subscribe(
            trg.Subscription(consumer_id="mrrm", accepted_types=self.SUBSCRIBED_TYPES),
            self.on_trigger,
        )

    def start(self) -> None:
        """Initial access discovery: targeted scan, full scan only as fallback."""
        self._start_scan()

    # -- scanning ------------------------------------------------------------

    def _start_scan(self) -> None:
        if self._scan_pending is not None:
            return
        self._scan_pending = "targeted"
        self.gll.request_scan("targeted")

    def _on_scan_complete(self, payload: Mapping[str, Any]) -> None:
        mode = payload["mode"]
        if mode == "targeted" and payload["count"] == 0:
            self._scan_pending = "full"
            self.gll.request_scan("full")
            return
        self._scan_pending = None
        self.candidate_report()
        self.decide()

    # -- candidate bookkeeping --------------------------------------------------

    def _drop_reports_for_cell(self, cell_id: str) -> None:
        stale = [c for c in self.reports if c.cell_id == cell_id]
        for candidate in stale:
            del self.reports[candidate]
        if stale:
            self._set_dirty = True

    def candidate_report(self) -> list[LinkQualityReport]:
        """Current candidate set; also published so upper layers can follow
        multiaccess availability without any coupling to this component."""
        entries = sorted(
            (r for r in self.reports.values() if r.raw.covered),
            key=lambda r: r.candidate.sort_key(),
        )
        self.bus.publish(trg.Event(trg.CANDIDATE_REPORT, self.COMPONENT, payload={
            "count": len(entries),
            "candidates": ",".join(r.candidate.cell_id for r in entries),
        }))
        self._set_dirty = False
        return entries

    # -- policies check -----------------------------------------------------------

    def policies_check(self, operator_id: str, cell_id: str, rat: str) -> None:
        """Ask the trigger layer about a newly seen operator.

        Until the answer arrives the operator's accesses stay out of
        selection; with no answer within the timeout they are treated as
        denied until the operator is detected again.
        """
        asked_at = self.loop.now
        self.operators[operator_id] = _OperatorState("pending", asked_at)
        self.bus.publish(trg.Event(trg.POLICIES_CHECK_REQUEST, self.COMPONENT, payload={
            "operator": operator_id,
            "cell": cell_id,
            "rat": rat,
        }))
        self.loop.schedule_after(
            self.policies_check_timeout_ms,
            lambda: self._policies_check_timeout(operator_id, asked_at),
        )

    def _policies_check_timeout(self, operator_id: str, asked_at: int) -> None:
        state = self.operators.get(operator_id)
        if state is not None and state.verdict == "pending" and state.asked_at == asked_at:
            state.verdict = "timeout"
            logger.info("policies-check for %s timed out; treating as denied", operator_id)

    def _operator_admitted(self, operator_id: str) -> bool:
        state = self.operators.get(operator_id)
        return state is None or state.verdict == "allow"

    # -- decision pipeline ----------------------------------------------------------

    def usable_reports(self) -> list[LinkQualityReport]:
        now = self.loop.now
        usable = []
        for candidate, report in self.reports.items():
            if self.cooldown_until.get(candidate, -1) > now:
                continue
            if not self._operator_admitted(candidate.operator_id):
                continue
            usable.append(report)
        return usable

    def decide(self) -> list[dict[str, Any]]:
        """Re-run selection for every flow; returns the decision records."""
        if self._deciding:
            self._decide_again = True
            return []
        self._deciding = True
        try:
            decisions = self._decide_once()
            while self._decide_again:
                self._decide_again = False
                decisions = self._decide_once()
            return decisions
        finally:
            self._deciding = False

    def _decide_once(self) -> list[dict[str, Any]]:
        # Demand already committed to targets of unfinished attaches this and
        # previous rounds; executing handovers have charged real resources.
        tentative: dict[str, int] = {}
        for entry in self.in_flight.values():
            if entry.stage == "attaching":
                cell = entry.target.cell_id
                tentative[cell] = tentative.get(cell, 0) + entry.flow.resource_demand
        stage = round_candidates(self.usable_reports(), self.policies, self.caps,
                                 self.selection, self.env.cells)
        decisions = []
        for flow_id in sorted(self.flows):
            flow = self.flows[flow_id]
            if flow_id in self.in_flight:
                continue
            ranked = select_access(flow, stage)
            decision = self._assign(flow, ranked, tentative)
            decisions.append(decision)
            self._record("decision", decision)
        return decisions

    def _fits(self, flow: Flow, candidate: AccessCandidate, tentative: dict[str, int]) -> bool:
        if candidate == flow.serving:
            return True
        residual = self.env.residual_resources(candidate.cell_id) - tentative.get(candidate.cell_id, 0)
        return residual >= flow.resource_demand

    def _assign(self, flow: Flow, ranked: RankedList, tentative: dict[str, int]) -> dict[str, Any]:
        decision: dict[str, Any] = {
            "flow": flow.flow_id,
            "candidates": len(ranked.entries),
            "serving": flow.serving.cell_id if flow.serving else "",
            "action": "none",
            "target": "",
        }
        target: Optional[AccessCandidate] = None
        target_score = 0.0
        for candidate, score in ranked.entries:
            if self._fits(flow, candidate, tentative):
                target, target_score = candidate, score
                break
        if target is None:
            return decision
        decision["target"] = target.cell_id
        decision["target_score"] = target_score
        if flow.serving is None:
            decision["action"] = "attach"
            self._initiate(flow, target, source=None, tentative=tentative)
            return decision
        if target == flow.serving:
            return decision
        serving_score = ranked.serving_score or 0.0
        decision["serving_score"] = serving_score
        if target_score - serving_score >= self.selection.hysteresis_delta:
            decision["action"] = "handover"
            self._initiate(flow, target, source=flow.serving, tentative=tentative)
        return decision

    def _initiate(self, flow: Flow, target: AccessCandidate,
                  source: Optional[AccessCandidate], tentative: dict[str, int]) -> None:
        tentative[target.cell_id] = tentative.get(target.cell_id, 0) + flow.resource_demand
        entry = _InFlight("attaching", flow, target, source)
        self.in_flight[flow.flow_id] = entry
        if not self.make_before_break and source is not None:
            self._break_source(flow, source)
        if self.gll.is_attached(target.cell_id):
            self._after_link_up(entry)
        else:
            self.gll.attach(target)

    def _break_source(self, flow: Flow, source: AccessCandidate) -> None:
        """Break-before-make: tear the old link down first (the service gap
        this opens is recorded honestly in the run statistics)."""
        others = any(f.serving == source and f.flow_id != flow.flow_id
                     for f in self.flows.values())
        if others or not self.gll.is_attached(source.cell_id):
            return
        self.gll.detach(source)

    def _after_link_up(self, entry: _InFlight) -> None:
        flow, target = entry.flow, entry.target
        if not self.env.map_flow(flow, target.cell_id):
            logger.info("resources on %s gone before mapping %s; will retry",
                        target.cell_id, flow.flow_id)
            del self.in_flight[flow.flow_id]
            return
        if entry.source is None:
            del self.in_flight[flow.flow_id]
            flow.serving = target
            self.bus.publish(trg.Event(trg.FLOW_MAPPED, self.COMPONENT, payload={
                "flow": flow.flow_id,
                "cell": target.cell_id,
            }))
        else:
            entry.stage = "executing"
            self.request_handover(flow, target, entry.source)

    def request_handover(self, flow: Flow, target: AccessCandidate,
                         source: AccessCandidate) -> None:
        """Hand execution to the mobility layer; serving changes only once
        the handover-complete event arrives."""
        self.bus.publish(trg.Event(trg.HANDOVER_EXECUTION_REQUEST, self.COMPONENT, payload={
            "flow": flow.flow_id,
            "from": source.cell_id,
            "to": target.cell_id,
        }))

    # -- trigger handling --------------------------------------------------------

    def on_trigger(self, t: trg.Trigger) -> None:
        handler = self._HANDLERS.get(t.event_type)
        if handler is None:
            logger.warning("mrrm ignoring unknown trigger type %s", t.event_type)
            return
        handler(self, t.payload)

    def _on_report(self, payload: Mapping[str, Any]) -> None:
        report = gll_mod.report_from_payload(payload)
        if report.candidate not in self.reports:
            self._set_dirty = True
        self.reports[report.candidate] = report

    def _on_batch(self, payload: Mapping[str, Any]) -> None:
        if self._set_dirty:
            self.candidate_report()
        self._check_quality_floor()
        self.decide()

    def _check_quality_floor(self) -> None:
        if self._scan_pending is not None:
            return
        for flow_id in sorted(self.flows):
            flow = self.flows[flow_id]
            if flow.serving is None or flow_id in self.in_flight:
                continue
            report = self.reports.get(flow.serving)
            quality = report.quality if report is not None else 0.0
            if quality < self.selection.quality_floor:
                self._start_scan()
                return

    def _on_new_access(self, payload: Mapping[str, Any]) -> None:
        operator_id = payload["operator"]
        state = self.operators.get(operator_id)
        if state is None or state.verdict == "timeout":
            self.policies_check(operator_id, payload["cell"], payload["rat"])

    def _on_access_lost(self, payload: Mapping[str, Any]) -> None:
        self._drop_reports_for_cell(payload["cell"])

    def _on_link_up(self, payload: Mapping[str, Any]) -> None:
        cell_id = payload["cell"]
        waiting = [fid for fid in sorted(self.in_flight)
                   if self.in_flight[fid].stage == "attaching"
                   and self.in_flight[fid].target.cell_id == cell_id]
        for flow_id in waiting:
            self._after_link_up(self.in_flight[flow_id])

    def _on_link_down(self, payload: Mapping[str, Any]) -> None:
        cell_id = payload["cell"]
        self._drop_reports_for_cell(cell_id)
        if payload.get("reason") == "lost":
            self.decide()

    def _on_attach_failed(self, payload: Mapping[str, Any]) -> None:
        cell_id = payload["cell"]
        stuck = [fid for fid, entry in self.in_flight.items()
                 if entry.stage == "attaching" and entry.target.cell_id == cell_id]
        for flow_id in stuck:
            del self.in_flight[flow_id]

    def _on_flow_arrival(self, payload: Mapping[str, Any]) -> None:
        self.decide()

    def _on_flow_departure(self, payload: Mapping[str, Any]) -> None:
        entry = self.in_flight.pop(payload["flow"], None)
        if entry is not None and entry.stage == "executing":
            self.env.unmap_flow(entry.flow, entry.target.cell_id)
        self._detach_unused()

    def _on_handover_complete(self, payload: Mapping[str, Any]) -> None:
        flow = self.flows.get(payload["flow"])
        self.in_flight.pop(payload["flow"], None)
        if flow is None:
            return
        source_id = payload["from"]
        target_cell = self.env.cells[payload["to"]]
        self.env.unmap_flow(flow, source_id)
        flow.serving = gll_mod.candidate_for(target_cell)
        self.bus.publish(trg.Event(trg.FLOW_MAPPED, self.COMPONENT, payload={
            "flow": flow.flow_id,
            "cell": target_cell.cell_id,
        }))
        self._detach_unused()

    def _on_handover_failed(self, payload: Mapping[str, Any]) -> None:
        entry = self.in_flight.pop(payload["flow"], None)
        if entry is None:
            return
        self.env.unmap_flow(entry.flow, entry.target.cell_id)
        self.cooldown_until[entry.target] = self.loop.now + self.selection.failure_cooldown_ms

    def _detach_unused(self) -> None:
        """Release attached accesses no flow uses and no handover still needs."""
        busy = {f.serving.cell_id for f in self.flows.values() if f.serving is not None}
        for entry in self.in_flight.values():
            busy.add(entry.target.cell_id)
            if entry.source is not None:
                busy.add(entry.source.cell_id)
        for cell_id in sorted(set(self.gll.attached) - busy):
            self.gll.detach(self.gll.attached[cell_id])

    def _on_qos_unsatisfied(self, payload: Mapping[str, Any]) -> None:
        self._start_scan()

    def _on_policy_changed(self, payload: Mapping[str, Any]) -> None:
        action = payload.get("action")
        operator = payload.get("operator", "")
        value = payload.get("value")
        if action == "deny-operator":
            self.policies.denied_operators.add(operator)
        elif action == "allow-operator":
            self.policies.denied_operators.discard(operator)
            if self.policies.allowed_operators:
                self.policies.allowed_operators.add(operator)
        elif action == "set-min-security":
            self.policies.min_security_level = int(value)
        elif action == "set-max-cost":
            self.policies.max_cost_per_mb = float(value)
        elif action == "set-roaming":
            self.policies.roaming_allowed = bool(value)
        elif action == "set-preference":
            self.policies.operator_preference[operator] = float(value)
        else:
            logger.warning("ignoring unknown policy change action %r", action)
            return
        self.decide()

    def _on_policies_check_answer(self, payload: Mapping[str, Any]) -> None:
        operator = payload["operator"]
        verdict = payload["verdict"]
        state = self.operators.get(operator)
        if state is None:
            state = _OperatorState("pending", self.loop.now)
            self.operators[operator] = state
        state.verdict = "allow" if verdict == "allow" else "deny"
        if verdict == "deny":
            self.policies.denied_operators.add(operator)
        preference = payload.get("preference")
        if preference is not None:
            self.policies.operator_preference[operator] = float(preference)
        self.decide()

    _HANDLERS: dict[str, Callable[["MultiRadioResourceManager", Mapping[str, Any]], None]] = {
        trg.LINK_QUALITY_REPORT: _on_report,
        trg.MEASUREMENT_BATCH: _on_batch,
        trg.SCAN_COMPLETE: _on_scan_complete,
        trg.NEW_ACCESS_DETECTED: _on_new_access,
        trg.ACCESS_LOST: _on_access_lost,
        trg.LINK_UP: _on_link_up,
        trg.LINK_DOWN: _on_link_down,
        trg.ATTACH_FAILED: _on_attach_failed,
        trg.FLOW_ARRIVAL: _on_flow_arrival,
        trg.FLOW_DEPARTURE: _on_flow_departure,
        trg.HANDOVER_COMPLETE: _on_handover_complete,
        trg.HANDOVER_FAILED: _on_handover_failed,
        trg.QOS_UNSATISFIED: _on_qos_unsatisfied,
        trg.POLICY_CHANGED: _on_policy_changed,
        trg.POLICIES_CHECK_ANSWER: _on_policies_check_answer,
    }
