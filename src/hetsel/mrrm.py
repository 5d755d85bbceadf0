"""Multiradio resource management: per-flow access selection and handover control.

Selection runs in two stages.  Stage one, ``round_candidates``, runs once per
decision round, in one pass over the reports the manager hands it: it drops
uncovered accesses, cells at or above the load threshold and accesses the
slow-changing policy constraints exclude (operators, security, cost,
roaming, terminal RAT support), and sums every flow-independent score term
(link quality, cell resources, terminal energy cost, preference) for each
survivor.  The manager hands it only the reports of cells out of failure
cool-down whose operator has passed its policies check.  Stage two,
``select_access``, runs once per flow: it adds the QoS-fit term, scores
every candidate but the serving one at its post-move load, and picks the
best candidate with room for the flow, which serves it, guarded by
hysteresis and a failure cool-down.

Stage two stops early, as Fagin's threshold algorithm does.  A candidate's
stage-one score for a QoS-feasible flow bounds every score a flow can give
it: the QoS miss and the load correction only subtract.  So stage two walks
the candidates in bound order and stops at the first bound strictly below
the best score with room found so far; a candidate it has not reached can
neither win nor rank ahead of the winner.

Post-move load: a serving cell's report already counts the flow's own demand,
a target's does not, and neither counts the demand that earlier flows of the
same round have moved there.  So stage two subtracts
``w_cell * (tentative[cell] + resource_demand) / total_resources`` from every
non-serving candidate's score.  Flows then compare like with like and do not
all jump to the same lightly loaded cell and back.  The load term inside link
quality (``q_load``) keeps the reported load.

A round reads each candidate once, at its start: its stage-one entry is that
snapshot, and stage two and the fit check read it.  ``tentative`` is the
demand the snapshot lacks, that of unfinished attaches, this round's
included, and is taken off a target's score and residual alike; so capacity
that break-before-make frees mid-round is seen a round later.  A flow whose
serving cell is reported again but is not its target, say because the cell's
operator is now denied, drops the cell with a ``release`` decision.

A round replays the last settled one, the last round decided afresh if it
initiated nothing, when nothing it reads can have changed since; it then
runs neither stage.  The writers of that state keep the marks that say so,
whether or not their events are delivered: this component's generation,
bumped by every event it handles but a report or a batch, by a report
payload it does not hold (GLL makes a new one exactly when a report
changes) and by a policies check that times out; the
environment's generation, bumped by every write to cells, flows and charges;
and the set of attached links.  Time alone changes one input, a cool-down's
expiry, so a replay also needs the clock before the earliest cool-down that
was pending at the settle.

Each decision of a round decided afresh goes to ``record``, and the
component keeps no reference to it; a replayed round records nothing.

Arrivals do not decide at once.  The first ``flow-arrival`` of an instant
schedules one round at that same instant, after everything already due then,
and a round that runs first for any other reason makes it unnecessary.  So a
burst of N arrivals ranks the flows once, not N times.

Every piece of run state names an access by its cell id, as flows, events
and the environment do: reports, rankings, failure cool-downs, the stage-one
position index and the cells of unfinished attaches and handovers.  Stage one
reads an access's RAT, operator and other attributes from its ``Cell``, and
its measured numbers from its report: the ``link-quality-report`` payload GLL
last published for the cell, held as it is.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

from . import trg
from .gll import GenericLinkLayer
from .simenv.env import Cell, Environment, Flow
from .simenv.loop import EventLoop

logger = logging.getLogger(__name__)

DEFAULT_PREFERENCE = 0.5


def _is_number(value: Any) -> bool:
    """A JSON number that is not NaN; a bool is not a number here."""
    return type(value) in (int, float) and value == value


def _is_preference(value: Any) -> bool:
    return _is_number(value) and 0.0 <= value <= 1.0


def _is_security_level(value: Any) -> bool:
    return type(value) is int and 0 <= value <= 3


def _is_name(value: Any) -> bool:
    return type(value) is str and value != ""


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
            if not all(map(_is_preference, table.values())):
                raise ValueError("preferences must lie in [0,1]")
        if not _is_security_level(self.min_security_level):
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
    """One flow's stage-two result.

    ``entries`` is the flow's ranking, best first, up to and including
    ``target``, the best candidate with room for the flow; with no such
    candidate, ``target`` is None and ``entries`` the whole ranking.
    """

    entries: tuple[tuple[str, float], ...]  # (cell id, score)
    serving_score: Optional[float]  # None when the serving access is not a candidate
    target: Optional[str]


@dataclass(frozen=True)
class RoundCandidates:
    """Stage-one result of one decision round, shared by every flow.

    ``entries`` holds the admitted candidates in ``_identity`` order, each as
    the round's one snapshot of it: cell id, rate, delay, residual error, the
    scores of a QoS-feasible and of an infeasible flow, the score a unit of
    demand costs (``w_cell / total_resources``) and the residual resources,
    which lack ``tentative``; ``position`` maps a cell id to its index there.
    ``by_bound`` lists the indices by descending feasible score, the bound
    on any flow's score, and then by index.
    """

    entries: tuple[tuple[str, float, float, float, float, float, float, int], ...]
    position: dict[str, int]
    by_bound: tuple[int, ...]


# -- pure selection pipeline ---------------------------------------------------


def _identity(cell: Cell) -> tuple[str, str, str]:
    """Candidates are listed by operator, then RAT, then cell id."""
    return (cell.operator_id, cell.rat, cell.cell_id)


def _carries(flow: Flow, rate: float, delay_ms: float, error_rate: float) -> bool:
    return rate >= flow.min_rate and delay_ms <= flow.max_delay_ms and error_rate <= flow.max_loss


def _score(
    f_qos: float,
    report: Mapping[str, Any],
    cell: Cell,
    policies: PolicySet,
    caps: TerminalCapabilities,
    cfg: SelectionConfig,
) -> float:
    """The one score formula; ``f_qos`` is 1.0 or 0.0, the QoS-fit term."""
    return (cfg.w_qos * f_qos
            + cfg.w_link * report["quality"]
            + cfg.w_cell * report["q_load"]
            + cfg.w_term * (1.0 - caps.energy_cost_for(cell.rat))
            + cfg.w_pol * policies.preference(cell.operator_id, cell.rat))


def round_candidates(
    reports: Iterable[Mapping[str, Any]],
    policies: PolicySet,
    caps: TerminalCapabilities,
    cfg: SelectionConfig,
    cells: Mapping[str, Cell],
) -> RoundCandidates:
    """Stage one, once per decision round: everything no flow changes.

    One pass over ``reports`` drops an access that is uncovered, at or above
    the load threshold, excluded by the policies (operator not allowed or
    denied, security too low, cost too high, roaming) or of a RAT the
    terminal does not support.  Each survivor's two possible scores, for a
    QoS-feasible and an infeasible flow, are summed here, so stage two only
    has to pick one and correct it for load.
    """
    kept = []
    for report in reports:
        if not report["covered"]:
            continue
        if report["load"] >= cfg.load_threshold:
            continue
        cell = cells[report["cell"]]
        operator = cell.operator_id
        if policies.allowed_operators and operator not in policies.allowed_operators:
            continue
        if operator in policies.denied_operators:
            continue
        if cell.security_level < policies.min_security_level:
            continue
        if policies.max_cost_per_mb is not None and cell.cost_per_mb > policies.max_cost_per_mb:
            continue
        if (not policies.roaming_allowed and policies.home_operator is not None
                and operator != policies.home_operator):
            continue
        if not caps.supports(cell.rat):
            continue
        kept.append((_identity(cell),
                     (cell.cell_id,
                      report["achievable_rate"], report["delay_ms"],
                      report["residual_error_rate"],
                      _score(1.0, report, cell, policies, caps, cfg),
                      _score(0.0, report, cell, policies, caps, cfg),
                      cfg.w_cell / cell.total_resources,
                      cell.total_resources - cell.used_resources)))
    kept.sort()
    entries = tuple(entry for _, entry in kept)
    return RoundCandidates(entries=entries,
                           position={entry[0]: i for i, entry in enumerate(entries)},
                           by_bound=tuple(sorted(range(len(entries)),
                                                 key=lambda i: (-entries[i][4], i))))


def select_access(flow: Flow, stage: RoundCandidates,
                  tentative: Mapping[str, int], holds: bool) -> RankedList:
    """Stage two, once per flow: rank the round's candidates for ``flow``
    until the best one with room for it is known.

    Every candidate but the serving one is scored at its post-move load: its
    cell's ``tentative`` demand plus the flow's own.  Ties break
    serving-access-first and then lexicographically.  A candidate has room
    when its residual less ``tentative`` covers the flow's demand; the
    serving one also when it ``holds`` the flow's link and charge.  The walk
    goes in bound order and stops at a bound strictly below the best score
    with room, since an equal bound can still win a tie.
    """
    entries = stage.entries
    serving = stage.position.get(flow.serving, -1)
    demand = flow.resource_demand
    serving_score = None
    if serving >= 0:
        _, rate, delay, error, feasible, infeasible, _, _ = entries[serving]
        serving_score = feasible if _carries(flow, rate, delay, error) else infeasible
    ranked = []
    best: Optional[tuple[float, bool, int]] = None
    best_score = -math.inf
    for i in stage.by_bound:
        cell_id, rate, delay, error, feasible, infeasible, per_unit, residual = entries[i]
        if feasible < best_score:
            break
        committed = tentative.get(cell_id, 0)
        if i == serving:
            score = serving_score
            fits = holds or residual - committed >= demand
        else:
            score = ((feasible if _carries(flow, rate, delay, error) else infeasible)
                     - per_unit * (committed + demand))
            fits = residual - committed >= demand
        # False sorts before True: the serving access wins a score tie
        key = (-score, i != serving, i)
        ranked.append(key)
        if fits and (best is None or key < best):
            best, best_score = key, score
    ranked.sort()
    if best is not None:
        del ranked[ranked.index(best) + 1:]
    return RankedList(tuple((entries[i][0], -negated) for negated, _, i in ranked),
                      serving_score, entries[best[2]][0] if best is not None else None)


# -- the component ---------------------------------------------------------------


@dataclass
class _OperatorState:
    verdict: str  # pending | allow | deny | timeout
    asked_at: int


@dataclass
class _InFlight:
    stage: str  # attaching | executing
    flow: Flow
    target: str
    source: Optional[str]  # None for a first attach


class MultiRadioResourceManager:
    """Event-driven decision engine on top of GLL and the trigger bus."""

    COMPONENT = "mrrm"

    def __init__(
        self,
        loop: EventLoop,
        env: Environment,
        bus: trg.TriggerBus,
        gll: GenericLinkLayer,
        policies: Optional[PolicySet] = None,
        selection: Optional[SelectionConfig] = None,
        caps: Optional[TerminalCapabilities] = None,
        record: Optional[Callable[[dict[str, Any]], None]] = None,
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
        self._record = record or (lambda decision: None)
        self.flows = env.flows
        # cell id -> the link-quality-report payload GLL last published for it
        self.reports: dict[str, Mapping[str, Any]] = {}
        self.operators: dict[str, _OperatorState] = {}
        self.cooldown_until: dict[str, int] = {}
        self.in_flight: dict[str, _InFlight] = {}
        self._scan_pending: Optional[str] = None
        self._set_dirty = False
        self._deciding = False
        self._decide_again = False
        # True from a flow-arrival until the next round has run
        self._arrivals_undecided = False
        # counts this component's own writes to what a round reads
        self._generation = 0
        # (marks, earliest cool-down expiry then pending) of the last round
        # decided afresh, when it initiated nothing
        self._settled: Optional[tuple[tuple, float]] = None
        # (this component's generation, the environment's) at the last
        # quality-floor walk that found no flow under the floor
        self._floor_clear: Optional[tuple[int, int]] = None
        bus.subscribe(
            trg.Subscription(consumer_id="mrrm", accepted_types=tuple(self._HANDLERS)),
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

    def _drop_report(self, cell_id: str) -> None:
        if self.reports.pop(cell_id, None) is not None:
            self._set_dirty = True

    def candidate_report(self) -> None:
        """Publish the current candidate set, so that upper layers can follow
        multiaccess availability without any coupling to this component."""
        cells = sorted((self.env.cells[r["cell"]] for r in self.reports.values()
                        if r["covered"]), key=_identity)
        self.bus.publish(trg.Event(trg.CANDIDATE_REPORT, self.COMPONENT, payload={
            "count": len(cells),
            "candidates": ",".join(cell.cell_id for cell in cells),
        }))
        self._set_dirty = False

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
            self._generation += 1
            logger.info("policies-check for %s timed out; treating as denied", operator_id)

    def _operator_admitted(self, operator_id: str) -> bool:
        """False while a policies check is pending or after it timed out.  A
        denial lives in ``policies.denied_operators`` alone, so that an
        ``allow-operator`` policy change re-admits the operator."""
        state = self.operators.get(operator_id)
        return state is None or state.verdict not in ("pending", "timeout")

    # -- decision pipeline ----------------------------------------------------------

    def usable_reports(self) -> Iterator[Mapping[str, Any]]:
        """The reports stage one reads: those of cells out of failure
        cool-down whose operator is admitted."""
        now = self.loop.now
        for cell_id, report in self.reports.items():
            if (self.cooldown_until.get(cell_id, -1) <= now
                    and self._operator_admitted(self.env.cells[cell_id].operator_id)):
                yield report

    def decide(self) -> None:
        """Re-run selection for every flow; each decision goes to ``record``."""
        if self._deciding:
            self._decide_again = True
            return
        self._deciding = True
        try:
            self._decide_once()
            while self._decide_again:
                self._decide_again = False
                self._decide_once()
        finally:
            self._deciding = False

    def _decide_once(self) -> None:
        self._arrivals_undecided = False
        now = self.loop.now
        inputs = self._round_inputs()
        settled = self._settled
        if settled is not None and settled[0] == inputs and now < settled[1]:
            return
        # The demand the round's snapshot lacks: unfinished attaches, this
        # round's included; executing handovers are charged in the snapshot.
        tentative: dict[str, int] = {}
        for entry in self.in_flight.values():
            if entry.stage == "attaching":
                demand = entry.flow.resource_demand
                tentative[entry.target] = tentative.get(entry.target, 0) + demand
        stage = round_candidates(self.usable_reports(), self.policies, self.caps,
                                 self.selection, self.env.cells)
        pending = [self.flows[flow_id] for flow_id in sorted(self.flows)
                   if flow_id not in self.in_flight]
        settles = True
        for flow in pending:
            # A serving cell that lost coverage and regained it holds neither
            # the flow's link nor its charge: the flow must attach there afresh.
            holds = self._holds(flow)
            ranked = select_access(flow, stage, tentative, holds)
            decision = self._assign(flow, ranked, holds, len(stage.entries), tentative)
            settles = settles and decision["action"] == "none"
            self._record(decision)
        self._settled = None
        if settles:
            expiry = min((t for t in self.cooldown_until.values() if t > now), default=math.inf)
            self._settled = (inputs, expiry)

    def _round_inputs(self) -> tuple:
        """The round's marks: this component's generation, the environment's
        and the attached links.  Until a cool-down expires, equal marks mean
        equal round inputs, so equal decisions."""
        return (self._generation, self.env.generation, frozenset(self.gll.attached))

    def _holds(self, flow: Flow) -> bool:
        """True when the serving access still holds the flow's link and charge."""
        serving = flow.serving
        return (serving is not None and self.gll.is_attached(serving)
                and self.env.is_charged(flow, serving))

    def _assign(self, flow: Flow, ranked: RankedList, holds: bool,
                candidates: int, tentative: dict[str, int]) -> dict[str, Any]:
        decision: dict[str, Any] = {
            "flow": flow.flow_id,
            "candidates": candidates,
            "serving": flow.serving or "",
            "action": "none",
            "target": "",
        }
        serving = flow.serving
        target = ranked.target
        if not holds and serving in self.reports and target != serving:
            # The cell is back and reported, but is not the flow's target (its
            # operator is now denied, say): the flow has no access there.
            flow.serving = serving = None
            decision["action"] = "release"
        if target is None:
            return decision
        target_score = ranked.entries[-1][1]
        decision["target"] = target
        decision["target_score"] = target_score
        if not holds and (serving is None or target == serving):
            decision["action"] = "attach"
            self._initiate(flow, target, source=None, tentative=tentative)
            return decision
        if target == serving:
            return decision
        serving_score = ranked.serving_score or 0.0
        decision["serving_score"] = serving_score
        if target_score - serving_score >= self.selection.hysteresis_delta:
            decision["action"] = "handover"
            self._initiate(flow, target, source=serving, tentative=tentative)
        return decision

    def _initiate(self, flow: Flow, target: str,
                  source: Optional[str], tentative: dict[str, int]) -> None:
        tentative[target] = tentative.get(target, 0) + flow.resource_demand
        entry = _InFlight("attaching", flow, target, source)
        self.in_flight[flow.flow_id] = entry
        if not self.make_before_break and source is not None:
            self._break_source(flow, source)
        if self.gll.is_attached(target):
            self._after_link_up(entry)
        else:
            self.gll.attach(target)

    def _break_source(self, flow: Flow, source: str) -> None:
        """Break-before-make: unmap the flow and tear the old link down first
        (the service gap this opens is recorded in the run statistics)."""
        others = any(f.serving == source and f.flow_id != flow.flow_id
                     for f in self.flows.values())
        if others or not self.gll.is_attached(source):
            return
        self.env.unmap_flow(flow, source)
        flow.serving = None
        self.gll.detach(source)

    def _after_link_up(self, entry: _InFlight) -> None:
        flow, target = entry.flow, entry.target
        if self.flows.get(flow.flow_id) is not flow:
            # the flow left while attaching, and its departure never reached us
            del self.in_flight[flow.flow_id]
            self._detach_unused()
            return
        if not self.env.map_flow(flow, target):
            logger.info("resources on %s gone before mapping %s; will retry",
                        target, flow.flow_id)
            del self.in_flight[flow.flow_id]
            self._detach_unused()
            return
        if entry.source is None:
            del self.in_flight[flow.flow_id]
            flow.serving = target
            self.bus.publish(trg.Event(trg.FLOW_MAPPED, self.COMPONENT, payload={
                "flow": flow.flow_id,
                "cell": target,
            }))
        else:
            entry.stage = "executing"
            self.request_handover(flow, target, entry.source)

    def request_handover(self, flow: Flow, target: str, source: str) -> None:
        """Hand execution between two cells to the mobility layer; serving
        changes only once the handover-complete event arrives."""
        self.bus.publish(trg.Event(trg.HANDOVER_EXECUTION_REQUEST, self.COMPONENT, payload={
            "flow": flow.flow_id,
            "from": source,
            "to": target,
        }))

    # -- trigger handling --------------------------------------------------------

    def on_trigger(self, t: trg.Event) -> None:
        handler = self._HANDLERS.get(t.event_type)
        if handler is None:
            logger.warning("mrrm ignoring unknown trigger type %s", t.event_type)
            return
        # a report marks a change itself, and a batch changes nothing a round reads
        if t.event_type not in (trg.LINK_QUALITY_REPORT, trg.MEASUREMENT_BATCH):
            self._generation += 1
        handler(self, t.payload)

    def _on_report(self, payload: Mapping[str, Any]) -> None:
        cell_id = payload["cell"]
        old = self.reports.get(cell_id)
        if old is payload:
            return
        if old is None or old["covered"] != payload["covered"]:
            self._set_dirty = True
        self._generation += 1
        self.reports[cell_id] = payload

    def _on_batch(self, payload: Mapping[str, Any]) -> None:
        if self._set_dirty:
            self.candidate_report()
        self._check_quality_floor()
        self.decide()

    def _check_quality_floor(self) -> None:
        """Scan when a served flow's access reports a quality under the floor.

        The walk reads reports, flows, their serving cells and which flows
        are in flight.  Their writers keep the marks of a round, and a flow
        entering ``in_flight`` only shrinks what the walk checks; so with
        the marks of a walk that found no flow under the floor, it finds none.
        """
        if self._scan_pending is not None:
            return
        marks = (self._generation, self.env.generation)
        if marks == self._floor_clear:
            return
        for flow in self.flows.values():
            if flow.serving is None or flow.flow_id in self.in_flight:
                continue
            report = self.reports.get(flow.serving)
            quality = report["quality"] if report is not None else 0.0
            if quality < self.selection.quality_floor:
                self._start_scan()
                return
        self._floor_clear = marks

    def _on_new_access(self, payload: Mapping[str, Any]) -> None:
        operator_id = payload["operator"]
        state = self.operators.get(operator_id)
        if state is None or state.verdict == "timeout":
            self.policies_check(operator_id, payload["cell"], payload["rat"])

    def _on_access_lost(self, payload: Mapping[str, Any]) -> None:
        self._drop_report(payload["cell"])

    def _on_link_up(self, payload: Mapping[str, Any]) -> None:
        cell_id = payload["cell"]
        waiting = [fid for fid in sorted(self.in_flight)
                   if self.in_flight[fid].stage == "attaching"
                   and self.in_flight[fid].target == cell_id]
        for flow_id in waiting:
            self._after_link_up(self.in_flight[flow_id])

    def _on_link_down(self, payload: Mapping[str, Any]) -> None:
        if payload.get("reason") == "lost":  # a requested detach keeps the report
            self._drop_report(payload["cell"])
            self.decide()

    def _on_attach_failed(self, payload: Mapping[str, Any]) -> None:
        cell_id = payload["cell"]
        stuck = [fid for fid, entry in self.in_flight.items()
                 if entry.stage == "attaching" and entry.target == cell_id]
        for flow_id in stuck:
            del self.in_flight[flow_id]

    def _on_flow_arrival(self, payload: Mapping[str, Any]) -> None:
        if not self._arrivals_undecided:
            self._arrivals_undecided = True
            self.loop.schedule_after(0, self._arrival_round)

    def _arrival_round(self) -> None:
        if self._arrivals_undecided:
            self.decide()

    def _on_flow_departure(self, payload: Mapping[str, Any]) -> None:
        entry = self.in_flight.pop(payload["flow"], None)
        if entry is not None and entry.stage == "executing":
            self.env.unmap_flow(entry.flow, entry.target)
        self._detach_unused()

    def _on_handover_complete(self, payload: Mapping[str, Any]) -> None:
        flow = self.flows.get(payload["flow"])
        entry = self.in_flight.pop(payload["flow"], None)
        if flow is None:
            if entry is not None:  # it left mid-handover, and its departure never reached us
                self.env.unmap_flow(entry.flow, entry.target)
                self._detach_unused()
            return
        self.env.unmap_flow(flow, payload["from"])
        flow.serving = payload["to"]
        self.bus.publish(trg.Event(trg.FLOW_MAPPED, self.COMPONENT, payload={
            "flow": flow.flow_id,
            "cell": flow.serving,
        }))
        self._detach_unused()

    def _on_handover_failed(self, payload: Mapping[str, Any]) -> None:
        entry = self.in_flight.pop(payload["flow"], None)
        if entry is None:
            return
        self.env.unmap_flow(entry.flow, entry.target)
        self.cooldown_until[entry.target] = self.loop.now + self.selection.failure_cooldown_ms

    def _detach_unused(self) -> None:
        """Release attached accesses no flow uses and no handover still needs."""
        busy = {f.serving for f in self.flows.values()}
        for entry in self.in_flight.values():
            busy.update((entry.target, entry.source))
        for cell_id in sorted(self.gll.attached - busy):
            self.gll.detach(cell_id)

    def _on_qos_unsatisfied(self, payload: Mapping[str, Any]) -> None:
        self._start_scan()

    def _on_policy_changed(self, payload: Mapping[str, Any]) -> None:
        """Swap in the policies with one change applied and decide again.  A
        change whose action is unknown, whose operator is not a name or whose
        value breaks the rules of ``PolicySet.validate`` (a JSON bool for
        roaming) is logged and changes nothing.  A denial wins over the
        allowed operators, which still list a denied operator."""
        action = payload.get("action")
        operator = payload.get("operator")
        value = payload.get("value")
        policies = self.policies
        named = _is_name(operator)
        if action == "deny-operator" and named:
            changed = {"denied_operators": policies.denied_operators | {operator}}
        elif action == "allow-operator" and named:
            changed = {"denied_operators": policies.denied_operators - {operator}}
            if policies.allowed_operators:
                changed["allowed_operators"] = policies.allowed_operators | {operator}
        elif action == "set-min-security" and _is_security_level(value):
            changed = {"min_security_level": value}
        elif action == "set-max-cost" and _is_number(value):
            changed = {"max_cost_per_mb": float(value)}
        elif action == "set-roaming" and type(value) is bool:
            changed = {"roaming_allowed": value}
        elif action == "set-preference" and named and _is_preference(value):
            changed = {"operator_preference": {**policies.operator_preference,
                                               operator: float(value)}}
        else:
            logger.warning("ignoring policy change %r", dict(payload))
            return
        self.policies = replace(policies, **changed)
        self.decide()

    def _on_policies_check_answer(self, payload: Mapping[str, Any]) -> None:
        """Apply a policies-check answer and decide again.  An answer whose
        operator is not a name, whose verdict is neither ``allow`` nor
        ``deny`` or whose preference, when given, is not a number in [0,1] is
        logged and changes nothing."""
        operator = payload.get("operator")
        verdict = payload.get("verdict")
        preference = payload.get("preference")
        if not (_is_name(operator) and verdict in ("allow", "deny")
                and (preference is None or _is_preference(preference))):
            logger.warning("ignoring policies-check answer %r", dict(payload))
            return
        state = self.operators.get(operator)
        if state is None:
            state = self.operators[operator] = _OperatorState("pending", self.loop.now)
        state.verdict = verdict
        changed = {}
        if verdict == "deny":
            changed["denied_operators"] = self.policies.denied_operators | {operator}
        if preference is not None:
            changed["operator_preference"] = {**self.policies.operator_preference,
                                              operator: float(preference)}
        self.policies = replace(self.policies, **changed)
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
