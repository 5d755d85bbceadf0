"""Independent reference implementations used to check the package under test.

Everything here is written long-hand from the documented behaviour, separate
from the library code paths, so tests compare two implementations rather
than one implementation with itself.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from hetsel.gll import map_link_quality, report_to_payload
from hetsel.mrrm import round_candidates
from hetsel.trg import CANDIDATE_REPORT, LINK_QUALITY_REPORT, MEASUREMENT_BATCH


def long_hand_score(flow, report, c, policies, caps, cfg, tentative):
    """One access's score for ``flow`` term by term, or None when a filter
    drops the access.

    The five weighted terms are summed in the documented order, QoS fit
    first.  An access other than the serving one loses ``w_cell /
    total_resources`` per unit of its post-move demand: the demand
    ``tentative`` already commits to its cell plus the flow's own.
    """
    if not report["covered"]:
        return None
    if policies.allowed_operators and c.operator_id not in policies.allowed_operators:
        return None
    if c.operator_id in policies.denied_operators:
        return None
    if c.security_level < policies.min_security_level:
        return None
    if policies.max_cost_per_mb is not None and c.cost_per_mb > policies.max_cost_per_mb:
        return None
    if (not policies.roaming_allowed and policies.home_operator is not None
            and c.operator_id != policies.home_operator):
        return None
    if caps.supported_rats and c.rat not in caps.supported_rats:
        return None
    if report["load"] >= cfg.load_threshold:
        return None
    feasible = (report["achievable_rate"] >= flow.min_rate
                and report["delay_ms"] <= flow.max_delay_ms
                and report["residual_error_rate"] <= flow.max_loss)
    if c.operator_id in policies.operator_preference:
        preference = policies.operator_preference[c.operator_id]
    else:
        preference = policies.static_preference.get((c.operator_id, c.rat), 0.5)
    energy = caps.energy_cost.get(c.rat, 0.0)
    score = (cfg.w_qos * (1.0 if feasible else 0.0)
             + cfg.w_link * report["quality"]
             + cfg.w_cell * report["q_load"]
             + cfg.w_term * (1.0 - energy)
             + cfg.w_pol * preference)
    if c.cell_id != flow.serving:
        moved = tentative.get(c.cell_id, 0) + flow.resource_demand
        score -= cfg.w_cell / c.total_resources * moved
    return score


def long_hand_key(flow, c, score) -> tuple:
    """The documented ranking order: best score first, then the serving
    access, then lexicographic identity."""
    return (-score,
            0 if c.cell_id == flow.serving else 1,
            (c.operator_id, c.rat, c.cell_id, c.frequency))


def long_hand_fits(flow, c, tentative, holds) -> bool:
    """Whether access ``c`` has room for ``flow``: its free resources less
    the demand ``tentative`` commits to it cover the flow's demand, or it is
    the serving access and ``holds`` the flow's link and charge."""
    if holds and c.cell_id == flow.serving:
        return True
    free = c.total_resources - c.used_resources - tentative.get(c.cell_id, 0)
    return free >= flow.resource_demand


def selection_oracle_best(flow, reports, policies, caps, cfg, cell_meta, tentative, holds):
    """Brute-force argmax of ``long_hand_score`` under ``long_hand_key`` over
    the accesses with room for ``flow`` (``long_hand_fits``).

    Returns (cell id, score) for the winner, or None when no candidate
    survives the filters with room.
    """
    best = None
    for report in reports:
        c = cell_meta.get(report["cell"])
        if c is None or not long_hand_fits(flow, c, tentative, holds):
            continue
        score = long_hand_score(flow, report, c, policies, caps, cfg, tentative)
        if score is None:
            continue
        key = long_hand_key(flow, c, score)
        if best is None or key < best[0]:
            best = (key, c.cell_id, score)
    if best is None:
        return None
    return best[1], best[2]


class LinearScanDelivery:
    """Which subscriptions a publish reaches, found by visiting every live
    subscription in creation order: a type pattern (exact, or a prefix before
    a trailing ``*``), the source filter, the payload predicates (false on a
    missing attribute or on values that do not compare), then the rate limit.
    """

    _COMPARE = {"=": lambda a, b: a == b,
                "!=": lambda a, b: not a == b, "≠": lambda a, b: not a == b,
                "<": lambda a, b: a < b,
                "<=": lambda a, b: a < b or a == b, "≤": lambda a, b: a < b or a == b,
                ">": lambda a, b: b < a,
                ">=": lambda a, b: b < a or a == b, "≥": lambda a, b: b < a or a == b}

    def __init__(self):
        self.live = []  # [spec, last delivery time], creation order

    def subscribe(self, spec) -> None:
        if all(entry[0] != spec for entry in self.live):
            self.live.append([spec, None])

    def unsubscribe(self, spec) -> None:
        self.live = [entry for entry in self.live if entry[0] != spec]

    def publish(self, event_type: str, source: str, payload: dict, at: int) -> list[str]:
        reached = []
        for entry in self.live:
            spec, last = entry
            if not any(event_type == p or (p.endswith("*") and event_type.startswith(p[:-1]))
                       for p in spec.accepted_types):
                continue
            if spec.source_filter is not None and source != spec.source_filter:
                continue
            if not all(self._holds(p, payload) for p in spec.payload_predicates):
                continue
            if (spec.min_interval_ms is not None and last is not None
                    and at - last < spec.min_interval_ms):
                continue
            entry[1] = at
            reached.append(spec.consumer_id)
        return reached

    def _holds(self, predicate, payload) -> bool:
        attribute, comparator, constant = predicate
        if attribute not in payload:
            return False
        try:
            return self._COMPARE[comparator](payload[attribute], constant)
        except TypeError:
            return False


class LinearScanCorrelation:
    """Which synthetic events correlation rules fire, found by feeding every
    published event to every live rule, in definition order.  A rule first
    drops a partial match whose window has passed since its anchor, then
    takes the event if its type is the pattern's next one.  The events fired
    by one publish are then published in turn, depth first.  Rules must not
    fire one another in a cycle: there is no depth limit here.
    """

    def __init__(self):
        self.rules = []  # [handle, rule, next index, anchor time], definition order

    def define(self, handle: int, rule) -> None:
        self.rules.append([handle, rule, 0, None])

    def drop(self, handle: int) -> None:
        self.rules = [entry for entry in self.rules if entry[0] != handle]

    def publish(self, event_type: str, at: int) -> list[tuple[str, str, str]]:
        """The ``(type, rule id, completed_by)`` of every synthetic event the
        publish fires, nested ones included, in publication order."""
        fired = []
        for entry in self.rules:
            _, rule, index, anchor = entry
            if anchor is not None and at - anchor > rule.window_ms:
                index, anchor = 0, None
            if event_type == rule.pattern[index]:
                if index == 0:
                    anchor = at
                index += 1
                if index == len(rule.pattern):
                    fired.append((rule.output_type, rule.rule_id, event_type))
                    if rule.reset_on_fire:
                        index, anchor = 0, None
                    else:
                        index = len(rule.pattern) - 1
            entry[2], entry[3] = index, anchor
        published = []
        for synthetic in fired:
            published.append(synthetic)
            published.extend(self.publish(synthetic[0], at))
        return published


def correlation_fires(
    pattern: Sequence[str],
    window_ms: int,
    events: Iterable[tuple[int, str]],
    reset_on_fire: bool = True,
) -> list[int]:
    """Replay the anchored subsequence-within-window semantics on an event
    string; returns the times at which the rule fires."""
    fires = []
    index = 0
    anchor: Optional[int] = None
    for at, event_type in events:
        if anchor is not None and at - anchor > window_ms:
            index, anchor = 0, None
        if event_type != pattern[index]:
            continue
        if index == 0:
            anchor = at
        index += 1
        if index == len(pattern):
            fires.append(at)
            if reset_on_fire:
                index, anchor = 0, None
            else:
                index = len(pattern) - 1
    return fires


def monte_carlo_residual(p: float, retransmissions: int, trials: int,
                         rng: random.Random) -> float:
    """Simulate independent (re)transmission attempts; a frame is lost only
    when the original send and every retry fail."""
    losses = 0
    attempts = retransmissions + 1
    for _ in range(trials):
        if all(rng.random() < p for _ in range(attempts)):
            losses += 1
    return losses / trials


def linear_ramp_value(start: float, end: float, k: int, step_ms: int,
                      duration_ms: int) -> float:
    """Expected field value after the k-th interpolation step."""
    fraction = min(1.0, (k * step_ms) / duration_ms)
    return start + (end - start) * fraction


def thin_decisions(records: Iterable) -> list:
    """Drop every ``decision`` record equal, in all its attributes, to the
    same flow's previous decision record since that flow's last
    ``flow-arrival`` or ``flow-departure`` event; every other record stays,
    in order."""
    last: dict = {}
    kept = []
    for record in records:
        event_type = record.attributes.get("type") if record.kind == "event" else None
        if event_type in ("flow-arrival", "flow-departure"):
            last.pop(record.attributes["flow"], None)
        elif record.kind == "decision":
            flow_id = record.attributes["flow"]
            if last.get(flow_id) == record.attributes:
                continue
            last[flow_id] = record.attributes
        kept.append(record)
    return kept


def thin_reports(records: Iterable) -> list:
    """Drop every ``link-quality-report`` event record equal, in all its
    attributes, to the same cell's previous report record, and add up the
    ``consumers`` each dropped one listed: the next ``measurement-batch``
    event record carries the sum as ``repeated_deliveries``, or the
    ``run-end`` record carries what is left.  Every other record stays, in
    order."""
    last: dict = {}
    repeated = 0
    kept = []
    for record in records:
        attributes = record.attributes
        event_type = attributes.get("type") if record.kind == "event" else None
        if event_type == "link-quality-report":
            if last.get(attributes["cell"]) == attributes:
                repeated += len(attributes.get("consumers", ()))
                continue
            last[attributes["cell"]] = attributes
        elif event_type in ("measurement-batch", "run-end") and repeated:
            record = record._replace(attributes={**attributes, "repeated_deliveries": repeated})
            repeated = 0
        kept.append(record)
    assert repeated == 0, "a trace ends with its run-end record"
    return kept


def full_round_key(mrrm) -> tuple:
    """Everything stage two and the assignment read in one decision round of
    ``mrrm``, rebuilt from its state as one comparable value: equal keys give
    equal decisions.  This is what the manager compared each round before
    its writers kept marks; it reuses the library's stage one, since what it
    checks is the marks, not the ranking."""
    tentative: dict = {}
    for entry in mrrm.in_flight.values():
        if entry.stage == "attaching":
            tentative[entry.target] = tentative.get(entry.target, 0) + entry.flow.resource_demand
    stage = round_candidates(mrrm.usable_reports(), mrrm.policies, mrrm.caps, mrrm.selection,
                             mrrm.env.cells)
    pending = [mrrm.flows[flow_id] for flow_id in sorted(mrrm.flows)
               if flow_id not in mrrm.in_flight]
    return (stage.entries, tentative,
            tuple((f.flow_id, f.min_rate, f.max_delay_ms, f.max_loss, f.resource_demand,
                   f.serving,
                   f.serving in mrrm.gll.attached and mrrm.env.is_charged(f, f.serving),
                   f.serving in mrrm.reports)
                  for f in pending))


class ReplayGate:
    """Holds a manager's settled-round replays to the full round key.

    Install it on a built run before the run executes.  Before each round it
    rebuilds ``full_round_key``.  A round that reads no reports, stage one's
    first step, was replayed: its full key must equal that of the last round
    that initiated nothing, and it must record no decision, or the round
    fails.  ``replayed`` counts those rounds; ``replayable`` counts every
    round whose full key equals that one, the rounds a comparison of full
    keys would replay.
    """

    def __init__(self, mrrm):
        self.replayed = self.replayable = 0
        self._settled_key = None
        decide_once, usable_reports, record = (mrrm._decide_once, mrrm.usable_reports,
                                               mrrm._record)
        reads = []
        decisions = []

        def counted_usable_reports():
            reads.append(True)
            return usable_reports()

        def recording(decision):
            decisions.append(decision)
            record(decision)

        def gated_decide_once():
            key = full_round_key(mrrm)
            reads.clear()
            decisions.clear()
            decide_once()
            replayable = self._settled_key is not None and key == self._settled_key
            self.replayable += replayable
            if not reads:
                assert replayable, f"t={mrrm.loop.now}: a round replayed on changed inputs"
                assert not decisions, f"t={mrrm.loop.now}: a replayed round recorded {decisions}"
                self.replayed += 1
            if all(decision["action"] == "none" for decision in decisions):
                self._settled_key = key

        mrrm.usable_reports = counted_usable_reports
        mrrm._record = recording
        mrrm._decide_once = gated_decide_once


def flows_under_floor(mrrm) -> list[str]:
    """The flows a full quality-floor walk of ``mrrm`` finds: served, not in
    flight, and on an access that is unreported or reports a quality under
    the floor."""
    under = []
    for flow in mrrm.env.flows.values():
        if flow.serving is None or flow.flow_id in mrrm.in_flight:
            continue
        report = mrrm.reports.get(flow.serving)
        if report is None or report["quality"] < mrrm.selection.quality_floor:
            under.append(flow.flow_id)
    return under


class FloorGate:
    """Holds a manager's quality-floor checks to a full walk.

    Install it on a built run before the run executes.  A check made while no
    scan is pending must start a scan exactly when ``flows_under_floor``
    finds a flow, so a check that skips its walk must find none.  ``checks``
    counts the checks made with no scan pending and ``skipped`` those that
    skipped the walk: they neither scanned nor stored fresh marks.
    """

    def __init__(self, mrrm):
        self.checks = self.skipped = 0
        check = mrrm._check_quality_floor

        def gated_check():
            if mrrm._scan_pending is not None:
                check()
                return
            under = flows_under_floor(mrrm)
            clear = mrrm._floor_clear
            check()
            scanned = mrrm._scan_pending is not None
            assert scanned == bool(under), f"t={mrrm.loop.now}: scanned is {scanned}, under {under}"
            self.checks += 1
            self.skipped += not scanned and clear is not None and mrrm._floor_clear is clear

        mrrm._check_quality_floor = gated_check


class ReportGate:
    """Holds every link-quality report GLL publishes to a fresh mapping.

    Install it on a built run before the run executes.  It wraps the run's
    ``bus.publish``.  A report that GLL publishes must equal the payload of
    the cell's measurement mapped afresh for the demanding service class,
    worked out long-hand from the live flows and the interval table.
    Once a publish that reached anyone returns, MRRM must hold that very
    payload as the cell's report: MRRM's subscription takes every report with
    no filter, so any delivery of one includes MRRM.  A payload equal to
    the one GLL published last for the cell must be that very object, so
    that a new object always means a changed report.  ``reports`` counts
    GLL's reports and ``reused`` those whose payload is the very object GLL
    published last for the cell.
    """

    def __init__(self, run):
        self.reports = self.reused = 0
        gll, mrrm, publish = run.gll, run.mrrm, run.bus.publish
        last = {}
        assert run.bus.has_consumer("mrrm")

        def gated_publish(event):
            if event.event_type != LINK_QUALITY_REPORT or event.source != gll.COMPONENT:
                return publish(event)
            payload = event.payload
            cell_id = payload["cell"]
            demanding = min((flow.service_class for flow in gll.env.flows.values()),
                            key=gll.cfg.reporting.interval_for, default=None)
            fresh = report_to_payload(map_link_quality(
                gll.measure(gll.env.cells[cell_id]), gll.cfg.mapping, demanding))
            assert payload == fresh, f"t={gll.loop.now}: {cell_id} reported {payload}, not {fresh}"
            held = last.get(cell_id)
            assert held is payload or held != payload, (
                f"t={gll.loop.now}: {cell_id} published a payload equal to its last anew")
            self.reports += 1
            self.reused += held is payload
            last[cell_id] = payload
            delivered = publish(event)
            if delivered:
                assert mrrm.reports[cell_id] is payload, (
                    f"t={gll.loop.now}: mrrm holds {mrrm.reports.get(cell_id)} for {payload}")
            return delivered

        run.bus.publish = gated_publish


class CandidateGate:
    """Holds the candidate list MRRM publishes to the reports it holds.

    Install it on a built run before the run executes.  It wraps the run's
    ``bus.publish``.  Once a measurement batch that reached anyone returns,
    the last ``candidate-report`` MRRM published must list the cells of the
    covered reports MRRM held when the batch arrived, by operator, then RAT,
    then cell id.  MRRM's subscription takes every batch with no filter, so
    any delivery of one includes MRRM; what the batch's own round changes is
    listed at the next batch.
    """

    def __init__(self, run):
        mrrm, cells, publish = run.mrrm, run.env.cells, run.bus.publish
        last = [""]  # before MRRM publishes a list, it lists no candidates

        def gated_publish(event):
            if event.event_type == CANDIDATE_REPORT and event.source == mrrm.COMPONENT:
                last[0] = event.payload["candidates"]
            if event.event_type != MEASUREMENT_BATCH:
                return publish(event)
            covered = sorted((cells[cell_id].operator_id, cells[cell_id].rat, cell_id)
                             for cell_id, report in mrrm.reports.items() if report["covered"])
            expected = ",".join(cell_id for _, _, cell_id in covered)
            delivered = publish(event)
            if delivered:
                assert last[0] == expected, (
                    f"t={mrrm.loop.now}: candidates {last[0]!r}, covered reports {expected!r}")
            return delivered

        run.bus.publish = gated_publish


class _GapFlow:
    __slots__ = ("cell", "known_candidates")

    def __init__(self, cell):
        self.cell = cell
        self.known_candidates = 0


def long_hand_service_gaps(records: Iterable) -> dict[str, int]:
    """Each flow's service-gap milliseconds, found by walking every live flow
    at every step of trace time.

    A flow is in a gap over a step while it has no working serving link (no
    cell, or its cell's link is down) and its most recent decision showed at
    least one ranked candidate; the state after a step's last record holds
    until the next step.  A flow that never spends time in a gap is absent.
    """
    flows: dict = {}
    link_up: dict = {}
    gaps: dict = {}
    last_at = 0
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
        if event_type == "flow-arrival":
            serving = payload.get("serving") or None
            flows[str(payload["flow"])] = _GapFlow(serving)
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
    return gaps
