"""Independent reference implementations used to check the package under test.

Everything here is written long-hand from the documented behaviour, separate
from the library code paths, so tests compare two implementations rather
than one implementation with itself.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from hetsel.mrrm import round_candidates


def long_hand_score(flow, report, c, policies, caps, cfg, tentative):
    """One access's score for ``flow`` term by term, or None when a filter
    drops the access.

    The five weighted terms are summed in the documented order, QoS fit
    first.  An access other than the serving one loses ``w_cell /
    total_resources`` per unit of its post-move demand: the demand
    ``tentative`` already commits to its cell plus the flow's own.
    """
    if not report.covered:
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
    if report.load >= cfg.load_threshold:
        return None
    feasible = (report.achievable_rate >= flow.min_rate
                and report.delay_ms <= flow.max_delay_ms
                and report.residual_error_rate <= flow.max_loss)
    if c.operator_id in policies.operator_preference:
        preference = policies.operator_preference[c.operator_id]
    else:
        preference = policies.static_preference.get((c.operator_id, c.rat), 0.5)
    energy = caps.energy_cost.get(c.rat, 0.0)
    score = (cfg.w_qos * (1.0 if feasible else 0.0)
             + cfg.w_link * report.quality
             + cfg.w_cell * report.q_load
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


def selection_oracle_best(flow, reports, policies, caps, cfg, cell_meta, tentative):
    """Brute-force argmax of ``long_hand_score`` under ``long_hand_key``.

    Returns (cell id, score) for the winner, or None when no candidate
    survives the filters.
    """
    best = None
    for report in reports:
        c = cell_meta.get(report.cell)
        if c is None:
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
    ``flow-arrival`` event; every other record stays, in order."""
    last: dict = {}
    kept = []
    for record in records:
        if record.kind == "event" and record.attributes.get("type") == "flow-arrival":
            last.pop(record.attributes["flow"], None)
        elif record.kind == "decision":
            flow_id = record.attributes["flow"]
            if last.get(flow_id) == record.attributes:
                continue
            last[flow_id] = record.attributes
        kept.append(record)
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
    that initiated nothing, or the round fails.  ``replayed`` counts those
    rounds; ``replayable`` counts every round whose full key equals that one,
    the rounds a comparison of full keys would replay.
    """

    def __init__(self, mrrm):
        self.replayed = self.replayable = 0
        self._settled_key = None
        decide_once, usable_reports = mrrm._decide_once, mrrm.usable_reports
        reads = []

        def counted_usable_reports():
            reads.append(True)
            return usable_reports()

        def gated_decide_once():
            key = full_round_key(mrrm)
            reads.clear()
            decisions = decide_once()
            replayable = self._settled_key is not None and key == self._settled_key
            self.replayable += replayable
            if not reads:
                assert replayable, f"t={mrrm.loop.now}: a round replayed on changed inputs"
                self.replayed += 1
            if all(decision["action"] == "none" for decision in decisions):
                self._settled_key = key
            return decisions

        mrrm.usable_reports = counted_usable_reports
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
        if report is None or report.quality < mrrm.selection.quality_floor:
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
