"""Builds a complete run from a Scenario and executes it to a trace, whose
records its :class:`RunRecorder` alone lays out and leaves out."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Union

from .. import trg
from ..gll import GenericLinkLayer
from ..mobility import MobilityExecutor
from ..mrrm import MultiRadioResourceManager
from ..simenv.env import ActionError, Environment
from ..simenv.loop import EventLoop
from ..simenv.scenario import Scenario, ScenarioError, load_scenario
from . import trace
from .stats import RunStats, compute_stats
from .trace import TraceRecord, _new_record, went_backwards

_UCI_RECORDS = (
    trg.UciRecord("multiaccess/link-quality", "gll", "abstracted per-access metrics"),
    trg.UciRecord("multiaccess/candidate-report", "mrrm", "current candidate access set"),
    trg.UciRecord("multiaccess/handover-events", "mobility", "handover pipeline outcomes"),
)


# A payload may not use an event record's own attributes or its carried count.
_RECORD_KEYS = frozenset(("type", "source", "synthetic", "consumers", "repeated_deliveries"))


class RunRecorder:
    """The run's trace, in time order: the bus hands it each publish, MRRM each decision.

    An event record holds the event's ``type``, ``source``, ``synthetic``,
    payload and, if it reached anyone, ``consumers``.  A record equal to the
    last one written under its key is left out: a ``link-quality-report`` is
    keyed by ``cell``, a ``decision`` by ``flow``, and a ``flow-arrival`` or
    ``flow-departure`` record forgets its flow's key.  The bus still delivers
    every report; the deliveries of those left out ride on the next
    ``measurement-batch`` record as ``repeated_deliveries``, and what is left
    on the ``run-end`` record.
    """

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []
        self._last_at = 0
        self._last: dict[tuple[str, Any], Any] = {}  # key -> what its last record held
        self._repeated = 0

    def record(self, at: int, component: str, kind: str, attrs: dict[str, Any]) -> None:
        """Append a record that keeps ``attrs`` itself, not a copy: the caller
        hands over a dict it does not mutate afterwards."""
        if at < self._last_at:
            raise went_backwards(TraceRecord(at, component, kind, attrs), self._last_at)
        self._last_at = at
        self.records.append(_new_record(TraceRecord, (at, component, kind, attrs)))

    def lines(self) -> list[str]:
        # read through the module, so that a wrapper set on it formats each line
        format_record = trace.format_record
        return [format_record(r) for r in self.records]

    def _repeats(self, key: tuple[str, Any], held: Any) -> bool:
        return self._last.get(key) == held

    def record_event(self, event: trg.Event, consumers: list[str]) -> None:
        event_type, payload = event.event_type, event.payload
        key = None
        if event_type == trg.LINK_QUALITY_REPORT:
            # a payload that is the held object compares equal at once
            key = (event_type, payload.get("cell"))
            held = (payload, event.source, event.synthetic, consumers)
            if self._repeats(key, held):
                self._repeated += len(consumers)
                return
        elif event_type == trg.FLOW_ARRIVAL or event_type == trg.FLOW_DEPARTURE:
            self._last.pop(("decision", payload.get("flow")), None)
        if not _RECORD_KEYS.isdisjoint(payload):
            raise ValueError(f"payload of {event_type!r} overwrites record attributes "
                             f"{sorted(_RECORD_KEYS.intersection(payload))}")
        attrs = {"type": event_type, "source": event.source, "synthetic": event.synthetic,
                 **payload}
        if consumers:
            attrs["consumers"] = consumers
        if event_type == trg.MEASUREMENT_BATCH and self._repeated:
            attrs["repeated_deliveries"] = self._repeated
            self._repeated = 0
        if key is not None:
            self._last[key] = held
        self.record(event.at, "trg", "event", attrs)

    def record_decision(self, at: int, decision: dict[str, Any]) -> None:
        key = ("decision", decision["flow"])
        if not self._repeats(key, decision):
            # MRRM keeps no reference to a decision it hands over
            self._last[key] = decision
            self.record(at, "mrrm", "decision", decision)

    def record_end(self, at: int) -> None:
        attrs: dict[str, Any] = {"type": trg.RUN_END}
        if self._repeated:
            attrs["repeated_deliveries"] = self._repeated
        self.record(at, "harness", "event", attrs)


@dataclass
class Run:
    """All live parts of one run, wired together and ready to execute."""

    scenario: Scenario
    loop: EventLoop
    env: Environment
    bus: trg.TriggerBus
    gll: GenericLinkLayer
    mrrm: MultiRadioResourceManager
    executor: MobilityExecutor
    recorder: RunRecorder


@dataclass
class RunResult:
    scenario: Scenario
    trace_lines: list[str]
    stats: RunStats

    @property
    def trace_text(self) -> str:
        return "\n".join(self.trace_lines) + "\n"


def build_run(scenario: Scenario) -> Run:
    """Construct and wire every component.  The run shares the scenario's configuration, which
    no component writes into: a runtime change swaps in a new value.  Cells alone are copied."""
    loop = EventLoop()
    recorder = RunRecorder()
    bus = trg.TriggerBus(
        clock=lambda: loop.now,
        recorder=recorder.record_event,
        drop_types=scenario.trg.drop_types,
    )
    if scenario.trg.respond_to_policies_check:
        trg.PoliciesCheckResponder(bus, scenario.trg.policy_store,
                                   scenario.trg.default_verdict)
    for rule in scenario.trg.correlations:
        bus.define_correlation(rule)
    for record in _UCI_RECORDS:
        bus.register_uci(record)

    cells = [replace(cell) for cell in scenario.cells]
    env = Environment(
        loop,
        cells,
        emit=lambda event_type, payload: bus.publish(
            trg.Event(event_type, "env", payload=payload)),
    )

    gll = GenericLinkLayer(
        loop, env, bus,
        cfg=scenario.gll,
        report_all_cells=(scenario.mrrm_location == "network"),
    )
    mrrm = MultiRadioResourceManager(
        loop, env, bus, gll,
        policies=scenario.policies,
        selection=scenario.selection,
        caps=scenario.capabilities,
        record=lambda decision: recorder.record_decision(loop.now, decision),
        policies_check_timeout_ms=scenario.policies_check_timeout_ms,
        make_before_break=scenario.make_before_break,
    )
    executor = MobilityExecutor(
        loop, env, bus,
        model=scenario.mobility,
        record=lambda kind, attrs: recorder.record(loop.now, "mobility", kind, attrs),
    )
    return Run(scenario=scenario, loop=loop, env=env, bus=bus, gll=gll,
               mrrm=mrrm, executor=executor, recorder=recorder)


def _install_initial_flows(run: Run) -> None:
    for flow in run.scenario.flows:
        cell_id = flow.serving
        if cell_id is not None:
            if not run.gll.is_attached(cell_id):
                run.gll.force_attach(cell_id)
            if not run.env.map_flow(flow, cell_id):
                raise ScenarioError(
                    f"flows: initial demand of {flow.flow_id!r} exceeds "
                    f"capacity of cell {cell_id!r}")
        run.env.admit_flow(flow)


def execute_run(run: Run) -> RunResult:
    """Play the timeline to the configured duration and gather statistics."""
    _install_initial_flows(run)
    for index, action in enumerate(run.scenario.timeline):
        run.loop.schedule(action.at, _make_action(run, index, action))
    run.mrrm.start()
    run.gll.start()
    run.loop.run_until(run.scenario.duration_ms)
    run.recorder.record_end(run.scenario.duration_ms)
    stats = compute_stats(run.recorder.records)
    return RunResult(scenario=run.scenario, trace_lines=run.recorder.lines(), stats=stats)


def _make_action(run: Run, index: int, action):
    """The timeline entry as a loop callback; an action the world refuses
    when it fires names its entry, as the loader names a bad one."""
    def apply() -> None:
        try:
            run.env.apply_action(action)
        except ActionError as exc:
            raise ScenarioError(f"timeline[{index}]: {exc}") from None
    return apply


def execute_scenario(scenario: Scenario) -> RunResult:
    return execute_run(build_run(scenario))


def run_to_files(
    scenario_path: Union[str, Path],
    out_dir: Union[str, Path],
) -> tuple[RunResult, Path, Path]:
    """Load a scenario file, run it, and write trace + stats into ``out_dir``.

    As a shell redirect does, the outputs are created and opened empty before
    anything runs: one that cannot be written raises ``OSError`` at once, and a
    scenario or run that fails leaves both empty."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.txt"
    stats_path = out / "stats.json"
    with open(trace_path, "w", encoding="utf-8") as trace_file, \
            open(stats_path, "w", encoding="utf-8") as stats_file:
        result = execute_scenario(load_scenario(scenario_path))
        trace_file.write(result.trace_text)
        stats_file.write(json.dumps(result.stats.as_dict(), indent=2) + "\n")
    return result, trace_path, stats_path
