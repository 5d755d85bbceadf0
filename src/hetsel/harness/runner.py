"""Builds a complete run from a Scenario and executes it to a trace."""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from .. import trg
from ..gll import GenericLinkLayer
from ..mrrm import MultiRadioResourceManager
from ..simenv.env import Environment
from ..simenv.loop import EventLoop
from .mobility import MobilityExecutor
from .stats import RunStats, compute_stats
from .trace import TraceRecorder

if TYPE_CHECKING:
    from ..simenv.scenario import Scenario

logger = logging.getLogger(__name__)

_UCI_RECORDS = (
    trg.UciRecord("multiaccess/link-quality", "gll", "abstracted per-access metrics"),
    trg.UciRecord("multiaccess/candidate-report", "mrrm", "current candidate access set"),
    trg.UciRecord("multiaccess/handover-events", "mobility", "handover pipeline outcomes"),
)


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
    recorder: TraceRecorder


@dataclass
class RunResult:
    scenario: Scenario
    trace_lines: list[str]
    stats: RunStats

    @property
    def trace_text(self) -> str:
        return "\n".join(self.trace_lines) + "\n"


def build_run(scenario: Scenario, seed_override: Optional[int] = None) -> Run:
    """Construct and wire every component; the scenario value stays untouched.

    The seed is only a label: ``seed_override`` replaces it in ``Run.scenario``
    and changes nothing else.
    """
    if seed_override is not None:
        scenario = replace(scenario, seed=seed_override)
    loop = EventLoop()
    recorder = TraceRecorder()
    bus = trg.TriggerBus(
        clock=lambda: loop.now,
        recorder=lambda at, kind, attrs: recorder.record(at, "trg", kind, attrs),
        drop_types=scenario.trg.drop_types,
    )
    if scenario.trg.respond_to_policies_check:
        trg.PoliciesCheckResponder(bus, dict(scenario.trg.policy_store),
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
        flow_factory=_flow_factory,
    )

    gll = GenericLinkLayer(
        loop, env, bus,
        cfg=copy.deepcopy(scenario.gll),
        record=lambda kind, attrs: recorder.record(loop.now, "gll", kind, attrs),
        report_all_cells=(scenario.mrrm_location == "network"),
    )
    mrrm = MultiRadioResourceManager(
        loop, env, bus, gll,
        policies=copy.deepcopy(scenario.policies),
        selection=copy.deepcopy(scenario.selection),
        caps=copy.deepcopy(scenario.capabilities),
        record=lambda kind, attrs: recorder.record(loop.now, "mrrm", kind, attrs),
        policies_check_timeout_ms=scenario.policies_check_timeout_ms,
        make_before_break=scenario.mobility.make_before_break,
    )
    executor = MobilityExecutor(
        loop, env, bus,
        model=scenario.mobility.model,
        record=lambda kind, attrs: recorder.record(loop.now, "mobility", kind, attrs),
    )
    return Run(scenario=scenario, loop=loop, env=env, bus=bus, gll=gll,
               mrrm=mrrm, executor=executor, recorder=recorder)


def _flow_factory(**params):
    from ..mrrm import Flow

    flow = Flow(**params)
    flow.validate()
    return flow


def _install_initial_flows(run: Run) -> None:
    for template in run.scenario.flows:
        flow = replace(template)
        run.env.flows[flow.flow_id] = flow
        if flow.serving is not None:
            from ..simenv.scenario import ScenarioError

            cell_id = flow.serving.cell_id
            if not run.gll.is_attached(cell_id):
                run.gll.force_attach(cell_id)
            if not run.env.map_flow(flow, cell_id):
                raise ScenarioError(
                    f"flows: initial demand of {flow.flow_id!r} exceeds "
                    f"capacity of cell {cell_id!r}")
        run.bus.publish(trg.Event(trg.FLOW_ARRIVAL, "env", payload={
            "flow": flow.flow_id,
            "service_class": flow.service_class,
            "min_rate": flow.min_rate,
            "max_delay_ms": flow.max_delay_ms,
            "max_loss": flow.max_loss,
            "resource_demand": flow.resource_demand,
            "serving": flow.serving.cell_id if flow.serving else "",
        }))


def execute_run(run: Run) -> RunResult:
    """Play the timeline to the configured duration and gather statistics."""
    _install_initial_flows(run)
    for action in run.scenario.timeline:
        run.loop.schedule(action.at, _make_action(run, action))
    run.mrrm.start()
    run.gll.start()
    run.loop.run_until(run.scenario.duration_ms)
    run.recorder.record(run.scenario.duration_ms, "harness", "event", {"type": "run-end"})
    stats = compute_stats(run.recorder.records)
    return RunResult(scenario=run.scenario, trace_lines=run.recorder.lines(), stats=stats)


def _make_action(run: Run, action):
    return lambda: run.env.apply_action(action)


def execute_scenario(scenario: Scenario, seed_override: Optional[int] = None) -> RunResult:
    return execute_run(build_run(scenario, seed_override))


def run_to_files(
    scenario_path: Union[str, Path],
    out_dir: Union[str, Path],
    seed_override: Optional[int] = None,
) -> tuple[RunResult, Path, Path]:
    """Load a scenario file, run it, and write trace + stats into ``out_dir``."""
    import json

    from ..simenv.scenario import load_scenario

    scenario = load_scenario(scenario_path)
    result = execute_scenario(scenario, seed_override)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.txt"
    stats_path = out / "stats.json"
    trace_path.write_text(result.trace_text, encoding="utf-8")
    stats_path.write_text(json.dumps(result.stats.as_dict(), indent=2) + "\n",
                          encoding="utf-8")
    return result, trace_path, stats_path
