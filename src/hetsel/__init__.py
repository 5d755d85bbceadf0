"""hetsel: deterministic heterogeneous access-selection simulator.

Layers, bottom up: ``simenv`` (event loop, radio environment, flows,
scenarios), ``gll`` (link abstraction and measurement), ``mrrm`` (per-flow
access selection and handover decisions), ``mobility`` (handover execution
pipeline), ``trg`` (trigger bus), ``harness`` (traces, statistics, CLI
runner).
"""

from .gll import (
    GenericLinkLayer,
    LinkMeasurement,
    LinkQualityReport,
    MappingConfig,
    ReportingConfig,
    map_link_quality,
    residual_error_rate,
)
from .mrrm import (
    MultiRadioResourceManager,
    PolicySet,
    RankedList,
    RoundCandidates,
    SelectionConfig,
    TerminalCapabilities,
    dynamic_score,
    policy_filter,
    qos_feasible,
    round_candidates,
    select_access,
)
from .simenv import Cell, Environment, EventLoop, Flow
from .simenv.scenario import Scenario, load_scenario, scenario_from_dict
from .trg import CorrelationRule, Event, Subscription, TriggerBus, UciRecord

__all__ = [
    "Cell",
    "CorrelationRule",
    "Environment",
    "Event",
    "EventLoop",
    "Flow",
    "GenericLinkLayer",
    "LinkMeasurement",
    "LinkQualityReport",
    "MappingConfig",
    "MultiRadioResourceManager",
    "PolicySet",
    "RankedList",
    "ReportingConfig",
    "RoundCandidates",
    "Scenario",
    "SelectionConfig",
    "Subscription",
    "TerminalCapabilities",
    "TriggerBus",
    "UciRecord",
    "dynamic_score",
    "load_scenario",
    "map_link_quality",
    "policy_filter",
    "qos_feasible",
    "residual_error_rate",
    "round_candidates",
    "scenario_from_dict",
    "select_access",
]

__version__ = "0.1.0"
