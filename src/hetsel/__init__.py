"""hetsel: deterministic heterogeneous access-selection simulator.

Layers, bottom up: ``simenv`` (event loop, radio environment, scenarios),
``gll`` (link abstraction and measurement), ``mrrm`` (per-flow access
selection and handover decisions), ``trg`` (trigger bus), ``harness``
(mobility executor, traces, statistics, CLI runner).
"""

from .gll import (
    AccessCandidate,
    GenericLinkLayer,
    LinkMeasurement,
    LinkQualityReport,
    MappingConfig,
    ReportingConfig,
    map_link_quality,
    qos_feasible,
    residual_error_rate,
)
from .mrrm import (
    Flow,
    MultiRadioResourceManager,
    PolicySet,
    RankedList,
    RoundCandidates,
    SelectionConfig,
    TerminalCapabilities,
    dynamic_score,
    policy_filter,
    round_candidates,
    select_access,
)
from .simenv import Cell, Environment, EventLoop, Scenario, load_scenario, scenario_from_dict
from .trg import CorrelationRule, Event, Subscription, Trigger, TriggerBus, UciRecord

__all__ = [
    "AccessCandidate",
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
    "Trigger",
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
