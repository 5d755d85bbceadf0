"""Discrete-event core and the simulated radio environment.

Scenario files are read by :mod:`hetsel.simenv.scenario`, which builds the
configuration of the layers above and is therefore not imported here.
"""

from .env import ActionError, Cell, Environment, Flow, InvariantError, ScenarioAction
from .loop import EventLoop, SchedulingError

__all__ = [
    "ActionError",
    "Cell",
    "Environment",
    "EventLoop",
    "Flow",
    "InvariantError",
    "ScenarioAction",
    "SchedulingError",
]
