"""Scenario runner, traces, statistics, benchmark."""

from .trace import TraceError, TraceRecord, read_trace
from .stats import BreakdownReport, RunStats, compute_stats
from .bench import BenchSummary, bench_trg
from .runner import (Run, RunRecorder, RunResult, build_run, execute_run, execute_scenario,
                     run_to_files)

__all__ = [
    "BenchSummary",
    "BreakdownReport",
    "Run",
    "RunRecorder",
    "RunResult",
    "RunStats",
    "TraceError",
    "TraceRecord",
    "bench_trg",
    "build_run",
    "compute_stats",
    "execute_run",
    "execute_scenario",
    "read_trace",
    "run_to_files",
]
