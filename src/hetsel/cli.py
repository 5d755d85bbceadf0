"""Command line entry points: run, report, stats, bench-trg."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .harness.bench import bench_trg
from .harness.runner import run_to_files
from .harness.stats import compute_stats, report_breakdown
from .harness.trace import TraceError, read_trace
from .simenv.env import InvariantError
from .simenv.scenario import ScenarioError

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetsel",
        description="Deterministic heterogeneous access-selection simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed, which is only a label: "
                            "the run draws no random numbers")
    run_p.add_argument("--out", default="out", help="output directory (default: ./out)")

    report_p = sub.add_parser("report", help="per-handover delay breakdown from a trace")
    report_p.add_argument("trace", help="path to a trace file")

    stats_p = sub.add_parser("stats", help="recompute run statistics from a trace")
    stats_p.add_argument("trace", help="path to a trace file")

    bench_p = sub.add_parser("bench-trg", help="wall-clock trigger bus benchmark")
    bench_p.add_argument("--subscribers", type=int, required=True)
    bench_p.add_argument("--events", type=int, required=True)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    result, trace_path, stats_path = run_to_files(args.scenario, args.out, args.seed)
    summary = result.stats
    print(f"trace:  {trace_path}")
    print(f"stats:  {stats_path}")
    print(f"handovers: attempted={summary.handovers_attempted} "
          f"completed={summary.handovers_completed} failed={summary.handovers_failed}")
    print(f"service-gap total: {summary.service_gap_total_ms} ms")
    print(f"scans: targeted={summary.scan_counts.get('targeted', 0)} "
          f"full={summary.scan_counts.get('full', 0)}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    reports = report_breakdown(read_trace(args.trace))
    print(json.dumps([r.as_dict() for r in reports], indent=2))
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = compute_stats(read_trace(args.trace))
    print(json.dumps(stats.as_dict(), indent=2))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    summary = bench_trg(args.subscribers, args.events)
    print(json.dumps(summary.as_dict(), indent=2))
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "report": _cmd_report,
        "stats": _cmd_stats,
        "bench-trg": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (ScenarioError, TraceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
