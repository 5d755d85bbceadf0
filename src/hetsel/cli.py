"""Command line entry points: run, report, stats, bench-trg."""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from typing import Optional, Sequence

from .harness.bench import bench_trg
from .harness.runner import run_to_files
from .harness.stats import RunStats, compute_stats
from .harness.trace import RecordError, TraceError, read_trace
from .simenv.env import InvariantError
from .simenv.scenario import ScenarioError

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command the signal ended


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetsel",
        description="Deterministic heterogeneous access-selection simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
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
    try:
        result, trace_path, stats_path = run_to_files(args.scenario, args.out)
    except OSError as exc:
        # the loader reports a scenario it cannot read; what is left is an output
        print(f"error: {exc.filename}: cannot write: {exc.strerror}", file=sys.stderr)
        return EXIT_BAD_INPUT
    summary = result.stats
    print(f"trace:  {trace_path}")
    print(f"stats:  {stats_path}")
    print(f"handovers: attempted={summary.handovers_attempted} "
          f"completed={summary.handovers_completed} failed={summary.handovers_failed}")
    print(f"service-gap total: {summary.service_gap_total_ms} ms")
    print(f"scans: targeted={summary.scan_counts.get('targeted', 0)} "
          f"full={summary.scan_counts.get('full', 0)}")
    return EXIT_OK


def _replay(path: str) -> RunStats:
    """``compute_stats`` over the trace file at ``path``; a record it cannot read names the file."""
    try:
        return compute_stats(read_trace(path))
    except RecordError as exc:
        raise TraceError(f"{path}: {exc}") from None


def _cmd_report(args: argparse.Namespace) -> int:
    print(json.dumps([r.as_dict() for r in _replay(args.trace).breakdowns], indent=2))
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    print(json.dumps(_replay(args.trace).as_dict(), indent=2))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.subscribers < 0 or args.events <= 0:
        print("error: --subscribers must be >= 0 and --events positive", file=sys.stderr)
        return EXIT_BAD_INPUT
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
        code = handlers[args.command](args)
        # Flush here, so that a reader who closed the pipe early is caught below.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; point it at devnull
        # so that flush cannot fail and print a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ScenarioError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        # Bad input was caught above; anything else is a defect of the program.
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
