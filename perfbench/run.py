"""hetsel benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload metro_dense --seed 1 --seconds 40 --trace 0

Generates the workload's world from the seed, then runs it again and again,
each time in a fresh worker process, until ``--seconds`` have passed (at least
twice, so the trace digest can be compared).  With ``--trace 0`` every run is
untraced and the end-to-end metrics are reported; with ``--trace 1`` traced
and untraced runs alternate and the per-layer metrics are reported, with the
tracing overhead measured against the untraced runs.  Every run's outputs are
checked; a run that raises or fails a check counts in ``failed``.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import percentile  # noqa: E402
from worlds import WORKLOADS, generate  # noqa: E402

WORK_DIR = ROOT / ".bench_build" / "hetsel"
# A run must end within this many seconds, whatever --seconds asks for.
HARD_LIMIT_S = 170
MIN_RUNS = 2

UNITS = {
    "sim_rate": "sim_s/s",
    "tick_ms_p50": "ms",
    "tick_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "replay_s": "s",
    "outcome.service_gap_ms": "sim_ms",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_us_p50", "_us_p95")):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "per_round", "per_select")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _worker(world: Path, mode: str, timeout: float) -> dict:
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--dir", str(world), "--mode", mode],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"checks": {"finished_in_time": False}}
    lines = done.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"checks": {"worker_result": False}}
    if done.returncode != 0 or not out["checks"].get("no_exception", False):
        sys.stderr.write(done.stderr)
    return out


def _runs(world: Path, modes: list[str], seconds: int) -> list[tuple[str, dict]]:
    """Alternate ``modes`` until the next run would end after ``seconds``,
    judged by the last run of the same mode."""
    started = perf_counter()
    runs = []
    last_s = dict.fromkeys(modes, 0.0)
    while True:
        mode = modes[len(runs) % len(modes)]
        elapsed = perf_counter() - started
        if elapsed + last_s[mode] > (seconds if len(runs) >= MIN_RUNS else HARD_LIMIT_S):
            break
        runs.append((mode, _worker(world, mode, HARD_LIMIT_S - elapsed)))
        last_s[mode] = perf_counter() - started - elapsed
    return runs


def _check(runs: list[tuple[str, dict]]) -> list[str]:
    """Names of failed checks, one entry per failing run; marks the runs."""
    failures = []
    digest = next((out["trace_sha256"] for _, out in runs if "trace_sha256" in out), None)
    for i, (mode, out) in enumerate(runs):
        checks = out["checks"]
        checks.setdefault("no_exception", False)
        if "trace_sha256" in out:
            checks["trace_digest_repeats"] = out["trace_sha256"] == digest
        bad = sorted(name for name, ok in checks.items() if not ok)
        out["ok"] = not bad
        if bad:
            failures.append(f"run {i} ({mode}): {', '.join(bad)}")
    return failures


def end_to_end(runs: list[dict]) -> dict:
    ticks = [t for out in runs for t in out["tick_ms"]]
    return {
        "sim_rate": statistics.median(out["sim_s"] / out["execute_s"] for out in runs),
        "tick_ms_p50": percentile(ticks, 50),
        "tick_ms_p95": percentile(ticks, 95),
        "setup_s": statistics.median(s for out in runs for s in out["setup_s"]),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in runs),
        "replay_s": statistics.median(out["replay_s"] for out in runs),
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    names = traced[0]["layers"]
    metrics = {name: statistics.median(out["layers"][name] for out in traced) for name in names}
    metrics["tracing.overhead_share"] = (
        statistics.median(out["execute_s"] for out in traced)
        / statistics.median(out["execute_s"] for out in plain) - 1)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "hetsel" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    world_dir = WORK_DIR / args.workload
    t0 = perf_counter()
    world = generate(args.workload, args.seed)
    for stale in world_dir.glob("*"):
        stale.unlink()
    world.write(world_dir)
    print(f"{args.workload} seed {args.seed}: world generated in {perf_counter() - t0:.3f} s")

    modes = ["plain", "traced"] if args.trace else ["plain"]
    runs = _runs(world_dir, modes, args.seconds)
    failures = _check(runs)
    for line in failures:
        print(f"check failed: {line}")
        print(f"check failed: {line}", file=sys.stderr)
    good = {mode: [out for m, out in runs if m == mode and out["ok"]] for mode in modes}

    metrics: dict = {}
    if all(good.values()):
        first = good["plain"][0]
        print(f"runs: {len(runs)}, ticks per run: {len(first['tick_ms'])}, "
              f"outcomes: {json.dumps(first['outcomes'])}, trace sha256 {first['trace_sha256']}")
        values = per_layer(good["traced"], good["plain"]) if args.trace else end_to_end(good["plain"])
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
        for name, m in metrics.items():
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    result = {"correct": not failures and bool(metrics), "attempted": len(runs),
              "failed": sum(not out["ok"] for _, out in runs), "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
