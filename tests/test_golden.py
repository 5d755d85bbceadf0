"""Golden sha256 digests of what ``hetsel run`` writes for each shipped scenario,
and of the trace the benchmark worker writes for each benchmark world at seed 1.

To update: run ``hetsel run scenarios/<name>.json --out DIR`` and take
``sha256sum DIR/trace.txt DIR/stats.json``; for a benchmark world, write it
with ``perfbench/worlds.py`` ``generate(name, 1).write(DIR)``, run
``python3 perfbench/worker.py --dir DIR --mode plain`` and take its
``trace_sha256``.  A change that alters behaviour updates these digests and
says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from hetsel.harness.runner import run_to_files

from conftest import REPO_ROOT, SCENARIO_DIR, SHIPPED_SCENARIOS

PERFBENCH = REPO_ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from worlds import WORKLOADS, generate  # noqa: E402

# scenario -> (trace.txt sha256, stats.json sha256)
GOLDEN = {
    "attenuation_sweep": (
        "1f850f16da7a0874e7436b3f131c1f0e54a9455899720b7e2c4db4e4b2e1fe25",
        "bcc246f978665f748fa4224ff34c4583dd77bef1a8b969e5b5ccc8e2b5f19051"),
    "herd_two_cells": (
        "5e43b4c4797df50d0af90dcaff96aaadf106fc21a021ee4361fa4c5f2bc35633",
        "224c605be9a51995f5dda8e75d83283f3ba0f40b2eed8c713b5764aa029f3913"),
    "scan_full_fallback": (
        "f406192eb22f457da71f20a29ca6d4e6114a7e2dd4a26c57dcfe7f4472e9d70f",
        "b8444cbd37ae58315618b6936be7f7e8669f73cb2ca238a58b54d2a9ccc5d6c3"),
    "scan_targeted_hit": (
        "45d25b05cca2e31cdc37f4d080a8dbe0eeaaa146a18c4982ed47fe6d11f93a90",
        "281adaa751adf93a4f6d1cfd57785a51cbafc0a75239e586bd573015bb73e663"),
    "table1_mn": (
        "cf79477c7be6a8f65f8696b36a5c5eeef347a533c4a19e596abd15619efe1bb5",
        "d3554a789723046d3d68a6880669464a891196eb5df3d35194d2fd9c7347d7ec"),
    "table1_mr": (
        "90253c3790e6619642e2f0b00171ef1109eb02d64152b12c7e2b89a6cc74f307",
        "8500512f02130c2241fa9a633b22673925ea2a79b0b3ac895e367a533c672d78"),
    "two_operators_deny": (
        "0043bca6c0218bed85a3a3cea63d0b73c4695c20d6348dc6df52cdeaafcc2b1a",
        "87078fbb2394813ac71df2f180d44b3693490f6f9e9aaca7af23a9cf362e8e68"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_shipped_scenario_has_a_golden_digest():
    assert sorted(GOLDEN) == [p.stem for p in SHIPPED_SCENARIOS]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_outputs_match_golden_digests(name, tmp_path):
    _, trace_path, stats_path = run_to_files(SCENARIO_DIR / f"{name}.json", tmp_path)
    assert (_sha256(trace_path), _sha256(stats_path)) == GOLDEN[name]


# benchmark workload -> trace.txt sha256 of its seed-1 world
BENCH_TRACES = {
    "commuter_churn": "5766324dee7c628f04e5252b88d1037a7f259d2f480127dac95c17d025e43117",
    "metro_dense": "6d6eddfc8805a75870ee97fd87ca4fdeb28f23a30206cca92282e6e34a6a1280",
    "monitor_fanout": "1fad871d0ec81d472eade81e38eabf426031cbb28f64c52307914648d366d906",
}


def test_every_benchmark_workload_has_a_golden_digest():
    assert sorted(BENCH_TRACES) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(BENCH_TRACES))
def test_benchmark_traces_match_golden_digests(workload, tmp_path):
    generate(workload, 1).write(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--dir", str(tmp_path), "--mode", "plain"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["checks"] and all(result["checks"].values()), (result["checks"], proc.stderr)
    assert result["trace_sha256"] == BENCH_TRACES[workload]
