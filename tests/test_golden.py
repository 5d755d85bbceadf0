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
        "96c21987b8c9ad9cfce2a75c9554edb96306ac26a3e690c1306f723d561c2703",
        "3ccfdcd4525e1251a8259e2a4227203e06cc5c61c2fc67d180d32cb2c3aa3c2e"),
    "herd_two_cells": (
        "f0a7e94d79041b01eaff79140b9ac76990c188922da4ac28f69fd0d3c0e9b80e",
        "498d15d3ef9478a0d5abb3801e1d1d15a74746dc7897b25cf0f6eaa911f37745"),
    "scan_full_fallback": (
        "ca29d17ef033d93a529efb6a37ab9ba937cce5a61946905d989f8f6470884d81",
        "958246d88af4e2db0d797c0d4775d3f1224bab1606093102ba39d8bd00f53389"),
    "scan_targeted_hit": (
        "04200a6a194e5d610fb09ad869e78b36ef7a1ff8aba267f0acefe439040dc2ca",
        "daa2188b7b7abe45bbcd26f3d9734b4df3ea6d603898f94ff9f2672d52a5cd77"),
    "table1_mn": (
        "30746e4e5e75212bf2ce27b12c3ac56d1523b02e708fefcb266f071984f8e9f2",
        "41bf60c1993bb5f720c906a27a04cd56818ccee367a9b281141fa49819849b75"),
    "table1_mr": (
        "e25b5473dd7e28103c7810526899e2017285cde804e1b5ccf1d2d4aa76a4824d",
        "da7e138b89ded430e632ac3cb6ad50c7eb3c6703f62ed22b3d90730c5d77133a"),
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
    "commuter_churn": "f14e9952a1c267f2cdbbd83d276b26be5b418b89f4a5721cf1d99b6e768ce60d",
    "metro_dense": "20dbd7954b9ce9ffbe169b4ab260fc4dcbc4a1dff9d94371d7cb75ced1904166",
    "monitor_fanout": "cd2ebb165683ecd87dcfd2f74f50a97c8c6e95c6975492f06b51c197329e11b7",
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
