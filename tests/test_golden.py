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
        "a9f1d1183e7df1cdf5181fdeadddc6a787ee7f128db309e2c9f16539cebe8f14",
        "bcc246f978665f748fa4224ff34c4583dd77bef1a8b969e5b5ccc8e2b5f19051"),
    "herd_two_cells": (
        "c601cf5be9e85de3b03e85cf6e7418357ecbf3b3b1007164a76a3ca44edaa3c0",
        "224c605be9a51995f5dda8e75d83283f3ba0f40b2eed8c713b5764aa029f3913"),
    "scan_full_fallback": (
        "a57e8641bd2262f8c6df4b3a2005bbf69a432543c2eefc607cac0882a1f93904",
        "b8444cbd37ae58315618b6936be7f7e8669f73cb2ca238a58b54d2a9ccc5d6c3"),
    "scan_targeted_hit": (
        "99fc89c1df135053b70719027d52ee1104a14c770b7a4c6aa3bfdcf626972f76",
        "281adaa751adf93a4f6d1cfd57785a51cbafc0a75239e586bd573015bb73e663"),
    "table1_mn": (
        "6ad6d3c6540f6bdfb5d94e0e117c49fb2768d980ba6cffa56450b204d03bfc6a",
        "d3554a789723046d3d68a6880669464a891196eb5df3d35194d2fd9c7347d7ec"),
    "table1_mr": (
        "7d57b8c49d133f1df5a7be4afd9db2c596126b396e9acfd75613b332a3768cc6",
        "8500512f02130c2241fa9a633b22673925ea2a79b0b3ac895e367a533c672d78"),
    "two_operators_deny": (
        "58082b3a158a2fc4ccc4ed61afd817159bda95add388cbc300d141aa312331ee",
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
    "commuter_churn": "eb394444f16b6661b427651a891e4465003c69ad0d93343dc07735f4858f77f7",
    "metro_dense": "6f89ebd8ebca02bca42734475d58e2e0ce4afb2372af778175b2a4a57f3149f7",
    "monitor_fanout": "3f3acfa7344f9e5c156282d139ef3439418b16ddd8433e3088a4e5716cb8508f",
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
