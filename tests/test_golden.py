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
        "d12c4ff95c64bd16328fb87edcb697248aeae9d6eac9183b58733dbd7365bd79",
        "bcc246f978665f748fa4224ff34c4583dd77bef1a8b969e5b5ccc8e2b5f19051"),
    "herd_two_cells": (
        "3517b27c89f5537f0f7fa5bb8e2ba7becf67e569cb37cb27fc74c40484399703",
        "224c605be9a51995f5dda8e75d83283f3ba0f40b2eed8c713b5764aa029f3913"),
    "policies_check_timeout": (
        "6cb03300b384fa152c7536ba408fcd99ea0df075a9d42e54f2d18f8e4d39b0d5",
        "9b04fb5810c09d14450400ae8d731bb0a56065d9078f3e0c567bd679f6b7d85d"),
    "scan_full_fallback": (
        "add192a4bf0550c40dc7628feb450b217dfbb9431150d51b8b2979de63549795",
        "b8444cbd37ae58315618b6936be7f7e8669f73cb2ca238a58b54d2a9ccc5d6c3"),
    "scan_targeted_hit": (
        "e75b9364122cc8a55f913fa15eceff08a57237828d6fd2922e4e05ca1efb5a06",
        "281adaa751adf93a4f6d1cfd57785a51cbafc0a75239e586bd573015bb73e663"),
    "table1_mn": (
        "d0ec29173cb43671e4acb5a4b42eba00fb6526115e4b8bf370e7b0463d613d94",
        "d3554a789723046d3d68a6880669464a891196eb5df3d35194d2fd9c7347d7ec"),
    "table1_mr": (
        "983563ba41e8af3a919923b271512330affb11baa5dc22ec560a0199738325f3",
        "8500512f02130c2241fa9a633b22673925ea2a79b0b3ac895e367a533c672d78"),
    "two_operators_deny": (
        "59166787272177c1de7fa640c9db2ab9ad34b20ceae9c0d4c553ad6f1b7bc0dc",
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
    "commuter_churn": "30ea0e4fe5fc272d2b9d22b3cd4e4284ddef586c4163db64aaa868dd74d072d1",
    "metro_dense": "7824f64e096fd158851ef9f4c49533b06d788f0a39346fa3960d7357c76e2586",
    "monitor_fanout": "24060c19aa87327d8d2742ae0736265cc29f7d974eb2d563230228581f6b36e3",
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
