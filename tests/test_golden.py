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
        "50330f74c3a570c62b4e684c789087c7014b6d24ca5ddb44bb84f6fedfa492d5",
        "bcc246f978665f748fa4224ff34c4583dd77bef1a8b969e5b5ccc8e2b5f19051"),
    "herd_two_cells": (
        "a9b30206de5f19f9c4561629e7cba0d480bf29bad99c682fecc5c0de1cfb1199",
        "224c605be9a51995f5dda8e75d83283f3ba0f40b2eed8c713b5764aa029f3913"),
    "network_cell_return": (
        "a13b4d7df6827b5d501c1d17e5bec63579a5b6090f0192dc8c9fc09d2c8bf739",
        "b5969b7f9a3f15e102946248894e241e5c44391946d1bf73bb6dc5267b8c75d7"),
    "policies_check_timeout": (
        "343bdbc3847b0a40dcc304e3405576ba174985ac0570578d901a9cb4fd2a17db",
        "9b04fb5810c09d14450400ae8d731bb0a56065d9078f3e0c567bd679f6b7d85d"),
    "scan_full_fallback": (
        "dead6d3fbe49d1fa4f1e8dd3f1c60ed11b4fbaf6f82c21c75b0af74c5cd0419b",
        "b8444cbd37ae58315618b6936be7f7e8669f73cb2ca238a58b54d2a9ccc5d6c3"),
    "scan_targeted_hit": (
        "9af2b4d6a6c2f18890da1026de2546e2923627d1b5a67db54843402331779a08",
        "281adaa751adf93a4f6d1cfd57785a51cbafc0a75239e586bd573015bb73e663"),
    "table1_mn": (
        "3f2252727720bd0d873073de9dfe4c99bcda4035f0de1587bff469c3d413a99d",
        "d3554a789723046d3d68a6880669464a891196eb5df3d35194d2fd9c7347d7ec"),
    "table1_mr": (
        "b7b7b4173067cf9e51e1c5f56898a5840503f46312dffcaf24aa3df933c1ca70",
        "8500512f02130c2241fa9a633b22673925ea2a79b0b3ac895e367a533c672d78"),
    "two_operators_deny": (
        "a507d8bf1d0cd4faaaf863194fa3e4357b756b43c22844074046250128a4e216",
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
    "commuter_churn": "6154e0ce0cb4abee5ed8247f9fd0ba61c278527ec2986efa578f086c2acdbe25",
    "metro_dense": "5194cbb6ed8ad88aef871fa4492a12d3b4e8cbdb0e2e604e5643a2a3c84addf5",
    "monitor_fanout": "a133b71f901281cdb0d5b6e68767c222017f33e6fa5296e592715072b503cbef",
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
