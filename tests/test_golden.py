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
        "21c84a3b30e7592e278bee43291a71ae17cc3f19661df089982c81130c6f09a4",
        "bcc246f978665f748fa4224ff34c4583dd77bef1a8b969e5b5ccc8e2b5f19051"),
    "herd_two_cells": (
        "761ac1028fd019e5fe456df0c5c0edf5f375dfc8fa72bbc598febf12aa573272",
        "224c605be9a51995f5dda8e75d83283f3ba0f40b2eed8c713b5764aa029f3913"),
    "policies_check_timeout": (
        "e8153f02755cfd343bc565bd88a5b1d24c96ba513e7805d81ec13a91ad436788",
        "9b04fb5810c09d14450400ae8d731bb0a56065d9078f3e0c567bd679f6b7d85d"),
    "scan_full_fallback": (
        "8b7ffe7a0beaaf81b7c688c2dc8362f552596a29402a2c4145ea3f1506f931cc",
        "b8444cbd37ae58315618b6936be7f7e8669f73cb2ca238a58b54d2a9ccc5d6c3"),
    "scan_targeted_hit": (
        "bb6c3ee88b693cc5a2f9a8542676a66464b6c68e14a7f8a41ba42e263caf1196",
        "281adaa751adf93a4f6d1cfd57785a51cbafc0a75239e586bd573015bb73e663"),
    "table1_mn": (
        "1a51e31fc57ab3751fdfb05298fe7743f5853c6c59befe31cc61338f60c0b43f",
        "d3554a789723046d3d68a6880669464a891196eb5df3d35194d2fd9c7347d7ec"),
    "table1_mr": (
        "c39c8715e91b7fdf06174395653c09a52cd8d30a0056f3468d5c27d5ddb94eda",
        "8500512f02130c2241fa9a633b22673925ea2a79b0b3ac895e367a533c672d78"),
    "two_operators_deny": (
        "ef2c36f7ffb8ddc0539f4562fb206bee56a733f0dcac5ad9d937b0a4b8faad67",
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
    "commuter_churn": "9221bc478cd355142cc0687c5c40d7e5c3808bc3165d2b2cffb944f3ec518a46",
    "metro_dense": "d13016aacd3cc6714ca2d3969300ff64d22eff41a4bc1e8bf58d68535632d131",
    "monitor_fanout": "0a4ef0c7a8066f52368a96eff0d90d5dac682be69f32cc66a3b159e6b9991d35",
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
