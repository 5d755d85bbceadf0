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
        "7216c56d10977eccf19b451dd83bbf355da7c12dc4f01f6f03227faba0188070",
        "bcc246f978665f748fa4224ff34c4583dd77bef1a8b969e5b5ccc8e2b5f19051"),
    "herd_two_cells": (
        "a02a5be3446e65a900a780f8c127c5685ca43e6042fa8789e30c6302b21d9c92",
        "224c605be9a51995f5dda8e75d83283f3ba0f40b2eed8c713b5764aa029f3913"),
    "scan_full_fallback": (
        "15fcbaebe083022a766b074f02a112a5d78df9b6c035d6c310c7bae1735c3cd8",
        "b8444cbd37ae58315618b6936be7f7e8669f73cb2ca238a58b54d2a9ccc5d6c3"),
    "scan_targeted_hit": (
        "0354154f4805456ce337d39dab370ac078315c9197d82eb63917231bf8696c14",
        "281adaa751adf93a4f6d1cfd57785a51cbafc0a75239e586bd573015bb73e663"),
    "table1_mn": (
        "8ee0cde1fecba801ee8b84edbaa015e5bf5bbe50e4f1ae59fb95be80b1f74050",
        "d3554a789723046d3d68a6880669464a891196eb5df3d35194d2fd9c7347d7ec"),
    "table1_mr": (
        "dba6ed625abe1714989bb2e0c4a1681a2db72e735c71bb9b5ac4bdff168a98c7",
        "8500512f02130c2241fa9a633b22673925ea2a79b0b3ac895e367a533c672d78"),
    "two_operators_deny": (
        "9357fd3cf44bd64d2e10d274784e0a496ac356384fe6576f9a8605aa18655216",
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
    "commuter_churn": "58b43955f50783cbd3910ad90c87a22fb74bc98b7cf9b5f72df8b0c70fe43a6d",
    "metro_dense": "ce9307264eac3b1dc0abaee285613b24c6d059dfda7ebdad3354a36c8e38f30e",
    "monitor_fanout": "575ae7e55a37d1c229b90c367966e7b723eac7b1c910f6ab38b33bbc721ff7e5",
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
