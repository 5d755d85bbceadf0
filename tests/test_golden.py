"""Golden sha256 digests of what ``hetsel run`` writes for each shipped scenario.

To update: run ``hetsel run scenarios/<name>.json --out DIR`` and take
``sha256sum DIR/trace.txt DIR/stats.json``; a change that alters behaviour
updates these digests and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from hetsel.harness.runner import run_to_files

from conftest import SCENARIO_DIR, SHIPPED_SCENARIOS

# scenario -> (trace.txt sha256, stats.json sha256)
GOLDEN = {
    "attenuation_sweep": (
        "c985d8bdbc7616699902efa76fe04336f4502385a04124122860ad41d401ec03",
        "3ccfdcd4525e1251a8259e2a4227203e06cc5c61c2fc67d180d32cb2c3aa3c2e"),
    "scan_full_fallback": (
        "c5f7f451297622e2cb50d1b96dd68303d978ab75fbda142e8ed083418fa20d62",
        "958246d88af4e2db0d797c0d4775d3f1224bab1606093102ba39d8bd00f53389"),
    "scan_targeted_hit": (
        "202963449a1660c908a5bc74b5f39a8e328db4520cb1efbfce0437f73e50a506",
        "daa2188b7b7abe45bbcd26f3d9734b4df3ea6d603898f94ff9f2672d52a5cd77"),
    "table1_mn": (
        "e4c9787d501f83fecd46ff77f19cec9536b78e33ae28aec31a599896f5ac5fcf",
        "41bf60c1993bb5f720c906a27a04cd56818ccee367a9b281141fa49819849b75"),
    "table1_mr": (
        "380f5a03071ad1ac370bd14ba489cb39aa069299165178042188dfd2dc8d77fc",
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
