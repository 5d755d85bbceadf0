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
        "11a581856a7c56496b683dda89698c97e2673f1ebad604994ba4e8749f76ceb5",
        "3ccfdcd4525e1251a8259e2a4227203e06cc5c61c2fc67d180d32cb2c3aa3c2e"),
    "herd_two_cells": (
        "8feb82961b4120afa3f254bc33417c3223a84a697f416421821dcc4a12b70149",
        "498d15d3ef9478a0d5abb3801e1d1d15a74746dc7897b25cf0f6eaa911f37745"),
    "scan_full_fallback": (
        "cdd9c4b4cc92cf65d2b6e990d65767fd4ec3a3704d757e240845d5b2f63b8c37",
        "958246d88af4e2db0d797c0d4775d3f1224bab1606093102ba39d8bd00f53389"),
    "scan_targeted_hit": (
        "6514569d15b0a4cbfcf4aaed130e9c71032304a1b8bded66b5e0185169bdafc1",
        "daa2188b7b7abe45bbcd26f3d9734b4df3ea6d603898f94ff9f2672d52a5cd77"),
    "table1_mn": (
        "7913931fee1d3218b7c89d3f5d384bd1160ac2b61ce24baf5922d89ee580681e",
        "41bf60c1993bb5f720c906a27a04cd56818ccee367a9b281141fa49819849b75"),
    "table1_mr": (
        "c088d17e5a37296be01ad4e87a69611c02871e1763851495ed978733137536f7",
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
