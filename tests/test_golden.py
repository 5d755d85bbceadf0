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
        "b15836dab0924abeb67a10e3590c270ad1f13ce6a144efbca730ab13646d96e5",
        "3ccfdcd4525e1251a8259e2a4227203e06cc5c61c2fc67d180d32cb2c3aa3c2e"),
    "herd_two_cells": (
        "e8351476861f97fd20ff457e9c12a04d5144db05c486b661d7427f9f47c17496",
        "498d15d3ef9478a0d5abb3801e1d1d15a74746dc7897b25cf0f6eaa911f37745"),
    "scan_full_fallback": (
        "86239a8cb4da6bd81783b118997911a9193d38481438ef24307002703161bdab",
        "958246d88af4e2db0d797c0d4775d3f1224bab1606093102ba39d8bd00f53389"),
    "scan_targeted_hit": (
        "c5fd960cd027dd534ab8ebf1a7447fd46cb5d8f6b1fab63326af92e683b7369e",
        "daa2188b7b7abe45bbcd26f3d9734b4df3ea6d603898f94ff9f2672d52a5cd77"),
    "table1_mn": (
        "b0479ae2b5157cdc88b171ab30575ca319186ba274c7f2435a12c448a90826d0",
        "41bf60c1993bb5f720c906a27a04cd56818ccee367a9b281141fa49819849b75"),
    "table1_mr": (
        "208fe709336277b770afc53901b0d3697397f08b0adcb52fe2654d4d7164e9c5",
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
