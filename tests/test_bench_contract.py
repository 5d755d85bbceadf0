"""The benchmark worker runs a shipped scenario cleanly in both of its modes.

``perfbench/worker.py`` reaches into the package by module, class and
function name to time each layer; a rename that breaks it fails here rather
than silently turning benchmark runs into counted failures.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mode", ["plain", "traced"])
def test_worker_runs_a_shipped_scenario(tmp_path, mode):
    shutil.copy(ROOT / "scenarios" / "table1_mn.json", tmp_path / "scenario.json")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--dir", str(tmp_path), "--mode", mode],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["checks"], proc.stderr
    assert all(result["checks"].values()), (result["checks"], proc.stderr)
    if mode == "traced":
        assert result["layers"]
