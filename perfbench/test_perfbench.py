"""Self-tests of the benchmark's own code: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import SpanRecorder, percentile, self_times, subtree  # noqa: E402
from worlds import WORKLOADS, generate  # noqa: E402

from hetsel.simenv.scenario import load_scenario  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_files(workload):
    assert generate(workload, 7).files() == generate(workload, 7).files()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seeds_give_different_worlds(workload):
    assert generate(workload, 7).files() != generate(workload, 8).files()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_world_passes_strict_loading(workload, tmp_path):
    world = generate(workload, 3)
    world.write(tmp_path)
    scenario = load_scenario(tmp_path / "scenario.json")
    assert all(re.fullmatch(r"c\d+", c.cell_id) for c in scenario.cells)
    flow_ids = [f.flow_id for f in scenario.flows]
    flow_ids += [a.target for a in scenario.timeline if a.kind == "flow-arrival"]
    assert all(re.fullmatch(r"f\d+", f) for f in flow_ids)
    if workload == "monitor_fanout":
        subscriptions = json.loads((tmp_path / "subscriptions.json").read_text())
        assert len(subscriptions) == 100
        assert len(scenario.trg.correlations) == 20


def test_self_time_subtracts_direct_children_only():
    # root [0,100] > a [10,60] > b [20,30]; root > c [70,90]; d [200,210] is a second root.
    parent = [-1, 0, 1, 0, -1]
    start = [0, 10, 20, 70, 200]
    end = [100, 60, 30, 90, 210]
    assert list(self_times(parent, start, end)) == [100 - 50 - 20, 50 - 10, 10, 20, 10]
    assert list(subtree(parent, 0)) == [1, 1, 1, 1, 0]
    assert list(subtree(parent, 1)) == [0, 1, 1, 0, 0]


def test_recorder_links_nested_calls_to_their_caller():
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    assert list(rec.parent) == [-1, 0, 0]
    assert [rec.names[c] for c in rec.name_code] == ["outer", "inner", "inner"]
    own = self_times(rec.parent, rec.start, rec.end)
    assert own[0] == (rec.end[0] - rec.start[0]) - sum(rec.end[i] - rec.start[i] for i in (1, 2))
    assert min(own) >= 0


def test_patch_and_restore_instance_and_class_attributes():
    class Box:
        def get(self):
            return 1

    box = Box()
    rec = SpanRecorder()
    seen = []
    rec.patch(box, "get", "Box.get", observe=lambda result: seen.append(result))
    rec.patch(Box, "get", "Box.get")
    assert box.get() == 1 and Box().get() == 1
    assert seen == [1] and len(rec) == 2
    rec.restore()
    assert "get" not in box.__dict__ and Box.get(box) == 1 and len(rec) == 2


def test_percentile_interpolates_between_ranks():
    assert percentile([3.0], 95) == 3.0
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([4, 1, 3, 2], 0) == 1
    assert percentile([4, 1, 3, 2], 100) == 4
    assert percentile(list(range(1, 101)), 95) == pytest.approx(95.05)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)
