"""In-process span recording around the simulator's public entry points.

The benchmark wraps functions from its own code, by replacing module and
instance attributes; the simulator itself is not changed.  Every wrapped call
becomes a span (name, parent, start, end) kept in flat arrays in memory and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children.

Limitation: a bus callback runs inside ``TriggerBus.publish``, so the time of
a callback that calls no wrapped function counts as publish self time.
"""

from __future__ import annotations

import math
from array import array
from time import perf_counter_ns
from typing import Callable, Sequence

# Span name -> layer.  Names without a layer (the benchmark's own root spans)
# collect time that no wrapped call covers.
LAYER_OF = {
    "load_scenario": "simenv",
    "EventLoop.schedule": "simenv",
    "Environment.apply_action": "simenv",
    "Environment.map_flow": "simenv",
    "map_link_quality": "gll",
    "report_to_payload": "gll",
    "GenericLinkLayer.request_scan": "gll",
    "GenericLinkLayer.attach": "gll",
    "MultiRadioResourceManager.decide": "mrrm",
    "select_access": "mrrm",
    "report_from_payload": "mrrm",
    "TriggerBus.publish": "trg",
    "TriggerBus.subscribe": "trg",
    "TraceRecorder.record": "harness",
    "format_record": "harness",
    "compute_stats": "harness",
    "parse_record": "harness",
}
LAYERS = ("simenv", "gll", "mrrm", "trg", "harness")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation between
    closest ranks, as NumPy's default method."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class SpanRecorder:
    """Spans of one process, in call order; ids are list positions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.name_code = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.parent)

    def wrap(self, name: str, fn: Callable) -> Callable:
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        parents, codes, starts, ends = self.parent, self.name_code, self.start, self.end

        def spanned(*args, **kwargs):
            idx = len(parents)
            parents.append(stack[-1] if stack else -1)
            codes.append(code)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                starts[idx] = t0
                stack.pop()

        return spanned

    def patch(self, owner: object, attr: str, name: str,
              observe: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a spanned version; ``observe(result,
        *args)`` runs inside the span after each call."""
        original = getattr(owner, attr)
        fn = original
        if observe is not None:
            def fn(*args, **kwargs):
                result = original(*args, **kwargs)
                observe(result, *args)
                return result
        self._patched.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, self.wrap(name, fn))

    def restore(self) -> None:
        for owner, attr, previous in reversed(self._patched):
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write one tab-separated line per span."""
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, row in enumerate(zip(self.parent, self.name_code, self.start, self.end)):
                parent, code, start, end = row
                out.write(f"{i}\t{parent}\t{names[code]}\t{start}\t{end}\n")


_ABSENT = object()


def self_times(parent: Sequence[int], start: Sequence[int], end: Sequence[int]) -> array:
    """Self time of every span: its duration minus its direct children's.

    Spans are given as parallel sequences indexed by span id; ``parent`` is -1
    for a root and every parent comes before its children.
    """
    own = array("q", (e - s for s, e in zip(start, end)))
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def subtree(parent: Sequence[int], root: int) -> bytearray:
    """Membership mask of ``root`` and every span below it."""
    inside = bytearray(len(parent))
    inside[root] = 1
    for i in range(root + 1, len(parent)):
        p = parent[i]
        if p >= 0 and inside[p]:
            inside[i] = 1
    return inside
