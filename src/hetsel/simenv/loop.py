"""Deterministic discrete-event loop with integer-millisecond time."""

from __future__ import annotations

import heapq
from typing import Callable


class SchedulingError(ValueError):
    """Scheduling in the past, or running the clock backwards."""


class EventLoop:
    """Single-threaded event loop; equal-time actions run in insertion order."""

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._queue: list[tuple[int, int, Callable[[], None]]] = []

    @property
    def now(self) -> int:
        return self._now

    def schedule(self, at: int, action: Callable[[], None]) -> None:
        """Run ``action`` when the clock reaches ``at`` (>= current time)."""
        if at < self._now:
            raise SchedulingError(f"cannot schedule at {at}, clock is at {self._now}")
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, action))

    def schedule_after(self, delay: int, action: Callable[[], None]) -> None:
        self.schedule(self._now + delay, action)

    def run_until(self, end: int) -> int:
        """Execute all actions with time <= ``end``; leave the clock at ``end``."""
        if end < self._now:
            raise SchedulingError(f"cannot run until {end}, clock is at {self._now}")
        while self._queue and self._queue[0][0] <= end:
            at, _, action = heapq.heappop(self._queue)
            self._now = at
            action()
        self._now = end
        return self._now

    def pending(self) -> int:
        return len(self._queue)
