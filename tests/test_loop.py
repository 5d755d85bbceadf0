"""Event loop ordering and clock laws."""

import pytest

from hetsel.simenv.loop import EventLoop, SchedulingError


def test_fifo_tie_break():
    loop = EventLoop()
    order = []
    loop.schedule(100, lambda: order.append("tick"))
    loop.schedule(100, lambda: order.append("tock"))
    loop.run_until(200)
    assert order == ["tick", "tock"]


def test_schedule_at_current_clock_runs_on_next_advance():
    loop = EventLoop()
    fired = []
    loop.schedule(0, lambda: fired.append(loop.now))
    assert fired == []
    loop.run_until(0)
    assert fired == [0]


def test_scheduling_in_the_past_is_rejected():
    loop = EventLoop()
    loop.run_until(60)
    with pytest.raises(SchedulingError):
        loop.schedule(50, lambda: None)


def test_run_until_backwards_is_rejected():
    loop = EventLoop()
    loop.run_until(100)
    with pytest.raises(SchedulingError):
        loop.run_until(99)


def test_empty_queue_advances_clock():
    loop = EventLoop()
    assert loop.run_until(1000) == 1000
    assert loop.now == 1000


def test_time_then_insertion_order():
    loop = EventLoop()
    order = []
    loop.schedule(10, lambda: order.append("first-10"))
    loop.schedule(10, lambda: order.append("second-10"))
    loop.schedule(5, lambda: order.append("five"))
    loop.run_until(20)
    assert order == ["five", "first-10", "second-10"]


def test_actions_can_schedule_at_current_time():
    loop = EventLoop()
    order = []

    def outer():
        order.append("outer")
        loop.schedule(loop.now, lambda: order.append("inner"))

    loop.schedule(5, outer)
    loop.run_until(5)
    assert order == ["outer", "inner"]


def test_clock_is_monotonic_across_events():
    loop = EventLoop()
    stamps = []
    for at in (3, 1, 2, 1):
        loop.schedule(at, lambda: stamps.append(loop.now))
    loop.run_until(10)
    assert stamps == sorted(stamps)
