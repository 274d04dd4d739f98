"""Tests for the discrete-event queue."""

import pytest

from repro.sim import EventQueue
from repro.sim.events import SimError


@pytest.fixture
def queue():
    return EventQueue()


class TestScheduling:
    def test_events_run_in_time_order(self, queue):
        order = []
        queue.schedule(3.0, lambda: order.append("c"))
        queue.schedule(1.0, lambda: order.append("a"))
        queue.schedule(2.0, lambda: order.append("b"))
        queue.run()
        assert order == ["a", "b", "c"]

    def test_ties_resolve_in_scheduling_order(self, queue):
        order = []
        queue.schedule(1.0, lambda: order.append("first"))
        queue.schedule(1.0, lambda: order.append("second"))
        queue.run()
        assert order == ["first", "second"]

    def test_now_advances_with_events(self, queue):
        times = []
        queue.schedule(2.5, lambda: times.append(queue.now))
        queue.run()
        assert times == [2.5]
        assert queue.now == 2.5

    def test_negative_delay_rejected(self, queue):
        with pytest.raises(SimError):
            queue.schedule(-1.0, lambda: None)

    def test_nested_scheduling(self, queue):
        order = []

        def outer():
            order.append("outer")
            queue.schedule(1.0, lambda: order.append("inner"))

        queue.schedule(1.0, outer)
        queue.run()
        assert order == ["outer", "inner"]
        assert queue.now == 2.0


class TestRun:
    def test_step_returns_event(self, queue):
        queue.schedule(1.0, lambda: None, label="tick")
        event = queue.step()
        assert event is not None and event.label == "tick"
        assert queue.step() is None

    def test_processed_counter(self, queue):
        for i in range(4):
            queue.schedule(float(i), lambda: None)
        queue.run()
        assert queue.processed == 4

    def test_runaway_loop_guarded(self, queue):
        def rescheduler():
            queue.schedule(0.1, rescheduler)

        queue.schedule(0.0, rescheduler)
        with pytest.raises(SimError):
            queue.run(max_events=100)

    def test_exact_drain_at_max_events_is_not_runaway(self, queue):
        """Regression: draining in exactly ``max_events`` events used to
        raise a spurious runaway-loop SimError via the while/else."""
        for i in range(10):
            queue.schedule(float(i), lambda: None)
        assert queue.run(max_events=10) == 10
        assert queue.pending == 0

    def test_budget_exhaustion_with_pending_events_still_raises(self, queue):
        for i in range(11):
            queue.schedule(float(i), lambda: None)
        with pytest.raises(SimError):
            queue.run(max_events=10)

    def test_run_before_leaves_events_due_at_the_bound(self, queue):
        order = []
        queue.schedule(1.0, lambda: order.append("early"))
        queue.schedule(2.0, lambda: order.append("at-bound"))
        assert queue.run_before(2.0) == 1
        assert order == ["early"]
        assert queue.now == 2.0
        assert queue.pending == 1
        queue.run()
        assert order == ["early", "at-bound"]

    def test_run_before_never_moves_the_clock_back(self, queue):
        queue.schedule(3.0, lambda: None)
        queue.run()
        queue.run_before(1.0)
        assert queue.now == 3.0
