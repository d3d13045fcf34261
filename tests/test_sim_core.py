"""Unit tests for the discrete-event simulator core."""

from __future__ import annotations

import random

import pytest

from repro.common.errors import SimulationError
from repro.sim.core import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim: Simulator):
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_insertion_order(self, sim: Simulator):
        fired = []
        for name in "abcde":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self, sim: Simulator):
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.schedule(7.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5, 7.0]

    def test_negative_delay_rejected(self, sim: Simulator):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self, sim: Simulator):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_cancelled_event_does_not_fire(self, sim: Simulator):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_args_prebinding(self, sim: Simulator):
        fired = []
        sim.schedule(1.0, fired.append, args=("a",))
        sim.call_soon(fired.append, args=("now",))
        sim.schedule_at(2.0, lambda x, y: fired.append(x + y), args=(1, 2))
        sim.run()
        assert fired == ["now", "a", 3]

    def test_call_soon_merges_with_heap_by_insertion_order(self, sim: Simulator):
        # call_soon rides a FIFO fast lane; zero-delay heap events scheduled
        # later must still fire later (global (time, seq) order).
        fired = []
        sim.call_soon(lambda: fired.append("fifo-1"))
        sim.schedule(0.0, lambda: fired.append("heap-1"))
        sim.call_soon(lambda: fired.append("fifo-2"))
        sim.schedule(1.0, lambda: fired.append("later"))
        sim.run()
        assert fired == ["fifo-1", "heap-1", "fifo-2", "later"]

    def test_call_soon_during_event_runs_before_later_times(self, sim: Simulator):
        fired = []

        def outer():
            fired.append("outer")
            sim.call_soon(lambda: fired.append("soon"))

        sim.schedule(1.0, outer)
        sim.schedule(2.0, lambda: fired.append("after"))
        sim.run()
        assert fired == ["outer", "soon", "after"]

    def test_call_soon_runs_after_already_queued_same_time(self, sim: Simulator):
        fired = []
        sim.schedule(0.0, lambda: fired.append("first"))
        sim.call_soon(lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second"]

    def test_nested_scheduling(self, sim: Simulator):
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(2.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 3.0)]


class TestRunControl:
    def test_run_until_leaves_later_events(self, sim: Simulator):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run_until(5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1
        sim.run()
        assert fired == [1, 10]

    def test_run_until_backwards_rejected(self, sim: Simulator):
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_run_livelock_guard(self, sim: Simulator):
        def reschedule():
            sim.schedule(0.1, reschedule)

        sim.schedule(0.1, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_step_returns_false_when_empty(self, sim: Simulator):
        assert sim.step() is False

    def test_events_processed_counter(self, sim: Simulator):
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestCancellationAccounting:
    def test_pending_events_excludes_cancelled(self, sim: Simulator):
        live = sim.schedule(1.0, lambda: None)
        doomed = sim.schedule(2.0, lambda: None)
        fifo_doomed = sim.call_soon(lambda: None)
        assert sim.pending_events == 3
        doomed.cancel()
        fifo_doomed.cancel()
        assert sim.pending_events == 1
        assert sim.cancelled_events == 2
        sim.run()
        assert sim.events_processed == 1
        assert sim.pending_events == 0
        assert live.cancelled is False

    def test_cancel_is_idempotent(self, sim: Simulator):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.cancelled_events == 1
        assert sim.pending_events == 0

    def test_cancel_after_fire_does_not_skew_counters(self, sim: Simulator):
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.step()
        event.cancel()  # already fired: a no-op, not a cancellation
        assert sim.pending_events == 1
        assert sim.cancelled_events == 0

    def test_mass_cancellation_compacts_the_heap(self, sim: Simulator):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(500)]
        for event in events[:400]:
            event.cancel()
        # Lazy deletion must have compacted: the queue holds far fewer
        # entries than were scheduled, and the live count is exact.
        assert sim.pending_events == 100
        assert len(sim._queue) < 250
        assert sim.cancelled_events == 400
        sim.run()
        assert sim.events_processed == 100

    def test_cancelled_events_skipped_by_run_until(self, sim: Simulator):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2)).cancel()
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run_until(2.5)
        assert fired == [1]
        assert sim.pending_events == 1
        sim.run()
        assert fired == [1, 3]


class TestDeterminism:
    def test_same_seed_same_draws(self):
        first = [Simulator(seed=7).uniform(0, 1) for _ in range(1)]
        second = [Simulator(seed=7).uniform(0, 1) for _ in range(1)]
        assert first == second

    def test_different_seed_different_draws(self):
        a = Simulator(seed=1).uniform(0, 1)
        b = Simulator(seed=2).uniform(0, 1)
        assert a != b

    def test_uniform_bounds(self, sim: Simulator):
        for _ in range(100):
            draw = sim.uniform(2.0, 5.0)
            assert 2.0 <= draw <= 5.0

    def test_uniform_degenerate(self, sim: Simulator):
        assert sim.uniform(3.0, 3.0) == 3.0

    def test_uniform_invalid(self, sim: Simulator):
        with pytest.raises(SimulationError):
            sim.uniform(5.0, 2.0)

    def test_rng_stream_is_reproducible(self):
        items = list(range(10))
        a, b = Simulator(seed=3).rng, Simulator(seed=3).rng
        assert a.sample(items, 10) == b.sample(items, 10)
        assert a.choice(items) == b.choice(items)
        assert a.expovariate(2.0) == b.expovariate(2.0) > 0

    def test_draws_are_those_of_a_seeded_random(self):
        sim, reference = Simulator(seed=5), random.Random(5)
        assert [sim.uniform(0, 1) for _ in range(3)] == [
            reference.uniform(0, 1) for _ in range(3)]


class TestTrace:
    def test_trace_records_labelled_events(self, sim: Simulator):
        sim.enable_trace()
        sim.schedule(1.0, lambda: None, label="hello")
        sim.schedule(2.0, lambda: None)  # unlabelled, not traced
        sim.run()
        assert len(sim.trace) == 1
        assert "hello" in sim.trace[0]
