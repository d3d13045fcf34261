"""Unit tests for futures and the coroutine runner."""

from __future__ import annotations

import pytest

from repro.common.errors import OperationAborted, SimulationError
from repro.sim.core import Simulator
from repro.sim.futures import (
    Coroutine,
    QuorumFuture,
    SimFuture,
    Timer,
    all_of,
    spawn,
)


class TestSimFuture:
    def test_set_result(self, sim):
        fut = SimFuture(sim)
        assert not fut.done()
        fut.set_result(5)
        assert fut.done()
        assert fut.result() == 5

    def test_set_exception(self, sim):
        fut = SimFuture(sim)
        fut.set_exception(ValueError("boom"))
        assert fut.done()
        with pytest.raises(ValueError):
            fut.result()
        assert isinstance(fut.exception(), ValueError)

    def test_result_before_done_raises(self, sim):
        fut = SimFuture(sim)
        with pytest.raises(SimulationError):
            fut.result()

    def test_double_resolution_rejected(self, sim):
        fut = SimFuture(sim)
        fut.set_result(1)
        with pytest.raises(SimulationError):
            fut.set_result(2)

    def test_try_set_result(self, sim):
        fut = SimFuture(sim)
        assert fut.try_set_result(1) is True
        assert fut.try_set_result(2) is False
        assert fut.result() == 1

    def test_callback_after_done_runs_immediately(self, sim):
        fut = SimFuture(sim)
        fut.set_result("x")
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        assert seen == ["x"]

    def test_callback_before_done_runs_on_resolution(self, sim):
        fut = SimFuture(sim)
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        assert seen == []
        fut.set_result(3)
        assert seen == [3]


class TestQuorumFuture:
    def test_resolves_at_threshold(self, sim):
        fut = QuorumFuture(sim, threshold=3)
        fut.add_response("a")
        fut.add_response("b")
        assert not fut.done()
        fut.add_response("c")
        assert fut.done()
        assert fut.result() == ["a", "b", "c"]

    def test_late_responses_do_not_change_result(self, sim):
        fut = QuorumFuture(sim, threshold=1)
        fut.add_response("first")
        fut.add_response("late")
        assert fut.result() == ["first"]
        assert len(fut.responses) == 2

    def test_zero_threshold_resolves_immediately(self, sim):
        fut = QuorumFuture(sim, threshold=0)
        assert fut.done()
        assert fut.result() == []

    def test_negative_threshold_rejected(self, sim):
        with pytest.raises(SimulationError):
            QuorumFuture(sim, threshold=-1)


class TestTimerAndCombinators:
    def test_timer_resolves_after_delay(self, sim):
        timer = Timer(sim, 5.0)
        sim.run()
        assert timer.done()
        assert sim.now == 5.0

    def test_timer_cancel(self, sim):
        timer = Timer(sim, 5.0)
        timer.cancel()
        sim.run()
        assert not timer.done()

    def test_all_of(self, sim):
        futures = [SimFuture(sim) for _ in range(3)]
        combined = all_of(sim, futures)
        for index, fut in enumerate(futures):
            assert not combined.done()
            fut.set_result(index)
        assert combined.done()
        assert combined.result() == [0, 1, 2]

    def test_all_of_empty(self, sim):
        assert all_of(sim, []).result() == []

    def test_all_of_propagates_exception(self, sim):
        futures = [SimFuture(sim), SimFuture(sim)]
        combined = all_of(sim, futures)
        futures[0].set_exception(RuntimeError("bad"))
        assert combined.done()
        with pytest.raises(RuntimeError):
            combined.result()


class TestCoroutines:
    def test_simple_coroutine_returns_value(self, sim):
        def co():
            yield Timer(sim, 2.0)
            return "done"

        handle = spawn(sim, co())
        result = sim.run_until_complete(handle)
        assert result == "done"
        assert sim.now >= 2.0

    def test_yield_numeric_delay(self, sim):
        def co():
            yield 3.0
            return sim.now

        handle = spawn(sim, co())
        assert sim.run_until_complete(handle) >= 3.0

    def test_nested_yield_from(self, sim):
        def inner():
            yield Timer(sim, 1.0)
            return 10

        def outer():
            a = yield from inner()
            b = yield from inner()
            return a + b

        handle = spawn(sim, outer())
        assert sim.run_until_complete(handle) == 20

    def test_exception_propagates_to_completion(self, sim):
        def co():
            yield Timer(sim, 1.0)
            raise ValueError("inside")

        handle = spawn(sim, co())
        sim.run()
        assert handle.done()
        with pytest.raises(ValueError):
            handle.result()

    def test_yielding_garbage_fails_cleanly(self, sim):
        def co():
            yield "not a future"

        handle = spawn(sim, co())
        sim.run()
        assert isinstance(handle.exception(), SimulationError)

    def test_exception_from_awaited_future_is_thrown_in(self, sim):
        fut = SimFuture(sim)

        def co():
            try:
                yield fut
            except RuntimeError:
                return "caught"
            return "not caught"

        handle = spawn(sim, co())
        sim.schedule(1.0, lambda: fut.set_exception(RuntimeError("x")))
        assert sim.run_until_complete(handle) == "caught"

    def test_abort_fails_completion(self, sim):
        fut = SimFuture(sim)

        def co():
            yield fut
            return "never"

        handle = spawn(sim, co())
        handle.abort("client crashed")
        assert handle.done()
        assert isinstance(handle.exception(), OperationAborted)

    def test_run_until_complete_detects_starvation(self, sim):
        fut = SimFuture(sim)

        def co():
            yield fut

        handle = spawn(sim, co())
        with pytest.raises(SimulationError):
            sim.run_until_complete(handle)

    def test_concurrent_coroutines_interleave(self, sim):
        order = []

        def co(name, delay):
            yield Timer(sim, delay)
            order.append(name)
            yield Timer(sim, delay)
            order.append(name)

        spawn(sim, co("slow", 3.0))
        spawn(sim, co("fast", 1.0))
        sim.run()
        assert order == ["fast", "fast", "slow", "slow"]
