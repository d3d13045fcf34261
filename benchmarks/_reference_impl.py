"""Pre-optimisation reference implementations, kept for benchmark A/B runs.

``bench_simcore.py`` and ``perf_report.py`` measure the optimised hot paths
(`repro.sim.core`, `repro.net.network.send`, the fast linearizability
checker) against the implementations this repository shipped *before* the
hot-path overhaul.  The reference code below preserves the old designs --
an ordered-``dataclass`` event pushed straight onto one heap, a fresh
closure and label string per delivered message, every fault-hook loop
executed for every send -- behind the current public API, so a whole
deployment can be rebuilt on top of them and driven by the unchanged
protocol stack.

Two deliberate deviations from the historical code, both required to stay
API-compatible with today's callers and both *favouring* the reference in
comparisons:

* ``schedule``/``call_soon`` accept the new ``args`` pre-binding parameter
  (the coroutine runner now uses it); the reference still allocates an
  ordered dataclass event per call.
* ``trace_enabled`` exists (the network checks it before building labels);
  the reference network path below nevertheless builds its label eagerly,
  as the old code did.

The linearizability reference needs no copy: the Wing-Gong search is kept
in-tree as :func:`repro.spec.linearizability.check_linearizability_reference`
because it doubles as the fallback decision procedure.
"""

from __future__ import annotations

import heapq
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import repro.core.deployment as _deployment
from repro.common.errors import SimulationError
from repro.common.ids import ProcessId
from repro.net.message import Message
from repro.net.network import Network


@contextmanager
def reference_substrate():
    """Build deployments on the pre-overhaul simulator and network.

    Swaps the classes the deployment builder instantiates, so everything
    created inside the ``with`` block -- including `run_scenario` runs --
    exercises the reference hot paths.  Executions stay byte-identical to
    the optimised stack (same RNG draw order, same event ordering), which
    the benchmarks assert via ``History.signature()``.
    """
    originals = (_deployment.Simulator, _deployment.Network)
    _deployment.Simulator = ReferenceSimulator
    _deployment.Network = ReferenceNetwork
    try:
        yield
    finally:
        _deployment.Simulator, _deployment.Network = originals


@dataclass(order=True)
class ReferenceEvent:
    """The pre-overhaul event: ordering via dataclass rich comparisons."""

    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple = field(default=(), compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class ReferenceSimulator:
    """The pre-overhaul simulator: one heap of dataclass events, no FIFO lane,
    no cancelled-event accounting, ``step()`` called per event by ``run()``."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self._now: float = 0.0
        self._queue: List[ReferenceEvent] = []
        self._seq: int = 0
        self._events_processed: int = 0
        self._running = False
        self._trace: Optional[List[str]] = None

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def trace_enabled(self) -> bool:
        return self._trace is not None

    def schedule(self, delay: float, callback: Callable[..., None], label: str = "",
                 args: tuple = ()) -> ReferenceEvent:
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} time units in the past")
        return self.schedule_at(self._now + delay, callback, label=label, args=args)

    def schedule_at(self, time: float, callback: Callable[..., None], label: str = "",
                    args: tuple = ()) -> ReferenceEvent:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at time {time} before the current time {self._now}"
            )
        event = ReferenceEvent(time=time, seq=self._seq, callback=callback,
                               args=args, label=label)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def call_soon(self, callback: Callable[..., None], label: str = "",
                  args: tuple = ()) -> ReferenceEvent:
        return self.schedule(0.0, callback, label=label, args=args)

    def step(self) -> bool:
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            self._events_processed += 1
            if self._trace is not None and event.label:
                self._trace.append(f"{event.time:.3f} {event.label}")
            if event.args:
                event.callback(*event.args)
            else:
                event.callback()
            return True
        return False

    def run(self, max_events: int = 10_000_000) -> None:
        self._running = True
        processed = 0
        try:
            while self.step():
                processed += 1
                if processed >= max_events:
                    raise SimulationError(
                        f"simulation did not quiesce within {max_events} events; "
                        "a protocol is likely livelocked"
                    )
        finally:
            self._running = False

    def run_until(self, time: float, max_events: int = 10_000_000) -> None:
        if time < self._now:
            raise SimulationError(f"cannot run until {time}, already at {self._now}")
        processed = 0
        while self._queue:
            event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                continue
            if event.time > time:
                break
            self.step()
            processed += 1
            if processed >= max_events:
                raise SimulationError(
                    f"simulation did not quiesce within {max_events} events before time {time}"
                )
        self._now = time

    def run_until_complete(self, future, max_events: int = 10_000_000):
        processed = 0
        while not future.done():
            if not self.step():
                raise SimulationError(
                    "event queue drained before the awaited future resolved; "
                    "the operation cannot make progress (missing quorum or crashed client?)"
                )
            processed += 1
            if processed >= max_events:
                raise SimulationError(
                    f"future did not resolve within {max_events} events; likely livelock"
                )
        return future.result()

    def enable_trace(self) -> None:
        self._trace = []

    @property
    def trace(self) -> List[str]:
        return list(self._trace or [])

    def uniform(self, low: float, high: float) -> float:
        if high < low:
            raise SimulationError(f"invalid uniform range [{low}, {high}]")
        if low == high:
            return low
        return self.rng.uniform(low, high)

    def exponential(self, mean: float) -> float:
        if mean <= 0:
            raise SimulationError("exponential mean must be positive")
        return self.rng.expovariate(1.0 / mean)

    def choice(self, seq):
        return self.rng.choice(list(seq))

    def shuffle(self, seq: list) -> list:
        items = list(seq)
        self.rng.shuffle(items)
        return items


class ReferenceNetwork(Network):
    """The pre-overhaul ``send``: hook loops always run, a fresh closure and
    label string are allocated per delivered message, and duplicated copies
    are not charged to the traffic accountant (the old accounting bug --
    irrelevant for timing, preserved for faithfulness)."""

    def send_many(self, src: ProcessId, deliveries) -> None:
        for dest, message in deliveries:
            self.send(src, dest, message)

    def send(self, src: ProcessId, dest: ProcessId, message: Message) -> None:
        self.messages_sent += 1
        self.stats.record(src, dest, message.kind, message.data_bytes, message.metadata_bytes)
        for rule in self._drop_filters:
            if rule(src, dest, message):
                self.messages_dropped += 1
                return
        extra_copies = 0
        for duplicator in self._duplicators:
            extra_copies += max(0, int(duplicator(src, dest, message)))
        dest_process = self.processes.get(dest)
        sent_while_down = dest_process is not None and dest_process.crashed
        for copy_index in range(1 + extra_copies):
            delay = self.latency.sample(self.sim, src, dest)
            for adjuster in self._delay_adjusters:
                delay = adjuster(src, dest, message, delay)
            delay = max(0.0, delay)
            for observer in self._observers:
                observer(src, dest, message, self.sim.now + delay)
            if copy_index:
                self.messages_duplicated += 1
            self.sim.schedule(delay,
                              lambda: self._deliver(src, dest, message, None, sent_while_down),
                              label=f"deliver {message.kind} {src}->{dest}")
