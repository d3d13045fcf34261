"""The discrete-event simulator core.

The simulator maintains a virtual clock and a priority queue of events.
Everything that happens in an execution -- message deliveries, timer
expirations, scheduled crashes -- is an :class:`Event` with a firing time, a
monotonically increasing sequence number (for deterministic tie-breaking)
and a callback.

Determinism
-----------
Given the same seed and the same schedule of API calls, two runs produce the
exact same execution: ties in firing time are broken by insertion order, and
all randomness (link latencies, workload inter-arrival times) is drawn from
the simulator's single seeded :class:`random.Random` instance.

Performance notes
-----------------
This module is the hottest path of the whole emulation (every message
delivery and coroutine resumption is an event), so it trades a little
uniformity for speed:

* Both queues store ``(time, seq, callback, args, label, handle)`` tuples:
  ordering is decided by native tuple comparison (``seq`` is unique, so it
  never looks past the second field) and the run loop unpacks what it needs
  without touching an object.  ``handle`` is the cancellable :class:`Event`
  (a ``__slots__`` class) that :meth:`Simulator.schedule` /
  :meth:`Simulator.call_soon` returned, or ``None`` for an entry queued by
  :meth:`Simulator.post` -- message deliveries and coroutine resumptions,
  which nobody ever cancels, allocate no handle at all.
* Same-time events bypass the heap entirely: a zero-delay
  :meth:`Simulator.post` (every coroutine resumption) goes through a FIFO
  lane (a deque) that is merged with the heap by ``(time, seq)`` at pop
  time, so it costs an append/popleft instead of a heap push/pop.
  :meth:`Simulator.call_soon` uses the same lane and is only for callers
  that need the cancellable handle.
* Cancellation is lazy: a cancelled event stays queued and is skipped when
  popped.  The simulator counts cancelled-but-queued events (so
  :attr:`Simulator.pending_events` is exact) and compacts the heap when the
  cancelled fraction grows past a threshold, bounding memory in workloads
  that cancel many timers.
* Callbacks can be scheduled with pre-bound positional ``args``, which lets
  callers avoid allocating a fresh closure per event.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Callable, List, Optional, Tuple

from repro.common.errors import SimulationError

#: Compact the heap when more than this many queued events are cancelled and
#: they make up over half the heap.
_COMPACT_MIN_CANCELLED = 64


#: A queue entry: ``(time, seq, callback, args, label, handle-or-None)``.
_Entry = Tuple[float, int, Callable[..., None], tuple, str, "Optional[Event]"]


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, seq)``; ``seq`` is a global insertion
    counter that makes simultaneous events fire in the order they were
    scheduled, which keeps executions deterministic.  The ordering (and what
    the run loop calls) lives in the simulator's queue entries; the event
    object is the handle that can cancel its entry.
    """

    __slots__ = ("time", "seq", "cancelled", "label", "_sim")

    def __init__(self, time: float, seq: int, label: str = "",
                 sim: "Optional[Simulator]" = None) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self.label = label
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in the queue but is skipped).

        The owning simulator keeps count of cancelled-but-queued events and
        compacts its heap when they accumulate; cancelling an event that has
        already fired (or was already cancelled) is a no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq} {self.label!r}{state}>"


def _is_cancelled(entry: _Entry) -> bool:
    return entry[5] is not None and entry[5].cancelled


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed of the simulator-wide random number generator.  All stochastic
        components (latency models, workload generators) must draw from
        :attr:`rng` so that executions are reproducible.

    Notes
    -----
    The virtual clock starts at ``0.0`` and only advances when
    :meth:`run` / :meth:`run_until` / :meth:`step` process events.  Time
    units are abstract; the latency analysis benchmarks interpret them as
    the paper's ``d``/``D`` time units.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self._now: float = 0.0
        self._queue: List[_Entry] = []
        self._soon: "deque[_Entry]" = deque()
        self._seq: int = 0
        self._events_processed: int = 0
        self._cancelled_events: int = 0
        self._cancelled_pending: int = 0
        self._running = False
        self._trace: Optional[List[str]] = None
        #: Whether labelled events are being recorded.  Hot paths test this
        #: (a plain attribute) to skip building label strings nobody reads.
        self.trace_enabled = False

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (a rough measure of work)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.

        Cancelled events linger in the queue until popped or compacted
        (deletion is lazy), but they are not counted here.
        """
        return len(self._queue) + len(self._soon) - self._cancelled_pending

    @property
    def cancelled_events(self) -> int:
        """Total number of queued events whose firing was prevented by
        :meth:`Event.cancel` (cancelling an already-fired event is a no-op
        and is not counted)."""
        return self._cancelled_events

    def metrics_snapshot(self) -> dict:
        """One-shot counters snapshot for the observability plane.

        A plain read of public state -- the metrics layer calls this at
        report time instead of instrumenting the run loop, so the hot loop
        carries zero observability overhead.
        """
        return {
            "now": self.now,
            "events_processed": self.events_processed,
            "pending_events": self.pending_events,
            "cancelled_events": self.cancelled_events,
        }

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[..., None], label: str = "",
                 args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now.

        Returns the :class:`Event`, which can be cancelled.  Pre-binding
        positional ``args`` here is cheaper than allocating a closure per
        event on hot paths (message delivery, coroutine resumption).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} time units in the past")
        return self.schedule_at(self._now + delay, callback, label=label, args=args)

    def schedule_at(self, time: float, callback: Callable[..., None], label: str = "",
                    args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at time {time} before the current time {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, label, self)
        heapq.heappush(self._queue, (time, seq, callback, args, label, event))
        return event

    def post(self, delay: float, callback: Callable[..., None], label: str = "",
             args: tuple = ()) -> None:
        """:meth:`schedule` without a handle: the event cannot be cancelled.

        The per-message and per-resume path, so ``delay`` is trusted to be
        non-negative and nothing is allocated beyond the queue entry.  A
        zero delay rides the same-time FIFO lane, like :meth:`call_soon`.
        """
        seq = self._seq
        self._seq = seq + 1
        if delay:
            heapq.heappush(self._queue, (self._now + delay, seq, callback, args, label, None))
        else:
            self._soon.append((self._now, seq, callback, args, label, None))

    def call_soon(self, callback: Callable[..., None], label: str = "",
                  args: tuple = ()) -> Event:
        """Schedule ``callback`` at the current time (after already-queued events at this time).

        Same-time events take the FIFO fast lane instead of the heap; the
        two queues are merged by ``(time, seq)`` when events are popped, so
        ordering is exactly as if everything went through the heap.  Use
        ``post(0.0, ...)`` instead unless the returned handle is needed.
        """
        seq = self._seq
        self._seq = seq + 1
        event = Event(self._now, seq, label, self)
        self._soon.append((self._now, seq, callback, args, label, event))
        return event

    # --------------------------------------------------- lazy-deletion upkeep
    def _note_cancelled(self) -> None:
        """Account for one newly cancelled, still-queued event."""
        self._cancelled_events += 1
        self._cancelled_pending += 1
        if (self._cancelled_pending > _COMPACT_MIN_CANCELLED
                and self._cancelled_pending * 2 > len(self._queue) + len(self._soon)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from both queues and rebuild the heap.

        Mutates the queues in place so that the inlined run loop's local
        bindings stay valid across a compaction.
        """
        self._queue[:] = [entry for entry in self._queue if not _is_cancelled(entry)]
        heapq.heapify(self._queue)
        if any(map(_is_cancelled, self._soon)):
            live_soon = [entry for entry in self._soon if not _is_cancelled(entry)]
            self._soon.clear()
            self._soon.extend(live_soon)
        self._cancelled_pending = 0

    def _pop_next(self) -> Optional[_Entry]:
        """Pop the globally next live entry, merging the heap and FIFO lanes."""
        queue = self._queue
        soon = self._soon
        while queue or soon:
            if soon and not (queue and queue[0] < soon[0]):
                entry = soon.popleft()
            else:
                entry = heapq.heappop(queue)
            event = entry[5]
            if event is not None:
                event._sim = None  # popped: a later cancel() must not skew counters
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
            return entry
        return None

    # ------------------------------------------------------------------- run
    def step(self) -> bool:
        """Process a single event.

        Returns ``True`` if an event was processed, ``False`` if the queue
        was empty.
        """
        entry = self._pop_next()
        if entry is None:
            return False
        time, _, callback, args, label, _ = entry
        self._now = time
        self._events_processed += 1
        if label and self._trace is not None:
            self._trace.append(f"{time:.3f} {label}")
        callback(*args)
        return True

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event queue drains or ``max_events`` events fire.

        Raises
        ------
        SimulationError
            If ``max_events`` is exhausted, which almost always indicates a
            livelock in a protocol under test.
        """
        self._running = True
        # The loop is inlined (no step() call per event, locals for the hot
        # names) because it dispatches every event of every execution.
        queue = self._queue
        soon = self._soon
        heappop = heapq.heappop
        processed = 0
        try:
            while True:
                if soon:
                    if queue and queue[0] < soon[0]:
                        entry = heappop(queue)
                    else:
                        entry = soon.popleft()
                elif queue:
                    entry = heappop(queue)
                else:
                    break
                time, _, callback, args, label, event = entry
                if event is not None:
                    event._sim = None
                    if event.cancelled:
                        self._cancelled_pending -= 1
                        continue
                self._now = time
                self._events_processed += 1
                if label and self._trace is not None:
                    self._trace.append(f"{time:.3f} {label}")
                if args:
                    callback(*args)
                else:
                    callback()
                processed += 1
                if processed >= max_events:
                    raise SimulationError(
                        f"simulation did not quiesce within {max_events} events; "
                        "a protocol is likely livelocked"
                    )
        finally:
            self._running = False

    def run_until(self, time: float, max_events: int = 10_000_000) -> None:
        """Run events with firing time ``<= time``; the clock ends at ``time``.

        Events scheduled later stay queued so that the simulation can be
        resumed.
        """
        if time < self._now:
            raise SimulationError(f"cannot run until {time}, already at {self._now}")
        processed = 0
        while True:
            queue = self._queue
            soon = self._soon
            # Drop cancelled heads first: the peek below must see the next
            # *live* event, or step() could fire an event past the limit.
            while soon and _is_cancelled(soon[0]):
                soon.popleft()
                self._cancelled_pending -= 1
            while queue and _is_cancelled(queue[0]):
                heapq.heappop(queue)
                self._cancelled_pending -= 1
            heads = [lane[0] for lane in (soon, queue) if lane]
            if not heads or min(heads)[0] > time:
                break
            if not self.step():  # pragma: no cover - head exists, so step fires
                break
            processed += 1
            if processed >= max_events:
                raise SimulationError(
                    f"simulation did not quiesce within {max_events} events before time {time}"
                )
        self._now = time

    def run_until_complete(self, future, max_events: int = 10_000_000):
        """Run until ``future`` resolves, and return its result.

        Convenience used by tests and examples to drive a single top-level
        operation synchronously.
        """
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

    # ----------------------------------------------------------------- trace
    def enable_trace(self) -> None:
        """Start recording labelled events (used by debugging tests)."""
        self._trace = []
        self.trace_enabled = True

    @property
    def trace(self) -> List[str]:
        """The recorded trace lines (empty unless :meth:`enable_trace` was called)."""
        return list(self._trace or [])

    # -------------------------------------------------------------- utilities
    def uniform(self, low: float, high: float) -> float:
        """Draw from the simulator RNG; used by latency models."""
        if high < low:
            raise SimulationError(f"invalid uniform range [{low}, {high}]")
        if low == high:
            return low
        return self.rng.uniform(low, high)
