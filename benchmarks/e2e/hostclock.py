"""A host clock that ticks in *reference-host* seconds.

The hosts this benchmark runs on share their cores with other tenants:
the same Python code runs anywhere between 1x and 0.5x of its quiet speed,
in phases lasting seconds to minutes, so plain wall time (and CPU time,
which slows with it) cannot resolve a 10 % change.  :class:`HostClock`
therefore measures how fast the host is *while* the program runs: a timer
signal interrupts the program every :data:`TICK_S` and runs a small fixed
*reference kernel*, whose speed scales the program time since the previous
tick::

    reference_s = sum(slice_wall_s * kernel_speed_at_slice_end) / REFERENCE_SPEED

On a quiet host of the recorded class ``reference_s`` equals wall time;
on a busy one it is what the run would have taken had the host been quiet.
The kernel's own time is excluded.

The kernel is a miniature of the program's kind of work -- a heap of timed
messages delivered to nodes that look keys up in dicts and allocate a reply
-- in plain Python with nothing from ``src/``, because a kernel has to slow
down under contention the way the program does: a tight arithmetic loop
tracked the simulator half as well (7 % against 3.4 % spread between
identical 1 s runs).  It is part of the benchmark, so a change that claims
a gain cannot touch it.
"""

from __future__ import annotations

import heapq
import signal
import time

#: Kernel iterations per second of the reference host (a quiet 2-vCPU
#: sandbox of the class the first numbers were recorded on).  A constant of
#: the benchmark: changing it rescales every host-time metric.
REFERENCE_SPEED = 600_000.0

#: Timer period, and kernel iterations per tick (about 3.5 ms of every 50).
TICK_S = 0.05
TICK_ITERATIONS = 2_500

_NODES = 16
_IN_FLIGHT = 512


class _Message:
    __slots__ = ("kind", "key", "tag", "body")

    def __init__(self, kind: str, key: str, tag: int, body: dict) -> None:
        self.kind = kind
        self.key = key
        self.tag = tag
        self.body = body


class _Node:
    """Stores the newest tag per key and answers every message with one."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.store: dict = {}
        self.seen = 0

    def deliver(self, message: _Message):
        """Returns ``(delay, destination, reply)``."""
        self.seen += 1
        entry = self.store.get(message.key)
        if entry is None or entry[0] < message.tag:
            self.store[message.key] = (message.tag, message.body)
        tag = message.tag + 1
        reply = _Message("W" if tag & 1 else "R",
                         f"k{(tag * 31 + self.index) & 1023}", tag,
                         {"from": self.index, "value": message.body.get("value")})
        return 1.0 + (tag & 15) / 16.0, (self.index * 7 + tag) % _NODES, reply


class HostClock:
    """Times a region of the main thread in reference-host seconds."""

    def __init__(self) -> None:
        self._nodes = [_Node(index) for index in range(_NODES)]
        self._heap = [(float(index % 13), index, index % _NODES,
                       _Message("W", f"k{index}", index, {"value": index}))
                      for index in range(_IN_FLIGHT)]
        heapq.heapify(self._heap)
        self._seq = _IN_FLIGHT
        self._resumed_at = 0.0
        self._previous_handler = signal.SIG_DFL
        #: Length of the timed region so far, in reference-host seconds.
        self.reference_s = 0.0
        #: Wall time the kernel itself took inside the timed region.
        self.kernel_s = 0.0
        self._kernel(5 * TICK_ITERATIONS)        # reach steady state

    def _kernel(self, iterations: int) -> float:
        """Run the reference kernel; returns its speed (iterations/s)."""
        heap, nodes = self._heap, self._nodes
        pop, push = heapq.heappop, heapq.heappush
        seq = self._seq
        started = time.perf_counter()
        for _ in range(iterations):
            at, _serial, destination, message = pop(heap)
            delay, target, reply = nodes[destination].deliver(message)
            seq += 1
            push(heap, (at + delay, seq, target, reply))
        self._seq = seq
        return iterations / (time.perf_counter() - started)

    def _tick(self, _signum=None, _frame=None) -> None:
        interrupted_at = time.perf_counter()
        speed = self._kernel(TICK_ITERATIONS)
        self.reference_s += ((interrupted_at - self._resumed_at)
                             * speed / REFERENCE_SPEED)
        self._resumed_at = time.perf_counter()
        self.kernel_s += self._resumed_at - interrupted_at

    def scale(self, wall_s: float) -> float:
        """``wall_s`` just elapsed, in reference seconds, at the speed now."""
        return wall_s * self._kernel(5 * TICK_ITERATIONS) / REFERENCE_SPEED

    def start(self) -> None:
        """Begin timing (main thread only: uses ``SIGALRM``)."""
        self.reference_s = self.kernel_s = 0.0
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        self._resumed_at = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> float:
        """End timing; returns the region's length in reference seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._tick()
        signal.signal(signal.SIGALRM, self._previous_handler)
        return self.reference_s
