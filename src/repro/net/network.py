"""The simulated network.

:class:`Network` owns the registry of processes, delivers messages with a
delay drawn from its :class:`~repro.net.latency.LatencyModel`, feeds the
traffic accountant, and applies the failure rules (crashes, partitions,
message loss, delay, duplication) that :mod:`repro.chaos` installs on its
hooks.

Channels are reliable and FIFO-less by default, exactly matching the paper's
model: messages may be arbitrarily reordered (each draws an independent
delay) but are never lost unless a loss rule is explicitly installed.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.ids import ProcessId
from repro.net.latency import FixedLatency, LatencyModel
from repro.net.message import Message
from repro.net.stats import TrafficStats
from repro.sim.core import Simulator
from repro.sim.process import Process


class Network:
    """Point-to-point asynchronous network over a :class:`Simulator`.

    Everything put on the wire goes through :meth:`send_many`, which takes
    one sender and any number of ``(dest, message)`` pairs -- a quorum
    broadcast is one call -- and treats each destination exactly as a
    separate :meth:`send` would: same accounting at send time, same RNG
    draws in the same order, same event sequence numbers, hooks consulted
    per destination.  Delivery hands the message to
    :meth:`Process.deliver <repro.sim.process.Process.deliver>`.

    Parameters
    ----------
    sim:
        The simulator providing the clock and RNG.
    latency:
        The latency model; defaults to :class:`FixedLatency(1.0)`.
    """

    def __init__(self, sim: Simulator, latency: Optional[LatencyModel] = None) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else FixedLatency(1.0)
        self.stats = TrafficStats()
        self.processes: Dict[ProcessId, Process] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        # Filters return True if the message should be DROPPED.
        self._drop_filters: List[Callable[[ProcessId, ProcessId, Message], bool]] = []
        # Adjusters rewrite the sampled delivery delay (latency spikes, gray
        # failures, reordering jitter); they compose left to right.
        self._delay_adjusters: List[Callable[[ProcessId, ProcessId, Message, float], float]] = []
        # Duplicators return how many EXTRA copies of the message to deliver.
        self._duplicators: List[Callable[[ProcessId, ProcessId, Message], int]] = []
        # Observers see every (src, dest, message, deliver_time) tuple accepted for delivery.
        self._observers: List[Callable[[ProcessId, ProcessId, Message, float], None]] = []
        # True while no hook of any kind is installed; send_many() then
        # skips every hook loop.
        self._quiet = True
        # Observability registry.  None (the default) costs nothing; an
        # installed registry reads the message counters above as delta
        # stat-sources at window boundaries, so even instrumented runs add
        # zero work to the per-message send path.
        self.metrics = None

    # -------------------------------------------------------------- registry
    def register(self, process: Process) -> None:
        """Register a process; its id must be unique."""
        if process.pid in self.processes:
            raise SimulationError(f"process id {process.pid} registered twice")
        self.processes[process.pid] = process

    def process(self, pid: ProcessId) -> Process:
        """Look up a registered process."""
        try:
            return self.processes[pid]
        except KeyError:
            raise SimulationError(f"unknown process {pid}") from None

    def is_crashed(self, pid: ProcessId) -> bool:
        """Whether ``pid`` has crashed (unknown processes count as crashed)."""
        process = self.processes.get(pid)
        return process is None or process.crashed

    def alive_count(self, pids: Iterable[ProcessId]) -> int:
        """How many of ``pids`` are registered and not crashed."""
        processes = self.processes
        count = 0
        for pid in pids:
            process = processes.get(pid)
            if process is not None and not process.crashed:
                count += 1
        return count

    # ------------------------------------------------------------ fault hooks
    def _refresh_quiet(self) -> None:
        self._quiet = not (self._drop_filters or self._delay_adjusters
                           or self._duplicators or self._observers)

    def add_drop_filter(self, rule: Callable[[ProcessId, ProcessId, Message], bool]) -> None:
        """Install a rule; messages for which it returns ``True`` are dropped."""
        self._drop_filters.append(rule)
        self._quiet = False

    def remove_drop_filter(self, rule: Callable[[ProcessId, ProcessId, Message], bool]) -> None:
        """Remove a previously installed drop rule (no error if absent)."""
        if rule in self._drop_filters:
            self._drop_filters.remove(rule)
        self._refresh_quiet()

    def add_delay_adjuster(self, adjuster: Callable[[ProcessId, ProcessId, Message, float], float]) -> None:
        """Install a rule rewriting the delivery delay of every message.

        Adjusters receive ``(src, dest, message, delay)`` and return the new
        delay; they compose in installation order.  Negative results are
        clamped to zero.  Used by the chaos layer for latency spikes, slow
        ("gray") servers and reordering jitter.
        """
        self._delay_adjusters.append(adjuster)
        self._quiet = False

    def remove_delay_adjuster(self, adjuster: Callable[[ProcessId, ProcessId, Message, float], float]) -> None:
        """Remove a previously installed delay adjuster (no error if absent)."""
        if adjuster in self._delay_adjusters:
            self._delay_adjusters.remove(adjuster)
        self._refresh_quiet()

    def add_duplicator(self, rule: Callable[[ProcessId, ProcessId, Message], int]) -> None:
        """Install a rule returning how many extra copies of a message to deliver.

        Each extra copy draws its own latency sample, so duplicates arrive at
        independent times (and may overtake the original).  Quorum gathers
        deduplicate replies per responder, so protocols stay correct.
        """
        self._duplicators.append(rule)
        self._quiet = False

    def remove_duplicator(self, rule: Callable[[ProcessId, ProcessId, Message], int]) -> None:
        """Remove a previously installed duplication rule (no error if absent)."""
        if rule in self._duplicators:
            self._duplicators.remove(rule)
        self._refresh_quiet()

    def add_observer(self, observer: Callable[[ProcessId, ProcessId, Message, float], None]) -> None:
        """Install a passive observer of all sent messages (for tests/traces)."""
        self._observers.append(observer)
        self._quiet = False

    # --------------------------------------------------------------- delivery
    def send(self, src: ProcessId, dest: ProcessId, message: Message) -> None:
        """Send ``message`` from ``src`` to ``dest`` (a one-element :meth:`send_many`)."""
        self.send_many(src, ((dest, message),))

    def send_many(self, src: ProcessId,
                  deliveries: Iterable[Tuple[ProcessId, Message]]) -> None:
        """Send every ``(dest, message)`` of ``deliveries`` from ``src``, in order.

        The one entry point onto the wire: a quorum broadcast passes the
        same ``message`` object with every destination, a scatter passes one
        per destination, :meth:`send` passes a single pair.  Per destination,
        in order: the message is charged to the traffic accountant (at send
        time -- a dropped message still consumed bandwidth at the sender, a
        duplicated one is charged once per copy), the destination's
        liveness is noted (a message addressed to a crashed process is lost
        even if the process restarts before it would arrive: a rebooted
        machine never sees requests sent during its outage), drop filters
        and duplicators are consulted, and each copy draws its own latency
        sample, passes through the delay adjusters and observers, and is
        queued for delivery.  With no hook installed the hook loops are
        skipped.  Either way the RNG draws, the event sequence numbers and
        therefore the ``(time, seq)`` firing order are exactly those of
        sending the pairs one by one, so executions stay byte-for-byte
        deterministic.
        """
        sim = self.sim
        post = sim.post
        processes = self.processes
        record = self.stats.record
        sample = self.latency.sample
        deliver = self._deliver
        quiet = self._quiet
        traced = sim.trace_enabled
        label = ""
        for dest, message in deliveries:
            self.messages_sent += 1
            record(src, dest, message.kind, message.data_bytes, message.metadata_bytes)
            process = processes.get(dest)
            args = (src, dest, message, process,
                    process is not None and process.crashed)
            extra_copies = 0
            if not quiet:
                dropped = False
                for rule in self._drop_filters:
                    if rule(src, dest, message):
                        dropped = True
                        break
                if dropped:
                    self.messages_dropped += 1
                    continue
                for duplicator in self._duplicators:
                    extra_copies += max(0, int(duplicator(src, dest, message)))
            if traced:
                label = f"deliver {message.kind} {src}->{dest}"
            copy_index = 0
            while True:
                delay = sample(sim, src, dest)
                if not quiet:
                    for adjuster in self._delay_adjusters:
                        delay = adjuster(src, dest, message, delay)
                    for observer in self._observers:
                        observer(src, dest, message, sim.now + max(0.0, delay))
                    if copy_index:
                        self.messages_duplicated += 1
                        # Each extra copy occupies the wire too; without this
                        # the communication-cost benchmarks under-report
                        # under packet chaos.
                        record(src, dest, message.kind,
                               message.data_bytes, message.metadata_bytes)
                # Deliveries are never cancelled: no handle is allocated.
                post(delay if delay > 0.0 else 0.0, deliver, label, args)
                if copy_index == extra_copies:
                    break
                copy_index += 1

    def _deliver(self, src: ProcessId, dest: ProcessId, message: Message,
                 process: Optional[Process], sent_while_down: bool) -> None:
        if process is None:  # unknown when sent; may have registered since
            process = self.processes.get(dest)
        if process is None or process.crashed or sent_while_down:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        process.deliver(src, message)

    # -------------------------------------------------------------- lifecycle
    def crash(self, pid: ProcessId) -> None:
        """Crash the process ``pid`` immediately."""
        self.process(pid).crash()

    def crash_at(self, pid: ProcessId, time: float) -> None:
        """Schedule a crash of ``pid`` at absolute virtual time ``time``."""
        self.sim.schedule_at(time, lambda: self.crash(pid), label=f"crash {pid}")

    def restart(self, pid: ProcessId) -> None:
        """Restart the crashed process ``pid`` (crash-recovery with stable storage)."""
        self.process(pid).restart()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Network processes={len(self.processes)} sent={self.messages_sent} "
                f"delivered={self.messages_delivered} dropped={self.messages_dropped}>")
