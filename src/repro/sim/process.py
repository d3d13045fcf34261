"""Process abstraction.

Every participant of the emulation -- writers, readers, reconfiguration
clients and servers -- is a :class:`Process` attached to a
:class:`~repro.net.network.Network`.  A process can:

* send messages (:meth:`Process.send`) and receive them through
  :meth:`Process.on_message`;
* broadcast a request to a set of servers and gather replies into a
  :class:`~repro.sim.futures.QuorumFuture` (:meth:`Process.broadcast_and_gather`)
  -- the building block of every quorum phase in the paper;
* spawn protocol coroutines (:meth:`Process.spawn`);
* crash (:meth:`Process.crash`), after which it neither sends nor receives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, TYPE_CHECKING

from repro.common.errors import (
    QuorumRefusedError,
    QuorumUnavailableError,
    RetriesExhaustedError,
    is_retirement_refusal,
)
from repro.common.ids import ProcessId
from repro.sim.core import Simulator
from repro.sim.futures import Coroutine, QuorumFuture, SimFuture, Timer, any_of, spawn

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message
    from repro.net.network import Network


#: Interned ``round:{label}`` histogram names; the label set is small and
#: static, so caching avoids a string build per instrumented quorum round.
_ROUND_SERIES: Dict[str, str] = {}


class _RoundDone:
    """The done-callback of one quorum round: forget the pending gather and,
    on an instrumented process, time the round (see ``_observe_round``).

    A ``__slots__`` instance is one allocation where a closure needs a
    function object plus a cell per captured variable -- one of these is
    created per round, so the difference shows up directly as
    garbage-collector pressure.  ``handle`` is the pre-resolved histogram
    series object (``None`` on a plain round), so firing skips the
    registry's name lookup entirely.
    """

    __slots__ = ("process", "request_id", "handle", "started")

    def __init__(self, process: "Process", request_id: int, handle=None,
                 started: float = 0.0) -> None:
        self.process = process
        self.request_id = request_id
        self.handle = handle
        self.started = started

    def __call__(self, fut: SimFuture) -> None:
        self.process._pending_gathers.pop(self.request_id, None)
        if self.handle is None:
            return
        metrics = self.process.metrics
        # Reading the slot directly saves a method call on a path that runs
        # once per round; callbacks fire synchronously inside set_result /
        # set_exception, so _done is always final here.
        if fut._exception is not None:
            metrics.inc("round_failures")
        else:
            metrics.observe_since(self.handle, self.started)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    A process with a policy installed (:meth:`Process.enable_retries`) turns
    each quorum gather into up to ``attempts`` tries: an attempt that times
    out after ``timeout`` virtual seconds, or fails fast because servers
    refused (:class:`~repro.common.errors.QuorumRefusedError`), is abandoned
    and re-issued under a fresh request id after a backoff of
    ``base_delay * multiplier**(attempt-1) * (1 + jitter * U)`` where ``U``
    is drawn from the process's dedicated retry RNG -- seeded, so two runs
    with the same seed back off identically.  Exhausting the budget raises
    :class:`~repro.common.errors.RetriesExhaustedError` into the waiting
    protocol coroutine, which surfaces as a clean operation error.

    Retrying at the gather level is safe for the register protocols: server
    writes apply only if the incoming tag is newer, so a re-broadcast that
    races a late reply can never double-apply a tag.
    """

    attempts: int = 4
    timeout: float = 60.0
    base_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("retry policy needs at least one attempt")
        if self.timeout <= 0 or self.base_delay < 0:
            raise ValueError("retry timeout must be positive and base delay non-negative")
        if self.multiplier < 1.0 or self.jitter < 0:
            raise ValueError("retry multiplier must be >= 1 and jitter non-negative")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """The (jittered) delay before re-issuing attempt ``attempt`` (1-based)."""
        base = self.base_delay * self.multiplier ** (attempt - 1)
        return base * (1.0 + self.jitter * rng.random())


class Process:
    """Base class for all simulated processes.

    Parameters
    ----------
    pid:
        The globally unique :class:`~repro.common.ids.ProcessId`.
    network:
        The :class:`~repro.net.network.Network` the process is attached to.
        Registration with the network happens in the constructor.
    """

    def __init__(self, pid: ProcessId, network: "Network") -> None:
        self.pid = pid
        self.network = network
        self.sim: Simulator = network.sim
        self.crashed = False
        self._coroutines: List[Coroutine] = []
        # Pending quorum gathers indexed by a per-process request id so that
        # replies can be routed back to the phase that issued the request.
        self._pending_gathers: Dict[int, QuorumFuture] = {}
        self._next_request_id = 0
        # Retry is strictly opt-in: with no policy installed the gather path
        # (and the simulator event sequence) is byte-identical to older
        # builds -- enabling it schedules per-attempt timeout timers, which
        # shifts event sequence numbers even when no retry ever fires.
        self.retry_policy: Optional[RetryPolicy] = None
        self._retry_rng: Optional[random.Random] = None
        #: How many gather attempts this process re-issued / NACKs it received.
        self.retries = 0
        self.nacks_received = 0
        #: Observability registry; None (the default) keeps every hot path
        #: at a single attribute test, the same idiom as ``retry_policy``.
        self.metrics = None
        #: Per-label ``round:{label}`` histogram handles (see _observe_round).
        self._round_handles: Dict[str, object] = {}
        network.register(self)

    # ----------------------------------------------------------------- state
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    def crash(self) -> None:
        """Crash the process.

        A crashed process stops receiving and sending messages and every
        protocol coroutine it owns is aborted.  Crashes are permanent (the
        paper's failure model is crash-stop).
        """
        if self.crashed:
            return
        self.crashed = True
        for coroutine in self._coroutines:
            if not coroutine.done():
                coroutine.abort(f"{self.pid} crashed")
        self._coroutines.clear()
        self._pending_gathers.clear()

    def restart(self) -> None:
        """Bring a crashed process back up (crash-recovery with stable storage).

        The paper's proofs assume crash-stop processes; the chaos layer uses
        restart to model crash-recovery of *servers*, whose entire protocol
        state (DAP states, configuration records) is treated as stable
        storage and therefore survives the outage.  Coroutines aborted by the
        crash stay aborted and in-flight requests from the downtime are lost;
        the process simply resumes receiving and sending.
        """
        self.crashed = False

    # ------------------------------------------------------------- messaging
    def send(self, dest: ProcessId, message: "Message") -> None:
        """Send ``message`` to ``dest`` over the network (no-op if crashed)."""
        if not self.crashed:
            self.network.send_many(self.pid, ((dest, message),))

    def deliver(self, src: ProcessId, message: "Message") -> None:
        """Entry point called by the network when a message arrives."""
        if self.crashed:
            return
        # A reply goes straight to the pending gather that asked for it,
        # keyed by its sender: one server fills one slot of the quorum.
        request_id = message.in_reply_to
        if request_id is not None:
            gather = self._pending_gathers.get(request_id)
            if gather is not None:
                if message.body.get("nack"):
                    self.nacks_received += 1
                    if self.metrics is not None:
                        self.metrics.inc("nacks")
                    gather.add_nack((src, message), src)
                else:
                    gather.add_response((src, message), src)
                return
        self.on_message(src, message)

    def enable_retries(self, policy: RetryPolicy, seed: object = 0) -> None:
        """Install ``policy`` with a dedicated per-process retry RNG.

        The RNG stream is ``Random(f"retry-{seed}-{name}")``, so backoff
        jitter is deterministic per (seed, process) and independent of the
        simulator, chaos and workload streams.
        """
        self.retry_policy = policy
        self._retry_rng = random.Random(f"retry-{seed}-{self.pid.name}")

    def on_message(self, src: ProcessId, message: "Message") -> None:
        """Handle an unsolicited message.  Subclasses override this."""

    # ------------------------------------------------------- quorum gathering
    def new_request_id(self) -> int:
        """Return a fresh request identifier (scoped to this process)."""
        self._next_request_id += 1
        return self._next_request_id

    def broadcast_and_gather(
        self,
        servers: Iterable[ProcessId],
        make_message: Callable[[int], "Message"],
        threshold: int,
        label: str = "gather",
    ) -> QuorumFuture:
        """Send a request to every server and await ``threshold`` replies.

        The round is one :meth:`Network.send_many
        <repro.net.network.Network.send_many>` batch carrying one request
        object; each reply is routed by :meth:`deliver` to the returned
        future, which counts one slot per responding server.

        Parameters
        ----------
        servers:
            Destination processes (typically ``c.Servers``).
        make_message:
            Called once, with the fresh request id; must return the request
            message, which every server receives (and must not mutate).  The
            request id is embedded so that replies (which carry
            ``in_reply_to``) are routed to the returned future.
        threshold:
            Number of replies to await (e.g. a majority, or ``⌈(n+k)/2⌉``).
        label:
            Diagnostic label for traces.

        Returns
        -------
        QuorumFuture
            Resolves with a list of ``(server_id, reply_message)`` pairs.

        Raises
        ------
        QuorumUnavailableError
            Immediately, if fewer than ``threshold`` destinations are alive,
            since in a reliable-channel crash-stop model the gather could
            then never complete.  With a retry policy installed
            (:meth:`enable_retries`) the error is retried and surfaces
            through the returned future instead.
        """
        servers = list(servers)
        if self.retry_policy is None:
            return self._open_broadcast(servers, make_message, threshold, label)[1]
        return self._gather_with_retries(
            lambda: self._open_broadcast(servers, make_message, threshold, label),
            label)

    def _open_broadcast(
        self,
        servers: List[ProcessId],
        make_message: Callable[[int], "Message"],
        threshold: int,
        label: str,
    ) -> "tuple[int, QuorumFuture]":
        """One broadcast attempt under a fresh request id (the retry unit).

        ``make_message`` is called once: every server is handed the same
        message object, in one :meth:`Network.send_many` batch.
        """
        request_id, gather = self._open_round(servers, threshold, label)
        if not self.crashed:
            message = make_message(request_id)
            self.network.send_many(self.pid, zip(servers, repeat(message)))
        return request_id, gather

    def _open_round(self, servers, threshold: int,
                    label: str) -> "tuple[int, QuorumFuture]":
        """Register the pending gather of one round about to contact ``servers``.

        Fails fast if too few of them are alive; the gather knows how many
        refusals make its threshold unreachable.
        """
        request_id = self.new_request_id()
        gather = QuorumFuture(self.sim, threshold=threshold,
                              label=f"{self.pid}:{label}#{request_id}",
                              expected=len(servers))
        alive = self.network.alive_count(servers)
        if alive < threshold:
            raise QuorumUnavailableError(
                f"{self.pid}: {label} needs {threshold} replies but only "
                f"{alive} of {len(servers)} servers are alive"
            )
        self._pending_gathers[request_id] = gather
        if self.metrics is None:
            gather.add_done_callback(_RoundDone(self, request_id))
        else:
            self._observe_round(gather, request_id, label)
        return request_id, gather

    def _observe_round(self, gather: QuorumFuture, request_id: int,
                       label: str) -> None:
        """Attach a metrics done-callback timing this quorum round.

        Future callbacks fire synchronously inside ``set_result`` /
        ``set_exception`` -- no event is scheduled -- so observing the round
        cannot perturb the simulation.  Successful rounds record their
        virtual-time duration into the ``round:{label}`` histogram; failed
        rounds (refused / quorum lost) bump the ``round_failures`` counter.
        The callback is the plain path's :class:`_RoundDone` with a series
        handle, not a second one stacked on top of it.  The
        ``round:{label}`` series handle is resolved once per process and
        label (a registry is installed once per run, so a cached handle can
        never go stale) and fed through the registry's lookup-free
        ``observe_since`` fast path when the round completes.
        """
        handle = self._round_handles.get(label)
        if handle is None:
            name = _ROUND_SERIES.get(label)
            if name is None:
                name = _ROUND_SERIES.setdefault(label, f"round:{label}")
            handle = self._round_handles[label] = \
                self.metrics.histogram_handle(name)
        gather.add_done_callback(
            _RoundDone(self, request_id, handle, self.sim.now))

    def open_gather(self, threshold: int, label: str = "gather") -> "tuple[int, QuorumFuture]":
        """Register a reply-gathering future without sending any request.

        Used when the replies will come from processes other than the ones
        the request was sent to (e.g. the direct state transfer of Section 5,
        where the request goes to the old configuration's servers but the
        acks come from the new configuration's servers).  Returns the request
        id to embed in outgoing messages and the future to await.
        """
        request_id = self.new_request_id()
        gather = QuorumFuture(self.sim, threshold=threshold,
                              label=f"{self.pid}:{label}#{request_id}")
        self._pending_gathers[request_id] = gather
        gather.add_done_callback(_RoundDone(self, request_id))
        return request_id, gather

    def scatter_and_gather(
        self,
        messages: Dict[ProcessId, Callable[[int], "Message"]],
        threshold: int,
        label: str = "scatter",
    ) -> QuorumFuture:
        """Like :meth:`broadcast_and_gather` but with a per-destination message.

        ``messages`` maps each destination to a factory receiving the request
        id; used by erasure-coded ``put-data`` where every server receives its
        own coded element.
        """
        if self.retry_policy is None:
            return self._open_scatter(messages, threshold, label)[1]
        return self._gather_with_retries(
            lambda: self._open_scatter(messages, threshold, label), label)

    def _open_scatter(
        self,
        messages: Dict[ProcessId, Callable[[int], "Message"]],
        threshold: int,
        label: str,
    ) -> "tuple[int, QuorumFuture]":
        """One scatter attempt under a fresh request id (the retry unit)."""
        request_id, gather = self._open_round(messages, threshold, label)
        if not self.crashed:
            self.network.send_many(self.pid, [
                (server, make_message(request_id))
                for server, make_message in messages.items()])
        return request_id, gather

    # ---------------------------------------------------------------- retries
    def _gather_with_retries(
        self,
        open_attempt: Callable[[], "tuple[int, QuorumFuture]"],
        label: str,
    ) -> SimFuture:
        """Drive ``open_attempt`` under the installed :class:`RetryPolicy`.

        Returns the completion future of a retry coroutine owned by this
        process (so a crash aborts the loop like any protocol coroutine).
        Each attempt runs under a *fresh* request id; an abandoned attempt's
        pending gather is unregistered, so straggler replies from it fall
        through to :meth:`on_message` as unsolicited no-ops.
        """
        return self.spawn(self._retry_driver(open_attempt, label),
                          label=f"{self.pid}:{label}:retry").completion

    def _retry_driver(self, open_attempt, label: str):
        policy = self.retry_policy
        rng = self._retry_rng
        last_failure: Optional[BaseException] = None
        for attempt in range(1, policy.attempts + 1):
            if attempt > 1:
                self.retries += 1
                if self.metrics is not None:
                    self.metrics.inc("retries")
                yield self.sleep(policy.backoff(attempt - 1, rng))
            try:
                request_id, gather = open_attempt()
            except (QuorumRefusedError, QuorumUnavailableError) as error:
                last_failure = error
                continue
            timer = Timer(self.sim, policy.timeout, label=f"{label}:attempt-timeout")
            try:
                yield any_of(self.sim, [gather, timer], label=f"{label}:attempt")
            except (QuorumRefusedError, QuorumUnavailableError) as error:
                timer.cancel()
                if is_retirement_refusal(error):
                    # The configuration was retired: re-broadcasting the same
                    # gather can never succeed (retirement is permanent, not
                    # pressure that drains).  Surface immediately so the
                    # protocol layer restarts from read-config and converges
                    # through the tombstone instead of burning the budget.
                    raise
                last_failure = error
                continue
            if gather.done():
                timer.cancel()
                return gather.result()
            # Timed out: abandon the attempt so late replies are ignored.
            self._pending_gathers.pop(request_id, None)
            last_failure = QuorumUnavailableError(
                f"{self.pid}: {label} attempt {attempt} timed out "
                f"after {policy.timeout:g}")
        raise RetriesExhaustedError(
            f"{self.pid}: {label} failed after {policy.attempts} attempts: "
            f"{last_failure!r}")

    # ------------------------------------------------------------ coroutines
    def spawn(self, generator: Generator, label: str = "") -> Coroutine:
        """Run a protocol coroutine owned by this process."""
        coroutine = spawn(self.sim, generator, label=label or f"{self.pid}:coroutine")
        self._coroutines.append(coroutine)
        # Drop completed coroutines opportunistically to bound memory in long runs.
        if len(self._coroutines) > 64:
            self._coroutines = [c for c in self._coroutines if not c.done()]
        return coroutine

    def sleep(self, delay: float) -> Timer:
        """Return a future that resolves ``delay`` time units from now."""
        return Timer(self.sim, delay, label=f"{self.pid}:sleep")

    # -------------------------------------------------------------- cosmetics
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} {self.pid} {status}>"
