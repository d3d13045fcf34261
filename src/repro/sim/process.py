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
from collections import deque
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
from repro.sim.core import Event, Simulator
from repro.sim.futures import Coroutine, QuorumFuture, SimFuture, Timer, spawn

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
    protocol coroutine, which surfaces as a clean operation error.  A
    refusal caused only by retired configurations is permanent and surfaces
    on the first attempt instead.

    The timeout is measured per attempt, from its own opening, by one
    deadline sweep per process (:meth:`Process._sweep_deadlines`), not by a
    timer per attempt; a reply delivered at the very instant of the
    deadline still counts.  A round whose attempt succeeds costs one
    :class:`_RetriedRound` object and no event of its own.

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


class _RetriedRound(SimFuture):
    """One quorum round of a process that has a :class:`RetryPolicy` installed.

    The round *is* the future the protocol coroutine awaits and also the
    done-callback of each attempt's gather, so a round that succeeds first
    time -- all but a percent or two of them, even under loss -- costs this
    one object: success hands the gather's result over synchronously, and
    the awaiting coroutine resumes through the same single ``call_soon`` as
    on the plain path.  A retriable failure (a refusal that is not a
    retirement refusal, too few live servers at open, a timeout reported by
    :meth:`Process._sweep_deadlines`) draws the backoff at once and
    schedules the re-open; anything else surfaces at once.  ``opener`` is
    the bound ``_open_broadcast`` / ``_open_scatter`` and ``args`` its
    arguments, so no closure is built per round.
    """

    __slots__ = ("process", "opener", "args", "attempt")

    def __init__(self, process: "Process", opener: Callable[..., tuple],
                 args: tuple, label: str) -> None:
        super().__init__(process.sim, label=label)
        self.process = process
        self.opener = opener
        self.args = args
        self.attempt = 0
        self._open(process._incarnation)

    def _open(self, incarnation: int) -> None:
        """Open the next attempt under a fresh request id.

        ``incarnation`` is the process's crash count when the call was
        scheduled: a backoff wake-up that finds it moved belongs to a
        process that crashed meanwhile (restarted or not) and sends nothing.
        """
        process = self.process
        if incarnation != process._incarnation:
            return
        self.attempt += 1
        try:
            request_id, gather = self.opener(*self.args)
        except (QuorumRefusedError, QuorumUnavailableError) as error:
            self._failed(error)
            return
        # Runs at once when the gather is born done (threshold 0).
        gather.add_done_callback(self)
        if not gather._done:
            process._arm_deadline(request_id, self)

    def __call__(self, gather: SimFuture) -> None:
        """The current attempt's gather completed: succeed, retry or surface."""
        error = gather._exception
        if error is None:
            self.set_result(gather._result)
        elif (isinstance(error, (QuorumRefusedError, QuorumUnavailableError))
                and not is_retirement_refusal(error)):
            self._failed(error)
        else:
            # Not retriable.  In particular a retired configuration stays
            # retired (it is not pressure that drains): re-broadcasting the
            # same gather can never succeed, so the protocol layer must see
            # the refusal now, restart from read-config and converge through
            # the tombstone instead of burning the budget.
            self.set_exception(error)

    def timed_out(self) -> None:
        """The current attempt's deadline passed with its gather still pending."""
        process = self.process
        self._failed(QuorumUnavailableError(
            f"{process.pid}: {self.label} attempt {self.attempt} timed out "
            f"after {process.retry_policy.timeout:g}"))

    def _failed(self, error: BaseException) -> None:
        """Back off and re-open after a retriable failure, or give up."""
        process = self.process
        policy = process.retry_policy
        if self.attempt >= policy.attempts:
            self.set_exception(RetriesExhaustedError(
                f"{process.pid}: {self.label} failed after {policy.attempts} "
                f"attempts: {error!r}"))
            return
        process.retries += 1
        if process.metrics is not None:
            process.metrics.inc("retries")
        process.sim.schedule(policy.backoff(self.attempt, process._retry_rng),
                             self._open, args=(process._incarnation,))


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
        # builds.  With one, every round is a _RetriedRound and its attempts
        # queue in _deadlines (made by enable_retries) as (opened at, request
        # id, round), oldest first; one scheduled _sweep_deadlines event per
        # process, armed whenever the queue is not empty, times them out.
        self.retry_policy: Optional[RetryPolicy] = None
        self._retry_rng: Optional[random.Random] = None
        self._deadlines: "Optional[deque[tuple[float, int, _RetriedRound]]]" = None
        self._sweep: Optional[Event] = None
        #: Crashes so far: lets a backoff wake-up see that it was overtaken.
        self._incarnation = 0
        #: Coroutines spawned with a policy installed and not yet finished.
        self._live_coroutines = 0
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
        self._incarnation += 1
        for coroutine in self._coroutines:
            if not coroutine.done():
                coroutine.abort(f"{self.pid} crashed")
        self._coroutines.clear()
        self._pending_gathers.clear()
        self._drop_sweep()

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

        A process has one policy, the one installed: swapping it while
        rounds are armed puts them under the new policy from that moment.
        An attempt in flight times out ``policy.timeout`` after *its own*
        opening (at once if that is already past), and attempt budget,
        backoff and jitter stream of every later decision are the new ones.
        """
        self.retry_policy = policy
        self._retry_rng = random.Random(f"retry-{seed}-{self.pid.name}")
        if self._deadlines is None:
            self._deadlines = deque()
        if self._sweep is not None:
            # Armed for the old timeout: look at the queue again.
            self._sweep.cancel()
            self._sweep = self.sim.call_soon(self._sweep_deadlines)

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
            With a retry policy installed (:meth:`enable_retries`) the
            returned future is the whole retried round instead -- same
            result, or :class:`~repro.common.errors.RetriesExhaustedError`
            once every attempt timed out or was refused -- and each attempt
            is a gather like the above under a fresh request id.

        Raises
        ------
        QuorumUnavailableError
            Immediately, if fewer than ``threshold`` destinations are alive,
            since in a reliable-channel crash-stop model the gather could
            then never complete.  With a retry policy installed the error
            is retried and surfaces through the returned future instead.
        """
        servers = list(servers)
        if self.retry_policy is None:
            return self._open_broadcast(servers, make_message, threshold, label)[1]
        return _RetriedRound(self, self._open_broadcast,
                             (servers, make_message, threshold, label), label)

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
        return _RetriedRound(self, self._open_scatter,
                             (messages, threshold, label), label)

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
    def _arm_deadline(self, request_id: int, round: _RetriedRound) -> None:
        """Queue the attempt just opened as ``request_id`` for its timeout.

        The timeout is one per-process constant, so the queue is a FIFO by
        deadline and one scheduled sweep -- armed here only when none is --
        serves every attempt of the process.
        """
        now = self.sim.now
        self._deadlines.append((now, request_id, round))
        if self._sweep is None:
            self._sweep = self.sim.schedule_at(
                now + self.retry_policy.timeout, self._sweep_deadlines)

    def _sweep_deadlines(self, settled: bool = False) -> None:
        """Time out the attempts that are due; re-arm for the next live one.

        Queue heads whose request id is no longer pending (the round
        completed or failed fast) are dropped whatever their deadline, so
        the sweep re-arms at the oldest *live* attempt's own deadline: while
        rounds complete it fires once per ``timeout`` of virtual time, not
        once per round, and a timeout still happens at exactly
        ``opened + timeout``.

        Deadline ties: a due attempt is timed out on a second pass queued
        with ``call_soon`` (``settled``), i.e. after every delivery of the
        same instant, so a reply landing exactly on the deadline completes
        the round.  Timing an attempt out unregisters it, so straggler
        replies fall through to :meth:`on_message` as unsolicited no-ops.
        """
        deadlines = self._deadlines
        pending = self._pending_gathers
        timeout = self.retry_policy.timeout
        now = self.sim.now
        while deadlines:
            opened, request_id, round = deadlines[0]
            if request_id not in pending:
                deadlines.popleft()
            elif opened + timeout > now:
                self._sweep = self.sim.schedule_at(opened + timeout,
                                                   self._sweep_deadlines)
                return
            elif not settled:
                self._sweep = self.sim.call_soon(self._sweep_deadlines,
                                                 args=(True,))
                return
            else:
                deadlines.popleft()
                del pending[request_id]
                round.timed_out()
        self._sweep = None

    def _drop_sweep(self) -> None:
        """Forget the deadline queue and cancel the armed sweep, if any.

        For callers that know no gather is pending: then no queued attempt
        is live and there is nothing left to time out.
        """
        if self._sweep is not None:
            self._sweep.cancel()
            self._sweep = None
            self._deadlines.clear()

    # ------------------------------------------------------------ coroutines
    def spawn(self, generator: Generator, label: str = "") -> Coroutine:
        """Run a protocol coroutine owned by this process."""
        coroutine = spawn(self.sim, generator, label=label or f"{self.pid}:coroutine")
        self._coroutines.append(coroutine)
        if self.retry_policy is not None:
            self._live_coroutines += 1
            coroutine.add_done_callback(self._coroutine_done)
        # Drop completed coroutines opportunistically to bound memory in long runs.
        if len(self._coroutines) > 64:
            self._coroutines = [c for c in self._coroutines if not c.done()]
        return coroutine

    def _coroutine_done(self, _completion: SimFuture) -> None:
        """Cancel the armed sweep once the last live coroutine finishes.

        The last sweep of a process is armed up to one ``timeout`` past its
        last round; left queued it would drag the run's final clock (and
        every duration derived from it) out to that deadline.
        """
        self._live_coroutines -= 1
        if not self._live_coroutines and not self._pending_gathers:
            self._drop_sweep()

    def sleep(self, delay: float) -> Timer:
        """Return a future that resolves ``delay`` time units from now."""
        return Timer(self.sim, delay, label=f"{self.pid}:sleep")

    # -------------------------------------------------------------- cosmetics
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} {self.pid} {status}>"
