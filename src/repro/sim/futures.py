"""Futures and the generator-coroutine runner.

Protocol actions in this library -- e.g. TREAS's ``get-data`` quorum gather,
ARES's ``read-config`` traversal, a Paxos proposer round -- are written as
Python *generator coroutines*: ordinary functions containing ``yield``
expressions whose yielded objects are :class:`SimFuture` instances.  The
runner (:func:`spawn`) drives such a generator on the simulator, resuming it
whenever the awaited future resolves.

This is a deliberately tiny stand-in for ``asyncio``: deterministic, introspectable
and entirely under the control of the seeded :class:`~repro.sim.core.Simulator`.

Typical use inside a protocol::

    def _get_tag(self, cfg):
        fut = self.broadcast_and_gather(cfg.servers, QueryTag(...), quorum=cfg.quorum_size)
        replies = yield fut                      # suspend until the quorum answered
        return max(r.tag for r in replies)

and from the outside::

    op = spawn(sim, client._get_tag(cfg))
    sim.run_until_complete(op)
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.common.errors import (
    RETIRED_CONFIG_REASON,
    OperationAborted,
    QuorumRefusedError,
    SimulationError,
)
from repro.sim.core import Simulator


class SimFuture:
    """A single-assignment container resolved at some future virtual time.

    A future is either *pending*, *resolved* with a result, or *failed* with
    an exception.  Callbacks added with :meth:`add_done_callback` run
    immediately if the future is already done.
    """

    __slots__ = ("_sim", "_done", "_result", "_exception", "_callbacks", "label")

    def __init__(self, sim: Simulator, label: str = "") -> None:
        self._sim = sim
        self._done = False
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["SimFuture"], None]] = []
        self.label = label

    # ------------------------------------------------------------------ state
    def done(self) -> bool:
        """Return ``True`` once the future is resolved or failed."""
        return self._done

    def result(self) -> Any:
        """Return the result, raising the stored exception if the future failed."""
        if not self._done:
            raise SimulationError(f"future {self.label!r} is not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self) -> Optional[BaseException]:
        """Return the stored exception, or ``None``."""
        return self._exception

    # ------------------------------------------------------------- resolution
    def set_result(self, result: Any) -> None:
        """Resolve the future with ``result`` and run callbacks."""
        if self._done:
            raise SimulationError(f"future {self.label!r} resolved twice")
        self._done = True
        self._result = result
        self._fire_callbacks()

    def set_exception(self, exc: BaseException) -> None:
        """Fail the future with ``exc`` and run callbacks."""
        if self._done:
            raise SimulationError(f"future {self.label!r} resolved twice")
        self._done = True
        self._exception = exc
        self._fire_callbacks()

    def try_set_result(self, result: Any) -> bool:
        """Resolve the future if still pending; return whether it was resolved now."""
        if self._done:
            return False
        self.set_result(result)
        return True

    def add_done_callback(self, callback: Callable[["SimFuture"], None]) -> None:
        """Run ``callback(self)`` when the future completes (immediately if done)."""
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _fire_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class QuorumFuture(SimFuture):
    """A future that resolves once ``threshold`` responses have been collected.

    Used for every "await replies from a quorum" step in the protocols.  The
    responses collected so far are available as :attr:`responses`; the future
    resolves with the *list of responses present at the moment the threshold
    was reached* (later responses are still appended for diagnostic purposes
    but do not change the result).

    A quorum is a set of *distinct* processes, so a response recorded with a
    ``key`` (the process layer passes the responder id) counts once per key:
    the chaos layer's message-duplication fault must not let one server
    satisfy two slots of a threshold, nor feed the same coded element twice
    to an erasure decoder.

    Servers under injected resource pressure answer with explicit NACKs
    (:meth:`add_nack`) instead of staying silent.  When ``expected`` (the
    number of processes contacted) is given and the refusals leave fewer
    than ``threshold`` possible acceptances, the future fails fast with
    :class:`~repro.common.errors.QuorumRefusedError` -- a retriable
    condition -- rather than hanging until a timeout.  Servers that retired
    the configuration NACK too, and one such refusal fails the future.
    """

    __slots__ = ("threshold", "responses", "duplicates_ignored",
                 "_seen_keys", "expected", "nacks")

    def __init__(self, sim: Simulator, threshold: int, label: str = "",
                 expected: Optional[int] = None) -> None:
        if threshold < 0:
            raise SimulationError("quorum threshold must be non-negative")
        # SimFuture's slots, set here: one frame less on every quorum round.
        self._sim = sim
        self._done = False
        self._result = None
        self._exception = None
        self._callbacks = []
        self.label = label
        self.threshold = threshold
        self.responses: List[Any] = []
        self.duplicates_ignored = 0
        self._seen_keys: set = set()
        self.expected = expected
        self.nacks: List[Any] = []
        if threshold == 0:
            self.set_result([])

    def add_response(self, response: Any, key: Any = None) -> None:
        """Record one response; resolves the future at the threshold.

        A response whose ``key`` was already seen (as a response or a NACK)
        is discarded and tallied in :attr:`duplicates_ignored`.
        """
        if key is not None:
            # One hash of the key, not two: add, then see whether it grew.
            seen = self._seen_keys
            before = len(seen)
            seen.add(key)
            if len(seen) == before:
                self.duplicates_ignored += 1
                return
        responses = self.responses
        responses.append(response)
        if not self._done and len(responses) >= self.threshold:
            self.set_result(list(responses))

    def add_nack(self, response: Any, key: Any = None) -> None:
        """Record one explicit refusal; may fail the future fast.

        Refusals dedupe through the same key space as acceptances (one
        process occupies one slot, whichever way it answers).  The first
        retired-configuration refusal fails the future with
        :class:`~repro.common.errors.QuorumRefusedError` at once: a server
        retires a configuration only behind a tombstone naming a finalized
        successor, so the round has nothing left to gather.  Any other
        refusal counts: with ``expected`` known, the future fails as soon as
        the remaining non-refusing processes cannot reach the threshold.

        ``expected`` is the number of processes contacted, fixed when the
        round opens; a destination that crashes afterwards still counts
        toward it.  Whether a silent destination is down is the emulator's
        knowledge, not the protocol's, and no refusal rule needs it.
        """
        if key is not None:
            if key in self._seen_keys:
                self.duplicates_ignored += 1
                return
            self._seen_keys.add(key)
        self.nacks.append(response)
        if self._done:
            return
        if _nack_reason(response) == RETIRED_CONFIG_REASON:
            self.set_exception(QuorumRefusedError(
                f"{self.label or 'quorum'}: contacted process refused a retired "
                f"configuration", reasons=(RETIRED_CONFIG_REASON,),
                refusals=(response,)))
        elif (self.expected is not None
                and self.expected - len(self.nacks) < self.threshold):
            self.set_exception(QuorumRefusedError(
                f"{self.label or 'quorum'}: {len(self.nacks)} of {self.expected} "
                f"contacted processes refused; threshold {self.threshold} unreachable",
                reasons=self._nack_reasons()))

    def _nack_reasons(self) -> tuple:
        """Distinct refusal reasons collected so far, in first-seen order.

        The error can so carry *why* the quorum refused -- resource pressure
        vs retired configuration -- without changing its message text.
        """
        reasons: List[str] = []
        for nack in self.nacks:
            reason = _nack_reason(nack)
            if reason and reason not in reasons:
                reasons.append(reason)
        return tuple(reasons)


def _nack_reason(nack: Any) -> Optional[str]:
    """The ``error`` a refusal carries, or ``None``.

    NACKs arrive as ``(sender, message)`` pairs from the process layer
    (duck-typed: anything with ``.get("error")`` works).
    """
    message = nack[1] if isinstance(nack, tuple) and len(nack) == 2 else nack
    getter = getattr(message, "get", None)
    return getter("error") if getter is not None else None


class Timer(SimFuture):
    """A future that resolves after a fixed virtual delay."""

    __slots__ = ("event",)

    def __init__(self, sim: Simulator, delay: float, label: str = "timer") -> None:
        super().__init__(sim, label=label)
        self.event = sim.schedule(delay, self.try_set_result, label=label, args=(None,))

    def cancel(self) -> None:
        """Cancel the underlying event; the future never resolves."""
        self.event.cancel()


def all_of(sim: Simulator, futures: Iterable[SimFuture], label: str = "all_of") -> SimFuture:
    """Return a future resolving with the list of results of ``futures``.

    Fails fast with the first exception raised by any constituent future.
    """
    futures = list(futures)
    combined = SimFuture(sim, label=label)
    if not futures:
        combined.set_result([])
        return combined
    remaining = {"count": len(futures)}

    def on_done(_fut: SimFuture) -> None:
        if combined.done():
            return
        if _fut.exception() is not None:
            combined.set_exception(_fut.exception())
            return
        remaining["count"] -= 1
        if remaining["count"] == 0:
            combined.set_result([f.result() for f in futures])

    for fut in futures:
        fut.add_done_callback(on_done)
    return combined


class Coroutine:
    """Handle of a running generator coroutine.

    The handle is itself a :class:`SimFuture` that resolves with the
    coroutine's return value (the value of its ``return`` statement) or
    fails with the exception the coroutine raised.
    """

    def __init__(self, sim: Simulator, generator: Generator, label: str = "") -> None:
        self.sim = sim
        self.generator = generator
        self.completion = SimFuture(sim, label=label or "coroutine")
        self.label = label
        self._aborted = False

    # -------------------------------------------------------------- stepping
    def start(self) -> "Coroutine":
        """Begin executing the coroutine (runs synchronously until its first yield)."""
        self._advance(None, None)
        return self

    def abort(self, reason: str = "aborted") -> None:
        """Inject :class:`OperationAborted` into the coroutine at its next resume point.

        Used when the owning client crashes: pending operations terminate
        exceptionally instead of lingering.
        """
        self._aborted = True
        if not self.completion.done():
            # If the coroutine is currently suspended on a future we cannot
            # forcibly resume it synchronously without risking re-entrancy,
            # so we just mark it and fail the completion; the generator is
            # closed to run any cleanup (finally blocks).
            try:
                self.generator.close()
            except Exception:  # pragma: no cover - defensive
                pass
            self.completion.set_exception(OperationAborted(reason))

    def _advance(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.completion._done:
            return
        try:
            if exc is not None:
                yielded = self.generator.throw(exc)
            else:
                yielded = self.generator.send(value)
        except StopIteration as stop:
            self.completion.set_result(getattr(stop, "value", None))
            return
        except BaseException as error:  # noqa: BLE001 - propagate into the future
            self.completion.set_exception(error)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, SimFuture):
            future = yielded
        elif isinstance(yielded, (int, float)):
            future = Timer(self.sim, float(yielded), label=f"{self.label}:sleep")
        else:
            self._advance(
                None,
                SimulationError(
                    f"coroutine {self.label!r} yielded {type(yielded).__name__}; "
                    "only SimFuture instances or numeric delays may be yielded"
                ),
            )
            return

        future.add_done_callback(self._resume)

    def _resume(self, fut: SimFuture) -> None:
        """Schedule the coroutine's next step once an awaited future is done.

        Resumes on a fresh event so that deep chains do not recurse and all
        resumptions are ordered by the simulator.  This is a bound method
        (not a per-yield closure) and the resume event is a zero-delay
        ``post`` -- no cancellable handle, the simulator's same-time FIFO
        lane -- because one resumption happens per awaited future of every
        operation: it is among the hottest paths there are.
        """
        if self._aborted or self.completion._done:
            return
        sim = self.sim
        exc = fut._exception
        if exc is not None:
            sim.post(0.0, self._advance,
                     f"{self.label}:resume-exc" if sim.trace_enabled else "",
                     (None, exc))
        else:
            sim.post(0.0, self._advance,
                     f"{self.label}:resume" if sim.trace_enabled else "",
                     (fut._result, None))

    # ------------------------------------------------------------ future API
    def done(self) -> bool:
        """Return whether the coroutine has finished."""
        return self.completion.done()

    def result(self) -> Any:
        """Return the coroutine's return value (or raise its exception)."""
        return self.completion.result()

    def exception(self) -> Optional[BaseException]:
        """Return the coroutine's exception, if any."""
        return self.completion.exception()

    def add_done_callback(self, callback: Callable[[SimFuture], None]) -> None:
        """Register a completion callback on the underlying future."""
        self.completion.add_done_callback(callback)


def spawn(sim: Simulator, generator: Generator, label: str = "") -> Coroutine:
    """Run ``generator`` as a coroutine on the simulator and return its handle."""
    return Coroutine(sim, generator, label=label).start()
