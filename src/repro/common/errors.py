"""Exception hierarchy for the ARES reproduction.

Every exception raised by library code derives from :class:`ReproError` so
that callers can catch failures of the storage service without accidentally
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly.

    Examples: scheduling an event in the past, running a simulator that has
    already been closed, or resuming a coroutine that has terminated.
    """


class StreamingHistoryError(ReproError):
    """A streaming history was used outside its contract.

    Streaming mode folds verified operations away as their concurrency
    windows close, so APIs that need the full record set
    (``operations()``, ``signature()``, ``split_by_key()``, ...) are
    unavailable, recording must happen in non-decreasing event-time order,
    and no further records may be added after ``finalize()``.
    """


class StreamingWindowError(StreamingHistoryError):
    """The open concurrency window exceeded the configured bound.

    Streaming histories promise O(open window) memory; an operation that
    never responds keeps the fold frontier pinned, so the window would grow
    without bound.  Raised by :meth:`repro.spec.history.History.invoke` when
    the number of unfolded records passes ``window_limit``.
    """


class StreamingAmbiguityError(StreamingHistoryError):
    """The online checker cannot decide the history without full records.

    The online checker is the streaming variant of the *fast* register
    checker; histories the fast checker hands to the Wing-Gong reference
    search (duplicate value labels, no greedy witness order) need the full
    record set, which streaming mode has already discarded.  Re-run the
    scenario in batch mode to obtain a verdict.
    """


class QuorumUnavailableError(ReproError):
    """Not enough live servers remain to assemble the required quorum.

    Raised by client-side protocol actions when the set of non-crashed
    servers in a configuration can no longer satisfy the quorum the action is
    waiting for.  The paper assumes at most ``f <= (n - k) / 2`` crash
    failures per configuration; this error signals that the assumption has
    been violated for the configuration at hand.
    """


#: Refusal reason servers attach when NACKing a request addressed to a
#: configuration they have retired (see ``AresServer``), together with the
#: retirement tombstone; clients recognise it via
#: :func:`is_retirement_refusal` and re-base on the tombstone instead of
#: retrying a gather that can never succeed.
RETIRED_CONFIG_REASON = "retired-config"


class QuorumRefusedError(ReproError):
    """Enough servers *refused* the request that the quorum cannot complete.

    Servers under resource pressure (memory budget exceeded, disk full)
    reply with an explicit NACK instead of silently dropping the request.
    When the refusals leave fewer than ``threshold`` potential acceptances
    among the processes contacted, the phase fails fast with this error -- a
    *retriable* condition, unlike :class:`QuorumUnavailableError` which
    reflects fail-stop crashes.  One retired-configuration refusal is
    conclusive on its own.

    ``reasons`` carries the distinct refusal reason strings collected from
    the NACKs (empty when the refusals carried none), so callers can treat
    e.g. retirement refusals differently from resource pressure without
    parsing the message text.  ``refusals`` holds the refusing reply of a
    retirement refusal, as a ``(sender, message)`` pair: its NACK carries
    the tombstone the operation re-bases on.
    """

    def __init__(self, message: str, reasons: "tuple[str, ...]" = (),
                 refusals: tuple = ()) -> None:
        super().__init__(message)
        self.reasons = tuple(reasons)
        self.refusals = tuple(refusals)


def is_retirement_refusal(error: BaseException) -> bool:
    """Whether ``error`` is a quorum refusal caused by retired configurations.

    True only when *every* collected reason is :data:`RETIRED_CONFIG_REASON`:
    a gather refused partly for resource pressure keeps its ordinary
    retriable semantics (backoff may find the server drained), whereas a
    pure retirement refusal is permanent for that configuration and the
    operation must re-base past it.
    """
    reasons = getattr(error, "reasons", ())
    return (isinstance(error, QuorumRefusedError) and bool(reasons)
            and all(reason == RETIRED_CONFIG_REASON for reason in reasons))


class RetriesExhaustedError(ReproError):
    """A client exhausted its retry budget without completing a quorum phase.

    Raised by a retry-armed quorum round (``_RetriedRound`` in
    :mod:`repro.sim.process`, the future a protocol coroutine awaits when
    its process has a ``RetryPolicy``) after ``RetryPolicy.attempts`` attempts each
    either timed out or were refused by the contacted quorum.  Surfaces
    through the workload driver as an operation error, so liveness checks
    report a clean failure instead of a stalled session.
    """


class DecodeError(ReproError):
    """An erasure-coded value could not be reconstructed.

    Raised by :mod:`repro.erasure` when fewer than ``k`` distinct coded
    elements are supplied, or when the supplied fragments are inconsistent
    (for instance, fragments of different lengths).
    """


class ConfigurationError(ReproError):
    """A configuration object is malformed or used inconsistently.

    Examples: an ``[n, k]`` code whose ``n`` differs from the number of
    servers in the configuration, a quorum system whose quorums are not
    subsets of the server set, or an attempt to install a configuration with
    an identifier that is already in use.
    """


class OperationAborted(ReproError):
    """A client operation was aborted before completion.

    This is raised into a protocol coroutine when the owning client process
    crashes while the operation is still pending, so that in-flight state is
    unwound instead of silently lingering.
    """


class ConsensusError(ReproError):
    """A consensus instance failed to reach a decision.

    Single-decree Paxos as implemented here always terminates in the
    simulator's failure model (a quorum of acceptors stays alive); this error
    guards against misuse, such as proposing ``None`` or reusing a proposer
    object after its instance decided.
    """
