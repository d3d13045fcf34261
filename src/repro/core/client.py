"""ARES readers and writers (Algorithm 7).

A write (read) operation:

1. runs ``read-config`` to refresh the client's local configuration
   sequence;
2. invokes ``get-tag`` (``get-data``) on every configuration from the last
   finalized index ``µ`` to the end of the sequence ``ν`` and keeps the
   maximum tag (tag-value pair);
3. for a write, increments the tag and pairs it with the new value; for a
   read, keeps the discovered pair;
4. repeatedly ``put-data``s the pair into the *last* configuration of the
   local sequence and re-runs ``read-config`` until no new configuration
   appears -- this is the "catch up with ongoing reconfigurations" loop whose
   termination the latency analysis (Section 4.4) studies.  An ABD read
   skips this step when ``[µ, ν]`` is one configuration and its whole
   ``get-data`` quorum carried the returned tag and no link: the pair is
   already at a quorum (``docs/ARCHITECTURE.md``, "One-round reads").

Whenever every configuration in ``[µ, ν]`` is ABD or TREAS, both walks ride
DAP rounds.  Servers attach their ``nextC`` record to every first-round
reply, and those replies come from a consensus quorum, so the walk of step 1
reads the same links from them (``docs/ARCHITECTURE.md``, "Fused
discovery").  They attach it to every ``put-data`` reply too, and a
reconfigurer's transfer query installs the successor as ``nextC`` before it
is answered, so a ``put-data`` quorum that reports no successor proves that
every transfer out of ``c_ν`` saw the value: step 4 follows the links
``put-data`` reports instead of running ``read-config`` (``docs/ARCHITECTURE.md``,
"The transfer fence").  A steady-state write is then two quorum rounds,
and a steady-state ABD read one.  A range with an LDR configuration in it
keeps both ``read-config`` walks.

The client records every high-level operation in a
:class:`~repro.spec.history.History` so atomicity can be checked and the
latency benchmarks can measure operation intervals.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Optional, Tuple

from repro.common.errors import QuorumRefusedError, is_retirement_refusal
from repro.common.ids import ProcessId
from repro.common.tags import TagValue, max_tag, max_tag_value
from repro.common.values import Value
from repro.config.configuration import Configuration
from repro.config.sequence import ConfigRecord, ConfigSequence
from repro.core.directory import ConfigurationDirectory
from repro.core.traversal import RegisterState, SequenceTraversalMixin
from repro.dap.interface import DapClient
from repro.net.network import Network
from repro.sim.process import Process
from repro.spec.history import History, OperationType
from repro.spec.properties import DapRecorder

_GET_TAG = methodcaller("get_tag")
_GET_DATA = methodcaller("get_data")


def _tombstone(error: QuorumRefusedError) -> Optional[Tuple[ConfigRecord, int]]:
    """The ``(record, index)`` tombstone a retirement refusal carries, if any."""
    if not is_retirement_refusal(error) or not error.refusals:
        return None
    _, message = error.refusals[0]
    jump = message.get("jump")
    return None if jump is None else (message["record"], jump)


class RegisterOpsMixin(SequenceTraversalMixin):
    """The Algorithm 7 read/write operations, shared by every ARES client.

    Hosts must be :class:`~repro.sim.process.Process` subclasses with a
    ``history`` attribute (``None`` disables recording).  Operations are
    parameterised over the register's local state -- its configuration
    sequence ``cseq`` and a ``configuration -> DapClient`` resolver -- so
    the single-register :class:`AresClient` (one ``cseq``) and the sharded
    store's :class:`~repro.store.client.StoreClient` (one ``cseq`` per
    object key) run the **same** implementation; a protocol fix lands in
    both data paths at once.
    """

    #: Cap on retirement-refusal restarts of one operation.  A restart
    #: happens when a ``put-data`` (or an LDR round) is refused; the body
    #: re-runs and its first round re-bases on the refusing server's
    #: tombstone, so in practice one restart converges; the cap guards
    #: against a pathological schedule where reconfigurations outrun the
    #: client indefinitely.
    _MAX_RETIREMENT_RESTARTS = 64

    def _register_write(self, cseq: ConfigSequence, dap_for, value: Value,
                        key: Optional[str] = None):
        """Coroutine: the ARES write (Algorithm 7) against one register.

        A first-round query refused because its configuration was retired
        re-bases on the tombstone and goes on (see :meth:`_query_sequence`).
        Any other quorum gather refused purely for retirement (a
        reconfigurer garbage-collected the configuration mid-operation)
        restarts the operation body, which converges the same way, so the
        retry gathers over live configurations only.
        """
        record = None
        started = self.now
        if self.history is not None:
            record = self.history.invoke(self.pid, OperationType.WRITE, self.now,
                                         value_label=value.label, key=key)
        new_pair = yield from self._restart_on_retirement(
            self._write_body, (cseq, dap_for, value),
            self._MAX_RETIREMENT_RESTARTS, "retirement_restarts")
        if record is not None:
            self.history.respond(record, self.now, tag=new_pair.tag)
        if self.metrics is not None:
            self.metrics.observe("write_latency", self.now - started)
        return new_pair.tag

    def _write_body(self, cseq: ConfigSequence, dap_for, value: Value):
        """Coroutine: one attempt at the Algorithm 7 write body."""
        tags = yield from self._query_sequence(cseq, dap_for, _GET_TAG)
        new_pair = TagValue(tag=max_tag(tags).increment(self.pid), value=value)
        yield from self._register_propagate(cseq, dap_for, new_pair)
        return new_pair

    def _register_read(self, cseq: ConfigSequence, dap_for,
                       key: Optional[str] = None):
        """Coroutine: the ARES read (Algorithm 7); returns the value.

        Restarts on retirement refusals exactly like ``_register_write``.
        """
        record = None
        started = self.now
        if self.history is not None:
            record = self.history.invoke(self.pid, OperationType.READ, self.now,
                                         key=key)
        best = yield from self._restart_on_retirement(
            self._read_body, (cseq, dap_for),
            self._MAX_RETIREMENT_RESTARTS, "retirement_restarts")
        if record is not None:
            self.history.respond(record, self.now, value_label=best.value.label,
                                 tag=best.tag)
        if self.metrics is not None:
            self.metrics.observe("read_latency", self.now - started)
        return best.value

    def _read_body(self, cseq: ConfigSequence, dap_for):
        """Coroutine: one attempt at the Algorithm 7 read body.

        The write-back is skipped when ``[µ, ν]`` is one configuration whose
        ``get-data`` quorum all carried the returned tag and reported no
        link: the pair already sits at a quorum of ``c_ν``, and the transfer
        fence makes every later transfer out of ``c_ν`` see it
        (``docs/ARCHITECTURE.md``, "One-round reads").
        """
        pairs = yield from self._query_sequence(cseq, dap_for, _GET_DATA)
        best = max_tag_value(pairs)
        if cseq.mu == cseq.nu:
            dap = dap_for(cseq.config_at(cseq.nu))
            if dap.agreed_tag == best.tag and dap.next_config is None:
                return best
        yield from self._register_propagate(cseq, dap_for, best)
        return best

    def _query_sequence(self, cseq: ConfigSequence, dap_for, primitive):
        """Coroutine: ``read-config``, then ``primitive`` on every entry of ``[µ, ν]``.

        Returns the primitive's results in sequence order.  When every
        configuration of ``[µ, ν]`` is discovering
        (:attr:`~repro.config.configuration.Configuration.discovering`) the
        ``read-config`` rides the primitive's first round: each reply names
        its server's ``nextC``, so one round per configuration both reads it
        and walks past it.  News is followed at once
        (:meth:`_follow_link`: ``put-config`` backwards, then the new entry
        is queried in turn), and a round refused because the configuration
        was retired re-bases on the tombstone its NACK carries
        (:meth:`_rebase_target`).  Otherwise
        -- an LDR configuration in the range -- the separate ``read-config``
        runs first, as in the paper; so does the rest of the walk from an
        LDR configuration the fused walk reaches.
        """
        results = []
        fused = all(entry.config.discovering for entry in cseq.pending_suffix())
        if not fused:
            yield from self.read_config(cseq)
        index = cseq.mu
        while fused and index <= cseq.nu:
            configuration = cseq.config_at(index)
            if not configuration.discovering:
                # Reached through a link or a tombstone: from here on the
                # walk goes through read-next-config rounds.
                yield from self._walk(cseq, index)
                index = max(index, cseq.mu)
                break
            dap = dap_for(configuration)
            try:
                results.append((yield from primitive(dap)))
            except QuorumRefusedError as error:
                tombstone = _tombstone(error)
                if tombstone is None or tombstone[1] <= index:
                    raise
                record, index = self._rebase_target(configuration, tombstone)
                self._jump(cseq, index, record)
                continue
            if dap.next_config is not None:
                yield from self._follow_link(cseq, index, dap.next_config)
            index += 1
        for index in range(index, cseq.nu + 1):
            results.append((yield from primitive(dap_for(cseq.config_at(index)))))
        return results

    def _rebase_target(self, configuration: Configuration,
                       tombstone: Tuple[ConfigRecord, int]) -> Tuple[ConfigRecord, int]:
        """Where a first round refused by retired ``configuration`` re-bases.

        ``tombstone`` is the ``(record, index)`` the refusing server holds:
        the successor that was finalized when ``configuration`` retired.  A
        host that knows a farther finalized entry of the same sequence may
        return it instead (the store's per-key entry point); by default the
        tombstone is the target.
        """
        return tombstone

    def _register_propagate(self, cseq: ConfigSequence, dap_for, pair: TagValue):
        """Algorithm 7 lines 15-21 / 37-43: put-data until the sequence stops growing.

        When every configuration of ``[µ, ν]`` is discovering, the links the
        ``put-data`` replies carry stand in for ``read-config``: ``⊥`` ends
        the loop, and a successor is followed (:meth:`_follow_link`) and put
        into in turn.  The fence on every transfer query makes ``⊥`` from a
        ``put-data`` quorum mean that every transfer out of ``c_ν`` saw the
        pair.  Otherwise ``read-config`` runs after each ``put-data``.
        """
        while True:
            nu = cseq.nu
            dap = dap_for(cseq.config_at(nu))
            yield from dap.put_data(pair)
            if all(entry.config.discovering for entry in cseq.pending_suffix()):
                if dap.next_config is None:
                    return
                yield from self._follow_link(cseq, nu, dap.next_config)
            else:
                yield from self.read_config(cseq)
                if cseq.nu == nu:
                    return


class AresClient(Process, RegisterOpsMixin):
    """A reader or writer client of the ARES service."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        directory: ConfigurationDirectory,
        initial_configuration: Configuration,
        history: Optional[History] = None,
        dap_recorder: Optional[DapRecorder] = None,
    ) -> None:
        super().__init__(pid, network)
        self.directory = directory
        self.history = history
        self.dap_recorder = dap_recorder
        directory.register(initial_configuration)
        self._state = RegisterState(self, initial_configuration)
        #: The client's local configuration sequence ``cseq`` (Algorithm 7 state).
        self.cseq = self._state.cseq

    # --------------------------------------------------------------- plumbing
    def dap_for(self, configuration: Configuration) -> DapClient:
        """The (cached) DAP client for ``configuration``."""
        return self._state.dap_for(configuration)

    # ------------------------------------------------------------- operations
    def write(self, value: Value):
        """Coroutine implementing the ARES write operation."""
        return self._register_write(self.cseq, self._state.dap_for, value)

    def read(self):
        """Coroutine implementing the ARES read operation; returns the value."""
        return self._register_read(self.cseq, self._state.dap_for)
