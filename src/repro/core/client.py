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
   termination the latency analysis (Section 4.4) studies.  A read skips
   this step when ``[µ, ν]`` is one configuration and its whole
   ``get-data`` quorum (for LDR, directory majority) held the returned tag
   (for TREAS, with its coded element) and no link: the pair is already at
   a quorum (``docs/ARCHITECTURE.md``, "One-round reads").

Both walks ride DAP rounds.  Servers attach their ``nextC`` record to every
first-round reply, and under every DAP those replies come from a consensus
quorum (for LDR, a directory majority), so the walk of step 1 reads the same
links from them (``docs/ARCHITECTURE.md``, "Fused discovery").  They attach
it to every ``put-data`` reply too (LDR's ``put-metadata`` round), and a
reconfigurer's transfer query installs the successor as ``nextC`` before it
is answered, so a ``put-data`` quorum that reports no successor proves that
every transfer out of ``c_ν`` saw the value: step 4 follows the links
``put-data`` reports instead of running ``read-config``
(``docs/ARCHITECTURE.md``, "The transfer fence").  A steady-state ABD or
TREAS write is then two quorum rounds, and a steady-state ABD or TREAS read
one; an LDR write is three, an LDR read two.

A round refused because a reconfigurer retired its configuration, query or
``put-data``, re-bases on the tombstone the refusal carries and goes on
with the same pair: an operation never starts over, so a written value
keeps the one tag its query chose (``docs/ARCHITECTURE.md``, "Why a
refused ``put-data`` re-bases").

The client records every high-level operation in a
:class:`~repro.spec.history.History` so atomicity can be checked and the
latency benchmarks can measure operation intervals.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Optional

from repro.common.errors import QuorumRefusedError
from repro.common.ids import ProcessId
from repro.common.tags import TagValue, max_tag, max_tag_value
from repro.common.values import Value
from repro.config.configuration import Configuration
from repro.config.sequence import ConfigSequence
from repro.core.directory import ConfigurationDirectory
from repro.core.traversal import RegisterState, SequenceTraversalMixin
from repro.dap.interface import DapClient
from repro.net.network import Network
from repro.sim.process import Process
from repro.spec.history import History, OperationType
from repro.spec.properties import DapRecorder

_GET_TAG = methodcaller("get_tag")
_GET_DATA = methodcaller("get_data")


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

    def _register_write(self, cseq: ConfigSequence, dap_for, value: Value,
                        key: Optional[str] = None):
        """Coroutine: the ARES write (Algorithm 7) against one register.

        A round refused because a reconfigurer retired its configuration
        re-bases on the tombstone the refusal carries and goes on, whether
        it is a query round (:meth:`_query_sequence`) or a ``put-data``
        (:meth:`_register_propagate`), so the value keeps the one tag its
        query chose.
        """
        record = None
        started = self.now
        if self.history is not None:
            record = self.history.invoke(self.pid, OperationType.WRITE, self.now,
                                         value_label=value.label, key=key)
        new_pair = yield from self._write_body(cseq, dap_for, value)
        if record is not None:
            self.history.respond(record, self.now, tag=new_pair.tag)
        if self.metrics is not None:
            self.metrics.observe("write_latency", self.now - started)
        return new_pair.tag

    def _write_body(self, cseq: ConfigSequence, dap_for, value: Value):
        """Coroutine: the Algorithm 7 write body; returns the pair it put."""
        tags = yield from self._query_sequence(cseq, dap_for, _GET_TAG)
        new_pair = TagValue(tag=max_tag(tags).increment(self.pid), value=value)
        yield from self._register_propagate(cseq, dap_for, new_pair)
        return new_pair

    def _register_read(self, cseq: ConfigSequence, dap_for,
                       key: Optional[str] = None):
        """Coroutine: the ARES read (Algorithm 7); returns the value.

        Re-bases on retirement refusals exactly like ``_register_write``.
        """
        record = None
        started = self.now
        if self.history is not None:
            record = self.history.invoke(self.pid, OperationType.READ, self.now,
                                         key=key)
        best = yield from self._read_body(cseq, dap_for)
        if record is not None:
            self.history.respond(record, self.now, value_label=best.value.label,
                                 tag=best.tag)
        if self.metrics is not None:
            self.metrics.observe("read_latency", self.now - started)
        return best.value

    def _read_body(self, cseq: ConfigSequence, dap_for):
        """Coroutine: the Algorithm 7 read body; returns the pair it found.

        The write-back is skipped when ``[µ, ν]`` is one configuration whose
        ``get-data`` quorum all held the returned tag (the walk follows
        every link a round reports, so that quorum reported none): the pair
        already sits at a quorum of ``c_ν``, and the transfer fence makes
        every later transfer out of ``c_ν`` see it (``docs/ARCHITECTURE.md``,
        "One-round reads").
        """
        pairs = yield from self._query_sequence(cseq, dap_for, _GET_DATA)
        best = max_tag_value(pairs)
        if (cseq.mu == cseq.nu
                and dap_for(cseq.config_at(cseq.nu)).agreed_tag == best.tag):
            return best
        yield from self._register_propagate(cseq, dap_for, best)
        return best

    def _query_sequence(self, cseq: ConfigSequence, dap_for, primitive):
        """Coroutine: ``primitive`` on every entry of ``[µ, ν]``, walking as it goes.

        Returns the primitive's results in sequence order.  ``read-config``
        rides the primitive's first round: each reply names its server's
        ``nextC``, so one round per configuration both reads it and walks
        past it.  News is followed at once (:meth:`_follow_link`:
        ``put-config`` backwards, then the new entry is queried in turn),
        and a round refused because the configuration was retired re-bases
        on the tombstone its NACK carries (:meth:`_rebase`).
        """
        results = []
        index = cseq.mu
        while index <= cseq.nu:
            configuration = cseq.config_at(index)
            dap = dap_for(configuration)
            try:
                results.append((yield from primitive(dap)))
            except QuorumRefusedError as error:
                index = self._rebase(cseq, index, configuration, error)
                continue
            if dap.next_config is not None:
                yield from self._follow_link(cseq, index, dap.next_config)
            index += 1
        return results

    def _register_propagate(self, cseq: ConfigSequence, dap_for, pair: TagValue):
        """Algorithm 7 lines 15-21 / 37-43: put-data until the sequence stops growing.

        The links the ``put-data`` replies carry stand in for
        ``read-config``: ``⊥`` ends the loop, and a successor is followed
        (:meth:`_follow_link`) and put into in turn.  The fence on every
        transfer query makes ``⊥`` from a ``put-data`` quorum mean that
        every transfer out of ``c_ν`` saw the pair.  A ``put-data`` refused
        because ``c_ν`` was retired re-bases on the tombstone
        (:meth:`_rebase`) and puts the same pair into its target: that
        configuration was finalized, so its update-config already
        transferred out of ``c_ν``, and putting into it is this loop's
        catch-up started later (``docs/ARCHITECTURE.md``, "Why a refused
        ``put-data`` re-bases").
        """
        while True:
            nu = cseq.nu
            configuration = cseq.config_at(nu)
            dap = dap_for(configuration)
            try:
                yield from dap.put_data(pair)
            except QuorumRefusedError as error:
                self._rebase(cseq, nu, configuration, error)
                continue
            if dap.next_config is None:
                return
            yield from self._follow_link(cseq, nu, dap.next_config)


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
