"""Sequence traversal (Algorithm 4): ``read-next-config``, ``put-config``, ``read-config``.

Every read, write and reconfig operation uses these actions to discover the
latest state of the global configuration sequence GL and to make sure that
state remains discoverable by later operations:

* ``read-next-config(c)`` asks a quorum of ``c.Servers`` for their ``nextC``
  variable and returns the first finalized record it sees, else a pending
  one, else ``⊥``;
* ``put-config(c, record)`` writes ``record`` into the ``nextC`` variable of
  a quorum of ``c.Servers``;
* ``read-config(seq)`` starts from the last finalized configuration of the
  local sequence and follows ``nextC`` pointers until it reaches a
  configuration whose quorum knows no successor, propagating every link it
  traverses to the previous configuration on the way (which is what makes
  the Configuration Prefix and Progress lemmas hold).

Servers that have *retired* a configuration answer ``read-next-config`` with
a tombstone redirect -- the finalized successor's record plus its absolute GL
index -- instead of a plain ``nextC`` link.  ``read-config`` handles these by
re-basing the sequence (:meth:`~repro.config.sequence.ConfigSequence.jump_to`)
onto the redirect target and resuming the walk from there, so a client whose
``cseq`` starts at a retired configuration converges in one hop rather than
replaying reclaimed links.

Readers and writers of ABD / TREAS configurations read ``nextC`` off their
first DAP round instead (see :mod:`repro.core.client`) and take each step of
the walk with :meth:`SequenceTraversalMixin._follow_link`; a tombstone
reaches them on the refusing server's NACK.

The helper is written as a mixin so the ARES clients and the reconfigurer
share one implementation; :class:`RegisterState` is the per-register state
(``cseq`` plus DAP clients) every one of those clients keeps.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.errors import QuorumRefusedError, is_retirement_refusal
from repro.common.ids import ConfigId
from repro.config.configuration import Configuration
from repro.config.sequence import ConfigRecord, ConfigSequence, Status, next_link
from repro.dap import make_dap_client
from repro.dap.interface import DapClient
from repro.net.message import request
from repro.core.server import READ_CONFIG, WRITE_CONFIG


class RegisterState:
    """One client's local state for one register.

    The configuration sequence ``cseq`` (Algorithms 5 and 7 state) plus the
    DAP client ``process`` talks to each configuration through.  A
    single-register client or reconfigurer holds one; the store's clients
    and reconfigurers hold one per object key.  The operation mixins take
    ``state.cseq`` and ``state.dap_for``.
    """

    __slots__ = ("cseq", "_process", "_dap_clients")

    def __init__(self, process, configuration: Configuration) -> None:
        self.cseq = ConfigSequence(configuration)
        self._process = process
        self._dap_clients: Dict[ConfigId, DapClient] = {}

    def dap_for(self, configuration: Configuration) -> DapClient:
        """The (cached) DAP client for ``configuration``."""
        client = self._dap_clients.get(configuration.cfg_id)
        if client is None:
            client = make_dap_client(self._process, configuration)
            self._dap_clients[configuration.cfg_id] = client
        return client


class SequenceTraversalMixin:
    """Adds the Algorithm 4 actions to a client process.

    The host class must be a :class:`~repro.sim.process.Process` and must
    have a ``directory`` attribute (the configuration directory) so that
    configurations referenced by received records can be registered locally.
    """

    #: Number of tombstone redirects followed (stale clients converging).
    tombstone_jumps: int = 0

    # ----------------------------------------------------- primitive actions
    def _read_next_config_entry(self, configuration: Configuration):
        """Coroutine: the ``nextC`` record plus its tombstone jump index.

        Returns ``(record, jump)`` where ``jump`` is the absolute GL index a
        retirement tombstone redirects to, or ``None`` for an ordinary link.
        Among tombstone replies the farthest redirect wins (every tombstone
        target is finalized, so farther is strictly more recent); otherwise
        finalized records are preferred over pending ones.
        """
        replies = yield self.broadcast_and_gather(
            configuration.servers,
            lambda rid: request(READ_CONFIG, rid, config_id=configuration.cfg_id),
            threshold=configuration.consensus_quorums.quorum_size,
            label="read-next-config",
        )
        best_jump: Optional[Tuple[ConfigRecord, int]] = None
        records = []
        for _, msg in replies:
            record = msg["record"]
            if record is None:
                continue
            jump = msg.get("jump")
            if jump is not None:
                if best_jump is None or jump > best_jump[1]:
                    best_jump = (record, jump)
            else:
                records.append(record)
        if best_jump is not None:
            return best_jump
        return next_link(records), None

    def put_config(self, configuration: Configuration, record: ConfigRecord):
        """Coroutine: write ``record`` to the ``nextC`` of a quorum of ``configuration``."""
        yield self.broadcast_and_gather(
            configuration.servers,
            lambda rid: request(WRITE_CONFIG, rid, config_id=configuration.cfg_id,
                                metadata_fields=2, record=record),
            threshold=configuration.consensus_quorums.quorum_size,
            label="put-config",
        )
        return None

    # ---------------------------------------------------------- read-config
    def read_config(self, seq: ConfigSequence):
        """Coroutine: traverse GL from the last finalized entry of ``seq``.

        Mutates and returns ``seq``: newly discovered records are appended
        (or upgrade the status of existing entries), and every traversed link
        is propagated to the previous configuration with ``put-config``.  A
        tombstone redirect re-bases ``seq`` onto the finalized target and the
        walk resumes from there; the jump hop itself is not propagated
        backwards (the predecessors are retired -- there is nothing to write
        to and nothing left to discover through them).
        """
        yield from self._walk(seq, seq.mu)
        return seq

    def _walk(self, seq: ConfigSequence, index: int):
        """Coroutine: :meth:`read_config`'s traversal, from the entry at ``index``."""
        current = seq.config_at(index)
        while True:
            record, jump = yield from self._read_next_config_entry(current)
            if record is None:
                return
            if jump is not None:
                if jump <= index:
                    # A tombstone can only point forwards (it names the
                    # finalized successor of a retired predecessor); one at
                    # or behind our position carries nothing new.
                    return
                self._jump(seq, jump, record)
                index = jump
            else:
                self._register_record(record)
                index += 1
                seq.set_record(index, record)
                yield from self.put_config(seq.config_at(index - 1), record)
            current = record.config

    def _follow_link(self, seq: ConfigSequence, index: int, link: ConfigRecord):
        """Coroutine: one step of the walk over a ``nextC`` read elsewhere.

        ``link`` is the record a consensus quorum of the configuration at
        ``index`` reported on a first-round DAP reply.  News -- a successor
        of ``ν``, or the finalized status of a pending entry -- is installed
        and ``put-config`` backwards, as :meth:`read_config` does.  A link
        the sequence already holds is not written again: it reached a quorum
        when this client learned it, and ``nextC`` never regresses.
        """
        if index < seq.nu and (link.status is Status.PENDING
                               or seq[index + 1].status is Status.FINALIZED):
            return
        self._register_record(link)
        seq.set_record(index + 1, link)
        yield from self.put_config(seq.config_at(index), link)

    def _jump(self, seq: ConfigSequence, index: int, record: ConfigRecord) -> None:
        """Re-base ``seq`` on a tombstone: ``record`` is finalized at ``index``."""
        self._register_record(record)
        seq.jump_to(index, record)
        self.tombstone_jumps += 1
        if self.metrics is not None:
            self.metrics.inc("tombstone_jumps")

    # --------------------------------------------------------------- helpers
    def _restart_on_retirement(self, body, args, cap: int, counter: str):
        """Coroutine: ``body(*args)``, re-run while refused only for retirement.

        A quorum gather refused purely because a reconfigurer retired its
        configuration mid-operation re-runs the whole body, up to ``cap``
        times, counting each restart under the metric ``counter``; the
        re-run's traversal re-bases on the retired servers' tombstones, so
        it gathers over live configurations only.  Any other refusal, and
        the one past the cap, propagates.
        """
        for restart in range(cap + 1):
            try:
                return (yield from body(*args))
            except QuorumRefusedError as error:
                if restart == cap or not is_retirement_refusal(error):
                    raise
                if self.metrics is not None:
                    self.metrics.inc(counter)

    def _register_record(self, record: ConfigRecord) -> None:
        directory = getattr(self, "directory", None)
        if directory is not None:
            directory.register(record.config)
