"""Sequence traversal (Algorithm 4): ``put-config`` and the walk over ``nextC``.

Every read, write and reconfig operation discovers the latest state of the
global configuration sequence GL and makes sure that state remains
discoverable by later operations:

* ``put-config(c, record)`` writes ``record`` into the ``nextC`` variable of
  a consensus quorum of ``c`` (a majority of ``c.Servers``, or of an LDR
  configuration's directories);
* the walk follows the ``nextC`` links a client's rounds report, past the
  end of its local sequence, propagating every link it learns to the
  previous configuration with ``put-config`` on the way (which is what
  makes the Configuration Prefix and Progress lemmas hold).

No round reads ``nextC`` on its own: Algorithm 4's ``read-next-config`` rides
rounds every operation runs anyway.  Servers attach their ``nextC`` record
to the replies of a DAP's first-round query and ``put-data``, which readers
and writers run (see :mod:`repro.core.client`), and to the replies of a Paxos
``PREPARE``, which a reconfigurer's add-config runs (see
:mod:`repro.core.reconfig`).  Both go to a consensus quorum, so they report
what ``read-next-config`` would.  Each step of the walk is
:meth:`SequenceTraversalMixin._follow_link`.

Servers that have *retired* a configuration refuse every round on it with a
NACK carrying a tombstone -- the finalized successor's record plus its
absolute GL index.  :meth:`SequenceTraversalMixin._rebase` re-bases the
sequence (:meth:`~repro.config.sequence.ConfigSequence.jump_to`) onto that
target, so a client whose ``cseq`` starts at a retired configuration
converges in one hop rather than replaying reclaimed links.

The helpers are written as a mixin so the ARES clients and the reconfigurer
share one implementation; :class:`RegisterState` is the per-register state
(``cseq`` plus DAP clients) every one of those clients keeps.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.errors import QuorumRefusedError, is_retirement_refusal
from repro.common.ids import ConfigId
from repro.config.configuration import Configuration
from repro.config.sequence import ConfigRecord, ConfigSequence, Status
from repro.dap import make_dap_client
from repro.dap.interface import DapClient
from repro.net.message import request
from repro.core.server import WRITE_CONFIG


def _tombstone(error: QuorumRefusedError) -> Optional[Tuple[ConfigRecord, int]]:
    """The ``(record, index)`` tombstone a retirement refusal carries, if any."""
    if not is_retirement_refusal(error) or not error.refusals:
        return None
    _, message = error.refusals[0]
    jump = message.get("jump")
    return None if jump is None else (message["record"], jump)


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
    def put_config(self, configuration: Configuration, record: ConfigRecord):
        """Coroutine: write ``record`` to ``nextC`` at a consensus quorum of ``configuration``."""
        yield self.broadcast_and_gather(
            configuration.consensus_servers,
            lambda rid: request(WRITE_CONFIG, rid, config_id=configuration.cfg_id,
                                metadata_fields=2, record=record),
            threshold=configuration.consensus_quorum_size,
            label="put-config",
        )
        return None

    # ------------------------------------------------------------------ walk
    def _follow_link(self, seq: ConfigSequence, index: int, link: ConfigRecord):
        """Coroutine: one step of the walk over a ``nextC`` read elsewhere.

        ``link`` is the record a quorum of the configuration at ``index``
        reported on first-round or ``put-data`` DAP replies, or on Paxos
        promises.  News -- a successor of ``ν``, or the finalized status of
        a pending entry -- is installed and ``put-config`` backwards.  A
        link the sequence already holds is not written again: it reached a
        quorum when this client learned it, and ``nextC`` never regresses.
        """
        if index < seq.nu and (link.status is Status.PENDING
                               or seq[index + 1].status is Status.FINALIZED):
            return
        self._register_record(link)
        seq.set_record(index + 1, link)
        yield from self.put_config(seq.config_at(index), link)

    def _rebase(self, seq: ConfigSequence, index: int,
                configuration: Configuration, error: QuorumRefusedError) -> int:
        """Re-base ``seq`` past a round on ``configuration`` refused for retirement.

        ``configuration`` sits at ``index``.  Returns the index the sequence
        now resumes at: the tombstone's target (:meth:`_rebase_target`).
        ``error`` propagates unless every refusal was for retirement and the
        tombstone points past ``index``.
        """
        tombstone = _tombstone(error)
        if tombstone is None or tombstone[1] <= index:
            raise error
        record, target = self._rebase_target(configuration, tombstone)
        self._jump(seq, target, record)
        return target

    def _rebase_target(self, configuration: Configuration,
                       tombstone: Tuple[ConfigRecord, int]) -> Tuple[ConfigRecord, int]:
        """Where a round refused by retired ``configuration`` re-bases.

        ``tombstone`` is the ``(record, index)`` the refusing server holds:
        the successor that was finalized when ``configuration`` retired.  A
        host that knows a farther finalized entry of the same sequence may
        return it instead (the store client's per-key entry point); by
        default the tombstone is the target.
        """
        return tombstone

    def _jump(self, seq: ConfigSequence, index: int, record: ConfigRecord) -> None:
        """Re-base ``seq`` on a tombstone: ``record`` is finalized at ``index``."""
        self._register_record(record)
        seq.jump_to(index, record)
        self.tombstone_jumps += 1
        if self.metrics is not None:
            self.metrics.inc("tombstone_jumps")

    # --------------------------------------------------------------- helpers
    def _register_record(self, record: ConfigRecord) -> None:
        directory = getattr(self, "directory", None)
        if directory is not None:
            directory.register(record.config)
