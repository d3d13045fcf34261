"""The ARES server protocol (Algorithm 6, plus DAP and consensus hosting).

Each ARES server keeps, for every configuration it is a member of:

* ``nextC`` -- the ``<cfg, status>`` record of the configuration that follows
  this one in the global sequence, or ``⊥``;
* the per-configuration DAP server state (ABD tag/value pair, TREAS ``List``,
  LDR directory/replica stores);
* the Paxos acceptor state of the configuration's consensus instance
  ``c.Con`` (used to decide the successor of the configuration).

The ``nextC`` update rule follows Algorithm 6: a WRITE-CONFIG installs the
incoming record if the current value is ``⊥`` or still pending; a finalized
record is never overwritten (and by consensus Agreement the configuration
member never changes).

Retirement
----------
Configuration retirement (the GC phase of
:class:`~repro.core.reconfig.ReconfigOpsMixin`) reclaims everything above:
a ``RETIRE-CONFIG`` message -- sent only after a quorum of the finalized
successor acked a ``CONFIRM-CONFIG`` round -- makes the server drop the
configuration's DAP state, its Paxos acceptor state and its ``nextC``
record, keeping a compact **tombstone**: the finalized successor's record
plus its absolute GL index.  A client arriving with a stale ``cseq`` asks a
retired configuration for its ``nextC`` and receives the tombstone as a
redirect, converging in one hop (the mirror of
:meth:`repro.store.shardmap.ShardMap.forward`) instead of replaying the
chain; DAP and consensus traffic for a retired configuration is refused
with an explicit NACK so quorum gathers fail fast rather than stall.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import RETIRED_CONFIG_REASON
from repro.common.ids import ConfigId, ProcessId
from repro.config.configuration import Configuration
from repro.config.sequence import ConfigRecord, Status
from repro.consensus.paxos import (
    ACCEPT,
    DECIDED,
    PREPARE,
    PaxosAcceptorState,
)
from repro.core.directory import ConfigurationDirectory
from repro.dap import make_dap_server_state
from repro.dap.interface import DapServerState
from repro.net.message import Message, reply
from repro.net.network import Network
from repro.sim.process import Process

READ_CONFIG = "ARES-READ-CONFIG"
WRITE_CONFIG = "ARES-WRITE-CONFIG"
#: GC phase, round 1: the reconfigurer asks a quorum of the *new* (finalized)
#: configuration to acknowledge the finalized record before anything is
#: discarded -- the paper's "quorum of the new configuration is established"
#: precondition for pruning.
CONFIRM_CONFIG = "ARES-CONFIRM-CONFIG"
#: GC phase, round 2: reclaim a retired configuration's server state, leaving
#: a tombstone redirect to the finalized successor.
RETIRE_CONFIG = "ARES-RETIRE-CONFIG"

#: Kinds the server answers itself (``nextC``, retirement, Paxos); any other
#: kind belongs to the DAP state of the configuration the message names.
_CONTROL_KINDS = frozenset({READ_CONFIG, WRITE_CONFIG, CONFIRM_CONFIG,
                            RETIRE_CONFIG, PREPARE, ACCEPT, DECIDED})

#: Factory signature for per-configuration DAP server state.
DapStateFactory = Callable[[Configuration, ProcessId], DapServerState]


class AresServer(Process):
    """A server participating in the ARES service.

    Parameters
    ----------
    pid, network:
        Standard process identity and network attachment.
    directory:
        The configuration directory used to resolve configuration ids that
        arrive in messages.
    dap_state_factory:
        Factory building the per-configuration DAP state; the deployment
        passes :class:`~repro.core.ares_treas.TreasTransferServerState`'s
        factory when direct state transfer (Section 5) is enabled.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        directory: ConfigurationDirectory,
        dap_state_factory: Optional[DapStateFactory] = None,
    ) -> None:
        super().__init__(pid, network)
        self.directory = directory
        self.dap_state_factory = dap_state_factory or make_dap_server_state
        #: nextC per configuration this server belongs to (⊥ encoded as None).
        self.next_config: Dict[ConfigId, Optional[ConfigRecord]] = {}
        #: DAP server state per configuration.
        self.dap_states: Dict[ConfigId, DapServerState] = {}
        #: Paxos acceptor state per consensus instance (keyed by the
        #: configuration whose successor the instance decides).
        self.acceptors: Dict[ConfigId, PaxosAcceptorState] = {}
        #: Tombstones for retired configurations: the finalized successor's
        #: record and its absolute GL index, replacing the reclaimed
        #: ``nextC``/DAP/acceptor state.
        self.retired: Dict[ConfigId, Tuple[ConfigRecord, int]] = {}
        #: Finalized records confirmed at this server by the GC phase's
        #: CONFIRM-CONFIG round (this server as a *successor* member).
        self.confirmed_final: Dict[ConfigId, ConfigRecord] = {}
        #: Retirement accounting: configurations reclaimed here and the
        #: object-data bytes their DAP states held when reclaimed.
        self.configs_retired = 0
        self.bytes_reclaimed = 0
        #: Admission governor under injected resource pressure
        #: (:class:`~repro.chaos.resources.ResourceGovernor`); ``None`` --
        #: the default, a single attribute test on the dispatch path --
        #: until a resource fault attaches one.
        self.governor = None

    # -------------------------------------------------------------- dispatch
    def on_message(self, src: ProcessId, message: Message) -> None:
        governor = self.governor
        if governor is not None and governor.rules:
            reason = governor.admit(message)
            if reason is not None:
                # Refuse loudly: an explicit NACK (instead of a silent drop)
                # lets the client's quorum gather fail fast and retry, the
                # gray-failure behaviour this taxonomy models.
                if self.metrics is not None:
                    self.metrics.inc("srv_nacks")
                if message.request_id is not None:
                    self.send(src, reply(message, kind="SRV-NACK",
                                         nack=True, error=reason))
                return
        kind = message.kind
        if kind not in _CONTROL_KINDS:
            # Everything else is addressed to a DAP state -- half of every
            # operation's messages, so it is routed with one set probe.
            self._on_dap(src, message)
        elif kind == READ_CONFIG:
            self._on_read_config(src, message)
        elif kind == WRITE_CONFIG:
            self._on_write_config(src, message)
        elif kind == CONFIRM_CONFIG:
            self._on_confirm_config(src, message)
        elif kind == RETIRE_CONFIG:
            self._on_retire_config(src, message)
        else:
            self._on_paxos(src, message)

    # ----------------------------------------------------- nextC (Algorithm 6)
    def _on_read_config(self, src: ProcessId, message: Message) -> None:
        cfg_id: ConfigId = message.config_id
        tombstone = self.retired.get(cfg_id)
        if tombstone is not None:
            # Redirect: the finalized successor plus its GL index, so a
            # stale client re-bases its whole sequence in one hop instead of
            # walking reclaimed links.
            record, index = tombstone
            self.send(src, reply(message, kind="ARES-NEXT-CONFIG",
                                 metadata_fields=3, record=record, jump=index))
            return
        record = self.next_config.get(cfg_id)
        self.send(src, reply(message, kind="ARES-NEXT-CONFIG", metadata_fields=2,
                             record=record))

    def _on_write_config(self, src: ProcessId, message: Message) -> None:
        cfg_id: ConfigId = message.config_id
        incoming: ConfigRecord = message["record"]
        if cfg_id in self.retired:
            # The configuration is gone and its tombstone already points at
            # a finalized record at or past the incoming link; ack benignly
            # so in-flight put-config rounds complete without stalling.
            self.send(src, reply(message, kind="ARES-CONFIG-ACK"))
            return
        current = self.next_config.get(cfg_id)
        if current is None or current.status is Status.PENDING:
            self.next_config[cfg_id] = incoming
        self.send(src, reply(message, kind="ARES-CONFIG-ACK"))

    # ----------------------------------------------------------- retirement
    def _on_confirm_config(self, src: ProcessId, message: Message) -> None:
        """Acknowledge (as a successor member) that a record is finalized.

        The GC phase only retires predecessors once a quorum of the new
        configuration acked this round, so the finalized record is durable
        across that quorum before any redirect points at it.
        """
        record: ConfigRecord = message["record"]
        self.confirmed_final[message.config_id] = record
        self.send(src, reply(message, kind="ARES-CONFIRM-ACK"))

    def _on_retire_config(self, src: ProcessId, message: Message) -> None:
        """Reclaim a retired configuration's state, keeping a tombstone."""
        cfg_id: ConfigId = message.config_id
        successor: ConfigRecord = message["record"]
        index: int = message["index"]
        existing = self.retired.get(cfg_id)
        if existing is None or existing[1] < index:
            self.retired[cfg_id] = (successor, index)
        if existing is None:
            state = self.dap_states.pop(cfg_id, None)
            reclaimed = state.storage_data_bytes() if state is not None else 0
            self.acceptors.pop(cfg_id, None)
            self.next_config.pop(cfg_id, None)
            self.configs_retired += 1
            self.bytes_reclaimed += reclaimed
            if self.metrics is not None:
                if reclaimed:
                    self.metrics.inc("bytes_reclaimed", reclaimed)
        self.send(src, reply(message, kind="ARES-RETIRE-ACK"))

    def _refuse_retired(self, src: ProcessId, message: Message) -> None:
        """NACK traffic addressed to a retired configuration (fail fast)."""
        if self.metrics is not None:
            self.metrics.inc("srv_nacks")
        if message.request_id is not None:
            self.send(src, reply(message, kind="SRV-NACK", nack=True,
                                 error=RETIRED_CONFIG_REASON))

    # ---------------------------------------------------------------- Paxos
    def _on_paxos(self, src: ProcessId, message: Message) -> None:
        instance: ConfigId = message["instance"]
        if instance in self.retired:
            # The instance's configuration is retired; never resurrect its
            # acceptor state (the decision it reached is finalized history).
            self._refuse_retired(src, message)
            return
        acceptor = self.acceptors.setdefault(instance, PaxosAcceptorState())
        response = acceptor.handle(message)
        if response is not None and message.kind != DECIDED:
            self.send(src, response)

    # ------------------------------------------------------------------ DAP
    def _on_dap(self, src: ProcessId, message: Message) -> None:
        cfg_id = message.config_id
        # An instantiated state is never retired (retirement pops it and
        # dap_state_for never resurrects one), so a hit needs no other probe.
        state = self.dap_states.get(cfg_id)
        if state is None:
            if cfg_id is None:
                return
            if cfg_id in self.retired:
                self._refuse_retired(src, message)
                return
            state = self.dap_state_for(cfg_id)
            if state is None:
                return
        response = state.handle(src, message)
        if response is not None:
            self.send(src, response)

    def dap_state_for(self, cfg_id: ConfigId) -> Optional[DapServerState]:
        """The DAP state for ``cfg_id``, created lazily if this server is a member.

        Retired configurations never resurrect: once reclaimed, the answer
        is ``None`` regardless of membership.
        """
        state = self.dap_states.get(cfg_id)
        if state is not None:
            return state
        if cfg_id in self.retired:
            return None
        configuration = self.directory.maybe_get(cfg_id)
        if configuration is None or self.pid not in configuration.servers:
            return None
        state = self.dap_state_factory(configuration, self.pid)
        state.bind(self)
        self.dap_states[cfg_id] = state
        return state

    # ------------------------------------------------------------ accounting
    def storage_data_bytes(self) -> int:
        """Object-data bytes stored across all configurations at this server.

        Sums the instantiated DAP states.  Members this server never served
        hold exactly the lazily-created initial state -- Φ(v0) over the
        zero-byte bottom value -- so they contribute 0 without being
        materialised (accounting must never allocate protocol state: the
        resource governor reads this figure on the admission hot path).
        The invariant "a fresh DAP state stores 0 data bytes" is pinned by
        the retirement test suite for every DAP kind.
        """
        return sum(state.storage_data_bytes() for state in self.dap_states.values())

    def member_configurations(self) -> List[ConfigId]:
        """Configuration ids this server is a *member* of (truthful view).

        Consults the directory rather than the lazily-instantiated DAP
        states, so configurations this server belongs to but never served
        are counted too; retired configurations are excluded (their state
        has been reclaimed).  Registration order.
        """
        return [
            configuration.cfg_id
            for configuration in self.directory
            if self.pid in configuration.servers
            and configuration.cfg_id not in self.retired
        ]

    def instantiated_configurations(self) -> List[ConfigId]:
        """Configuration ids for which DAP state actually exists here.

        The lazy-instantiation view :meth:`member_configurations` used to
        (mis)report; kept for the laziness tests and memory diagnostics.
        """
        return list(self.dap_states)
