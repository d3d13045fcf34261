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
member never changes).  A reconfigurer's state-transfer query carries the
successor record as a ``fence``, installed by the same rule before the query
is answered.  ``nextC`` is never read by a round of its own.  It rides on
every reply to a DAP's first-round query or ``put-data`` (for LDR: the
directory query and ``put-metadata``), which is how readers and writers
discover the sequence and, after their ``put-data``, every reconfiguration
whose transfer could have missed the value (see :mod:`repro.core.client`);
and on every reply to a Paxos ``PREPARE``, which is how a reconfigurer
discovers it (see :mod:`repro.core.reconfig`).

Retirement
----------
Configuration retirement (the GC phase of
:class:`~repro.core.reconfig.ReconfigOpsMixin`) reclaims everything above:
a ``RETIRE-CONFIG`` message -- sent only after finalize-config made the
finalized successor durable -- makes the server drop the
configuration's DAP state, its Paxos acceptor state and its ``nextC``
record, keeping a compact **tombstone**: the finalized successor's record
plus its absolute GL index.  DAP and consensus traffic for a retired
configuration is refused with an explicit NACK carrying the tombstone, so
quorum gathers fail fast rather than stall, and a client arriving with a
stale ``cseq`` re-bases on the tombstone in one hop instead of replaying the
chain.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import RETIRED_CONFIG_REASON
from repro.common.ids import ConfigId, ProcessId
from repro.config.configuration import Configuration
from repro.config.sequence import ConfigRecord, Status
from repro.consensus.paxos import ACCEPT, PREPARE, PaxosAcceptorState
from repro.core.directory import ConfigurationDirectory
from repro.dap import abd, ldr, make_dap_server_state, treas
from repro.dap.interface import DapServerState
from repro.net.message import METADATA_FIELD_BYTES, Message, reply
from repro.net.network import Network
from repro.sim.process import Process

WRITE_CONFIG = "ARES-WRITE-CONFIG"
#: GC phase: reclaim a retired configuration's server state, leaving a
#: tombstone redirect to the finalized successor.
RETIRE_CONFIG = "ARES-RETIRE-CONFIG"

#: Kinds the server answers itself (``nextC``, retirement, Paxos); any other
#: kind belongs to the DAP state of the configuration the message names.
_CONTROL_KINDS = frozenset({WRITE_CONFIG, RETIRE_CONFIG, PREPARE, ACCEPT})

#: DAP requests whose replies carry the server's ``nextC`` record for the
#: configuration (under ``"next"``): the first-round queries, so readers and
#: writers discover the sequence without a discovery round of their own, and
#: ``put-data`` (LDR's ``put-metadata``), so they learn of any
#: reconfiguration whose fenced transfer this server answered before the
#: value.  Every one of them goes to the configuration's consensus quorum
#: system.  Replies to Paxos ``PREPARE`` carry it too.  Charged as two
#: metadata fields.
_DISCOVERY_KINDS = frozenset({abd.QUERY_TAG, abd.QUERY_DATA, abd.WRITE,
                              treas.QUERY_TAG, treas.QUERY_LIST, treas.PUT_DATA,
                              ldr.QUERY_TAG_LOCATION, ldr.PUT_METADATA})
_NEXT_BYTES = 2 * METADATA_FIELD_BYTES

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
        elif kind == WRITE_CONFIG:
            self._on_write_config(src, message)
        elif kind == RETIRE_CONFIG:
            self._on_retire_config(src, message)
        else:
            self._on_paxos(src, message)

    # ----------------------------------------------------- nextC (Algorithm 6)
    def _on_write_config(self, src: ProcessId, message: Message) -> None:
        cfg_id: ConfigId = message.config_id
        # A retired configuration's tombstone already points at a finalized
        # record at or past the incoming link; ack benignly so in-flight
        # put-config rounds complete without stalling.
        if cfg_id not in self.retired:
            self._install_next(cfg_id, message["record"])
        self.send(src, reply(message, kind="ARES-CONFIG-ACK"))

    def _install_next(self, cfg_id: ConfigId, incoming: ConfigRecord) -> None:
        """Algorithm 6's rule: ``nextC`` takes ``incoming`` unless it is finalized."""
        current = self.next_config.get(cfg_id)
        if current is None or current.status is Status.PENDING:
            self.next_config[cfg_id] = incoming

    # ----------------------------------------------------------- retirement
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

    def _refuse_retired(self, src: ProcessId, message: Message,
                        tombstone: Tuple[ConfigRecord, int]) -> None:
        """NACK traffic addressed to a retired configuration (fail fast).

        The NACK carries the tombstone, so the refused client re-bases on
        the finalized successor in the same hop.
        """
        if self.metrics is not None:
            self.metrics.inc("srv_nacks")
        if message.request_id is not None:
            record, index = tombstone
            self.send(src, reply(message, kind="SRV-NACK", metadata_fields=3,
                                 nack=True, error=RETIRED_CONFIG_REASON,
                                 record=record, jump=index))

    # ---------------------------------------------------------------- Paxos
    def _on_paxos(self, src: ProcessId, message: Message) -> None:
        instance: ConfigId = message["instance"]
        tombstone = self.retired.get(instance)
        if tombstone is not None:
            # The instance's configuration is retired; never resurrect its
            # acceptor state (the decision it reached is finalized history).
            self._refuse_retired(src, message, tombstone)
            return
        acceptor = self.acceptors.setdefault(instance, PaxosAcceptorState())
        response = acceptor.handle(message)
        if message.kind == PREPARE:
            # A decided instance whose decision was put-config'd names it
            # here, so the proposer walks on instead of deciding.
            response.body["next"] = self.next_config.get(instance)
            response.metadata_bytes += _NEXT_BYTES
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
            tombstone = self.retired.get(cfg_id)
            if tombstone is not None:
                self._refuse_retired(src, message, tombstone)
                return
            state = self.dap_state_for(cfg_id)
            if state is None:
                return
        fence = message.body.get("fence")
        if fence is not None:
            # A reconfigurer's transfer query: the successor is installed
            # before the query is answered, so a put-data this server
            # handles later reports it (docs/ARCHITECTURE.md, "The transfer
            # fence").
            self._install_next(cfg_id, fence)
        response = state.handle(src, message)
        if response is not None:
            if message.kind in _DISCOVERY_KINDS:
                response.body["next"] = self.next_config.get(cfg_id)
                response.metadata_bytes += _NEXT_BYTES
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
