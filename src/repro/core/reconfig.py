"""The ARES reconfiguration client (Algorithm 5).

A ``reconfig(c)`` operation consists of four consecutively executed phases:

``read-config``
    Refresh the local configuration sequence (Algorithm 4).
``add-config``
    Propose ``c`` to the consensus instance of the *last* configuration in
    the sequence; whatever configuration ``d`` the instance decides is
    appended with status ``P`` and propagated to the previous configuration's
    servers with ``put-config`` (if ``d ≠ c`` the reconfigurer adopts ``d``
    and its own proposal is simply dropped -- at most one configuration is
    installed per index).
``update-config``
    Transfer the object state: gather the maximum tag-value pair from every
    configuration between the last finalized index ``µ`` and the new index
    ``ν`` with ``get-data`` and ``put-data`` it into the new configuration.
    (The optimised direct server-to-server transfer of Section 5 overrides
    exactly this phase; see :mod:`repro.core.ares_treas`.)
``finalize-config``
    Mark the new configuration ``F`` and propagate the finalized record to a
    quorum of the previous configuration.

When garbage collection is enabled (``gc=True``) a fifth phase follows:

``gc-config``
    Retire the configurations that precede the new last-finalized index
    ``µ``.  First a ``CONFIRM-CONFIG`` round establishes the finalized
    record at a quorum of the *new* configuration (so a redirect target is
    durable before anything is discarded); then each stale configuration's
    servers receive ``RETIRE-CONFIG`` -- best-effort, per configuration --
    telling them to reclaim DAP/acceptor/``nextC`` state behind a tombstone
    pointing at ``µ``; finally the local sequence prunes its dead prefix
    (:meth:`~repro.config.sequence.ConfigSequence.prune`).  GC is purely an
    optimisation: with it disabled every execution is byte-identical to the
    pre-GC protocol, which the golden-signature suite pins.

Per-object batches
------------------
The four phases are implemented by :class:`ReconfigOpsMixin`, parameterised
over the register's local state (its ``cseq`` and a ``configuration ->
DapClient`` resolver) exactly like the read/write operations in
:class:`~repro.core.client.RegisterOpsMixin`.  The single-register
:class:`AresReconfigurer` binds them to its one ``cseq``; the sharded
store's :class:`~repro.store.reconfigurer.ShardReconfigurer` binds them to
one ``cseq`` *per object key* and runs whole shards' worth of per-key
reconfigurations concurrently -- both drive the **same** Algorithm 5
implementation.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import QuorumRefusedError, QuorumUnavailableError
from repro.common.ids import ProcessId
from repro.common.tags import BOTTOM_TAG, TagValue
from repro.common.values import BOTTOM_VALUE
from repro.config.configuration import Configuration
from repro.config.sequence import ConfigRecord, ConfigSequence, Status
from repro.consensus.paxos import PaxosProposer
from repro.core.directory import ConfigurationDirectory
from repro.core.server import CONFIRM_CONFIG, RETIRE_CONFIG
from repro.core.traversal import RegisterState, SequenceTraversalMixin
from repro.net.message import request
from repro.net.network import Network
from repro.sim.process import Process
from repro.spec.history import History, OperationType
from repro.spec.properties import DapRecorder


class ReconfigOpsMixin(SequenceTraversalMixin):
    """The Algorithm 5 reconfiguration phases, shared by every reconfigurer.

    Hosts must be :class:`~repro.sim.process.Process` subclasses with a
    ``history`` attribute (``None`` disables recording) and a ``directory``.
    Every phase is parameterised over the target register's local state --
    its configuration sequence ``cseq`` and a ``configuration -> DapClient``
    resolver -- so the single-register :class:`AresReconfigurer` (one
    ``cseq``) and the store's per-shard
    :class:`~repro.store.reconfigurer.ShardReconfigurer` (one ``cseq`` per
    object key) run one implementation.
    """

    #: Extra latency added to every consensus decision (the ``T(CN)`` knob).
    consensus_delay: float = 0.0
    #: Number of reconfig operations this client completed.
    completed_reconfigs: int = 0
    #: Whether the gc-config phase runs after finalize-config.
    gc_enabled: bool = False
    #: Number of configurations this client retired (gc-config rounds acked).
    configs_retired: int = 0
    #: Cap on retirement-refusal restarts of one reconfig operation.
    _MAX_RETIREMENT_RESTARTS = 16

    def _register_reconfig(self, cseq: ConfigSequence, dap_for, proposed: Configuration,
                           key: Optional[str] = None):
        """Coroutine: run all phases against one register's sequence.

        Returns the configuration that was actually installed at the index
        the proposal targeted (the decided one, which may differ from
        ``proposed`` under contention).  ``key`` tags the history record for
        keyed (store) registers.

        A phase whose quorum gather is refused purely because a contending
        reconfigurer retired the configuration underneath it restarts the
        operation from ``read-config``: the retired servers' tombstones make
        the next traversal jump straight past the reclaimed prefix.
        """
        record = None
        if self.history is not None:
            record = self.history.invoke(self.pid, OperationType.RECONFIG, self.now,
                                         value_label=str(proposed.cfg_id), key=key)
        self.directory.register(proposed)
        metrics = self.metrics
        started = self.now

        installed = yield from self._restart_on_retirement(
            self._reconfig_phases, (cseq, dap_for, proposed, metrics, started),
            self._MAX_RETIREMENT_RESTARTS, "reconfig_retirement_restarts")

        # Phase 5: gc-config (optional).
        if self.gc_enabled:
            phase_started = self.now
            yield from self._gc_config(cseq)
            if metrics is not None:
                metrics.observe("reconfig_phase:gc-config", self.now - phase_started)

        if metrics is not None:
            metrics.observe("reconfig_duration", self.now - started)
        self.completed_reconfigs += 1
        if record is not None:
            self.history.respond(record, self.now, config_id=installed.cfg_id)
        return installed

    def _reconfig_phases(self, cseq: ConfigSequence, dap_for,
                         proposed: Configuration, metrics, started):
        """Coroutine: one attempt at phases 1-4; returns the installed configuration."""
        # Phase 1: read-config.
        yield from self.read_config(cseq)
        if metrics is not None:
            metrics.observe("reconfig_phase:read-config", self.now - started)
            phase_started = self.now

        # Phase 2: add-config.
        installed, index = yield from self._add_config(cseq, proposed)
        if metrics is not None:
            metrics.observe("reconfig_phase:add-config", self.now - phase_started)
            phase_started = self.now

        # Phase 3: update-config.
        yield from self._update_config(cseq, dap_for)
        if metrics is not None:
            metrics.observe("reconfig_phase:update-config", self.now - phase_started)
            phase_started = self.now

        # Phase 4: finalize-config.
        yield from self._finalize_config(cseq, index)
        if metrics is not None:
            metrics.observe("reconfig_phase:finalize-config", self.now - phase_started)
        return installed

    # ----------------------------------------------------------- add-config
    def _add_config(self, cseq: ConfigSequence, proposed: Configuration):
        """Coroutine: decide the successor of the last configuration.

        Returns ``(installed, index)``: the decided configuration and the
        absolute sequence index it occupies.  The decided value may already
        sit *anywhere* in the sequence -- a contending reconfigurer can have
        propagated it (and even successors of it) between our propose and
        the decision callback -- so membership is checked across the whole
        retained window, not just against the last entry; appending only
        when genuinely absent.  (Comparing against ``cseq.last`` alone made
        ``append`` raise ``ConfigurationError`` in exactly that window.)
        """
        last = cseq.last.config
        proposer = PaxosProposer(self, last, instance=last.cfg_id,
                                 extra_decision_delay=self.consensus_delay)
        decision = yield from proposer.propose(proposed)
        installed: Configuration = decision.value
        self.directory.register(installed)
        existing = cseq.index_of(installed.cfg_id)
        if existing is not None:
            # A concurrent reconfigurer already propagated the decision and we
            # observed it (at whatever index) during read-config; nothing to
            # append -- propagate the record we already hold.
            index = existing
            record = cseq[existing]
        else:
            record = ConfigRecord(installed, Status.PENDING)
            index = cseq.append(record)
        yield from self.put_config(last, record)
        return installed, index

    # -------------------------------------------------------- update-config
    def _update_config(self, cseq: ConfigSequence, dap_for):
        """Coroutine: transfer the latest tag-value pair into the new configuration.

        The baseline ARES transfer: the reconfigurer itself reads the value
        (``get-data``) from every configuration in ``[µ, ν]`` and writes it
        (``put-data``) to the last one -- i.e. object data flows through the
        reconfiguration client.  Subclasses override exactly this method to
        replace the state transfer (the Section 5 direct server-to-server
        path of :class:`~repro.core.ares_treas.DirectTransferReconfigurer`).
        """
        mu = cseq.mu
        nu = cseq.nu
        best = TagValue(tag=BOTTOM_TAG, value=BOTTOM_VALUE)
        for index in range(mu, nu + 1):
            configuration = cseq.config_at(index)
            pair = yield from dap_for(configuration).get_data()
            if pair.tag > best.tag:
                best = pair
        target = cseq.config_at(nu)
        yield from dap_for(target).put_data(best)
        return best

    # ------------------------------------------------------ finalize-config
    def _finalize_config(self, cseq: ConfigSequence, index: int):
        """Coroutine: finalize the configuration at ``index`` and propagate the record.

        ``index`` is the index add-config actually installed.  Recomputing
        ``cseq.nu`` at phase-4 time instead finalizes the wrong entry when a
        contending reconfigurer extended the sequence between our
        update-config and finalize-config -- it would mark the
        *contender's* configuration ``F`` before its state transfer
        completed.
        """
        cseq.finalize(index)
        finalized = cseq[index]
        previous_index = index - 1 if index > 0 else 0
        if previous_index < cseq.base:
            # The predecessor was pruned (retired): there is no quorum left
            # to propagate to, and the tombstones already redirect past it.
            return finalized
        previous = cseq.config_at(previous_index)
        yield from self.put_config(previous, finalized)
        return finalized

    # ------------------------------------------------------------ gc-config
    def _gc_config(self, cseq: ConfigSequence):
        """Coroutine: retire every configuration strictly before ``µ``.

        Two rounds.  First, ``CONFIRM-CONFIG`` establishes the finalized
        record at a quorum of the new configuration -- the redirect target
        must be durable at a live quorum before any predecessor forgets it.
        Second, each stale configuration's servers receive ``RETIRE-CONFIG``
        (reclaim state, keep a tombstone to ``µ``); this round is
        best-effort per configuration: one that already lost too many
        servers simply stays un-reclaimed, which is safe because traversal
        never revisits entries before ``µ``.  Finally the local sequence
        prunes its dead prefix.  Returns the number of configurations whose
        retirement quorum acked.
        """
        mu = cseq.mu
        stale = cseq.records_before(mu)
        if not stale:
            return 0
        final_record = cseq[mu]
        target = final_record.config
        yield self.broadcast_and_gather(
            target.servers,
            lambda rid: request(CONFIRM_CONFIG, rid, config_id=target.cfg_id,
                                metadata_fields=2, record=final_record),
            threshold=target.consensus_quorums.quorum_size,
            label="confirm-config",
        )
        retired = 0
        for _, entry in stale:
            old = entry.config
            try:
                yield self.broadcast_and_gather(
                    old.servers,
                    lambda rid, old=old: request(
                        RETIRE_CONFIG, rid, config_id=old.cfg_id,
                        metadata_fields=3, record=final_record, index=mu),
                    threshold=old.consensus_quorums.quorum_size,
                    label="retire-config",
                )
            except (QuorumRefusedError, QuorumUnavailableError):
                continue
            retired += 1
            if self.metrics is not None:
                self.metrics.inc("configs_retired")
        self.configs_retired += retired
        cseq.prune(mu)
        return retired


class AresReconfigurer(Process, ReconfigOpsMixin):
    """A reconfiguration client for a single ARES register.

    Parameters
    ----------
    consensus_delay:
        Extra latency added to every consensus decision, modelling the
        ``T(CN)`` term of the latency analysis (the paper treats consensus as
        an external service with its own delay).
    gc:
        Run the gc-config phase after every finalize (retire + prune the
        configurations before ``µ``).  Off by default: with ``gc=False``
        executions are byte-identical to the pre-retirement protocol.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        directory: ConfigurationDirectory,
        initial_configuration: Configuration,
        history: Optional[History] = None,
        dap_recorder: Optional[DapRecorder] = None,
        consensus_delay: float = 0.0,
        gc: bool = False,
    ) -> None:
        super().__init__(pid, network)
        self.directory = directory
        self.history = history
        self.dap_recorder = dap_recorder
        self.consensus_delay = consensus_delay
        self.gc_enabled = gc
        directory.register(initial_configuration)
        self._state = RegisterState(self, initial_configuration)
        self.cseq = self._state.cseq
        self.completed_reconfigs = 0

    # ---------------------------------------------------------------- reconfig
    def reconfig(self, proposed: Configuration):
        """Coroutine: attempt to append ``proposed`` to the global sequence.

        Returns the configuration that was actually installed (the decided
        one, which may differ from ``proposed`` under contention).
        """
        return self._register_reconfig(self.cseq, self._state.dap_for, proposed)
