"""The ARES reconfiguration client (Algorithm 5).

A ``reconfig(c)`` operation consists of three consecutively executed phases:

``add-config``
    Propose ``c`` to the consensus instance of the *last* configuration in
    the local sequence.  The walk rides the proposal: every Paxos promise
    carries its server's ``nextC`` record, so a promise quorum naming a link
    sends the reconfigurer down it (``put-config`` backwards, as readers and
    writers do) and it proposes again at the new last entry.  Algorithm 5's
    separate ``read-config`` round is gone (``docs/ARCHITECTURE.md``, "Fused
    discovery").  Whatever configuration ``d`` the instance decides is
    appended with status ``P`` (if ``d ≠ c`` the reconfigurer adopts ``d``
    and its own proposal is simply dropped -- at most one configuration is
    installed per index).  add-config puts no config of its own: the fenced
    transfer query on the previous configuration installs the same record
    one round later.  A configuration the sequence already holds is never
    proposed again.
``update-config``
    Transfer the object state: gather the maximum tag-value pair from every
    configuration from the last finalized index ``µ`` up to, but not
    including, the new index ``ν`` with ``get-data`` and ``put-data`` it
    into the new configuration.  Each ``get-data`` on ``c_i``, ``i < ν``,
    carries ``cseq[i+1]`` as a fence that its servers install as ``nextC``
    before answering, which is what lets readers and writers drop their
    trailing ``read-config`` (``docs/ARCHITECTURE.md``, "The transfer
    fence").  ``c_ν`` itself is not queried: its servers already keep the
    larger of any tag put into it directly and the one transferred
    (``docs/ARCHITECTURE.md``, "Why the target needs no transfer query").
    A steady-state reconfig therefore runs five quorum rounds: Paxos
    prepare and accept, the fenced ``get-data``, ``put-data`` and
    finalize's ``put-config``.  (The optimised direct server-to-server
    transfer of Section 5 overrides exactly this phase; see
    :mod:`repro.core.ares_treas`.  Both walk ``c_µ..c_{ν-1}`` with
    :meth:`ReconfigOpsMixin._transfer_queries`.)
``finalize-config``
    Mark the new configuration ``F`` and propagate the finalized record to a
    quorum of the previous configuration.

A round refused because a contending reconfigurer retired its
configuration re-bases the sequence on the tombstone the refusal carries
and goes on.  If the retired configuration is the one this operation
installed, a contender already finalized past it and the operation ends.

When garbage collection is enabled (``gc=True``) a fourth phase follows:

``gc-config``
    Retire the configurations that precede the new last-finalized index
    ``µ``.  Each stale configuration's servers receive ``RETIRE-CONFIG`` --
    best-effort, per configuration -- telling them to reclaim
    DAP/acceptor/``nextC`` state behind a tombstone pointing at ``µ``;
    finally the local sequence prunes its dead prefix
    (:meth:`~repro.config.sequence.ConfigSequence.prune`).  GC is purely an
    optimisation: with it disabled every execution is byte-identical to the
    pre-GC protocol, which the golden-signature suite pins.

Per-object batches
------------------
The phases are implemented by :class:`ReconfigOpsMixin`, parameterised
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
from repro.common.tags import max_tag_value
from repro.config.configuration import Configuration
from repro.config.sequence import ConfigRecord, ConfigSequence, Status
from repro.consensus.paxos import PaxosProposer
from repro.core.directory import ConfigurationDirectory
from repro.core.server import RETIRE_CONFIG
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

    def _register_reconfig(self, cseq: ConfigSequence, dap_for, proposed: Configuration,
                           key: Optional[str] = None):
        """Coroutine: run all phases against one register's sequence.

        Returns the configuration that was actually installed at the index
        the proposal targeted (the decided one, which may differ from
        ``proposed`` under contention).  ``key`` tags the history record for
        keyed (store) registers.
        """
        record = None
        if self.history is not None:
            record = self.history.invoke(self.pid, OperationType.RECONFIG, self.now,
                                         value_label=str(proposed.cfg_id), key=key)
        self.directory.register(proposed)
        metrics = self.metrics
        started = phase_started = self.now

        installed, index = yield from self._add_config(cseq, proposed)
        if metrics is not None:
            metrics.observe("reconfig_phase:add-config", self.now - phase_started)
            phase_started = self.now

        yield from self._update_config(cseq, dap_for)
        if metrics is not None:
            metrics.observe("reconfig_phase:update-config", self.now - phase_started)
            phase_started = self.now

        yield from self._finalize_config(cseq, index)
        if metrics is not None:
            metrics.observe("reconfig_phase:finalize-config", self.now - phase_started)

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

    # ----------------------------------------------------------- add-config
    def _add_config(self, cseq: ConfigSequence, proposed: Configuration):
        """Coroutine: decide the successor of the last configuration.

        Returns ``(installed, index)``: the decided configuration and the
        absolute sequence index it occupies.  The proposal walks: a promise
        quorum naming a link moves it one entry on (:meth:`_follow_link`),
        and a refusal for retirement re-bases it on the tombstone
        (:meth:`_rebase`).  ``proposed`` is never offered to a second
        instance once the sequence holds it, nor after a retired instance
        refused a round in which it may have been accepted: either could
        decide it at a second GL index.  In the second case the tombstone's
        target stands in for the decision.

        The decision is not ``put-config`` into the instance's
        configuration: update-config's fenced transfer query installs the
        same record there one round later.  Until then only reconfigurers
        need it, and a stale one's ``PREPARE`` finds it as an accepted
        value and decides it again (``docs/ARCHITECTURE.md``, "Why it is
        safe for reconfigurers").

        The decided value may already sit *anywhere* in the sequence: the
        store's concurrent per-key reconfigurations share one ``cseq``, and
        a sibling can have appended it (and even successors of it) while
        this proposal was in flight.  So membership is checked across the
        whole retained window, appending only when genuinely absent.
        """
        while True:
            index = cseq.index_of(proposed.cfg_id)
            if index is not None:
                return proposed, index
            index = cseq.nu
            last = cseq.last.config
            proposer = PaxosProposer(self, last, instance=last.cfg_id,
                                     extra_decision_delay=self.consensus_delay)
            try:
                outcome = yield from proposer.propose(proposed)
            except QuorumRefusedError as error:
                index = self._rebase(cseq, index, last, error)
                if proposer.offered:
                    return cseq.last.config, index
                continue
            if isinstance(outcome, ConfigRecord):
                yield from self._follow_link(cseq, index, outcome)
                continue
            installed: Configuration = outcome
            self.directory.register(installed)
            existing = cseq.index_of(installed.cfg_id)
            if existing is not None:
                return installed, existing
            return installed, cseq.append(ConfigRecord(installed, Status.PENDING))

    # -------------------------------------------------------- update-config
    def _update_config(self, cseq: ConfigSequence, dap_for):
        """Coroutine: transfer the latest tag-value pair into the new configuration.

        The baseline ARES transfer: the reconfigurer itself reads the value
        (``get-data``) from every configuration in ``c_µ..c_{ν-1}`` and
        writes it (``put-data``) to ``c_ν`` -- i.e. object data flows
        through the reconfiguration client.  If a contender finalized
        ``c_ν`` while the walk was in flight, there is nothing left to
        transfer and the method returns.  Subclasses override exactly this
        method to replace the state transfer (the Section 5 direct
        server-to-server path of
        :class:`~repro.core.ares_treas.DirectTransferReconfigurer`).
        """
        nu = cseq.nu
        pairs = yield from self._transfer_queries(
            cseq, dap_for, lambda dap, fence: dap.get_data(fence=fence))
        if pairs is None:
            return None
        best = max_tag_value([pair for _, pair in pairs])
        target = cseq.config_at(nu)
        try:
            yield from dap_for(target).put_data(best)
        except QuorumRefusedError as error:
            # A contender finalized past the target and retired it.
            self._rebase(cseq, nu, target, error)
        return best

    def _transfer_queries(self, cseq: ConfigSequence, dap_for, query):
        """Coroutine: the fenced transfer query on every entry of ``c_µ..c_{ν-1}``.

        ``query(dap, fence)`` runs the DAP client's query (``get-data`` or
        ``get-tag``) under ``fence``.  Returns ``(configuration, result)``
        pairs in sequence order.  Each query carries its entry's successor
        record as the fence.  The target ``c_ν`` is not queried, unless it
        is ``c_µ`` itself (then its query carries no fence, since its
        successor is not what this transfer fills).  A query refused for
        retirement re-bases the sequence on the tombstone (:meth:`_rebase`)
        and the walk resumes there; if that is past the walk's last entry,
        a contender finalized the target (or past it) and the walk returns
        ``None``.
        """
        nu = cseq.nu
        results = []
        index = cseq.mu
        last = max(index, nu - 1)
        while index <= last:
            configuration = cseq.config_at(index)
            fence = cseq[index + 1] if index < nu else None
            try:
                result = yield from query(dap_for(configuration), fence)
            except QuorumRefusedError as error:
                index = self._rebase(cseq, index, configuration, error)
                if index > last:
                    return None
                continue
            results.append((configuration, result))
            index += 1
        return results

    # ------------------------------------------------------ finalize-config
    def _finalize_config(self, cseq: ConfigSequence, index: int):
        """Coroutine: finalize the configuration at ``index`` and propagate the record.

        ``index`` is the index add-config actually installed.  Recomputing
        ``cseq.nu`` at phase-4 time instead finalizes the wrong entry when a
        contending reconfigurer extended the sequence between our
        update-config and finalize-config -- it would mark the
        *contender's* configuration ``F`` before its state transfer
        completed.  If update-config re-based past ``index``, a contender
        finalized past it and retired it: there is nothing left to do.
        """
        if index < cseq.base:
            return None
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

        Each stale configuration's servers receive ``RETIRE-CONFIG``
        (reclaim state, keep a tombstone to ``µ``).  No round at the new
        configuration precedes it: update-config's ``put-data`` and
        finalize-config's ``put-config`` already made the value and the
        finalized record durable, and every tombstone carries the record
        itself (``docs/ARCHITECTURE.md``, "Why retirement needs no
        confirmation round").  The round is best-effort per configuration:
        one that already lost too many servers simply stays un-reclaimed,
        which is safe because traversal never revisits entries before
        ``µ``.  Finally the local sequence prunes its dead prefix.  Returns
        the number of configurations whose retirement quorum acked.
        """
        mu = cseq.mu
        stale = cseq.records_before(mu)
        if not stale:
            return 0
        final_record = cseq[mu]
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
