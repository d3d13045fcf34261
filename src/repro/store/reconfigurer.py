"""Live per-shard reconfiguration and key-range rebalancing.

A :class:`ShardReconfigurer` converts the sharded store from a statically
configured system into the paper's actual adaptive one: it drives the ARES
``read-config`` / ``add-config`` / ``update-config`` / ``finalize-config``
traversal (Algorithm 5, shared with the single-register reconfigurer through
:class:`~repro.core.reconfig.ReconfigOpsMixin`) **per object key**, for whole
shards' worth of keys at a time, while keyed client traffic is in flight.

Two reconfiguration shapes exist:

* :meth:`ShardReconfigurer.migrate_shard` -- move *all* of a shard's objects
  onto a new server slice and/or a different DAP kind (ABD ↔ LDR ↔ TREAS).
  The shard map is switched first (epoch +1), so keys materialised during
  the migration already land on the target slice; every already-materialised
  key is then reconfigured through ARES, with the per-key quorum rounds of
  the whole batch pipelined concurrently via
  :func:`~repro.sim.futures.all_of`.
* :meth:`ShardReconfigurer.move_keys` -- rebalance a key range onto another
  shard: the placement override is installed first (epoch +1, fresh keys of
  the range go straight to the target), then each materialised key of the
  range is reconfigured onto the target shard's servers and DAP kind.

Safety never depends on the shard map: clients with in-flight operations
discover the new configurations through the ARES sequence traversal exactly
as in the single-register protocol (Algorithm 7's catch-up loop), and every
migrated key's finalized configuration is installed as the key's *entry
point* so fresh clients join the sequence at its tail and a client refused
by a retired configuration re-bases there (a finalized configuration, like
the tombstone it stands in for).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.common.ids import ConfigId, ProcessId
from repro.config.configuration import Configuration
from repro.core.directory import ConfigurationDirectory
from repro.core.reconfig import ReconfigOpsMixin
from repro.core.traversal import RegisterState
from repro.net.network import Network
from repro.sim.futures import all_of
from repro.sim.process import Process
from repro.spec.history import History
from repro.spec.properties import DapRecorder
from repro.store.shardmap import ShardMap, ShardSpec


class ShardReconfigurer(Process, ReconfigOpsMixin):
    """A reconfiguration client for a sharded store.

    Parameters
    ----------
    pid, network:
        Standard process identity and network attachment.
    directory:
        The deployment's configuration directory (shared with the servers).
    shard_map:
        The deployment's :class:`~repro.store.shardmap.ShardMap`;
        migrations mutate it (advancing its epoch) and install per-key
        entry points on it.
    history:
        The deployment-wide keyed history; every per-key reconfiguration is
        recorded as a ``RECONFIG`` operation carrying its object key.
    dap_recorder:
        Optional recorder of DAP invocations (consistency-property tests).
    consensus_delay:
        Extra latency per consensus decision (the ``T(CN)`` knob).
    gc:
        Enable per-key configuration retirement: each key's reconfiguration
        runs the gc-config phase, retiring the key's superseded
        configurations so the source slice's storage actually shrinks after
        a migration.  ``False`` keeps executions byte-identical to builds
        without retirement.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        directory: ConfigurationDirectory,
        shard_map: ShardMap,
        history: Optional[History] = None,
        dap_recorder: Optional[DapRecorder] = None,
        consensus_delay: float = 0.0,
        gc: bool = False,
    ) -> None:
        super().__init__(pid, network)
        self.directory = directory
        self.shard_map = shard_map
        self.history = history
        self.dap_recorder = dap_recorder
        self.consensus_delay = consensus_delay
        self.gc_enabled = gc
        self._keys: Dict[str, RegisterState] = {}
        self.completed_reconfigs = 0
        #: Number of shard migrations / key-range rebalances completed.
        self.completed_migrations = 0

    # --------------------------------------------------------------- plumbing
    def _state_for(self, key: str) -> RegisterState:
        """The per-key reconfiguration state, created on first use."""
        state = self._keys.get(key)
        if state is None:
            state = RegisterState(self, self.shard_map.configuration_for(key))
            self._keys[key] = state
        return state

    # ----------------------------------------------------- per-key reconfig
    def reconfig_key(self, key: str, proposed: Configuration):
        """Coroutine: one ARES reconfiguration of object ``key``'s register.

        Runs the shared four-phase Algorithm 5 implementation against the
        key's configuration sequence and installs the finalized
        configuration as the key's entry point in the shard map.  Returns
        the configuration installed at the proposal's index (which may be a
        contending reconfigurer's proposal).
        """
        state = self._state_for(key)
        installed = yield from self._register_reconfig(
            state.cseq, state.dap_for, proposed, key=key)
        mu = state.cseq.mu
        self.shard_map.install_entry_point(key, state.cseq[mu], mu)
        return installed

    def _migrate_keys(self, keys: Sequence[str], target_shard_index: int,
                      epoch: int, servers: Sequence[ProcessId]):
        """Coroutine: reconfigure every key onto the target slice, pipelined.

        Every key's four-phase reconfiguration runs as its own coroutine, so
        the quorum rounds of the whole batch are in flight concurrently --
        a shard migration over ``m`` objects costs roughly one
        reconfiguration's latency, not ``m`` sequential chains.
        """
        shard = self.shard_map.shards[target_shard_index]
        ops = []
        for key in keys:
            cfg_id = ConfigId(name=f"st{target_shard_index}/{key}@e{epoch}")
            proposed = shard.build_configuration(cfg_id, servers)
            ops.append(self.spawn(self.reconfig_key(key, proposed),
                                  label=f"{self.pid}:reconfig:{key}@e{epoch}"))
        if ops:
            yield all_of(self.sim, [op.completion for op in ops],
                         label=f"{self.pid}:migrate@e{epoch}")
        return len(ops)

    # -------------------------------------------------------- shard migration
    def migrate_shard(self, shard_index: int, dap: Optional[str] = None,
                      servers: Optional[Sequence[ProcessId]] = None,
                      k: Optional[int] = None, delta: Optional[int] = None):
        """Coroutine: migrate a live shard to ``servers`` and/or DAP ``dap``.

        With ``servers=None`` the shard keeps its slice (a pure DAP flip);
        with ``dap=None`` it keeps its kind (a pure server move).  The shard
        map is updated *first* (advancing the epoch) so fresh keys land on
        the target, then every materialised key of the shard is reconfigured
        through ARES concurrently with ongoing client traffic.  Returns the
        new epoch.
        """
        shard = self.shard_map.shard(shard_index)
        target_servers = tuple(shard.servers if servers is None else servers)
        spec = ShardSpec(
            dap=(dap or shard.dap).lower(),
            num_servers=len(target_servers),
            k=shard.spec.k if k is None else k,
            delta=shard.spec.delta if delta is None else delta,
        )
        keys = self.shard_map.keys_on_shard(shard_index)
        epoch = self.shard_map.install_shard(shard_index, spec, target_servers)
        yield from self._migrate_keys(keys, shard_index, epoch, target_servers)
        self.completed_migrations += 1
        return epoch

    # ------------------------------------------------------------ rebalancing
    def move_keys(self, keys: Sequence[str], target_shard_index: int):
        """Coroutine: rebalance ``keys`` onto shard ``target_shard_index``.

        The placement override is installed first (epoch +1); every key of
        the range that already has protocol state is then reconfigured onto
        the target shard's current servers and DAP kind.  Keys of the range
        that were never touched simply materialise on the target when first
        used.  Returns the new epoch.
        """
        keys = list(keys)
        materialised = set(self.shard_map.materialised_keys())
        epoch = self.shard_map.move_keys(keys, target_shard_index)
        target = self.shard_map.shards[target_shard_index]
        to_move = [key for key in keys if key in materialised]
        yield from self._migrate_keys(to_move, target_shard_index, epoch,
                                      target.servers)
        self.completed_migrations += 1
        return epoch
