"""The store client: keyed reads/writes plus pipelined batch operations.

A :class:`StoreClient` runs the ARES read/write algorithm (Algorithm 7) *per
object key*: it keeps an independent configuration sequence and DAP-client
cache for every key it has touched, resolves keys to shards through the
deployment's :class:`~repro.store.shardmap.ShardMap`, and records every
operation in the shared history with its key so the per-key linearizability
checker can verify each object independently.

Batching: :meth:`StoreClient.multi_get` and :meth:`StoreClient.multi_put`
spawn one read/write coroutine per key and await them with
:func:`~repro.sim.futures.all_of`, so the per-key quorum rounds of a batch
are in flight **concurrently** -- a batch over ``b`` keys completes in
roughly one operation's latency instead of ``b`` sequential round-trip
chains.  Each constituent operation still records its own history interval,
so batches are checked exactly like loose operations.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.common.ids import ProcessId
from repro.common.values import Value
from repro.config.configuration import Configuration
from repro.config.sequence import ConfigRecord
from repro.core.client import RegisterOpsMixin
from repro.core.directory import ConfigurationDirectory
from repro.core.traversal import RegisterState
from repro.net.network import Network
from repro.sim.futures import all_of
from repro.sim.process import Process
from repro.spec.history import History
from repro.spec.properties import DapRecorder
from repro.store.shardmap import ShardMap


class StoreClient(Process, RegisterOpsMixin):
    """A client of the sharded store (reader, writer, or both).

    Parameters
    ----------
    pid, network:
        Standard process identity and network attachment.
    directory:
        The deployment's configuration directory (shared with the servers).
    shard_map:
        Resolves keys to shards and per-object configurations.
    history:
        The deployment-wide history; operations are recorded with their key.
    dap_recorder:
        Optional recorder of DAP invocations (consistency-property tests).
    """

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        directory: ConfigurationDirectory,
        shard_map: ShardMap,
        history: Optional[History] = None,
        dap_recorder: Optional[DapRecorder] = None,
    ) -> None:
        super().__init__(pid, network)
        self.directory = directory
        self.shard_map = shard_map
        self.history = history
        self.dap_recorder = dap_recorder
        self._registers: Dict[str, RegisterState] = {}

    # --------------------------------------------------------------- plumbing
    def register_for(self, key: str) -> RegisterState:
        """The per-key state (configuration sequence), created on first use.

        A new key joins at the shard map's
        :meth:`~repro.store.shardmap.ShardMap.configuration_for`.  Keys this
        client already operates on are *not* re-resolved -- their
        configuration sequences follow reconfigurations through the ARES
        traversal itself, and only a retired configuration's refusal sends
        them to the key's entry point (:meth:`_rebase_target`).
        """
        register = self._registers.get(key)
        if register is None:
            register = RegisterState(self, self.shard_map.configuration_for(key))
            self._registers[key] = register
        return register

    def _rebase_target(self, configuration: Configuration,
                       tombstone: Tuple[ConfigRecord, int]) -> Tuple[ConfigRecord, int]:
        """The farther of ``tombstone`` and the key's shard-map entry point.

        A retired configuration's tombstone names the successor finalized
        when it retired, so a client that missed several migrations of a key
        would be refused once per migration; the entry point is the key's
        latest finalized configuration, so one refusal re-bases it.
        """
        entry = self.shard_map.entry_point(self.shard_map.key_of(configuration.cfg_id))
        if entry is not None and entry[1] > tombstone[1]:
            return entry
        return tombstone

    # ------------------------------------------------------------- operations
    def write(self, key: str, value: Value):
        """Coroutine: ARES write of ``value`` to object ``key``; returns the tag.

        Delegates to the shared Algorithm 7 implementation
        (:class:`~repro.core.client.RegisterOpsMixin`) over this key's
        configuration sequence and DAP-client cache.
        """
        register = self.register_for(key)
        return self._register_write(register.cseq, register.dap_for, value, key=key)

    def read(self, key: str):
        """Coroutine: ARES read of object ``key``; returns the value."""
        register = self.register_for(key)
        return self._register_read(register.cseq, register.dap_for, key=key)

    # ------------------------------------------------------------- batch ops
    def multi_get(self, keys: Iterable[str]):
        """Coroutine: read many keys with their quorum rounds pipelined.

        Spawns one :meth:`read` per distinct key and awaits them together;
        returns ``{key: value}``.
        """
        distinct = list(dict.fromkeys(keys))
        ops = [self.spawn(self.read(key), label=f"{self.pid}:get:{key}")
               for key in distinct]
        results = yield all_of(self.sim, [op.completion for op in ops],
                               label=f"{self.pid}:multi_get")
        return dict(zip(distinct, results))

    def multi_put(self, items: Mapping[str, Value]):
        """Coroutine: write many key/value pairs with pipelined quorum rounds.

        Spawns one :meth:`write` per entry and awaits them together; returns
        ``{key: tag}``.
        """
        pairs = list(items.items())
        ops = [self.spawn(self.write(key, value), label=f"{self.pid}:put:{key}")
               for key, value in pairs]
        results = yield all_of(self.sim, [op.completion for op in ops],
                               label=f"{self.pid}:multi_put")
        return {key: tag for (key, _), tag in zip(pairs, results)}
