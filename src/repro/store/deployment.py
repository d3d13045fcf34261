"""Deployment builder for sharded multi-object stores.

:class:`StoreDeployment` wires a complete store onto **one** simulator and
network: a pool of :class:`~repro.store.server.StoreServer` processes carved
into per-shard slices, a :class:`~repro.store.shardmap.ShardMap` assigning
keys to shards (each shard with its own DAP kind, so ABD, LDR and TREAS
shards coexist), writer/reader :class:`~repro.store.client.StoreClient`
processes, and one shared keyed :class:`~repro.spec.history.History`.

The deployment inherits the driver surface of every
:class:`~repro.core.deployment.Deployment` (``sim``/``network``/
``history``/``writers``/``readers``), so the closed-loop workload driver,
the chaos engine and the scenario registry treat stores exactly like
single-register systems -- the ``keyed`` marker switches the driver into
keyspace mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.common.ids import ProcessId, server_id
from repro.common.values import Value
from repro.core.deployment import CommonSpec, Deployment
from repro.sim.futures import Coroutine
from repro.store.client import StoreClient
from repro.store.reconfigurer import ShardReconfigurer
from repro.store.server import StoreServer
from repro.store.shardmap import Shard, ShardMap, ShardSpec


@dataclass
class StoreSpec(CommonSpec):
    """Parameters of a sharded store deployment.

    The client population, ``latency``, ``seed``, ``record_dap``, ``retry``
    and ``gc`` are those of :class:`~repro.core.deployment.CommonSpec`: every
    client can address every key, the reconfigurers are
    :class:`~repro.store.reconfigurer.ShardReconfigurer` processes (shard
    migrations and key-range rebalances), and ``gc`` retires configurations
    per key.

    Attributes
    ----------
    shards:
        One :class:`~repro.store.shardmap.ShardSpec` per shard; each shard
        gets its own disjoint slice of the server pool and may run a
        different DAP kind.
    """

    shards: Tuple[ShardSpec, ...] = (ShardSpec(), ShardSpec())


class StoreDeployment(Deployment):
    """A complete, runnable sharded key-value store."""

    spec_class = StoreSpec
    keyed = True

    def __init__(self, spec: Optional[StoreSpec] = None, **overrides) -> None:
        super().__init__(spec, **overrides)
        # Carve the global server pool into per-shard slices (s0.. in shard
        # order), then build the shard map the servers also consult.
        shards: List[Shard] = []
        next_index = 0
        for shard_index, shard_spec in enumerate(self.spec.shards):
            ids = [server_id(next_index + i) for i in range(shard_spec.num_servers)]
            next_index += shard_spec.num_servers
            shards.append(Shard(shard_index, shard_spec, ids, self.directory))
        self.shard_map = ShardMap(shards)
        self._build_servers(pid for shard in shards for pid in shard.servers)
        self._build_clients()

    def _make_server(self, pid: ProcessId) -> StoreServer:
        # Fresh servers (add_servers) start with no shard membership; a shard
        # migration recruits them as a target slice.
        return StoreServer(pid, self.network, self.directory, shard_map=self.shard_map)

    def _make_client(self, pid: ProcessId) -> StoreClient:
        return StoreClient(pid, self.network, self.directory, self.shard_map,
                           history=self.history, dap_recorder=self.dap_recorder)

    def _make_reconfigurer(self, pid: ProcessId) -> ShardReconfigurer:
        return ShardReconfigurer(pid, self.network, self.directory, self.shard_map,
                                 history=self.history, dap_recorder=self.dap_recorder,
                                 gc=self.spec.gc)

    # ------------------------------------------------------------ operations
    def spawn_put(self, key: str, value: Value, writer_index: int = 0) -> Coroutine:
        """Start a keyed write without driving the simulator."""
        writer = self.writers[writer_index]
        return writer.spawn(writer.write(key, value), label=f"{writer.pid}:put:{key}")

    def spawn_get(self, key: str, reader_index: int = 0) -> Coroutine:
        """Start a keyed read without driving the simulator."""
        reader = self.readers[reader_index]
        return reader.spawn(reader.read(key), label=f"{reader.pid}:get:{key}")

    def put(self, key: str, value: Value, writer_index: int = 0):
        """Run one store write to completion; returns the written tag."""
        return self.sim.run_until_complete(self.spawn_put(key, value, writer_index))

    def get(self, key: str, reader_index: int = 0) -> Value:
        """Run one store read to completion; returns the value."""
        return self.sim.run_until_complete(self.spawn_get(key, reader_index))

    def multi_put(self, items: Mapping[str, Value], writer_index: int = 0) -> Dict[str, object]:
        """Run a pipelined batch write to completion; returns ``{key: tag}``."""
        writer = self.writers[writer_index]
        op = writer.spawn(writer.multi_put(items), label=f"{writer.pid}:multi_put")
        return self.sim.run_until_complete(op)

    def multi_get(self, keys, reader_index: int = 0) -> Dict[str, Value]:
        """Run a pipelined batch read to completion; returns ``{key: value}``."""
        reader = self.readers[reader_index]
        op = reader.spawn(reader.multi_get(keys), label=f"{reader.pid}:multi_get")
        return self.sim.run_until_complete(op)

    # -------------------------------------------------------- reconfiguration
    def migrate_shard(self, shard_index: int, dap: Optional[str] = None,
                      fresh_servers: int = 0, k: Optional[int] = None,
                      delta: Optional[int] = None,
                      reconfigurer_index: int = 0) -> int:
        """Run a live shard migration to completion; returns the new epoch.

        ``fresh_servers > 0`` recruits that many new server processes as the
        shard's target slice; ``0`` keeps the current slice (a pure DAP
        flip).  ``dap``/``k``/``delta`` override the shard's kind and TREAS
        parameters.
        """
        op = self.spawn_migrate_shard(shard_index, dap=dap,
                                      fresh_servers=fresh_servers, k=k,
                                      delta=delta,
                                      reconfigurer_index=reconfigurer_index)
        return self.sim.run_until_complete(op)

    def move_keys(self, keys, target_shard_index: int,
                  reconfigurer_index: int = 0) -> int:
        """Run a key-range rebalance to completion; returns the new epoch."""
        op = self.spawn_move_keys(keys, target_shard_index,
                                  reconfigurer_index=reconfigurer_index)
        return self.sim.run_until_complete(op)

    def split_shard(self, source_index: int, left_index: int, right_index: int,
                    reconfigurer_index: int = 0) -> int:
        """Split a shard's keys across two target shards; returns the epoch."""
        op = self.spawn_split_shard(source_index, left_index, right_index,
                                    reconfigurer_index=reconfigurer_index)
        return self.sim.run_until_complete(op)

    def spawn_migrate_shard(self, shard_index: int, dap: Optional[str] = None,
                            fresh_servers: int = 0, k: Optional[int] = None,
                            delta: Optional[int] = None,
                            reconfigurer_index: int = 0) -> Coroutine:
        """Start a shard migration without driving the simulator."""
        servers = self.add_servers(fresh_servers) if fresh_servers else None
        reconfigurer = self.reconfigurers[reconfigurer_index]
        return reconfigurer.spawn(
            reconfigurer.migrate_shard(shard_index, dap=dap, servers=servers,
                                       k=k, delta=delta),
            label=f"{reconfigurer.pid}:migrate-shard-{shard_index}")

    def spawn_move_keys(self, keys, target_shard_index: int,
                        reconfigurer_index: int = 0) -> Coroutine:
        """Start a key-range rebalance without driving the simulator."""
        reconfigurer = self.reconfigurers[reconfigurer_index]
        return reconfigurer.spawn(
            reconfigurer.move_keys(list(keys), target_shard_index),
            label=f"{reconfigurer.pid}:move-keys-to-{target_shard_index}")

    def spawn_split_shard(self, source_index: int, left_index: int,
                          right_index: int,
                          reconfigurer_index: int = 0) -> Coroutine:
        """Start a shard split without driving the simulator."""
        reconfigurer = self.reconfigurers[reconfigurer_index]
        return reconfigurer.spawn(
            reconfigurer.split_shard(source_index, left_index, right_index),
            label=f"{reconfigurer.pid}:split-shard-{source_index}")

    # ------------------------------------------------------------ accounting
    def storage_by_shard(self) -> Dict[int, int]:
        """Object-data bytes stored per shard (summed over its servers)."""
        totals: Dict[int, int] = {shard.index: 0 for shard in self.shard_map.shards}
        for shard in self.shard_map.shards:
            for pid in shard.servers:
                totals[shard.index] += self.servers[pid].storage_data_bytes()
        return totals

    def storage_by_key(self) -> Dict[str, int]:
        """Object-data bytes stored per object key (summed over servers)."""
        totals: Dict[str, int] = {}
        for server in self.servers.values():
            for key, count in server.storage_by_key().items():
                totals[key] = totals.get(key, 0) + count
        return totals
