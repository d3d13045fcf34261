"""Sharded multi-object store: many atomic registers over one simulator.

The single-register layers (:mod:`repro.registers`, :mod:`repro.core`)
emulate *one* ARES object.  This package scales the namespace out: a store
multiplexes many named objects over one simulator and network by hashing
keys onto **shards** -- disjoint server slices that each run their own DAP
kind (ABD, LDR and TREAS shards coexist in one deployment) -- and running
the ARES client algorithm independently per key.

* :mod:`repro.store.shardmap`    -- deterministic ``crc32`` key -> shard
  assignment and lazy per-object configurations (``st<shard>/<key>``).
* :mod:`repro.store.server`      -- :class:`StoreServer`: one process
  hosting many per-object DAP server states.
* :mod:`repro.store.client`      -- :class:`StoreClient`: keyed
  ``read``/``write`` plus ``multi_get``/``multi_put`` batches whose per-key
  quorum rounds are pipelined concurrently through the futures layer.
* :mod:`repro.store.deployment`  -- :class:`StoreDeployment`: the wired
  system (servers, clients, reconfigurers, shard map, shared keyed history).
* :mod:`repro.store.reconfigurer` -- :class:`ShardReconfigurer`: live
  per-shard migrations (new servers and/or DAP kind) and key-range
  rebalances driving the ARES reconfiguration traversal per object key;
  clients find a moved register by walking its configuration sequence.

Store histories are keyed: every operation records the object it touched,
and verification runs **per key** (each object is an independent atomic
register) while determinism is witnessed by one merged store-wide signature
-- see :func:`repro.spec.linearizability.check_linearizability_per_key`.

A minimal session::

    from repro.store import ShardSpec, StoreDeployment, StoreSpec
    from repro.common.values import Value

    store = StoreDeployment(StoreSpec(shards=(
        ShardSpec(dap="abd", num_servers=5),
        ShardSpec(dap="treas", num_servers=6, k=4),
    ), seed=7))
    store.put("user:42", Value.from_text("hello", label="v1"))
    print(store.get("user:42").as_text())           # -> hello
    store.multi_put({f"k{i}": store.writers[0].next_value(64) for i in range(8)})
    print(sorted(store.multi_get([f"k{i}" for i in range(8)])))
"""

from repro.store.client import StoreClient
from repro.store.deployment import StoreDeployment, StoreSpec
from repro.store.reconfigurer import ShardReconfigurer
from repro.store.server import StoreServer
from repro.store.shardmap import (
    SHARD_DAP_KINDS,
    Shard,
    ShardMap,
    ShardSpec,
    shard_index_for,
)

__all__ = [
    "SHARD_DAP_KINDS",
    "Shard",
    "ShardMap",
    "ShardReconfigurer",
    "ShardSpec",
    "StoreClient",
    "StoreDeployment",
    "StoreServer",
    "StoreSpec",
    "shard_index_for",
]
