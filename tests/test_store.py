"""Unit and integration tests of the sharded multi-object store.

Covers the shard map (deterministic placement, per-shard DAP coexistence),
the keyed client operations (round trips, isolation between keys, pipelined
batches), per-key history recording/verification, keyed workload driving
(uniform and Zipf keyspaces) and the store's accounting surface.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.common.errors import ConfigurationError
from repro.common.values import Value
from repro.net.latency import FixedLatency, UniformLatency
from repro.spec.history import OperationType
from repro.spec.linearizability import (
    check_linearizability,
    check_linearizability_per_key,
    check_tag_monotonicity_per_key,
)
from repro.store import (
    SHARD_DAP_KINDS,
    ShardMap,
    ShardSpec,
    StoreDeployment,
    StoreSpec,
    shard_index_for,
)
from repro.workloads.generator import ClosedLoopDriver, KeyspaceSampler, WorkloadSpec

MIXED_SHARDS = (ShardSpec(dap="abd", num_servers=5),
                ShardSpec(dap="treas", num_servers=6, k=4, delta=8),
                ShardSpec(dap="ldr", num_servers=6))


def mixed_store(seed: int = 0, **kwargs) -> StoreDeployment:
    kwargs.setdefault("shards", MIXED_SHARDS)
    kwargs.setdefault("latency", UniformLatency(1.0, 2.0))
    return StoreDeployment(StoreSpec(seed=seed, **kwargs))


# ======================================================================
# Shard map
# ======================================================================

class TestShardMap:
    def test_placement_is_crc32_mod_shards(self):
        for key in ("a", "user:42", "k7", ""):
            assert shard_index_for(key, 3) == zlib.crc32(key.encode()) % 3

    def test_placement_is_stable_across_instances(self):
        first = mixed_store(seed=0)
        second = mixed_store(seed=1)
        for i in range(50):
            key = f"key-{i}"
            assert (first.shard_map.shard_index(key)
                    == second.shard_map.shard_index(key))

    def test_every_shard_receives_keys(self):
        store = mixed_store()
        hit = {store.shard_map.shard_index(f"key-{i}") for i in range(64)}
        assert hit == {0, 1, 2}

    def test_per_shard_dap_kinds_coexist(self):
        store = mixed_store()
        assert [shard.dap for shard in store.shard_map.shards] == \
            ["abd", "treas", "ldr"]
        assert set(SHARD_DAP_KINDS) == {"abd", "treas", "ldr"}

    def test_server_slices_are_disjoint(self):
        store = mixed_store()
        seen = set()
        for shard in store.shard_map.shards:
            assert not (set(shard.servers) & seen)
            seen.update(shard.servers)
        assert len(seen) == 17

    def test_configuration_is_shared_and_registered(self):
        store = mixed_store()
        cfg1 = store.shard_map.configuration_for("k1")
        cfg2 = store.shard_map.configuration_for("k1")
        assert cfg1 is cfg2
        assert store.directory.get(cfg1.cfg_id) is cfg1
        assert cfg1.cfg_id.name == f"st{store.shard_map.shard_index('k1')}/k1"

    def test_key_of_round_trips(self):
        store = mixed_store()
        cfg = store.shard_map.configuration_for("user:7")
        assert store.shard_map.key_of(cfg.cfg_id) == "user:7"
        assert store.shard_map.key_of(cfg.cfg_id) in store.shard_map.shard_for("user:7").keys()

    def test_servers_for_key_matches_configuration(self):
        store = mixed_store()
        servers = store.shard_map.servers_for_key("k3")
        assert servers == list(store.shard_map.shard_for("k3").servers)

    def test_describe_mentions_every_shard(self):
        store = mixed_store()
        store.put("k1", Value.of_size(16, label="x"))
        text = store.shard_map.describe()
        for shard in store.shard_map.shards:
            assert f"shard {shard.index} [{shard.dap}]" in text

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardSpec(dap="raid0")
        with pytest.raises(ConfigurationError):
            ShardSpec(num_servers=0)
        with pytest.raises(ConfigurationError, match="LDR shard"):
            ShardSpec(dap="ldr", num_servers=1)  # zero directories otherwise
        with pytest.raises(ConfigurationError):
            ShardMap(())
        with pytest.raises(ConfigurationError):
            shard_index_for("k", 0)


# ======================================================================
# Keyed operations
# ======================================================================

class TestStoreOperations:
    def test_round_trip_on_every_shard_kind(self):
        store = mixed_store()
        # One key per shard: write then read through different clients.
        by_shard = {}
        i = 0
        while len(by_shard) < 3:
            key = f"key-{i}"
            by_shard.setdefault(store.shard_map.shard_index(key), key)
            i += 1
        for index, key in sorted(by_shard.items()):
            store.put(key, Value.from_text(f"payload-{index}", label=f"v{index}"))
            assert store.get(key).as_text() == f"payload-{index}"

    def test_keys_are_isolated(self):
        store = mixed_store()
        store.put("a", Value.from_text("va", label="la"))
        store.put("b", Value.from_text("vb", label="lb"))
        assert store.get("a").as_text() == "va"
        assert store.get("b").as_text() == "vb"
        # An unwritten key reads the initial (bottom) value.
        assert store.get("never-written").label == "v0"

    def test_writes_to_same_key_supersede(self):
        store = mixed_store()
        store.put("k", Value.from_text("one", label="l1"))
        store.put("k", Value.from_text("two", label="l2"), writer_index=1)
        assert store.get("k").as_text() == "two"

    def test_multi_put_multi_get_round_trip(self):
        store = mixed_store()
        writer = store.writers[0]
        items = {f"k{i}": writer.next_value(32) for i in range(10)}
        tags = store.multi_put(items)
        assert sorted(tags) == sorted(items)
        values = store.multi_get(list(items))
        assert {k: v.label for k, v in values.items()} == \
            {k: v.label for k, v in items.items()}

    def test_multi_get_dedupes_keys(self):
        store = mixed_store()
        store.put("k1", Value.from_text("x", label="lx"))
        values = store.multi_get(["k1", "k1", "k1"])
        assert list(values) == ["k1"]

    def test_batch_pipelines_quorum_rounds(self):
        """A batch over b keys costs its slowest key's rounds, not their sum.

        Every hop takes 1 vt, so a quorum round takes 2.  A quiet ABD read
        or TREAS read is one round (its quorum agrees, so it skips the
        write-back), and an LDR read five: get-data's directory, write-back
        and replica rounds, then put-data's replica and directory rounds.
        """
        rounds = {"abd": 1, "treas": 1, "ldr": 5}
        keys = [f"k{i}" for i in range(8)]
        sequential = StoreDeployment(StoreSpec(
            shards=MIXED_SHARDS, latency=FixedLatency(1.0), seed=3))
        writer = sequential.writers[0]
        for key in keys:
            sequential.put(key, writer.next_value(16))
        start = sequential.sim.now
        for key in keys:
            sequential.get(key)
        sequential_time = sequential.sim.now - start

        batched = StoreDeployment(StoreSpec(
            shards=MIXED_SHARDS, latency=FixedLatency(1.0), seed=3))
        writer = batched.writers[0]
        batched.multi_put({key: writer.next_value(16) for key in keys})
        start = batched.sim.now
        batched.multi_get(keys)
        batched_time = batched.sim.now - start

        per_key = [2 * rounds[sequential.shard_map.configuration_for(key).dap.value]
                   for key in keys]
        assert len(set(per_key)) > 1      # the batch mixes round counts
        assert sequential_time == sum(per_key)
        assert batched_time == max(per_key)

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_shard_fan_out_sets_message_cost(self, num_shards):
        """One 20-server fleet carved into shards: a round addresses one shard.

        A write is two quorum rounds (get-tag, then put-data) and a quiet
        read one (get-data, whose quorum agrees), every round a request to
        and a reply from every server of the key's shard: 4 messages per
        write and 2 per read per server of a shard.
        """
        per_shard = 20 // num_shards
        store = StoreDeployment(StoreSpec(
            shards=tuple(ShardSpec(dap="abd", num_servers=per_shard)
                         for _ in range(num_shards)),
            num_writers=2, num_readers=2,
            latency=UniformLatency(1.0, 2.0), seed=0))
        spec = WorkloadSpec(operations_per_writer=3, operations_per_reader=3,
                            value_size=256, num_keys=24, seed=0)
        result = ClosedLoopDriver(store, spec).run()
        assert result.errors == []
        assert check_linearizability_per_key(store.history).ok
        assert result.total_operations == 12
        assert store.network.messages_sent == (4 * 6 + 2 * 6) * per_shard

    def test_keys_written_by_one_client_are_read_by_another(self):
        store = mixed_store()
        store.put("k1", Value.of_size(8, label="l1"))
        store.put("k2", Value.of_size(8, label="l2"), writer_index=1)
        assert store.get("k1", reader_index=1).label == "l1"
        assert store.get("k2", reader_index=1).label == "l2"


# ======================================================================
# Keyed histories and verification
# ======================================================================

class TestKeyedHistories:
    def test_operations_record_their_key(self):
        store = mixed_store()
        store.put("k1", Value.of_size(8, label="l1"))
        store.get("k1")
        records = store.history.operations()
        assert [r.key for r in records] == ["k1", "k1"]
        assert records[0].op_type is OperationType.WRITE
        assert store.history.is_keyed()

    def test_split_by_key_partitions_records(self):
        store = mixed_store()
        store.put("a", Value.of_size(8, label="la"))
        store.put("b", Value.of_size(8, label="lb"))
        store.get("a")
        subs = store.history.split_by_key()
        assert sorted(k for k in subs) == ["a", "b"]
        assert len(subs["a"]) == 2
        assert len(subs["b"]) == 1
        assert store.history.keys() == ["a", "b"]
        assert len(store.history.for_key("a")) == 2

    def test_per_key_checker_passes_interleaved_store_history(self):
        store = mixed_store()
        writer = store.writers[0]
        store.multi_put({f"k{i}": writer.next_value(16) for i in range(8)})
        store.multi_get([f"k{i}" for i in range(8)])
        result = check_linearizability_per_key(store.history)
        assert result.ok
        assert result.method == "per-key(fast)"
        assert sorted(k for k in result.results) == sorted(f"k{i}" for i in range(8))
        assert check_tag_monotonicity_per_key(store.history) is None

    def test_whole_history_checker_rejects_cross_key_history(self):
        """The motivation for per-key checking: a multi-object history is
        (in general) not linearizable as a single register."""
        store = mixed_store()

        def pause(client, delay):
            # Strictly separate the operations in real time: back-to-back
            # sync operations share boundary timestamps and would count as
            # concurrent, which a single register could still linearize.
            yield client.sleep(delay)

        store.put("a", Value.of_size(8, label="la"))
        store.sim.run_until_complete(
            store.readers[0].spawn(pause(store.readers[0], 1.0)))
        store.put("b", Value.of_size(8, label="lb"))
        store.sim.run_until_complete(
            store.readers[0].spawn(pause(store.readers[0], 1.0)))
        assert store.get("a").label == "la"  # stale as a *single* register
        whole = check_linearizability(store.history)
        per_key = check_linearizability_per_key(store.history)
        assert per_key.ok
        assert not whole.ok

    def test_merged_signature_covers_all_keys_and_is_deterministic(self):
        def run(seed):
            store = mixed_store(seed=seed)
            writer = store.writers[0]
            store.multi_put({f"k{i}": writer.next_value(16) for i in range(6)})
            return store.history.signature()

        assert run(5) == run(5)
        assert run(5) != run(6)
        keys = {entry[-1] for entry in run(5)}
        assert keys == {f"k{i}" for i in range(6)}

    def test_unkeyed_signature_shape_unchanged(self):
        """Key-less records keep the historical 8-tuple (golden stability)."""
        from repro.workloads.scenarios import run_scenario

        result = run_scenario("abd_crash_minority", seed=0)
        assert all(len(entry) == 8 for entry in result.history.signature())
        assert not result.history.is_keyed()


# ======================================================================
# Keyed workloads
# ======================================================================

class TestKeyedWorkloads:
    def test_uniform_keyed_workload_drives_store(self):
        store = mixed_store(seed=2)
        spec = WorkloadSpec(operations_per_writer=3, operations_per_reader=3,
                            value_size=64, num_keys=8,
                            seed=11)
        result = ClosedLoopDriver(store, spec).run()
        assert result.errors == []
        assert result.total_operations == 12
        assert check_linearizability_per_key(store.history).ok

    def test_batched_keyed_workload_drives_store(self):
        store = mixed_store(seed=2)
        spec = WorkloadSpec(operations_per_writer=2, operations_per_reader=2,
                            value_size=64, num_keys=8, batch_size=3, seed=11)
        result = ClosedLoopDriver(store, spec).run()
        assert result.errors == []
        # 4 clients x 2 steps x 3 keys per batch.
        assert result.total_operations == 24
        assert check_linearizability_per_key(store.history).ok

    def test_keyspace_requires_keyed_deployment(self):
        from repro.core.deployment import AresDeployment, DeploymentSpec

        register = AresDeployment(DeploymentSpec(num_servers=3, initial_dap="abd"))
        with pytest.raises(ValueError, match="single-register"):
            ClosedLoopDriver(register, WorkloadSpec(num_keys=4))

    def test_keyed_deployment_requires_keyspace(self):
        with pytest.raises(ValueError, match="num_keys"):
            ClosedLoopDriver(mixed_store(), WorkloadSpec())

    def test_batching_requires_a_keyspace(self):
        """batch_size on a single-register workload must error, not no-op."""
        from repro.core.deployment import AresDeployment, DeploymentSpec

        register = AresDeployment(DeploymentSpec(num_servers=3, initial_dap="abd"))
        with pytest.raises(ValueError, match="batch_size"):
            ClosedLoopDriver(register, WorkloadSpec(batch_size=4))
        with pytest.raises(ValueError, match="batch_size"):
            ClosedLoopDriver(mixed_store(), WorkloadSpec(num_keys=4, batch_size=0))


class TestKeyspaceSampler:
    def test_uniform_covers_the_keyspace(self):
        sampler = KeyspaceSampler(8)
        rng = random.Random(0)
        seen = {sampler.sample(rng) for _ in range(400)}
        assert seen == {f"k{i}" for i in range(8)}

    def test_zipf_is_skewed_towards_k0(self):
        sampler = KeyspaceSampler(16, distribution="zipf", zipf_s=1.4)
        rng = random.Random(0)
        counts = {}
        for _ in range(3000):
            key = sampler.sample(rng)
            counts[key] = counts.get(key, 0) + 1
        assert counts["k0"] == max(counts.values())
        assert counts["k0"] > 3 * counts.get("k15", 1)

    def test_sampling_is_deterministic(self):
        draws = []
        for _ in range(2):
            sampler = KeyspaceSampler(16, distribution="zipf", zipf_s=1.2)
            rng = random.Random(42)
            draws.append([sampler.sample(rng) for _ in range(50)])
        assert draws[0] == draws[1]

    def test_batches_are_distinct_and_complete(self):
        sampler = KeyspaceSampler(4, distribution="zipf", zipf_s=3.0)
        rng = random.Random(1)
        for _ in range(20):
            batch = sampler.sample_batch(rng, 4)
            assert sorted(batch) == ["k0", "k1", "k2", "k3"]
        assert len(sampler.sample_batch(rng, 99)) == 4

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            KeyspaceSampler(0)
        with pytest.raises(ValueError):
            KeyspaceSampler(4, distribution="pareto")


# ======================================================================
# Accounting
# ======================================================================

class TestStoreAccounting:
    def test_storage_by_key_and_shard(self):
        store = mixed_store()
        writer = store.writers[0]
        keys = [f"k{i}" for i in range(6)]
        store.multi_put({key: writer.next_value(128) for key in keys})
        by_key = store.storage_by_key()
        assert sorted(by_key) == keys
        assert all(count > 0 for count in by_key.values())
        by_shard = store.storage_by_shard()
        assert sum(by_shard.values()) == store.total_storage_data_bytes()
        assert sum(by_shard.values()) == sum(by_key.values())

    def test_servers_report_hosted_keys(self):
        store = mixed_store()
        store.put("k1", Value.of_size(64, label="l1"))
        shard = store.shard_map.shard_for("k1")
        hosting = [pid for pid in shard.servers
                   if "k1" in store.servers[pid].storage_by_key()]
        assert hosting, "no server of the key's shard hosts it"
        for other in store.shard_map.shards:
            if other.index == shard.index:
                continue
            for pid in other.servers:
                assert "k1" not in store.servers[pid].storage_by_key()

    def test_spec_or_overrides_not_both(self):
        with pytest.raises(ConfigurationError):
            StoreDeployment(StoreSpec(), num_writers=3)
