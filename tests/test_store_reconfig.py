"""Live per-shard reconfiguration: shard map, migrations, scenarios.

Covers the :class:`~repro.store.shardmap.ShardMap` (placement of fresh
keys, entry points, the ``key_of`` accounting fix, shard-index validation),
the :class:`~repro.store.reconfigurer.ShardReconfigurer` operations (server
moves, DAP flips, key-range rebalances -- with traffic in flight),
the differential/sweep gates for the three PR-5 reconfiguration scenarios,
and the reconfig-rate sweep axes.  The randomized battery lives in
``test_store_reconfig_property.py``.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.common.values import Value
from repro.spec.linearizability import (check_linearizability_per_key,
                                        check_tag_monotonicity_per_key)
from repro.store import (
    ShardSpec,
    StoreDeployment,
    StoreSpec,
)
from repro.sweep.engine import campaign, execute_run
from repro.sweep.grid import RunSpec, SweepGrid, parse_grid
from repro.workloads.scenarios import run_scenario

RECONFIG_SCENARIOS = ("store_shard_migration_storm", "store_dap_flip_under_chaos",
                      "store_rebalance_hot_range")


def make_store(**overrides) -> StoreDeployment:
    defaults = dict(
        shards=(ShardSpec(dap="abd", num_servers=5),
                ShardSpec(dap="treas", num_servers=6, k=4, delta=8)),
        num_writers=2, num_readers=2, seed=0)
    defaults.update(overrides)
    return StoreDeployment(StoreSpec(**defaults))


def seed_keys(store: StoreDeployment, count: int = 6) -> list:
    keys = [f"k{i}" for i in range(count)]
    store.multi_put({key: store.writers[0].next_value(64) for key in keys})
    return keys


class TestShardMapEpochs:
    def test_key_of_resolves_migration_created_configurations(self):
        """Regression: ``key_of`` only consulted the shards, so every
        migrated object's bytes vanished from per-key accounting."""
        store = make_store()
        seed_keys(store)
        before = store.storage_by_key()
        store.migrate_shard(0, fresh_servers=5)
        migrated = store.shard_map.keys_on_shard(0)
        after = store.storage_by_key()
        for key in migrated:
            cfg = store.shard_map.configuration_for(key)
            assert store.shard_map.key_of(cfg.cfg_id) == key
            assert after.get(key, 0) >= before.get(key, 0)

    def test_rebalance_window_does_not_create_a_fresh_empty_register(self):
        """Regression for the bug the property harness caught: while a
        rebalance is in flight, resolving a moved-but-materialised key at
        the new placement must join the existing register, not lazily
        create an empty one on the target shard (a fresh reader would
        return the initial value v0 after acknowledged writes)."""
        store = make_store(shards=(ShardSpec(dap="abd", num_servers=5),
                                   ShardSpec(dap="abd", num_servers=5)))
        store.put("k0", Value.from_text("live", label="v-live"))
        source = store.shard_map.shard_index("k0")
        target = 1 - source
        # Take the placement epoch exactly as the reconfigurer does, but do
        # NOT run the data migration: this is the in-flight window.
        store.shard_map.move_keys(["k0"], target)
        cfg = store.shard_map.configuration_for("k0")
        assert cfg.cfg_id.name.startswith(f"st{source}/"), (
            "resolution during the rebalance window left the existing register")
        assert store.get("k0").label == "v-live"

    def test_move_keys_validates_targets(self):
        store = make_store()
        with pytest.raises(ConfigurationError):
            store.shard_map.move_keys(["k0"], 9)
        with pytest.raises(ConfigurationError):
            store.shard_map.move_keys([], 1)

    @pytest.mark.parametrize("index", [-1, 9])
    def test_migrate_shard_rejects_a_bad_index_before_recruiting(self, index):
        store = make_store()
        seed_keys(store)
        pool = set(store.servers)
        with pytest.raises(ConfigurationError):
            store.migrate_shard(index, fresh_servers=5)
        with pytest.raises(ConfigurationError):
            store.shard_map.install_shard(index, ShardSpec(), sorted(pool)[:5])
        assert set(store.servers) == pool
        assert store.shard_map.epoch == 0

    @pytest.mark.parametrize("target", [-1, 3, 9])
    def test_move_keys_rejects_a_bad_target_before_moving_keys(self, target):
        store = make_store(shards=(ShardSpec(dap="abd", num_servers=5),
                                   ShardSpec(dap="abd", num_servers=5),
                                   ShardSpec(dap="abd", num_servers=5)))
        keys = seed_keys(store)
        placement = {key: store.shard_map.shard_index(key) for key in keys}
        with pytest.raises(ConfigurationError):
            store.move_keys(keys, target)
        assert store.shard_map.epoch == 0
        assert {key: store.shard_map.shard_index(key) for key in keys} == placement


class TestShardMigration:
    def test_migrate_to_fresh_servers_carries_all_objects(self):
        store = make_store()
        keys = seed_keys(store)
        old_servers = set(store.shard_map.shards[0].servers)
        epoch = store.migrate_shard(0, fresh_servers=5)
        assert epoch == 1
        new_servers = set(store.shard_map.shards[0].servers)
        assert old_servers.isdisjoint(new_servers)
        migrated = store.shard_map.keys_on_shard(0)
        assert migrated  # the keyspace hashes onto both shards
        for key in migrated:
            assert set(store.shard_map.servers_for_key(key)) == new_servers
        for key in keys:
            assert store.get(key).label  # every object still readable
        reconfigurer = store.reconfigurers[0]
        assert reconfigurer.completed_migrations == 1
        assert reconfigurer.completed_reconfigs == len(migrated)

    def test_dap_flip_in_place_changes_kind_and_keeps_data(self):
        store = make_store()
        keys = seed_keys(store)
        assert store.shard_map.shards[1].dap == "treas"
        store.migrate_shard(1, dap="abd")
        assert store.shard_map.shards[1].dap == "abd"
        for key in keys:
            value = store.get(key)
            assert value.label.startswith("writer-0:")
        # New objects on the flipped shard materialise as ABD directly.
        fresh = next(f"fresh{i}" for i in range(100)
                     if store.shard_map.shard_index(f"fresh{i}") == 1)
        store.put(fresh, Value.from_text("x", label="vx"))
        cfg = store.shard_map.configuration_for(fresh)
        assert cfg.dap.value == "abd"
        assert "@g1" in cfg.cfg_id.name

    def test_migration_under_live_traffic_stays_linearizable(self):
        store = make_store()
        keys = seed_keys(store, count=8)
        ops = []
        for index, key in enumerate(keys):
            writer = store.writers[index % len(store.writers)]
            ops.append(store.spawn_put(key, writer.next_value(64),
                                       writer_index=index % len(store.writers)))
            ops.append(store.spawn_get(key, reader_index=index % len(store.readers)))
        migration = store.spawn_migrate_shard(0, fresh_servers=5)
        store.run()
        assert migration.done() and migration.exception() is None
        assert all(op.exception() is None for op in ops)
        verdict = check_linearizability_per_key(store.history)
        assert verdict.ok, verdict.reason
        assert check_tag_monotonicity_per_key(store.history) is None

    def test_move_keys_rebalances_and_fresh_keys_still_work(self):
        store = make_store(shards=(ShardSpec(dap="abd", num_servers=5),
                                   ShardSpec(dap="abd", num_servers=5),
                                   ShardSpec(dap="abd", num_servers=5)))
        keys = seed_keys(store)
        source = store.shard_map.shard_index("k0")
        target = (source + 1) % 3
        epoch = store.move_keys(["k0", "k1"], target)
        assert epoch == 1
        assert store.shard_map.shard_index("k0") == target
        assert store.shard_map.shard_index("k1") == target
        unseen = next(f"n{i}" for i in range(100) if f"n{i}" not in keys)
        store.put(unseen, Value.from_text("y", label="vy"))
        assert store.get(unseen).label == "vy"
        for key in keys:
            assert store.get(key).label
        verdict = check_linearizability_per_key(store.history)
        assert verdict.ok, verdict.reason

    def test_pre_move_client_joins_untouched_moved_keys_at_the_target(self):
        store = make_store(shards=(ShardSpec(dap="abd", num_servers=5),
                                   ShardSpec(dap="abd", num_servers=5),
                                   ShardSpec(dap="abd", num_servers=5)))
        writer = store.writers[0]
        store.put("k0", Value.from_text("old", label="v-old"))
        touched = writer.register_for("k0")
        source = store.shard_map.shard_index("k0")
        target = (source + 1) % 3
        untouched = next(f"n{i}" for i in range(100)
                         if store.shard_map.shard_index(f"n{i}") != target)
        store.move_keys(["k0", untouched], target)
        store.put(untouched, Value.from_text("new", label="v-new"))
        joined = writer.register_for(untouched).cseq[0].config
        assert joined.cfg_id.name == f"st{target}/{untouched}"
        store.put("k0", Value.from_text("moved", label="v-moved"))
        assert writer.register_for("k0") is touched
        assert touched.cseq[0].config.cfg_id.name == f"st{source}/k0"
        assert touched.cseq.config_at(touched.cseq.mu).cfg_id.name == \
            f"st{target}/k0@e1"
        assert store.get(untouched).label == "v-new"
        assert store.get("k0").label == "v-moved"

    def test_two_moves_split_a_shard_across_targets(self):
        store = make_store(shards=(ShardSpec(dap="abd", num_servers=5),
                                   ShardSpec(dap="abd", num_servers=5),
                                   ShardSpec(dap="abd", num_servers=5)))
        seed_keys(store, count=10)
        before = store.shard_map.keys_on_shard(0)
        assert len(before) >= 2
        half = len(before) // 2
        assert store.move_keys(before[:half], 1) == 1
        assert store.move_keys(before[half:], 2) == 2
        assert store.shard_map.keys_on_shard(0) == []
        assert set(before[:half]) <= set(store.shard_map.keys_on_shard(1))
        assert set(before[half:]) <= set(store.shard_map.keys_on_shard(2))
        for key in before:
            assert store.get(key).label
        verdict = check_linearizability_per_key(store.history)
        assert verdict.ok, verdict.reason

    def test_moving_keys_back_restores_their_placement(self):
        store = make_store(shards=(ShardSpec(dap="abd", num_servers=5),
                                   ShardSpec(dap="abd", num_servers=5)))
        store.put("k0", Value.from_text("v", label="v-home"))
        home = store.shard_map.shard_index("k0")
        store.move_keys(["k0"], 1 - home)
        assert store.move_keys(["k0"], home) == 2
        assert store.shard_map.shard_index("k0") == home
        assert set(store.shard_map.servers_for_key("k0")) == set(
            store.shard_map.shards[home].servers)
        assert store.get("k0").label == "v-home"
        store.put("k0", Value.from_text("w", label="v-back"))
        assert store.get("k0").label == "v-back"
        verdict = check_linearizability_per_key(store.history)
        assert verdict.ok, verdict.reason

    def test_migration_records_keyed_reconfig_operations(self):
        store = make_store()
        seed_keys(store)
        store.migrate_shard(0, fresh_servers=5)
        records = store.history.reconfigs()
        assert records
        assert all(record.key is not None for record in records)
        assert {record.key for record in records} == set(
            store.shard_map.keys_on_shard(0))
        # Keyed RECONFIG records ride inside the per-key sub-histories the
        # checkers consume; they must be accepted (ignored), not rejected.
        verdict = check_linearizability_per_key(store.history)
        assert verdict.ok, verdict.reason
        assert check_tag_monotonicity_per_key(store.history) is None


class TestReconfigScenarioDifferential:
    """The PR-5 differential gate: same seed twice, plus the pooled sweep."""

    @pytest.mark.parametrize("name", RECONFIG_SCENARIOS)
    def test_run_twice_same_seed_is_byte_identical(self, name):
        first = run_scenario(name, seed=5)
        first.verify()
        second = run_scenario(name, seed=5)
        assert first.signature() == second.signature()
        assert first.chaos_log == second.chaos_log
        assert first.signature() != run_scenario(name, seed=6).signature()

    @pytest.mark.parametrize("name", RECONFIG_SCENARIOS)
    def test_pooled_sweep_matches_serial_execution(self, name):
        """``campaign(jobs=2)`` vs in-process execution: the --check-serial
        contract must hold for reconfiguring scenarios too."""
        grid = SweepGrid(scenarios=(name,), seeds=(5,))
        pooled = campaign(grid, jobs=2)
        assert pooled.ok, [r.failure for r in pooled.records if not r.ok]
        serial = execute_run(RunSpec(scenario=name, seed=5))
        assert pooled.records[0].signature_hash == serial.signature_hash
        assert pooled.records[0].checker_method == "per-key(fast)"

    def test_migration_storm_migrates_two_shards(self):
        result = run_scenario("store_shard_migration_storm", seed=0)
        result.verify()
        assert result.deployment.reconfigurers[0].completed_migrations == 2
        assert result.deployment.shard_map.epoch == 2
        # The TREAS shard flipped to ABD on fresh servers.
        assert result.deployment.shard_map.shards[1].dap == "abd"

    def test_dap_flip_scenario_flips_shard_zero(self):
        result = run_scenario("store_dap_flip_under_chaos", seed=0)
        result.verify()
        shard = result.deployment.shard_map.shards[0]
        assert shard.dap == "abd"
        assert shard.generation == 1
        assert any("reconfigure(flip shard 0 treas->abd)" in text
                   for _, text in result.chaos_log)

    def test_rebalance_scenario_moves_the_hot_range(self):
        result = run_scenario("store_rebalance_hot_range", seed=0)
        result.verify()
        shard_map = result.deployment.shard_map
        assert shard_map.epoch == 1
        targets = {shard_map.shard_index(key) for key in ("k0", "k1", "k2", "k3")}
        assert len(targets) == 1  # the whole range landed on one shard
        assert any("rebalance hot range" in text for _, text in result.chaos_log)


class TestReconfigRateSweepAxes:
    def test_parse_grid_accepts_reconfig_rate_axes(self):
        grid = parse_grid("scenarios=store_shard_migration_storm;seeds=0;"
                          "num_reconfigs=0,2;reconfig_cadence=4.0,8.0")
        assert grid.params == (("num_reconfigs", (0, 2)),
                               ("reconfig_cadence", (4.0, 8.0)))
        assert len(grid.expand()) == 4

    def test_unknown_axis_error_names_the_reconfig_fields(self):
        with pytest.raises(ValueError, match="num_reconfigs"):
            parse_grid("scenarios=abd_crash_minority;seeds=0;bogus=1")

    def test_reconfig_rate_override_changes_migration_count(self):
        quiet = execute_run(RunSpec(scenario="store_shard_migration_storm",
                                    seed=0, params=(("num_reconfigs", 0),)))
        stormy = execute_run(RunSpec(scenario="store_shard_migration_storm",
                                     seed=0, params=(("num_reconfigs", 2),)))
        assert quiet.ok, quiet.failure
        assert stormy.ok, stormy.failure
        assert quiet.signature_hash != stormy.signature_hash
        assert quiet.cell_id == "store_shard_migration_storm/s0[num_reconfigs=0]"

    def test_reconfig_rate_axis_applies_to_single_register_scenarios(self):
        record = execute_run(RunSpec(scenario="abd_reconfig_crash", seed=0,
                                     params=(("reconfig_cadence", 4.0),
                                             ("num_reconfigs", 1))))
        assert record.ok, record.failure

    def test_inert_cadence_axis_fails_the_cell_explicitly(self):
        """Sweeping reconfig_cadence over a scenario that never reconfigures
        would produce byte-identical cells dressed up as a real sweep; the
        cell must fail with an explicit error (mirroring the keyspace-axis
        mismatch), not report a flat curve."""
        record = execute_run(RunSpec(scenario="abd_crash_minority", seed=0,
                                     params=(("reconfig_cadence", 4.0),)))
        assert not record.ok
        assert "num_reconfigs" in record.failure

    def test_explicit_zero_reconfig_baseline_stays_legitimate(self):
        """A num_reconfigs axis that includes 0 (the no-reconfig baseline of
        a rate sweep) must keep working, even crossed with a cadence axis."""
        record = execute_run(RunSpec(scenario="store_shard_migration_storm",
                                     seed=0, params=(("num_reconfigs", 0),
                                                     ("reconfig_cadence", 4.0))))
        assert record.ok, record.failure
