"""Tests for the ARES-TREAS direct state transfer (Section 5, Algorithms 8 and 9)."""

from __future__ import annotations

import pytest

from repro.common.ids import server_id
from repro.common.values import Value
from repro.core.ares_treas import (
    FWD_CODE_ELEM,
    MD_BCAST_REQ_FW,
    TRANSFER_ACK,
    TreasTransferServerState,
    transfer_dap_state_factory,
)
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.net.latency import UniformLatency
from repro.spec.linearizability import check_linearizability


def make_deployment(direct=True, **overrides):
    defaults = dict(num_servers=6, initial_dap="treas", delta=4, num_writers=2,
                    num_readers=2, num_reconfigurers=2, seed=0,
                    latency=UniformLatency(1.0, 2.0),
                    direct_state_transfer=direct)
    defaults.update(overrides)
    return AresDeployment(DeploymentSpec(**defaults))


class TestFactory:
    def test_treas_configurations_get_transfer_state(self):
        dep = make_deployment()
        cfg = dep.initial_configuration
        state = transfer_dap_state_factory(cfg, cfg.servers[0])
        assert isinstance(state, TreasTransferServerState)

    def test_abd_configurations_fall_back_to_plain_state(self):
        dep = make_deployment()
        abd_cfg = dep.make_configuration(dap="abd", fresh_servers=3)
        state = transfer_dap_state_factory(abd_cfg, abd_cfg.servers[0])
        assert not isinstance(state, TreasTransferServerState)


class TestDirectTransfer:
    def test_value_is_available_in_new_configuration(self):
        dep = make_deployment()
        dep.write(Value.of_size(900, label="payload"), 0)
        new_cfg = dep.make_configuration(dap="treas", fresh_servers=9, k=5)
        dep.reconfig(new_cfg, 0)
        assert dep.reconfigurers[0].direct_transfers == 1
        assert dep.read(0).label == "payload"
        # The new configuration's servers re-encoded the value with the new
        # code parameters: each fragment is |v|/k' = 180 bytes.
        per_server = [
            dep.servers[pid].dap_states[new_cfg.cfg_id].storage_data_bytes()
            for pid in new_cfg.servers
            if new_cfg.cfg_id in dep.servers[pid].dap_states
        ]
        assert any(size == 180 for size in per_server)

    def test_reconfigurer_never_carries_value_bytes(self):
        dep = make_deployment()
        value_size = 20_000
        dep.write(Value.of_size(value_size, label="big"), 0)
        reconfigurer = dep.reconfigurers[0]
        before = dep.stats.to_and_from(reconfigurer.pid).data_bytes
        new_cfg = dep.make_configuration(dap="treas", fresh_servers=9, k=5)
        dep.reconfig(new_cfg, 0)
        after = dep.stats.to_and_from(reconfigurer.pid).data_bytes
        # Direct transfer: the reconfigurer exchanges only metadata (tags,
        # config records, acks); it never transports fragments of the object.
        assert after - before == 0

    def test_baseline_reconfigurer_carries_the_object(self):
        dep = make_deployment(direct=False)
        value_size = 20_000
        dep.write(Value.of_size(value_size, label="big"), 0)
        reconfigurer = dep.reconfigurers[0]
        before = dep.stats.to_and_from(reconfigurer.pid).data_bytes
        new_cfg = dep.make_configuration(dap="treas", fresh_servers=9, k=5)
        dep.reconfig(new_cfg, 0)
        after = dep.stats.to_and_from(reconfigurer.pid).data_bytes
        # Baseline ARES: the reconfigurer reads at least one full value worth
        # of fragments and writes n'/k' fragments out again.
        assert after - before >= value_size

    def test_transfer_messages_flow_between_server_sets(self):
        dep = make_deployment()
        dep.write(Value.of_size(600, label="x"), 0)
        new_cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        dep.reconfig(new_cfg, 0)
        assert dep.stats.by_kind(MD_BCAST_REQ_FW).messages > 0
        assert dep.stats.by_kind(FWD_CODE_ELEM).messages > 0
        assert dep.stats.by_kind(TRANSFER_ACK).messages >= new_cfg.quorum_size

    def test_no_transfer_needed_when_object_never_written(self):
        dep = make_deployment()
        new_cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        dep.reconfig(new_cfg, 0)
        assert dep.reconfigurers[0].direct_transfers == 0
        assert dep.read(0).label == "v0"

    def test_fallback_to_baseline_for_abd_target(self):
        dep = make_deployment()
        dep.write(Value.of_size(300, label="x"), 0)
        abd_cfg = dep.make_configuration(dap="abd", fresh_servers=3)
        dep.reconfig(abd_cfg, 0)
        # The optimised path only applies between TREAS configurations.
        assert dep.reconfigurers[0].direct_transfers == 0
        assert dep.read(0).label == "x"

    def test_chain_of_direct_transfers(self):
        dep = make_deployment()
        dep.write(Value.of_size(450, label="v1"), 0)
        for round_number in range(3):
            cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
            dep.reconfig(cfg, round_number % 2)
        assert dep.read(0).label == "v1"
        total_direct = sum(r.direct_transfers for r in dep.reconfigurers)
        assert total_direct == 3

    def test_transfer_survives_crashes_within_tolerance(self):
        dep = make_deployment(num_servers=9, k=5, delta=4)
        dep.write(Value.of_size(500, label="x"), 0)
        # Crash f = (9-5)/2 = 2 servers of the source configuration.
        dep.network.crash(server_id(7))
        dep.network.crash(server_id(8))
        cfg = dep.make_configuration(dap="treas", fresh_servers=9, k=5)
        dep.reconfig(cfg, 0)
        assert dep.read(0).label == "x"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_atomicity_with_direct_transfer_and_concurrent_clients(self, seed):
        dep = make_deployment(seed=seed, delta=8)
        ops = []
        for index in range(2):
            ops.append(dep.spawn_write(dep.writers[index].next_value(120), index))
            ops.append(dep.spawn_read(index))
        cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        ops.append(dep.spawn_reconfig(cfg, 0))
        dep.run()
        assert all(op.exception() is None for op in ops)
        result = check_linearizability(dep.history)
        assert result.ok, result.reason
