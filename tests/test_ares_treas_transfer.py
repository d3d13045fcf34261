"""Tests for the ARES-TREAS direct state transfer (Section 5, Algorithms 8 and 9)."""

from __future__ import annotations

import pytest

from repro.common.ids import server_id
from repro.common.values import Value
from repro.config.configuration import DapKind
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

    def test_transferred_elements_keep_the_list_bookkeeping_exact(self):
        # Algorithm 9 stores through ``insert`` only, so the incremental
        # figures of a transfer state equal a rescan of its ``List``.
        dep = make_deployment(delta=1)
        for round_number in range(3):
            dep.write(Value.of_size(450, label=f"v{round_number}"), round_number % 2)
            dep.write(Value.of_size(300, label=f"w{round_number}"), 0)
            cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4, delta=1)
            dep.reconfig(cfg, round_number % 2)
        states = [state for server in dep.servers.values()
                  for state in server.dap_states.values()]
        assert sum(r.direct_transfers for r in dep.reconfigurers) == 3
        assert all(isinstance(state, TreasTransferServerState) for state in states)
        for state in states:
            held = [e for e in state.list.values() if e is not None]
            assert len(held) <= 2
            assert state.storage_data_bytes() == sum(e.size for e in held)
            assert state.max_known_tag() == max(state.list)

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


class TestWriteBackAcrossAReconfiguration:
    """A read caught by a reconfiguration writes its pair into two
    configurations; only the one it decoded the pair from may reuse elements."""

    @pytest.mark.parametrize("direct", [True, False])
    @pytest.mark.parametrize("target", [dict(dap="treas", fresh_servers=8, k=5),
                                        dict(dap="abd", fresh_servers=3)])
    def test_second_put_data_of_the_propagation_encodes_in_full(
            self, direct, target, encode_calls):
        dep = make_deployment(direct=direct)
        value = Value.of_size(900, label="payload", fill=0x5A)
        dep.write(value, 0)
        old = dep.initial_configuration
        reader = dep.readers[0]
        run = dep.sim.run_until_complete
        # The read's first half, on cseq = [old] ...
        run(reader.spawn(reader.read_config(reader.cseq)))
        pair = run(reader.spawn(reader.dap_for(old).get_data()))
        # ... a reconfiguration completes underneath it ...
        new = dep.make_configuration(**target)
        dep.reconfig(new, 0)
        # ... and its propagation phase then walks old -> new.
        del encode_calls[:]
        run(reader.spawn(reader._register_propagate(reader.cseq, reader.dap_for, pair)))
        assert reader.cseq.config_at(reader.cseq.nu).cfg_id == new.cfg_id
        (old_code, old_known, _), *rest = encode_calls
        assert (old_code.n, old_code.k, len(old_known)) == (6, 4, 5)
        if new.dap is DapKind.TREAS:
            [(new_code, new_known, elements)] = rest
            assert (new_code.n, new_code.k, new_known) == (8, 5, [])
            assert elements == new.code.encode(value)
            for index, pid in enumerate(new.servers):
                state = dep.servers[pid].dap_states.get(new.cfg_id)
                if state is not None and state.coded_element_for(pair.tag) is not None:
                    assert state.coded_element_for(pair.tag) == elements[index]
        else:
            assert rest == []
        assert reader.dap_for(old)._decoded_from is None
        assert dep.read(1).label == "payload"
