"""Tests for the ARES-TREAS direct state transfer (Section 5, Algorithms 8 and 9)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.common.ids import config_id, reconfigurer_id, server_id, writer_id
from repro.common.tags import Tag
from repro.common.values import Value
from repro.config.configuration import Configuration, DapKind
from repro.config.sequence import Status
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.dap.treas import (FWD_CODE_ELEM, MD_BCAST_REQ_FW, PUT_DATA, QUERY_TAG,
                             TRANSFER_ACK, TreasServerState)
from repro.net.latency import FixedLatency, UniformLatency
from repro.net.message import Message
from repro.spec.linearizability import check_linearizability
from test_mutants import _slowed, dropped_forward_requests


def make_deployment(direct=True, **overrides):
    defaults = dict(num_servers=6, initial_dap="treas", delta=4, num_writers=2,
                    num_readers=2, num_reconfigurers=2, seed=0,
                    latency=UniformLatency(1.0, 2.0),
                    direct_state_transfer=direct)
    defaults.update(overrides)
    return AresDeployment(DeploymentSpec(**defaults))


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
        scope = dep.stats.open_scope("reconfig", reconfigurer.pid)
        new_cfg = dep.make_configuration(dap="treas", fresh_servers=9, k=5)
        dep.reconfig(new_cfg, 0)
        carried = dep.stats.close_scope(scope).data_bytes
        # Direct transfer: the reconfigurer exchanges only metadata (tags,
        # config records, acks); it never transports fragments of the object.
        assert carried == 0

    def test_baseline_reconfigurer_carries_the_object(self):
        dep = make_deployment(direct=False)
        value_size = 20_000
        dep.write(Value.of_size(value_size, label="big"), 0)
        reconfigurer = dep.reconfigurers[0]
        scope = dep.stats.open_scope("reconfig", reconfigurer.pid)
        new_cfg = dep.make_configuration(dap="treas", fresh_servers=9, k=5)
        dep.reconfig(new_cfg, 0)
        carried = dep.stats.close_scope(scope).data_bytes
        # Baseline ARES: the reconfigurer reads at least one full value worth
        # of fragments and writes n'/k' fragments out again.
        assert carried >= value_size

    def test_transfer_messages_flow_between_server_sets(self):
        dep = make_deployment()
        dep.write(Value.of_size(600, label="x"), 0)
        new_cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        dep.reconfig(new_cfg, 0)
        assert dep.stats.by_kind(MD_BCAST_REQ_FW).messages > 0
        assert dep.stats.by_kind(FWD_CODE_ELEM).messages > 0
        assert dep.stats.by_kind(TRANSFER_ACK).messages >= new_cfg.quorum_size

    def test_get_tag_loop_is_fenced(self):
        dep = make_deployment()
        dep.write(Value.of_size(400, label="x"), 0)
        old = dep.initial_configuration
        new_cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        reconfigurer = dep.reconfigurers[0]
        fences = {}
        to_target = []

        def note(src, dest, message, delay):
            if src == reconfigurer.pid and message.kind == QUERY_TAG:
                fences[message.config_id] = message.get("fence")
            if src == reconfigurer.pid and message.config_id is new_cfg.cfg_id:
                to_target.append(message.kind)
            return delay

        dep.network.add_delay_adjuster(note)
        dep.reconfig(new_cfg, 0)
        assert reconfigurer.direct_transfers == 1
        fence = fences.pop(old.cfg_id)
        assert (fence.config, fence.status) == (new_cfg, Status.PENDING)
        # The target receives no get-tag: the forwarded elements fill it.
        assert fences == {} and to_target == []

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
        assert all(isinstance(state, TreasServerState) for state in states)
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


class TestForwardOfAnInFlightWrite:
    @pytest.mark.parametrize("mutated", [False, True], ids=["protocol", "mutant"])
    def test_transfer_of_an_in_flight_write_completes(self, mutated, monkeypatch):
        """A source keeps a forward request until the element arrives.

        TREAS ``[6, 4]`` on ``s0``..``s5``; every message takes 1 unless
        slowed below.  The writer's put-data of ``tau`` reaches ``s0``..``s2``
        at 3 and ``s3``..``s5`` (``n - k + 1`` servers) only at 103.  The
        reconfiguration onto six fresh servers starts at 3.5; its get-tag
        quorum reports ``tau`` and its forward request reaches ``c0`` at
        10.5, when only three sources (``< k``) hold ``tau``'s element.  Under
        the protocol ``s3``..``s5`` keep the request and forward the element
        when the put-data brings it, so ``c1`` decodes and its acks reach the
        reconfigurer at 105.  Under the mutant they drop it, and the queue
        drains at 108 with the reconfiguration open.
        """
        if mutated:
            dropped_forward_requests(monkeypatch)
        dep = AresDeployment(num_servers=6, initial_dap="treas", k=4, num_writers=1,
                             num_readers=1, latency=FixedLatency(1.0),
                             direct_state_transfer=True)
        old = dep.initial_configuration
        _slowed(dep, {(dep.writers[0].pid, server, PUT_DATA): 100
                      for server in old.servers[3:]})
        new_cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        write = dep.spawn_write(Value.of_size(8, label="tau"))
        reconfigs = []
        dep.sim.schedule(3.5, lambda: reconfigs.append(dep.spawn_reconfig(new_cfg)))
        dep.run()
        assert write.done() and write.exception() is None
        assert (reconfigs[0].done(), dep.reconfigurers[0].direct_transfers) == \
            ((False, 0) if mutated else (True, 1))
        if not mutated:
            assert dep.read().label == "tau"
            assert check_linearizability(dep.history).ok
            for pid in old.servers:
                assert dep.servers[pid].dap_states[old.cfg_id].pending_forwards == {}

    def test_a_kept_request_is_served_by_its_element_or_dropped_below_the_window(self):
        cfg = Configuration.treas(config_id(0), [server_id(i) for i in range(6)], k=4, delta=1)
        target = Configuration.treas(config_id(1), [server_id(i) for i in range(6, 12)], k=4)
        state = TreasServerState(cfg, server_id(0))
        sent = []
        state.bind(SimpleNamespace(send=lambda dest, message: sent.append(message.kind)))
        element = cfg.code.encode(Value.of_size(40, label="x"))[0]
        t1, t2, t3, t4 = (Tag(z, writer_id(0)) for z in range(1, 5))

        def request(tag, broadcast_id):
            state.handle(reconfigurer_id(0), Message(
                kind=MD_BCAST_REQ_FW, config_id=cfg.cfg_id,
                body={"tag": tag, "target_config": target, "reconfigurer": reconfigurer_id(0),
                      "transfer_rid": broadcast_id, "broadcast_id": broadcast_id}))

        request(t2, 1)
        request(t4, 2)
        assert list(state.pending_forwards) == [t2, t4]
        assert FWD_CODE_ELEM not in sent
        state.insert(t3, element)
        assert list(state.pending_forwards) == [t2, t4]
        # t4's element arrives: its request is served, and t2 falls below the
        # window of delta + 1 = 2 elements (t3, t4), so its request goes.
        state.insert(t4, element)
        assert state.pending_forwards == {}
        assert sent.count(FWD_CODE_ELEM) == target.n
        request(t1, 3)
        assert state.pending_forwards == {}
        assert sent.count(FWD_CODE_ELEM) == target.n

    def test_each_role_creates_only_its_own_transfer_state(self):
        dep = make_deployment()
        dep.write(Value.of_size(300, label="x"), 0)
        dep.read(0)
        old = dep.initial_configuration
        states = [dep.servers[pid].dap_states[old.cfg_id] for pid in old.servers]
        assert all(state.seen_broadcasts is state.recons is None for state in states)
        new_cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        dep.reconfig(new_cfg, 0)
        assert all(state.seen_broadcasts and state.recons is None for state in states)
        for pid in new_cfg.servers:
            state = dep.servers[pid].dap_states[new_cfg.cfg_id]
            assert state.seen_broadcasts is None and state.recons


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
        # The read's first round, on cseq = [old], which names no link ...
        pair = run(reader.spawn(reader.dap_for(old).get_data()))
        assert reader.dap_for(old).next_config is None
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
