"""Unit tests for processes, the network, latency models and failure injection."""

from __future__ import annotations

import pytest

from repro.chaos import At, ChaosEngine, Crash, Drop, During, Heal, Partition, Schedule
from repro.common.errors import QuorumUnavailableError, SimulationError
from repro.common.ids import Role, config_id, reader_id, server_id, writer_id
from repro.config.configuration import Configuration
from repro.net.latency import AsymmetricLatency, FixedLatency, LatencyModel, UniformLatency
from repro.net.message import METADATA_FIELD_BYTES, Message, reply, request
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.sim.process import Process


class EchoServer(Process):
    """Replies to every request with an ack carrying the same body."""

    def on_message(self, src, message):
        if message.request_id is not None:
            self.send(src, reply(message, kind="ECHO", **message.body))


class Collector(Process):
    """Stores every unsolicited message it receives."""

    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message))


class TestMessages:
    def test_request_reply_round_trip_ids(self):
        req = request("PING", 7, x=1)
        assert req.request_id == 7
        resp = reply(req, kind="PONG", y=2)
        assert resp.in_reply_to == 7
        assert resp["y"] == 2

    def test_metadata_accounting(self):
        req = request("PING", 1, metadata_fields=3)
        assert req.metadata_bytes == 3 * METADATA_FIELD_BYTES
        assert req.total_bytes == req.metadata_bytes

    def test_data_bytes(self):
        req = request("PUT", 1, data_bytes=500)
        assert req.data_bytes == 500
        assert req.total_bytes == 500 + req.metadata_bytes

    def test_get_and_getitem(self):
        msg = Message(kind="X", body={"a": 1})
        assert msg["a"] == 1
        assert msg.get("missing", "default") == "default"


class TestLatencyModels:
    def test_fixed(self, sim):
        model = FixedLatency(2.5)
        assert model.sample(sim, writer_id(0), server_id(0)) == 2.5
        assert model.d == model.D == 2.5

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1)

    def test_uniform_bounds(self, sim):
        model = UniformLatency(1.0, 4.0)
        draws = [model.sample(sim, writer_id(0), server_id(0)) for _ in range(200)]
        assert all(1.0 <= x <= 4.0 for x in draws)
        assert model.d == 1.0 and model.D == 4.0

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(3.0, 1.0)

    def test_asymmetric_override(self, sim):
        model = AsymmetricLatency(
            default=FixedLatency(10.0),
            overrides={(Role.RECONFIGURER, None): FixedLatency(1.0)},
        )
        from repro.common.ids import reconfigurer_id

        assert model.sample(sim, reconfigurer_id(0), server_id(0)) == 1.0
        assert model.sample(sim, writer_id(0), server_id(0)) == 10.0
        assert model.d == 1.0 and model.D == 10.0

    def test_a_custom_model_sets_the_delivery_time(self, sim):
        class SevenLatency(LatencyModel):
            d = D = 7.0

            def sample(self, sim, src, dest):
                return 7.0

        network = Network(sim, latency=SevenLatency())
        sender = Collector(writer_id(0), network)
        receiver = Collector(server_id(0), network)
        sender.send(server_id(0), Message(kind="PING"))
        sim.run_until(6.9)
        assert receiver.received == []
        sim.run()
        assert sim.now == 7.0 and len(receiver.received) == 1


class TestNetworkDelivery:
    def test_message_delivered_after_latency(self, sim):
        network = Network(sim, latency=FixedLatency(3.0))
        sender = Collector(writer_id(0), network)
        receiver = Collector(server_id(0), network)
        sender.send(server_id(0), Message(kind="HELLO"))
        sim.run()
        assert len(receiver.received) == 1
        assert sim.now == 3.0

    def test_duplicate_registration_rejected(self, sim, network):
        Collector(writer_id(0), network)
        with pytest.raises(SimulationError):
            Collector(writer_id(0), network)

    def test_unknown_process_lookup(self, network):
        with pytest.raises(SimulationError):
            network.process(writer_id(99))

    def test_crashed_destination_drops_message(self, sim):
        network = Network(sim, latency=FixedLatency(1.0))
        sender = Collector(writer_id(0), network)
        receiver = Collector(server_id(0), network)
        receiver.crash()
        sender.send(server_id(0), Message(kind="HELLO"))
        sim.run()
        assert receiver.received == []
        assert network.messages_dropped == 1

    def test_crashed_sender_does_not_send(self, sim):
        network = Network(sim, latency=FixedLatency(1.0))
        sender = Collector(writer_id(0), network)
        receiver = Collector(server_id(0), network)
        sender.crash()
        sender.send(server_id(0), Message(kind="HELLO"))
        sim.run()
        assert receiver.received == []
        assert network.messages_sent == 0

    def test_stats_record_per_kind(self, sim):
        network = Network(sim, latency=FixedLatency(1.0))
        sender = Collector(writer_id(0), network)
        Collector(server_id(0), network)
        sender.send(server_id(0), Message(kind="PUT", data_bytes=100))
        sender.send(server_id(0), Message(kind="PUT", data_bytes=50))
        sender.send(server_id(0), Message(kind="GET"))
        sim.run()
        assert network.stats.by_kind("PUT").messages == 2
        assert network.stats.by_kind("PUT").data_bytes == 150
        assert network.stats.by_kind("GET").messages == 1

    def test_the_last_delay_adjuster_sees_the_final_delay(self, sim):
        network = Network(sim, latency=FixedLatency(1.0))
        sender = Collector(writer_id(0), network)
        receiver = Collector(server_id(0), network)
        seen = []
        network.add_delay_adjuster(lambda s, d, m, delay: delay + 2.0)

        def observe(src, dest, message, delay):
            seen.append((src, dest, message.kind, delay))
            return delay
        network.add_delay_adjuster(observe)
        sender.send(server_id(0), Message(kind="PING"))
        sim.run()
        assert seen == [(writer_id(0), server_id(0), "PING", 3.0)]
        assert sim.now == 3.0 and len(receiver.received) == 1


class TestQuorumGathering:
    def _build(self, sim, num_servers=5):
        network = Network(sim, latency=FixedLatency(1.0))
        client = Collector(reader_id(0), network)
        servers = [EchoServer(server_id(i), network) for i in range(num_servers)]
        return network, client, servers

    def test_gather_resolves_at_threshold(self, sim):
        network, client, servers = self._build(sim)
        gather = client.broadcast_and_gather(
            [s.pid for s in servers], lambda rid: request("PING", rid), threshold=3)
        sim.run()
        assert gather.done()
        assert len(gather.result()) == 3
        # Once the quorum is reached the gather is deregistered; the two late
        # replies fall through to the client's ordinary message handler.
        assert len(gather.responses) == 3
        assert len(client.received) == 2

    def test_gather_fails_fast_without_enough_live_servers(self, sim):
        network, client, servers = self._build(sim, num_servers=3)
        servers[0].crash()
        servers[1].crash()
        with pytest.raises(QuorumUnavailableError):
            client.broadcast_and_gather(
                [s.pid for s in servers], lambda rid: request("PING", rid), threshold=3)

    def test_scatter_and_gather_custom_payloads(self, sim):
        network, client, servers = self._build(sim)
        def make_factory(index):
            return lambda rid: request("PING", rid, index=index)

        messages = {s.pid: make_factory(idx) for idx, s in enumerate(servers)}
        gather = client.scatter_and_gather(messages, threshold=5)
        sim.run()
        indices = sorted(msg["index"] for _, msg in gather.result())
        assert indices == [0, 1, 2, 3, 4]

    def test_crashed_process_aborts_spawned_coroutines(self, sim):
        network, client, servers = self._build(sim)

        def op():
            yield client.broadcast_and_gather(
                [s.pid for s in servers], lambda rid: request("PING", rid), threshold=5)
            return "finished"

        handle = client.spawn(op())
        client.crash()
        sim.run()
        assert handle.done()
        assert handle.exception() is not None


class TestDeliveryEdgeCases:
    """Each delivery outcome is seen by the process and counted exactly once."""

    def _counters(self, network):
        return (network.messages_sent, network.messages_delivered,
                network.messages_dropped)

    def test_destination_registered_after_send_is_delivered(self, sim):
        network = Network(sim, latency=FixedLatency(1.0))
        sender = Collector(writer_id(0), network)
        sender.send(server_id(0), Message(kind="EARLY"))
        late = Collector(server_id(0), network)
        sim.run()
        assert [message.kind for _, message in late.received] == ["EARLY"]
        assert self._counters(network) == (1, 1, 0)

    def test_destination_never_registered_is_dropped(self, sim):
        network = Network(sim, latency=FixedLatency(1.0))
        sender = Collector(writer_id(0), network)
        sender.send(server_id(0), Message(kind="NOWHERE"))
        sim.run()
        assert self._counters(network) == (1, 0, 1)

    def test_destination_crashing_in_flight_drops_the_message(self, sim):
        network = Network(sim, latency=FixedLatency(2.0))
        sender = Collector(writer_id(0), network)
        receiver = Collector(server_id(0), network)
        sender.send(receiver.pid, Message(kind="HELLO"))
        sim.run_until(1.0)
        receiver.crash()
        sim.run()
        assert receiver.received == []
        assert self._counters(network) == (1, 0, 1)

    def test_restart_before_arrival_does_not_revive_the_message(self, sim):
        network = Network(sim, latency=FixedLatency(2.0))
        sender = Collector(writer_id(0), network)
        receiver = Collector(server_id(0), network)
        receiver.crash()
        sender.send(receiver.pid, Message(kind="DURING-OUTAGE"))
        sim.run_until(1.0)
        receiver.restart()
        sim.run()
        assert receiver.received == []
        assert self._counters(network) == (1, 0, 1)
        sender.send(receiver.pid, Message(kind="AFTER"))
        sim.run()
        assert [message.kind for _, message in receiver.received] == ["AFTER"]
        assert self._counters(network) == (2, 1, 1)

    def test_direct_two_argument_deliver(self, sim):
        network = Network(sim, latency=FixedLatency(1.0))
        receiver = Collector(server_id(0), network)
        receiver.deliver(writer_id(0), Message(kind="DIRECT"))
        assert [(src, message.kind) for src, message in receiver.received] == \
            [(writer_id(0), "DIRECT")]
        assert self._counters(network) == (0, 1, 0)
        receiver.crash()
        receiver.deliver(writer_id(0), Message(kind="DIRECT"))
        assert len(receiver.received) == 1
        assert self._counters(network) == (0, 1, 1)


class TestFailureInjection:
    def test_a_scheduled_crash_fires_at_its_time(self, sim):
        network = Network(sim, latency=FixedLatency(1.0))
        victim = Collector(server_id(0), network)
        ChaosEngine(network).inject(Schedule([At(5.0, Crash("s0"))]))
        sim.run_until(4.0)
        assert not victim.crashed
        sim.run_until(6.0)
        assert victim.crashed

    def test_max_tolerated_failures_formula(self):
        def treas(n, k):
            return Configuration.treas(config_id(0), [server_id(i) for i in range(n)], k=k)

        assert treas(5, 3).max_crash_failures() == 1
        assert treas(9, 5).max_crash_failures() == 2
        assert treas(3, 2).max_crash_failures() == 0

    def test_partition_blocks_cross_group_traffic(self, sim):
        network = Network(sim, latency=FixedLatency(1.0))
        a = Collector(writer_id(0), network)
        b = Collector(server_id(0), network)
        engine = ChaosEngine(network).inject(
            Schedule([At(1.0, Partition([a.pid], [b.pid])), At(5.0, Heal())]))
        sim.run_until(2.0)
        a.send(b.pid, Message(kind="HELLO"))
        sim.run_until(4.0)
        assert b.received == []
        assert network.messages_dropped == 1
        sim.run_until(6.0)
        assert engine.active == []
        a.send(b.pid, Message(kind="HELLO"))
        sim.run()
        assert len(b.received) == 1

    def test_partition_for_heals_automatically(self, sim):
        network = Network(sim, latency=FixedLatency(1.0))
        a = Collector(writer_id(0), network)
        b = Collector(server_id(0), network)
        ChaosEngine(network).inject(
            Schedule([During(0.5, 5.0, Partition([a.pid], [b.pid]))]))
        sim.run_until(1.0)
        a.send(b.pid, Message(kind="DURING"))
        sim.run_until(6.0)
        a.send(b.pid, Message(kind="AFTER"))
        sim.run()
        assert [message.kind for _, message in b.received] == ["AFTER"]

    def test_message_loss_model(self, sim):
        network = Network(sim, latency=FixedLatency(1.0))
        a = Collector(writer_id(0), network)
        b = Collector(server_id(0), network)
        ChaosEngine(network).inject(Schedule([During(0.5, 10.0, Drop(1.0))]))
        sim.run_until(1.0)
        a.send(b.pid, Message(kind="LOST"))
        sim.run()
        assert b.received == []


class TestTrafficScopes:
    def test_scope_attributes_traffic_to_owner(self, sim):
        network = Network(sim, latency=FixedLatency(1.0))
        a = Collector(writer_id(0), network)
        b = Collector(server_id(0), network)
        other = Collector(reader_id(0), network)
        scope = network.stats.open_scope("op", a.pid)
        a.send(b.pid, Message(kind="PUT", data_bytes=100))
        other.send(b.pid, Message(kind="PUT", data_bytes=999))
        record = network.stats.close_scope(scope)
        assert record.data_bytes == 100
        # traffic after closing the scope is not charged
        a.send(b.pid, Message(kind="PUT", data_bytes=50))
        assert record.data_bytes == 100

    def test_self_addressed_message_is_charged_to_its_scope_once(self, sim):
        # Regression: the scope loop visited the owner as sender *and* as
        # receiver, so an open scope saw 2 messages / 20 bytes where every
        # other ledger saw 1 / 10.
        network = Network(sim, latency=FixedLatency(1.0))
        a = Collector(server_id(0), network)
        scope = network.stats.open_scope("op", a.pid)
        network.stats.record(a.pid, a.pid, "X", 10, 16)
        record = network.stats.close_scope(scope)
        assert (record.messages, record.data_bytes, record.metadata_bytes) == (1, 10, 16)
        assert network.stats.global_record == record
        assert network.stats.by_kind("X") == record

    def test_scopes_charge_sender_and_receiver(self, sim):
        network = Network(sim, latency=FixedLatency(1.0))
        a = Collector(writer_id(0), network)
        b = Collector(server_id(0), network)
        other = Collector(reader_id(0), network)
        scopes = [network.stats.open_scope("peer", pid) for pid in (a.pid, b.pid, other.pid)]
        a.send(b.pid, Message(kind="PUT", data_bytes=10))
        sim.run()
        records = [network.stats.close_scope(scope) for scope in scopes]
        assert [record.data_bytes for record in records] == [10, 10, 0]
        assert [record.messages for record in records] == [1, 1, 0]

    def test_per_kind_ledgers_add_up_to_the_global_one(self, sim):
        network = Network(sim, latency=FixedLatency(1.0))
        a = Collector(writer_id(0), network)
        Collector(server_id(0), network)
        a.send(server_id(0), Message(kind="SPECIAL-KIND", data_bytes=5))
        a.send(server_id(0), Message(kind="PUT", data_bytes=7))
        per_kind = network.stats.per_kind
        assert sorted(per_kind) == ["PUT", "SPECIAL-KIND"]
        assert per_kind["SPECIAL-KIND"].messages == 1
        assert (sum(r.data_bytes for r in per_kind.values())
                == network.stats.global_record.data_bytes == 12)


class TestFastPathAndDuplicateAccounting:
    """PR 2: the zero-chaos fast path and per-copy traffic accounting."""

    def _pair(self, sim):
        network = Network(sim, latency=FixedLatency(1.0))
        a = Collector(server_id(0), network)
        b = Collector(server_id(1), network)
        return network, a, b

    def test_network_starts_quiet(self, sim):
        network, a, b = self._pair(sim)
        assert network._quiet is True

    def test_hooks_toggle_the_fast_path(self, sim):
        network, a, b = self._pair(sim)
        rule = lambda src, dest, message: False
        network.add_drop_filter(rule)
        assert network._quiet is False
        network.remove_drop_filter(rule)
        assert network._quiet is True
        adjuster = lambda src, dest, message, delay: delay
        network.add_delay_adjuster(adjuster)
        assert network._quiet is False
        network.remove_delay_adjuster(adjuster)
        assert network._quiet is True
        duplicator = lambda src, dest, message: 0
        network.add_duplicator(duplicator)
        assert network._quiet is False
        network.remove_duplicator(duplicator)
        assert network._quiet is True

    def test_fast_path_delivers_and_charges_stats(self, sim):
        network, a, b = self._pair(sim)
        a.send(b.pid, Message(kind="PUT", data_bytes=100))
        sim.run()
        assert len(b.received) == 1
        assert network.messages_delivered == 1
        assert network.stats.global_record.messages == 1
        assert network.stats.global_record.data_bytes == 100

    def test_fast_path_respects_crashed_destination(self, sim):
        network, a, b = self._pair(sim)
        b.crash()
        a.send(b.pid, Message(kind="PUT", data_bytes=10))
        sim.run()
        assert b.received == []
        assert network.messages_dropped == 1
        # Send-time bandwidth is still charged, as on the slow path.
        assert network.stats.global_record.messages == 1

    def test_duplicated_copies_consume_bandwidth(self, sim):
        network, a, b = self._pair(sim)
        network.add_duplicator(lambda src, dest, message: 2)
        scope = network.stats.open_scope("op", a.pid)
        a.send(b.pid, Message(kind="PUT", data_bytes=100, metadata_bytes=16))
        sim.run()
        # 1 original + 2 copies: all delivered, all on the wire.
        assert len(b.received) == 3
        assert network.messages_duplicated == 2
        assert network.stats.global_record.messages == 3
        assert network.stats.global_record.data_bytes == 300
        assert network.stats.global_record.metadata_bytes == 48
        assert network.stats.by_kind("PUT").messages == 3
        assert network.stats.close_scope(scope).messages == 3

    def test_dropped_message_still_charged_once(self, sim):
        network, a, b = self._pair(sim)
        network.add_drop_filter(lambda src, dest, message: True)
        network.add_duplicator(lambda src, dest, message: 5)
        a.send(b.pid, Message(kind="PUT", data_bytes=100))
        sim.run()
        # Dropped before duplication: only the send-time charge applies.
        assert b.received == []
        assert network.stats.global_record.messages == 1
        assert network.stats.global_record.data_bytes == 100

    def test_fast_and_slow_paths_deliver_identically(self):
        def run(with_noop_hook):
            sim = Simulator(seed=42)
            network = Network(sim, latency=UniformLatency(1.0, 2.0))
            a = Collector(server_id(0), network)
            b = Collector(server_id(1), network)
            if with_noop_hook:
                # A no-op adjuster forces the slow path without changing
                # behaviour; the delivery schedule must match the fast path.
                network.add_delay_adjuster(lambda src, dest, message, delay: delay)
            for i in range(50):
                a.send(b.pid, Message(kind="PING", data_bytes=i))
            sim.run()
            return [(m.data_bytes, round(sim.now, 6)) for _s, m in b.received]

        assert run(False) == run(True)
