"""The fused quorum-round messaging path: equivalence and exact-count gates.

``Network.send_many`` is the one entry point onto the wire; ``send`` is its
one-element case.  These tests pin what lets it replace the old
per-destination body without moving a single golden signature: a batch
leaves the simulator, the counters and the traffic ledger exactly as the
same messages sent one at a time would, on every hook configuration; every
message put on the wire is delivered or dropped exactly once; and a quorum
round costs exactly the events, messages and ``Message`` objects the
protocol needs -- deterministic counts, so the gate is exact.
"""

from __future__ import annotations

import cProfile
import collections
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.ids import server_id, writer_id
from repro.net.latency import UniformLatency
from repro.net.message import Message, reply, request
from repro.net.network import Network
from repro.net.stats import TrafficStats
from repro.sim.core import Event, Simulator
from repro.sim.process import Process, RetryPolicy
from repro.store import ShardSpec, StoreDeployment, StoreSpec
from repro.workloads.generator import WorkloadSpec
from repro.workloads.scenarios import (ChaosScenario, run_scenario,
                                       run_scenario_instance, scenario_names)
from repro.chaos.schedule import Schedule

SERVERS = 6
MODES = ("quiet", "hooked", "crashed", "traced")


class _Recorder(Process):
    """Stores every message it receives, with the arrival time."""

    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.received = []

    def on_message(self, src, message):
        self.received.append((self.sim.now, src, message.kind, message.data_bytes))


class _Echo(Process):
    def on_message(self, src, message):
        self.send(src, reply(message))


def _send_and_snapshot(seed, deliveries, mode, batched):
    """Send ``deliveries`` (``(dest index, size)``) and describe the outcome.

    ``batched`` picks one ``send_many`` call or the equivalent ``send``s.
    """
    sim = Simulator(seed=seed)
    network = Network(sim, latency=UniformLatency(1.0, 2.0))
    sender = _Recorder(writer_id(0), network)
    servers = [_Recorder(server_id(index), network) for index in range(SERVERS)]
    observed = []
    if mode == "hooked":
        network.add_drop_filter(lambda src, dest, message: message.data_bytes % 7 == 3)
        network.add_duplicator(lambda src, dest, message: message.data_bytes % 3 - 1)
        network.add_delay_adjuster(
            lambda src, dest, message, delay: delay + dest.index - 2.5)

        def observe(src, dest, message, delay):  # installed last: sees final delays
            observed.append((dest, message.kind, sim.now + max(0.0, delay)))
            return delay
        network.add_delay_adjuster(observe)
    elif mode == "crashed":
        servers[0].crash()
    elif mode == "traced":
        sim.enable_trace()
    # One open scope per endpoint: the per-process view of the traffic.
    scopes = [network.stats.open_scope("op", process.pid)
              for process in (sender, *servers)]
    # Equal sizes share one Message object, as a quorum broadcast does.
    messages = {size: Message(kind=f"K{size % 4}", data_bytes=size)
                for _, size in deliveries}
    pairs = [(server_id(index), messages[size]) for index, size in deliveries]
    if batched:
        network.send_many(sender.pid, pairs)
    else:
        for dest, message in pairs:
            network.send(sender.pid, dest, message)
    queued = sorted(entry[:2] for entry in (*sim._queue, *sim._soon))
    rng_state = sim.rng.getstate()
    servers[0].restart()        # before delivery: sent_while_down still loses it
    sim.run()
    stats = network.stats
    return {
        "rng": rng_state,
        "queued": queued,
        "counters": (network.messages_sent, network.messages_delivered,
                     network.messages_dropped, network.messages_duplicated),
        "global": stats.global_record,
        "per_kind": stats.per_kind,
        "scopes": [stats.close_scope(scope) for scope in scopes],
        "observed": observed,
        "received": [server.received for server in servers],
        "trace": sim.trace,
    }


class TestSendManyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           deliveries=st.lists(st.tuples(st.integers(0, SERVERS - 1),
                                         st.integers(0, 40)), max_size=12),
           mode=st.sampled_from(MODES))
    def test_batch_equals_single_sends(self, seed, deliveries, mode):
        batch = _send_and_snapshot(seed, deliveries, mode, batched=True)
        singles = _send_and_snapshot(seed, deliveries, mode, batched=False)
        assert batch == singles

    def test_every_mode_exercises_its_path(self):
        deliveries = [(index % SERVERS, size) for index, size in
                      enumerate([0, 2, 3, 5, 8, 8, 11, 24])]
        quiet = _send_and_snapshot(1, deliveries, "quiet", batched=True)
        assert quiet["counters"] == (8, 8, 0, 0)
        assert quiet["scopes"][0].messages == quiet["global"].messages == 8
        assert sum(scope.messages for scope in quiet["scopes"][1:]) == 8
        hooked = _send_and_snapshot(1, deliveries, "hooked", batched=True)
        sent, delivered, dropped, duplicated = hooked["counters"]
        assert sent == 8 and dropped == 2 and duplicated == 5
        assert delivered == sent - dropped + duplicated == len(hooked["observed"])
        assert hooked["global"].messages == sent + duplicated
        assert min(at for _, _, at in hooked["observed"]) == 0.0     # clamped
        crashed = _send_and_snapshot(1, deliveries, "crashed", batched=True)
        assert crashed["counters"] == (8, 6, 2, 0)
        assert crashed["received"][0] == []
        traced = _send_and_snapshot(1, deliveries, "traced", batched=True)
        assert len(traced["trace"]) == 8
        assert traced["trace"][0].endswith("deliver K0 writer-0->server-0")
        assert traced["queued"] == quiet["queued"] and traced["rng"] == quiet["rng"]


class TestConservation:
    """Every copy put on the wire is charged once and ends exactly once.

    ``send_many`` counts a message as sent and charges every copy;
    ``Process.deliver`` (or a drop rule, or the fallback for a destination
    that never registered) counts each copy as delivered or dropped.  After
    the drain nothing is in flight, so the three tallies must agree, on
    every registered scenario, with the metrics plane off and on.
    """

    @pytest.mark.parametrize("metrics", (False, True), ids=("plain", "metrics"))
    @pytest.mark.parametrize("seed", (0, 41, 97))
    def test_sent_equals_delivered_plus_dropped(self, seed, metrics):
        for name in scenario_names():
            deployment = run_scenario(name, seed, metrics=metrics).deployment
            network = deployment.network
            assert deployment.sim.pending_events == 0, name
            on_wire = network.messages_sent + network.messages_duplicated
            assert (on_wire
                    == network.messages_delivered + network.messages_dropped
                    == network.stats.global_record.messages), name


class TestTrafficScopes:
    def test_closed_scopes_leave_nothing_behind(self):
        stats = TrafficStats()
        a, b = server_id(0), server_id(1)
        for index in range(1000):
            scope = stats.open_scope(f"op{index}", a)
            nested = stats.open_scope(f"nested{index}", a)
            stats.record(a, b, "PUT", 10, 16)
            assert stats.close_scope(nested).messages == 1
            assert stats.close_scope(scope).data_bytes == 10
        assert not stats._scopes        # record() is back on the no-scope path
        stats.record(a, b, "PUT", 10, 16)
        assert scope.record.messages == 1
        assert stats.global_record.messages == stats.by_kind("PUT").messages == 1001

    def test_a_scope_opened_late_counts_only_later_traffic(self):
        stats = TrafficStats()
        a, b = server_id(0), server_id(1)
        stats.record(a, b, "PUT", 10, 16)
        scope = stats.open_scope("op", b)
        stats.record(a, b, "GET", 0, 16)
        assert scope.record.messages == stats.by_kind("GET").messages == 1
        assert scope.record.metadata_bytes == 16 and scope.record.data_bytes == 0
        assert stats.global_record.messages == 2
        assert sorted(stats.per_kind) == ["GET", "PUT"]


def _record_constructions(monkeypatch, cls):
    """Collect every ``cls`` object constructed until the test ends."""
    built = []
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return built


@pytest.fixture
def constructed(monkeypatch):
    """Counts ``Message`` objects constructed while the test runs."""
    return _record_constructions(monkeypatch, Message)


@pytest.fixture
def handles(monkeypatch):
    """Counts cancellable ``Event`` handles constructed while the test runs."""
    return _record_constructions(monkeypatch, Event)


class TestExactCounts:
    """Deterministic cost gates of the fused quorum-round fast path: exact,
    so noise-free."""

    def _round(self, scatter):
        sim = Simulator(seed=0)
        network = Network(sim, latency=UniformLatency(1.0, 2.0))
        servers = [server_id(index) for index in range(5)]
        for pid in servers:
            _Echo(pid, network)
        client = _Recorder(writer_id(0), network)
        make = lambda rid: request("PING", rid)
        if scatter:
            gather = client.scatter_and_gather({pid: make for pid in servers}, threshold=3)
        else:
            gather = client.broadcast_and_gather(servers, make, threshold=3)
        sim.run()
        assert len(gather.result()) == 3 and not client._pending_gathers
        return sim, network

    def test_broadcast_round_builds_one_request(self, constructed):
        sim, network = self._round(scatter=False)
        assert len(constructed) == 1 + 5        # one request, one reply per server
        assert (network.messages_sent, sim.events_processed) == (10, 10)

    def test_scatter_round_builds_one_request_per_server(self, constructed):
        sim, network = self._round(scatter=True)
        assert len(constructed) == 5 + 5
        assert (network.messages_sent, sim.events_processed) == (10, 10)

    @staticmethod
    def _abd_store(ops, retry=None):
        return ChaosScenario(
            name="exact_counts_abd_store", description="3x ABD-5 store, no faults",
            dap="store", faults=(),
            deployment=lambda seed: StoreDeployment(StoreSpec(
                shards=(ShardSpec(dap="abd", num_servers=5),) * 3,
                num_writers=4, num_readers=4,
                latency=UniformLatency(1.0, 2.0), seed=seed, retry=retry)),
            schedule=lambda deployment: Schedule([]),
            workload=WorkloadSpec(
                operations_per_writer=ops // 16, operations_per_reader=ops // 16,
                value_size=64, think_time=0.0, num_keys=256, batch_size=2))

    def test_abd_store_costs_per_operation(self, constructed, handles):
        ops = 320
        scenario = self._abd_store(ops)
        profiler = cProfile.Profile()
        profiler.enable()
        result = run_scenario_instance(scenario, seed=0, streaming=True)
        failure = result.check()[0]
        profiler.disable()
        assert failure is None
        sim, network = result.deployment.sim, result.deployment.network
        # Every round is 5 requests + 5 replies, one request object and five
        # reply objects, the nextC link riding every reply.  A write is two
        # rounds (get-tag, put-data).  A read is one (get-data) when its
        # quorum agreed on the tag; exactly one of the 160 reads here saw a
        # disagreeing quorum and wrote back: 160 x 2 + 160 + 1 = 481 rounds.
        rounds = 481
        assert network.messages_sent == 10 * rounds == 4_810
        assert len(constructed) == 6 * rounds
        # Per round 10 deliveries + 1 resume, plus half an event per
        # operation for the batch coroutines: 481 x 11 + 160.
        assert sim.events_processed == 5_451
        assert sim.cancelled_events == 0
        # Deliveries and coroutine resumptions are never cancelled, so none
        # of the 5 451 events allocates a handle.
        assert handles == []
        calls = {"ids": collections.Counter(), "net": collections.Counter()}
        ids_py = os.path.join("repro", "common", "ids.py")
        net_dir = os.path.join("repro", "net", "")
        for entry in profiler.getstats():
            filename = getattr(entry.code, "co_filename", "")
            if filename.endswith(ids_py):
                calls["ids"][entry.code.co_name] += entry.callcount
            elif net_dir in filename:
                module = os.path.basename(filename)[:-3]
                calls["net"][f"{module}.{entry.code.co_name}"] += entry.callcount
        # Identifiers hash and compare in C, so the only Python-level calls
        # into common/ids.py are the 24 + 178 constructions (processes, one
        # ConfigId per key touched) and the names rendered by ``str()``: the
        # store client's get/put and multi_get/multi_put coroutine labels
        # (480) and the 8 workload sessions; gather labels read ``pid.name``
        # and cost none, and the tag checker keeps the records that raise
        # their key's maximum tag, formatting one only into a failure.  Every
        # one of the 20 messages is looked up by id in two to four dicts and
        # sets, so a Python ``__hash__`` would cost thousands of calls here.
        assert calls["ids"] == {"__new__": 202, "__str__": 488, "server_id": 15,
                                "writer_id": 4, "reader_id": 4,
                                "reconfigurer_id": 1}
        # Per message the network layer runs one ledger row (``record``) and
        # one latency draw, and nothing at all on arrival: the delivery
        # event calls ``Process.deliver`` directly.  The rest is per round
        # (``send_many``, ``alive_count``, ``request``) or per reply; every
        # round reads the link off its three quorum replies
        # (``message.get``).  ``__getitem__`` reads the first-round replies'
        # tags (and the returned value) and each put-data's tag, plus its
        # value only where the tag is new to the server, so its count
        # depends on the interleaving.
        messages = network.messages_sent
        assert calls["net"] == {
            "stats.record": messages, "latency.sample": messages,
            "network.send_many": 2_886, "message.__init__": 2_886,
            "message.reply": 2_405, "message.__getitem__": 3_046,
            "message.request": 481, "network.alive_count": 481,
            "message.get": 1_443,
            "network.register": 24, "network.__init__": 1, "stats.__init__": 1,
            "latency.__init__": 1}
        assert sum(calls["net"].values()) == 23_275     # 4.84 per message

    def test_armed_retry_costs_a_sweep_per_timeout_not_a_timer_per_round(
            self, constructed):
        ops = 320
        plain = run_scenario_instance(self._abd_store(ops), seed=0, streaming=True)
        del constructed[:]
        retry = RetryPolicy(attempts=9, timeout=30, base_delay=2, multiplier=2,
                            jitter=0.5)
        armed = run_scenario_instance(self._abd_store(ops, retry), seed=0,
                                      streaming=True)
        assert armed.check()[0] is None
        sim, network = armed.deployment.sim, armed.deployment.network
        clients = armed.deployment.writers + armed.deployment.readers
        # Arming retry without a fault changes nothing a client can see.
        assert armed.signature_hash() == plain.signature_hash()
        assert network.messages_sent == 4_810           # 481 rounds, as plain
        assert len(constructed) == 2_886
        assert sum(client.retries for client in clients) == 0
        assert sim.now == plain.deployment.sim.now == 125.27735937910563
        # Every extra event is one firing of a client's deadline sweep: it
        # finds the attempts queued over the last 30 vt completed, drops
        # them and re-arms at the deadline of the one in flight -- once per
        # client per ``timeout`` of virtual time (8 clients x 125 vt / 30),
        # where a Timer per attempt cost one extra resume hop *and* one
        # cancelled heap entry per round (481 of each).  The cancelled
        # events are the clients' last armed sweeps, dropped when their
        # session coroutine ends so that the final clock above is the plain
        # run's, not the last deadline.
        assert 0 < sim.events_processed - 5_451 <= ops // 2
        assert 0 < sim.cancelled_events <= len(clients) == 8
