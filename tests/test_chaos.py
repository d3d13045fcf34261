"""Unit tests for the chaos subsystem: faults, schedule DSL, engine, hooks."""

from __future__ import annotations

import pytest

from repro.chaos import (
    At,
    ChaosEngine,
    CpuPressure,
    Crash,
    Cut,
    DiskFull,
    Drop,
    Duplicate,
    During,
    Heal,
    Isolate,
    LatencySpike,
    Lossy,
    MemoryPressure,
    Partition,
    Refuse,
    Reorder,
    Restart,
    Schedule,
    Slow,
    SlowServer,
)
from repro.common.errors import SimulationError
from repro.common.ids import server_id
from repro.common.values import Value
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.net.latency import FixedLatency, UniformLatency
from repro.spec.linearizability import check_linearizability


def abd_deployment(seed: int = 0, latency=None) -> AresDeployment:
    return AresDeployment(DeploymentSpec(
        num_servers=5, initial_dap="abd", num_writers=1, num_readers=1,
        num_reconfigurers=1, latency=latency or UniformLatency(1.0, 2.0),
        seed=seed))


class TestScheduleDsl:
    def test_entries_are_validated(self):
        with pytest.raises(ValueError):
            At(-1.0, Crash("s0"))
        with pytest.raises(ValueError):
            At(5.0)  # no faults
        with pytest.raises(ValueError):
            During(10.0, 10.0, Crash("s0"))  # empty window
        with pytest.raises(ValueError):
            During(10.0, 5.0, Crash("s0"))  # inverted window
        with pytest.raises(TypeError):
            Schedule([Crash("s0")])  # bare fault, not At/During

    def test_partition_needs_two_groups(self):
        with pytest.raises(ValueError):
            Partition({"s0", "s1"})

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            Drop(1.5)
        with pytest.raises(ValueError):
            Duplicate(probability=-0.1)
        with pytest.raises(ValueError):
            Reorder(-1.0)

    def test_describe_is_time_ordered(self):
        schedule = Schedule([
            At(50, Crash("s3")),
            During(10, 20, Isolate("s4")),
        ])
        lines = schedule.describe().splitlines()
        assert lines[0].startswith("during [10, 20)")
        assert lines[1].startswith("at t=50")

    def test_schedules_merge(self):
        merged = Schedule([At(30, Crash("s1"))]) + Schedule([At(10, Crash("s0"))])
        assert len(merged) == 2
        assert merged.describe().splitlines()[0] == "at t=10: crash(s0)"


class TestEngineResolution:
    def test_shorthand_and_full_names(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        assert engine.resolve("s3") == server_id(3)
        assert engine.resolve("server-3") == server_id(3)
        assert engine.resolve(server_id(3)) == server_id(3)
        assert engine.resolve("w0").name == "writer-0"
        assert engine.resolve("r0").name == "reader-0"
        assert engine.resolve("g0").name == "reconfigurer-0"

    def test_unknown_target_raises(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        with pytest.raises(SimulationError):
            engine.resolve("s99")
        with pytest.raises(SimulationError):
            engine.resolve(server_id(99))


class TestFaultMechanics:
    def test_crash_and_restart(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        engine.inject(Schedule([At(5, Crash("s4")), At(15, Restart("s4"))]))
        deployment.sim.run_until(10)
        assert deployment.network.process(server_id(4)).crashed
        deployment.sim.run_until(20)
        assert not deployment.network.process(server_id(4)).crashed
        # A restarted server still answers quorum requests.
        deployment.write(Value.from_text("post-restart", label="v1"))
        assert deployment.read().label == "v1"

    def test_isolate_drops_cross_island_traffic_and_heals(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        engine.inject(Schedule([During(0.0001, 50, Isolate("s3", "s4"))]))
        deployment.write(Value.from_text("during partition", label="v1"))
        assert deployment.network.messages_dropped > 0
        deployment.sim.run_until(60)
        assert not engine.active  # window closed, hooks removed
        dropped_at_heal = deployment.network.messages_dropped
        deployment.write(Value.from_text("after heal", label="v2"))
        assert deployment.network.messages_dropped == dropped_at_heal

    def test_heal_stops_partitions_early(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        engine.inject(Schedule([
            During(1, 100, Isolate("s3")),
            At(5, Heal()),
        ]))
        deployment.sim.run_until(10)
        assert not engine.active
        # The During's stop entry at t=100 is a no-op after the heal.
        deployment.sim.run_until(110)
        assert not engine.active

    def test_duplicate_inflates_deliveries_but_not_quorums(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network, seed=1)
        engine.inject(Schedule([During(0.0001, 1000, Duplicate(1.0, copies=2))]))
        deployment.write(Value.from_text("dup", label="v1"))
        assert deployment.read().label == "v1"
        assert deployment.network.messages_duplicated > 0
        result = check_linearizability(deployment.history)
        assert result.ok, result.reason

    def test_slow_server_delays_only_its_traffic(self):
        deployment = abd_deployment(latency=FixedLatency(1.0))
        engine = ChaosEngine(deployment.network)
        engine.inject(Schedule([During(0.5, 1000, SlowServer("s0", factor=10.0))]))
        deployment.sim.run_until(1.0)  # spawn() sends synchronously; pass the window start
        deliveries = []

        def record(src, dest, message, delay):  # installed last: sees final delays
            deliveries.append((src, dest, delay))
            return delay
        deployment.network.add_delay_adjuster(record)
        deployment.write(Value.from_text("slow", label="v1"))
        slow = [d for s, d_, d in deliveries if s == server_id(0) or d_ == server_id(0)
                for d in [d]]
        fast = [d for s, d_, d in deliveries if s != server_id(0) and d_ != server_id(0)
                for d in [d]]
        assert slow and fast
        assert min(slow) == pytest.approx(10.0)
        assert max(fast) == pytest.approx(1.0)

    def test_latency_spike_slows_everything(self):
        deployment = abd_deployment(latency=FixedLatency(1.0))
        ChaosEngine(deployment.network).inject(
            Schedule([During(0.5, 1000, LatencySpike(factor=3.0, extra=0.5))]))
        deployment.sim.run_until(1.0)  # spawn() sends synchronously; pass the window start
        deliveries = []

        def record(src, dest, message, delay):  # installed last: sees final delays
            deliveries.append(delay)
            return delay
        deployment.network.add_delay_adjuster(record)
        deployment.write(Value.from_text("spike", label="v1"))
        assert min(deliveries) == pytest.approx(3.5)

    def test_drop_filters_by_destination(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network, seed=2)
        engine.inject(Schedule([During(0.0001, 1000, Drop(1.0, dst=("s4",)))]))
        deployment.write(Value.from_text("lossy", label="v1"))
        assert deployment.read().label == "v1"  # majority of 5 unaffected
        assert deployment.network.messages_dropped > 0

    def test_fault_object_reused_across_overlapping_windows(self):
        # One fault instance in two overlapping During windows: the first
        # stop must retire only its own activation, not the second window's.
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        fault = Isolate("s4")
        engine.inject(Schedule([During(1, 10, fault), During(5, 20, fault)]))
        deployment.sim.run_until(7)
        assert engine.active == [fault, fault]
        assert len(deployment.network._drop_filters) == 2
        deployment.sim.run_until(15)
        assert engine.active == [fault]  # second window still active
        assert len(deployment.network._drop_filters) == 1
        deployment.sim.run_until(25)
        assert engine.active == []
        assert not deployment.network._drop_filters

    def test_messages_sent_during_downtime_are_lost_despite_restart(self):
        # A request addressed to a crashed server must not be delivered even
        # when the server restarts before the delivery time arrives.
        deployment = abd_deployment(latency=FixedLatency(5.0))
        engine = ChaosEngine(deployment.network)
        engine.inject(Schedule([At(1, Crash("s4")), At(3, Restart("s4"))]))
        deployment.sim.run_until(2)  # s4 is down
        from repro.net.message import Message

        dropped_before = deployment.network.messages_dropped
        deployment.network.send(server_id(0), server_id(4), Message(kind="PING"))
        deployment.sim.run_until(10)  # restart at 3, delivery due at 7
        assert not deployment.network.process(server_id(4)).crashed
        assert deployment.network.messages_dropped == dropped_before + 1

    def test_chaos_log_is_timestamped(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        engine.inject(Schedule([At(7, Crash("s4")), During(3, 9, Isolate("s3"))]))
        deployment.sim.run_until(20)
        times = [t for t, _ in engine.log]
        assert times == sorted(times) == [3, 7, 9]
        assert "crash(s4)" in engine.describe_log()


#: Every vocabulary constructor (and ``Duplicate``): the effect it builds,
#: its ``describe()`` text -- recorded in the chaos log, hence in every
#: golden signature -- and what one ABD write under it shows: whether any
#: message was dropped, and whether the engine RNG advanced.
VOCABULARY = [
    (Partition({"s0"}, {"s1"}), Cut, "partition({s0} | {s1})", True, False),
    (Isolate("s3", "s4"), Cut, "isolate(s3, s4)", True, False),
    (Drop(1.0, src="s4"), Lossy, "drop(p=1.0 from s4)", True, True),
    (Drop(1.0, src=["s1"], dst=["s2", "s3"]), Lossy,
     "drop(p=1.0 from s1 to s2, s3)", False, False),
    # An explicitly empty list matches no link: nothing drops, no coin.
    (Drop(1.0, dst=[]), Lossy, "drop(p=1.0 to )", False, False),
    (Duplicate(0.25), Duplicate, "duplicate(p=0.25, copies=1)", False, True),
    # Zero jitter still draws its uniform, one per message.
    (Reorder(0.0), Slow, "reorder(jitter=0.0)", False, True),
    (LatencySpike(1.5), Slow, "latency_spike(factor=1.5, extra=0.0)", False, False),
    (SlowServer("s0", factor=4.0), Slow, "slow_server(s0, factor=4.0, extra=0.0)",
     False, False),
    (CpuPressure(), Slow, "cpu_pressure(all servers, factor=3.0, extra=0.0)",
     False, False),
    (CpuPressure("s3", extra=0.5), Slow, "cpu_pressure(s3, factor=3.0, extra=0.5)",
     False, False),
    (MemoryPressure(4096), Refuse, "memory_pressure(all servers, budget=4096B)",
     False, False),
    (MemoryPressure(0, "s4"), Refuse, "memory_pressure(s4, budget=0B)", False, False),
    (DiskFull("s4"), Refuse, "disk_full(s4)", False, False),
]


class TestVocabulary:
    @pytest.mark.parametrize("fault, effect, text, drops, draws", VOCABULARY,
                             ids=[row[2] for row in VOCABULARY])
    def test_each_name_is_one_effect_with_its_own_text(self, fault, effect, text,
                                                       drops, draws):
        assert isinstance(fault, effect)
        assert fault.describe() == text
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network, seed=3)
        engine.inject(Schedule([During(0.5, 1000, fault)]))
        deployment.sim.run_until(1.0)
        state = engine.rng.getstate()
        deployment.write(Value.from_text("probe", label="v1"))
        assert engine.log[0] == (0.5, f"start {text}")
        assert (deployment.network.messages_dropped > 0) == drops
        assert (engine.rng.getstate() != state) == draws


class TestSubstrateHooks:
    def test_quorum_gather_dedupes_repeated_responders(self):
        from repro.sim.core import Simulator
        from repro.sim.futures import QuorumFuture

        future = QuorumFuture(Simulator(), threshold=2)
        future.add_response(("a", 1), key="a")
        future.add_response(("a", 2), key="a")
        assert not future.done()
        assert future.duplicates_ignored == 1
        future.add_response(("b", 3), key="b")
        assert future.done()
        assert [key for key, _ in future.result()] == ["a", "b"]

    def test_restart_is_noop_for_running_process(self):
        deployment = abd_deployment()
        deployment.network.restart(server_id(0))
        assert not deployment.network.process(server_id(0)).crashed
