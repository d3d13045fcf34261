"""Randomised end-to-end atomicity tests.

Each test builds a deployment, drives a randomised concurrent mix of reads,
writes, reconfigurations and crash failures (all drawn from the seeded
simulator RNG so failures reproduce exactly), and then checks:

* every spawned operation either completed or failed only because its own
  client crashed;
* the recorded history is linearizable;
* tag monotonicity (Lemma 20) holds;
* the DAP consistency properties C1/C2 hold per configuration.

These are the library's strongest correctness tests: they exercise the full
stack (erasure coding, quorums, consensus, reconfiguration, state transfer)
under adversarial interleavings.
"""

from __future__ import annotations

import pytest

from repro.common.values import Value
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.net.latency import UniformLatency
from repro.spec.linearizability import check_linearizability, check_tag_monotonicity
from repro.spec.properties import check_dap_properties


def assert_execution_correct(deployment, operations):
    failures = [op for op in operations if op.exception() is not None]
    assert not failures, f"operations failed: {[repr(op.exception()) for op in failures]}"
    result = check_linearizability(deployment.history)
    assert result.ok, f"not linearizable: {result.reason}\n{deployment.history.describe()}"
    monotonicity = check_tag_monotonicity(deployment.history)
    assert monotonicity is None, monotonicity
    if deployment.dap_recorder is not None:
        violations = check_dap_properties(deployment.dap_recorder)
        assert violations == [], [str(v) for v in violations]


@pytest.mark.parametrize("seed", range(6))
def test_static_treas_random_concurrency(seed):
    dep = AresDeployment(
        initial_dap="treas", num_servers=7, k=5, delta=8, num_writers=3, num_readers=3,
        num_reconfigurers=0, latency=UniformLatency(1.0, 6.0), seed=seed, record_dap=True)
    ops = []
    for round_number in range(3):
        for index in range(3):
            ops.append(dep.spawn_write(dep.writers[index].next_value(64), index))
            ops.append(dep.spawn_read(index))
    dep.run()
    assert_execution_correct(dep, ops)


@pytest.mark.parametrize("seed", range(6))
def test_static_abd_random_concurrency(seed):
    dep = AresDeployment(
        initial_dap="abd", num_servers=5, num_writers=3, num_readers=3,
        num_reconfigurers=0, latency=UniformLatency(1.0, 6.0), seed=seed, record_dap=True)
    ops = []
    for round_number in range(3):
        for index in range(3):
            ops.append(dep.spawn_write(dep.writers[index].next_value(64), index))
            ops.append(dep.spawn_read(index))
    dep.run()
    assert_execution_correct(dep, ops)


@pytest.mark.parametrize("seed", range(4))
def test_ares_with_concurrent_reconfigurations(seed):
    dep = AresDeployment(DeploymentSpec(
        num_servers=6, initial_dap="treas", delta=12, num_writers=3, num_readers=3,
        num_reconfigurers=2, latency=UniformLatency(1.0, 4.0), seed=seed,
        record_dap=True))
    ops = []
    for index in range(3):
        ops.append(dep.spawn_write(dep.writers[index].next_value(96), index))
        ops.append(dep.spawn_read(index))
    cfg_a = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
    cfg_b = dep.make_configuration(dap="abd", fresh_servers=3)
    ops.append(dep.spawn_reconfig(cfg_a, 0))
    ops.append(dep.spawn_reconfig(cfg_b, 1))

    def second_wave():
        yield dep.writers[0].sleep(8.0)
        for index in range(3):
            ops.append(dep.spawn_write(dep.writers[index].next_value(96), index))
            ops.append(dep.spawn_read(index))
        return None

    dep.writers[0].spawn(second_wave())
    dep.run()
    assert_execution_correct(dep, ops)


@pytest.mark.parametrize("seed", range(4))
def test_ares_direct_transfer_with_concurrent_clients(seed):
    dep = AresDeployment(DeploymentSpec(
        num_servers=6, initial_dap="treas", delta=12, num_writers=2, num_readers=2,
        num_reconfigurers=1, latency=UniformLatency(1.0, 4.0), seed=seed,
        direct_state_transfer=True, record_dap=True))
    dep.write(Value.of_size(512, label="seed-value"), 0)
    ops = []
    for index in range(2):
        ops.append(dep.spawn_write(dep.writers[index].next_value(128), index))
        ops.append(dep.spawn_read(index))
    cfg = dep.make_configuration(dap="treas", fresh_servers=8, k=5)
    ops.append(dep.spawn_reconfig(cfg, 0))
    dep.run()
    assert_execution_correct(dep, ops)


@pytest.mark.parametrize("seed", range(3))
def test_ares_with_server_crashes_within_tolerance(seed):
    dep = AresDeployment(DeploymentSpec(
        num_servers=9, initial_dap="treas", k=5, delta=10, num_writers=2,
        num_readers=2, num_reconfigurers=1, latency=UniformLatency(1.0, 3.0),
        seed=seed, record_dap=True))
    # f = (9-5)/2 = 2: crash two random servers of the initial configuration
    # at a random time while operations are in flight.
    pool = list(dep.initial_configuration.servers)
    for _ in range(2):
        victim = dep.sim.rng.choice(pool)
        pool.remove(victim)
        dep.sim.schedule_at(5.0, dep.network.crash, args=(victim,))
    ops = []
    for round_number in range(2):
        for index in range(2):
            ops.append(dep.spawn_write(dep.writers[index].next_value(64), index))
            ops.append(dep.spawn_read(index))
    dep.run()
    assert_execution_correct(dep, ops)


@pytest.mark.parametrize("seed", range(3))
def test_mixed_dap_chain_remains_atomic(seed):
    """Remark 22: different DAPs in different configurations, one atomic object."""
    dep = AresDeployment(DeploymentSpec(
        num_servers=5, initial_dap="abd", delta=8, num_writers=2, num_readers=2,
        num_reconfigurers=1, latency=UniformLatency(1.0, 3.0), seed=seed,
        record_dap=True))
    ops = []
    dep.write(Value.of_size(100, label="initial"), 0)
    chain = [("treas", 6), ("abd", 3), ("treas", 5)]
    for index, (dap, fresh) in enumerate(chain):
        cfg = dep.make_configuration(dap=dap, fresh_servers=fresh)
        ops.append(dep.spawn_reconfig(cfg, 0))
        ops.append(dep.spawn_write(dep.writers[index % 2].next_value(100), index % 2))
        ops.append(dep.spawn_read(index % 2))
        dep.run()
    assert_execution_correct(dep, ops)
    # The latest value is readable through the final configuration.
    final_value = dep.read(0)
    assert final_value.label != "v0"
