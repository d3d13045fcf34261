"""What every kind of deployment owes its consumers.

The workload driver, the chaos engine, ``install_metrics`` and the
benchmarks read a deployment by duck typing; these tests hold the two
kinds built on :class:`~repro.core.deployment.Deployment` to one surface,
and the static register -- an ARES deployment with no reconfigurer -- too.
"""

from __future__ import annotations

import pytest

from repro.chaos import At, ChaosEngine, Crash, Schedule
from repro.common.ids import server_id
from repro.core.deployment import AresDeployment
from repro.net.latency import UniformLatency
from repro.obs.registry import install_metrics
from repro.sim.process import RetryPolicy
from repro.spec.linearizability import check_linearizability_per_key
from repro.store import ShardSpec, StoreDeployment
from repro.workloads.generator import ClosedLoopDriver, WorkloadSpec

KINDS = {
    "ares": lambda **kw: AresDeployment(num_servers=5, initial_dap="abd", **kw),
    "store": lambda **kw: StoreDeployment(shards=(ShardSpec(dap="abd", num_servers=3),) * 2, **kw),
    "static": lambda **kw: AresDeployment(num_servers=5, initial_dap="abd",
                                          num_reconfigurers=0, **kw),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return request.param


def test_instrumented_chaotic_workload_verifies(kind):
    deployment = KINDS[kind](seed=3)
    engine = ChaosEngine(deployment.network).inject(Schedule([At(1, Crash("s0"))]))
    registry = install_metrics(deployment, engine=engine)
    clients = [*deployment.writers, *deployment.readers, *deployment.reconfigurers]
    assert all(process.metrics is registry
               for process in [*deployment.servers.values(), *clients])

    spec = WorkloadSpec(operations_per_writer=2, operations_per_reader=2, value_size=32,
                        num_keys=4 if deployment.keyed else 0)
    result = ClosedLoopDriver(deployment, spec).run()
    assert result.errors == [] and result.total_operations == 8
    assert deployment.servers[server_id(0)].crashed
    assert check_linearizability_per_key(deployment.history).ok

    assert deployment.stats is deployment.network.stats
    assert deployment.stats.global_record.total_bytes > 0
    assert deployment.total_storage_data_bytes() > 0
    assert deployment.configs_retired() == deployment.bytes_reclaimed() == 0


def test_latency_model_and_its_default(kind):
    assert isinstance(KINDS[kind]().network.latency, UniformLatency)
    chosen = UniformLatency(2.0, 3.0)
    assert KINDS[kind](latency=chosen).network.latency is chosen


@pytest.mark.parametrize("kind", ["ares", "store"])
def test_retry_reaches_readers_and_writers_only(kind):
    policy = RetryPolicy(attempts=3, timeout=10.0)
    deployment = KINDS[kind](retry=policy)
    assert all(client.retry_policy is policy
               for client in [*deployment.writers, *deployment.readers])
    assert deployment.reconfigurers
    assert all(client.retry_policy is None for client in deployment.reconfigurers)


def test_server_ids_keep_counting_from_the_pool_size(kind):
    deployment = KINDS[kind]()
    size = len(deployment.servers)
    assert deployment.add_servers(2) == [server_id(size), server_id(size + 1)]
    assert deployment.add_servers(1) == [server_id(size + 2)]
    assert list(deployment.servers)[size:] == [server_id(size + i) for i in range(3)]
    assert all(pid in deployment.network.processes for pid in deployment.servers)
