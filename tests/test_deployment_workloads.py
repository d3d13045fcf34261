"""Tests for the deployment builder, the workload driver and workload families."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.common.ids import server_id
from repro.common.values import Value
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.net.latency import UniformLatency
from repro.spec.linearizability import check_linearizability
from repro.workloads.generator import ClosedLoopDriver, WorkloadSpec


class TestDeploymentBuilder:
    def test_default_spec(self):
        dep = AresDeployment()
        assert len(dep.servers) == 5
        assert len(dep.writers) == 2
        assert len(dep.readers) == 2
        assert len(dep.reconfigurers) == 1

    def test_keyword_overrides(self):
        dep = AresDeployment(num_servers=7, num_writers=1, initial_dap="abd")
        assert len(dep.servers) == 7
        assert dep.initial_configuration.dap.value == "abd"

    def test_spec_and_overrides_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            AresDeployment(DeploymentSpec(), num_servers=3)

    def test_add_servers_extends_pool(self):
        dep = AresDeployment(num_servers=4)
        added = dep.add_servers(3)
        assert len(added) == 3
        assert len(dep.servers) == 7
        assert added[0] == server_id(4)

    def test_make_configuration_with_existing_servers(self):
        dep = AresDeployment(num_servers=6)
        cfg = dep.make_configuration(dap="treas", servers=[server_id(i) for i in range(4)], k=3)
        assert cfg.n == 4 and cfg.k == 3

    def test_make_configuration_defaults_to_initial_servers(self):
        dep = AresDeployment(num_servers=5)
        cfg = dep.make_configuration(dap="abd")
        assert set(cfg.servers) == set(dep.initial_configuration.servers)

    def test_make_configuration_ldr(self):
        dep = AresDeployment(num_servers=5)
        cfg = dep.make_configuration(dap="ldr", fresh_servers=6)
        assert cfg.dap.value == "ldr"
        assert len(cfg.ldr_directories) == 3 and len(cfg.ldr_replicas) == 3

    def test_unknown_dap_rejected(self):
        dep = AresDeployment(num_servers=5)
        with pytest.raises(ConfigurationError):
            dep.make_configuration(dap="paxos-kv")

    def test_unique_config_ids(self):
        dep = AresDeployment(num_servers=5)
        a = dep.make_configuration(dap="abd")
        b = dep.make_configuration(dap="abd")
        assert a.cfg_id != b.cfg_id

    def test_storage_accounting_spans_configurations(self):
        dep = AresDeployment(num_servers=5, initial_dap="treas", delta=2)
        dep.write(Value.of_size(200, label="x"), 0)
        before = dep.total_storage_data_bytes()
        cfg = dep.make_configuration(dap="abd", fresh_servers=3)
        dep.reconfig(cfg, 0)
        after = dep.total_storage_data_bytes()
        assert after > before
        per_config = dep.storage_by_configuration()
        assert set(per_config) >= {dep.initial_configuration.cfg_id, cfg.cfg_id}


class TestWorkloadDriver:
    def test_driver_runs_all_sessions(self):
        dep = AresDeployment(num_servers=5, num_writers=2, num_readers=2, delta=6, seed=1)
        spec = WorkloadSpec(operations_per_writer=3, operations_per_reader=2, value_size=64)
        result = ClosedLoopDriver(dep, spec).run()
        assert result.errors == []
        assert result.total_operations == 2 * 3 + 2 * 2
        assert result.mean_write_latency > 0
        assert result.mean_read_latency > 0
        assert result.throughput > 0

    def test_driver_with_think_time(self):
        dep = AresDeployment(num_servers=5, num_writers=1, num_readers=1, delta=4, seed=2)
        spec = WorkloadSpec(operations_per_writer=2, operations_per_reader=2,
                            value_size=32, think_time=5.0)
        result = ClosedLoopDriver(dep, spec).run()
        assert result.errors == []
        assert result.duration > 0

    def test_workload_history_is_linearizable(self):
        dep = AresDeployment(num_servers=6, num_writers=3, num_readers=3, delta=8, seed=3)
        spec = WorkloadSpec(operations_per_writer=3, operations_per_reader=3, value_size=48)
        result = ClosedLoopDriver(dep, spec).run()
        assert result.errors == []
        assert check_linearizability(dep.history).ok

    def test_empty_workload(self):
        dep = AresDeployment(num_servers=5, num_writers=1, num_readers=1)
        spec = WorkloadSpec(operations_per_writer=0, operations_per_reader=0)
        result = ClosedLoopDriver(dep, spec).run()
        assert result.total_operations == 0
        assert result.throughput == 0.0


def drive(workload: WorkloadSpec, **spec):
    """A TREAS-initial deployment with one reconfigurer, driven by ``workload``."""
    deployment = AresDeployment(DeploymentSpec(
        initial_dap="treas", num_reconfigurers=1,
        latency=UniformLatency(1.0, 2.0), **spec))
    return deployment, ClosedLoopDriver(deployment, workload).run()


class TestScenarios:
    def test_read_heavy(self):
        dep, result = drive(
            WorkloadSpec(operations_per_writer=3, operations_per_reader=6, value_size=256),
            num_servers=6, delta=4, num_writers=1, num_readers=3, seed=1)
        assert result.errors == []
        assert len(result.read_latencies) > len(result.write_latencies)
        assert check_linearizability(dep.history).ok

    def test_write_heavy(self):
        dep, result = drive(
            WorkloadSpec(operations_per_writer=6, operations_per_reader=3, value_size=256),
            num_servers=6, delta=6, num_writers=3, num_readers=1, seed=1)
        assert result.errors == []
        assert len(result.write_latencies) > len(result.read_latencies)
        assert check_linearizability(dep.history).ok

    def test_mixed(self):
        dep, result = drive(
            WorkloadSpec(operations_per_writer=4, operations_per_reader=4,
                         value_size=128, think_time=1.0),
            num_servers=6, delta=4, num_writers=2, num_readers=2, seed=1)
        assert result.errors == []
        assert result.total_operations == 2 * 4 + 2 * 4
        assert check_linearizability(dep.history).ok

    @pytest.mark.parametrize("direct", [False, True])
    def test_reconfiguration_storm(self, direct):
        """Reads and writes while configurations alternate TREAS / ABD (Remark 22)."""
        dep = AresDeployment(DeploymentSpec(
            num_servers=5, initial_dap="treas", delta=8, num_writers=2, num_readers=2,
            num_reconfigurers=1, latency=UniformLatency(1.0, 2.0), seed=2,
            direct_state_transfer=direct))
        reconfigurer = dep.reconfigurers[0]

        def storm():
            for dap, fresh in (("treas", 5), ("abd", 3)):
                yield from reconfigurer.reconfig(
                    dep.make_configuration(dap=dap, fresh_servers=fresh))

        reconfigurer.spawn(storm(), label="reconfig-storm")
        result = ClosedLoopDriver(dep, WorkloadSpec(
            operations_per_writer=4, operations_per_reader=4,
            value_size=128, think_time=2.0)).run()
        assert result.errors == []
        assert len(dep.history.reconfigs()) == 2
        assert check_linearizability(dep.history).ok
