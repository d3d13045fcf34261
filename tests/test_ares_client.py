"""Tests for ARES read/write clients (Algorithm 7) and client-visible liveness."""

from __future__ import annotations

import pytest

from repro.common.ids import server_id
from repro.common.values import Value
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.net.latency import UniformLatency
from repro.spec.history import OperationType
from repro.spec.linearizability import check_linearizability, check_tag_monotonicity
from repro.spec.properties import check_dap_properties


def make_deployment(**overrides):
    defaults = dict(num_servers=6, initial_dap="treas", delta=6, num_writers=3,
                    num_readers=3, num_reconfigurers=2, seed=0,
                    latency=UniformLatency(1.0, 2.0), record_dap=True)
    defaults.update(overrides)
    return AresDeployment(DeploymentSpec(**defaults))


class TestBasicOperations:
    def test_write_then_read(self):
        dep = make_deployment()
        dep.write(Value.of_size(100, label="hello"), 0)
        assert dep.read(0).label == "hello"

    def test_read_before_any_write_returns_initial(self):
        dep = make_deployment()
        assert dep.read(0).label == "v0"

    def test_writes_from_different_writers_are_ordered(self):
        dep = make_deployment()
        tag_a = dep.write(Value.of_size(10, label="a"), 0)
        tag_b = dep.write(Value.of_size(10, label="b"), 1)
        tag_c = dep.write(Value.of_size(10, label="c"), 2)
        assert tag_a < tag_b < tag_c
        assert dep.read(0).label == "c"

    def test_client_sequence_grows_only_via_read_config(self):
        dep = make_deployment()
        writer = dep.writers[0]
        assert writer.cseq.nu == 0
        cfg = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
        dep.reconfig(cfg, 0)
        # The writer has not operated yet, so its local view is still short.
        assert writer.cseq.nu == 0
        dep.write(Value.of_size(10, label="x"), 0)
        assert writer.cseq.nu == 1

    def test_abd_backed_ares(self):
        dep = make_deployment(initial_dap="abd")
        dep.write(Value.of_size(50, label="a"), 0)
        assert dep.read(0).label == "a"

    def test_initial_configuration_subset_of_pool(self):
        dep = make_deployment(num_servers=8, initial_config_size=5)
        assert dep.initial_configuration.n == 5
        dep.write(Value.of_size(10, label="x"), 0)
        assert dep.read(0).label == "x"


class TestAtomicityUnderConcurrency:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_concurrent_reads_and_writes(self, seed):
        dep = make_deployment(seed=seed)
        ops = []
        for round_number in range(2):
            for index in range(3):
                ops.append(dep.spawn_write(dep.writers[index].next_value(48), index))
                ops.append(dep.spawn_read(index))
        dep.run()
        assert all(op.exception() is None for op in ops)
        result = check_linearizability(dep.history)
        assert result.ok, result.reason
        assert check_tag_monotonicity(dep.history) is None
        assert check_dap_properties(dep.dap_recorder) == []

    @pytest.mark.parametrize("seed", [0, 1])
    def test_atomicity_with_reconfigurations_in_flight(self, seed):
        dep = make_deployment(seed=seed, delta=10)
        ops = []
        for index in range(3):
            ops.append(dep.spawn_write(dep.writers[index].next_value(64), index))
            ops.append(dep.spawn_read(index))
        cfg_a = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        ops.append(dep.spawn_reconfig(cfg_a, 0))
        cfg_b = dep.make_configuration(dap="abd", fresh_servers=3)
        ops.append(dep.spawn_reconfig(cfg_b, 1))
        # Second wave of client operations, started a bit later.
        def delayed_ops():
            yield dep.writers[0].sleep(5.0)
            for index in range(3):
                ops.append(dep.spawn_write(dep.writers[index].next_value(64), index))
                ops.append(dep.spawn_read(index))
            return None

        dep.writers[0].spawn(delayed_ops())
        dep.run()
        assert all(op.exception() is None for op in ops)
        result = check_linearizability(dep.history)
        assert result.ok, result.reason


class TestLivenessUnderFailures:
    def test_operations_survive_f_crashes_in_current_configuration(self):
        dep = make_deployment(num_servers=9, k=5)  # f = 2
        dep.network.crash(server_id(7))
        dep.network.crash(server_id(8))
        dep.write(Value.of_size(64, label="x"), 0)
        assert dep.read(0).label == "x"

    def test_reconfiguration_away_from_failing_servers(self):
        # The motivating use-case: servers of the old configuration start
        # failing, a reconfiguration moves the data to healthy servers, and
        # the service keeps operating after the old configuration dies.
        dep = make_deployment(num_servers=6)
        dep.write(Value.of_size(128, label="precious"), 0)
        dep.network.crash(server_id(5))  # within tolerance
        fresh = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        dep.reconfig(fresh, 0)
        # Clients learn the new configuration while the old one is still up
        # (operations after finalization pin their traversal to the new
        # configuration, so the old servers are no longer needed afterwards).
        assert dep.read(0).label == "precious"
        dep.write(Value.of_size(128, label="after-migration"), 0)
        reader = dep.readers[0]
        writer = dep.writers[0]
        assert reader.cseq.mu >= 1 and writer.cseq.mu >= 1
        # Now the remaining old servers die too; clients that already migrated
        # keep operating against the new configuration alone.
        for index in range(5):
            dep.network.crash(server_id(index))
        dep.write(Value.of_size(128, label="after-death-of-c0"), 0)
        assert dep.read(0).label == "after-death-of-c0"

    def test_reader_crash_mid_operation_aborts_cleanly(self):
        dep = make_deployment(seed=3)
        handle = dep.spawn_read(0)
        dep.sim.run_until(1.0)
        dep.readers[0].crash()
        dep.sim.run()
        assert handle.exception() is not None
        # The rest of the system is unaffected.
        dep.write(Value.of_size(16, label="x"), 0)
        assert dep.read(1).label == "x"


class TestHistoryAndLatencies:
    def test_latencies_are_positive_and_bounded_by_lemma59(self):
        from repro.analysis.latency import rw_operation_upper_bound

        dep = make_deployment()
        dep.write(Value.of_size(64, label="x"), 0)
        dep.read(0)
        D = dep.latency_model.D
        bound = rw_operation_upper_bound(D, mu_start=0, nu_end=0)
        for latency in dep.history.latencies():
            assert 0 < latency <= bound

    def test_operation_counts(self):
        dep = make_deployment()
        dep.write(Value.of_size(16, label="a"), 0)
        dep.read(0)
        dep.read(1)
        assert len(dep.history.writes()) == 1
        assert len(dep.history.reads()) == 2
        assert len(dep.history.operations(OperationType.RECONFIG)) == 0
