"""Tests validating the Section 4.4 latency analysis against the simulator.

The simulator lets us fix ``d = D`` (FixedLatency), so the analytic bounds
become exact envelopes that measured latencies must respect.
"""

from __future__ import annotations

import pytest

from repro.analysis.latency import (
    LatencyEnvelope,
    read_config_bounds,
    reconfig_pipeline_lower_bound,
    rw_operation_upper_bound,
)
from repro.common.values import Value
from repro.consensus.paxos import ACCEPT
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.net.latency import FixedLatency
from repro.spec.history import OperationType


def fixed_deployment(delay=1.0, consensus_delay=0.0, **overrides):
    defaults = dict(num_servers=5, initial_dap="treas", delta=4, num_writers=1,
                    num_readers=1, num_reconfigurers=1, seed=0,
                    latency=FixedLatency(delay), consensus_delay=consensus_delay)
    defaults.update(overrides)
    return AresDeployment(DeploymentSpec(**defaults))


class TestReadConfigLatency:
    """Lemma 56's bound on the walk, timed on a reconfigurer's add-config.

    The walk rides Paxos phase 1: each link costs a prepare round plus the
    ``put-config`` of the link, and the walk ends on a prepare quorum that
    names none -- the shape of Algorithm 4's ``read-config``.
    """

    @staticmethod
    def walk_time(dep, reconfigurer):
        """Virtual time from the start of an add-config to its first accept."""
        accepts = []
        dep.network.add_delay_adjuster(
            lambda src, dest, message, delay:
                accepts.append(dep.sim.now) or delay
                if src == reconfigurer.pid and message.kind == ACCEPT else delay)
        start = dep.sim.now
        proposed = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
        dep.sim.run_until_complete(reconfigurer.spawn(
            reconfigurer._add_config(reconfigurer.cseq, proposed)))
        return accepts[0] - start

    def test_single_configuration_walk_within_bounds(self):
        delay = 1.0
        dep = fixed_deployment(delay=delay, num_reconfigurers=2)
        elapsed = self.walk_time(dep, dep.reconfigurers[1])
        low, high = read_config_bounds(delay, delay, mu=0, nu=0)
        # One prepare round is 2 delays; the paper's 4d(ν−µ+1) bound also
        # budgets the put-config of each discovered link, so the measured
        # time must not exceed the upper bound.
        assert 0 < elapsed <= high

    def test_walk_grows_with_installed_configurations(self):
        delay = 1.0
        dep = fixed_deployment(delay=delay, num_reconfigurers=2)
        for _ in range(2):
            cfg = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
            dep.reconfig(cfg, 0)
        stale = dep.reconfigurers[1]
        elapsed_long = self.walk_time(dep, stale)
        # A reconfigurer that already knows the chain proposes at once.
        elapsed_short = self.walk_time(dep, dep.reconfigurers[0])
        assert elapsed_long > elapsed_short
        low, high = read_config_bounds(delay, delay, mu=0, nu=2)
        assert elapsed_long <= high
        assert stale.cseq.config_at(2).cfg_id == dep.reconfigurers[0].cseq.config_at(2).cfg_id


class TestOperationLatency:
    @pytest.mark.parametrize("delay", [0.5, 1.0, 2.0])
    def test_rw_latency_within_lemma59_bound(self, delay):
        dep = fixed_deployment(delay=delay)
        dep.write(Value.of_size(64, label="x"), 0)
        dep.read(0)
        bound = rw_operation_upper_bound(delay, mu_start=0, nu_end=0)
        for latency in dep.history.latencies():
            assert latency <= bound

    def test_rw_latency_scales_with_discovered_configurations(self):
        delay = 1.0
        dep = fixed_deployment(delay=delay)
        baseline_tag = dep.write(Value.of_size(32, label="base"), 0)
        baseline_latency = dep.history.writes()[-1].latency
        for _ in range(3):
            cfg = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
            dep.reconfig(cfg, 0)
        # A fresh writer (empty local sequence) now has to traverse 4
        # configurations: its write takes longer than the baseline write, but
        # stays within the Lemma 59 envelope for ν = 3.
        dep.write(Value.of_size(32, label="after"), 0)
        long_latency = dep.history.writes()[-1].latency
        assert long_latency > baseline_latency
        assert long_latency <= rw_operation_upper_bound(delay, mu_start=0, nu_end=3)


class TestReconfigLatency:
    @pytest.mark.parametrize("consensus_delay", [0.0, 10.0])
    def test_single_reconfig_latency_exceeds_floor(self, consensus_delay):
        delay = 1.0
        dep = fixed_deployment(delay=delay, consensus_delay=consensus_delay)
        cfg = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
        dep.reconfig(cfg, 0)
        latency = dep.history.reconfigs()[0].latency
        floor = reconfig_pipeline_lower_bound(delay, consensus_delay, k=1)
        assert latency >= floor

    def test_back_to_back_reconfigs_respect_pipeline_bound(self):
        delay = 1.0
        consensus_delay = 5.0
        count = 3
        # Lemma 57's premise: install i is made by a reconfigurer that
        # starts at c0 and walks every configuration installed before it.
        dep = fixed_deployment(delay=delay, consensus_delay=consensus_delay,
                               num_reconfigurers=count)
        start = dep.sim.now
        for index in range(count):
            cfg = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
            dep.reconfig(cfg, index)
        elapsed = dep.sim.now - start
        floor = reconfig_pipeline_lower_bound(delay, consensus_delay, k=count)
        assert elapsed >= floor

    def test_consensus_delay_knob_slows_reconfiguration_only(self):
        fast = fixed_deployment(consensus_delay=0.0)
        slow = fixed_deployment(consensus_delay=50.0)
        for dep in (fast, slow):
            cfg = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
            dep.reconfig(cfg, 0)
            dep.write(Value.of_size(16, label="x"), 0)
        fast_reconfig = fast.history.reconfigs()[0].latency
        slow_reconfig = slow.history.reconfigs()[0].latency
        assert slow_reconfig >= fast_reconfig + 50.0
        fast_write = fast.history.writes()[0].latency
        slow_write = slow.history.writes()[0].latency
        assert slow_write == pytest.approx(fast_write)


class TestEnvelopeConsistency:
    def test_envelope_matches_module_functions(self):
        envelope = LatencyEnvelope(d=1.0, D=2.0, consensus_delay=3.0)
        assert envelope.sequence_walk(0, 2) == read_config_bounds(1.0, 2.0, 0, 2)
        assert envelope.rw_operation(0, 2) == rw_operation_upper_bound(2.0, 0, 2)
        assert envelope.reconfig_pipeline(4) == reconfig_pipeline_lower_bound(1.0, 3.0, 4)
