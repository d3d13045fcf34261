"""Tests for the analytic cost/latency formulas and their agreement with measurements."""

from __future__ import annotations

import pytest

from repro.analysis.costs import (
    abd_read_cost,
    abd_storage_cost,
    abd_write_cost,
    measure_operation_traffic,
    treas_read_cost,
    treas_storage_cost,
    treas_write_cost,
)
from repro.analysis.latency import (
    LatencyEnvelope,
    dap_bounds,
    min_delay_for_termination,
    put_config_bounds,
    read_config_bounds,
    read_next_config_bounds,
    reconfig_pipeline_lower_bound,
    rw_operation_upper_bound,
)
from repro.analysis.report import Table
from repro.common.values import Value
from repro.core.deployment import AresDeployment
from repro.net.latency import FixedLatency


class TestCostFormulas:
    def test_treas_formulas_match_theorem3(self):
        assert treas_storage_cost(n=6, k=4, delta=2) == pytest.approx(4.5)
        assert treas_write_cost(n=6, k=4) == pytest.approx(1.5)
        assert treas_read_cost(n=6, k=4, delta=2) == pytest.approx(6.0)

    def test_abd_formulas(self):
        assert abd_storage_cost(3) == 3
        assert abd_write_cost(3) == 3
        assert abd_read_cost(3) == 6

    def test_treas_beats_abd_for_reasonable_parameters(self):
        # The headline claim: for k ~ 2n/3 and small delta, TREAS stores and
        # moves substantially less data than replication.
        for n in range(5, 16):
            k = -(-2 * n // 3)
            assert treas_write_cost(n, k) < abd_write_cost(n)
            assert treas_storage_cost(n, k, delta=0) < abd_storage_cost(n)


class TestMeasuredCosts:
    def test_treas_write_traffic_matches_formula(self):
        n, k, value_size = 6, 4, 4000
        dep = AresDeployment(initial_dap="treas", num_servers=n, k=k, delta=2,
                             num_writers=1, num_readers=1, num_reconfigurers=0,
                             latency=FixedLatency(1.0))
        cost = measure_operation_traffic(
            dep, dep.writers[0].pid,
            lambda: dep.write(Value.of_size(value_size, label="x"), 0),
            value_size=value_size, name="write")
        assert cost.normalised == pytest.approx(treas_write_cost(n, k), rel=0.01)

    def test_treas_read_traffic_below_formula_bound(self):
        n, k, delta, value_size = 6, 4, 2, 4000
        dep = AresDeployment(initial_dap="treas", num_servers=n, k=k, delta=delta,
                             num_writers=1, num_readers=1, num_reconfigurers=0,
                             latency=FixedLatency(1.0))
        dep.write(Value.of_size(value_size, label="x"), 0)
        cost = measure_operation_traffic(
            dep, dep.readers[0].pid, lambda: dep.read(0),
            value_size=value_size, name="read")
        assert cost.normalised <= treas_read_cost(n, k, delta) + 0.01
        assert cost.normalised > 0

    def test_abd_write_traffic_matches_formula(self):
        n, value_size = 5, 2000
        dep = AresDeployment(initial_dap="abd", num_servers=n, num_writers=1, num_readers=1,
                             num_reconfigurers=0, latency=FixedLatency(1.0))
        cost = measure_operation_traffic(
            dep, dep.writers[0].pid,
            lambda: dep.write(Value.of_size(value_size, label="x"), 0),
            value_size=value_size, name="write")
        assert cost.normalised == pytest.approx(abd_write_cost(n), rel=0.01)

    def test_abd_read_traffic_below_formula_bound(self):
        n, value_size = 5, 2000
        dep = AresDeployment(initial_dap="abd", num_servers=n, num_writers=1, num_readers=1,
                             num_reconfigurers=0, latency=FixedLatency(1.0))
        dep.write(Value.of_size(value_size, label="x"), 0)
        cost = measure_operation_traffic(
            dep, dep.readers[0].pid, lambda: dep.read(0),
            value_size=value_size, name="read")
        assert cost.normalised <= abd_read_cost(n) + 0.01
        assert cost.normalised >= n  # query replies alone carry n copies

    def test_storage_measurement_matches_theorem3(self):
        n, k, delta, value_size = 6, 4, 2, 4000
        dep = AresDeployment(initial_dap="treas", num_servers=n, k=k, delta=delta,
                             num_writers=1, num_readers=1, num_reconfigurers=0,
                             latency=FixedLatency(1.0))
        for index in range(delta + 3):  # enough distinct tags to saturate the List
            dep.write(Value.of_size(value_size, label=f"x{index}"), 0)
        measured = dep.total_storage_data_bytes() / value_size
        assert measured == pytest.approx(treas_storage_cost(n, k, delta), rel=0.01)


class TestLatencyFormulas:
    def test_two_phase_bounds(self):
        assert put_config_bounds(1.0, 3.0) == (2.0, 6.0)
        assert read_next_config_bounds(0.5, 2.0) == (1.0, 4.0)
        assert dap_bounds(1.0, 1.0) == (2.0, 2.0)

    def test_read_config_bounds_scale_with_sequence_length(self):
        low1, high1 = read_config_bounds(1.0, 2.0, mu=0, nu=0)
        low3, high3 = read_config_bounds(1.0, 2.0, mu=0, nu=2)
        assert (low1, high1) == (4.0, 8.0)
        assert (low3, high3) == (12.0, 24.0)

    def test_rw_upper_bound(self):
        assert rw_operation_upper_bound(2.0, mu_start=0, nu_end=0) == pytest.approx(24.0)
        assert rw_operation_upper_bound(2.0, mu_start=0, nu_end=3) == pytest.approx(60.0)

    def test_reconfig_pipeline_lower_bound(self):
        # 4d * (1+2+...+k) + k (T(CN) + 2d)
        assert reconfig_pipeline_lower_bound(d=1.0, consensus_delay=10.0, k=3) == \
            pytest.approx(4 * 6 + 3 * 12)

    def test_min_delay_for_termination(self):
        value = min_delay_for_termination(D=2.0, consensus_delay=4.0, k=4)
        assert value == pytest.approx(3 * 2.0 / 4 - 4.0 / (2 * 6))

    def test_envelope_wrapper(self):
        env = LatencyEnvelope(d=1.0, D=2.0, consensus_delay=5.0)
        assert env.sequence_walk(0, 1) == read_config_bounds(1.0, 2.0, 0, 1)
        assert env.rw_operation(0, 1) == rw_operation_upper_bound(2.0, 0, 1)
        assert env.reconfig_pipeline(2) == reconfig_pipeline_lower_bound(1.0, 5.0, 2)
        assert env.termination_threshold(2) == min_delay_for_termination(2.0, 5.0, 2)


class TestTable:
    def test_render_alignment_and_content(self):
        table = Table("Example", ["name", "value"])
        table.add_row("alpha", 1)
        table.add_row("beta", 2.5)
        text = table.render()
        assert "Example" in text
        assert "alpha" in text and "2.500" in text
        assert len(text.splitlines()) == 6

    def test_row_arity_checked(self):
        table = Table("Example", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)
