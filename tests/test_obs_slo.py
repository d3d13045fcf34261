"""SLO regression tests: recovery envelopes as first-class assertions.

The gray-degradation and reconfiguration scenarios carry calibrated SLOs
(see their registrations in ``repro.workloads.scenarios``): "p99 read
latency recovers within N virtual seconds of heal", "reconfiguration
completes within its envelope", "NACKs stay (near) zero".  These tests pin
that the envelopes hold on a small seed set -- a scheduler, retry-policy
or quorum regression that slows recovery now fails here *quantitatively*
even while every history stays perfectly linearizable.

The negative control is the proof the DSL measures anything at all:
replacing a scenario's healing fault window with a permanent (never
healed) fault must break its recovery SLO.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chaos.faults import LatencySpike
from repro.chaos.schedule import At, Schedule
from repro.obs import slo
from repro.obs.report import MetricsReport
from repro.workloads.scenarios import (get_scenario, run_scenario,
                                       run_scenario_instance)

#: Every scenario that registers SLOs, gated on a small tier-1 seed set.
SLO_SCENARIOS = (
    "abd_reconfig_crash",
    "treas_reconfig_partition",
    "ldr_reconfig_crash",
    "abd_gray_degradation",
    "treas_gray_degradation",
    "ldr_gray_degradation",
)

SEEDS = (0, 1)


def failures(result):
    """The failure messages among ``result``'s per-SLO verdicts."""
    return [failure for _, failure in result.slo_verdicts() if failure is not None]


def test_slo_scenarios_is_exactly_the_registered_set():
    from repro.workloads.scenarios import SCENARIOS

    with_slos = sorted(name for name, scenario in SCENARIOS.items()
                       if scenario.slos)
    assert with_slos == sorted(SLO_SCENARIOS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SLO_SCENARIOS)
def test_registered_slos_hold(name, seed):
    result = run_scenario(name, seed=seed, metrics=True)
    # One verdict per declared SLO, passing ones included, in order.
    assert [assertion for assertion, _ in result.slo_verdicts()] == \
        list(get_scenario(name).slos)
    assert failures(result) == []


def test_slo_verdicts_without_metrics_is_an_explicit_error():
    result = run_scenario("abd_gray_degradation", seed=0)
    with pytest.raises(ValueError, match="metrics=True"):
        result.slo_verdicts()


@pytest.mark.parametrize(
    "name", ("abd_gray_degradation", "treas_gray_degradation",
             "ldr_gray_degradation"))
def test_zero_nacks_at_fault_rate_zero(name):
    """At ``fault_rate=0`` the stochastic background arms nothing, so the
    retry/NACK machinery must be perfectly quiet -- the "zero NACKs at
    fault_rate=0" SLO, asserted inline with a strict zero bound."""
    scenario = replace(get_scenario(name), fault_rate=0.0,
                       slos=(slo.rate("nacks").below(0.0),
                             slo.rate("retries").below(0.0)))
    result = run_scenario_instance(scenario, seed=0, metrics=True)
    assert failures(result) == []
    assert result.metrics.counter_total("nacks") == 0


def test_negative_control_removing_heal_breaks_the_recovery_slo():
    """Swap ldr_gray_degradation's healing ``During`` window for a permanent
    ``At`` fault: the scripted heal never happens, the recovery SLO anchors
    on the background drain instead, and the assertion must fail.  This is
    the gate that the SLO DSL actually *measures* recovery rather than
    vacuously passing."""
    base = get_scenario("ldr_gray_degradation")
    never_heals = replace(
        base,
        schedule=lambda d: Schedule([At(12.0, LatencySpike(1.5))]))
    broken = run_scenario_instance(never_heals, seed=0, metrics=True)
    broken_failures = failures(broken)
    assert broken_failures, "recovery SLO passed despite the heal being removed"
    assert any("read_latency" in message for message in broken_failures)

    # Same seed, original scenario: the SLO holds, so the failure above is
    # attributable to the removed heal, not to the seed.
    healthy = run_scenario("ldr_gray_degradation", seed=0, metrics=True)
    assert failures(healthy) == []


def test_slo_failure_messages_are_actionable():
    """A broken bound names the series, the bound and the observed value."""
    report = run_scenario("abd_gray_degradation", seed=0,
                          metrics=True).metrics
    impossible = slo.p99("read_latency").within(0.001)
    message = impossible.evaluate(report)
    assert message is not None
    assert "read_latency" in message and "0.001" in message
    assert "worst window" in message

    # An empty window names the windows the query really covers (fixed
    # 20s widths: "after t=33" starts at 40) and the last one with samples.
    report = MetricsReport({
        "marks": {"heal": [28.0]},
        "histograms": {"read_latency": {
            "width": 20.0,
            "windows": [[0.0, 4, 4.5, 7.7, 7.7], [20.0, 2, 8.3, 8.8, 8.8],
                        [40.0, 0, 0.0, 0.0, 0.0]]}},
    })
    recovery = slo.p99("read_latency", after="heal", grace=5.0).within(75.0)
    message = recovery.evaluate(report)
    assert message == (
        "p99(read_latency, after=heal+5s) <= 75: no samples in "
        "'read_latency' after t=33 (windows starting >= 40, width 20); last "
        "non-empty window starts at t=20 with 2 samples")


def test_slo_value_object_semantics():
    """SLOs embed in frozen dataclasses: equality/hash follow description."""
    a = slo.p99("read_latency", after="heal", grace=5.0).within(10.0)
    b = slo.p99("read_latency", after="heal", grace=5.0).within(10.0)
    assert a == b and hash(a) == hash(b)
    assert a != slo.p99("read_latency").within(10.0)
    assert "read_latency" in repr(a)
