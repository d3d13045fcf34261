"""Property tests over the chaos scenario registry.

Every registered scenario is executed under eight fixed seeds; each run must
keep liveness (no stalled or errored client session) *and* atomicity (the
recorded history passes the full linearizability checker plus the tag
monotonicity condition).  The whole ``0..200`` seed range is the CI
``seed-scan`` job's (``python -m repro.sweep --grid
"scenarios=all;seeds=0..200"``, which exits 1 on any failing cell).  A
second battery checks determinism: the same ``(scenario, seed)`` pair must
reproduce the history and the chaos log byte-for-byte.
"""

from __future__ import annotations

import pytest

from repro.workloads.scenarios import (
    SCENARIOS,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
)

ALL_SCENARIOS = scenario_names()

#: Listed, not drawn: no example database and no randomness decide whether
#: tier-1 passes.  Every scenario x seed in 0..999 verifies.  145, 146 and
#: 245 are ``store_migration_gc`` seeds whose timing has parked a reader
#: (145, 146) or a writer (245) on a round of two replies, two
#: retired-configuration refusals and one crashed server.  The round now
#: ends at the first retirement refusal (CHANGES.md, PR 28: one
#: retired-configuration NACK ends a round).
SEEDS = (0, 41, 97, 145, 146, 150, 200, 245)


class TestRegistry:
    def test_registry_is_populated(self):
        assert len(ALL_SCENARIOS) >= 8

    def test_every_dap_is_covered_by_every_core_fault_family(self):
        """The cross-product the issue asks for: DAP x {crash, partition, reconfig}."""
        for dap in ("abd", "ldr", "treas"):
            for fault in ("crash", "partition", "reconfig"):
                matching = [s for s in SCENARIOS.values()
                            if s.dap == dap and fault in s.faults]
                assert matching, f"no scenario covers dap={dap} fault={fault}"

    def test_lookup_errors_name_the_registry(self):
        with pytest.raises(KeyError, match="abd_crash_minority"):
            get_scenario("no_such_scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_scenario(SCENARIOS[ALL_SCENARIOS[0]])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ALL_SCENARIOS)
class TestScenariosAreAtomicAndLive:
    def test_scenario_survives_its_faults(self, name, seed):
        run_scenario(name, seed=seed).verify()


@pytest.mark.parametrize("name", ["abd_packet_chaos", "treas_gray_failure",
                                  "storm_mixed_dap_chaos"])
def test_same_seed_gives_identical_histories(name):
    first = run_scenario(name, seed=13)
    second = run_scenario(name, seed=13)
    assert first.signature() == second.signature()
    assert first.chaos_log == second.chaos_log


def test_different_seeds_give_different_executions():
    base = run_scenario("treas_gray_failure", seed=0)
    other = run_scenario("treas_gray_failure", seed=1)
    assert base.signature() != other.signature()


def test_run_result_exposes_diagnostics():
    result = run_scenario("treas_crash_restart", seed=3)
    assert result.workload.total_operations > 0
    assert any("crash" in text for _, text in result.chaos_log)
    assert "restart" in result.engine.describe_log()
    assert result.schedule.describe()
