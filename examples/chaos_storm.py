#!/usr/bin/env python3
"""Chaos storm: the scenario registry as an executable adversary.

Runs every named chaos scenario -- DAP (ABD / LDR / TREAS) crossed with
crashes, crash-recovery, partitions, gray failures, message chaos and
reconfiguration storms -- and checks each recorded history against the
linearizability spec.  The kitchen-sink ``storm_mixed_dap_chaos`` scenario's
fault schedule and chaos log are printed in full to show what the adversary
actually did.

Run with::

    python examples/chaos_storm.py            # every registered scenario
    python examples/chaos_storm.py --quick    # just the kitchen-sink storm
    python examples/chaos_storm.py --profile  # cProfile the showcase storm
"""

from __future__ import annotations

import sys

from repro.spec.linearizability import check_linearizability
from repro.workloads.scenarios import get_scenario, run_scenario, scenario_names

SHOWCASE = "storm_mixed_dap_chaos"


def run_one(name: str):
    scenario = get_scenario(name)
    result = run_scenario(name, seed=7)
    # check() is the single source of truth: liveness + linearizability +
    # tag monotonicity, per key for keyed (store) scenario histories.
    failure, _method = result.check()
    ok = failure is None
    status = "ok " if ok else "FAIL"
    print(f"  {status} {name:30s} dap={scenario.dap:5s} "
          f"faults={','.join(scenario.faults):40s} "
          f"ops={result.workload.total_operations:3d} "
          f"read={result.workload.mean_read_latency:5.1f} "
          f"write={result.workload.mean_write_latency:5.1f}")
    return ok, result


def main() -> int:
    quick = "--quick" in sys.argv[1:]
    names = [SHOWCASE] if quick else scenario_names()

    print(f"Chaos scenario registry: {len(scenario_names())} scenarios "
          f"({'running 1, --quick' if quick else 'running all'})\n")
    failures = 0
    storm = None
    for name in names:
        ok, result = run_one(name)
        failures += 0 if ok else 1
        if name == SHOWCASE:
            storm = result
    if storm is None:  # SHOWCASE not in names (cannot happen today, but cheap)
        storm = run_scenario(SHOWCASE, seed=7)
    if "--profile" in sys.argv[1:]:
        import cProfile
        import pstats

        with cProfile.Profile() as profiler:
            run_scenario(SHOWCASE, seed=7)
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
    print(f"\n--- {SHOWCASE}: fault schedule ---")
    print(storm.schedule.describe())
    print(f"\n--- {SHOWCASE}: chaos log (what actually fired) ---")
    print(storm.engine.describe_log())
    lin = check_linearizability(storm.history)
    print(f"\nStorm history: {len(storm.history)} operations, "
          f"{len(storm.history.reconfigs())} reconfigurations, "
          f"linearizable: {lin.ok}")
    print(f"Network: {storm.deployment.network.messages_delivered} delivered, "
          f"{storm.deployment.network.messages_dropped} dropped, "
          f"{storm.deployment.network.messages_duplicated} duplicated")
    if failures:
        print(f"\n{failures} scenario(s) FAILED")
        return 1
    return 0


if __name__ == "__main__":
    exit_code = main()
    if exit_code:  # plain return on success keeps runpy-based smoke tests happy
        raise SystemExit(exit_code)
