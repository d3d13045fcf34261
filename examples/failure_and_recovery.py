#!/usr/bin/env python3
"""Surviving server failures and migrating off a dying configuration.

Demonstrates the fault-tolerance story of the paper:

1. A TREAS ``[9, 5]`` configuration tolerates ``f = (n-k)/2 = 2`` server
   crashes: reads and writes keep completing after two servers die.
2. When more failures threaten the configuration, a reconfiguration client
   migrates the object to a fresh configuration; after the migration even the
   complete loss of the old servers does not affect the service.
3. A client crash in the middle of an operation leaves the register in a
   consistent state (the interrupted write either happened or it did not --
   the history stays atomic).

Run with::

    python examples/failure_and_recovery.py
"""

from repro.common.ids import server_id
from repro.common.values import Value
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.net.latency import UniformLatency
from repro.spec.linearizability import check_linearizability


def main() -> None:
    deployment = AresDeployment(DeploymentSpec(
        num_servers=9, initial_dap="treas", k=5, delta=6,
        num_writers=2, num_readers=2, num_reconfigurers=1,
        latency=UniformLatency(1.0, 2.0), seed=23))
    cfg0 = deployment.initial_configuration
    print("Initial configuration:", cfg0.describe())
    print("Crash tolerance f =", cfg0.max_crash_failures())

    deployment.write(Value.from_text("generation-1 data", label="gen1"), 0)

    # --- Phase 1: crashes within the tolerance --------------------------------
    victims = [server_id(7), server_id(8)]
    for victim in victims:
        deployment.network.crash(victim)
    print(f"\nCrashed {len(victims)} of {cfg0.n} servers "
          f"({', '.join(v.name for v in victims)}); operations continue:")
    print("  read ->", deployment.read(0).as_text())
    deployment.write(Value.from_text("written despite failures", label="gen1b"), 1)
    print("  write + read ->", deployment.read(1).as_text())

    # --- Phase 2: migrate away before more servers die ------------------------
    fresh = deployment.make_configuration(dap="treas", fresh_servers=9, k=5)
    deployment.reconfig(fresh, 0)
    print("\nMigrated to", fresh.describe())
    # Every client touches the service once while the old configuration is
    # still reachable, so their traversals pin the finalized new configuration.
    print("  read ->", deployment.read(0).as_text())
    print("  read ->", deployment.read(1).as_text())
    deployment.write(Value.from_text("generation-2 data", label="gen2"), 0)
    deployment.write(Value.from_text("generation-2 data (w1)", label="gen2b"), 1)

    # Now the entire old configuration dies.
    for index in range(7):
        deployment.network.crash(server_id(index))
    print("Old configuration is now completely dead; service still works:")
    print("  read ->", deployment.read(1).as_text())

    # --- Phase 3: a writer crashes mid-operation ------------------------------
    interrupted = deployment.spawn_write(
        Value.from_text("may or may not survive", label="interrupted"), 1)
    deployment.sim.run_until(deployment.sim.now + 1.0)
    deployment.writers[1].crash()
    deployment.sim.run()
    print("\nWriter-1 crashed mid-write; its operation",
          "failed" if interrupted.exception() is not None else "completed")
    final = deployment.read(0)
    print("  final read ->", final.as_text())

    result = check_linearizability(deployment.history)
    print("\nHistory linearizable despite crashes and migration:", result.ok)


if __name__ == "__main__":
    main()
