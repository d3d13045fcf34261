#!/usr/bin/env python3
"""Rolling reconfiguration under live client traffic.

The scenario the paper's introduction motivates: a storage service must be
moved across server generations (hardware upgrades, scale-up/scale-down)
without interrupting readers and writers.  This example keeps a closed-loop
read/write workload running while a reconfiguration client installs a chain
of configurations -- growing the cluster, changing the erasure-code
parameters, and even switching the per-configuration algorithm between ABD
(replication) and TREAS (erasure-coded) -- and finally verifies that the
combined history is atomic.

It also contrasts baseline ARES with the ARES-TREAS direct state transfer
(Section 5): with the optimisation enabled, the reconfiguration client stops
carrying object data entirely.

Run with::

    python examples/rolling_reconfiguration.py
"""

from repro.analysis.report import Table
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.net.latency import UniformLatency
from repro.spec.linearizability import check_linearizability
from repro.workloads.generator import ClosedLoopDriver, WorkloadSpec

OBJECT_SIZE = 1 << 16  # 64 KiB

#: The upgrade plan: (dap, fresh servers, k).
UPGRADE_PLAN = [
    ("treas", 6, 4),    # scale out to a new rack
    ("abd", 3, None),   # temporary replication-only configuration
    ("treas", 9, 6),    # final erasure-coded configuration
]


def run(direct_state_transfer: bool):
    deployment = AresDeployment(DeploymentSpec(
        num_servers=5, initial_dap="treas", delta=10, num_writers=2, num_readers=2,
        num_reconfigurers=1, latency=UniformLatency(1.0, 2.0), seed=11,
        direct_state_transfer=direct_state_transfer))
    reconfigurer = deployment.reconfigurers[0]
    # Everything the reconfigurer sends or receives from here on.
    reconfigurer_scope = deployment.stats.open_scope("rolling-upgrade", reconfigurer.pid)

    def rolling_upgrade():
        for dap, fresh, k in UPGRADE_PLAN:
            configuration = deployment.make_configuration(dap=dap, fresh_servers=fresh, k=k)
            yield from reconfigurer.reconfig(configuration)
        return None

    reconfigurer.spawn(rolling_upgrade(), label="rolling-upgrade")
    workload = ClosedLoopDriver(deployment, WorkloadSpec(
        operations_per_writer=5, operations_per_reader=5,
        value_size=OBJECT_SIZE, think_time=3.0))
    result = workload.run()

    reconfigurer_bytes = deployment.stats.close_scope(reconfigurer_scope).data_bytes
    return deployment, result, reconfigurer_bytes


def main() -> None:
    table = Table(
        "Rolling upgrade with live clients: baseline ARES vs ARES-TREAS direct transfer",
        ["variant", "ops", "mean write lat", "mean read lat", "reconfigs",
         "object bytes through reconfigurer", "linearizable"],
    )
    for direct in (False, True):
        deployment, result, reconfigurer_bytes = run(direct)
        linearizable = check_linearizability(deployment.history).ok
        table.add_row(
            "direct transfer" if direct else "baseline",
            result.total_operations, result.mean_write_latency,
            result.mean_read_latency, len(deployment.history.reconfigs()),
            reconfigurer_bytes, str(linearizable),
        )
        assert result.errors == []
    table.print()
    print()
    print("Every configuration in the upgrade plan was installed while reads and")
    print("writes kept completing, and the combined history stayed atomic.")


if __name__ == "__main__":
    main()
