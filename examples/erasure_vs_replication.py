#!/usr/bin/env python3
"""Erasure coding vs replication: the storage and bandwidth argument.

Reproduces the paper's motivating comparison (Section 1): storing an object
under the ABD algorithm (full replication) versus TREAS with an ``[n, k]``
MDS code.  The script runs both as static registers -- ARES deployments of
one configuration with no reconfigurer -- on the simulator, measures the
bytes stored on servers and the bytes moved per operation, and prints them
next to the analytic costs of Theorem 3.  The read formulas are worst cases,
a read that writes back; the measured read is quiet, so it skips its
write-back.

Run with::

    python examples/erasure_vs_replication.py
"""

from repro.analysis.costs import (
    abd_read_cost,
    abd_storage_cost,
    abd_write_cost,
    measure_operation_traffic,
    treas_read_cost,
    treas_storage_cost,
    treas_write_cost,
)
from repro.analysis.report import Table
from repro.common.values import Value
from repro.core.deployment import AresDeployment
from repro.net.latency import FixedLatency

VALUE_SIZE = 1 << 20  # 1 MiB object
N, K, DELTA = 9, 6, 2


def measure(kind: str):
    deployment = AresDeployment(
        initial_dap=kind, num_servers=N, k=K, delta=DELTA, num_writers=1, num_readers=1,
        num_reconfigurers=0, latency=FixedLatency(1.0))
    write = measure_operation_traffic(
        deployment, deployment.writers[0].pid,
        lambda: deployment.write(Value.of_size(VALUE_SIZE, label="object"), 0),
        value_size=VALUE_SIZE, name="write")
    read = measure_operation_traffic(
        deployment, deployment.readers[0].pid,
        lambda: deployment.read(0), value_size=VALUE_SIZE, name="read")
    storage = deployment.total_storage_data_bytes() / VALUE_SIZE
    return write.normalised, read.normalised, storage


def main() -> None:
    abd_write, abd_read, abd_storage = measure("abd")
    treas_write, treas_read, treas_storage = measure("treas")

    table = Table(
        f"Storing a 1 MiB object on n={N} servers (TREAS uses [n={N}, k={K}], delta={DELTA})",
        ["metric", "ABD measured", "ABD formula", "TREAS measured", "TREAS formula"],
    )
    table.add_row("storage (x object size)", abd_storage, abd_storage_cost(N),
                  treas_storage, treas_storage_cost(N, K, DELTA))
    table.add_row("write traffic (x object size)", abd_write, abd_write_cost(N),
                  treas_write, treas_write_cost(N, K))
    table.add_row("read traffic (x object size)", abd_read, abd_read_cost(N),
                  treas_read, treas_read_cost(N, K, DELTA))
    table.print()

    print()
    print(f"TREAS stores {abd_storage / treas_storage:.2f}x less data than ABD "
          f"and moves {abd_write / treas_write:.2f}x less data per write.")


if __name__ == "__main__":
    main()
