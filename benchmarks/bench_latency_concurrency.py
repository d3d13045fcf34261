"""E4 -- Operation latency vs. number of concurrent clients.

Sweeps the number of concurrent readers and writers driving an ABD-backed
and a TREAS-backed register and reports mean read/write latency.  The δ
parameter of the TREAS configuration is set to the writer count so that
reads stay live at every concurrency level (Theorem 9's requirement).
"""

from __future__ import annotations

import pytest

from repro.analysis.report import Table
from repro.core.deployment import AresDeployment
from repro.net.latency import UniformLatency
from repro.workloads.generator import ClosedLoopDriver, WorkloadSpec

CLIENT_COUNTS = [1, 2, 4, 8, 16]
VALUE_SIZE = 4096


def run_workload(kind: str, clients: int, seed: int = 0):
    deployment = AresDeployment(
        initial_dap=kind, num_servers=9, k=6, delta=max(2, 2 * clients),
        num_writers=clients, num_readers=clients, num_reconfigurers=0,
        latency=UniformLatency(1.0, 2.0), seed=seed)
    spec = WorkloadSpec(operations_per_writer=3, operations_per_reader=3,
                        value_size=VALUE_SIZE)
    result = ClosedLoopDriver(deployment, spec).run()
    assert result.errors == []
    return result


@pytest.mark.experiment("E4")
def test_latency_vs_concurrency(benchmark):
    table = Table(
        "E4: mean operation latency (sim time) vs concurrent clients per role (n=9)",
        ["clients", "abd write", "abd read", "treas write", "treas read", "treas ops/time"],
    )
    for clients in CLIENT_COUNTS:
        abd = run_workload("abd", clients)
        treas = run_workload("treas", clients)
        table.add_row(clients, abd.mean_write_latency, abd.mean_read_latency,
                      treas.mean_write_latency, treas.mean_read_latency,
                      treas.throughput)
    table.print()

    benchmark(lambda: run_workload("treas", 4))
if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from conftest import main

    raise SystemExit(main(__file__))
