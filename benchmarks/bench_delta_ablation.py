"""E10 (ablation) -- the garbage-collection / concurrency parameter δ.

δ is TREAS's central design knob: servers keep coded elements for the δ+1
highest tags, which (Theorem 3) costs `(δ+1)·n/k` storage and up to
`(δ+2)·n/k` read traffic, and (Theorem 9) guarantees read liveness for up to
δ writes concurrent with the read.  This ablation sweeps δ and reports, for a
fixed `[6, 4]` configuration under a concurrent workload:

* the measured storage footprint;
* the measured per-read data traffic;
* whether any read failed (liveness) when the writer concurrency exceeds δ.
"""

from __future__ import annotations

import pytest

from repro.analysis.costs import treas_read_cost, treas_storage_cost
from repro.analysis.report import Table
from repro.common.values import Value
from repro.core.deployment import AresDeployment
from repro.net.latency import UniformLatency
from repro.workloads.generator import ClosedLoopDriver, WorkloadSpec

N, K = 6, 4
VALUE_SIZE = 4096


def run_with_delta(delta: int, writers: int = 3, seed: int = 0):
    deployment = AresDeployment(
        initial_dap="treas", num_servers=N, k=K, delta=delta, num_writers=writers,
        num_readers=2, num_reconfigurers=0, latency=UniformLatency(1.0, 2.0), seed=seed)
    spec = WorkloadSpec(operations_per_writer=4, operations_per_reader=4,
                        value_size=VALUE_SIZE)
    result = ClosedLoopDriver(deployment, spec).run()
    storage_units = deployment.total_storage_data_bytes() / VALUE_SIZE
    read_traffic = deployment.stats.by_kind("TREAS-LIST").data_bytes
    reads = len(result.read_latencies)
    per_read_units = (read_traffic / reads / VALUE_SIZE) if reads else 0.0
    return result, storage_units, per_read_units


@pytest.mark.experiment("E10")
def test_delta_ablation(benchmark):
    table = Table(
        f"E10: delta ablation on a [{N}, {K}] TREAS register (3 writers, 2 readers)",
        ["delta", "storage (units)", "storage bound", "read list traffic (units)",
         "read bound", "read errors"],
    )
    for delta in (0, 1, 2, 4, 8):
        result, storage_units, per_read_units = run_with_delta(delta)
        table.add_row(delta, storage_units, treas_storage_cost(N, K, delta),
                      per_read_units, treas_read_cost(N, K, delta),
                      len(result.errors))
        # Storage never exceeds the Theorem 3 bound.
        assert storage_units <= treas_storage_cost(N, K, delta) + 1e-6
        # With delta >= number of concurrent writers, no read may fail.
        if delta >= 3:
            assert result.errors == []
    table.print()

    benchmark(lambda: run_with_delta(2))
if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from conftest import main

    raise SystemExit(main(__file__))
