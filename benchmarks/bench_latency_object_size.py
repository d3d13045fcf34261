"""E3 -- Operation latency vs. object size (ICDCS'19 evaluation figure family).

Sweeps the value size and reports read/write latency for an ABD-backed and a
TREAS-backed configuration of the same size.  In the simulator, message
*count* (two round trips for both algorithms) dominates simulated latency,
while real deployments also pay transmission time proportional to the bytes
sent; the bench therefore reports both the simulated latency and the bytes
each operation moved, whose ratio (TREAS moves ~k× less) is the shape the
paper's figure shows.  It asserts that TREAS moves fewer data bytes than ABD
per write and per read at every size.
"""

from __future__ import annotations

import pytest

from repro.analysis.costs import measure_operation_traffic
from repro.analysis.report import Table
from repro.common.values import Value
from repro.net.latency import UniformLatency
from repro.registers.static import StaticRegisterDeployment

SIZES = [1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22]
N_SERVERS = 11
K = 7


def run_one(kind: str, value_size: int, seed: int = 0):
    if kind == "treas":
        deployment = StaticRegisterDeployment.treas(
            num_servers=N_SERVERS, k=K, delta=2, num_writers=1, num_readers=1,
            latency=UniformLatency(1.0, 2.0), seed=seed)
    else:
        deployment = StaticRegisterDeployment.abd(
            num_servers=N_SERVERS, num_writers=1, num_readers=1,
            latency=UniformLatency(1.0, 2.0), seed=seed)
    write_traffic = measure_operation_traffic(
        deployment, deployment.writers[0].pid,
        lambda: deployment.write(Value.of_size(value_size, label="x"), 0),
        value_size=value_size, name="write")
    read_traffic = measure_operation_traffic(
        deployment, deployment.readers[0].pid,
        lambda: deployment.read(0), value_size=value_size, name="read")
    write_latency = deployment.history.writes()[-1].latency
    read_latency = deployment.history.reads()[-1].latency
    return write_latency, read_latency, write_traffic.data_bytes, read_traffic.data_bytes


@pytest.mark.experiment("E3")
def test_latency_and_traffic_vs_object_size(benchmark):
    table = Table(
        f"E3: latency (sim time) and data moved per operation vs value size "
        f"(n={N_SERVERS}, k={K})",
        ["size (B)", "abd write lat", "treas write lat", "abd read lat", "treas read lat",
         "abd write B", "treas write B", "abd read B", "treas read B"],
    )
    for size in SIZES:
        abd = run_one("abd", size)
        treas = run_one("treas", size)
        table.add_row(size, abd[0], treas[0], abd[1], treas[1],
                      abd[2], treas[2], abd[3], treas[3])
        assert treas[2] < abd[2] and treas[3] < abd[3], (size, abd, treas)
    table.print()

    benchmark(lambda: run_one("treas", 1 << 16))
if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from conftest import main

    raise SystemExit(main(__file__))
