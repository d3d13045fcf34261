"""E2 -- Communication cost per operation (Theorem 3(ii)/(iii), Lemmas 39-40).

Measures the object-data bytes on the wire for one write and one read, in
TREAS and ABD configurations, and prints them next to the analytic costs
``n/k`` / ``(δ+2)·n/k`` (TREAS) and ``n`` / ``2n`` (ABD), normalised by the
value size.  It asserts the byte counts: a TREAS write sends one
``code.fragment_size(|v|)``-byte element to each of ``n`` servers, a TREAS
read moves at most ``(δ+2)·n`` of them, and ABD moves ``n·|v|`` per write and
``2n·|v|`` per read.
"""

from __future__ import annotations

import pytest

from repro.analysis.costs import (
    abd_read_cost,
    abd_write_cost,
    measure_operation_traffic,
    treas_read_cost,
    treas_write_cost,
)
from repro.analysis.report import Table
from repro.common.values import Value
from repro.erasure.rs import ReedSolomonCode
from repro.net.latency import FixedLatency
from repro.registers.static import StaticRegisterDeployment

VALUE_SIZE = 8192


def measure(deployment):
    """Data bytes on the wire for one write, then one read, of ``deployment``."""
    write_cost = measure_operation_traffic(
        deployment, deployment.writers[0].pid,
        lambda: deployment.write(Value.of_size(VALUE_SIZE, label="x"), 0),
        value_size=VALUE_SIZE, name="write")
    read_cost = measure_operation_traffic(
        deployment, deployment.readers[0].pid,
        lambda: deployment.read(0), value_size=VALUE_SIZE, name="read")
    return write_cost.data_bytes, read_cost.data_bytes


def measure_treas(n: int, k: int, delta: int):
    return measure(StaticRegisterDeployment.treas(num_servers=n, k=k, delta=delta,
                                                  num_writers=1, num_readers=1,
                                                  latency=FixedLatency(1.0)))


def measure_abd(n: int):
    return measure(StaticRegisterDeployment.abd(num_servers=n, num_writers=1, num_readers=1,
                                                latency=FixedLatency(1.0)))


@pytest.mark.experiment("E2")
def test_communication_cost_table(benchmark):
    delta = 2
    table = Table(
        "E2: per-operation communication cost (units of value size)",
        ["n", "k", "treas write", "bound n/k", "treas read", "bound (d+2)n/k",
         "abd write", "bound n", "abd read", "bound 2n"],
    )
    for n in (3, 6, 9, 12):
        k = -(-2 * n // 3)
        fragment = ReedSolomonCode(n, k).fragment_size(VALUE_SIZE)
        treas_write, treas_read = measure_treas(n, k, delta)
        abd_write, abd_read = measure_abd(n)
        assert treas_write == n * fragment, (n, k, treas_write)
        assert treas_read <= (delta + 2) * n * fragment, (n, k, treas_read)
        assert abd_write == n * VALUE_SIZE, (n, abd_write)
        assert abd_read == 2 * n * VALUE_SIZE, (n, abd_read)
        table.add_row(n, k, treas_write / VALUE_SIZE, treas_write_cost(n, k),
                      treas_read / VALUE_SIZE, treas_read_cost(n, k, delta),
                      abd_write / VALUE_SIZE, abd_write_cost(n),
                      abd_read / VALUE_SIZE, abd_read_cost(n))
    table.print()

    benchmark(lambda: measure_treas(6, 4, delta))
if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from conftest import main

    raise SystemExit(main(__file__))
