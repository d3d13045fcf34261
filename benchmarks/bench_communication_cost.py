"""E2 -- Communication cost per operation (Theorem 3(ii)/(iii), Lemmas 39-40).

Measures the object-data bytes on the wire for one write and one read, in
TREAS and ABD configurations, and prints them next to the analytic costs
``n/k`` / ``(δ+2)·n/k`` (TREAS) and ``n`` / ``2n`` (ABD), normalised by the
value size.  The analytic read costs are the paper's worst cases, a read
that writes back.  It asserts the byte counts: a TREAS write sends one
``code.fragment_size(|v|)``-byte element to each of ``n`` servers and ABD
``n·|v|``; a quiet read, whose quorum agrees and so skips its write-back,
moves one element per server (TREAS, within the ``(δ+2)·n`` bound) or
``n·|v|`` (ABD); and an ABD read that overlaps a write and writes it back
moves exactly ``2n·|v|``.
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
from repro.common.ids import server_id
from repro.common.values import Value
from repro.core.deployment import AresDeployment
from repro.dap.abd import WRITE
from repro.erasure.rs import ReedSolomonCode
from repro.net.latency import FixedLatency

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


def register(dap: str, n: int, **kwargs) -> AresDeployment:
    """A static register: one configuration of ``n`` servers, no reconfigurer."""
    return AresDeployment(initial_dap=dap, num_servers=n, num_writers=1, num_readers=1,
                          num_reconfigurers=0, latency=FixedLatency(1.0), **kwargs)


def measure_treas(n: int, k: int, delta: int):
    return measure(register("treas", n, k=k, delta=delta))


def measure_abd(n: int):
    return measure(register("abd", n))


def measure_abd_write_back(n: int) -> int:
    """Data bytes on the wire for an ABD read that overlaps a write.

    A first write completes everywhere.  A second write's put-data reaches
    ``s0`` after the usual delay and the other servers 100 time units later.
    The read starts once it has reached ``s0``, so its quorum disagrees on
    the tag: every server replies with a value and the read writes the newer
    one back to all ``n``.
    """
    deployment = register("abd", n)
    deployment.write(Value.of_size(VALUE_SIZE, label="x"), 0)
    late = {server_id(index) for index in range(1, n)}
    deployment.network.add_delay_adjuster(
        lambda src, dest, message, delay:
            delay + 100 if message.kind == WRITE and dest in late else delay)
    deployment.spawn_write(Value.of_size(VALUE_SIZE, label="tau"), 0)
    deployment.sim.run_until(deployment.sim.now + 5)
    read_cost = measure_operation_traffic(
        deployment, deployment.readers[0].pid,
        lambda: deployment.read(0), value_size=VALUE_SIZE, name="read")
    assert deployment.history.reads()[-1].value_label == "tau"
    return read_cost.data_bytes


@pytest.mark.experiment("E2")
def test_communication_cost_table(benchmark):
    delta = 2
    table = Table(
        "E2: per-operation communication cost (units of value size)",
        ["n", "k", "treas write", "bound n/k", "treas read", "bound (d+2)n/k",
         "abd write", "bound n", "abd read", "abd read w/ write-back", "bound 2n"],
    )
    for n in (3, 6, 9, 12):
        k = -(-2 * n // 3)
        fragment = ReedSolomonCode(n, k).fragment_size(VALUE_SIZE)
        treas_write, treas_read = measure_treas(n, k, delta)
        abd_write, abd_read = measure_abd(n)
        abd_write_back = measure_abd_write_back(n)
        assert treas_write == n * fragment, (n, k, treas_write)
        assert treas_read == n * fragment, (n, k, treas_read)
        assert treas_read <= (delta + 2) * n * fragment, (n, k, treas_read)
        assert abd_write == n * VALUE_SIZE, (n, abd_write)
        assert abd_read == n * VALUE_SIZE, (n, abd_read)
        assert abd_write_back == 2 * n * VALUE_SIZE, (n, abd_write_back)
        table.add_row(n, k, treas_write / VALUE_SIZE, treas_write_cost(n, k),
                      treas_read / VALUE_SIZE, treas_read_cost(n, k, delta),
                      abd_write / VALUE_SIZE, abd_write_cost(n),
                      abd_read / VALUE_SIZE, abd_write_back / VALUE_SIZE,
                      abd_read_cost(n))
    table.print()

    benchmark(lambda: measure_treas(6, 4, delta))
if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from conftest import main

    raise SystemExit(main(__file__))
