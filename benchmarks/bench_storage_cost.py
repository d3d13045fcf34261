"""E1 -- Storage cost (Theorem 3(i) / Lemma 38).

Reproduces the storage-cost comparison between TREAS (``(δ+1)·n/k``) and
replication/ABD (``n``): for a sweep of ``n`` (with ``k = ⌈2n/3⌉``) and δ,
the bench saturates a register with writes, measures the object bytes stored
across all servers, normalises by the value size and prints the measured
figure next to the analytic one.  It asserts the byte counts exactly: TREAS
keeps ``δ+1`` coded elements of ``code.fragment_size(|v|)`` bytes on each of
``n`` servers (the figure exceeds ``(δ+1)·n/k`` only by the padding of ``|v|``
to a multiple of ``k``), ABD one ``|v|``-byte copy on each.
"""

from __future__ import annotations

import pytest

from repro.analysis.costs import abd_storage_cost, treas_storage_cost
from repro.analysis.report import Table
from repro.common.values import Value
from repro.erasure.rs import ReedSolomonCode
from repro.registers.static import StaticRegisterDeployment

VALUE_SIZE = 2048


def measured_treas_storage(n: int, k: int, delta: int, value_size: int = VALUE_SIZE) -> int:
    """Write enough distinct values to fill the List, return the stored object bytes."""
    deployment = StaticRegisterDeployment.treas(num_servers=n, k=k, delta=delta,
                                                num_writers=1, num_readers=1)
    for index in range(delta + 3):
        deployment.write(Value.of_size(value_size, label=f"w{index}"), 0)
    return deployment.total_storage_data_bytes()


def measured_abd_storage(n: int, value_size: int = VALUE_SIZE) -> int:
    deployment = StaticRegisterDeployment.abd(num_servers=n, num_writers=1, num_readers=1)
    for index in range(3):
        deployment.write(Value.of_size(value_size, label=f"w{index}"), 0)
    return deployment.total_storage_data_bytes()


@pytest.mark.experiment("E1")
def test_storage_cost_table(benchmark):
    table = Table(
        "E1: total storage cost (units of value size), TREAS [n, k=ceil(2n/3)] vs ABD",
        ["n", "k", "delta", "treas measured", "treas formula", "abd measured", "abd formula"],
    )
    for n in (3, 6, 9, 12):
        k = -(-2 * n // 3)
        fragment = ReedSolomonCode(n, k).fragment_size(VALUE_SIZE)
        abd_stored = measured_abd_storage(n)
        assert abd_stored == n * VALUE_SIZE
        for delta in (0, 2, 4):
            stored = measured_treas_storage(n, k, delta)
            assert stored == (delta + 1) * n * fragment, (n, k, delta, stored)
            table.add_row(n, k, delta, stored / VALUE_SIZE, treas_storage_cost(n, k, delta),
                          abd_stored / VALUE_SIZE, abd_storage_cost(n))
    table.print()

    benchmark(lambda: measured_treas_storage(6, 4, 2))
if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from conftest import main

    raise SystemExit(main(__file__))
