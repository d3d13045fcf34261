"""E8 -- DAP adaptivity (Remark 22): mixed ABD/TREAS configuration chains.

ARES lets every configuration choose its own DAP implementation.  This bench
alternates TREAS- and ABD-backed configurations in one execution, keeps a
client workload running throughout, verifies atomicity of the combined
history and reports the per-configuration storage footprint together with
mean client latencies for each chain.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import Table
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.net.latency import UniformLatency
from repro.spec.linearizability import check_linearizability
from repro.workloads.generator import ClosedLoopDriver, WorkloadSpec


def run_chain(num_reconfigs: int = 3, seed: int = 0):
    """Client traffic while configurations alternate TREAS [5] / ABD [3]."""
    deployment = AresDeployment(DeploymentSpec(
        num_servers=5, initial_dap="treas", delta=8, num_writers=2, num_readers=2,
        num_reconfigurers=1, latency=UniformLatency(1.0, 2.0), seed=seed))
    reconfigurer = deployment.reconfigurers[0]

    def chain():
        for index in range(num_reconfigs):
            dap, fresh = ("treas", 5) if index % 2 == 0 else ("abd", 3)
            configuration = deployment.make_configuration(dap=dap, fresh_servers=fresh)
            yield from reconfigurer.reconfig(configuration)

    reconfigurer.spawn(chain(), label="reconfig-chain")
    spec = WorkloadSpec(operations_per_writer=4, operations_per_reader=4,
                        value_size=2048, think_time=2.0)
    result = ClosedLoopDriver(deployment, spec).run()
    assert result.errors == []
    assert check_linearizability(deployment.history).ok
    storage = deployment.storage_by_configuration()
    kinds = {cfg.cfg_id: cfg.dap.value for cfg in deployment.directory}
    return result, storage, kinds


@pytest.mark.experiment("E8")
def test_mixed_dap_chain(benchmark):
    result, storage, kinds = run_chain()
    table = Table(
        "E8: per-configuration storage after an alternating TREAS/ABD reconfiguration chain",
        ["configuration", "dap", "object bytes stored"],
    )
    for cfg_id in sorted(storage, key=lambda c: c.name):
        table.add_row(str(cfg_id), kinds.get(cfg_id, "?"), storage[cfg_id])
    table.print()

    summary = Table(
        "E8: client latency while the chain was being installed",
        ["mean write latency", "mean read latency", "operations"],
    )
    summary.add_row(result.mean_write_latency, result.mean_read_latency,
                    result.total_operations)
    summary.print()

    benchmark(lambda: run_chain(num_reconfigs=2, seed=1))
if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from conftest import main

    raise SystemExit(main(__file__))
