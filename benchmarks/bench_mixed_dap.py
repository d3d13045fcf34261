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
from repro.spec.linearizability import check_linearizability
from repro.workloads.scenarios import reconfiguration_storm


def run_chain(num_reconfigs: int = 3, seed: int = 0):
    deployment, result = reconfiguration_storm(
        num_reconfigs=num_reconfigs, value_size=2048,
        direct_state_transfer=False, seed=seed)
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
