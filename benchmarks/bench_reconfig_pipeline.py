"""E5 -- Reconfiguration pipeline latency (Lemma 57 / Fig. 2).

Installs ``k`` configurations back-to-back and compares the total elapsed
simulated time with the analytic lower bound
``4d·Σ_{i=1..k} i + k(T(CN) + 2d)``.  The sweep varies both ``k`` and the
consensus delay ``T(CN)``.

The bound's ``Σ i`` term is Lemma 57's premise: the ``i``-th
reconfiguration discovers all ``i`` configurations before it, so each
install here is made by a reconfigurer that has never run (it starts at
``c0`` and walks the whole chain).  A single reconfigurer whose sequence is
current discovers nothing; its chain is checked against the phase table's
steady-state floor instead: ``5`` quorum rounds of ``2d`` plus ``T(CN)`` per
reconfiguration (``docs/ARCHITECTURE.md``, "Per-operation phase table").
"""

from __future__ import annotations

import pytest

from repro.analysis.latency import reconfig_pipeline_lower_bound
from repro.analysis.report import Table
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.net.latency import FixedLatency

DELAY = 1.0
#: Quorum rounds of a steady-state reconfiguration.
STEADY_STATE_ROUNDS = 5


def install_chain(k: int, consensus_delay: float, fresh: bool, seed: int = 0) -> float:
    """Virtual time to install ``k`` TREAS configurations one after another.

    ``fresh``: install the ``i``-th with reconfigurer ``i``, which starts at
    ``c0``; otherwise reconfigurer 0 installs them all.
    """
    deployment = AresDeployment(DeploymentSpec(
        num_servers=5, initial_dap="treas", delta=2, num_writers=1, num_readers=1,
        num_reconfigurers=k if fresh else 1, latency=FixedLatency(DELAY), seed=seed,
        consensus_delay=consensus_delay))
    start = deployment.sim.now
    for index in range(k):
        configuration = deployment.make_configuration(dap="treas", fresh_servers=5, k=4)
        deployment.reconfig(configuration, index if fresh else 0)
    return deployment.sim.now - start


@pytest.mark.experiment("E5")
def test_reconfiguration_pipeline_latency(benchmark):
    table = Table(
        f"E5: time to install k back-to-back configurations (d=D={DELAY})",
        ["k", "T(CN)", "walking from c0", "lower bound 4d*sum(i)+k(T(CN)+2d)",
         "one reconfigurer", f"floor k({STEADY_STATE_ROUNDS}*2d+T(CN))"],
    )
    for consensus_delay in (0.0, 5.0, 20.0):
        for k in (1, 2, 4, 6):
            walking = install_chain(k, consensus_delay, fresh=True)
            bound = reconfig_pipeline_lower_bound(DELAY, consensus_delay, k)
            current = install_chain(k, consensus_delay, fresh=False)
            floor = k * (STEADY_STATE_ROUNDS * 2 * DELAY + consensus_delay)
            table.add_row(k, consensus_delay, walking, bound, current, floor)
            assert walking >= bound
            assert current >= floor
    table.print()

    benchmark(lambda: install_chain(2, 5.0, fresh=True))


if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from conftest import main

    raise SystemExit(main(__file__))
