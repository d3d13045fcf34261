"""Workload generation and the chaos scenario registry.

Closed-loop client drivers used by the integration tests, the examples and
the benchmark harness.  A workload drives the reader/writer (and optionally
reconfigurer) clients of a deployment with a configurable operation mix,
value size and think time; keyed workloads
additionally sample object keys from a uniform or hot-key Zipf
:class:`~repro.workloads.generator.KeyspaceSampler` to drive sharded store
deployments.  All randomness comes from seeded streams so runs are
reproducible.

The chaos scenario registry (:mod:`repro.workloads.scenarios`) names
seed-deterministic adversary experiments; ``python -m repro.workloads
--list-scenarios`` enumerates them and ``--markdown`` emits the scenario
catalog committed at ``docs/SCENARIOS.md``.
"""

from repro.workloads.generator import (
    ClosedLoopDriver,
    KeyspaceSampler,
    WorkloadResult,
    WorkloadSpec,
)
from repro.workloads.scenarios import run_scenario, scenario_names

__all__ = [
    "WorkloadSpec",
    "ClosedLoopDriver",
    "KeyspaceSampler",
    "WorkloadResult",
    "run_scenario",
    "scenario_names",
]
