"""ARES: Adaptive, Reconfigurable, Erasure-coded, atomic Storage.

A full reproduction of the ARES / TREAS protocol suite (Cadambe, Nicolaou,
Konwar, Prakash, Lynch, Medard -- ICDCS 2019) on top of a deterministic
discrete-event simulation of an asynchronous message-passing system.

Public API overview
-------------------

Substrates
    :mod:`repro.sim`        -- discrete-event simulator and coroutine futures.
    :mod:`repro.net`        -- simulated network, latency models, traffic accounting.
    :mod:`repro.chaos`      -- scripted fault schedules (the adversary subsystem).
    :mod:`repro.erasure`    -- Reed-Solomon [n, k] MDS codes over GF(256).
    :mod:`repro.consensus`  -- single-decree Paxos consensus per configuration.

Protocols
    :mod:`repro.dap`        -- data-access primitives (ABD, TREAS, LDR).
    :mod:`repro.core`       -- the ARES reconfigurable register and ARES-TREAS; with no
                               reconfigurer, the paper's static register.
    :mod:`repro.store`      -- sharded multi-object store (many keys, per-shard DAPs).

Verification and experiments
    :mod:`repro.spec`       -- histories, linearizability checking, DAP properties.
    :mod:`repro.workloads`  -- workload generators and the chaos scenario registry.
    :mod:`repro.analysis`   -- analytic cost formulas and measured-cost reports.
"""

from repro.common.tags import Tag, TagValue
from repro.common.values import Value
from repro.common.ids import ProcessId, ConfigId
from repro.sim.core import Simulator
from repro.net.network import Network
from repro.net.latency import UniformLatency, FixedLatency
from repro.chaos import At, ChaosEngine, During, Schedule
from repro.erasure.rs import ReedSolomonCode
from repro.erasure.replication import ReplicationCode
from repro.config.configuration import Configuration
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.store import ShardMap, ShardSpec, StoreDeployment, StoreSpec

__version__ = "1.2.0"

__all__ = [
    "Tag",
    "TagValue",
    "Value",
    "ProcessId",
    "ConfigId",
    "Simulator",
    "Network",
    "UniformLatency",
    "FixedLatency",
    "ChaosEngine",
    "Schedule",
    "At",
    "During",
    "ReedSolomonCode",
    "ReplicationCode",
    "Configuration",
    "AresDeployment",
    "DeploymentSpec",
    "ShardMap",
    "ShardSpec",
    "StoreDeployment",
    "StoreSpec",
    "__version__",
]
