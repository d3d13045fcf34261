"""The four benchmark workloads, as ``ChaosScenario`` builders.

Every builder is a pure function of the operation count: it touches no
``src/`` global and draws no randomness.  The run seed reaches a workload
only through :func:`repro.workloads.scenarios.run_scenario_instance`, which
hands it to ``scenario.deployment(seed)`` (simulator latencies, retry
jitter) and keys the chaos and workload RNG streams with it -- so equal
``(workload, ops, seed)`` give byte-identical runs, and a different seed
gives different key choices, latencies and fault coin flips.

All four are closed loops: each client issues its next operation when the
previous one completes, with no think time.  Every message hop costs
``UniformLatency(1.0, 2.0)`` virtual time units (``vt``): latency figures
are injected delay, not a real network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.chaos.faults import Crash, Drop, Duplicate, Reorder
from repro.chaos.schedule import At, During, Schedule, Stochastic
from repro.net.latency import UniformLatency
from repro.sim.process import RetryPolicy
from repro.store import ShardSpec, StoreDeployment, StoreSpec
from repro.workloads.generator import WorkloadSpec
from repro.workloads.scenarios import ChaosScenario

#: Virtual time one batched (2-key) client step takes on an ABD-5 store;
#: only aims the chaos window at three quarters of the run.
_VT_PER_BATCH_STEP = 18.0

#: ~50-110 simulator events per operation; 400/op is a livelock guard only.
_EVENTS_PER_OP_CAP = 400

_RETRY = RetryPolicy(attempts=9, timeout=30.0, base_delay=2.0,
                     multiplier=2.0, jitter=0.5)

#: Per-message loss of ``abd_chaos_full``.  About 6 % of its operations
#: then need a retry, so p99 latency sits inside the retried cluster on
#: every seed; at 0.02 the share is ~1 % and p99 flips between 16 and
#: 46 vt from seed to seed.
_LOSS_RATE = 0.05


def _keyed_workload(ops: int, clients: int, batch_size: int, num_keys: int,
                    value_size: int) -> WorkloadSpec:
    """``ops`` operations split evenly over ``clients`` closed-loop sessions."""
    steps = ops // (clients * batch_size)
    if steps < 1:
        raise ValueError(f"{ops} operations are fewer than one step for each "
                         f"of {clients} clients at batch size {batch_size}")
    return WorkloadSpec(
        operations_per_writer=steps, operations_per_reader=steps,
        value_size=value_size, think_time=0.0, num_keys=num_keys,
        batch_size=batch_size,
        max_events=max(10_000_000, ops * _EVENTS_PER_OP_CAP))


def _abd_store(retry=None) -> Callable[[int], StoreDeployment]:
    def deployment(seed: int) -> StoreDeployment:
        return StoreDeployment(StoreSpec(
            shards=(ShardSpec(dap="abd", num_servers=5),) * 3,
            num_writers=4, num_readers=4,
            latency=UniformLatency(1.0, 2.0), seed=seed, retry=retry))
    return deployment


def abd_quiet(ops: int) -> ChaosScenario:
    """The bare messaging path, and the bypass workload for every switch.

    3 x ABD-5 shards, 4 writers + 4 readers, 2-key batches over 256 uniform
    keys, 64 B values, no faults, no retry, metrics off, streaming
    verification.  Values are tiny and nothing is armed, so ``net``,
    ``sim.core``, ``sim.process`` + ``sim.futures`` and the ``core``
    configuration traversal do nearly all the work while ``erasure``,
    ``chaos``, ``obs`` and ``consensus`` do none: a gain in the simulator or
    the network shows here first, and a change to any default-off switch
    must leave this workload where it was.
    """
    return ChaosScenario(
        name="e2e_abd_quiet",
        description="3x ABD-5 store, small values, no faults",
        dap="store", faults=(),
        deployment=_abd_store(),
        schedule=lambda d: Schedule([]),
        workload=_keyed_workload(ops, clients=8, batch_size=2, num_keys=256,
                                 value_size=64),
    )


def abd_chaos_full(ops: int) -> ChaosScenario:
    """The same store and keyspace as ``abd_quiet`` with every switch on.

    Duplication (5 %) and reordering over three quarters of the run, two
    tolerated crashes (one server of shard 0, one of shard 1), stochastic
    packet loss at rate 0.05, client retry/backoff; run with metrics on.
    It sends the same ``net`` / ``sim.process`` layers through their hooked
    and retrying paths, so a fast-path gain that costs the slow path shows
    here.  The only workload where ``chaos`` and ``obs`` do work.
    """
    workload = _keyed_workload(ops, clients=8, batch_size=2, num_keys=256,
                               value_size=64)
    horizon = workload.operations_per_writer * _VT_PER_BATCH_STEP * 0.75
    if horizon <= 60.0:
        raise ValueError(f"{ops} operations end before the chaos window opens")
    entries = [
        During(50.0, horizon, Duplicate(0.05), Reorder(0.5)),
        Stochastic(50.0, horizon, Drop(1.0), rate=_LOSS_RATE),
        # s3 is in shard 0, s8 in shard 1; ABD-5 tolerates two lost servers.
        At(min(200.0, round(horizon / 3)), Crash("s3")),
        At(round(horizon / 2), Crash("s8")),
    ]
    return ChaosScenario(
        name="e2e_abd_chaos_full",
        description="3x ABD-5 store under packet chaos, loss, crashes, retry",
        dap="store", faults=("crash", "drop", "duplicate", "reorder"),
        deployment=_abd_store(retry=_RETRY),
        schedule=lambda d: Schedule(entries),
        workload=workload,
        fault_rate=_LOSS_RATE,
    )


def treas_large(ops: int) -> ChaosScenario:
    """Erasure-coded large values: the paper's storage/communication claim.

    3 x TREAS [n=6, k=4, delta=4] shards, 4 writers + 4 readers, 2-key
    batches over 64 keys, 64 KiB values, no faults, streaming verification.
    Reed-Solomon encode (writes) and decode (reads) dominate, so simulator
    and messaging gains should barely move it, and ``erasure`` gains move
    nothing else.
    """
    return ChaosScenario(
        name="e2e_treas_large",
        description="3x TREAS [6,4] store, 64 KiB values, no faults",
        dap="store", faults=(),
        deployment=lambda seed: StoreDeployment(StoreSpec(
            shards=(ShardSpec(dap="treas", num_servers=6, k=4, delta=4),) * 3,
            num_writers=4, num_readers=4,
            latency=UniformLatency(1.0, 2.0), seed=seed)),
        schedule=lambda d: Schedule([]),
        workload=_keyed_workload(ops, clients=8, batch_size=2, num_keys=64,
                                 value_size=64 * 1024),
    )


def store_migrate(ops: int) -> ChaosScenario:
    """Continuous reconfiguration under client traffic.

    ABD-5 + TREAS [6,4] + LDR-6 shards, 2 writers + 2 readers, single-key
    operations over 48 keys, 1 KiB values, configuration retirement on, and
    3 shard migrations per 160 client operations, back to back from the
    start (10 vt apart, each onto 6 fresh servers; shard 0 becomes TREAS,
    shard 1 ABD, shard 2 stays LDR); verified in batch on the retained
    history.  The migrations end about a fifth of the way through the
    run's virtual time; the rest is traffic on the migrated store, every
    key behind a chain of retired configurations.  The only workload where
    ``consensus``, ``core`` reconfiguration, retirement, LDR and the batch
    checker run; servers accumulate as it goes, so throughput falls with
    length, which it is here to expose.
    """
    return ChaosScenario(
        name="e2e_store_migrate",
        description="mixed-DAP store migrating a shard every 10 vt, gc on",
        dap="store", faults=("reconfig",),
        deployment=lambda seed: StoreDeployment(StoreSpec(
            shards=(ShardSpec(dap="abd", num_servers=5),
                    ShardSpec(dap="treas", num_servers=6, k=4, delta=8),
                    ShardSpec(dap="ldr", num_servers=6)),
            num_writers=2, num_readers=2,
            latency=UniformLatency(1.0, 2.0), seed=seed)),
        schedule=lambda d: Schedule([]),
        workload=_keyed_workload(ops, clients=4, batch_size=1, num_keys=48,
                                 value_size=1024),
        num_reconfigs=max(1, ops * 3 // 160), reconfig_cadence=10.0,
        reconfig_daps=("treas", "abd", "ldr"), fresh_servers=6,
        gc=True,
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its scenario builder and how it is run."""

    name: str
    build: Callable[[int], ChaosScenario]
    #: Client operations of one timed repeat.
    ops: int
    #: Verify online (bounded memory) or in batch on the retained history.
    streaming: bool = True
    #: Run with the observability plane installed.
    metrics: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("abd_quiet", abd_quiet, ops=9_600),
    Workload("abd_chaos_full", abd_chaos_full, ops=6_400, metrics=True),
    Workload("treas_large", treas_large, ops=2_400),
    Workload("store_migrate", store_migrate, ops=4_000, streaming=False),
)}
