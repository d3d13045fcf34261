"""The chaos scenario registry.

Named, seed-deterministic cross-products of DAP (ABD / LDR / TREAS) x fault
schedule x reconfiguration cadence.  Every registered scenario stays inside
the paper's fault-tolerance envelope (at most ``f`` servers of any
configuration lost at a time), so both safety *and* liveness are asserted:
``run_scenario(name, seed)`` returns a :class:`ChaosRunResult` whose
:meth:`~ChaosRunResult.verify` checks the recorded history against the
linearizability spec.  Use :func:`scenario_names` / :func:`get_scenario` to
enumerate, and :func:`register_scenario` to add new ones (future DAPs and
policies get the whole adversary suite for free).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos.engine import ChaosEngine
from repro.chaos.faults import (
    CpuPressure,
    Crash,
    DiskFull,
    Drop,
    Duplicate,
    Isolate,
    LatencySpike,
    MemoryPressure,
    Reconfigure,
    Reorder,
    Restart,
    SlowServer,
)
from repro.chaos.schedule import At, During, Schedule, Stochastic
from repro.core.deployment import AresDeployment, Deployment, DeploymentSpec
from repro.net.latency import UniformLatency
from repro.obs import slo
from repro.obs.registry import install_metrics
from repro.obs.report import MetricsReport
from repro.sim.process import RetryPolicy
from repro.store import ShardSpec, StoreDeployment, StoreSpec
from repro.workloads.generator import ClosedLoopDriver, WorkloadResult, WorkloadSpec


# ======================================================================
# Chaos scenario registry
# ======================================================================

@dataclass(frozen=True)
class ChaosScenario:
    """A named, reproducible adversary experiment.

    Attributes
    ----------
    name / description:
        Registry key and one-line summary (shown by ``scenario_names`` and
        the ``chaos_storm`` example).
    dap:
        DAP kind of the initial configuration (``abd`` / ``ldr`` / ``treas``).
    faults:
        Tags of the fault families exercised (``crash``, ``partition``,
        ``reconfig``, ``gray``, ``drop``, ``duplicate``, ``reorder``,
        ``restart``) -- used for registry queries and coverage assertions.
    deployment:
        ``seed -> Deployment`` factory: either kind built on
        :class:`~repro.core.deployment.Deployment` (single ARES register or
        sharded store).
    schedule:
        ``deployment -> Schedule`` factory (may inspect the deployment to
        pick victims inside the fault-tolerance envelope).
    workload:
        The closed-loop client mix driven concurrently with the faults.
    num_reconfigs / reconfig_cadence / reconfig_daps / fresh_servers:
        Reconfiguration pressure: how many reconfigurations, the pause
        before each, the DAP kinds to cycle through (empty = scenario DAP)
        and how many fresh servers each new configuration recruits.
    fault_rate / background:
        Continuous background (gray) failure.  ``background`` is a
        ``(deployment, scenario) -> Schedule`` factory whose entries gate
        themselves on ``scenario.fault_rate`` (typically
        :class:`~repro.chaos.schedule.Stochastic` entries); the runner arms
        it on top of the scripted ``schedule``.  ``fault_rate`` is a plain
        scenario field, which is what lets the sweep engine use it as a
        grid axis and :class:`~repro.sweep.adaptive.AdaptiveCampaign`
        bisect each DAP's maximum survivable rate.  At the default 0.0 a
        stochastic background arms nothing, so the run is byte-identical
        to the background-free scenario.
    gc:
        Enable configuration retirement on the deployment's reconfigurers:
        every reconfiguration runs the gc-config phase, retiring superseded
        configurations (server state reclaimed behind tombstone redirects)
        and pruning the local sequences.  A plain scenario field so the
        sweep engine can use it as a grid axis; at the default ``False``
        the run is byte-identical to the retirement-free protocol, which
        the golden-signature suite pins.
    slos:
        Quantitative service-level assertions (:class:`~repro.obs.slo.SLO`)
        evaluated against the run's :class:`~repro.obs.report.MetricsReport`
        when the scenario runs with ``metrics=True`` -- e.g. "p99 read
        latency recovers within a few virtual seconds of heal" or "the
        reconfiguration pipeline never stalls".  SLO verdicts are reported
        alongside (never folded into) the correctness verdict.
    """

    name: str
    description: str
    dap: str
    faults: Tuple[str, ...]
    deployment: Callable[[int], Deployment]
    schedule: Callable[[Deployment], Schedule]
    workload: WorkloadSpec
    num_reconfigs: int = 0
    reconfig_cadence: float = 8.0
    reconfig_daps: Tuple[str, ...] = ()
    fresh_servers: int = 0
    fault_rate: float = 0.0
    background: Optional[Callable[[Deployment, "ChaosScenario"], Schedule]] = None
    gc: bool = False
    slos: Tuple[slo.SLO, ...] = ()


@dataclass
class ChaosRunResult:
    """Everything a test or report needs from one chaos run."""

    scenario: ChaosScenario
    seed: int
    deployment: Deployment
    workload: WorkloadResult
    engine: ChaosEngine
    schedule: Schedule
    reconfig_errors: List[str] = dataclass_field(default_factory=list)
    #: The run's exported metrics, when ``run_scenario(..., metrics=True)``.
    metrics: Optional[MetricsReport] = None

    @property
    def history(self):
        """The recorded operation history."""
        return self.deployment.history

    @property
    def chaos_log(self) -> List[Tuple[float, str]]:
        """The engine's timestamped fault log."""
        return list(self.engine.log)

    def signature(self) -> tuple:
        """Determinism witness: history fingerprint + chaos log.

        Uses the engine's :meth:`~repro.chaos.engine.ChaosEngine.log_signature`,
        which is byte-identical to the full log until the bounded ring
        overflows (and then carries an exact elision marker).
        """
        return (self.history.signature(), self.engine.log_signature())

    def signature_hash(self) -> str:
        """SHA-256 hex digest of ``repr(self.signature())``.

        Works in both modes and produces identical bytes: both fold the
        history's entries through :meth:`History.signature_digests
        <repro.spec.history.History.signature_digests>`, which never
        materializes the entries list.  This is what the sweep engine and the
        golden determinism fixtures store.
        """
        return self.history.signature_digests().result_digest(
            self.engine.log_signature())

    def check(self) -> Tuple[Optional[str], str]:
        """Run every property check without raising.

        Returns ``(failure, checker_method)``: ``failure`` is ``None`` when
        liveness, linearizability and tag monotonicity all hold, else the
        first violation's message; ``checker_method`` reports which
        linearizability algorithm decided (``""`` if never reached).  This
        is the single source of truth for scenario verification --
        :meth:`verify` raises on it and the sweep workers record it.

        Both verdicts come from one register fold
        (:mod:`repro.spec.streaming`): a streaming history drove it live,
        and a batch history is replayed through it once, in event-time
        order (:func:`~repro.spec.linearizability.check_atomicity`), with
        the Wing-Gong search deciding any key the fold cannot.  Keyed
        (store) histories are checked **per key**: each object is an
        independent atomic register, so linearizability and tag
        monotonicity are asserted on every key (the checker-method label
        becomes e.g. ``per-key(fast)``).
        """
        from repro.spec.linearizability import check_atomicity

        errors = list(self.workload.errors) + list(self.reconfig_errors)
        if errors:
            return (f"scenario {self.scenario.name!r} (seed {self.seed}) lost "
                    f"liveness: {errors}\nchaos log:\n"
                    f"{self.engine.describe_log()}"), ""
        stream = self.history.stream
        if stream is not None:
            stream.finalize()
            method = stream.method()
            lin_failure = stream.linearizability_failure()
            if lin_failure is not None:
                return (f"scenario {self.scenario.name!r} (seed {self.seed}) "
                        f"violated atomicity: {lin_failure}\nchaos log:\n"
                        f"{self.engine.describe_log()}"), method
            tag_violation = stream.tag_failure()
            if tag_violation is not None:
                return (f"scenario {self.scenario.name!r} (seed {self.seed}) "
                        f"violated tag monotonicity: {tag_violation}"), method
            return None, method
        result, monotonic = check_atomicity(self.history)
        if not result.ok:
            return (f"scenario {self.scenario.name!r} (seed {self.seed}) violated "
                    f"atomicity: {result.reason}\nchaos log:\n"
                    f"{self.engine.describe_log()}"), result.method
        if monotonic is not None:
            return (f"scenario {self.scenario.name!r} (seed {self.seed}) violated "
                    f"tag monotonicity: {monotonic}"), result.method
        return None, result.method

    def verify(self) -> None:
        """Assert liveness (no stalled/errored session) and atomicity.

        Raises ``AssertionError`` with a descriptive message on violation.
        """
        failure, _ = self.check()
        assert failure is None, failure

    def slo_verdicts(self) -> List[Tuple[slo.SLO, Optional[str]]]:
        """Evaluate the scenario's SLO assertions against this run's metrics.

        Returns one ``(slo, failure)`` pair per SLO, in declaration order;
        ``failure`` is ``None`` when the SLO holds, else its message.  SLO
        verdicts are deliberately separate from :meth:`check` -- a run can
        be perfectly linearizable yet miss its recovery SLO, and the sweep
        records both verdicts side by side.  Raises :class:`ValueError`
        when the run was executed without ``metrics=True`` (there is no
        report to evaluate against).
        """
        if self.metrics is None:
            raise ValueError(
                f"scenario {self.scenario.name!r} ran without metrics=True; "
                "no MetricsReport to evaluate SLOs against")
        return [(assertion, assertion.evaluate(self.metrics))
                for assertion in self.scenario.slos]


#: The global registry of named chaos scenarios.
SCENARIOS: Dict[str, ChaosScenario] = {}


def register_scenario(scenario: ChaosScenario) -> ChaosScenario:
    """Add ``scenario`` to the registry (its name must be unused)."""
    if scenario.name in SCENARIOS:
        raise ValueError(f"chaos scenario {scenario.name!r} is already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


def scenario_names() -> List[str]:
    """Registered scenario names, in registration order."""
    return list(SCENARIOS)


def get_scenario(name: str) -> ChaosScenario:
    """Look up a registered scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown chaos scenario {name!r}; registered: {', '.join(SCENARIOS)}"
        ) from None


def run_scenario(name: str, seed: int = 0, streaming: bool = False,
                 metrics: bool = False) -> ChaosRunResult:
    """Execute one registered scenario end-to-end, deterministically.

    The run seed fans out into three independent streams -- simulator
    (latencies), chaos engine (drop/duplicate coin flips, jitter) and
    workload (think times) -- so two calls with equal ``(name, seed)``
    produce byte-identical histories and chaos logs.

    With ``streaming=True`` the deployment's history runs in bounded
    open-window mode (see
    :meth:`~repro.spec.history.History.enable_streaming`): operations are
    verified online and folded away as their windows close, so memory stays
    O(open window) -- the execution itself is byte-identical, which the
    differential streaming tests pin via :meth:`ChaosRunResult.signature_hash`.

    With ``metrics=True`` a :class:`~repro.obs.registry.MetricsRegistry` is
    wired through the deployment, chaos engine and (if streaming) history
    stream; the run's virtual-time series are exported on the result's
    :attr:`~ChaosRunResult.metrics`.  Metrics never schedule events or touch
    any seeded RNG stream, so the execution stays byte-identical -- the
    differential metrics tests pin this against the golden signatures.
    """
    return run_scenario_instance(get_scenario(name), seed=seed,
                                 streaming=streaming, metrics=metrics)


def run_scenario_instance(scenario: ChaosScenario, seed: int = 0,
                          streaming: bool = False,
                          metrics: bool = False) -> ChaosRunResult:
    """Execute a :class:`ChaosScenario` object (registered or derived).

    This is :func:`run_scenario` minus the registry lookup; the sweep engine
    uses it to run parameter-grid variants (``dataclasses.replace`` of a
    registered scenario with an overridden workload).  All three RNG streams
    are keyed by ``scenario.name``, so for registered scenarios the two entry
    points are byte-identical.  ``streaming`` switches the fresh
    deployment's history into bounded open-window mode before any operation
    is recorded.
    """
    name = scenario.name
    deployment = scenario.deployment(seed)
    if scenario.gc:
        # Retirement is a reconfigurer-side switch; flipping it on the built
        # deployment (rather than through every factory) is what lets the
        # sweep engine toggle it per grid cell with dataclasses.replace.
        for reconfigurer in deployment.reconfigurers:
            reconfigurer.gc_enabled = True
    if streaming:
        deployment.history.enable_streaming()
    # The deployment already seeded its simulator with the bare integer;
    # derive a distinct chaos seed so fault coin flips are not the same
    # Mersenne Twister stream as the latency draws.
    engine = ChaosEngine(deployment.network, seed=f"chaos-{name}-{seed}")
    registry = None
    if metrics:
        # Clear the process-global perf caches first so the exported hit
        # rates are a pure function of this cell -- required for pooled and
        # serial campaigns to report byte-identically (a pool worker's cache
        # state must not leak into the report).  The caches are performance
        # only; clearing them cannot change the execution.
        from repro.common.values import payload_cache_clear
        from repro.erasure.rs import decode_cache_clear

        payload_cache_clear()
        decode_cache_clear()
        registry = install_metrics(deployment, engine=engine,
                                   stream=deployment.history.stream)
    schedule = scenario.schedule(deployment)
    engine.inject(schedule)
    if scenario.background is not None:
        # Continuous gray failure on top of the scripted incidents; the
        # entries gate themselves on scenario.fault_rate (a Stochastic
        # background at rate 0.0 arms nothing at all).
        engine.inject(scenario.background(deployment, scenario))

    reconfig_session = None
    if scenario.num_reconfigs:
        reconfig_session = _spawn_reconfig_session(deployment, scenario)

    driver = ClosedLoopDriver(deployment, scenario.workload,
                              rng=random.Random(f"workload-{name}-{seed}"))
    workload = driver.run()
    reconfig_errors = []
    if reconfig_session is not None:
        if reconfig_session.exception() is not None:
            reconfig_errors.append(repr(reconfig_session.exception()))
        elif not reconfig_session.done():
            reconfig_errors.append("reconfiguration session never completed (stalled)")
    # Schedule-fired operations (Reconfigure migrations) are held to the
    # same liveness standard as the workload sessions.
    reconfig_errors.extend(engine.operation_errors())
    report = None
    if registry is not None:
        report = _collect_final_metrics(registry, deployment, engine)
    return ChaosRunResult(scenario=scenario, seed=seed, deployment=deployment,
                          workload=workload, engine=engine, schedule=schedule,
                          reconfig_errors=reconfig_errors, metrics=report)


def _collect_final_metrics(registry, deployment, engine) -> MetricsReport:
    """End-of-run collection: shard skew, cache hit rates, gate triggers.

    These are whole-run facts that live outside the hot paths (per-shard
    stored bytes, the interning/decode cache counters, stochastic gate
    trigger totals, governor sheds), folded into the report just before it
    freezes.  All reads are of public state; nothing here can perturb the
    already-finished simulation.
    """
    from repro.common.values import payload_cache_info
    from repro.erasure.rs import decode_cache_info

    triggers = sum(gate.triggers for gate in engine.gates)
    if triggers:
        registry.inc("gate_triggers", triggers)
    shed = sum(server.governor.shed for server in deployment.servers.values()
               if server.governor is not None)
    if shed:
        registry.inc("governor_shed", shed)
    if deployment.keyed:
        by_shard = deployment.storage_by_shard()
        for index, stored in sorted(by_shard.items()):
            registry.set_gauge(f"shard_bytes:{index}", float(stored))
        sizes = list(by_shard.values())
        mean_size = (sum(sizes) / len(sizes)) if sizes else 0.0
        registry.set_gauge("shard_skew",
                           (max(sizes) / mean_size) if mean_size else 0.0)
    extra = {
        "sim": deployment.sim.metrics_snapshot(),
        "payload_cache": payload_cache_info(),
        "decode_cache": decode_cache_info(),
        "network": {
            "sent": deployment.network.messages_sent,
            "delivered": deployment.network.messages_delivered,
            "dropped": deployment.network.messages_dropped,
            "duplicated": deployment.network.messages_duplicated,
        },
    }
    return registry.report(extra=extra)


def _spawn_reconfig_session(deployment, scenario: ChaosScenario):
    """Start the scenario's reconfiguration pressure as a client coroutine.

    Single-register deployments reconfigure the one ARES object; keyed
    (store) deployments instead run *shard migrations* -- each round
    migrates shard ``index % num_shards`` onto ``fresh_servers`` new
    servers (or flips its DAP in place when ``fresh_servers`` is 0),
    cycling through ``reconfig_daps``.  The cadence and round count are
    plain scenario fields, which is what lets the sweep engine use the
    reconfiguration *rate* as a grid axis.
    """
    reconfigurer = deployment.reconfigurers[0]
    daps = scenario.reconfig_daps or (scenario.dap,)

    if deployment.keyed:
        num_shards = deployment.shard_map.num_shards

        def session():
            for index in range(scenario.num_reconfigs):
                yield reconfigurer.sleep(scenario.reconfig_cadence)
                shard_index = index % num_shards
                dap = daps[index % len(daps)] if scenario.reconfig_daps else None
                servers = (deployment.add_servers(scenario.fresh_servers)
                           if scenario.fresh_servers else None)
                yield from reconfigurer.migrate_shard(shard_index, dap=dap,
                                                      servers=servers)
            return None

        return reconfigurer.spawn(session(), label="chaos-reconfig-session")

    def session():
        for index in range(scenario.num_reconfigs):
            yield reconfigurer.sleep(scenario.reconfig_cadence)
            dap = daps[index % len(daps)]
            configuration = deployment.make_configuration(
                dap=dap, fresh_servers=scenario.fresh_servers)
            yield from reconfigurer.reconfig(configuration)
        return None

    return reconfigurer.spawn(session(), label="chaos-reconfig-session")


# ---------------------------------------------------------------- factories
def _ares(dap: str, num_servers: int, retry: Optional[RetryPolicy] = None,
          **dap_params) -> Callable[[int], AresDeployment]:
    """A ``seed -> AresDeployment`` factory: 2 writers, 2 readers, 1 reconfigurer."""

    def deployment(seed: int) -> AresDeployment:
        return AresDeployment(DeploymentSpec(
            num_servers=num_servers, initial_dap=dap, num_writers=2, num_readers=2,
            num_reconfigurers=1, latency=UniformLatency(1.0, 2.0), seed=seed,
            retry=retry, **dap_params))

    return deployment


def _store(*shards: ShardSpec) -> Callable[[int], StoreDeployment]:
    """A ``seed -> StoreDeployment`` factory over ``shards``: 2 writers, 2 readers."""

    def deployment(seed: int) -> StoreDeployment:
        return StoreDeployment(StoreSpec(
            shards=shards, num_writers=2, num_readers=2,
            latency=UniformLatency(1.0, 2.0), seed=seed))

    return deployment


#: ABD over 5 servers: majority quorums, crash tolerance f = 2.
_abd_deployment = _ares("abd", 5)
#: TREAS [6, 4]: quorum ceil((n+k)/2) = 5, crash tolerance f = 1.
_treas_deployment = _ares("treas", 6, k=4, delta=8)
#: LDR over 6 servers (3 directories + 3 replicas): directory majority 2, replica f = 1.
_ldr_deployment = _ares("ldr", 6)

_WORKLOAD = WorkloadSpec(operations_per_writer=3, operations_per_reader=3,
                         value_size=256, think_time=2.0)


# ----------------------------------------------------------- the registry
# Victim choices below stay inside each configuration's tolerance envelope:
# ABD-5 tolerates 2 crashed/isolated servers, TREAS [6, 4] tolerates 1, and
# LDR 3+3 tolerates 1 directory plus 1 replica.

register_scenario(ChaosScenario(
    name="abd_crash_minority",
    description="ABD-5 loses a 2-server minority mid-traffic (crash-stop)",
    dap="abd", faults=("crash",),
    deployment=_abd_deployment,
    schedule=lambda d: Schedule([At(8, Crash("s3")), At(18, Crash("s4"))]),
    workload=_WORKLOAD,
))

register_scenario(ChaosScenario(
    name="abd_partition_minority",
    description="ABD-5 with a 2-server island partitioned away, then healed",
    dap="abd", faults=("partition",),
    deployment=_abd_deployment,
    schedule=lambda d: Schedule([During(6, 35, Isolate("s3", "s4"))]),
    workload=_WORKLOAD,
))

register_scenario(ChaosScenario(
    name="abd_reconfig_crash",
    description="ABD reconfigures onto fresh servers while an old server crashes",
    dap="abd", faults=("reconfig", "crash"),
    deployment=_abd_deployment,
    schedule=lambda d: Schedule([At(14, Crash("s4"))]),
    workload=_WORKLOAD,
    num_reconfigs=2, reconfig_cadence=6.0, fresh_servers=5,
    # Calibrated at seeds 0..4 (worst reconfig 25.4s, zero NACKs) with
    # ~1.6x headroom; see docs/OBSERVABILITY.md for the recipe.
    slos=(slo.peak("reconfig_duration").within(40.0),
          slo.rate("nacks").below(0.0)),
))

register_scenario(ChaosScenario(
    name="abd_packet_chaos",
    description="ABD under lossy (one server), duplicating, reordering links",
    dap="abd", faults=("drop", "duplicate", "reorder"),
    deployment=_abd_deployment,
    schedule=lambda d: Schedule([
        During(4, 45, Drop(0.4, dst=("s4",)), Duplicate(0.25), Reorder(1.5)),
    ]),
    workload=_WORKLOAD,
))

register_scenario(ChaosScenario(
    name="treas_crash_server",
    description="TREAS [6,4] loses its tolerated server (f = 1) mid-traffic",
    dap="treas", faults=("crash",),
    deployment=_treas_deployment,
    schedule=lambda d: Schedule([At(10, Crash("s5"))]),
    workload=_WORKLOAD,
))

register_scenario(ChaosScenario(
    name="treas_crash_restart",
    description="TREAS server crash-recovers with stable storage, then another crashes",
    dap="treas", faults=("crash", "restart"),
    deployment=_treas_deployment,
    schedule=lambda d: Schedule([
        At(8, Crash("s5")), At(24, Restart("s5")), At(34, Crash("s4")),
    ]),
    workload=_WORKLOAD,
))

register_scenario(ChaosScenario(
    name="treas_partition_heal",
    description="TREAS [6,4] with one server partitioned away, then healed",
    dap="treas", faults=("partition",),
    deployment=_treas_deployment,
    schedule=lambda d: Schedule([During(8, 40, Isolate("s5"))]),
    workload=_WORKLOAD,
))

register_scenario(ChaosScenario(
    name="treas_reconfig_partition",
    description="TREAS reconfiguration storm with a server isolated during the storm",
    dap="treas", faults=("reconfig", "partition"),
    deployment=_treas_deployment,
    schedule=lambda d: Schedule([During(10, 30, Isolate("s5"))]),
    workload=_WORKLOAD,
    num_reconfigs=2, reconfig_cadence=7.0, fresh_servers=6,
    # Calibrated at seeds 0..4 (worst reconfig 26.9s, zero NACKs).
    slos=(slo.peak("reconfig_duration").within(40.0),
          slo.rate("nacks").below(0.0)),
))

register_scenario(ChaosScenario(
    name="treas_gray_failure",
    description="TREAS with a limping (gray) server, global latency spike and duplication",
    dap="treas", faults=("gray", "duplicate", "reorder"),
    deployment=_treas_deployment,
    schedule=lambda d: Schedule([
        During(5, 55, SlowServer("s0", factor=4.0), LatencySpike(1.5)),
        During(5, 55, Duplicate(0.3), Reorder(2.0)),
    ]),
    workload=_WORKLOAD,
))

register_scenario(ChaosScenario(
    name="ldr_crash_replica",
    description="LDR loses one replica and one directory (both within tolerance)",
    dap="ldr", faults=("crash",),
    deployment=_ldr_deployment,
    schedule=lambda d: Schedule([At(9, Crash("s5")), At(22, Crash("s0"))]),
    workload=_WORKLOAD,
))

register_scenario(ChaosScenario(
    name="ldr_partition_directory",
    description="LDR with one directory server partitioned away, then healed",
    dap="ldr", faults=("partition",),
    deployment=_ldr_deployment,
    schedule=lambda d: Schedule([During(7, 36, Isolate("s2"))]),
    workload=_WORKLOAD,
))

register_scenario(ChaosScenario(
    name="ldr_reconfig_crash",
    description="LDR reconfigures onto fresh servers while an old replica crashes",
    dap="ldr", faults=("reconfig", "crash"),
    deployment=_ldr_deployment,
    schedule=lambda d: Schedule([At(16, Crash("s4"))]),
    workload=_WORKLOAD,
    num_reconfigs=2, reconfig_cadence=7.0, fresh_servers=6,
    # Calibrated at seeds 0..4 (worst reconfig 40.9s -- LDR moves object
    # data through directory quorums, so its pipeline runs the longest).
    slos=(slo.peak("reconfig_duration").within(60.0),
          slo.rate("nacks").below(0.0)),
))

register_scenario(ChaosScenario(
    name="storm_mixed_dap_chaos",
    description=("Kitchen sink: TREAS->ABD->TREAS reconfiguration chain under a "
                 "partition window, a crash, a gray server and message chaos"),
    dap="treas", faults=("reconfig", "partition", "crash", "gray", "duplicate", "reorder"),
    deployment=_treas_deployment,
    schedule=lambda d: Schedule([
        During(9, 26, Isolate("s5")),
        At(32, Crash("s4")),
        During(5, 70, SlowServer("s1", factor=3.0)),
        During(5, 70, Duplicate(0.2), Reorder(1.0)),
    ]),
    workload=WorkloadSpec(operations_per_writer=3, operations_per_reader=3,
                          value_size=512, think_time=2.5),
    num_reconfigs=3, reconfig_cadence=8.0, fresh_servers=6,
    reconfig_daps=("treas", "abd", "treas"),
))


# --------------------------------------------------------- store scenarios
# Sharded multi-object deployments: every operation addresses a named key,
# keys hash onto shards with per-shard DAP kinds, and verification runs per
# key (ChaosRunResult.check switches automatically on keyed histories).
# Victim choices stay inside each *shard's* tolerance envelope: an ABD-5
# shard tolerates 2 lost servers, a TREAS [6, 4] shard 1, an LDR 3+3 shard
# 1 directory plus 1 replica.

_ABD_5 = ShardSpec(dap="abd", num_servers=5)
_TREAS_6_4 = ShardSpec(dap="treas", num_servers=6, k=4, delta=8)
_LDR_3_3 = ShardSpec(dap="ldr", num_servers=6)

#: Three shards, one per DAP kind: ABD-5 + TREAS [6,4] + LDR 3+3.
_store_mixed_deployment = _store(_ABD_5, _TREAS_6_4, _LDR_3_3)
#: Three uniform ABD-5 shards (each tolerates 2 crashed servers).
_store_abd_deployment = _store(_ABD_5, _ABD_5, _ABD_5)


def _hot_shard_crashes(deployment: StoreDeployment) -> Schedule:
    """Crash two servers of the hot key's shard (ABD-5: both tolerated).

    The Zipf sampler makes ``k0`` the hottest key, so its shard carries the
    most traffic; the schedule resolves that shard through the deployment's
    shard map at arm time.
    """
    victims = deployment.shard_map.servers_for_key("k0")
    return Schedule([At(8, Crash(victims[-1])), At(20, Crash(victims[-2]))])


register_scenario(ChaosScenario(
    name="store_mixed_dap_storm",
    description=("Sharded store with ABD+TREAS+LDR shards under batched "
                 "keyed traffic, duplication/reordering and an ABD-shard crash"),
    dap="store", faults=("crash", "duplicate", "reorder"),
    deployment=_store_mixed_deployment,
    schedule=lambda d: Schedule([
        During(4, 45, Duplicate(0.25), Reorder(1.5)),
        At(12, Crash("s2")),
    ]),
    workload=WorkloadSpec(operations_per_writer=3, operations_per_reader=3,
                          value_size=256, think_time=2.0,
                          num_keys=12, batch_size=2),
))

register_scenario(ChaosScenario(
    name="store_hot_shard_crash",
    description=("Zipf hot-key store traffic while the hot key's shard "
                 "loses both tolerated servers"),
    dap="store", faults=("crash",),
    deployment=_store_abd_deployment,
    schedule=_hot_shard_crashes,
    workload=WorkloadSpec(operations_per_writer=4, operations_per_reader=4,
                          value_size=256, think_time=2.0,
                          num_keys=16, key_distribution="zipf", zipf_s=1.4),
))

register_scenario(ChaosScenario(
    name="store_partition_across_shards",
    description=("Sharded ABD+TREAS store with one server of every shard "
                 "partitioned away, then healed"),
    dap="store", faults=("partition",),
    deployment=_store(_ABD_5, _TREAS_6_4),
    schedule=lambda d: Schedule([During(6, 36, Isolate("s4", "s10"))]),
    workload=WorkloadSpec(operations_per_writer=3, operations_per_reader=3,
                          value_size=256, think_time=2.0, num_keys=10),
))


#: Two shards: TREAS [6,4] (s0-s5) + ABD-5 (s6-s10).
_dap_flip_store = _store(_TREAS_6_4, _ABD_5)


def _dap_flip_schedule(deployment: StoreDeployment) -> Schedule:
    """Flip shard 0 TREAS->ABD in place, with a partition and a crash.

    Fault budget: the flip keeps shard 0 on its 6 servers, so before the
    flip the shard tolerates 1 crash (TREAS [6,4]) and after it 2 (ABD-6
    majority); crashing one shard-0 server at t=26 is inside both
    envelopes.  Isolating one ABD-5 shard-1 server (tolerance 2) leaves
    its quorums intact.
    """
    return Schedule([
        At(10, Reconfigure(lambda: deployment.spawn_migrate_shard(0, dap="abd"),
                           note="flip shard 0 treas->abd")),
        During(16, 34, Isolate("s10")),
        At(26, Crash("s4")),
    ])


def _rebalance_schedule(deployment: StoreDeployment) -> Schedule:
    """Move the Zipf-hot key range off its shard, then crash an old server.

    The hot range ``k0..k3`` is rebalanced onto the shard *after* ``k0``'s
    (mod the shard count) at t=10; at t=24 one server of ``k0``'s original
    ABD-5 shard crashes (tolerance 2), so stale readers that still traverse
    the old configuration keep their quorums.
    """
    source = deployment.shard_map.shard_index("k0")
    target = (source + 1) % deployment.shard_map.num_shards
    victims = deployment.shard_map.servers_for_key("k0")
    hot_range = ["k0", "k1", "k2", "k3"]
    return Schedule([
        At(10, Reconfigure(lambda: deployment.spawn_move_keys(hot_range, target),
                           note=f"rebalance hot range -> shard {target}")),
        At(24, Crash(victims[-1])),
    ])


register_scenario(ChaosScenario(
    name="store_shard_migration_storm",
    description=("Sharded ABD+TREAS+LDR store live-migrating two shards onto "
                 "fresh servers (TREAS shard flips to ABD) under packet chaos"),
    dap="store", faults=("reconfig", "duplicate", "reorder"),
    deployment=_store_mixed_deployment,
    schedule=lambda d: Schedule([During(4, 45, Duplicate(0.25), Reorder(1.5))]),
    workload=WorkloadSpec(operations_per_writer=3, operations_per_reader=3,
                          value_size=256, think_time=2.0, num_keys=10),
    num_reconfigs=2, reconfig_cadence=6.0, fresh_servers=6,
    reconfig_daps=("abd", "abd"),
))

register_scenario(ChaosScenario(
    name="store_dap_flip_under_chaos",
    description=("Store shard flips TREAS->ABD in place while one server of "
                 "the other shard is partitioned away and an old server crashes"),
    dap="store", faults=("reconfig", "partition", "crash"),
    deployment=_dap_flip_store,
    schedule=_dap_flip_schedule,
    workload=WorkloadSpec(operations_per_writer=3, operations_per_reader=3,
                          value_size=256, think_time=2.0,
                          num_keys=10, batch_size=2),
))

register_scenario(ChaosScenario(
    name="store_rebalance_hot_range",
    description=("Zipf hot-key traffic while the hot key range is rebalanced "
                 "onto another shard and a server of the old shard crashes"),
    dap="store", faults=("reconfig", "crash"),
    deployment=_store_abd_deployment,
    schedule=_rebalance_schedule,
    workload=WorkloadSpec(operations_per_writer=4, operations_per_reader=4,
                          value_size=256, think_time=2.0,
                          num_keys=16, key_distribution="zipf", zipf_s=1.4),
))


def _store_gc_crash(deployment: StoreDeployment) -> Schedule:
    """Crash one shard-0 server after its keys migrated off and were retired.

    The reconfiguration session (cadence 6.0) migrates shard 0 onto fresh
    servers first; by t=22 its old configurations are retired, so the crash
    exercises the "retired quorum partially gone" path of best-effort
    retirement *and* leaves stale clients to converge through tombstones on
    a degraded (but within ABD-5 tolerance) old slice.
    """
    victims = deployment.shard_map.servers_for_key("k0")
    return Schedule([At(22, Crash(victims[-1]))])


register_scenario(ChaosScenario(
    name="store_migration_gc",
    description=("Sharded ABD store live-migrating every shard onto fresh "
                 "servers with configuration retirement (gc) on: old-slice "
                 "state is reclaimed behind tombstones while stale clients "
                 "and a crash keep hitting the retired configurations"),
    dap="store", faults=("reconfig", "crash"),
    deployment=_store_abd_deployment,
    schedule=_store_gc_crash,
    workload=WorkloadSpec(operations_per_writer=3, operations_per_reader=3,
                          value_size=256, think_time=2.0, num_keys=10),
    num_reconfigs=3, reconfig_cadence=6.0, fresh_servers=5,
    gc=True,
))


# ------------------------------------------------- gray degradation curves
# Continuous stochastic background failure (packet loss + resource
# exhaustion on a server minority) with client retry/backoff enabled, one
# scenario per DAP.  ``fault_rate`` is the sweep axis: 0.0 arms nothing
# (byte-identical to a quiet retry-enabled run) and raising it degrades the
# run until retries exhaust -- ``python -m repro.sweep --bisect
# "fault_rate=0.0..0.5"`` maps each DAP's maximum survivable rate.  Retry
# stays on at every rate so the axis compares like with like: these
# deployments are the quiet ones plus ``retry=GRAY_RETRY``.  (Arming retry
# adds only each client's deadline sweep, an event per ``timeout`` of
# virtual time; until a round fails, no message or history entry moves.)

#: Retry/backoff used by the gray scenarios: bounded attempts, exponential
#: backoff, seeded jitter (see RetryPolicy for the exact schedule).  The
#: generous attempt budget sharpens the degradation curve -- failure
#: probability per gather goes like q^attempts, so the pass/fail
#: transition band a fault_rate bisection straddles narrows as the budget
#: grows (empirically, 9 attempts with seeds 0..4 gives a monotone
#: frontier on all three DAPs over the 1/64-quantized rate grid).
GRAY_RETRY = RetryPolicy(attempts=9, timeout=30.0, base_delay=2.0,
                         multiplier=2.0, jitter=0.5)


#: ABD-5 with retrying clients (majority quorums shrug off refusals).
_abd_gray_deployment = _ares("abd", 5, retry=GRAY_RETRY)
#: TREAS [6, 4] with retrying clients (quorum 5-of-6: loss-sensitive).
_treas_gray_deployment = _ares("treas", 6, k=4, delta=8, retry=GRAY_RETRY)
#: LDR 3+3 with retrying clients.
_ldr_gray_deployment = _ares("ldr", 6, retry=GRAY_RETRY)


def _gray_background(*resource_faults):
    """Background factory: gated packet loss plus gated resource pressure.

    Every entry is :class:`~repro.chaos.schedule.Stochastic` at the
    scenario's ``fault_rate``: per-message Bernoulli packet loss across the
    whole fleet, and per-admission resource refusals on a server minority.
    The windows outlast any plausible run length, so the entire execution
    sits under continuous background failure.
    """

    def background(deployment, scenario):
        rate = scenario.fault_rate
        return Schedule([
            Stochastic(2, 10_000, Drop(1.0), rate=rate),
            Stochastic(4, 10_000, *resource_faults, rate=rate),
        ])

    return background


register_scenario(ChaosScenario(
    name="abd_gray_degradation",
    description=("ABD-5 under continuous stochastic packet loss, a disk-full "
                 "server and a CPU-pressured server, with client retry/backoff"),
    dap="abd", faults=("gray", "drop", "resource"),
    deployment=_abd_gray_deployment,
    schedule=lambda d: Schedule([At(30, Crash("s2"))]),
    workload=_WORKLOAD,
    fault_rate=0.02,
    background=_gray_background(DiskFull("s4"),
                                CpuPressure("s3", factor=3.0)),
    # The crash never heals, so the read-latency bound covers the whole
    # run (calibrated at seeds 0..4, worst window p99 14.7s).  The NACK
    # rate bound pins the governor + retry path: resource refusals must
    # stay rare even under continuous background pressure.
    slos=(slo.p99("read_latency").within(25.0),
          slo.rate("nacks").below(0.01)),
))

register_scenario(ChaosScenario(
    name="treas_gray_degradation",
    description=("TREAS [6,4] under continuous stochastic packet loss and a "
                 "disk-full, CPU-pressured server, with client retry/backoff"),
    dap="treas", faults=("gray", "drop", "resource"),
    deployment=_treas_gray_deployment,
    schedule=lambda d: Schedule([During(10, 26, SlowServer("s0", factor=3.0))]),
    workload=_WORKLOAD,
    fault_rate=0.02,
    background=_gray_background(DiskFull("s5"),
                                CpuPressure("s5", factor=3.0)),
    # Recovery SLO: p99 read latency settles within 5 virtual seconds of
    # the scripted heal at t=26 (calibrated at seeds 0..4, worst window
    # p99 after heal 44.9s -- retried operations straddling the fault
    # window land in post-heal windows, hence the headroom).
    slos=(slo.p99("read_latency", after="heal", grace=5.0).within(60.0),
          slo.rate("nacks").below(0.01)),
))

register_scenario(ChaosScenario(
    name="ldr_gray_degradation",
    description=("LDR 3+3 under continuous stochastic packet loss, a "
                 "memory-bounded replica and a CPU-pressured directory, with "
                 "client retry/backoff"),
    dap="ldr", faults=("gray", "drop", "resource"),
    deployment=_ldr_gray_deployment,
    schedule=lambda d: Schedule([During(12, 28, LatencySpike(1.5))]),
    # Eight reads per reader keep reads completing in the windows from
    # t=40 the recovery SLO covers; three each all finish before the heal.
    workload=WorkloadSpec(operations_per_writer=3, operations_per_reader=8,
                          value_size=256, think_time=2.0),
    fault_rate=0.02,
    background=_gray_background(MemoryPressure(4096, "s5"),
                                CpuPressure("s2", factor=3.0)),
    # Recovery SLO: p99 read latency settles within 5 virtual seconds of
    # the scripted heal at t=28 (calibrated at seeds 0..299, worst window
    # p99 after heal 72.0s: a fetch whose messages are all lost waits out
    # one 30s retry timeout).  Removing the heal entry makes this SLO fail
    # -- the negative-control test pins that.
    slos=(slo.p99("read_latency", after="heal", grace=5.0).within(75.0),
          slo.rate("nacks").below(0.01)),
))
