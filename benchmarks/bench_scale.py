"""Scale smoke: 10^6 keyed operations under chaos, verified online in flat memory.

Drives one million operations (``--quick``: one hundred thousand) through a
three-shard ABD store -- duplication, reordering and two tolerated server
crashes running in the background -- with the history in **streaming** mode:
completed operations are checked online per key and folded away, so memory
stays O(open window) no matter how long the run is.  Nothing else in the
repository measures that claim.  ``--check`` exits non-zero when

* peak RSS exceeds ``RSS_CEILING_MB`` -- a quick run is 10x smaller than the
  full run, so one ceiling for both is exactly the streaming claim: memory
  must not scale with history length;
* a record was not folded (``folded_records != total_ops``);
* a small streaming-vs-batch sub-run disagrees on verdict or signature hash.

Throughput is printed, never gated: the ARES benchmark in
``benchmarks/e2e/`` measures it on the same store shape (``abd_chaos_full``).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py --quick --check
    PYTHONPATH=src python benchmarks/bench_scale.py --check   # 10^6 ops
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

#: Total operations of the full / quick scale run.
SCALE_OPS = 1_000_000
QUICK_OPS = 100_000

#: Operations of the streaming-vs-batch equivalence sub-run.
EQUIVALENCE_OPS = 8_000

#: Peak RSS ceiling of either run size: the full run's measured 47.9 MB
#: plus a 50 MB allowance.
RSS_CEILING_MB = 97.9

#: Simulated time one closed-loop client step takes on the bench store
#: (measured; only used to aim the background-chaos window at ~3/4 of the
#: run, so overestimating merely shortens chaos coverage a little).
SIM_TIME_PER_STEP = 18.0

#: Each client step is one batched multi_put/multi_get over this many keys.
BATCH_SIZE = 2

#: writers + readers driving the store.
CLIENTS = 8


def peak_rss_mb() -> float:
    """Lifetime peak resident set size of this process, in MB."""
    # ru_maxrss is KB on Linux, bytes on macOS.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return peak / 1024.0


def scale_scenario(total_ops: int, fault_rate: float = 0.0):
    """The bench scenario: 3x ABD-5 store, 4 writers + 4 readers, chaos.

    Built directly (not registered) so the registry keeps only the curated
    scenarios; every parameter derives from ``(total_ops, fault_rate)``
    alone, making the run a pure function of (total_ops, fault_rate, seed).

    ``fault_rate > 0`` superimposes continuous stochastic packet loss over
    the same window as the scripted chaos and arms client retry/backoff;
    at ``0.0`` -- the default -- there is no retry machinery and no
    stochastic entry.
    """
    from repro.chaos.faults import Crash, Drop, Duplicate, Reorder
    from repro.chaos.schedule import At, During, Schedule, Stochastic
    from repro.net.latency import UniformLatency
    from repro.sim.process import RetryPolicy
    from repro.store import ShardSpec, StoreDeployment, StoreSpec
    from repro.workloads.generator import WorkloadSpec
    from repro.workloads.scenarios import ChaosScenario

    steps_per_client = total_ops // (CLIENTS * BATCH_SIZE)
    horizon = steps_per_client * SIM_TIME_PER_STEP * 0.75
    retry = RetryPolicy(attempts=9, timeout=30.0, base_delay=2.0,
                        multiplier=2.0, jitter=0.5) if fault_rate else None
    entries = [
        During(50.0, horizon, Duplicate(0.05), Reorder(0.5)),
        At(200.0, Crash("s3")),
        At(round(horizon / 2), Crash("s8")),
    ]
    if fault_rate:
        entries.append(Stochastic(50.0, horizon, Drop(1.0), rate=fault_rate))
    return ChaosScenario(
        name=f"bench_scale_store_{total_ops}",
        description=("three ABD-5 shards, duplication + reordering + two "
                     "tolerated crashes, closed-loop keyed traffic"),
        dap="store", faults=("crash", "duplicate", "reorder"),
        deployment=lambda seed: StoreDeployment(StoreSpec(
            shards=(ShardSpec(dap="abd", num_servers=5),
                    ShardSpec(dap="abd", num_servers=5),
                    ShardSpec(dap="abd", num_servers=5)),
            num_writers=CLIENTS // 2, num_readers=CLIENTS // 2,
            latency=UniformLatency(1.0, 2.0), seed=seed, retry=retry)),
        # s3 is in shard 0, s8 in shard 1; ABD-5 tolerates two lost servers,
        # so both shards keep quorums and the run must stay live.
        schedule=lambda d: Schedule(entries),
        workload=WorkloadSpec(
            operations_per_writer=steps_per_client,
            operations_per_reader=steps_per_client,
            value_size=64, think_time=0.0, num_keys=256,
            batch_size=BATCH_SIZE,
            # ~50 simulator events per operation; 120/op leaves headroom
            # while still catching a genuine livelock.
            max_events=max(10_000_000, total_ops * 120)),
        fault_rate=fault_rate,
    )


def run_scale(total_ops: int, seed: int = 0, fault_rate: float = 0.0) -> dict:
    """One streaming scale run; raises if verification fails."""
    from repro.workloads.scenarios import run_scenario_instance

    scenario = scale_scenario(total_ops, fault_rate=fault_rate)
    start = time.perf_counter()
    result = run_scenario_instance(scenario, seed=seed, streaming=True)
    failure, checker_method = result.check()
    wall = time.perf_counter() - start
    if failure is not None:
        raise AssertionError(f"scale run failed verification: {failure}")
    stream = result.history.stream
    ops = stream.completed_operations
    clients = result.deployment.writers + result.deployment.readers
    return {
        "scenario": scenario.description,
        "total_ops": ops,
        "fault_rate": fault_rate,
        "retries": sum(client.retries for client in clients),
        "wall_clock_sec": round(wall, 2),
        "ops_per_sec": round(ops / wall),
        "events": result.deployment.sim.events_processed,
        "messages": result.deployment.network.messages_sent,
        "checker_method": checker_method,
        "open_window_peak": stream.open_window_peak,
        "folded_records": stream.folded_records,
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "signature_hash": result.signature_hash(),
    }


def equivalence_check(total_ops: int = EQUIVALENCE_OPS) -> dict:
    """Run one scenario streaming and batch; report whether they agree."""
    from repro.workloads.scenarios import run_scenario_instance

    scenario = scale_scenario(total_ops)
    streaming = run_scenario_instance(scenario, seed=0, streaming=True)
    s_failure, s_method = streaming.check()
    s_hash = streaming.signature_hash()
    batch = run_scenario_instance(scenario, seed=0)
    b_failure, b_method = batch.check()
    b_hash = batch.signature_hash()
    return {
        "total_ops": total_ops,
        "verdicts": [s_failure, b_failure],
        "methods": [s_method, b_method],
        "signature_hashes": [s_hash, b_hash],
        "agree": s_failure == b_failure and s_hash == b_hash,
    }


def check(report: dict) -> int:
    """Print the three gated figures; 1 if any of them fails, else 0."""
    scale = report["scale"]
    equivalence = report["equivalence"]
    failures = []
    print(f"peak RSS:        {scale['peak_rss_mb']:.1f} MB "
          f"(ceiling {RSS_CEILING_MB} MB)")
    if scale["peak_rss_mb"] > RSS_CEILING_MB:
        failures.append("peak RSS above the ceiling: streaming verification "
                        "must keep memory flat regardless of run length")
    print(f"folded records:  {scale['folded_records']:,} of "
          f"{scale['total_ops']:,} operations")
    if scale["folded_records"] != scale["total_ops"]:
        failures.append("not every operation was folded")
    print(f"equivalence:     streaming and batch "
          f"{'agree' if equivalence['agree'] else 'DISAGREE'} at "
          f"{equivalence['total_ops']:,} ops")
    if not equivalence["agree"]:
        failures.append(f"streaming/batch divergence: {equivalence}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help=f"CI-sized run ({QUICK_OPS:,} operations instead "
                             f"of {SCALE_OPS:,})")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on the peak-RSS ceiling, an "
                             "unfolded record or a streaming/batch "
                             "divergence")
    parser.add_argument("--fault-rate", type=float, default=0.0,
                        help="superimpose continuous stochastic packet loss "
                             "at this per-message rate and arm client "
                             "retry/backoff (default 0.0: neither)")
    parser.add_argument("--output", default=None,
                        help="also write the JSON report to this file")
    args = parser.parse_args(argv)

    if not 0.0 <= args.fault_rate <= 1.0:
        parser.error(f"--fault-rate wants 0.0..1.0, got {args.fault_rate}")

    # The tiny equivalence sub-run goes first so the scale run dominates
    # the process's lifetime peak RSS.
    equivalence = equivalence_check()
    report = {
        "quick": args.quick,
        "equivalence": equivalence,
        "scale": run_scale(QUICK_OPS if args.quick else SCALE_OPS,
                           fault_rate=args.fault_rate),
    }
    if args.output is not None:
        pathlib.Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.output}")
    print(json.dumps(report["scale"], indent=1))
    return check(report) if args.check else 0


if __name__ == "__main__":
    raise SystemExit(main())
