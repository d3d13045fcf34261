"""One verified run of one workload, and every number read off it.

:func:`run_once` drives a fresh deployment through
``run_scenario_instance`` + ``check()`` -- the timed region -- and then
reads the end-to-end figures and the exact per-layer counts from public
counters of the finished deployment.  Nothing here instruments ``src/``:
with the same ``(workload, ops, seed)`` every count repeats exactly.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import time
from typing import Dict, List, Optional, Sequence

from repro.common.values import payload_cache_info
from repro.erasure.rs import decode_cache_info
from repro.spec.history import OperationType
from repro.workloads.scenarios import run_scenario_instance

from workloads import Workload

#: Untimed warm-up run of every fresh process (fills the payload, decode
#: and generator caches and warms the interpreter's specialised bytecode).
WARMUP_OPS = 400

#: MetricsReport histogram -> per-layer metric (quorum-wait medians).
_ROUND_MEDIANS = {
    "round:abd-get-tag": "dap.get_tag_round_vt_p50",
    "round:abd-get-data": "dap.get_data_round_vt_p50",
    "round:abd-put-data": "dap.put_data_round_vt_p50",
    "round:read-next-config": "core.read_config_round_vt_p50",
}


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _hit_rate(before: Dict[str, int], after: Dict[str, int]) -> float:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups > 0 else 0.0


def run_once(workload: Workload, ops: int, seed: int, profiler=None,
             clock=None) -> dict:
    """Drive and verify one fresh deployment; return everything measured.

    The result has ``host_s`` (drive + verify wall time, without the time
    ``clock`` took for itself), ``reference_s`` (the same region on
    ``clock``, a :class:`hostclock.HostClock`, in reference-host seconds;
    ``None`` without one), ``attempted`` / ``verified`` operation counts,
    ``failure`` (``None`` when every check passed), ``signature`` and two
    flat ``{name: value}`` dicts: ``end_to_end`` (deterministic figures
    only; the caller derives the host-time ones) and ``counts`` (exact
    per-layer counts).  With ``profiler`` (a ``cProfile.Profile``) the
    timed region runs under it.
    """
    scenario = workload.build(ops)
    spec = scenario.workload
    gc.collect()
    payload_before = payload_cache_info()
    decode_before = decode_cache_info()
    if profiler is not None:
        profiler.enable()
    if clock is not None:
        clock.start()
    started = time.perf_counter()
    result = run_scenario_instance(scenario, seed=seed,
                                   streaming=workload.streaming,
                                   metrics=workload.metrics)
    driven = time.perf_counter()
    failure, _method = result.check()
    checked = time.perf_counter()
    clock_s = clock.kernel_s if clock is not None else 0.0
    reference_s = clock.stop() if clock is not None else None
    if profiler is not None:
        profiler.disable()

    deployment = result.deployment
    attempted = spec.batch_size * (
        len(deployment.writers) * spec.operations_per_writer
        + len(deployment.readers) * spec.operations_per_reader)
    if workload.metrics:
        # run_scenario_instance cleared both caches, so totals are deltas.
        payload_before = decode_before = {"hits": 0, "misses": 0}
    payload_rate = _hit_rate(payload_before, payload_cache_info())
    decode_rate = _hit_rate(decode_before, decode_cache_info())
    if failure is None and scenario.gc and deployment.configs_retired() == 0:
        failure = f"{workload.name}: gc is on but no configuration was retired"

    stream = deployment.history.stream
    reconfig_latencies: List[float] = []
    if stream is not None:
        completed = stream.completed_operations
        reads = stream.read_latencies.sample()
        writes = stream.write_latencies.sample()
        retained = stream.open_window_peak
    else:
        history = deployment.history
        reads = history.latencies(OperationType.READ)
        writes = history.latencies(OperationType.WRITE)
        reconfig_latencies = history.latencies(OperationType.RECONFIG)
        completed = len(reads) + len(writes)
        retained = len(history)
    verified = completed if failure is None else 0

    network = deployment.network
    traffic = network.stats
    per_op = 1.0 / attempted
    stored_keys = sum(1 for stored in deployment.storage_by_key().values()
                      if stored > 0)
    user_bytes = stored_keys * spec.value_size
    end_to_end = {
        "read_latency_vt_p50": percentile(reads, 0.50),
        "read_latency_vt_p99": percentile(reads, 0.99),
        "write_latency_vt_p50": percentile(writes, 0.50),
        "write_latency_vt_p99": percentile(writes, 0.99),
        "messages_per_op": network.messages_sent * per_op,
        "wire_bytes_per_op": traffic.global_record.total_bytes * per_op,
        "storage_bytes_per_user_byte":
            deployment.total_storage_data_bytes() / user_bytes if user_bytes else 0.0,
    }

    def messages_of(*prefixes: str) -> int:
        return sum(record.messages for kind, record in traffic.per_kind.items()
                   if kind.startswith(prefixes))

    clients = [*deployment.writers, *deployment.readers]
    reconfigs = sum(r.completed_reconfigs for r in deployment.reconfigurers)
    by_shard = list(deployment.storage_by_shard().values())
    mean_shard = sum(by_shard) / len(by_shard)
    wire_total = network.messages_delivered + network.messages_dropped
    report = result.metrics
    counts = {
        "sim.core.events_per_op": deployment.sim.events_processed * per_op,
        "sim.core.cancelled_events_per_op": deployment.sim.cancelled_events * per_op,
        "sim.process.retries_per_kop": 1000.0 * sum(c.retries for c in clients) * per_op,
        "sim.process.nacks_per_kop":
            1000.0 * sum(c.nacks_received for c in clients) * per_op,
        "net.delivered_share": network.messages_delivered / wire_total,
        "net.dropped_per_kop": 1000.0 * network.messages_dropped * per_op,
        "net.duplicated_per_kop": 1000.0 * network.messages_duplicated * per_op,
        "net.data_bytes_per_op": traffic.global_record.data_bytes * per_op,
        "net.metadata_bytes_per_op": traffic.global_record.metadata_bytes * per_op,
        "dap.msgs_per_op": messages_of("ABD-", "TREAS-", "LDR-") * per_op,
        "core.read_config_msgs_per_op":
            messages_of("ARES-READ-CONFIG", "ARES-NEXT-CONFIG") * per_op,
        "consensus.msgs_per_reconfig":
            messages_of("PAXOS-") / reconfigs if reconfigs else 0.0,
        "core.reconfigs_completed": reconfigs,
        "core.reconfig_latency_vt_p50": percentile(reconfig_latencies, 0.50),
        "core.reconfig_latency_vt_p99": percentile(reconfig_latencies, 0.99),
        "core.configs_retired": deployment.configs_retired(),
        "core.bytes_reclaimed": deployment.bytes_reclaimed(),
        "store.shard_skew": max(by_shard) / mean_shard if mean_shard else 0.0,
        "store.servers_final": len(deployment.servers),
        "erasure.decode_cache_hit_rate": decode_rate,
        "common.payload_cache_hit_rate": payload_rate,
        "spec.open_window_peak": retained,
        "chaos.fault_activations":
            report.counter_total("fault_activations") if report else 0,
        "chaos.gate_triggers": sum(gate.triggers for gate in result.engine.gates),
        "obs.report_bytes": len(json.dumps(report.to_json())) if report else 0,
    }
    for histogram, name in _ROUND_MEDIANS.items():
        summary = report.histogram(histogram) if report else None
        counts[name] = summary["p50"] if summary else 0.0

    return {
        "host_s": checked - started - clock_s,
        "reference_s": reference_s,
        "check_s": checked - driven,
        "attempted": attempted,
        "verified": verified,
        "failure": failure,
        "signature": result.signature_hash(),
        "samples": {"read": len(reads), "write": len(writes),
                    "reconfig": len(reconfig_latencies)},
        "end_to_end": end_to_end,
        "counts": counts,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process since it was exec'ed, in MB.

    ``VmHWM`` rather than ``ru_maxrss``: the latter also covers the parent's
    image the child was forked from, so it would report the benchmark
    driver's size for every small workload.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_repeat(workload: Workload, ops: int, seed: int, clock,
                 boot_s: float = 0.0) -> dict:
    """Finish setting this process up, then time one drive + verify.

    ``clock`` is running and has been since set-up began (``boot_s``
    reference seconds before that); set-up ends with an untimed warm-up
    run.  Adds ``setup_s`` (reference seconds) and ``peak_rss_mb``.
    """
    run_once(workload, min(ops, WARMUP_OPS), seed)
    setup_s = boot_s + clock.stop()
    run = run_once(workload, ops, seed, clock=clock)
    run["setup_s"] = setup_s
    run["peak_rss_mb"] = peak_rss_mb()
    return run


def first_difference(runs: Sequence[dict]) -> Optional[str]:
    """The first deterministic figure on which ``runs`` disagree, if any."""
    reference = runs[0]
    for other in runs[1:]:
        for section in ("end_to_end", "counts"):
            for name, value in reference[section].items():
                if other[section][name] != value:
                    return f"{name}: {value!r} != {other[section][name]!r}"
        for name in ("attempted", "verified"):
            if other[name] != reference[name]:
                return f"{name}: {reference[name]} != {other[name]}"
        if other["signature"] != reference["signature"]:
            return (f"signature_hash: {reference['signature'][:16]} != "
                    f"{other['signature'][:16]}")
    return None
