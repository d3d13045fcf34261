"""Hot-path microbenchmarks of the simulator, network and checker.

* **events/sec** -- the simulator core's slotted tuple-heap + same-time FIFO
  lane on a mix of timers, cancels and same-time callback chains;
* **messages/sec** -- ``Network.send``'s zero-chaos fast path;
* **checker ops/sec** -- the value-partition fast linearizability checker
  versus the Wing-Gong reference search (``check_linearizability_reference``,
  the precision fallback), after asserting both reach the same verdict;
* **end-to-end** -- ``run_scenario`` + atomicity verification of a scaled-up
  mixed-DAP storm.

The numbers feed ``perf_report.py``, which persists them to
``BENCH_CORE.json``; whole-run determinism is pinned by the golden
signatures of ``tests/test_perf_determinism.py``, not here.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.analysis.report import Table
from repro.sim.core import Simulator
from repro.spec.linearizability import (check_linearizability,
                                        check_linearizability_reference)
from repro.workloads.generator import WorkloadSpec
from repro.workloads.scenarios import SCENARIOS, get_scenario, run_scenario
from repro.net.network import Network
from repro.net.message import Message
from repro.sim.process import Process
from repro.net.latency import UniformLatency

#: The scaled mixed-DAP storm: the registered scenario's deployment, chaos
#: schedule and reconfiguration pressure, with an order-of-magnitude more
#: client operations (this is the sweep size PR 2 set out to unlock).
STORM = "storm_mixed_dap_chaos"
SCALED_OPS = 150
QUICK_SCALED_OPS = 25


def scaled_storm(ops_per_client: int = SCALED_OPS) -> str:
    """Ensure a scaled variant of the storm is registered; return its name."""
    name = f"{STORM}_x{ops_per_client}"
    if name not in SCENARIOS:
        base = get_scenario(STORM)
        SCENARIOS[name] = dataclasses.replace(
            base, name=name,
            workload=WorkloadSpec(operations_per_writer=ops_per_client,
                                  operations_per_reader=ops_per_client,
                                  value_size=512, think_time=0.5))
    return name


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------- events/sec
def _event_storm(sim, n_timers: int, fanout: int = 4) -> None:
    """A deterministic mix of heap timers and same-time callback chains."""
    fired = []

    def on_timer(i):
        fired.append(i)
        if i % 3 == 0:
            # A cancel soon after scheduling: exercises lazy deletion.
            sim.schedule(5.0, fired.append, args=(-i,)).cancel()
        for k in range(fanout):
            sim.call_soon(fired.append, args=(i * fanout + k,))

    for i in range(n_timers):
        sim.schedule(1.0 + (i % 97) * 0.25, on_timer, args=(i,))
    sim.run()


def event_throughput(n_timers: int) -> float:
    """Simulator events/sec on the event storm (best of three)."""
    elapsed = _best_of(lambda: _event_storm(Simulator(seed=1), n_timers))
    events = Simulator(seed=1)
    _event_storm(events, n_timers)
    return events.events_processed / elapsed


@pytest.mark.experiment("E10")
def test_event_throughput(benchmark, quick):
    n_timers = 2_000 if quick else 20_000
    table = Table(
        "E10: simulator core event throughput (slotted tuple heap + FIFO lane)",
        ["timers", "events/sec"],
    )
    table.add_row(n_timers, f"{event_throughput(n_timers):,.0f}")
    table.print()
    benchmark(lambda: _event_storm(Simulator(seed=1), 200))


# -------------------------------------------------------------- messages/sec
class _Echo(Process):
    """Replies to every PING with a PONG (and counts deliveries)."""

    def on_message(self, src, message):
        if message.kind == "PING":
            self.network.send(self.pid, src, Message(kind="PONG", data_bytes=64))


def _message_storm(sim, n_messages: int) -> int:
    from repro.common.ids import server_id

    network = Network(sim, latency=UniformLatency(1.0, 2.0))
    nodes = [_Echo(server_id(i), network) for i in range(6)]
    for i in range(n_messages):
        src = nodes[i % 6]
        dst = nodes[(i * 5 + 1) % 6]
        src.send(dst.pid, Message(kind="PING", data_bytes=64))
    sim.run()
    return network.messages_delivered


def message_throughput(n_messages: int) -> float:
    """Network messages/sec on the echo storm (best of three)."""
    delivered = _message_storm(Simulator(seed=2), n_messages)
    assert delivered == 2 * n_messages, "every PING and its PONG must arrive"
    return delivered / _best_of(lambda: _message_storm(Simulator(seed=2), n_messages))


@pytest.mark.experiment("E10")
def test_message_throughput(benchmark, quick):
    n_messages = 2_000 if quick else 20_000
    table = Table(
        "E10: network send/deliver throughput, zero-chaos fast path "
        "(hookless sends skip every fault loop, no closure per message)",
        ["messages", "messages/sec"],
    )
    table.add_row(n_messages, f"{message_throughput(n_messages):,.0f}")
    table.print()
    benchmark(lambda: _message_storm(Simulator(seed=2), 200))


# ------------------------------------------------------------- checker speed
def checker_comparison(ops_per_client: int):
    """Check the scaled storm's history with both checkers; return metrics."""
    name = scaled_storm(ops_per_client)
    result = run_scenario(name, seed=0)
    history = result.history
    fast = check_linearizability(history)
    t_fast = _best_of(lambda: check_linearizability(history))
    reference = check_linearizability_reference(history)
    t_ref = _best_of(lambda: check_linearizability_reference(history), repeats=1)
    assert fast.ok and reference.ok and fast.method == "fast", (
        f"checker disagreement or fallback on {name}: fast={fast.ok}/{fast.method} "
        f"reference={reference.ok}")
    n_ops = len(history)
    return {
        "history_ops": n_ops,
        "fast_sec": t_fast,
        "reference_sec": t_ref,
        "ops_per_sec": n_ops / t_fast,
        "reference_ops_per_sec": n_ops / t_ref,
        "fast_states_explored": fast.states_explored,
        "reference_states_explored": reference.states_explored,
    }


@pytest.mark.experiment("E10")
def test_checker_speedup(benchmark, quick):
    metrics = checker_comparison(QUICK_SCALED_OPS if quick else SCALED_OPS)
    table = Table(
        "E10: linearizability checking of the scaled mixed-DAP storm history "
        "(value-partition fast checker vs Wing-Gong reference search)",
        ["path", "history ops", "ms", "states explored", "checker ops/sec"],
    )
    table.add_row("reference", metrics["history_ops"],
                  round(metrics["reference_sec"] * 1e3, 1),
                  metrics["reference_states_explored"],
                  f"{metrics['reference_ops_per_sec']:,.0f}")
    table.add_row("fast", metrics["history_ops"],
                  round(metrics["fast_sec"] * 1e3, 1),
                  metrics["fast_states_explored"],
                  f"{metrics['ops_per_sec']:,.0f}")
    table.print()
    if not quick:
        assert metrics["ops_per_sec"] > 3 * metrics["reference_ops_per_sec"], (
            "fast checker shows no clear win over the reference search")
    history = run_scenario(scaled_storm(QUICK_SCALED_OPS), seed=0).history
    benchmark(lambda: check_linearizability(history))


# ------------------------------------------------------------- end to end
def end_to_end(ops_per_client: int, seed: int = 0):
    """Run + verify the scaled storm; return metrics.

    'End to end' is the full scenario pipeline as CI exercises it: the
    seed-deterministic chaos run followed by atomicity verification of the
    recorded history.
    """
    name = scaled_storm(ops_per_client)

    start = time.perf_counter()
    result = run_scenario(name, seed=seed)
    run = time.perf_counter() - start
    start = time.perf_counter()
    check = check_linearizability(result.history)
    verify = time.perf_counter() - start

    assert check.ok
    return {
        "scenario": name,
        "history_ops": len(result.history),
        "events": result.deployment.sim.events_processed,
        "messages": result.deployment.network.messages_sent,
        "run_sec": run,
        "verify_sec": verify,
        "total_sec": run + verify,
    }


@pytest.mark.experiment("E10")
def test_end_to_end_storm(benchmark, quick):
    metrics = end_to_end(QUICK_SCALED_OPS if quick else SCALED_OPS)
    table = Table(
        f"E10: end-to-end {metrics['scenario']} (run_scenario + atomicity "
        f"verification; {metrics['history_ops']} ops, {metrics['events']} events)",
        ["run ms", "verify ms", "total ms"],
    )
    table.add_row(round(metrics["run_sec"] * 1e3),
                  round(metrics["verify_sec"] * 1e3),
                  round(metrics["total_sec"] * 1e3))
    table.print()
    benchmark(lambda: run_scenario(STORM, seed=0))


if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from conftest import main

    raise SystemExit(main(__file__))
