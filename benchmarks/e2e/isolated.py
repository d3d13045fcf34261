"""Isolated layer speeds: public calls of one layer, timed directly.

No profiler is involved, so these are the cross-check on the traced run's
shares: if the trace says a layer got cheaper, its isolated speed should
have risen.  Every figure is the best of :data:`TRIALS` timings of a fixed,
seed-free amount of work, in reference-host seconds (:mod:`hostclock`).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from hostclock import HostClock

from repro.common.ids import ProcessId, Role, reader_id, server_id, writer_id
from repro.common.tags import Tag
from repro.common.values import Value
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.erasure.rs import ReedSolomonCode, decode_cache_clear
from repro.net.latency import UniformLatency
from repro.net.message import reply, request
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.sim.process import Process
from repro.spec.history import History, OperationType
from repro.spec.linearizability import check_linearizability_per_key

TRIALS = 5

_KERNEL_EVENTS = 50_000
_MESSAGES = 20_000
_GATHER_ROUNDS = 1_500
_VALUE_BYTES = 64 * 1024
_CODEC_CALLS = 24
_HISTORY_OPS = 20_000
_RECONFIGS = 12


@dataclass(frozen=True)
class Probe:
    """``amount`` units of one layer's work: ``work(prepare())``, timed."""

    name: str
    amount: float
    work: Callable[..., object]
    #: Builds fresh state for each trial, untimed (``None``: ``work()``).
    prepare: Optional[Callable[[], object]] = None

    def speed(self, trials: int, clock: HostClock) -> float:
        """``amount`` per reference-host second, from the shortest of
        ``trials`` timings (each scaled by the host's speed right after)."""
        best = float("inf")
        for _ in range(trials):
            args = () if self.prepare is None else (self.prepare(),)
            started = time.perf_counter()
            self.work(*args)
            best = min(best, clock.scale(time.perf_counter() - started))
        return self.amount / best


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise RuntimeError(f"isolated layer benchmark: {what}")


def _noop() -> None:
    return None


def kernel_probe() -> Probe:
    """``schedule`` + ``run`` of no-op timers at scattered firing times."""
    def work() -> None:
        sim = Simulator(seed=0)
        for index in range(_KERNEL_EVENTS):
            sim.schedule((index * 7919) % 1000 / 10.0, _noop)
        sim.run()
    return Probe("sim.core.kernel_events_per_s", _KERNEL_EVENTS, work)


class _Sink(Process):
    """Receives and discards."""


class _Echo(Process):
    """Replies to every request (a one-line server)."""

    def on_message(self, src: ProcessId, message) -> None:
        self.send(src, reply(message))


def send_deliver_probe(name: str, hooked: bool) -> Probe:
    """Point-to-point ``send`` + delivery, on the quiet or the hooked path."""
    def prepare() -> Network:
        network = Network(Simulator(seed=0), latency=UniformLatency(1.0, 2.0))
        _Sink(server_id(0), network)
        _Sink(server_id(1), network)
        if hooked:
            network.add_drop_filter(lambda src, dest, message: False)
            network.add_delay_adjuster(lambda src, dest, message, delay: delay)
        return network

    def work(network: Network) -> None:
        src, dest = server_id(0), server_id(1)
        message = request("BENCH", 1)
        for _ in range(_MESSAGES):
            network.send(src, dest, message)
        network.sim.run()

    return Probe(name, _MESSAGES, work, prepare)


def gather_probe() -> Probe:
    """Sequential ``broadcast_and_gather`` rounds to 5 echo servers."""
    def prepare() -> Tuple[Process, List[ProcessId]]:
        network = Network(Simulator(seed=0), latency=UniformLatency(1.0, 2.0))
        servers = [server_id(index) for index in range(5)]
        for pid in servers:
            _Echo(pid, network)
        return _Sink(writer_id(0), network), servers

    def work(state) -> None:
        client, servers = state

        def session():
            for _ in range(_GATHER_ROUNDS):
                yield client.broadcast_and_gather(
                    servers, lambda rid: request("BENCH", rid), threshold=3)

        done = client.spawn(session())
        client.sim.run()
        _require(done.done(), "gather session stalled")

    return Probe("sim.process.gather_rounds_per_s", _GATHER_ROUNDS, work, prepare)


def erasure_probes() -> List[Probe]:
    """RS [6, 4] on a 64 KiB value: encode, cold decode, warm decode."""
    code = ReedSolomonCode(6, 4)
    value = Value(payload=random.Random(0).randbytes(_VALUE_BYTES), label="v")
    elements = code.encode(value)
    survivors = elements[2:]          # two data shards lost: a real decode
    _require(code.decode(survivors).payload == value.payload,
             "RS [6,4] decode returned a different value")
    megabytes = _CODEC_CALLS * _VALUE_BYTES / 1e6

    def encode() -> None:
        for _ in range(_CODEC_CALLS):
            code.encode(value)

    def decode_cold() -> None:
        for _ in range(_CODEC_CALLS):
            decode_cache_clear()
            code.decode(survivors)

    def decode_warm() -> None:
        for _ in range(_CODEC_CALLS):
            code.decode(survivors)

    return [Probe("erasure.encode_MBps", megabytes, encode),
            Probe("erasure.decode_cold_MBps", megabytes, decode_cold),
            Probe("erasure.decode_warm_MBps", megabytes, decode_warm)]


def _recorded_history() -> List[tuple]:
    """A linearizable 20 000-op keyed history, as time-ordered events.

    Eight clients run back-to-back operations over 64 atomic registers;
    each operation takes effect at a point inside its interval, so the
    history is linearizable by construction and richly concurrent.  Events
    are ``(time, op index, is_response, client, type, key, label, tag)``.
    """
    rng = random.Random(20_000)
    clients = [writer_id(index) for index in range(4)]
    clients += [reader_id(index) for index in range(4)]
    free_at = [rng.random() for _ in clients]
    points = []
    for index in range(_HISTORY_OPS):
        who = index % len(clients)
        invoked = free_at[who]
        effect = invoked + rng.uniform(1.0, 3.0)
        responded = effect + rng.uniform(1.0, 3.0)
        free_at[who] = responded + 0.01
        points.append((effect, index, who, invoked, responded,
                       f"k{rng.randrange(64)}"))
    points.sort()
    current: Dict[str, Tuple[str, Tag]] = {}
    events = []
    for rank, (_effect, index, who, invoked, responded, key) in enumerate(points):
        writer = clients[who]
        if writer.role is Role.WRITER:
            # Tags grow in effect order, as a correct protocol's would.
            label, tag = f"w{index}", Tag(rank + 1, writer)
            current[key] = (label, tag)
            kind = OperationType.WRITE
        else:
            label, tag = current.get(key, ("v0", Tag(0)))
            kind = OperationType.READ
        events.append((invoked, index, 0, writer, kind, key, label, tag))
        events.append((responded, index, 1, writer, kind, key, label, tag))
    events.sort(key=lambda event: event[:3])
    return events


def _replay(events: List[tuple], history: History) -> None:
    open_records = {}
    for at, index, is_response, client, kind, key, label, tag in events:
        if not is_response:
            open_records[index] = history.invoke(
                client, kind, at,
                value_label=label if kind is OperationType.WRITE else None,
                key=key)
        else:
            history.respond(open_records.pop(index), at, value_label=label, tag=tag)


def checker_probes() -> List[Probe]:
    """One recorded history through the streaming and the batch checker."""
    events = _recorded_history()

    def streaming() -> None:
        history = History()
        stream = history.enable_streaming()
        _replay(events, history)
        stream.finalize()
        _require(stream.linearizability_failure() is None
                 and stream.tag_failure() is None,
                 "streaming checker rejected a linearizable history")

    def prepare_batch() -> History:
        history = History()
        _replay(events, history)
        return history

    def batch(history: History) -> None:
        _require(check_linearizability_per_key(history).ok,
                 "batch checker rejected a linearizable history")

    return [Probe("spec.stream_check_ops_per_s", _HISTORY_OPS, streaming),
            Probe("spec.batch_check_ops_per_s", _HISTORY_OPS, batch, prepare_batch)]


def reconfig_probe() -> Probe:
    """Sequential ``AresDeployment.reconfig()`` on ABD-5, no clients."""
    def prepare() -> AresDeployment:
        return AresDeployment(DeploymentSpec(
            num_servers=5, initial_dap="abd", num_writers=0, num_readers=0,
            num_reconfigurers=1, latency=UniformLatency(1.0, 2.0), seed=0))

    def work(deployment: AresDeployment) -> None:
        for _ in range(_RECONFIGS):
            deployment.reconfig(
                deployment.make_configuration(dap="abd", fresh_servers=5))

    return Probe("core.reconfigs_per_s", _RECONFIGS, work, prepare)


def calibration_probe() -> Probe:
    """A fixed pure-Python loop, for reading numbers across hosts only."""
    def work() -> int:
        total = 0
        bucket: Dict[int, int] = {}
        pair = (0, 0)
        for i in range(200_000):
            key = i & 1023
            bucket[key] = bucket.get(key, 0) + i
            if (i & 511, key) > pair:
                pair = (i & 511, key)
            total += i
        return total
    return Probe("common.calibration_ops_per_s", 200_000, work)


def measure_all(trials: int = TRIALS) -> Dict[str, float]:
    """Every isolated layer speed, by metric name."""
    probes = [
        kernel_probe(),
        send_deliver_probe("net.send_deliver_msgs_per_s", hooked=False),
        send_deliver_probe("net.send_deliver_hooked_msgs_per_s", hooked=True),
        gather_probe(),
        *erasure_probes(),
        *checker_probes(),
        reconfig_probe(),
        calibration_probe(),
    ]
    clock = HostClock()
    return {probe.name: probe.speed(trials, clock) for probe in probes}
