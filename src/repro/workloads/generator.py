"""Closed-loop workload driver.

Each participating client runs a *session*: a loop of operations separated by
an optional think time.  Writers issue writes of uniquely-labelled values of
the configured size; readers issue reads.  The driver works against every
:class:`~repro.core.deployment.Deployment` -- it reads ``sim``, ``writers``,
``readers`` and ``history`` -- and the single-register kind
(:class:`~repro.core.deployment.AresDeployment`) has clients with
``read()`` / ``write(value)`` coroutines.

Keyspaces: when the workload names a keyspace (``num_keys > 0``) and the
deployment is keyed (a :class:`~repro.store.deployment.StoreDeployment`),
every operation first samples an object key from a
:class:`KeyspaceSampler` -- uniform or hot-key Zipf -- and sessions call the
keyed client surface (``write(key, value)`` / ``read(key)``; batched
``multi_put`` / ``multi_get`` when ``batch_size > 1``).  Key sampling draws
from the workload RNG, so keyed scenarios stay byte-for-byte reproducible.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.values import Value
from repro.spec.history import History, OperationType


class KeyspaceSampler:
    """Deterministic sampler over the keyspace ``k0 .. k<num_keys-1>``.

    Parameters
    ----------
    num_keys:
        Size of the keyspace.
    distribution:
        ``"uniform"`` -- every key equally likely; ``"zipf"`` -- key ``k<i>``
        drawn with probability proportional to ``1 / (i + 1) ** zipf_s``, so
        low-indexed keys are hot (``k0`` hottest).  Zipf keyspaces create
        hot *shards* through the store's hash placement, which is what the
        hot-shard chaos scenarios stress.
    zipf_s:
        The Zipf skew exponent (larger = more skewed).
    """

    DISTRIBUTIONS = ("uniform", "zipf")

    def __init__(self, num_keys: int, distribution: str = "uniform",
                 zipf_s: float = 1.2) -> None:
        if num_keys <= 0:
            raise ValueError("a keyspace needs at least one key")
        if distribution not in self.DISTRIBUTIONS:
            raise ValueError(f"unknown key distribution {distribution!r}; "
                             f"supported: {', '.join(self.DISTRIBUTIONS)}")
        self.num_keys = num_keys
        self.distribution = distribution
        self.zipf_s = zipf_s
        self._cumulative: Optional[List[float]] = None
        if distribution == "zipf":
            total = 0.0
            cumulative = []
            for rank in range(num_keys):
                total += 1.0 / (rank + 1) ** zipf_s
                cumulative.append(total)
            self._cumulative = cumulative

    @staticmethod
    def key_name(index: int) -> str:
        """The conventional name of key ``index`` (``k<index>``)."""
        return f"k{index}"

    def sample_index(self, rng: random.Random) -> int:
        """Draw one key index from the distribution using ``rng``."""
        if self._cumulative is None:
            return rng.randrange(self.num_keys)
        point = rng.random() * self._cumulative[-1]
        return bisect_left(self._cumulative, point)

    def sample(self, rng: random.Random) -> str:
        """Draw one key name from the distribution using ``rng``."""
        return self.key_name(self.sample_index(rng))

    def sample_batch(self, rng: random.Random, count: int) -> List[str]:
        """Draw ``count`` *distinct* keys (for ``multi_get``/``multi_put``).

        Rejection-samples from the distribution; if the keyspace is smaller
        than ``count`` (or skew starves the tail), the batch is completed
        deterministically with the lowest unused indices, so batches always
        have exactly ``min(count, num_keys)`` keys and sampling terminates.
        """
        count = min(count, self.num_keys)
        chosen: List[str] = []
        seen = set()
        for _ in range(8 * count):
            if len(chosen) == count:
                return chosen
            index = self.sample_index(rng)
            if index not in seen:
                seen.add(index)
                chosen.append(self.key_name(index))
        for index in range(self.num_keys):
            if len(chosen) == count:
                break
            if index not in seen:
                seen.add(index)
                chosen.append(self.key_name(index))
        return chosen


@dataclass
class WorkloadSpec:
    """Parameters of a closed-loop workload.

    Attributes
    ----------
    operations_per_writer / operations_per_reader:
        Number of operations each writer/reader session issues.
    value_size:
        Size in bytes of every written value.
    think_time:
        Mean think time between consecutive operations of one session (0
        means back-to-back operations); the actual delay is exponential with
        this mean.
    seed:
        When set, workload randomness (think times) is drawn from a
        dedicated ``random.Random(seed)`` instead of the simulator RNG.
        Decoupling the two streams makes chaos scenarios reproducible
        byte-for-byte: armed faults and latency draws cannot shift the
        workload's arrival pattern and vice versa.  ``None`` keeps the
        historical behaviour of sharing the simulator RNG.
    num_keys:
        Size of the keyspace (``0`` = single-register workload, the
        historical behaviour).  Requires a keyed (store) deployment.
    key_distribution / zipf_s:
        How operations pick keys: ``"uniform"`` or hot-key ``"zipf"`` with
        skew ``zipf_s`` (see :class:`KeyspaceSampler`).
    batch_size:
        When ``> 1`` on a keyed workload, each session step issues one
        pipelined ``multi_put``/``multi_get`` over this many distinct keys
        instead of a single-key operation.
    max_events:
        Simulator event budget for the run (``None`` = the simulator's
        default livelock guard).  Scale benchmarks pushing 10^6+ operations
        need ~50 events per operation, well past the default cap.
    """

    operations_per_writer: int = 5
    operations_per_reader: int = 5
    value_size: int = 256
    think_time: float = 0.0
    seed: Optional[int] = None
    num_keys: int = 0
    key_distribution: str = "uniform"
    zipf_s: float = 1.2
    batch_size: int = 1
    max_events: Optional[int] = None


@dataclass
class WorkloadResult:
    """Summary statistics of a completed workload run."""

    total_operations: int
    read_latencies: List[float] = field(default_factory=list)
    write_latencies: List[float] = field(default_factory=list)
    duration: float = 0.0
    errors: List[str] = field(default_factory=list)

    @staticmethod
    def _mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_read_latency(self) -> float:
        """Average read latency in simulated time units."""
        return self._mean(self.read_latencies)

    @property
    def mean_write_latency(self) -> float:
        """Average write latency in simulated time units."""
        return self._mean(self.write_latencies)

    @property
    def throughput(self) -> float:
        """Completed operations per simulated time unit."""
        if self.duration <= 0:
            return 0.0
        return self.total_operations / self.duration


class ClosedLoopDriver:
    """Drives a deployment's clients according to a :class:`WorkloadSpec`.

    Parameters
    ----------
    rng:
        Explicit random source for workload randomness.  Defaults to
        ``random.Random(spec.seed)`` when the spec carries a seed, else to
        the simulator RNG (the historical behaviour).  There is no
        module-level randomness anywhere in this driver.
    """

    def __init__(self, deployment, spec: Optional[WorkloadSpec] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.deployment = deployment
        self.spec = spec or WorkloadSpec()
        self.sim = deployment.sim
        if rng is not None:
            self.rng = rng
        elif self.spec.seed is not None:
            self.rng = random.Random(self.spec.seed)
        else:
            self.rng = self.sim.rng
        # Keyed (store) workloads sample an object key per operation; the
        # workload must agree with the deployment about which surface to
        # drive, so a mismatch is a configuration error, not a silent fall
        # back to the wrong call signature.
        keyed_deployment = deployment.keyed
        if self.spec.num_keys > 0 and not keyed_deployment:
            raise ValueError(
                "workload names a keyspace (num_keys="
                f"{self.spec.num_keys}) but the deployment is a "
                "single-register system; use a StoreDeployment")
        if keyed_deployment and self.spec.num_keys <= 0:
            raise ValueError(
                "deployment is a keyed store but the workload has no "
                "keyspace; set WorkloadSpec.num_keys")
        if self.spec.batch_size < 1:
            raise ValueError("WorkloadSpec.batch_size must be >= 1")
        if self.spec.batch_size > 1 and self.spec.num_keys <= 0:
            raise ValueError(
                f"WorkloadSpec.batch_size={self.spec.batch_size} requires a "
                "keyspace (num_keys > 0); batches are multi-key operations")
        self.sampler: Optional[KeyspaceSampler] = None
        if self.spec.num_keys > 0:
            self.sampler = KeyspaceSampler(self.spec.num_keys,
                                           self.spec.key_distribution,
                                           self.spec.zipf_s)

    # ---------------------------------------------------------------- drive
    def run(self) -> WorkloadResult:
        """Run all sessions to completion and return the aggregated result."""
        start_time = self.sim.now
        sessions = []
        for writer in self.deployment.writers:
            sessions.append(writer.spawn(
                self._writer_session(writer), label=f"{writer.pid}:session"))
        for reader in self.deployment.readers:
            sessions.append(reader.spawn(
                self._reader_session(reader), label=f"{reader.pid}:session"))
        if self.spec.max_events is not None:
            self.sim.run(max_events=self.spec.max_events)
        else:
            self.sim.run()
        errors = [repr(s.exception()) for s in sessions if s.exception() is not None]
        # A drained event queue with an unfinished session means the workload
        # cannot make progress (e.g. a fault schedule cut a client off from
        # every quorum and the lost requests are never retransmitted).
        errors.extend(f"session {s.label!r} never completed (stalled)"
                      for s in sessions if not s.done())
        history: History = self.deployment.history
        stream = history.stream
        if stream is not None:
            # Streaming histories fold records away; the stream keeps exact
            # counts and bounded latency reservoirs, so the result never
            # materializes O(run) latency lists.
            return WorkloadResult(
                total_operations=stream.completed_operations,
                read_latencies=stream.read_latencies.sample(),
                write_latencies=stream.write_latencies.sample(),
                duration=self.sim.now - start_time,
                errors=errors,
            )
        result = WorkloadResult(
            total_operations=len(history.operations(complete_only=True)),
            read_latencies=history.latencies(OperationType.READ),
            write_latencies=history.latencies(OperationType.WRITE),
            duration=self.sim.now - start_time,
            errors=errors,
        )
        return result

    # -------------------------------------------------------------- sessions
    def _writer_session(self, writer):
        for _ in range(self.spec.operations_per_writer):
            yield from self._think(writer)
            if self.sampler is None:
                value = writer.next_value(self.spec.value_size)
                yield from writer.write(value)
            elif self.spec.batch_size > 1:
                keys = self.sampler.sample_batch(self.rng, self.spec.batch_size)
                items = {key: writer.next_value(self.spec.value_size)
                         for key in keys}
                yield from writer.multi_put(items)
            else:
                key = self.sampler.sample(self.rng)
                value = writer.next_value(self.spec.value_size)
                yield from writer.write(key, value)
        return None

    def _reader_session(self, reader):
        for _ in range(self.spec.operations_per_reader):
            yield from self._think(reader)
            if self.sampler is None:
                yield from reader.read()
            elif self.spec.batch_size > 1:
                keys = self.sampler.sample_batch(self.rng, self.spec.batch_size)
                yield from reader.multi_get(keys)
            else:
                yield from reader.read(self.sampler.sample(self.rng))
        return None

    def _think(self, client):
        if self.spec.think_time > 0:
            delay = self.rng.expovariate(1.0 / self.spec.think_time)
            yield client.sleep(delay)
        return None
