"""Deployment builders: one core, and the complete ARES system on top of it.

:class:`Deployment` wires together, once, everything a test, example or
benchmark needs from any runnable system: the simulator, the network (with
a chosen latency model), the configuration directory, the shared history
and (optionally) DAP recorder, a pool of server processes, the writer /
reader / reconfigurer populations, and the storage and traffic accounting.
The two kinds of system say which processes to build and add only what is
theirs: :class:`AresDeployment` (one reconfigurable register, this module)
and :class:`~repro.store.deployment.StoreDeployment` (many keys over
shards).  A static register -- the paper's one fixed configuration -- is an
:class:`AresDeployment` with ``num_reconfigurers=0``.

:class:`AresDeployment` also provides convenience helpers to build follow-up
configurations over fresh or existing servers, and synchronous wrappers
(``write`` / ``read`` / ``reconfig``) that spawn the corresponding client
coroutine and drive the simulator until it completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.ids import (
    ConfigId,
    ProcessId,
    config_id,
    reader_id,
    reconfigurer_id,
    server_id,
    writer_id,
)
from repro.common.values import Value
from repro.config.configuration import Configuration
from repro.core.ares_treas import DirectTransferReconfigurer, transfer_dap_state_factory
from repro.core.client import AresClient
from repro.core.directory import ConfigurationDirectory
from repro.core.reconfig import AresReconfigurer
from repro.core.server import AresServer
from repro.net.latency import LatencyModel, UniformLatency
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.sim.futures import Coroutine
from repro.sim.process import Process, RetryPolicy
from repro.spec.history import History
from repro.spec.properties import DapRecorder


@dataclass
class CommonSpec:
    """The parameters every kind of deployment shares.

    Attributes
    ----------
    num_writers, num_readers, num_reconfigurers:
        Client population.
    latency:
        Network latency model (default ``UniformLatency(1, 2)``).
    seed:
        Simulator seed.
    record_dap:
        Install a :class:`~repro.spec.properties.DapRecorder` on all clients.
    retry:
        A :class:`~repro.sim.process.RetryPolicy` installed on every writer
        and reader (never on reconfigurers), with jitter seeded per process
        from ``seed``.  ``None`` -- the default -- keeps the gather path (and
        the simulator event sequence) byte-identical to builds without retry.
    gc:
        Enable configuration retirement: every reconfiguration runs the
        gc-config phase, retiring (and reclaiming server state for) the
        configurations before the new last-finalized index.  ``False`` --
        the default -- keeps executions byte-identical to builds without
        retirement.
    """

    num_writers: int = 2
    num_readers: int = 2
    num_reconfigurers: int = 1
    latency: Optional[LatencyModel] = None
    seed: int = 0
    record_dap: bool = False
    retry: Optional[RetryPolicy] = None
    gc: bool = False


class Deployment:
    """What every runnable system owns: substrate, processes, accounting.

    Subclasses set :attr:`spec_class`, implement :meth:`_make_server`,
    :meth:`_make_client` and :meth:`_make_reconfigurer`, and build their
    processes at the end of ``__init__`` with :meth:`_build_servers` then
    :meth:`_build_clients` -- servers, writers, readers, reconfigurers, the
    order everything that iterates ``Network.processes`` relies on.
    """

    #: The spec dataclass built from keyword overrides.
    spec_class = CommonSpec
    #: Marks keyed (multi-object) deployments for the closed-loop workload
    #: driver and the scenario runner.
    keyed = False

    def __init__(self, spec: Optional[CommonSpec] = None, **overrides) -> None:
        if spec is None:
            spec = self.spec_class(**overrides)
        elif overrides:
            raise ConfigurationError(
                f"pass either a {self.spec_class.__name__} or keyword overrides, not both")
        self.spec = spec
        self.sim = Simulator(seed=spec.seed)
        self.network = Network(self.sim, latency=spec.latency or UniformLatency(1.0, 2.0))
        self.directory = ConfigurationDirectory()
        self.history = History()
        self.dap_recorder = DapRecorder(self.sim) if spec.record_dap else None
        self.servers: Dict[ProcessId, Process] = {}
        self.writers: List[Process] = []
        self.readers: List[Process] = []
        self.reconfigurers: List[Process] = []

    # -------------------------------------------------------------- processes
    def _make_server(self, pid: ProcessId) -> Process:
        """Build (and attach to the network) this kind's server ``pid``."""
        raise NotImplementedError

    def _make_client(self, pid: ProcessId) -> Process:
        """Build this kind's reader/writer client ``pid``."""
        raise NotImplementedError

    def _make_reconfigurer(self, pid: ProcessId) -> Process:
        """Build this kind's reconfiguration client ``pid``."""
        raise NotImplementedError

    def _build_servers(self, pids: Iterable[ProcessId]) -> List[ProcessId]:
        pids = list(pids)
        for pid in pids:
            self.servers[pid] = self._make_server(pid)
        return pids

    def _build_clients(self) -> None:
        spec = self.spec
        self.writers = [self._make_client(writer_id(i)) for i in range(spec.num_writers)]
        self.readers = [self._make_client(reader_id(i)) for i in range(spec.num_readers)]
        if spec.retry is not None:
            # Writers and readers only: reconfiguration drives consensus,
            # where blind re-broadcast under the same proposal is not a
            # safe retry unit.
            for client in [*self.writers, *self.readers]:
                client.enable_retries(spec.retry, seed=spec.seed)
        self.reconfigurers = [self._make_reconfigurer(reconfigurer_id(i))
                              for i in range(spec.num_reconfigurers)]

    def add_servers(self, count: int) -> List[ProcessId]:
        """Add ``count`` fresh servers to the pool and return their ids.

        Ids keep counting from the pool size (``s<n>``, ``s<n+1>``, ...).
        """
        first = len(self.servers)
        return self._build_servers(server_id(first + i) for i in range(count))

    def run(self) -> None:
        """Drain the event queue, completing all spawned operations."""
        self.sim.run()

    # ------------------------------------------------------------ accounting
    def total_storage_data_bytes(self) -> int:
        """Object-data bytes stored across every server (Theorem 3's metric)."""
        return sum(server.storage_data_bytes() for server in self.servers.values())

    def configs_retired(self) -> int:
        """Configurations reclaimed across the server pool (GC acks)."""
        return sum(server.configs_retired for server in self.servers.values())

    def bytes_reclaimed(self) -> int:
        """Object-data bytes reclaimed by retirement across the server pool."""
        return sum(server.bytes_reclaimed for server in self.servers.values())

    @property
    def stats(self):
        """Network traffic statistics."""
        return self.network.stats


@dataclass
class DeploymentSpec(CommonSpec):
    """Parameters of an ARES deployment (plus those of :class:`CommonSpec`).

    Attributes
    ----------
    num_servers:
        Size of the initial server pool (more can be added later with
        :meth:`AresDeployment.add_servers`).
    initial_dap:
        DAP kind of the initial configuration (``"treas"``, ``"abd"`` or
        ``"ldr"``; LDR takes the first half of the servers, rounded down, as
        directories and the rest as replicas).
    initial_config_size:
        Number of servers in the initial configuration (defaults to the whole
        pool).
    k:
        Erasure-code dimension for TREAS configurations (default ``⌈2n/3⌉``).
    delta:
        TREAS garbage-collection / concurrency parameter δ.
    consensus_delay:
        Extra latency per consensus decision (the ``T(CN)`` knob).
    direct_state_transfer:
        Enable the Section 5 ARES-TREAS transfer path.
    """

    num_servers: int = 5
    initial_dap: str = "treas"
    initial_config_size: Optional[int] = None
    k: Optional[int] = None
    delta: int = 4
    consensus_delay: float = 0.0
    direct_state_transfer: bool = False


class AresDeployment(Deployment):
    """A complete, runnable ARES system."""

    spec_class = DeploymentSpec

    def __init__(self, spec: Optional[DeploymentSpec] = None, **overrides) -> None:
        super().__init__(spec, **overrides)
        spec = self.spec
        self._config_counter = 0
        pool = self.add_servers(spec.num_servers)
        self.initial_configuration = self._next_configuration(
            spec.initial_dap, pool[:spec.initial_config_size or len(pool)], k=spec.k)
        self.directory.register(self.initial_configuration)
        self._build_clients()

    def _make_server(self, pid: ProcessId) -> AresServer:
        factory = transfer_dap_state_factory if self.spec.direct_state_transfer else None
        return AresServer(pid, self.network, self.directory, dap_state_factory=factory)

    def _make_client(self, pid: ProcessId) -> AresClient:
        return AresClient(pid, self.network, self.directory, self.initial_configuration,
                          history=self.history, dap_recorder=self.dap_recorder)

    def _make_reconfigurer(self, pid: ProcessId) -> AresReconfigurer:
        spec = self.spec
        reconfigurer_class = (DirectTransferReconfigurer if spec.direct_state_transfer
                              else AresReconfigurer)
        return reconfigurer_class(pid, self.network, self.directory,
                                  self.initial_configuration, history=self.history,
                                  dap_recorder=self.dap_recorder,
                                  consensus_delay=spec.consensus_delay, gc=spec.gc)

    # --------------------------------------------------------- configuration
    def _next_configuration(self, dap: str, servers: Sequence[ProcessId],
                            k: Optional[int] = None,
                            delta: Optional[int] = None) -> Configuration:
        cfg = config_id(self._config_counter)
        self._config_counter += 1
        return Configuration.of_kind(dap, cfg, servers, k=k,
                                     delta=self.spec.delta if delta is None else delta)

    def make_configuration(self, dap: str = "treas",
                           servers: Optional[Sequence[ProcessId]] = None,
                           fresh_servers: int = 0,
                           k: Optional[int] = None,
                           delta: Optional[int] = None) -> Configuration:
        """Build (and register server processes for) a candidate next configuration.

        Either pass an explicit ``servers`` list (existing pool members), or a
        number of ``fresh_servers`` to add to the pool, or both.
        """
        chosen: List[ProcessId] = list(servers) if servers else []
        if fresh_servers:
            chosen.extend(self.add_servers(fresh_servers))
        if not chosen:
            chosen = list(self.initial_configuration.servers)
        return self._next_configuration(dap, chosen, k=k, delta=delta)

    # ------------------------------------------------------------ operations
    def spawn_write(self, value: Value, writer_index: int = 0) -> Coroutine:
        """Start a write without driving the simulator."""
        writer = self.writers[writer_index]
        return writer.spawn(writer.write(value), label=f"{writer.pid}:write")

    def spawn_read(self, reader_index: int = 0) -> Coroutine:
        """Start a read without driving the simulator."""
        reader = self.readers[reader_index]
        return reader.spawn(reader.read(), label=f"{reader.pid}:read")

    def write(self, value: Value, writer_index: int = 0):
        """Run one write to completion; returns the written tag."""
        return self.sim.run_until_complete(self.spawn_write(value, writer_index))

    def read(self, reader_index: int = 0) -> Value:
        """Run one read to completion; returns the value."""
        return self.sim.run_until_complete(self.spawn_read(reader_index))

    def spawn_reconfig(self, configuration: Configuration,
                       reconfigurer_index: int = 0) -> Coroutine:
        """Start a reconfiguration without driving the simulator."""
        reconfigurer = self.reconfigurers[reconfigurer_index]
        return reconfigurer.spawn(reconfigurer.reconfig(configuration),
                                  label=f"{reconfigurer.pid}:reconfig")

    def reconfig(self, configuration: Configuration, reconfigurer_index: int = 0) -> Configuration:
        """Run one reconfiguration to completion; returns the installed configuration."""
        return self.sim.run_until_complete(
            self.spawn_reconfig(configuration, reconfigurer_index))

    # ------------------------------------------------------------ accounting
    def storage_by_configuration(self) -> Dict[ConfigId, int]:
        """Object-data bytes stored per configuration (summed over servers)."""
        totals: Dict[ConfigId, int] = {}
        for server in self.servers.values():
            for cfg_id, state in server.dap_states.items():
                totals[cfg_id] = totals.get(cfg_id, 0) + state.storage_data_bytes()
        return totals
