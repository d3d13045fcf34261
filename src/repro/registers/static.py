"""Static (single-configuration) register deployments.

* :class:`RegisterServer` -- a server process hosting the DAP server state of
  one configuration.
* :class:`RegisterClient` -- a client process exposing ``read`` and ``write``
  following the generic templates A1 (read = get-data; put-data) and A2
  (read = get-data only), Algorithms 10 and 11.
* :class:`StaticRegisterDeployment` -- builds a whole system (simulator,
  network, servers, clients) for one configuration and offers synchronous
  helpers for tests, examples and benchmarks.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import ConfigurationError
from repro.common.ids import ProcessId, config_id, server_id
from repro.common.tags import TagValue
from repro.common.values import Value
from repro.config.configuration import Configuration
from repro.core.deployment import CommonSpec, SingleRegisterDeployment
from repro.dap import make_dap_client, make_dap_server_state
from repro.dap.interface import DapServerState
from repro.net.latency import FixedLatency, LatencyModel
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.process import Process
from repro.spec.history import History, OperationType
from repro.spec.properties import DapRecorder


class RegisterServer(Process):
    """A server hosting the DAP state of a single configuration."""

    #: Retirement accounting: a static configuration is never retired.
    configs_retired = 0
    bytes_reclaimed = 0

    def __init__(self, pid: ProcessId, network: Network, configuration: Configuration) -> None:
        super().__init__(pid, network)
        self.configuration = configuration
        self.dap_state: DapServerState = make_dap_server_state(configuration, pid)
        self.dap_state.bind(self)

    def on_message(self, src: ProcessId, message: Message) -> None:
        response = self.dap_state.handle(src, message)
        if response is not None:
            self.send(src, response)

    # ------------------------------------------------------------ accounting
    def storage_data_bytes(self) -> int:
        """Bytes of object data currently stored at this server."""
        return self.dap_state.storage_data_bytes()


class RegisterClient(Process):
    """A reader/writer client for a static configuration.

    Parameters
    ----------
    use_template_a2:
        When ``True``, reads skip the propagation (put-data) phase, i.e. the
        client follows template A2.  Only DAPs that satisfy property C3 (such
        as LDR's get-data, which performs its own helping) should be used
        this way; the default is the always-safe template A1.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        configuration: Configuration,
        history: Optional[History] = None,
        dap_recorder: Optional[DapRecorder] = None,
        use_template_a2: bool = False,
    ) -> None:
        super().__init__(pid, network)
        self.configuration = configuration
        self.history = history
        self.dap_recorder = dap_recorder
        self.use_template_a2 = use_template_a2
        self.dap = make_dap_client(self, configuration)

    # ------------------------------------------------------------ operations
    def read(self):
        """Template A1/A2 read: get-data (then put-data for A1); returns the value."""
        record = None
        if self.history is not None:
            record = self.history.invoke(self.pid, OperationType.READ, self.now)
        pair = yield from self.dap.get_data()
        if not self.use_template_a2:
            yield from self.dap.put_data(pair)
        if record is not None:
            self.history.respond(record, self.now, value_label=pair.value.label,
                                 tag=pair.tag)
        return pair.value

    def write(self, value: Value):
        """Template A1 write: get-tag, increment, put-data; returns the new tag."""
        record = None
        if self.history is not None:
            record = self.history.invoke(self.pid, OperationType.WRITE, self.now,
                                         value_label=value.label)
        tag = yield from self.dap.get_tag()
        new_tag = tag.increment(self.pid)
        yield from self.dap.put_data(TagValue(tag=new_tag, value=value))
        if record is not None:
            self.history.respond(record, self.now, tag=new_tag)
        return new_tag


class StaticRegisterDeployment(SingleRegisterDeployment):
    """A complete single-configuration system.

    Builds the simulator, network, one :class:`RegisterServer` per
    configuration member, plus the requested number of writer and reader
    clients.  The deployment offers synchronous ``write``/``read`` helpers
    (spawn the operation and run the simulator until it completes) as well as
    asynchronous spawning for concurrency experiments.

    Parameters
    ----------
    configuration_factory:
        Callable receiving the list of server ids and returning the
        :class:`~repro.config.configuration.Configuration`; use
        ``Configuration.abd`` / ``Configuration.treas`` / ``Configuration.ldr``
        partials.  Convenience constructors :meth:`abd`, :meth:`treas` and
        :meth:`ldr` cover the common cases.
    """

    def __init__(
        self,
        configuration: Configuration,
        num_writers: int = 1,
        num_readers: int = 1,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        record_dap: bool = False,
        use_template_a2: bool = False,
    ) -> None:
        super().__init__(CommonSpec(
            num_writers=num_writers, num_readers=num_readers, num_reconfigurers=0,
            latency=latency or FixedLatency(1.0), seed=seed, record_dap=record_dap))
        self.configuration = configuration
        self.use_template_a2 = use_template_a2
        self._build_servers(configuration.servers)
        self._build_clients()

    def _make_server(self, pid: ProcessId) -> RegisterServer:
        return RegisterServer(pid, self.network, self.configuration)

    def _make_client(self, pid: ProcessId) -> RegisterClient:
        return RegisterClient(pid, self.network, self.configuration,
                              history=self.history, dap_recorder=self.dap_recorder,
                              use_template_a2=self.use_template_a2)

    def add_servers(self, count: int) -> List[ProcessId]:
        """Always raises: a static register's servers are its one configuration's."""
        raise ConfigurationError(
            f"cannot add {count} servers: a static register never leaves "
            f"{self.configuration.cfg_id}")

    # ------------------------------------------------------------- factories
    @classmethod
    def abd(cls, num_servers: int = 3, **kwargs) -> "StaticRegisterDeployment":
        """An ABD (replication, majority quorum) deployment."""
        servers = [server_id(i) for i in range(num_servers)]
        return cls(Configuration.abd(config_id(0), servers), **kwargs)

    @classmethod
    def treas(cls, num_servers: int = 5, k: Optional[int] = None, delta: int = 2,
              **kwargs) -> "StaticRegisterDeployment":
        """A TREAS (erasure-coded) deployment."""
        servers = [server_id(i) for i in range(num_servers)]
        return cls(Configuration.treas(config_id(0), servers, k=k, delta=delta), **kwargs)

    @classmethod
    def ldr(cls, num_directories: int = 3, num_replicas: int = 3,
            **kwargs) -> "StaticRegisterDeployment":
        """An LDR (directory/replica) deployment."""
        directories = [server_id(i) for i in range(num_directories)]
        replicas = [server_id(num_directories + i) for i in range(num_replicas)]
        return cls(Configuration.ldr(config_id(0), directories, replicas), **kwargs)
