"""Abstract DAP client and server-state interfaces.

A :class:`DapClient` is bound to one client process and one configuration and
exposes the three primitives as *generator coroutines* (to be driven by the
simulator's coroutine runner).  A :class:`DapServerState` is the
per-configuration state a server keeps for the DAP, together with the message
handler producing replies.

The optional recorder hook lets the test-suite capture every DAP invocation
and response, so the consistency properties C1/C2/C3 of Definition 2 can be
checked mechanically over whole executions.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.common.ids import ProcessId
from repro.common.tags import Tag, TagValue
from repro.config.configuration import Configuration
from repro.config.sequence import ConfigRecord
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process
    from repro.spec.properties import DapRecorder


class DapClient:
    """Client-side DAP bound to ``(process, configuration)``."""

    #: The ``nextC`` record the replies to this client's last first-round
    #: query reported (servers attach theirs; see ``AresServer``), or
    #: ``None``.  For a discovering configuration
    #: (:attr:`~repro.config.configuration.Configuration.discovering`) this
    #: is what ``read-next-config`` would have returned; DAPs whose first
    #: round carries no record leave it ``None``.
    next_config: Optional[ConfigRecord] = None

    def __init__(self, process: "Process", configuration: Configuration) -> None:
        self.process = process
        self.configuration = configuration

    # ------------------------------------------------------------ primitives
    def get_tag(self):
        """Coroutine returning a :class:`~repro.common.tags.Tag` (primitive D1)."""
        raise NotImplementedError

    def get_data(self):
        """Coroutine returning a :class:`~repro.common.tags.TagValue` (primitive D2)."""
        raise NotImplementedError

    def put_data(self, tag_value: TagValue):
        """Coroutine storing ``tag_value`` (primitive D3)."""
        raise NotImplementedError

    # --------------------------------------------------------------- helpers
    @property
    def recorder(self) -> Optional["DapRecorder"]:
        """The DAP recorder installed on the owning process, if any."""
        return getattr(self.process, "dap_recorder", None)

    def _record_start(self, primitive: str, argument=None):
        recorder = self.recorder
        if recorder is None:
            return None
        return recorder.start(self.configuration.cfg_id, self.process.pid, primitive, argument)

    def _record_end(self, token, result=None) -> None:
        if token is not None:
            token.finish(result)


class DapServerState:
    """Per-configuration DAP state held by one server."""

    def __init__(self, configuration: Configuration, server_pid: ProcessId) -> None:
        self.configuration = configuration
        self.server_pid = server_pid
        #: The owning server process, set by :meth:`bind`.  Needed by server
        #: states that send unsolicited messages (e.g. the direct state
        #: transfer of Section 5); plain request/reply states never use it.
        self.server: Optional["Process"] = None

    def bind(self, server: "Process") -> None:
        """Attach the owning server process (called at state creation time)."""
        self.server = server

    def handle(self, src: ProcessId, message: Message) -> Optional[Message]:
        """Process a request and return the reply to send, or ``None``.

        ``None`` is also the answer to any kind that is not of this DAP's
        protocol: servers hand over whatever names the configuration.
        """
        raise NotImplementedError

    # ------------------------------------------------------------ accounting
    def storage_data_bytes(self) -> int:
        """Bytes of object data (value or coded elements) currently stored.

        Used by the storage-cost experiments; metadata (tags, ids) is not
        counted, mirroring the paper's storage-cost definition.
        """
        raise NotImplementedError

    def max_known_tag(self) -> Tag:
        """The highest tag this server has stored (diagnostics / config tag)."""
        raise NotImplementedError
