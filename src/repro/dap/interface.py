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
from repro.net.message import Message, request

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process
    from repro.spec.properties import DapRecorder


class DapClient:
    """Client-side DAP bound to ``(process, configuration)``."""

    #: The ``nextC`` record the replies to this client's last first-round
    #: query or ``put-data`` reported (servers attach theirs; see
    #: ``AresServer``), or ``None``.  For a discovering configuration
    #: (:attr:`~repro.config.configuration.Configuration.discovering`) a
    #: query's is what ``read-next-config`` would have returned; DAPs whose
    #: rounds carry no record leave it ``None``.
    next_config: Optional[ConfigRecord] = None

    #: The tag every reply to this client's last ``get-data`` carried, or
    #: ``None`` when the replies disagreed.  Only ABD sets it; a read whose
    #: ``[µ, ν]`` is this configuration alone and whose quorum agreed on the
    #: tag it returns, with no link, skips its write-back
    #: (docs/ARCHITECTURE.md, "One-round reads").
    agreed_tag: Optional[Tag] = None

    def __init__(self, process: "Process", configuration: Configuration) -> None:
        self.process = process
        self.configuration = configuration

    # ------------------------------------------------------------ primitives
    def get_tag(self, fence: Optional[ConfigRecord] = None):
        """Coroutine returning a :class:`~repro.common.tags.Tag` (primitive D1).

        ``fence`` is the successor record a reconfigurer's state transfer
        out of this configuration installs at every server it queries
        (docs/ARCHITECTURE.md, "The transfer fence"); readers and writers
        pass none.
        """
        raise NotImplementedError

    def get_data(self, fence: Optional[ConfigRecord] = None):
        """Coroutine returning a :class:`~repro.common.tags.TagValue` (primitive D2).

        ``fence`` as for :meth:`get_tag`.
        """
        raise NotImplementedError

    def put_data(self, tag_value: TagValue):
        """Coroutine storing ``tag_value`` (primitive D3)."""
        raise NotImplementedError

    # --------------------------------------------------------------- helpers
    def _query(self, kind: str, fence: Optional[ConfigRecord]):
        """Request factory for a query of this configuration, ``fence`` attached.

        The fence is charged as the two metadata fields of an
        ``ARES-WRITE-CONFIG`` record.
        """
        cfg_id = self.configuration.cfg_id
        if fence is None:
            return lambda rid: request(kind, rid, config_id=cfg_id)
        return lambda rid: request(kind, rid, config_id=cfg_id,
                                   metadata_fields=3, fence=fence)

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
