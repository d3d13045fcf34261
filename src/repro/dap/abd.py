"""The multi-writer ABD DAP (Appendix A.1, Algorithm 12).

Replication based: every server stores the whole value together with its
tag.  The primitives are:

* ``get-tag``  -- query all servers, await a majority, return the maximum tag.
* ``get-data`` -- query all servers, await a majority, return the pair with
  the maximum tag.
* ``put-data(⟨τ, v⟩)`` -- send the full pair to all servers, await a majority
  of acks; a server overwrites its local pair iff the incoming tag is larger.

Every primitive also notes the ``nextC`` record its replies carry
(:attr:`~repro.dap.interface.DapClient.next_config`); ``get-tag`` and
``get-data`` carry a reconfigurer's transfer ``fence``.  ``get-data`` also
notes the tag its whole quorum agreed on
(:attr:`~repro.dap.interface.DapClient.agreed_tag`), which lets a read skip
its write-back (``docs/ARCHITECTURE.md``, "One-round reads").

Communication cost (normalised by the value size): 1·n for ``put-data``,
up to 1·n for ``get-data`` replies, which is what makes ABD's read/write
costs ``2n`` / ``n`` in the paper's comparison, against TREAS's ``(δ+2)n/k``
and ``n/k``.
"""

from __future__ import annotations

from typing import Optional

from repro.common.ids import ProcessId
from repro.common.tags import BOTTOM_TAG, Tag, TagValue, max_tag
from repro.common.values import BOTTOM_VALUE
from repro.config.configuration import Configuration
from repro.config.sequence import ConfigRecord, next_link
from repro.dap.interface import DapClient, DapServerState
from repro.net.message import Message, reply, request

QUERY_TAG = "ABD-QUERY-TAG"
QUERY_DATA = "ABD-QUERY"
WRITE = "ABD-WRITE"


class AbdDapClient(DapClient):
    """Client-side ABD primitives."""

    def get_tag(self, fence: Optional[ConfigRecord] = None):
        """Return the maximum tag held by some majority of servers."""
        token = self._record_start("get-tag")
        cfg = self.configuration
        replies = yield self.process.broadcast_and_gather(
            cfg.servers, self._query(QUERY_TAG, fence),
            threshold=cfg.quorum_size,
            label="abd-get-tag",
        )
        tag = max_tag([msg["tag"] for _, msg in replies])
        self.next_config = next_link([msg.get("next") for _, msg in replies])
        self._record_end(token, tag)
        return tag

    def get_data(self, fence: Optional[ConfigRecord] = None):
        """Return the ``(tag, value)`` pair with the maximum tag from a majority.

        Notes the tag in :attr:`agreed_tag` when every reply carried it.
        """
        token = self._record_start("get-data")
        cfg = self.configuration
        replies = yield self.process.broadcast_and_gather(
            cfg.servers, self._query(QUERY_DATA, fence),
            threshold=cfg.quorum_size,
            label="abd-get-data",
        )
        best = None
        agreed = True
        for _, msg in replies:
            if best is None:
                best = msg
            elif msg["tag"] != best["tag"]:
                agreed = False
                if msg["tag"] > best["tag"]:
                    best = msg
        assert best is not None  # threshold >= 1
        pair = TagValue(tag=best["tag"], value=best["value"])
        self.agreed_tag = pair.tag if agreed else None
        self.next_config = next_link([msg.get("next") for _, msg in replies])
        self._record_end(token, pair)
        return pair

    def put_data(self, tag_value: TagValue):
        """Propagate ``tag_value`` to a majority of servers."""
        token = self._record_start("put-data", tag_value)
        cfg = self.configuration
        value = tag_value.value
        replies = yield self.process.broadcast_and_gather(
            cfg.servers,
            lambda rid: request(
                WRITE, rid, config_id=cfg.cfg_id, data_bytes=value.size,
                metadata_fields=2, tag=tag_value.tag, value=value,
            ),
            threshold=cfg.quorum_size,
            label="abd-put-data",
        )
        self.next_config = next_link([msg.get("next") for _, msg in replies])
        self._record_end(token, None)
        return None


class AbdServerState(DapServerState):
    """Per-configuration server state: one ``(tag, value)`` pair."""

    def __init__(self, configuration: Configuration, server_pid: ProcessId) -> None:
        super().__init__(configuration, server_pid)
        self.tag: Tag = BOTTOM_TAG
        self.value = BOTTOM_VALUE

    def handle(self, src: ProcessId, message: Message) -> Optional[Message]:
        kind = message.kind
        if kind == QUERY_TAG:
            return reply(message, kind="ABD-TAG", tag=self.tag)
        if kind == QUERY_DATA:
            return reply(message, kind="ABD-DATA", data_bytes=self.value.size,
                         metadata_fields=2, tag=self.tag, value=self.value)
        if kind == WRITE:
            incoming_tag: Tag = message["tag"]
            if incoming_tag > self.tag:
                self.tag = incoming_tag
                self.value = message["value"]
            return reply(message, kind="ABD-ACK")
        return None

    def storage_data_bytes(self) -> int:
        return self.value.size

    def max_known_tag(self) -> Tag:
        return self.tag
