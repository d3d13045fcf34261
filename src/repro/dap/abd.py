"""The multi-writer ABD DAP (Appendix A.1, Algorithm 12).

Replication based: every server stores the whole value together with its
tag.  The primitives are:

* ``get-tag``  -- query all servers, await a majority, return the maximum tag.
* ``get-data`` -- query all servers, await a majority, return the pair with
  the maximum tag.
* ``put-data(⟨τ, v⟩)`` -- send the full pair to all servers, await a majority
  of acks; a server overwrites its local pair iff the incoming tag is larger.

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
from repro.dap.interface import DapClient, DapServerState
from repro.net.message import Message, reply, request

QUERY_TAG = "ABD-QUERY-TAG"
QUERY_DATA = "ABD-QUERY"
WRITE = "ABD-WRITE"


class AbdDapClient(DapClient):
    """Client-side ABD primitives."""

    def get_tag(self):
        """Return the maximum tag held by some majority of servers."""
        token = self._record_start("get-tag")
        cfg = self.configuration
        replies = yield self.process.broadcast_and_gather(
            cfg.servers,
            lambda rid: request(QUERY_TAG, rid, config_id=cfg.cfg_id),
            threshold=cfg.quorums.quorum_size,
            label="abd-get-tag",
        )
        tag = max_tag([msg["tag"] for _, msg in replies])
        self._record_end(token, tag)
        return tag

    def get_data(self):
        """Return the ``(tag, value)`` pair with the maximum tag from a majority."""
        token = self._record_start("get-data")
        cfg = self.configuration
        replies = yield self.process.broadcast_and_gather(
            cfg.servers,
            lambda rid: request(QUERY_DATA, rid, config_id=cfg.cfg_id),
            threshold=cfg.quorums.quorum_size,
            label="abd-get-data",
        )
        best: Optional[TagValue] = None
        for _, msg in replies:
            pair = TagValue(tag=msg["tag"], value=msg["value"])
            if best is None or pair.tag > best.tag:
                best = pair
        assert best is not None  # threshold >= 1
        self._record_end(token, best)
        return best

    def put_data(self, tag_value: TagValue):
        """Propagate ``tag_value`` to a majority of servers."""
        token = self._record_start("put-data", tag_value)
        cfg = self.configuration
        value = tag_value.value
        yield self.process.broadcast_and_gather(
            cfg.servers,
            lambda rid: request(
                WRITE, rid, config_id=cfg.cfg_id, data_bytes=value.size,
                metadata_fields=2, tag=tag_value.tag, value=value,
            ),
            threshold=cfg.quorums.quorum_size,
            label="abd-put-data",
        )
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
