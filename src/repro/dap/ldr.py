"""The LDR DAP (Appendix A.1, Algorithm 13).

LDR (Fan & Lynch's "Layered Data Replication") separates metadata from data:
*directory* servers store, for the object, the latest tag together with the
set of replica servers known to hold the corresponding value (its
*location*); *replica* servers store full values indexed by tag.

Primitives (f is the replica crash tolerance; writes touch ``2f+1`` replicas
and await ``f+1`` acks):

* ``get-tag``  -- query the directories, await a majority, return the
  maximum tag.
* ``put-data(⟨τ, v⟩)`` -- store ``(τ, v)`` on ``2f+1`` replicas (await
  ``f+1`` acks, yielding the location set ``U``), then write the metadata
  ``(τ, U)`` to a majority of directories.
* ``get-data`` -- read ``(τ_max, U_max)`` from a majority of directories,
  write that metadata back to a majority (the helping step that makes reads
  atomic), then fetch the value for ``τ_max`` from ``f+1`` replicas in
  ``U_max`` and return the first reply.

LDR is replication-based and is included both for completeness of the DAP
framework (the paper presents it as the second transformation example) and
because its read path transfers the full value only once, a useful baseline
in the communication-cost experiments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.ids import ProcessId
from repro.common.tags import BOTTOM_TAG, Tag, TagValue
from repro.common.values import BOTTOM_VALUE, Value
from repro.config.configuration import Configuration
from repro.dap.interface import DapClient, DapServerState
from repro.net.message import Message, reply, request

QUERY_TAG_LOCATION = "LDR-QUERY-TAG-LOCATION"
PUT_METADATA = "LDR-PUT-METADATA"
PUT_DATA = "LDR-PUT-DATA"
GET_DATA = "LDR-GET-DATA"


class LdrDapClient(DapClient):
    """Client-side LDR primitives."""

    # ------------------------------------------------------------ primitives
    def get_tag(self):
        """Return the maximum tag known to a majority of directory servers."""
        token = self._record_start("get-tag")
        tag, _location = yield from self._query_directories()
        self._record_end(token, tag)
        return tag

    def put_data(self, tag_value: TagValue):
        """Store the value on replicas, then its location on the directories."""
        token = self._record_start("put-data", tag_value)
        cfg = self.configuration
        f = cfg.ldr_f
        replicas = list(cfg.ldr_replicas)[: 2 * f + 1]
        value = tag_value.value
        acks = yield self.process.broadcast_and_gather(
            replicas,
            lambda rid: request(PUT_DATA, rid, config_id=cfg.cfg_id,
                                data_bytes=value.size, metadata_fields=2,
                                tag=tag_value.tag, value=value),
            threshold=f + 1,
            label="ldr-put-data",
        )
        location = tuple(sorted(server for server, _ in acks))
        yield self.process.broadcast_and_gather(
            cfg.ldr_directories,
            lambda rid: request(PUT_METADATA, rid, config_id=cfg.cfg_id,
                                metadata_fields=3, tag=tag_value.tag,
                                location=location),
            threshold=self._directory_majority(),
            label="ldr-put-metadata",
        )
        self._record_end(token, None)
        return None

    def get_data(self):
        """Read the latest tag/location, help propagate it, fetch the value."""
        token = self._record_start("get-data")
        cfg = self.configuration
        tag, location = yield from self._query_directories()
        # Help: write the discovered metadata back to a directory majority.
        yield self.process.broadcast_and_gather(
            cfg.ldr_directories,
            lambda rid: request(PUT_METADATA, rid, config_id=cfg.cfg_id,
                                metadata_fields=3, tag=tag, location=location),
            threshold=self._directory_majority(),
            label="ldr-help-metadata",
        )
        if tag == BOTTOM_TAG or not location:
            result = TagValue(tag=BOTTOM_TAG, value=BOTTOM_VALUE)
            self._record_end(token, result)
            return result
        targets = [pid for pid in location if pid in cfg.ldr_replicas][: cfg.ldr_f + 1]
        replies = yield self.process.broadcast_and_gather(
            targets,
            lambda rid: request(GET_DATA, rid, config_id=cfg.cfg_id,
                                metadata_fields=2, tag=tag),
            threshold=1,
            label="ldr-get-data",
        )
        _, msg = replies[0]
        result = TagValue(tag=msg["tag"], value=msg["value"])
        self._record_end(token, result)
        return result

    # --------------------------------------------------------------- helpers
    def _directory_majority(self) -> int:
        return len(self.configuration.ldr_directories) // 2 + 1

    def _query_directories(self):
        """Return the maximum ``(tag, location)`` pair from a directory majority."""
        cfg = self.configuration
        replies = yield self.process.broadcast_and_gather(
            cfg.ldr_directories,
            lambda rid: request(QUERY_TAG_LOCATION, rid, config_id=cfg.cfg_id),
            threshold=self._directory_majority(),
            label="ldr-query-directories",
        )
        best_tag: Tag = BOTTOM_TAG
        best_location: Tuple[ProcessId, ...] = ()
        for _, msg in replies:
            if msg["tag"] > best_tag or (msg["tag"] == best_tag and not best_location):
                best_tag = msg["tag"]
                best_location = msg["location"]
        return best_tag, best_location


class LdrDirectoryEntry:
    """The ``(tag, location)`` metadata pair stored by a directory server."""

    def __init__(self) -> None:
        self.tag: Tag = BOTTOM_TAG
        self.location: Tuple[ProcessId, ...] = ()


class LdrServerState(DapServerState):
    """Per-configuration LDR server state.

    A single physical server may act as a directory, a replica, or both
    (the configuration factory keeps them disjoint, but the state supports
    either role so tests can exercise overlapping layouts too).
    """

    def __init__(self, configuration: Configuration, server_pid: ProcessId) -> None:
        super().__init__(configuration, server_pid)
        self.is_directory = server_pid in configuration.ldr_directories
        self.is_replica = server_pid in configuration.ldr_replicas
        self.directory = LdrDirectoryEntry()
        #: Replica store: tag -> value.  A garbage-collected variant would
        #: keep only the latest few tags; LDR as specified keeps what it saw.
        self.replica_store: Dict[Tag, Value] = {BOTTOM_TAG: BOTTOM_VALUE}

    # ---------------------------------------------------------------- handle
    def handle(self, src: ProcessId, message: Message) -> Optional[Message]:
        kind = message.kind
        if kind == QUERY_TAG_LOCATION:
            return reply(message, kind="LDR-TAG-LOCATION", metadata_fields=3,
                         tag=self.directory.tag, location=self.directory.location)
        if kind == PUT_METADATA:
            incoming: Tag = message["tag"]
            if incoming > self.directory.tag:
                self.directory.tag = incoming
                self.directory.location = tuple(message["location"])
            return reply(message, kind="LDR-META-ACK")
        if kind == PUT_DATA:
            tag: Tag = message["tag"]
            self.replica_store[tag] = message["value"]
            return reply(message, kind="LDR-DATA-ACK")
        if kind == GET_DATA:
            tag = message["tag"]
            value = self.replica_store.get(tag)
            if value is None:
                # The replica has not (yet) received this tag; reply with the
                # newest value it has so the reader can fall back safely.
                newest = max(self.replica_store)
                tag, value = newest, self.replica_store[newest]
            return reply(message, kind="LDR-DATA", data_bytes=value.size,
                         metadata_fields=2, tag=tag, value=value)
        return None

    # ------------------------------------------------------------ accounting
    def storage_data_bytes(self) -> int:
        if not self.is_replica:
            return 0
        return sum(value.size for value in self.replica_store.values())

    def max_known_tag(self) -> Tag:
        tags = [self.directory.tag] if self.is_directory else []
        if self.is_replica:
            tags.extend(self.replica_store.keys())
        if not tags:
            return BOTTOM_TAG
        return max(tags)
