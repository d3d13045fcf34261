"""The TREAS DAP (Section 3, Algorithms 2 and 3).

TREAS is the paper's two-round erasure-coded implementation of the data
access primitives.  Values are stored as ``[n, k]`` MDS coded elements, one
per server; every quorum phase awaits ``⌈(n+k)/2⌉`` replies so that any two
phases intersect in at least ``k`` servers.

Server state: ``List``, a set of ``(tag, coded-element)`` pairs.  Only the
coded elements of the ``δ+1`` highest tags are retained; older tags keep a
``⊥`` placeholder (Algorithm 3, line 15).  δ bounds the number of writes
concurrent with a read for which reads remain live (Theorem 9).

Client primitives:

* ``get-tag``  -- query all servers, await ``⌈(n+k)/2⌉`` maximum tags, return
  the overall maximum.
* ``get-data`` -- query all ``List`` variables, await ``⌈(n+k)/2⌉``; let
  ``t*_max`` be the maximum tag present in at least ``k`` lists and
  ``t^dec_max`` the maximum tag whose coded elements are present in at least
  ``k`` lists; if they coincide, decode and return, otherwise the attempt is
  inconclusive and the primitive retries (the paper's reader simply does not
  complete; retrying preserves safety and gives the same liveness guarantee
  under the δ bound).
* ``put-data(⟨τ, v⟩)`` -- send ``(τ, Φ_i(v))`` to each server ``s_i``, await
  ``⌈(n+k)/2⌉`` acks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import QuorumUnavailableError
from repro.common.ids import ProcessId
from repro.common.tags import BOTTOM_TAG, Tag, TagValue, max_tag
from repro.common.values import BOTTOM_VALUE
from repro.config.configuration import Configuration
from repro.dap.interface import DapClient, DapServerState
from repro.erasure.interface import CodedElement
from repro.net.message import Message, reply, request

QUERY_TAG = "TREAS-QUERY-TAG"
QUERY_LIST = "TREAS-QUERY-LIST"
PUT_DATA = "TREAS-PUT-DATA"


class TreasDapClient(DapClient):
    """Client-side TREAS primitives."""

    #: How many times ``get-data`` re-queries when the decodability conditions
    #: fail.  Under the paper's assumption (at most δ writes concurrent with a
    #: valid read) the first attempt succeeds; retries only matter when the
    #: assumption is deliberately violated by stress tests.
    max_get_data_attempts: int = 64

    # ------------------------------------------------------------ primitives
    def get_tag(self):
        """Return the maximum tag reported by ``⌈(n+k)/2⌉`` servers."""
        token = self._record_start("get-tag")
        cfg = self.configuration
        replies = yield self.process.broadcast_and_gather(
            cfg.servers,
            lambda rid: request(QUERY_TAG, rid, config_id=cfg.cfg_id),
            threshold=cfg.quorum_size,
            label="treas-get-tag",
        )
        tag = max_tag([msg["tag"] for _, msg in replies])
        self._record_end(token, tag)
        return tag

    def get_data(self):
        """Return the maximal decodable tag-value pair from ``⌈(n+k)/2⌉`` lists."""
        token = self._record_start("get-data")
        cfg = self.configuration
        attempts = 0
        while True:
            attempts += 1
            replies = yield self.process.broadcast_and_gather(
                cfg.servers,
                lambda rid: request(QUERY_LIST, rid, config_id=cfg.cfg_id),
                threshold=cfg.quorum_size,
                label="treas-get-data",
            )
            result = self._select_decodable(replies)
            if result is not None:
                self._record_end(token, result)
                return result
            if attempts >= self.max_get_data_attempts:
                raise QuorumUnavailableError(
                    f"TREAS get-data did not find a decodable tag after {attempts} "
                    f"attempts in {cfg.cfg_id}; more than delta={cfg.delta} writes "
                    "are concurrent with this read"
                )
            # Back off for a short, seeded delay before re-querying.
            yield self.process.sleep(self.process.sim.uniform(0.1, 0.5))

    def put_data(self, tag_value: TagValue):
        """Send one coded element per server and await ``⌈(n+k)/2⌉`` acks."""
        token = self._record_start("put-data", tag_value)
        cfg = self.configuration
        elements = cfg.code.encode(tag_value.value)
        def make_factory(element: CodedElement):
            return lambda rid: request(
                PUT_DATA, rid, config_id=cfg.cfg_id,
                data_bytes=element.size, metadata_fields=2,
                tag=tag_value.tag, element=element,
            )

        messages = {cfg.servers[i]: make_factory(elements[i]) for i in range(cfg.n)}
        yield self.process.scatter_and_gather(
            messages, threshold=cfg.quorum_size, label="treas-put-data",
        )
        self._record_end(token, None)
        return None

    # --------------------------------------------------------------- helpers
    def _select_decodable(self, replies) -> Optional[TagValue]:
        """Apply Algorithm 2 lines 11-17 to the gathered lists."""
        cfg = self.configuration
        k = cfg.k
        # tag -> number of lists in which the tag appears (with or without data)
        tag_counts: Dict[Tag, int] = {}
        # tag -> number of lists holding a coded element, and the elements themselves
        element_counts: Dict[Tag, int] = {}
        elements: Dict[Tag, Dict[int, CodedElement]] = {}
        for _, msg in replies:
            server_list: List[Tuple[Tag, Optional[CodedElement]]] = msg["list"]
            for tag, element in server_list:
                tag_counts[tag] = tag_counts.get(tag, 0) + 1
                if element is not None:
                    element_counts[tag] = element_counts.get(tag, 0) + 1
                    elements.setdefault(tag, {})[element.index] = element
        tags_star = [tag for tag, count in tag_counts.items() if count >= k]
        tags_dec = [tag for tag, count in element_counts.items() if count >= k]
        if not tags_star or not tags_dec:
            return None
        t_star_max = max_tag(tags_star)
        t_dec_max = max_tag(tags_dec)
        if t_star_max != t_dec_max:
            return None
        if t_dec_max == BOTTOM_TAG:
            return TagValue(tag=BOTTOM_TAG, value=BOTTOM_VALUE)
        value = cfg.code.decode(elements[t_dec_max].values())
        return TagValue(tag=t_dec_max, value=value)


class TreasServerState(DapServerState):
    """Per-configuration server state: the bounded ``List`` variable."""

    def __init__(self, configuration: Configuration, server_pid: ProcessId) -> None:
        super().__init__(configuration, server_pid)
        index = configuration.server_index(server_pid)
        initial_element = configuration.code.encode(BOTTOM_VALUE)[index]
        #: ``List``: tag -> coded element (``None`` encodes the paper's ⊥).
        self.list: Dict[Tag, Optional[CodedElement]] = {BOTTOM_TAG: initial_element}
        self.my_index = index

    # ---------------------------------------------------------------- handle
    def handle(self, src: ProcessId, message: Message) -> Optional[Message]:
        kind = message.kind
        if kind == QUERY_TAG:
            return reply(message, kind="TREAS-TAG", tag=self.max_known_tag())
        if kind == QUERY_LIST:
            entries = [(tag, element) for tag, element in self.list.items()]
            data_bytes = sum(element.size for _, element in entries if element is not None)
            return reply(message, kind="TREAS-LIST", data_bytes=data_bytes,
                         metadata_fields=len(entries) or 1, list=entries)
        if kind == PUT_DATA:
            self.insert(message["tag"], message["element"])
            return reply(message, kind="TREAS-ACK")
        return None

    # --------------------------------------------------------------- storage
    def insert(self, tag: Tag, element: Optional[CodedElement]) -> None:
        """Add ``(tag, element)`` to ``List`` and garbage-collect old elements.

        Coded elements are kept only for the ``δ+1`` highest tags; older tags
        retain a ``⊥`` placeholder so that ``get-tag`` still sees them
        (Algorithm 3, lines 12-15).
        """
        existing = self.list.get(tag)
        if existing is None:
            self.list[tag] = element
        self._garbage_collect()

    def _garbage_collect(self) -> None:
        limit = self.configuration.delta + 1
        with_elements = [tag for tag, element in self.list.items() if element is not None]
        if len(with_elements) <= limit:
            return
        with_elements.sort()
        excess = len(with_elements) - limit
        for tag in with_elements[:excess]:
            self.list[tag] = None

    def storage_data_bytes(self) -> int:
        return sum(element.size for element in self.list.values() if element is not None)

    def max_known_tag(self) -> Tag:
        return max_tag(list(self.list.keys()))

    def coded_element_for(self, tag: Tag) -> Optional[CodedElement]:
        """The coded element stored for ``tag``, if it has not been trimmed."""
        return self.list.get(tag)

    def tags(self) -> List[Tag]:
        """All tags currently present in ``List`` (including trimmed ones)."""
        return list(self.list.keys())
