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
  ``⌈(n+k)/2⌉`` acks.  A read's write-back takes the ``Φ_i(v)`` it was sent
  from the ``get-data`` that decoded ``v`` and computes only the others.
"""

from __future__ import annotations

import weakref
from bisect import insort
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

    #: ``(tag, {index: element}, ref to the returned pair)``: the coded
    #: elements the last ``get-data`` decoded ``tag`` from, kept for the
    #: ``put-data`` that writes the same pair back (Algorithm 7's read).
    #: Dropped the moment ``put-data`` looks, or when the caller lets go of
    #: the pair without writing it here (a read through several
    #: configurations puts only into the last).
    _decoded_from: Optional[Tuple[Tag, Dict[int, CodedElement], weakref.ref]] = None

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
        """Return the maximal decodable tag-value pair from ``⌈(n+k)/2⌉`` lists.

        The elements a non-bottom pair was decoded from are remembered under
        its tag for the next :meth:`put_data` on this client, for as long as
        the caller holds the returned pair; an attempt that finds nothing
        decodable remembers nothing.
        """
        token = self._record_start("get-data")
        cfg = self.configuration
        self._decoded_from = None
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
        """Send one coded element per server and await ``⌈(n+k)/2⌉`` acks.

        When ``tag_value`` carries the tag the preceding :meth:`get_data` of
        this client decoded, the elements it decoded from are reused and only
        the ones it lacked are computed.  Any other pair -- a write, a pair
        read from another configuration -- is encoded in full under this
        configuration's code.  Either way the remembered elements are gone
        afterwards.
        """
        token = self._record_start("put-data", tag_value)
        cfg = self.configuration
        decoded_from, self._decoded_from = self._decoded_from, None
        known = (decoded_from[1].values()
                 if decoded_from is not None and decoded_from[0] == tag_value.tag else ())
        elements = cfg.code.encode(tag_value.value, known)
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
        pair = TagValue(tag=t_dec_max, value=cfg.code.decode(elements[t_dec_max].values()))
        self._decoded_from = (t_dec_max, elements[t_dec_max],
                              weakref.ref(pair, self._forget_decoded))
        return pair

    def _forget_decoded(self, pair_ref: weakref.ref) -> None:
        """Drop the remembered elements of a pair nobody holds any more."""
        decoded_from = self._decoded_from
        if decoded_from is not None and decoded_from[2] is pair_ref:
            self._decoded_from = None


class TreasServerState(DapServerState):
    """Per-configuration server state: the bounded ``List`` variable."""

    def __init__(self, configuration: Configuration, server_pid: ProcessId) -> None:
        super().__init__(configuration, server_pid)
        index = configuration.server_index(server_pid)
        initial_element = configuration.code.encode(BOTTOM_VALUE)[index]
        #: ``List``: tag -> coded element (``None`` encodes the paper's ⊥).
        self.list: Dict[Tag, Optional[CodedElement]] = {BOTTOM_TAG: initial_element}
        self.my_index = index
        # What every message asks of ``List``, maintained by ``insert`` so
        # that no handler walks the placeholders: its highest tag, the tags
        # that still hold an element (ascending, at most δ+1) and their bytes.
        self._max_tag = BOTTOM_TAG
        self._element_tags: List[Tag] = [BOTTOM_TAG]
        self._data_bytes = initial_element.size

    # ---------------------------------------------------------------- handle
    def handle(self, src: ProcessId, message: Message) -> Optional[Message]:
        kind = message.kind
        if kind == QUERY_TAG:
            return reply(message, kind="TREAS-TAG", tag=self.max_known_tag())
        if kind == QUERY_LIST:
            entries = list(self.list.items())
            return reply(message, kind="TREAS-LIST", data_bytes=self._data_bytes,
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
        (Algorithm 3, lines 12-15).  A tag that already holds an element
        keeps it.  This is the only writer of ``List``: it also keeps the
        maximum tag, the element-bearing tags and the stored-bytes total
        current, so each insert costs O(δ) however many placeholders there are.
        """
        if self.list.get(tag) is not None:
            return
        self.list[tag] = element
        if tag > self._max_tag:
            self._max_tag = tag
        if element is None:
            return
        insort(self._element_tags, tag)
        self._data_bytes += element.size
        if len(self._element_tags) > self.configuration.delta + 1:
            trimmed = self._element_tags.pop(0)
            self._data_bytes -= self.list[trimmed].size
            self.list[trimmed] = None

    def storage_data_bytes(self) -> int:
        return self._data_bytes

    def max_known_tag(self) -> Tag:
        return self._max_tag

    def coded_element_for(self, tag: Tag) -> Optional[CodedElement]:
        """The coded element stored for ``tag``, if it has not been trimmed."""
        return self.list.get(tag)

    def tags(self) -> List[Tag]:
        """All tags currently present in ``List`` (including trimmed ones)."""
        return list(self.list.keys())
