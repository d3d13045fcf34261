"""ARES-TREAS: direct server-to-server state transfer (Section 5, Algs. 8 and 9).

In baseline ARES the reconfiguration client reads the object value out of the
old configurations (``get-data``) and writes it into the new one
(``put-data``): every reconfiguration moves the whole object through the
client, which becomes a bandwidth bottleneck when many objects migrate at
once.  ARES-TREAS removes the client from the data path:

* the reconfigurer only gathers *tags* (``get-tag``, fenced like the
  baseline's ``get-data``, on every configuration from ``µ`` up to but not
  including the target ``C'``) to find the maximum tag ``τ`` and the
  configuration ``C`` holding it;
* it then asks the servers of ``C`` -- through a metadata-consistent
  broadcast primitive (``md-primitive`` [21]) that delivers to either all
  non-faulty servers of ``C`` or none -- to forward their coded elements for
  ``τ`` directly to the servers of the new configuration ``C'``;
* each server of ``C'`` buffers incoming elements in ``D``, decodes the value
  as soon as ``k`` elements of ``C``'s code are available, re-encodes it with
  ``C'``'s code, stores its own new coded element in ``List``, remembers the
  reconfigurer in ``Recons`` and acknowledges it;
* the reconfigurer completes ``update-config`` once ``⌈(n'+k')/2⌉`` servers
  of ``C'`` acknowledged.

Only tag metadata ever reaches the reconfigurer; benchmark E7 measures the
resulting drop in client traffic.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.common.errors import QuorumRefusedError
from repro.common.ids import ProcessId
from repro.common.tags import BOTTOM_TAG, Tag
from repro.config.configuration import Configuration, DapKind
from repro.config.sequence import ConfigSequence
from repro.core.reconfig import AresReconfigurer
from repro.dap.treas import TreasServerState
from repro.erasure.interface import CodedElement
from repro.net.message import Message

#: Metadata-consistent broadcast wrapping a forward request (sent to the
#: servers of the *old* configuration ``C``).
MD_BCAST_REQ_FW = "ARES-MD-REQ-FW-CODE-ELEM"
#: A coded element forwarded from a server of ``C`` to a server of ``C'``.
FWD_CODE_ELEM = "ARES-FWD-CODE-ELEM"
#: Acknowledgement from a server of ``C'`` to the reconfigurer.
TRANSFER_ACK = "ARES-TRANSFER-ACK"


class TreasTransferServerState(TreasServerState):
    """TREAS server state extended with the Section 5 transfer protocol.

    The same class serves both roles: as a member of the *old* configuration
    it reacts to the broadcast forward request; as a member of the *new*
    configuration it collects forwarded elements in ``D`` and re-encodes.
    """

    def __init__(self, configuration: Configuration, server_pid: ProcessId) -> None:
        super().__init__(configuration, server_pid)
        #: ``D``: buffered foreign coded elements per (reconfigurer, tag).
        self.transfer_buffer: Dict[Tuple[ProcessId, Tag], Dict[int, CodedElement]] = {}
        #: ``Recons``: reconfigurers this server has already acknowledged.
        self.recons: Set[ProcessId] = set()
        #: ``(reconfigurer, broadcast id)`` pairs already relayed (for the
        #: all-or-none echo).  Ids are per reconfigurer, so the pair is the key.
        self._seen_broadcasts: Set[Tuple[ProcessId, int]] = set()

    # ---------------------------------------------------------------- handle
    def handle(self, src: ProcessId, message: Message) -> Optional[Message]:
        kind = message.kind
        if kind == MD_BCAST_REQ_FW:
            self._on_forward_request(src, message)
            return None
        if kind == FWD_CODE_ELEM:
            self._on_forwarded_element(src, message)
            return None
        return super().handle(src, message)

    # ----------------------------------------- old-configuration side (C)
    def _on_forward_request(self, src: ProcessId, message: Message) -> None:
        """Algorithm 9, REQ-FW-CODE-ELEM handler at a server of ``C``.

        The message arrives through the md-primitive: on first delivery the
        server echoes it to every other server of ``C`` so that the request
        reaches all non-faulty members even if the reconfigurer crashed
        mid-broadcast (all-or-none delivery).
        """
        assert self.server is not None, "transfer state must be bound to its server"
        broadcast = (message["reconfigurer"], message["broadcast_id"])
        if broadcast in self._seen_broadcasts:
            return
        self._seen_broadcasts.add(broadcast)

        # Echo phase of the md-primitive.
        for peer in self.configuration.servers:
            if peer != self.server_pid:
                self.server.send(peer, Message(
                    kind=MD_BCAST_REQ_FW, body=dict(message.body),
                    metadata_bytes=message.metadata_bytes,
                    config_id=message.config_id,
                ))

        tag: Tag = message["tag"]
        target: Configuration = message["target_config"]
        reconfigurer: ProcessId = message["reconfigurer"]
        transfer_rid: int = message["transfer_rid"]
        element = self.coded_element_for(tag)
        if element is None:
            # Either the tag is unknown here or its element was trimmed; this
            # server simply does not contribute (the quorum intersection
            # guarantees at least k servers still hold it).
            return
        for destination in target.servers:
            self.server.send(destination, Message(
                kind=FWD_CODE_ELEM,
                body={
                    "tag": tag,
                    "element": element,
                    "source_config": self.configuration,
                    "target_config": target,
                    "reconfigurer": reconfigurer,
                    "transfer_rid": transfer_rid,
                },
                data_bytes=element.size,
                metadata_bytes=4 * 16,
                config_id=target.cfg_id,
            ))

    # ----------------------------------------- new-configuration side (C')
    def _on_forwarded_element(self, src: ProcessId, message: Message) -> None:
        """Algorithm 9, FWD-CODE-ELEM handler at a server of ``C'``."""
        assert self.server is not None, "transfer state must be bound to its server"
        tag: Tag = message["tag"]
        element: CodedElement = message["element"]
        source: Configuration = message["source_config"]
        reconfigurer: ProcessId = message["reconfigurer"]
        transfer_rid: int = message["transfer_rid"]

        if reconfigurer in self.recons:
            return
        if tag not in self.list:
            buffer = self.transfer_buffer.setdefault((reconfigurer, tag), {})
            buffer[element.index] = element
            if len(buffer) >= source.code.k:
                value = source.code.decode(buffer.values())
                del self.transfer_buffer[(reconfigurer, tag)]
                own_element = self.configuration.code.encode_one(value, self.my_index)
                self.insert(tag, own_element)
        if tag in self.list:
            self.recons.add(reconfigurer)
            self.server.send(reconfigurer, Message(
                kind=TRANSFER_ACK,
                body={"tag": tag},
                metadata_bytes=2 * 16,
                in_reply_to=transfer_rid,
                config_id=self.configuration.cfg_id,
            ))


def transfer_dap_state_factory(configuration: Configuration, server_pid: ProcessId):
    """DAP state factory enabling direct transfer for TREAS configurations.

    Non-TREAS configurations fall back to their ordinary DAP state (the
    Section 5 optimisation only applies to erasure-coded configurations).
    """
    if configuration.dap is DapKind.TREAS:
        return TreasTransferServerState(configuration, server_pid)
    from repro.dap import make_dap_server_state

    return make_dap_server_state(configuration, server_pid)


class DirectTransferReconfigurer(AresReconfigurer):
    """A reconfigurer using the Section 5 ``update-config`` (Algorithm 8).

    When either the source or the target configuration is not TREAS-backed
    the client falls back to the baseline transfer (reading the value itself),
    which keeps mixed-DAP reconfigurations correct.
    """

    #: Count of reconfigurations that used the direct path (diagnostics/benchmarks).
    direct_transfers: int = 0

    def _update_config(self, cseq: ConfigSequence, dap_for):
        """Coroutine: Algorithm 8's tag-only state transfer.

        Its ``get-tag`` queries walk ``c_µ..c_{ν-1}`` fenced exactly like
        the baseline's ``get-data``
        (:meth:`~repro.core.reconfig.ReconfigOpsMixin._transfer_queries`):
        the target is not queried, since the forwarded elements fill it and
        its ``List`` keeps the δ+1 highest tags whichever way they came.
        """
        nu = cseq.nu
        tags = yield from self._transfer_queries(
            cseq, dap_for, lambda dap, fence: dap.get_tag(fence=fence))
        if tags is None:
            return None
        target = cseq.config_at(nu)

        # Remember which configuration produced the maximum tag.
        best_source, best_tag = tags[0]
        for configuration, tag in tags[1:]:
            if tag > best_tag:
                best_tag = tag
                best_source = configuration
        if best_tag == BOTTOM_TAG:
            # Nothing written yet: new servers already hold (t0, Φ(v0)).
            return None
        if best_source.cfg_id == target.cfg_id:
            # The newest value already lives in the target configuration.
            return None
        if best_source.dap is not DapKind.TREAS or target.dap is not DapKind.TREAS:
            return (yield from super()._update_config(cseq, dap_for))

        try:
            yield from self.forward_code_element(best_tag, best_source, target)
        except QuorumRefusedError as error:
            # A contender retired the source under the forward: re-base, and
            # finish with the baseline transfer unless that ended the walk.
            self._rebase(cseq, cseq.index_of(best_source.cfg_id), best_source, error)
            if nu < cseq.base:
                return None
            return (yield from super()._update_config(cseq, dap_for))
        self.direct_transfers += 1
        return None

    def forward_code_element(self, tag: Tag, source: Configuration, target: Configuration):
        """Coroutine: md-broadcast the forward request and await ``⌈(n'+k')/2⌉`` acks."""
        threshold = target.quorum_size
        transfer_rid, gather = self.open_gather(threshold, label="forward-code-element")
        broadcast_id = self.new_request_id()
        for server in source.servers:
            self.send(server, Message(
                kind=MD_BCAST_REQ_FW,
                body={
                    "tag": tag,
                    "target_config": target,
                    "reconfigurer": self.pid,
                    "transfer_rid": transfer_rid,
                    "broadcast_id": broadcast_id,
                },
                metadata_bytes=5 * 16,
                # A server that retired the source refuses with a NACK
                # carrying its tombstone, which fails the gather fast.
                request_id=transfer_rid,
                config_id=source.cfg_id,
            ))
        yield gather
        return None
