"""ARES-TREAS: direct server-to-server state transfer (Section 5, Algorithm 8).

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
resulting drop in client traffic.  This module is the reconfigurer's side
(Algorithm 8).  The servers' side (Algorithm 9) is part of every
:class:`~repro.dap.treas.TreasServerState`, so any ARES server takes part
in a transfer; ``DeploymentSpec.direct_state_transfer`` only picks this
reconfigurer.
"""

from __future__ import annotations

from repro.common.errors import QuorumRefusedError
from repro.common.tags import BOTTOM_TAG, Tag
from repro.config.configuration import Configuration, DapKind
from repro.config.sequence import ConfigSequence
from repro.core.reconfig import AresReconfigurer
from repro.dap.treas import MD_BCAST_REQ_FW
from repro.net.message import Message


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
