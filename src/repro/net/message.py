"""Message envelopes and size accounting.

The paper's cost model distinguishes the *data* carried by a message (value
bytes or coded-element bytes, counted towards communication cost) from
*metadata* (tags, configuration identifiers, process ids, statuses -- ignored
by the cost model).  :class:`Message` therefore carries both a ``data_bytes``
figure and a ``metadata_bytes`` estimate, so experiments can report either
the paper's normalised cost or raw wire bytes.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: Nominal byte size charged for one metadata field (tag, id, status flag...).
METADATA_FIELD_BYTES = 16


class Message:
    """A protocol message.

    One instance may be handed to many destinations (a quorum broadcast
    sends the *same* object to every server, the duplication fault delivers
    it twice), so receivers must treat a message and its body as read-only.

    Attributes
    ----------
    kind:
        Message type, e.g. ``"QUERY-TAG"``, ``"PUT-DATA"``, ``"READ-CONFIG"``.
        The kinds used by each protocol mirror the names in the paper's
        pseudo-code.
    body:
        Arbitrary keyword payload (tags, values, coded elements, configuration
        records).  The body is never serialised -- the simulation passes
        references -- but its *accounted* size is given by ``data_bytes``.
    data_bytes:
        Number of object-value bytes carried (full value, or one coded
        element of size ``value_size / k``).  This is what the paper's
        communication-cost theorems count.
    metadata_bytes:
        Estimated size of metadata fields; excluded from the paper's cost but
        reported separately by :class:`~repro.net.stats.TrafficStats`.
    request_id:
        When this message *initiates* a quorum phase, the id the recipient
        must echo back in ``in_reply_to``.
    in_reply_to:
        Set on replies; routes the message to the originating
        :class:`~repro.sim.futures.QuorumFuture`.
    config_id:
        The configuration in whose context the message is sent, if any.
    """

    __slots__ = ("kind", "body", "data_bytes", "metadata_bytes",
                 "request_id", "in_reply_to", "config_id")

    def __init__(self, kind: str, body: Optional[Dict[str, Any]] = None,
                 data_bytes: int = 0, metadata_bytes: int = METADATA_FIELD_BYTES,
                 request_id: Optional[int] = None, in_reply_to: Optional[int] = None,
                 config_id: Optional[Any] = None) -> None:
        self.kind = kind
        self.body = {} if body is None else body
        self.data_bytes = data_bytes
        self.metadata_bytes = metadata_bytes
        self.request_id = request_id
        self.in_reply_to = in_reply_to
        self.config_id = config_id

    def get(self, key: str, default: Any = None) -> Any:
        """Shorthand for ``message.body.get(key, default)``."""
        return self.body.get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.body[key]

    @property
    def total_bytes(self) -> int:
        """Raw bytes on the wire: data plus metadata estimate."""
        return self.data_bytes + self.metadata_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        direction = f"re:{self.in_reply_to}" if self.in_reply_to is not None else f"req:{self.request_id}"
        return f"Message({self.kind}, {direction}, data={self.data_bytes}B)"


def request(
    kind: str,
    request_id: int,
    *,
    config_id: Any = None,
    data_bytes: int = 0,
    metadata_fields: int = 1,
    **body: Any,
) -> Message:
    """Build a request message initiating a quorum phase."""
    return Message(kind, body, data_bytes, metadata_fields * METADATA_FIELD_BYTES,
                   request_id, None, config_id)


def reply(
    to: Message,
    kind: Optional[str] = None,
    *,
    data_bytes: int = 0,
    metadata_fields: int = 1,
    **body: Any,
) -> Message:
    """Build a reply to ``to``, echoing its request id."""
    return Message(kind if kind is not None else f"{to.kind}-ACK", body, data_bytes,
                   metadata_fields * METADATA_FIELD_BYTES, None, to.request_id,
                   to.config_id)
