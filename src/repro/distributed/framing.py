"""Length-prefixed framing for the live collector protocol.

A collector socket carries a sequence of *frames*. Each frame is a
one-byte kind tag, a four-byte big-endian payload length, and the
payload itself — the smallest envelope that lets one TCP stream carry
binary :class:`~repro.distributed.summary.SlotSummary` records and
JSON control messages side by side:

- ``KIND_HELLO`` — JSON ``{"monitor": name, "link": link}``; the first
  frame a monitor sends. The collector replies with a ``KIND_REPLY``
  carrying the cell to resume from and its in-flight window.
- ``KIND_SUMMARY`` — one ``SlotSummary.to_bytes`` record.
- ``KIND_ACK`` — JSON ``{"cell": c, "status": ...}``; the collector's
  per-summary receipt, which is also the client's pacing credit.
- ``KIND_QUERY`` / ``KIND_REPLY`` — JSON request/response for the live
  merged state; a query may name the ``since_cell`` it holds history
  up to, and is then listed only the slots sealed since.
- ``KIND_ERROR`` — JSON ``{"error": message}``; sent before the
  collector abandons a misbehaving connection.
- ``KIND_BYE`` — empty payload; a monitor's clean end-of-run (anything
  else, EOF included, is a crash).
- ``KIND_SEAL`` — one sealed-slot checkpoint record (link name +
  merged summary); never travels a socket, it is the on-disk WAL
  format of :mod:`repro.distributed.checkpoint`, which borrows this
  framing so a torn tail is recoverable with the same header checks
  (:func:`read_frame`).

:class:`FrameDecoder` is sans-IO: feed it whatever byte chunks the
transport produced and it yields complete ``(kind, payload)`` pairs,
buffering partial frames across calls. Malformed input — an unknown
kind tag, a length field beyond :data:`MAX_PAYLOAD_BYTES` — raises
:class:`~repro.errors.SummaryFormatError`; the caller closes *that*
connection and keeps serving the rest.

A JSON control frame is ``json.dumps`` of its message, encoded member
by member (:func:`encode_json`): a member that is already JSON text
(:class:`JsonText` — a daemon keeps each sealed slot's elephants that
way) is spliced in as it is, so a reply costs no second encoding of
history and its bytes are still exactly ``json.dumps``'s.
"""

from __future__ import annotations

import json
import math
import struct
from typing import TYPE_CHECKING, BinaryIO

from repro.errors import SummaryFormatError

if TYPE_CHECKING:
    from repro.distributed.summary import SlotSummary

KIND_HELLO = b"H"
KIND_SUMMARY = b"S"
KIND_ACK = b"A"
KIND_QUERY = b"Q"
KIND_REPLY = b"R"
KIND_ERROR = b"E"
KIND_BYE = b"B"
KIND_SEAL = b"L"

FRAME_KINDS = frozenset(
    (
        KIND_HELLO,
        KIND_SUMMARY,
        KIND_ACK,
        KIND_QUERY,
        KIND_REPLY,
        KIND_ERROR,
        KIND_BYE,
        KIND_SEAL,
    )
)

#: Hard ceiling on one frame's payload. A 64 MiB slot summary would be
#: ~2.8M tracked prefixes — far past any real candidate table — so a
#: bigger length field is a corrupt or hostile stream, not data.
MAX_PAYLOAD_BYTES = 1 << 26

#: Kind tag + big-endian payload length.
_FRAME_HEADER = struct.Struct(">cI")

#: Link monitors land on when their hello names none.
DEFAULT_LINK = "link0"
#: Unacked summaries a monitor may keep on the wire.
DEFAULT_MAX_INFLIGHT = 32
#: One socket read's worth of stream.
CHUNK_BYTES = 1 << 16


def grid_cell(start: float, slot_seconds: float) -> int:
    """The slot-grid cell containing the interval starting at ``start``.

    Starts are grid-aligned by construction; ``round`` guards the
    float division, it does not re-bin off-grid starts (those fail the
    exact start check inside
    :func:`~repro.distributed.merge.merge_summaries`, and a live link
    refuses them on arrival). Here because every ``cell`` on the wire
    (acks, ``resume_cell``, ``since_cell``) is this number, and the
    client has to count as the collector does without importing its
    merge.
    """
    return int(round(start / slot_seconds))


def on_grid(start: float, seconds: float) -> bool:
    """Does ``start`` open a cell of the absolute slot grid?

    A monitor's start is ``origin + slot * seconds``; on a grid that is
    not a binary fraction that may land an ulp or so off
    ``cell * seconds``, and is still that cell.
    """
    edge = grid_cell(start, seconds) * seconds
    return abs(start - edge) <= 4 * math.ulp(edge)


def encode_frame(kind: bytes, payload: bytes = b"") -> bytes:
    """One wire frame: kind tag, length prefix, payload."""
    if kind not in FRAME_KINDS:
        raise SummaryFormatError(f"unknown frame kind {kind!r}")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise SummaryFormatError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    return _FRAME_HEADER.pack(kind, len(payload)) + payload


class JsonText(str):
    """A message member already encoded by ``json.dumps``."""


def encode_json(message: dict[str, object]) -> bytes:
    """``json.dumps(message)``, with :class:`JsonText` members as is.

    Every other member is encoded by ``json.dumps`` and joined with its
    default separators, so the bytes are the one-call encoding's.
    """
    members = []
    for key, value in message.items():
        if not isinstance(value, JsonText):
            value = json.dumps(value)
        members.append(f"{json.dumps(key)}: {value}")
    return ("{" + ", ".join(members) + "}").encode("utf-8")


def encode_json_frame(kind: bytes, message: dict[str, object]) -> bytes:
    """A control frame carrying a JSON object (:func:`encode_json`)."""
    return encode_frame(kind, encode_json(message))


def decode_json(payload: bytes) -> dict:
    """Parse a control frame's JSON payload."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError is bad UTF-8, bad JSON and an integer literal past
        # the interpreter's digit limit; RecursionError is "[[[[…"
        raise SummaryFormatError(
            f"control frame carries invalid JSON: {exc}"
        ) from exc
    if not isinstance(message, dict):
        raise SummaryFormatError(
            "control frame must carry a JSON object"
        )
    return message


def encode_summary(summary: SlotSummary) -> bytes:
    """One slot summary as a ``KIND_SUMMARY`` frame."""
    return encode_frame(KIND_SUMMARY, summary.to_bytes())


def decode_summary(payload: bytes) -> SlotSummary:
    """Parse a ``KIND_SUMMARY`` payload (raises on corrupt records)."""
    # imported on use: the record brings numpy, and the protocol's
    # readers (`repro query`, a poller) never decode one
    from repro.distributed.summary import SlotSummary

    return SlotSummary.from_bytes(payload)


def _checked_header(buffer: bytes | bytearray) -> tuple[bytes, int]:
    """A frame header's kind and payload length; raises if corrupt."""
    kind, length = _FRAME_HEADER.unpack_from(buffer)
    if kind not in FRAME_KINDS:
        raise SummaryFormatError(f"unknown frame kind {kind!r} on the wire")
    if length > MAX_PAYLOAD_BYTES:
        raise SummaryFormatError(
            f"frame announces {length} payload bytes, above "
            f"the {MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    return kind, length


def read_frame(stream: BinaryIO) -> tuple[bytes, bytes] | None:
    """The next ``(kind, payload)`` in a binary file; None at its end.

    Raises :class:`~repro.errors.SummaryFormatError` on a corrupt
    header and on a frame the file ends inside.
    """
    header = stream.read(_FRAME_HEADER.size)
    if not header:
        return None
    if len(header) < _FRAME_HEADER.size:
        raise SummaryFormatError("the file ends inside a frame header")
    kind, length = _checked_header(header)
    payload = stream.read(length)
    if len(payload) < length:
        raise SummaryFormatError("the file ends inside a frame")
    return kind, payload


class FrameDecoder:
    """Incremental frame parser over an untrusted byte stream.

    ``feed`` never raises on *partial* input — a frame split across any
    number of chunks is reassembled — but raises
    :class:`~repro.errors.SummaryFormatError` the moment the stream is
    provably corrupt (unknown kind tag or oversized length field), so a
    connection loop can fail fast instead of buffering garbage.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[tuple[bytes, bytes]]:
        """Buffer ``data``; return every now-complete frame, in order.

        Eager (a list, not a generator) so the buffer state is always
        consistent even if the caller abandons the result mid-way.
        """
        self._buffer += data
        frames: list[tuple[bytes, bytes]] = []
        while len(self._buffer) >= _FRAME_HEADER.size:
            kind, length = _checked_header(self._buffer)
            end = _FRAME_HEADER.size + length
            if len(self._buffer) < end:
                break
            payload = bytes(self._buffer[_FRAME_HEADER.size : end])
            del self._buffer[:end]
            frames.append((kind, payload))
        return frames


__all__ = [
    "CHUNK_BYTES",
    "DEFAULT_LINK",
    "DEFAULT_MAX_INFLIGHT",
    "FRAME_KINDS",
    "KIND_ACK",
    "KIND_BYE",
    "KIND_ERROR",
    "KIND_HELLO",
    "KIND_QUERY",
    "KIND_REPLY",
    "KIND_SEAL",
    "KIND_SUMMARY",
    "MAX_PAYLOAD_BYTES",
    "FrameDecoder",
    "JsonText",
    "decode_json",
    "decode_summary",
    "encode_frame",
    "encode_json",
    "encode_json_frame",
    "encode_summary",
    "grid_cell",
    "read_frame",
]
