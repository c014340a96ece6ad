"""The wire codec: length-prefixed frames around struct-packed envelopes.

Everything codec-ish lives in this one module so the wire format has a
single owner.  A frame is a 16-byte header and a payload::

    offset  size  field
    0       2     magic 0x524D ("RM")
    2       1     protocol version (PROTOCOL_VERSION)
    3       1     payload format (CODEC_STRUCT; 0 and 1 are retired)
    4       8     destination NodeId (signed big-endian)
    12      4     payload length N (unsigned big-endian)
    16      N     payload bytes

The destination rides in the header because one process hosts many
addresses (a worker's agents plus its control inbox): the reader routes
on the header without decoding the payload.  Length is bounded by
:data:`MAX_FRAME_BYTES` so a hostile peer cannot make the reader
allocate unbounded memory.  The version byte must equal
:data:`PROTOCOL_VERSION` and the format byte :data:`CODEC_STRUCT`;
anything else is a :class:`FrameError`, fatal for that connection (both
ends of a deployment run the same build, so negotiation is refusal).

The payload is unpadded and starts with a kind byte; its fixed fields
are big-endian::

    stop       kind
    tick       kind | flags u8 | period i64 | sent_at f64 | [trace]
    update     kind | flags u8 | sender i64 | period i64
               | tree u32 | first slot u32 | slots u32 | [trace]
               | [silent: count u32 | count x i64]
               | values: slots x f64 | stamps: slots x f64

Flag bit 1 says the 24-byte trace context (16 raw trace-id bytes, span
id u64) follows the fixed fields, bit 2 that an update's silent ids
follow that; any other bit is refused.  An update is a
:class:`~repro.runtime.messages.Batch`: the plan gives every pair of a
tree a slot, both ends derive the same numbering from it, and the frame
names a run of slots and carries their two columns as raw
little-endian IEEE doubles -- 16 bytes a slot, no attribute names, no
node ids, a stamp of ``-1.0`` for a slot with no reading.  The columns
are copied in and out whole (``array.tobytes`` / ``array.frombytes``)
once their exact length is confirmed against the declared slot count,
so a count (of slots or silent ids) sizes nothing before the bytes
are seen to be there; the
number of readings present is counted from the stamps, never taken
from the peer; and a payload must be consumed exactly.  Whether the
tree exists, the slots are the sender's to report and the silent ids
are its members is the receiver's check, not the codec's.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.attributes import NodeId
from repro.obs.trace import TraceContext
from repro.runtime.messages import (
    Batch,
    Envelope,
    StopEnvelope,
    TickEnvelope,
    UpdateEnvelope,
)

#: First two frame bytes; "RM" for REMO.
MAGIC = 0x524D

#: Bump on any change to the frame layout or payload schema.  v1/v2
#: (JSON / msgpack tagged dicts), v3 (updates as per-value records
#: behind an attribute-name table) and v4 (heartbeats, no silent ids)
#: are refused, not decoded.
PROTOCOL_VERSION = 5

#: Payload-format ids (the header's format byte).  JSON's id is retired
#: and refused; the name stays because the repo benchmark's environment
#: block compares :func:`default_codec` against it.
CODEC_JSON = 0
CODEC_STRUCT = 2

#: Refuse frames claiming a payload larger than this (8 MiB): a bad
#: length prefix must fail fast, not trigger a giant allocation.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: ``magic | version | format | dest | length``.
_HEADER = struct.Struct(">HBBqI")
HEADER_BYTES = _HEADER.size

#: Kind bytes; the two kinds that carry flags sort last.
_KIND_STOP, _KIND_TICK, _KIND_UPDATE = range(3)
#: Flag bits: a trace context follows; silent ids follow (updates only).
_FLAG_TRACE, _FLAG_SILENT = 1, 2
_TICK = struct.Struct(">BBqd")
#: ``kind | flags | sender | period | tree | first slot | slots``.
_UPDATE = struct.Struct(">BBqqIII")
#: By kind byte: its name, fixed fields, and the flag bits it may set.
_KINDS = (
    ("stop", struct.Struct(">B"), 0),
    ("tick", _TICK, _FLAG_TRACE),
    ("update", _UPDATE, _FLAG_TRACE | _FLAG_SILENT),
)
_TRACE = struct.Struct(">16sQ")
_COUNT = struct.Struct(">I")
#: The columns are little-endian on the wire whatever the host is.
_SWAP_COLUMNS = sys.byteorder != "little"

Buffer = Union[bytes, bytearray]


class CodecError(ValueError):
    """The payload bytes do not decode to a known envelope."""

    #: Set by :meth:`FrameDecoder.feed`: the complete frames decoded
    #: from the same chunk ahead of the corruption, still to be routed.
    frames: Sequence[Tuple[NodeId, Envelope]] = ()


class FrameError(CodecError):
    """The header is corrupt, foreign, or oversized: stream framing is
    lost for good, so handlers drop the connection."""


def default_codec() -> int:
    """The one payload-format id this build writes and reads."""
    return CODEC_STRUCT


def _trace_bytes(ctx: Optional[TraceContext]) -> bytes:
    if ctx is None:
        return b""
    raw = bytes.fromhex(ctx.trace_id)
    if len(raw) != 16:
        raise ValueError(f"trace id must be 32 hex characters, got {ctx.trace_id!r}")
    return _TRACE.pack(raw, ctx.span_id)


def _column_bytes(column: object) -> bytes:
    if not isinstance(column, array) or column.typecode != "d":
        raise TypeError(f"an update column must be an array('d'), got {column!r}")
    if _SWAP_COLUMNS:
        column = array("d", column)
        column.byteswap()
    return column.tobytes()


def _encode_update(envelope: UpdateEnvelope) -> bytes:
    batch = envelope.payload
    values, stamps = _column_bytes(batch.values), _column_bytes(batch.stamps)
    if len(values) != len(stamps):
        raise ValueError(f"{len(values) // 8} values beside {len(stamps) // 8} stamps")
    trace, ids = _trace_bytes(envelope.trace_ctx), envelope.silent
    flags = (_FLAG_TRACE if trace else 0) | (_FLAG_SILENT if ids else 0)
    silent = _COUNT.pack(len(ids)) + struct.pack(f">{len(ids)}q", *ids) if ids else b""
    head = _UPDATE.pack(
        _KIND_UPDATE, flags, envelope.sender, envelope.period,
        envelope.tree, batch.lo, len(stamps) // 8,
    )  # fmt: skip
    return b"".join((head, trace, silent, values, stamps))


def encode_payload(envelope: Envelope) -> bytes:
    """Serialize one envelope (raises :class:`CodecError` if it cannot be)."""
    try:
        if isinstance(envelope, UpdateEnvelope):
            return _encode_update(envelope)
        if isinstance(envelope, TickEnvelope):
            trace = _trace_bytes(envelope.trace_ctx)
            fixed = _TICK.pack(_KIND_TICK, bool(trace), envelope.period, envelope.sent_at)
            return fixed + trace
        if isinstance(envelope, StopEnvelope):
            return bytes((_KIND_STOP,))
    except (struct.error, AttributeError, TypeError, ValueError) as exc:
        raise CodecError(f"cannot encode {type(envelope).__name__}: {exc}") from exc
    raise CodecError(f"cannot encode envelope type {type(envelope).__name__}")


def _decode_update(
    buf: Buffer, pos: int, end: int, fields: Tuple[int, ...], trace_ctx: Optional[TraceContext]
) -> Envelope:
    _, flags, sender, period, tree, lo, slots = fields
    silent: Tuple[int, ...] = ()
    if flags & _FLAG_SILENT:
        count = _COUNT.unpack_from(buf, pos)[0] if end - pos >= _COUNT.size else -1
        if not 0 <= count <= (end - pos - _COUNT.size) // 8:
            raise CodecError(f"silent-id count {count} runs past the payload's end")
        silent = struct.unpack_from(f">{count}q", buf, pos + _COUNT.size)
        pos += _COUNT.size + 8 * count
    if end - pos != 16 * slots:
        raise CodecError(
            f"update declares {slots} slots ({16 * slots} bytes), "
            f"{end - pos} bytes follow its fixed fields"
        )
    values, stamps = array("d"), array("d")
    values.frombytes(buf[pos : pos + 8 * slots])
    stamps.frombytes(buf[pos + 8 * slots : end])
    if _SWAP_COLUMNS:
        values.byteswap()
        stamps.byteswap()
    return UpdateEnvelope(sender, tree, period, Batch(lo, values, stamps), trace_ctx, silent)


def decode_payload(buf: Buffer, pos: int = 0, end: Optional[int] = None) -> Envelope:
    """The envelope ``buf[pos:end]`` holds exactly, else :class:`CodecError`."""
    end = len(buf) if end is None else end
    if pos >= end:
        raise CodecError("empty payload")
    kind = buf[pos]
    if kind >= len(_KINDS):
        raise CodecError(f"unknown envelope kind byte 0x{kind:02x}")
    name, layout, allowed = _KINDS[kind]
    if end - pos < layout.size:
        raise CodecError(f"malformed {name}: shorter than its fixed fields")
    fields = layout.unpack_from(buf, pos)
    pos += layout.size
    flags = fields[1] if allowed else 0
    if flags & ~allowed:
        raise CodecError(f"bad {name} flags byte 0x{flags:02x}")
    trace_ctx = None
    if flags & _FLAG_TRACE:
        if end - pos < _TRACE.size:
            raise CodecError("payload ends inside the trace context")
        raw, span_id = _TRACE.unpack_from(buf, pos)
        trace_ctx, pos = TraceContext(trace_id=raw.hex(), span_id=span_id), pos + _TRACE.size
    if kind == _KIND_UPDATE:
        return _decode_update(buf, pos, end, fields, trace_ctx)
    if pos != end:
        raise CodecError(f"{end - pos} trailing bytes after the envelope")
    if kind == _KIND_TICK:
        return TickEnvelope(period=fields[2], sent_at=fields[3], trace_ctx=trace_ctx)
    return StopEnvelope()


def encode_frame(dest: NodeId, envelope: Envelope) -> bytes:
    """One wire frame carrying ``envelope`` addressed to ``dest``."""
    payload = encode_payload(envelope)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"payload of {len(payload)} bytes exceeds MAX_FRAME_BYTES")
    try:
        header = _HEADER.pack(MAGIC, PROTOCOL_VERSION, CODEC_STRUCT, dest, len(payload))
    except struct.error as exc:
        raise FrameError(f"destination {dest!r} does not fit the header: {exc}") from exc
    return header + payload


def decode_header(header: Buffer, offset: int = 0) -> Tuple[NodeId, int]:
    """Validate the 16-byte header at ``offset``; returns ``(dest, length)``."""
    magic, version, codec, dest, length = _HEADER.unpack_from(header, offset)
    if magic != MAGIC:
        raise FrameError(f"bad magic 0x{magic:04x} (expected 0x{MAGIC:04x})")
    if version != PROTOCOL_VERSION:
        raise FrameError(f"protocol version {version} refused (this build speaks {PROTOCOL_VERSION})")
    if codec != CODEC_STRUCT:
        raise FrameError(f"unknown payload codec id {codec} (expected {CODEC_STRUCT})")
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"declared payload of {length} bytes exceeds MAX_FRAME_BYTES")
    return dest, length


class FrameDecoder:
    """Incremental frame parser over an untrusted byte stream.

    Feed it whatever chunks the socket yields; it emits complete
    ``(dest, envelope)`` pairs and buffers the rest.  Corruption
    (:class:`FrameError` / :class:`CodecError`) propagates to the
    caller carrying the frames that decoded cleanly ahead of it
    (``exc.frames``); the caller routes those and drops the connection
    -- once framing is lost there is no way to resynchronize a
    length-prefixed stream.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: Buffer) -> List[Tuple[NodeId, Envelope]]:
        buffer = self._buffer
        buffer += data
        frames: List[Tuple[NodeId, Envelope]] = []
        pos, end = 0, len(buffer)
        try:
            while end - pos >= HEADER_BYTES:
                dest, length = decode_header(buffer, pos)
                stop = pos + HEADER_BYTES + length
                if stop > end:
                    break
                frames.append((dest, decode_payload(buffer, pos + HEADER_BYTES, stop)))
                pos = stop
        except CodecError as exc:
            exc.frames = frames
            buffer.clear()
            raise
        # Compact once per chunk, not once per frame.
        del buffer[:pos]
        return frames
