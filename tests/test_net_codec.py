"""Property and rejection tests for the wire codec (`repro.net.codec`)."""

import json
import struct
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.codec import (
    CODEC_STRUCT,
    HEADER_BYTES,
    MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    CodecError,
    FrameDecoder,
    FrameError,
    decode_header,
    decode_payload,
    default_codec,
    encode_frame,
    encode_payload,
)
from repro.net.deploy import CONTROL_ADDRESS_BASE
from repro.obs.trace import TraceContext
from repro.runtime.messages import (
    ABSENT,
    MAX_COLLECTOR_SHARDS,
    Batch,
    HeartbeatEnvelope,
    StopEnvelope,
    TickEnvelope,
    UpdateEnvelope,
    collector_shard_address,
)

_HEADER = struct.Struct(">HBBqI")
_UPDATE = struct.Struct(">BBqqIII")  # kind flags sender period tree first-slot slots
_SLOT_BYTES = 16  # one value, one stamp

# NaNs (any payload), -0.0 and the infinities included: the benchmark
# compares readings bit for bit.
doubles = st.floats(width=64)
node_ids = st.integers(min_value=0, max_value=2**31)
periods = st.integers(min_value=0, max_value=2**31)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
contexts = st.one_of(
    st.none(),
    st.builds(
        TraceContext,
        trace_id=st.binary(min_size=16, max_size=16).map(bytes.hex),
        span_id=st.integers(min_value=0, max_value=2**64 - 1),
    ),
)

ticks = st.builds(TickEnvelope, period=periods, sent_monotonic=doubles, trace_ctx=contexts)
heartbeats = st.builds(HeartbeatEnvelope, sender=node_ids, period=periods)
stops = st.just(StopEnvelope())
# Any doubles at all in either column, holes more often than chance
# would draw them, the empty batch included.
batches = st.lists(
    st.tuples(doubles, st.one_of(st.just(ABSENT), doubles)), max_size=6
).flatmap(
    lambda slots: st.builds(
        Batch,
        lo=u32,
        values=st.just(array("d", [value for value, _ in slots])),
        stamps=st.just(array("d", [stamp for _, stamp in slots])),
    )
)
updates = st.builds(
    UpdateEnvelope, sender=node_ids, tree=u32, period=periods, payload=batches, trace_ctx=contexts
)
envelopes = st.one_of(ticks, heartbeats, stops, updates)

#: The full signed-64-bit header field, plus the reserved negative
#: addresses the runtime really uses (collector shards, control inboxes).
dests = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=0, max_value=MAX_COLLECTOR_SHARDS - 1).map(collector_shard_address),
    st.integers(min_value=0, max_value=64).map(lambda rank: CONTROL_ADDRESS_BASE - rank),
)

CTX = TraceContext(trace_id="0af7651916cd43dd8448eb211c80319c", span_id=0x1234ABCD5678)
UPDATE = UpdateEnvelope(
    sender=7,
    tree=3,
    period=2,
    payload=Batch(
        lo=40,
        values=array("d", [0.1, -3.5, 0.0, 1e300]),
        stamps=array("d", [2.0, 1.0, ABSENT, 2.0]),  # slot 42 is a hole
    ),
    trace_ctx=CTX,
)


def same_bits(a, b):
    """Equality that tells 0.0 from -0.0 and compares NaNs by payload."""
    return struct.pack(">d", a) == struct.pack(">d", b)


def held(decoder):
    """Bytes the decoder holds waiting for a complete frame."""
    return len(decoder._buffer)


def present(stamps):
    return sum(1 for stamp in stamps if stamp != ABSENT)


def assert_identical(decoded, sent):
    """Dataclass equality, plus what it hides: contexts and float bits."""
    assert type(decoded) is type(sent)
    assert getattr(decoded, "trace_ctx", None) == getattr(sent, "trace_ctx", None)
    if isinstance(sent, TickEnvelope):
        assert decoded.period == sent.period
        assert same_bits(decoded.sent_monotonic, sent.sent_monotonic)
    elif isinstance(sent, UpdateEnvelope):
        assert (decoded.sender, decoded.tree, decoded.period) == (
            sent.sender, sent.tree, sent.period,
        )  # fmt: skip
        got, batch = decoded.payload, sent.payload
        assert got.lo == batch.lo
        assert got.values.typecode == got.stamps.typecode == "d"
        # Whole columns, bit for bit -- a hole's value included.
        assert got.values.tobytes() == batch.values.tobytes()
        assert got.stamps.tobytes() == batch.stamps.tobytes()
        assert got.count == present(batch.stamps)
    else:
        assert decoded == sent


class TestRoundTripProperties:
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(envelope=envelopes)
    def test_payload_round_trip(self, envelope):
        assert_identical(decode_payload(encode_payload(envelope)), envelope)

    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(envelope=envelopes, dest=dests)
    def test_frame_round_trip(self, envelope, dest):
        decoder = FrameDecoder()
        [(decoded_dest, decoded)] = decoder.feed(encode_frame(dest, envelope))
        assert decoded_dest == dest
        assert_identical(decoded, envelope)
        assert held(decoder) == 0

    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    @given(
        batch=st.lists(st.tuples(dests, envelopes), min_size=1, max_size=5),
        chunk=st.integers(min_value=1, max_value=64),
    )
    def test_arbitrary_chunking_preserves_frames(self, batch, chunk):
        # However the socket slices the stream, the decoder emits the
        # identical frame sequence.
        stream = b"".join(encode_frame(dest, env) for dest, env in batch)
        decoder = FrameDecoder()
        out = []
        for start in range(0, len(stream), chunk):
            out.extend(decoder.feed(stream[start : start + chunk]))
        assert [dest for dest, _ in out] == [dest for dest, _ in batch]
        for (_, decoded), (_, sent) in zip(out, batch):
            assert_identical(decoded, sent)
        assert held(decoder) == 0

    def test_stream_split_at_every_offset_yields_the_same_frames(self):
        # Pins the cursor walk and the once-per-feed compaction: a
        # multi-frame chunk, a frame straddling two chunks, a header
        # straddling two chunks.
        batch = [
            (-1, UPDATE),
            (5, TickEnvelope(period=3, sent_monotonic=1.5, trace_ctx=CTX)),
            (CONTROL_ADDRESS_BASE, StopEnvelope()),
            (-2, HeartbeatEnvelope(sender=4, period=3)),
            (6, UPDATE),
        ]
        stream = b"".join(encode_frame(dest, env) for dest, env in batch)
        for cut in range(len(stream) + 1):
            decoder = FrameDecoder()
            out = decoder.feed(stream[:cut]) + decoder.feed(stream[cut:])
            assert out == batch, cut
            assert held(decoder) == 0

    def test_default_codec_is_the_one_format(self):
        assert PROTOCOL_VERSION == 4
        assert default_codec() == CODEC_STRUCT
        assert encode_frame(0, StopEnvelope())[3] == CODEC_STRUCT


class TestTraceContext:
    """The optional 24-byte trace context on ticks and updates."""

    def test_tick_trace_context_survives_the_wire(self):
        tick = TickEnvelope(period=3, trace_ctx=CTX)
        assert decode_payload(encode_payload(tick)).trace_ctx == CTX

    def test_update_trace_context_survives_preferred_codec(self):
        [(dest, decoded)] = FrameDecoder().feed(encode_frame(-1, UPDATE))
        assert (dest, decoded.trace_ctx) == (-1, CTX)

    def test_absent_trace_context_decodes_to_none(self):
        bare = encode_payload(TickEnvelope(period=1))
        assert len(encode_payload(TickEnvelope(period=1, trace_ctx=CTX))) == len(bare) + 24
        assert decode_payload(bare).trace_ctx is None

    @pytest.mark.parametrize(
        "tc",
        [
            ["not-hex-and-short", 1],
            ["zz" * 16, 1],  # right length, not hex
            "0af7651916cd43dd8448eb211c80319c",  # not a context at all
            ["0af7651916cd43dd8448eb211c80319c", 2**64],  # span id past u64
        ],
    )
    def test_malformed_trace_context_rejected(self, tc):
        # An envelope carrying a context that cannot be put on the wire
        # is refused at encode, not sent mangled.
        ctx = TraceContext(*tc) if isinstance(tc, list) else tc
        with pytest.raises(CodecError):
            encode_payload(TickEnvelope(period=1, trace_ctx=ctx))

    @pytest.mark.parametrize("flags", [2, 0x80, 0xFF])
    def test_bad_flags_byte_rejected(self, flags):
        for envelope in (TickEnvelope(period=1, trace_ctx=CTX), UPDATE):
            payload = bytearray(encode_payload(envelope))
            payload[1] = flags
            with pytest.raises(CodecError, match="flags"):
                decode_payload(bytes(payload))


class TestRejection:
    def test_truncated_header_and_payload_stay_buffered(self):
        tick = TickEnvelope(period=1)
        frame = encode_frame(3, tick)
        decoder = FrameDecoder()
        assert decoder.feed(frame[: HEADER_BYTES - 1]) == []
        assert decoder.feed(frame[HEADER_BYTES - 1 : -1]) == []
        assert held(decoder) == len(frame) - 1
        assert decoder.feed(frame[-1:]) == [(3, tick)]

    def test_bad_magic_rejected(self):
        header = _HEADER.pack(0xDEAD, PROTOCOL_VERSION, CODEC_STRUCT, 0, 0)
        with pytest.raises(FrameError, match="magic"):
            decode_header(header)

    def test_version_mismatch_refused(self):
        header = _HEADER.pack(MAGIC, PROTOCOL_VERSION + 1, CODEC_STRUCT, 0, 0)
        with pytest.raises(FrameError, match="version"):
            decode_header(header)

    @pytest.mark.parametrize("version,codec", [(1, 0), (2, 0), (2, 1)])
    def test_v1_and_v2_frames_refused(self, version, codec):
        # What an old peer would send: a JSON (or msgpack) tagged dict.
        # There is no such peer; the frame is refused on its header.
        payload = json.dumps({"kind": "tick", "period": 9, "sent_monotonic": 0.0}).encode()
        frame = _HEADER.pack(MAGIC, version, codec, 5, len(payload)) + payload
        with pytest.raises(FrameError, match="version"):
            FrameDecoder().feed(frame)

    def test_v3_frame_refused_on_its_version_byte(self):
        # A v3 update: same header layout, same format byte, per-value
        # records behind an attribute table.  Its tick and heartbeat
        # payloads are byte-identical to v4's, so only the version byte
        # can tell the peers apart -- and it does, before the payload.
        v3_update = (
            struct.pack(">BBqqHHI", 3, 0, 7, 2, 1, 1, 1)
            + struct.pack(">H", 3) + b"cpu"
            + struct.pack(">qHdd", 7, 0, 0.1, 2.0)
        )  # fmt: skip
        for payload in (v3_update, encode_payload(TickEnvelope(period=1))):
            frame = _HEADER.pack(MAGIC, 3, CODEC_STRUCT, -1, len(payload)) + payload
            with pytest.raises(FrameError, match="version 3 refused"):
                FrameDecoder().feed(frame)

    def test_oversized_length_prefix_refused(self):
        header = _HEADER.pack(MAGIC, PROTOCOL_VERSION, CODEC_STRUCT, 0, MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="MAX_FRAME_BYTES"):
            decode_header(header)
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(header + b"\x00" * 1024)
        assert held(decoder) == 0  # nothing is held for a refused frame

    def test_garbage_stream_raises_through_decoder(self):
        with pytest.raises(FrameError):
            FrameDecoder().feed(b"\x00" * 64)

    def test_unknown_codec_id_rejected(self):
        for codec in (0, 1, 7):  # retired JSON, retired msgpack, never assigned
            header = _HEADER.pack(MAGIC, PROTOCOL_VERSION, codec, 0, 0)
            with pytest.raises(FrameError, match="codec"):
                decode_header(header)

    def test_unknown_envelope_kind_rejected(self):
        with pytest.raises(CodecError, match="kind"):
            decode_payload(b"\x09" + b"\x00" * 16)
        with pytest.raises(CodecError, match="empty"):
            decode_payload(b"")

    def test_malformed_known_kind_rejected(self):
        tick = encode_payload(TickEnvelope(period=1))
        with pytest.raises(CodecError, match="malformed tick"):
            decode_payload(tick[:-1])  # sent_monotonic cut short

    def test_json_garbage_payload_rejected(self):
        # A v2-style JSON document inside a current frame is just bad bytes.
        with pytest.raises(CodecError, match="kind"):
            decode_payload(b'{"kind":"stop"}')

    def test_unencodable_envelope_rejected(self):
        class Mystery:
            pass

        with pytest.raises(CodecError):
            encode_payload(Mystery())
        with pytest.raises(CodecError):
            encode_payload(HeartbeatEnvelope(sender=2**63, period=0))  # past i64
        with pytest.raises(CodecError):
            encode_payload(HeartbeatEnvelope(sender="seven", period=0))
        with pytest.raises(FrameError):
            encode_frame(2**63, StopEnvelope())

    @pytest.mark.parametrize(
        "envelope",
        [UPDATE, TickEnvelope(period=1, trace_ctx=CTX), HeartbeatEnvelope(1, 2), StopEnvelope()],
        ids=lambda envelope: type(envelope).__name__,
    )
    def test_payload_truncated_or_extended_at_every_offset(self, envelope):
        payload = encode_payload(envelope)
        for cut in range(len(payload)):
            with pytest.raises(CodecError):
                decode_payload(payload[:cut])
        with pytest.raises(CodecError):
            decode_payload(payload + b"\x00")  # trailing bytes

    def test_value_count_checked_before_allocating(self):
        # 4 billion slots declared, none present: the declared count
        # must be refused against the bytes received, never sized from.
        lie = _UPDATE.pack(3, 0, 1, 1, 0, 0, 2**32 - 1)
        with pytest.raises(CodecError, match="declares 4294967295 slots"):
            decode_payload(lie)
        with pytest.raises(CodecError, match="declares 4294967295 slots"):
            decode_payload(lie + b"\x00" * 64)

    def test_slot_count_lied_about_in_both_directions(self):
        payload = bytearray(encode_payload(UPDATE))
        slots_at = _UPDATE.size - 4
        assert int.from_bytes(payload[slots_at : slots_at + 4], "big") == 4
        for lie in (0, 3, 5, 8):
            payload[slots_at : slots_at + 4] = lie.to_bytes(4, "big")
            with pytest.raises(CodecError, match=f"declares {lie} slots"):
                decode_payload(bytes(payload))
        # Nor can the frame carry one column longer than the other.
        honest = encode_payload(UPDATE)
        with pytest.raises(CodecError, match="slots"):
            decode_payload(honest + b"\x00" * 8)
        with pytest.raises(CodecError, match="slots"):
            decode_payload(honest[:-8])

    def test_count_is_recounted_from_the_stamps_never_trusted(self):
        # The receiver bills C + a*x by ``count``: a sender cannot
        # understate it, because it is not on the wire.
        lying = UpdateEnvelope(7, 3, 2, Batch(40, UPDATE.payload.values, UPDATE.payload.stamps, 0))
        assert lying.payload.count == 0
        assert encode_payload(lying)[_UPDATE.size :] == encode_payload(
            UpdateEnvelope(7, 3, 2, UPDATE.payload)
        )[_UPDATE.size :]
        assert decode_payload(encode_payload(lying)).payload.count == 3
        assert len(encode_payload(UPDATE)) == _UPDATE.size + 24 + 4 * _SLOT_BYTES

    @pytest.mark.parametrize(
        "values,stamps",
        [
            (array("d", [1.0, 2.0]), array("d", [0.0])),  # unequal columns
            (array("d", [1.0]), array("d", [0.0, 0.0])),
            (array("f", [1.0]), array("f", [0.0])),  # same byte count as no 'd' column has
            (array("d", [1.0]), array("q", [0])),  # right width, wrong type
            ([1.0], [0.0]),  # not arrays at all
            (array("d", [1.0]).tobytes(), array("d", [0.0]).tobytes()),
        ],
    )
    def test_malformed_columns_refuse_to_encode(self, values, stamps):
        with pytest.raises(CodecError):
            encode_payload(UpdateEnvelope(1, 0, 0, Batch(0, values, stamps, count=1)))

    @pytest.mark.parametrize("tree,lo", [(-1, 0), (2**32, 0), (0, -1), (0, 2**32)])
    def test_tree_and_slot_past_u32_refuse_to_encode(self, tree, lo):
        batch = Batch(lo, array("d", [1.0]), array("d", [0.0]))
        with pytest.raises(CodecError):
            encode_payload(UpdateEnvelope(1, tree, 0, batch))

    def test_hostile_frames_never_escape_as_other_exceptions(self):
        # Every single-byte corruption of a valid two-frame stream
        # either still decodes or fails typed, and what the decoder
        # holds stays bounded by one maximal frame.
        stream = encode_frame(-1, UPDATE) + encode_frame(4, TickEnvelope(period=1, trace_ctx=CTX))
        for offset in range(len(stream)):
            for byte in (0x00, 0x7F, 0xFF):
                hostile = bytearray(stream)
                hostile[offset] = byte
                decoder = FrameDecoder()
                try:
                    decoder.feed(bytes(hostile))
                except CodecError:
                    assert held(decoder) == 0
                assert held(decoder) <= HEADER_BYTES + MAX_FRAME_BYTES

    def test_frames_ahead_of_a_corrupt_frame_ride_on_the_error(self):
        good = [(1, HeartbeatEnvelope(sender=1, period=0)), (2, UPDATE)]
        stream = b"".join(encode_frame(dest, env) for dest, env in good)
        decoder = FrameDecoder()
        with pytest.raises(FrameError) as caught:
            decoder.feed(stream + b"\x00" * HEADER_BYTES + encode_frame(3, StopEnvelope()))
        assert caught.value.frames == good
        assert held(decoder) == 0
        assert CodecError("fresh").frames == ()
