"""Wire framing: round trips, codec fallbacks, corruption detection."""

import asyncio
import struct
import zlib

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError, KeyNotFoundError
from repro.net import frame as wire
from repro.net.errors import FrameCorruptError, FrameError, RemoteError
from repro.serve.server import ServerClosedError


def _roundtrip(buf):
    """Decode one encoded frame the way the stream reader would."""
    magic, body_len, crc = wire._PREFIX.unpack(buf[: wire._PREFIX.size])
    assert magic == 0xF17E
    body = buf[wire._PREFIX.size:]
    assert len(body) == body_len
    assert zlib.crc32(body) == crc
    return wire.decode_frame(body)


def test_json_meta_roundtrip():
    buf = wire.encode_frame(wire.OP_PING, 7, meta={"a": 1, "b": "x"})
    f = _roundtrip(buf)
    assert (f.kind, f.request_id) == (wire.OP_PING, 7)
    assert f.meta == {"a": 1, "b": "x"}
    assert f.arrays == []
    assert f.codec == wire.CODEC_JSON


def test_array_payload_roundtrip_multiple_dtypes():
    arrays = [
        np.arange(100, dtype=np.float64),
        np.arange(5, dtype=np.int64) * -3,
        np.array([1.5, 2.5], dtype=np.float32),
    ]
    buf = wire.encode_frame(
        wire.OP_GET_BATCH, 9, meta={"n": 3}, arrays=arrays
    )
    f = _roundtrip(buf)
    assert f.codec == wire.CODEC_ARRAYS
    assert f.meta == {"n": 3}
    assert len(f.arrays) == 3
    for sent, got in zip(arrays, f.arrays):
        assert got.dtype == sent.dtype
        assert np.array_equal(got, sent)
        assert not got.flags.writeable  # zero-copy view over the body


def test_object_arrays_fall_back_to_pickle():
    arr = np.array([None, "x", 3], dtype=object)
    buf = wire.encode_frame(wire.REPLY_OK, 1, arrays=[arr])
    f = _roundtrip(buf)
    assert f.codec == wire.CODEC_PICKLE
    assert list(f.arrays[0]) == [None, "x", 3]


def test_unjsonable_meta_falls_back_to_pickle():
    meta = {"v": {1, 2, 3}}  # sets are not JSON
    buf = wire.encode_frame(wire.REPLY_OK, 1, meta=meta)
    f = _roundtrip(buf)
    assert f.codec == wire.CODEC_PICKLE
    assert f.meta == meta


def test_bad_version_rejected():
    buf = wire.encode_frame(wire.OP_PING, 1)
    body = bytearray(buf[wire._PREFIX.size:])
    body[0] = 99  # version byte
    with pytest.raises(FrameError, match="version"):
        wire.decode_frame(bytes(body))


async def _read_from(buf, **kw):
    reader = asyncio.StreamReader()
    reader.feed_data(buf)
    reader.feed_eof()
    return await wire.read_frame(reader, **kw)


def test_read_frame_crc_mismatch_is_recoverable():
    buf = bytearray(wire.encode_frame(wire.OP_PING, 3))
    buf[-1] ^= 0xFF  # flip one payload bit: CRC must catch it

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(bytes(buf))
        # A clean frame right behind the corrupt one must still decode:
        # CRC failure consumes exactly one frame, not the stream.
        reader.feed_data(wire.encode_frame(wire.OP_PING, 4))
        reader.feed_eof()
        with pytest.raises(FrameCorruptError):
            await wire.read_frame(reader)
        nxt = await wire.read_frame(reader)
        assert nxt.request_id == 4

    asyncio.run(scenario())


def test_read_frame_bad_magic_is_fatal():
    buf = b"\x00\x00" + wire.encode_frame(wire.OP_PING, 3)[2:]
    with pytest.raises(FrameError, match="magic"):
        asyncio.run(_read_from(buf))


def test_read_frame_rejects_oversized_body():
    buf = wire.encode_frame(
        wire.OP_GET_BATCH, 1, arrays=[np.zeros(4096)]
    )
    with pytest.raises(FrameError, match="length"):
        asyncio.run(_read_from(buf, max_bytes=1024))


def test_read_frame_eof_mid_frame():
    buf = wire.encode_frame(wire.OP_PING, 3)
    with pytest.raises(asyncio.IncompleteReadError):
        asyncio.run(_read_from(buf[: len(buf) - 2]))


def test_read_frame_records_wire_bytes():
    buf = wire.encode_frame(wire.OP_PING, 3)
    f = asyncio.run(_read_from(buf))
    assert f.wire_bytes == len(buf)


@pytest.mark.parametrize(
    "value",
    [
        None,
        42,
        1.5,
        "hello",
        np.arange(10, dtype=np.int64),
        (np.arange(4.0), np.arange(4, dtype=np.int64)),
        [
            (np.arange(3.0), np.arange(3, dtype=np.int64)),
            (np.array([]), np.array([], dtype=np.int64)),
        ],
        {"backend": "sharded", "n": 3},
    ],
)
def test_result_shapes_roundtrip(value):
    meta, arrays = wire.encode_result(value)
    buf = wire.encode_frame(wire.REPLY_OK, 1, meta=meta, arrays=arrays)
    got = wire.decode_result(_roundtrip(buf))
    if isinstance(value, np.ndarray):
        assert np.array_equal(got, value)
    elif isinstance(value, tuple):
        assert np.array_equal(got[0], value[0])
        assert np.array_equal(got[1], value[1])
    elif isinstance(value, list):
        assert len(got) == len(value)
        for (gk, gv), (vk, vv) in zip(got, value):
            assert np.array_equal(gk, vk)
            assert np.array_equal(gv, vv)
    else:
        assert got == value


@pytest.mark.parametrize(
    "exc",
    [
        KeyNotFoundError("key 3.5 not found"),
        InvalidParameterError("bad param"),
        ServerClosedError("server is closed"),
    ],
)
def test_typed_errors_reconstruct(exc):
    buf = wire.encode_error(5, exc)
    f = _roundtrip(buf)
    assert f.kind == wire.REPLY_ERR
    remote = wire.decode_error(f)
    assert type(remote) is type(exc)
    assert str(exc) in str(remote)


def test_unknown_error_type_becomes_remote_error():
    class WeirdError(Exception):
        pass

    remote = wire.decode_error(_roundtrip(wire.encode_error(1, WeirdError("boom"))))
    assert isinstance(remote, RemoteError)
    assert remote.remote_type == "WeirdError"
    assert "boom" in str(remote)


def test_worker_errors_carry_attrs():
    from repro.cluster.errors import WorkerCrashedError

    exc = WorkerCrashedError(shard=2, exitcode=-9)
    remote = wire.decode_error(_roundtrip(wire.encode_error(1, exc)))
    assert isinstance(remote, WorkerCrashedError)
    assert remote.shard == 2
    assert remote.exitcode == -9


@pytest.mark.parametrize(
    "meta, arrays",
    [
        ({"default": -1}, [np.arange(5.0)]),
        ({"default": None}, [np.arange(5.0)]),
        ({}, [np.arange(5.0)]),
        (
            {"n": 3},
            [
                np.arange(3, dtype=np.uint8),  # odd length: the next one pads
                np.arange(5, dtype=np.float64),
                np.arange(2, dtype=np.int64),
            ],
        ),
    ],
)
def test_decoded_arrays_are_16_byte_aligned_for_any_meta_length(meta, arrays):
    buf = wire.encode_frame(wire.OP_GET_BATCH, 1, meta, arrays)
    f = wire.decode_frame(buf[wire._PREFIX.size:])  # a fresh ``bytes`` body
    assert f.meta == meta
    for sent, got in zip(arrays, f.arrays):
        assert np.array_equal(got, sent)
        assert got.flags.aligned
        assert got.ctypes.data % 16 == 0


def test_non_1d_array_keeps_its_shape_via_pickle():
    grid = np.arange(6, dtype=np.int64).reshape(2, 3)
    f = _roundtrip(wire.encode_frame(wire.REPLY_OK, 1, arrays=[grid]))
    assert f.codec == wire.CODEC_PICKLE
    assert f.arrays[0].shape == (2, 3)
    assert np.array_equal(f.arrays[0], grid)


def test_fourth_header_byte_is_written_zero_and_ignored():
    buf = wire.encode_frame(wire.OP_GET_BATCH, 5, {"a": 1}, [np.arange(3.0)])
    body = bytearray(buf[wire._PREFIX.size:])
    assert body[3] == 0
    body[3] = 0xFF  # a peer that still sets the old flags byte
    f = wire.decode_frame(bytes(body))
    assert (f.request_id, f.meta) == (5, {"a": 1})
    assert not hasattr(f, "flags")
    with pytest.raises(TypeError):
        wire.encode_frame(wire.OP_PING, 1, flags=1)


@pytest.mark.parametrize(
    "value, scalar",
    [
        (None, True),
        (0, True),
        (-7, True),
        (2 ** 63 - 1, True),
        (-(2 ** 63), True),
        (2 ** 63, False),  # beyond int64: JSON keeps it exact
        (1.5, True),
        (-0.0, True),
        (float("nan"), True),
        (float("inf"), True),
        (True, False),  # a bool is never folded into int
        ("x", False),
    ],
)
def test_scalar_codec_roundtrip_matrix(value, scalar):
    frames = [
        wire.encode_frame(wire.OP_GET, 9, {"key": 2.5, "default": value}),
        wire.encode_frame(wire.OP_INSERT, 9, {"key": 2.5, "value": value}),
        wire.encode_frame(wire.REPLY_OK, 9, *wire.encode_result(value)),
    ]
    for buf, field in zip(frames, ("default", "value", "v")):
        f = _roundtrip(buf)
        assert (f.codec == wire.CODEC_SCALAR) is scalar
        assert len(buf) == 40 or not scalar
        got = f.meta[field]
        assert type(got) is type(value)
        assert repr(got) == repr(value)  # -0.0 and nan included
    assert repr(wire.decode_result(f)) == repr(value)


def test_scalar_codec_needs_bare_operands():
    lo_hi = _roundtrip(wire.encode_frame(wire.OP_RANGE, 1, {"lo": 1.0, "hi": 2.0}))
    assert (lo_hi.codec, lo_hi.meta) == (wire.CODEC_SCALAR, {"lo": 1.0, "hi": 2.0})
    key = _roundtrip(wire.encode_frame(wire.OP_DELETE, 1, {"key": 1.0}))
    assert (key.codec, key.meta) == (wire.CODEC_SCALAR, {"key": 1.0})
    # A trace context, or a reply carrying spans, is more than two slots.
    traced = {"key": 1.0, "default": None, "trace": ["t", "s"]}
    assert _roundtrip(wire.encode_frame(wire.OP_GET, 1, traced)).meta == traced
    spans = {"r": "py", "v": 3, "spans": [{"name": "net.request"}]}
    assert _roundtrip(wire.encode_frame(wire.REPLY_OK, 1, spans)).meta == spans
    # A scalar payload on a kind with no scalar form is undecodable.
    body = bytearray(wire.encode_frame(wire.OP_GET, 1, {"key": 1.0})[10:])
    body[1] = wire.OP_PING
    with pytest.raises(FrameError, match="undecodable"):
        wire.decode_frame(bytes(body))


def test_version_1_frame_is_refused():
    body = bytearray(wire.encode_frame(wire.OP_GET, 1, {"key": 1.0})[10:])
    assert body[0] == wire.PROTOCOL_VERSION == 2
    body[0] = 1
    with pytest.raises(FrameError, match="version 1"):
        wire.decode_frame(bytes(body))
