"""The connection pump's promises: chunking-proof parsing, one flush and
one write per segment, an exact in-flight bound, plain numbers on the wire."""

import asyncio

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import open_engine
from repro.net import AsyncNetClient, NetServer, serve_tcp
from repro.net import frame as wire
from repro.net.errors import FrameCorruptError, FrameError
from repro.serve.server import Server

KEYS = np.sort(np.random.default_rng(21).uniform(0, 1e9, 5_000))
VALUES = np.arange(KEYS.size, dtype=np.int64)

_NUMBER = st.one_of(
    st.none(),
    st.integers(-(2 ** 63), 2 ** 63 - 1),
    st.floats(allow_nan=False),
)
_FRAME = st.one_of(
    st.builds(
        lambda k, d: wire.encode_frame(wire.OP_GET, 1, {"key": k, "default": d}),
        st.floats(allow_nan=False), _NUMBER,
    ),
    st.builds(lambda v: wire.encode_frame(wire.REPLY_OK, 2, {"r": "py", "v": v}),
              _NUMBER),
    st.builds(lambda n: wire.encode_frame(wire.OP_GET_BATCH, 3, {"default": -1},
                                          [np.arange(n, dtype=np.float64)]),
              st.integers(0, 40)),
    st.builds(lambda s: wire.encode_frame(wire.REPLY_OK, 4, {"v": s}),
              st.lists(st.integers(0, 9), max_size=3)),
)


def _events(parser, position):
    """Drain ``parser``: one comparable tuple per frame, corrupt frame or
    fatal error, each with the stream offset it ended at."""
    out = []
    while True:
        try:
            f = parser.next()
        except FrameCorruptError:
            out.append(("corrupt", position()))
            continue
        except FrameError:
            out.append(("fatal", position()))
            return out, True
        if f is None:
            return out, False
        out.append((f.kind, f.request_id, f.codec, repr(f.meta),
                    [a.tolist() for a in f.arrays], f.wire_bytes, position()))


@settings(max_examples=150, deadline=None)
@given(
    frames=st.lists(st.tuples(_FRAME, st.booleans()), max_size=8),
    garbage=st.booleans(),
    cuts=st.lists(st.integers(0, 4096), max_size=24),
)
def test_any_chunking_parses_like_whole_frames(frames, garbage, cuts):
    bufs = []
    for buf, corrupt in frames:
        if corrupt:
            buf = buf[:-1] + bytes([buf[-1] ^ 0xFF])  # CRC must reject
        bufs.append(buf)
    if garbage:
        bufs.append(b"GET / HTTP/1.1\r\n")  # bad magic: fatal where it starts
    # Reference: every frame decoded whole, each by a parser of its own.
    expected, offset = [], 0
    for buf in bufs:
        whole = wire.FrameParser()
        whole.feed(buf)
        events, _ = _events(whole, lambda: offset + whole.consumed)
        expected += events
        offset += whole.consumed
    stream = b"".join(bufs)
    edges = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})
    parser, got = wire.FrameParser(), []
    for lo, hi in zip(edges, edges[1:]):
        parser.feed(stream[lo:hi])
        events, fatal = _events(parser, lambda: parser.consumed)
        got += events
        if fatal:
            break
    assert got == expected


def test_one_segment_of_scalar_frames_is_one_flush_and_one_write():
    async def scenario():
        net = await serve_tcp(KEYS, VALUES, n_shards=2)
        reader, writer = await asyncio.open_connection(*net.address)
        try:
            writer.write(b"".join(
                wire.encode_frame(wire.OP_GET, i + 1, {"key": float(KEYS[i])})
                for i in range(32)
            ))
            replies = [await wire.read_frame(reader) for _ in range(32)]
            assert {f.request_id: wire.decode_result(f) for f in replies} == {
                i + 1: int(VALUES[i]) for i in range(32)
            }
            assert all(f.codec == wire.CODEC_SCALAR for f in replies)
            batcher = net.server.stats()["batcher"]
            assert batcher["flushes"] == batcher["batches"]["get"] == 1
            assert batcher["max_batch_observed"] == 32
            # Frames per syscall is an operator-visible number.
            st = net.net_stats()
            assert (st["frames_in"], st["reads_in"]) == (32, 1)
            assert (st["frames_out"], st["writes_out"]) == (32, 1)
        finally:
            writer.close()
            await writer.wait_closed()
            await net.close()

    asyncio.run(scenario())


def test_max_inflight_is_an_exact_bound_that_starves_nobody():
    async def scenario():
        srv = Server(open_engine(KEYS, VALUES, n_shards=2))
        live = peak = 0

        async def counting_get(key, default=None, _get=srv.get):
            nonlocal live, peak
            live += 1
            peak = max(peak, live)
            try:
                return await _get(key, default)
            finally:
                live -= 1

        srv.get = counting_get
        async with NetServer(srv, max_inflight=4) as net:
            # 64 scalar frames pipelined in one write (a client would
            # coalesce these gets into one frame).
            reader, writer = await asyncio.open_connection(*net.address)
            try:
                writer.write(b"".join(
                    wire.encode_frame(wire.OP_GET, i + 1, {"key": float(KEYS[i])})
                    for i in range(64)
                ))
                replies = [await wire.read_frame(reader) for _ in range(64)]
                assert {f.request_id: wire.decode_result(f) for f in replies} == {
                    i + 1: int(VALUES[i]) for i in range(64)
                }
            finally:
                writer.close()
                await writer.wait_closed()
            assert peak == 4
            assert net.server.stats()["batcher"]["max_batch_observed"] == 4

    asyncio.run(scenario())


def test_numpy_scalars_travel_as_plain_numbers_not_pickle(monkeypatch):
    codecs = []

    def spying(kind, *args, _encode=wire.encode_frame, **kwargs):
        buf = _encode(kind, *args, **kwargs)
        codecs.append((kind, wire.decode_frame(buf[10:]).codec))
        return buf

    async def scenario():
        net = await serve_tcp(KEYS, VALUES, n_shards=2)
        c = await AsyncNetClient(*net.address).connect()
        monkeypatch.setattr(wire, "encode_frame", spying)
        try:
            await c.insert(np.float64(0.5), np.int64(5))
            assert await c.get(0.5) == 5
            assert await c.get(-1.0, default=np.int64(-7)) == -7
            assert await c.get(-1.0, default=np.float32(0.25)) == 0.25
        finally:
            monkeypatch.undo()
            await c.close()
            await net.close()

    asyncio.run(scenario())
    sent = [codec for kind, codec in codecs if kind < wire.REPLY_OK]
    # The insert is a scalar frame; every get, even a lone one, is a key
    # batch whose default stays with its caller.
    assert sent == [wire.CODEC_SCALAR] + [wire.CODEC_ARRAYS] * 3
