"""The in-flight codec: one layout for lanes and frames, pinned by property."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codec
from repro.cluster import ShmLane
from repro.core.errors import InvalidParameterError
from repro.net import frame as wire

#: Every numeric/bool scalar type NumPy has, in both byte orders.
DTYPES = sorted(
    {
        np.dtype(t).newbyteorder(order).str
        for t in np.sctypeDict.values()
        if np.dtype(t).kind in "biufc"
        for order in "<>"
    }
)


@st.composite
def array_lists(draw):
    """0-6 one-dimensional arrays (zero-length included) of any ``DTYPES``."""
    arrays = []
    for _ in range(draw(st.integers(0, 6))):
        dtype = np.dtype(draw(st.sampled_from(DTYPES)))
        raw = draw(st.binary(max_size=40 * dtype.itemsize))
        raw = raw[: len(raw) - len(raw) % dtype.itemsize]
        arrays.append(np.frombuffer(raw, dtype=dtype))
    return arrays


def assert_same(got, sent):
    assert len(got) == len(sent)
    for g, s in zip(got, sent):
        assert g.dtype == s.dtype and g.shape == s.shape
        assert g.tobytes() == s.tobytes()  # bit-equal, NaN payloads included


def frame_data_region(body):
    """``(relative descriptors, data bytes)`` of a ``CODEC_ARRAYS`` body:
    its table read by hand, the region placed by ``codec.layout``."""
    pos = wire._BODY_HEADER.size
    pos += 4 + struct.unpack_from("<I", body, pos)[0]
    (n,) = struct.unpack_from("<H", body, pos)
    pos += 2
    specs = []
    for _ in range(n):
        dlen, count = struct.unpack_from("<BQ", body, pos)
        pos += 9
        specs.append((np.dtype(body[pos:pos + dlen].decode("ascii")), count))
        pos += dlen
    start = -(-pos // 16) * 16  # the region starts 16-byte aligned
    descriptors = [
        (dtype.str, count, offset - start)
        for dtype, count, offset in codec.layout(specs, start)
    ]
    return descriptors, body[start:]


@given(array_lists())
def test_round_trip_through_a_bytearray(arrays):
    buf = bytearray(codec.packed_size(arrays))
    descriptors = codec.pack_into(buf, arrays)
    assert_same(codec.unpack(buf, descriptors), arrays)
    assert all(offset % 16 == 0 for _, _, offset in descriptors)
    if arrays:
        dtype, count, offset = descriptors[-1]
        # packed_size is the offset one past the last byte written.
        assert offset + count * np.dtype(dtype).itemsize == len(buf)
    else:
        assert len(buf) == 0


@given(array_lists(), st.integers(0, 70))
def test_base_shifts_the_layout_to_the_next_aligned_offset(arrays, base):
    aligned = -(-base // 16) * 16
    buf = bytearray(aligned + codec.packed_size(arrays))
    descriptors = codec.pack_into(buf, arrays, base)
    assert_same(codec.unpack(buf, descriptors), arrays)
    assert descriptors == [
        (d, n, aligned + offset)
        for d, n, offset in codec.pack_into(bytearray(len(buf)), arrays)
    ]


@settings(deadline=None)
@given(array_lists())
def test_a_lane_and_a_frame_are_byte_compatible(arrays):
    lane = ShmLane(capacity=4096)
    try:
        lane_descriptors = lane.write(arrays)
        assert_same(lane.read(lane_descriptors), arrays)
        size = codec.packed_size(arrays)
        lane_data = bytes(lane._shm.buf[:size])
    finally:
        lane.close()
    buf = wire.encode_frame(wire.REPLY_OK, 1, {"k": "v"}, arrays)
    body = buf[wire._PREFIX.size:]
    frame = wire.decode_frame(body)
    assert_same(frame.arrays, arrays)
    assert frame.codec == wire.CODEC_ARRAYS
    descriptors, data = frame_data_region(body)
    assert descriptors == lane_descriptors
    assert data == lane_data


def test_unpackable_arrays_are_refused_with_one_error():
    for bad in (np.empty(2, dtype=object), np.zeros((2, 3)), np.float64(1.0)):
        for call in (
            lambda: codec.packed_size([bad]),
            lambda: codec.pack_into(bytearray(64), [bad]),
        ):
            with pytest.raises(ValueError, match="only 1-D non-object arrays"):
                call()
    with pytest.raises(ValueError, match="overflow"):
        codec.pack_into(bytearray(8), [np.zeros(2)])


@st.composite
def pair_lists(draw):
    """1-5 ``(keys, values)`` rows of one value dtype, empty rows included."""
    dtype = np.dtype(draw(st.sampled_from(["<i8", "<f8", "<u2", "?"])))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 6))
        keys = np.asarray(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
        rows.append((keys.astype(np.float64), np.arange(n).astype(dtype)))
    return rows


@given(pair_lists())
def test_split_pairs_inverts_join_pairs(pairs):
    counts, keys, values = codec.join_pairs(pairs)
    assert counts.dtype == np.int64 and counts.tolist() == [k.size for k, _ in pairs]
    back = codec.split_pairs(counts, keys, values)
    assert len(back) == len(pairs)
    for (gk, gv), (k, v) in zip(back, pairs):
        assert_same([gk, gv], [k, v])


def test_join_pairs_has_no_flat_form_for_mixed_or_object_values():
    keys = np.arange(2.0)
    ints, floats = np.arange(2), np.arange(2.0)
    objects = np.asarray([None, "x"], dtype=object)
    assert codec.join_pairs([]) is None
    assert codec.join_pairs([(keys, ints), (keys, floats)]) is None
    assert codec.join_pairs([(keys, objects)]) is None
    assert codec.join_pairs([(keys, ints), (keys, objects)]) is None
    # ...and the wire refuses such a list: it has no frame form either.
    for rows in ([(keys, ints), (keys, floats)], [(keys, objects)]):
        with pytest.raises(InvalidParameterError, match="no wire form"):
            wire.encode_frame(wire.REPLY_OK, 1, *wire.encode_result(rows))
