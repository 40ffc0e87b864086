"""Shared-memory lane mechanics: layout, growth, attachment, lifetime."""

import numpy as np
import pytest

from repro import codec
from repro.cluster import ShmLane, attach_lane


@pytest.fixture
def lane():
    lane = ShmLane(capacity=4096)
    yield lane
    lane.close()


class TestWriteRead:
    def test_round_trip_single_array(self, lane):
        arr = np.arange(100, dtype=np.float64)
        descrs = lane.write([arr])
        (back,) = lane.read(descrs)
        assert back.dtype == np.float64
        assert back.tolist() == arr.tolist()

    def test_round_trip_mixed_dtypes_alignment(self, lane):
        arrays = [
            np.arange(7, dtype=np.int64),
            np.arange(5, dtype=np.float64) / 3.0,
            np.asarray([1, 0, 1, 1], dtype=np.uint8),
            np.arange(3, dtype=np.int32),
        ]
        descrs = lane.write(arrays)
        for descr, want in zip(descrs, arrays):
            assert descr[2] % 16 == 0  # every array 16-byte aligned
        back = lane.read(descrs)
        for got, want in zip(back, arrays):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()

    def test_reads_are_views_not_copies(self, lane):
        descrs = lane.write([np.asarray([1.0, 2.0])])
        first = lane.read(descrs)[0]
        lane.write([np.asarray([9.0, 8.0])])
        assert first.tolist() == [9.0, 8.0]  # same memory, by design

    def test_object_dtype_rejected(self, lane):
        bad = np.empty(2, dtype=object)
        with pytest.raises(ValueError, match="object"):
            lane.write([bad])

    def test_overflow_raises(self, lane):
        with pytest.raises(ValueError, match="overflow"):
            lane.write([np.zeros(4096, dtype=np.float64)])

    def test_non_1d_rejected_with_the_codec_message(self, lane):
        with pytest.raises(ValueError, match="only 1-D non-object arrays"):
            lane.write([np.zeros((2, 3))])

    def test_required_bytes_accounts_alignment(self):
        arrays = [np.zeros(1, dtype=np.uint8), np.zeros(1, dtype=np.float64)]
        need = codec.packed_size(arrays)
        assert need == 16 + 8  # second array starts at the next 16B boundary


class TestGrowth:
    def test_ensure_grows_and_renames(self):
        lane = ShmLane(capacity=1024)
        try:
            old_name = lane.name
            assert lane.ensure(512) is False
            assert lane.name == old_name
            assert lane.ensure(100_000) is True
            assert lane.name != old_name
            assert lane.capacity >= 100_000
            big = np.arange(12_000, dtype=np.float64)
            (back,) = lane.read(lane.write([big]))
            assert back.tolist() == big.tolist()
        finally:
            lane.close()

    def test_only_owner_may_grow(self):
        lane = ShmLane(capacity=1024)
        try:
            peer = attach_lane(lane.name)
            with pytest.raises(ValueError, match="owning"):
                peer.ensure(10_000)
            peer.close()
        finally:
            lane.close()


class TestAttachment:
    def test_peer_sees_owner_writes(self):
        lane = ShmLane(capacity=2048)
        try:
            descrs = lane.write([np.asarray([3.0, 1.0, 4.0])])
            peer = attach_lane(lane.name)
            (back,) = peer.read(descrs)
            assert back.tolist() == [3.0, 1.0, 4.0]
            peer.close()  # non-owner close must not unlink...
            again = attach_lane(lane.name)  # ...so re-attach still works
            again.close()
        finally:
            lane.close()

    def test_close_idempotent_and_unlinks(self):
        lane = ShmLane(capacity=1024)
        name = lane.name
        lane.close()
        lane.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            attach_lane(name)
