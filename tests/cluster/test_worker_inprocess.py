"""The worker's dispatch machinery, driven in-process.

The subprocess suites prove the end-to-end behavior; this file exercises
``_ShardServer`` / ``_dispatch`` directly (no fork) so the protocol's
branches — replies in the worker's own reply lane, its growth, lane
re-attachment, per-verb errors — are pinned at unit granularity.
"""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.cluster.shm import ShmLane, attach_lane
from repro.cluster.worker import _dispatch, _ShardServer
from repro.core.errors import InvalidParameterError
from repro.core.fiting_tree import FITingTree

_SERVERS = []


@pytest.fixture(autouse=True)
def close_servers():
    """Unlink every server's reply lane after each test."""
    yield
    while _SERVERS:
        _SERVERS.pop().close_lanes()


@pytest.fixture
def req():
    """The parent's request lane (a worker owns its reply lane)."""
    lane = ShmLane(capacity=1 << 16)
    yield lane
    lane.close()


def lanes_meta(req, **meta):
    """A batch request's ``meta``: the request lane's name plus the
    verb's keys."""
    return {"req": req.name, **meta}


def make_server(keys=None, lo=None, hi=None, **kwargs):
    kwargs.setdefault("error", 32)
    kwargs.setdefault("buffer_capacity", 8)
    index = FITingTree(keys, **kwargs)
    server = _ShardServer(index.to_state(), lo, hi)
    _SERVERS.append(server)
    return server


class TestVerbs:
    def test_get_batch_all_hits_skips_mask(self, req):
        server = make_server(np.arange(100, dtype=np.float64))
        descrs = req.write([np.asarray([3.0, 7.0])])
        frame = ("get_batch", lanes_meta(req), descrs)
        kind, version, meta, reply_descrs = _dispatch(server, frame)
        assert kind == "ok" and version == server.index.version
        assert meta == {"resp": server.resp.name}  # no spans unless traced
        (values,) = server.resp.read(reply_descrs)  # all-hit fast shape: no mask
        assert values.tolist() == [3, 7]

    def test_get_batch_misses_carry_mask(self, req):
        server = make_server(np.arange(100, dtype=np.float64))
        descrs = req.write([np.asarray([3.0, 1e9])])
        _, _, meta, reply_descrs = _dispatch(
            server, ("get_batch", lanes_meta(req), descrs)
        )
        assert meta == {"resp": server.resp.name}
        _values, mask = server.resp.read(reply_descrs)
        assert mask.view(np.bool_).tolist() == [True, False]

    def test_get_batch_object_payload_pickle_fallback(self, req):
        """There is none: the shard refuses a payload its dtype cannot
        hold, so a get always answers through the lane — from an emptied
        shard too."""
        server = make_server(np.arange(20, dtype=np.float64))
        with pytest.raises(InvalidParameterError):
            server.index.insert(3.5, ("not", "numeric"))
        server.index.delete_batch(np.arange(20, dtype=np.float64))
        assert server.index.n_pages == 0
        descrs = req.write([np.asarray([3.5, 4.0])])
        _, _, meta, reply_descrs = _dispatch(
            server, ("get_batch", lanes_meta(req), descrs)
        )
        assert meta == {"resp": server.resp.name}
        values, mask = server.resp.read(reply_descrs)
        assert values.dtype == np.int64
        assert mask.view(np.bool_).tolist() == [False, False]

    def test_insert_then_read_roundtrip(self, req):
        server = make_server(np.arange(10, dtype=np.float64))
        keys = np.asarray([2.5, 7.5])
        values = np.asarray([100, 101], dtype=np.int64)
        kind, version, meta, _ = _dispatch(
            server,
            ("insert_batch", lanes_meta(req), req.write([keys, values])),
        )
        assert kind == "ok" and version == server.index.version
        assert meta == {}
        assert server.index.get(2.5) == 100

    def test_range_batch_shm_and_counts(self, req):
        server = make_server(np.arange(100, dtype=np.float64))
        los = np.asarray([10.0, 90.0])
        his = np.asarray([12.0, 200.0])
        descrs = req.write([los, his])
        meta = lanes_meta(req, include_lo=True, include_hi=True)
        _, _, meta, reply_descrs = _dispatch(
            server, ("range_batch", meta, descrs)
        )
        assert meta == {"resp": server.resp.name}
        counts, all_keys, _values = server.resp.read(reply_descrs)
        assert counts.tolist() == [3, 10]
        assert all_keys[:3].tolist() == [10.0, 11.0, 12.0]

    def test_range_reply_grows_the_reply_lane(self, req):
        server = make_server(np.arange(2_000, dtype=np.float64))
        server.resp.close()
        server.resp = ShmLane(capacity=256)  # too small for the reply rows
        old = server.resp.name
        descrs = req.write([np.asarray([0.0]), np.asarray([1_999.0])])
        meta = lanes_meta(req, include_lo=True, include_hi=True)
        _, _, meta, reply_descrs = _dispatch(server, ("range_batch", meta, descrs))
        # The worker grew its lane to the reply and names the new block;
        # the old one is unlinked, so the parent re-attaches by name.
        assert meta == {"resp": server.resp.name} and meta["resp"] != old
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=old)
        peer = attach_lane(meta["resp"])
        try:
            counts, keys, values = peer.read(reply_descrs)
            assert counts.tolist() == [2_000]
            assert np.array_equal(keys, np.arange(2_000, dtype=np.float64))
            assert np.array_equal(values, np.arange(2_000))
            del counts, keys, values
        finally:
            peer.close()

    def test_stats_warm_and_unknown_verb(self, req):
        server = make_server(np.arange(50, dtype=np.float64))
        kind, _, meta, _ = _dispatch(server, ("stats", {}, ()))
        assert kind == "ok" and meta["result"]["n"] == 50
        kind, _, meta, descrs = _dispatch(server, ("warm", {}, ()))
        assert kind == "ok" and meta == {} and not descrs
        with pytest.raises(ValueError, match="unknown verb"):
            _dispatch(server, ("explode", {}, ()))

    def test_traced_get_batch_carries_spans(self, req):
        server = make_server(np.arange(100, dtype=np.float64), lo=0.0, hi=100.0)
        descrs = req.write([np.asarray([3.0, 7.0, 1e9])])
        meta = lanes_meta(req, trace=(11, 22))
        _, _, meta, reply_descrs = _dispatch(server, ("get_batch", meta, descrs))
        assert set(meta) == {"resp", "spans"}
        (span,) = meta["spans"]
        assert span["name"] == "worker.compute"
        assert (span["trace_id"], span["parent_id"]) == (11, 22)
        assert span["attrs"]["n"] == 3
        values, mask = server.resp.read(reply_descrs)  # the answer is unchanged
        assert mask.view(np.bool_).tolist() == [True, True, False]

    def test_traced_write_replies_carry_no_spans(self, req):
        server = make_server(np.arange(10, dtype=np.float64), lo=0.0, hi=10.0)
        descrs = req.write([np.asarray([2.5]), np.asarray([7], dtype=np.int64)])
        _, _, meta, _ = _dispatch(
            server, ("insert_batch", lanes_meta(req, trace=(1, 2)), descrs)
        )
        assert meta == {}
        assert server.index.get(2.5) == 7

    def test_validate_checks_cut_range(self):
        server = make_server(np.arange(50, dtype=np.float64), lo=0.0, hi=40.0)
        with pytest.raises(InvalidParameterError, match="at/above cut"):
            server.validate()
        ok = make_server(np.arange(50, dtype=np.float64), lo=0.0, hi=60.0)
        ok.validate()

    def test_lane_reattach_on_rename(self, req):
        server = make_server(np.arange(10, dtype=np.float64))
        first = server.lane("req", req.name)
        assert server.lane("req", req.name) is first  # cached by name
        replacement = ShmLane(capacity=4096)
        try:
            second = server.lane("req", replacement.name)
            assert second is not first
        finally:
            replacement.close()
        server.close_lanes()

    def test_delete_misses_answer_values_and_found(self, req):
        server = make_server(np.arange(5, dtype=np.float64))
        descrs = req.write([np.asarray([4.0, 77.0, 0.0])])
        meta = lanes_meta(req, missing="ignore")
        _, _, meta, reply_descrs = _dispatch(server, ("delete_batch", meta, descrs))
        assert meta == {"resp": server.resp.name}  # a miss is a mask bit
        values, found = server.resp.read(reply_descrs)
        assert values.dtype == np.int64
        assert found.view(np.bool_).tolist() == [True, False, True]
        assert values[[0, 2]].tolist() == [4, 0]
        assert len(server.index) == 3
