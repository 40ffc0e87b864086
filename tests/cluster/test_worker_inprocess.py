"""The worker's dispatch machinery, driven in-process.

The subprocess suites prove the end-to-end behavior; this file exercises
``_ShardServer`` / ``_dispatch`` directly (no fork) so the protocol's
branches — shm replies, pickle fallbacks, lane re-attachment, per-verb
errors — are pinned at unit granularity.
"""

import numpy as np
import pytest

from repro.cluster.shm import ShmLane
from repro.cluster.worker import _MISS, _dispatch, _ShardServer
from repro.core.errors import InvalidParameterError
from repro.core.fiting_tree import FITingTree


@pytest.fixture
def lanes():
    req, resp = ShmLane(capacity=1 << 16), ShmLane(capacity=1 << 16)
    yield req, resp
    req.close()
    resp.close()


def lanes_meta(req, resp, **meta):
    """A batch request's ``meta``: the lane names plus the verb's keys."""
    return {"req": req.name, "resp": resp.name, **meta}


def make_server(keys=None, lo=None, hi=None, **kwargs):
    kwargs.setdefault("error", 32)
    kwargs.setdefault("buffer_capacity", 8)
    index = FITingTree(keys, **kwargs)
    return _ShardServer(index.to_state(), lo, hi)


class TestVerbs:
    def test_get_batch_all_hits_skips_mask(self, lanes):
        req, resp = lanes
        server = make_server(np.arange(100, dtype=np.float64))
        descrs = req.write([np.asarray([3.0, 7.0])])
        frame = ("get_batch", lanes_meta(req, resp), descrs)
        kind, version, meta, reply_descrs = _dispatch(server, frame)
        assert kind == "ok" and version == server.index.version
        assert meta == {"via": "shm"}  # no spans/delta unless asked for
        (values,) = resp.read(reply_descrs)  # all-hit fast shape: no mask
        assert values.tolist() == [3, 7]

    def test_get_batch_misses_carry_mask(self, lanes):
        req, resp = lanes
        server = make_server(np.arange(100, dtype=np.float64))
        descrs = req.write([np.asarray([3.0, 1e9])])
        _, _, meta, reply_descrs = _dispatch(
            server, ("get_batch", lanes_meta(req, resp), descrs)
        )
        assert meta["via"] == "shm"
        _values, mask = resp.read(reply_descrs)
        assert mask.view(np.bool_).tolist() == [True, False]

    def test_get_batch_object_payload_pickle_fallback(self, lanes):
        req, resp = lanes
        server = make_server(np.arange(20, dtype=np.float64))
        server.index.insert(3.5, ("not", "numeric"))  # buffered object
        descrs = req.write([np.asarray([3.5, 4.0, 99.0])])
        _, _, meta, reply_descrs = _dispatch(
            server, ("get_batch", lanes_meta(req, resp), descrs)
        )
        assert meta["via"] == "pickle" and not reply_descrs
        values = meta["values"]
        assert values[0] == ("not", "numeric") and values[1] == 4
        assert meta["found"].tolist() == [True, True, False]

    def test_insert_then_read_roundtrip(self, lanes):
        req, resp = lanes
        server = make_server(np.arange(10, dtype=np.float64))
        keys = np.asarray([2.5, 7.5])
        values = np.asarray([100, 101], dtype=np.int64)
        kind, version, meta, _ = _dispatch(
            server,
            ("insert_batch", lanes_meta(req, resp), req.write([keys, values])),
        )
        assert kind == "ok" and version == server.index.version
        assert meta == {}
        assert server.index.get(2.5) == 100

    def test_insert_pickled_values(self, lanes):
        req, resp = lanes
        server = make_server(np.arange(10, dtype=np.float64))
        descrs = req.write([np.asarray([4.25])])
        _dispatch(
            server,
            ("insert_batch", lanes_meta(req, resp, values=[123]), descrs),
        )
        assert server.index.get(4.25) == 123

    def test_range_batch_shm_and_counts(self, lanes):
        req, resp = lanes
        server = make_server(np.arange(100, dtype=np.float64))
        los = np.asarray([10.0, 90.0])
        his = np.asarray([12.0, 200.0])
        descrs = req.write([los, his])
        meta = lanes_meta(req, resp, include_lo=True, include_hi=True)
        _, _, meta, reply_descrs = _dispatch(
            server, ("range_batch", meta, descrs)
        )
        assert meta == {"via": "shm"}
        counts, all_keys, _values = resp.read(reply_descrs)
        assert counts.tolist() == [3, 10]
        assert all_keys[:3].tolist() == [10.0, 11.0, 12.0]

    def test_range_overflow_pickle_fallback(self):
        req = ShmLane(capacity=1 << 16)
        resp = ShmLane(capacity=256)  # too small for the reply rows
        try:
            server = make_server(np.arange(2_000, dtype=np.float64))
            descrs = req.write([np.asarray([0.0]), np.asarray([1_999.0])])
            meta = lanes_meta(req, resp, include_lo=True, include_hi=True)
            _, _, meta, _ = _dispatch(server, ("range_batch", meta, descrs))
            assert meta["via"] == "pickle"
            (keys, values), = meta["pairs"]
            assert keys.size == 2_000
            # What would have fit: the parent grows the lane to this.
            assert meta["need"] > resp.capacity
        finally:
            req.close()
            resp.close()

    def test_stats_warm_and_unknown_verb(self, lanes):
        req, resp = lanes
        server = make_server(np.arange(50, dtype=np.float64))
        kind, _, meta, _ = _dispatch(server, ("stats", {}, ()))
        assert kind == "ok" and meta["result"]["n"] == 50
        kind, _, meta, descrs = _dispatch(server, ("warm", {}, ()))
        assert kind == "ok" and meta == {} and not descrs
        with pytest.raises(ValueError, match="unknown verb"):
            _dispatch(server, ("explode", {}, ()))

    def test_traced_profiled_get_batch_carries_spans_and_delta(self, lanes):
        req, resp = lanes
        server = make_server(np.arange(100, dtype=np.float64), lo=0.0, hi=100.0)
        descrs = req.write([np.asarray([3.0, 7.0, 1e9])])
        meta = lanes_meta(req, resp, trace=(11, 22), profile=True)
        _, _, meta, reply_descrs = _dispatch(server, ("get_batch", meta, descrs))
        (span,) = meta["spans"]
        assert span["name"] == "worker.compute"
        assert (span["trace_id"], span["parent_id"]) == (11, 22)
        assert span["attrs"]["n"] == 3
        assert (meta["delta"]["v"], meta["delta"]["n"]) == ("get", 3)
        values, mask = resp.read(reply_descrs)  # the answer is unchanged
        assert mask.view(np.bool_).tolist() == [True, True, False]

    def test_profiled_insert_batch_carries_delta_only(self, lanes):
        req, resp = lanes
        server = make_server(np.arange(10, dtype=np.float64), lo=0.0, hi=10.0)
        descrs = req.write([np.asarray([2.5]), np.asarray([7], dtype=np.int64)])
        _, _, meta, _ = _dispatch(
            server, ("insert_batch", lanes_meta(req, resp, profile=True), descrs)
        )
        assert set(meta) == {"delta"} and meta["delta"]["v"] == "insert"
        assert server.index.get(2.5) == 7

    def test_validate_checks_cut_range(self):
        server = make_server(np.arange(50, dtype=np.float64), lo=0.0, hi=40.0)
        with pytest.raises(InvalidParameterError, match="at/above cut"):
            server.validate()
        ok = make_server(np.arange(50, dtype=np.float64), lo=0.0, hi=60.0)
        ok.validate()

    def test_lane_reattach_on_rename(self, lanes):
        req, resp = lanes
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

    def test_miss_sentinel_is_private(self, lanes):
        _req, resp = lanes
        server = make_server(np.arange(5, dtype=np.float64))
        result = server.index.get_batch(np.asarray([0.0, 77.0]), _MISS)
        assert result[1] is _MISS
        meta, descrs = server.encode_get_reply(resp, result)
        values, found = resp.read(descrs)  # ...and never leaves the worker
        assert meta == {"via": "shm"}
        assert (values.tolist(), found.tolist()) == ([0, 0], [1, 0])
