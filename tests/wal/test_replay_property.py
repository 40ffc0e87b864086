"""Property: replaying any committed prefix of a random CRUD history
through the WAL equals applying that prefix directly.

This is the recovery contract stated operationally: a crash after the
k-th group commit must recover to exactly the state a never-crashed
engine reaches after the k-th verb — for every k and every history. The
test materializes the crash by truncating a copy of the log at each
commit boundary and recovering from it.
"""

import os
import shutil
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import open_engine
from repro.core.errors import KeyNotFoundError
from repro.engine import ShardedEngine
from repro.wal import OP_COMMIT, load_manifest
from repro.wal.format import check_file_header, iter_records

BASE = np.sort(np.random.default_rng(3).uniform(0, 1000.0, 400))

_key = st.integers(0, 127).map(lambda i: float(i) * 9.7)
_batch = st.lists(_key, min_size=1, max_size=8, unique=True)


@st.composite
def _histories(draw):
    n_ops = draw(st.integers(1, 6))
    out = []
    for _ in range(n_ops):
        if draw(st.booleans()):
            keys = draw(_batch)
            values = draw(
                st.lists(
                    st.integers(-(2**40), 2**40),
                    min_size=len(keys),
                    max_size=len(keys),
                )
            )
            out.append(("insert", keys, values))
        else:
            # Strict deletes mostly miss somewhere (the key grid is
            # sparse until inserts fill it): one shard's chunk raises
            # while the other's applies, and replay must land where the
            # live engine did.
            verb = "delete" if draw(st.booleans()) else "strict_delete"
            out.append((verb, draw(_batch), None))
    return out


def _apply(engine, history):
    for verb, keys, values in history:
        if verb == "insert":
            engine.insert_batch(
                np.asarray(keys), np.asarray(values, dtype=np.int64)
            )
        elif verb == "delete":
            engine.delete_batch(np.asarray(keys), missing="ignore")
        else:
            try:
                engine.delete_batch(np.asarray(keys))
            except KeyNotFoundError:
                pass


def _commit_boundaries(wal_path):
    """Byte offsets of every committed-prefix end (0 commits included)."""
    with open(wal_path, "rb") as fh:
        buf = fh.read()
    check_file_header(buf)
    from repro.wal.format import FILE_HEADER

    boundaries = [FILE_HEADER.size]
    for rec, end in iter_records(buf):
        if rec.op == OP_COMMIT:
            boundaries.append(end)
    return boundaries


@given(history=_histories(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_replay_of_any_commit_prefix_equals_direct(history, data):
    tmp = tempfile.mkdtemp(prefix="repro-wal-prop-")
    crash = tempfile.mkdtemp(prefix="repro-wal-prop-crash-")
    try:
        engine = open_engine(
            BASE, executor="sharded", n_shards=2, error=64.0,
            durability="wal", data_dir=tmp, wal_sync=False,
        )
        _apply(engine, history)
        engine.close()

        wal_name = load_manifest(tmp)["wal"]
        boundaries = _commit_boundaries(os.path.join(tmp, wal_name))
        # One group commit per verb: the boundary list indexes histories.
        assert len(boundaries) == len(history) + 1
        k = data.draw(
            st.integers(0, len(history)), label="commits survived"
        )

        shutil.rmtree(crash)
        shutil.copytree(tmp, crash)
        with open(os.path.join(crash, wal_name), "r+b") as fh:
            fh.truncate(boundaries[k])
        recovered = open_engine(
            executor="sharded", n_shards=2, error=64.0,
            durability="wal", data_dir=crash, wal_sync=False,
        )
        try:
            twin = ShardedEngine(BASE, n_shards=2, error=64.0)
            _apply(twin, history[:k])
            a, b = recovered.to_states(), twin.to_states()
            assert a["next_rowid"] == b["next_rowid"]
            assert np.array_equal(a["cuts"], b["cuts"])
            for sa, sb in zip(a["shards"], b["shards"]):
                assert set(sa) == set(sb)
                for field in sa:
                    va, vb = sa[field], sb[field]
                    if isinstance(va, np.ndarray):
                        assert np.array_equal(va, vb, equal_nan=True), field
                    else:
                        assert va == vb, field
            probe = np.unique(np.concatenate([BASE, np.arange(128) * 9.7]))
            miss = object()
            assert list(recovered.get_batch(probe, miss)) == list(
                twin.get_batch(probe, miss)
            )
        finally:
            recovered.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(crash, ignore_errors=True)
