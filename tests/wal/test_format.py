"""WAL record codec: round-trips, CRC detection, torn-tail tolerance."""

import struct
import zlib

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.engine import ShardedEngine
from repro.wal import WalStore, load_manifest
from repro.wal.format import (
    FILE_HEADER,
    OP_COMMIT,
    OP_DELETE,
    OP_INSERT,
    check_file_header,
    encode_commit,
    encode_delete,
    encode_insert,
    file_header,
    scan_records,
)


def _log(*chunks):
    return file_header() + b"".join(chunks)


def test_insert_round_trip():
    keys = np.array([1.5, 2.5, 3.5])
    values = np.array([10, 20, 30], dtype=np.int64)
    buf = _log(encode_insert(0, 3, keys, values))
    records, end = scan_records(buf)
    assert end == len(buf)
    (rec,) = records
    assert rec.op == OP_INSERT
    assert rec.lsn == 0
    assert rec.shard == 3
    assert np.array_equal(rec.keys, keys)
    assert np.array_equal(rec.values, values)
    assert rec.values.dtype == np.int64


def test_insert_preserves_value_dtype():
    keys = np.array([1.0])
    values = np.array([2.75], dtype=np.float32)
    buf = _log(encode_insert(7, 0, keys, values))
    (rec,), _ = scan_records(buf)
    assert rec.values.dtype == np.float32
    assert rec.values[0] == np.float32(2.75)


def test_delete_round_trip_both_missing_modes():
    keys = np.array([9.0, 8.0])
    for missing in ("raise", "ignore"):
        buf = _log(encode_delete(1, 2, keys, missing))
        (rec,), _ = scan_records(buf)
        assert rec.op == OP_DELETE
        assert rec.missing == missing
        assert np.array_equal(rec.keys, keys)


def test_retired_op_code_stops_recovery_loudly(tmp_path):
    """An old log holding op code 3 (the retired per-value delete) must
    fail recovery with a typed error naming the op — a silent skip would
    recover a state that never existed."""
    keys = np.arange(8.0)
    store = WalStore(str(tmp_path), sync=False)
    store.initialize(ShardedEngine(keys, n_shards=1).to_states())
    store.close()
    wal_path = tmp_path / load_manifest(str(tmp_path))["wal"]
    # Hand-packed: the encoder for this op no longer exists.
    payload = b"\x03<i8" + struct.pack("<dq", 3.0, 3)
    tail = struct.pack("<IQBBh", len(payload), 0, 3, 0, 0)
    crc = zlib.crc32(tail + payload) & 0xFFFFFFFF
    with open(wal_path, "ab") as fh:
        fh.write(struct.pack("<I", crc) + tail + payload)
        fh.write(encode_commit(1, 8))
    with pytest.raises(InvalidParameterError, match="op 3"):
        WalStore(str(tmp_path), sync=False).recover()


def test_commit_round_trip():
    buf = _log(encode_commit(5, 1234))
    (rec,), _ = scan_records(buf)
    assert rec.op == OP_COMMIT
    assert rec.next_rowid == 1234


def test_object_values_are_rejected():
    with pytest.raises(InvalidParameterError):
        encode_insert(0, 0, np.array([1.0]), np.array(["x"], dtype=object))


def test_crc_corruption_stops_the_scan():
    good = encode_insert(0, 0, np.array([1.0]), np.array([1], dtype=np.int64))
    later = encode_commit(1, 1)
    buf = bytearray(_log(good, later))
    # Flip one payload byte of the first record.
    buf[len(file_header()) + len(good) - 1] ^= 0xFF
    records, end = scan_records(bytes(buf))
    assert records == []
    assert end == len(file_header())


def test_truncated_tail_is_ignored():
    good = encode_insert(0, 0, np.array([1.0]), np.array([1], dtype=np.int64))
    torn = encode_commit(1, 1)[:-3]
    buf = _log(good, torn)
    records, end = scan_records(buf)
    assert len(records) == 1
    assert end == len(file_header()) + len(good)


def test_bad_magic_is_rejected():
    buf = b"NOTAWAL!" + b"\x00" * 8
    with pytest.raises(InvalidParameterError):
        check_file_header(buf)
    # Wrong format version with the right magic must also be rejected.
    magic = FILE_HEADER.unpack_from(file_header())[0]
    bad = FILE_HEADER.pack(magic, 999, 0)
    with pytest.raises(InvalidParameterError):
        check_file_header(bad)


def test_header_is_fixed_width():
    # The record header layout is on-disk ABI; changing it silently
    # would orphan every existing log.
    from repro.wal.format import RECORD_HEADER

    assert RECORD_HEADER.size == struct.calcsize("<IIQBBh")
