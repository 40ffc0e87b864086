"""Binary record codec for the write-ahead log.

On-disk layout (little-endian throughout)::

    file   := file_header record*
    file_header := magic:8s  version:u32  reserved:u32          (16 bytes)
    record := header payload
    header := crc:u32  length:u32  lsn:u64  op:u8  flags:u8  shard:i16
                                                              (20 bytes)

``crc`` is ``zlib.crc32`` over the header *tail* (everything after the
crc field) concatenated with the payload, so a single flipped bit in
either region invalidates the record. ``length`` is the payload byte
count; ``lsn`` is a monotonically increasing log sequence number; ``op``
selects the payload schema below; ``shard`` is the target shard id (or
``-1`` for engine-scoped records such as commits).

Payload schemas per op:

* ``OP_INSERT`` — ``n:u32  dlen:u8  dtype:ascii[dlen]  keys:f64[n]
  values:dtype[n]``
* ``OP_DELETE`` — ``n:u32  keys:f64[n]`` with header flag bit 0 set when
  ``missing="ignore"``
* ``OP_COMMIT`` — ``next_rowid:i64``; a commit seals every record that
  precedes it since the previous commit (the group-commit boundary).

Readers treat the file as valid up to the last record whose CRC checks
out; a torn tail (partial header, short payload, or CRC mismatch) simply
ends the log. Only records covered by a trailing ``OP_COMMIT`` are ever
replayed, so a crash between the data write and the commit write cannot
surface a half-applied batch.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError

#: Magic bytes opening every WAL file.
MAGIC = b"RWAL\x00\x01\x00\x00"

#: On-disk format version stamped into the file header.
FORMAT_VERSION = 1

#: File header: magic, version, reserved.
FILE_HEADER = struct.Struct("<8sII")

#: Record header: crc, payload length, lsn, op, flags, shard.
RECORD_HEADER = struct.Struct("<IIQBBh")

OP_INSERT = 1
OP_DELETE = 2
#: Code 3 (a retired per-value delete no engine verb could emit) is never
#: reassigned: an old log holding it must fail to decode, not replay as
#: something else.
OP_COMMIT = 4

#: Header flag bit set on ``OP_DELETE`` records when ``missing="ignore"``.
FLAG_MISSING_IGNORE = 0x01

_U32 = struct.Struct("<I")
_U8 = struct.Struct("<B")
_I64 = struct.Struct("<q")


@dataclass
class WalRecord:
    """One decoded log record.

    Returns
    -------
    WalRecord
        ``lsn``/``op``/``shard`` mirror the header; ``keys``/``values``
        are numpy arrays for data ops (``values`` / ``missing`` /
        ``next_rowid`` are populated per the op's schema and ``None``
        otherwise).
    """

    lsn: int
    op: int
    shard: int
    keys: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    missing: str = "raise"
    next_rowid: Optional[int] = None


def check_values(values: Any) -> np.ndarray:
    """Validate and contiguify a value payload (numeric/bool dtypes only)."""
    arr = np.ascontiguousarray(values)
    if arr.dtype == object or arr.dtype.hasobject:
        raise InvalidParameterError(
            "durability requires a fixed-width numeric values dtype; "
            "object payloads cannot be logged"
        )
    return arr


def _pack(op: int, shard: int, lsn: int, payload: bytes, flags: int = 0) -> bytes:
    tail = struct.pack("<IQBBh", len(payload), lsn, op, flags, shard)
    crc = zlib.crc32(tail + payload) & 0xFFFFFFFF
    return _U32.pack(crc) + tail + payload


def encode_insert(lsn: int, shard: int, keys: np.ndarray, values: Any) -> bytes:
    """Encode an ``OP_INSERT`` record for ``(keys, values)`` on ``shard``."""
    k = np.ascontiguousarray(keys, dtype=np.float64)
    v = check_values(values)
    dt = v.dtype.str.encode("ascii")
    payload = (
        _U32.pack(k.size) + _U8.pack(len(dt)) + dt + k.tobytes() + v.tobytes()
    )
    return _pack(OP_INSERT, shard, lsn, payload)


def encode_delete(lsn: int, shard: int, keys: np.ndarray, missing: str) -> bytes:
    """Encode an ``OP_DELETE`` record; ``missing`` rides a header flag."""
    k = np.ascontiguousarray(keys, dtype=np.float64)
    flags = FLAG_MISSING_IGNORE if missing == "ignore" else 0
    payload = _U32.pack(k.size) + k.tobytes()
    return _pack(OP_DELETE, shard, lsn, payload, flags=flags)


def encode_commit(lsn: int, next_rowid: int) -> bytes:
    """Encode an ``OP_COMMIT`` record sealing the records before it."""
    return _pack(OP_COMMIT, -1, lsn, _I64.pack(int(next_rowid)))


def decode_record(header: bytes, payload: bytes) -> WalRecord:
    """Decode one record whose CRC has already been verified."""
    _, _, lsn, op, flags, shard = RECORD_HEADER.unpack(header)
    if op == OP_INSERT:
        (n,) = _U32.unpack_from(payload, 0)
        (dlen,) = _U8.unpack_from(payload, 4)
        dtype = np.dtype(payload[5 : 5 + dlen].decode("ascii"))
        off = 5 + dlen
        keys = np.frombuffer(payload, dtype=np.float64, count=n, offset=off)
        off += 8 * n
        values = np.frombuffer(payload, dtype=dtype, count=n, offset=off)
        return WalRecord(lsn, op, shard, keys=keys.copy(), values=values.copy())
    if op == OP_DELETE:
        (n,) = _U32.unpack_from(payload, 0)
        keys = np.frombuffer(payload, dtype=np.float64, count=n, offset=4)
        missing = "ignore" if flags & FLAG_MISSING_IGNORE else "raise"
        return WalRecord(lsn, op, shard, keys=keys.copy(), missing=missing)
    if op == OP_COMMIT:
        (next_rowid,) = _I64.unpack(payload)
        return WalRecord(lsn, op, shard, next_rowid=next_rowid)
    raise InvalidParameterError(f"unknown WAL op {op}")


def file_header() -> bytes:
    """The 16-byte header every WAL file starts with."""
    return FILE_HEADER.pack(MAGIC, FORMAT_VERSION, 0)


def check_file_header(buf: bytes) -> None:
    """Validate a WAL file header, raising ``InvalidParameterError`` if bad."""
    if len(buf) < FILE_HEADER.size:
        raise InvalidParameterError("WAL file too short for header")
    magic, version, _ = FILE_HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise InvalidParameterError("not a WAL file (bad magic)")
    if version != FORMAT_VERSION:
        raise InvalidParameterError(
            f"unsupported WAL format version {version}"
        )


def iter_records(buf: bytes):
    """Yield ``(record, end_offset)`` for every intact record in ``buf``.

    Iteration stops silently at the first truncated or corrupt record —
    that is the torn tail a crash may legitimately leave behind.
    ``end_offset`` is the byte offset just past the yielded record.
    """
    check_file_header(buf)
    off = FILE_HEADER.size
    hsize = RECORD_HEADER.size
    while off + hsize <= len(buf):
        header = buf[off : off + hsize]
        crc, length = struct.unpack_from("<II", header, 0)
        end = off + hsize + length
        if end > len(buf):
            return
        payload = buf[off + hsize : end]
        if zlib.crc32(header[4:] + payload) & 0xFFFFFFFF != crc:
            return
        yield decode_record(header, payload), end
        off = end


def scan_records(buf: bytes) -> Tuple[List[WalRecord], int]:
    """Decode every intact record in ``buf`` (past the file header).

    Parameters
    ----------
    buf : bytes
        Full contents of a WAL file, including the file header.

    Returns
    -------
    tuple of (list of WalRecord, int)
        The records whose CRCs verify, in log order, and the byte offset
        just past the last intact record.
    """
    records: List[WalRecord] = []
    off = FILE_HEADER.size
    for rec, end in iter_records(buf):
        records.append(rec)
        off = end
    return records, off
