"""Length-prefixed CRC'd binary framing for the TCP serving tier.

One frame on the wire is::

    +-------+----------+---------+------------------------------------+
    | magic | body_len |  crc32  |               body                 |
    |  u16  |   u32    |   u32   |  (body_len bytes, crc32 of these)  |
    +-------+----------+---------+------------------------------------+

    body := | version u8 | kind u8 | codec u8 | zero u8 | request_id u64 |
            | payload ... |

    CODEC_SCALAR payload := | tag_a u8 | tag_b u8 | slot_a 8B | slot_b 8B |
            tag 0 = None (slot zero) | 1 = int64 | 2 = float64

    CODEC_ARRAYS payload :=
            | meta_len u32 | meta JSON, absent when the meta is empty |
            | n_arrays u16 | n_arrays x ( dtype_len u8 | count u64 | dtype.str ) |
            | data region: the arrays, as repro.codec packs them |

The 10-byte prefix is framing only; everything semantic — including the
version byte, so the protocol can evolve without touching the prefix —
lives inside the CRC-protected body. A bad magic or over-limit length
means the stream is garbage (:class:`~repro.net.errors.FrameError`, fatal
to the connection); a CRC mismatch means exactly one frame was damaged
(:class:`~repro.net.errors.FrameCorruptError`) and the stream stays
synchronized because the length prefix still framed it. These checks
live in :class:`FrameParser`, the sans-IO reassembler both connection
pumps feed; :func:`read_frame` drives the same parser from a stream.

A body carries one of two payloads:

* ``CODEC_SCALAR`` — the scalar hot path: a fixed 30-byte body, nothing
  to parse. The slots are the kind's two operands (``get``: key, default;
  ``range``: lo, hi; ``insert``: key, value; ``delete``: key;
  ``REPLY_OK``: the value). :func:`encode_frame` picks it when the meta
  holds exactly those and each is ``None``, an int64 or a float; a
  ``str``, a ``bool`` (never folded into int), a bigger int or a trace
  context rides ``CODEC_ARRAYS`` with no arrays. Decoding yields the same
  meta either way.
* ``CODEC_ARRAYS`` — everything else: a JSON ``meta`` dict (op
  parameters, reply shape, trace context) and 1-D numeric arrays. An
  empty meta costs no JSON, so a key-batch request and its ``(values,
  found)`` reply are pure arrays. :func:`repro.codec.layout` places the
  data region from the table's dtypes and counts exactly as an shm lane
  is filled, every array on a 16-byte boundary of the body: a ``bytes``
  body is itself 16-byte aligned, so arrays decode as aligned zero-copy
  (read-only) views over the received buffer.

Nothing else has a wire form: an ``object`` or not-1-D array, or a meta
that is not JSON, is refused by :func:`encode_frame` with
:class:`~repro.core.errors.InvalidParameterError`, and no side ever
unpickles a peer's bytes.

Errors cross the wire as ``REPLY_ERR`` frames carrying the exception's
class name, message, and salient attributes; :func:`decode_error` rebuilds
the same typed exception client-side from a registry of known classes
(unknown names degrade to :class:`~repro.net.errors.RemoteError`).

Both ends of a link ship together: mixed-version peers are unsupported
(the version byte only guards against talking to something else; every
earlier version, 1 to 4, is refused like any other, and so are the codec
ids 0, 2 and 4 they used).
"""

from __future__ import annotations

import functools
import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.errors import ClusterError, WorkerCrashedError, WorkerRecoveredError
from repro import codec
from repro.core import errors as core_errors
from repro.net.errors import FrameCorruptError, FrameError, RemoteError
from repro.serve.errors import ServerClosedError, ServerOverloadedError

__all__ = [
    "Frame",
    "FrameParser",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "OP_PING",
    "OP_GET",
    "OP_RANGE",
    "OP_INSERT",
    "OP_DELETE",
    "OP_GET_BATCH",
    "OP_RANGE_BATCH",
    "OP_INSERT_BATCH",
    "OP_DELETE_BATCH",
    "OP_STATS",
    "REPLY_OK",
    "REPLY_ERR",
    "KIND_NAMES",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "encode_error",
    "decode_error",
    "encode_result",
    "decode_result",
]

#: Protocol version stamped into (and checked from) every frame body.
PROTOCOL_VERSION = 5

#: Hard upper bound on one frame's body, a defense against a corrupted
#: or hostile length prefix allocating unbounded memory.
MAX_FRAME_BYTES = 64 << 20

_MAGIC = 0xF17E  # "FITing-tree" over Ethernet.
_PREFIX = struct.Struct("<HII")  # magic, body_len, crc32(body)
_BODY_HEADER = struct.Struct("<BBBBQ")  # version, kind, codec, flags, rid
_ARRAYS_HEAD = struct.Struct("<BBBBQI")  # _BODY_HEADER, then meta_len
_N_ARRAYS = struct.Struct("<H")
_ARRAY_DESC = struct.Struct("<BQ")  # dtype-string length, element count

# Request kinds (client -> server).
OP_PING = 1
OP_GET = 2
OP_RANGE = 3
OP_INSERT = 4
OP_DELETE = 5
OP_GET_BATCH = 6
OP_RANGE_BATCH = 7
OP_INSERT_BATCH = 8
OP_DELETE_BATCH = 9
OP_STATS = 10

# Reply kinds (server -> client).
REPLY_OK = 64
REPLY_ERR = 65

#: Human-readable name per frame kind (stats labels, error messages).
KIND_NAMES = {
    OP_PING: "ping",
    OP_GET: "get",
    OP_RANGE: "range",
    OP_INSERT: "insert",
    OP_DELETE: "delete",
    OP_GET_BATCH: "get_batch",
    OP_RANGE_BATCH: "range_batch",
    OP_INSERT_BATCH: "insert_batch",
    OP_DELETE_BATCH: "delete_batch",
    OP_STATS: "stats",
    REPLY_OK: "ok",
    REPLY_ERR: "error",
}

CODEC_ARRAYS = 1
CODEC_SCALAR = 3

#: The two meta fields a ``CODEC_SCALAR`` frame's slots stand for, per kind.
_SCALAR_FIELDS = {
    OP_GET: ("key", "default"),
    OP_RANGE: ("lo", "hi"),
    OP_INSERT: ("key", "value"),
    OP_DELETE: ("key", None),
    REPLY_OK: ("v", None),  # encode_result's {"r": "py", "v": value}
}
#: Slot tag per *exact* type: a bool or NumPy scalar never folds into int.
_SCALAR_TAGS = {type(None): 0, int: 1, float: 2}
#: Whole-body struct per tag pair (a ``None`` slot is packed as int 0).
_SCALAR_BODY = {
    (a, b): struct.Struct("<BBBBQBB" + "qqd"[a] + "qqd"[b])
    for a in range(3)
    for b in range(3)
}


@dataclass
class Frame:
    """One decoded frame: kind, request id, and its (meta, arrays) payload."""

    kind: int
    request_id: int
    meta: Dict[str, Any] = field(default_factory=dict)
    arrays: List[np.ndarray] = field(default_factory=list)
    codec: int = CODEC_ARRAYS
    #: On-wire size (prefix + body) of a received frame; 0 for frames
    #: built locally.
    wire_bytes: int = 0

    @property
    def name(self) -> str:
        """The frame kind as a label (``"get"``, ``"ok"``, ...)."""
        return KIND_NAMES.get(self.kind, f"kind{self.kind}")


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


# A table's dtype, as ``dtype.str`` bytes and back: the few dtypes frames
# carry are spelled and parsed once, not once per frame.
@functools.lru_cache(maxsize=64)
def _spelled(dtype: np.dtype) -> bytes:
    return dtype.str.encode("ascii")


@functools.lru_cache(maxsize=64)
def _parsed(raw: bytes) -> np.dtype:
    return np.dtype(raw.decode("ascii"))


def _framed(body: bytes) -> bytes:
    return _PREFIX.pack(_MAGIC, len(body), zlib.crc32(body)) + body


def _encode_scalar(kind: int, request_id: int, meta: Dict[str, Any]):
    """The ``CODEC_SCALAR`` frame for ``meta``, or ``None`` when it holds
    anything but the kind's operands as ``None`` / int64 / float."""
    name_a, name_b = _SCALAR_FIELDS[kind]
    is_reply = kind == REPLY_OK
    if (
        name_a not in meta
        or len(meta) != 1 + (name_b in meta) + is_reply
        or (is_reply and meta.get("r") != "py")
    ):
        return None
    a, b = meta[name_a], meta.get(name_b)
    try:
        tags = _SCALAR_TAGS[type(a)], _SCALAR_TAGS[type(b)]
        body = _SCALAR_BODY[tags].pack(
            PROTOCOL_VERSION, kind, CODEC_SCALAR, 0, request_id, *tags,
            0 if a is None else a, 0 if b is None else b,
        )
    except (KeyError, struct.error):  # foreign type / beyond 64 bits
        return None
    return _framed(body)


def _encode_arrays(kind: int, request_id: int, meta: Dict[str, Any], arrays) -> bytes:
    """One complete ``CODEC_ARRAYS`` frame; ``InvalidParameterError`` when
    the meta is not JSON or an array is ``object`` or not 1-D."""
    try:
        meta_b = json.dumps(meta, separators=(",", ":")).encode() if meta else b""
        arrays = [np.asarray(a) for a in arrays]
        table = [
            _ARRAYS_HEAD.pack(
                PROTOCOL_VERSION, kind, CODEC_ARRAYS, 0, request_id, len(meta_b)
            ),
            meta_b,
            _N_ARRAYS.pack(len(arrays)),
        ]
        for a in arrays:
            dtype_b = _spelled(a.dtype)
            table += (_ARRAY_DESC.pack(len(dtype_b), a.size), dtype_b)
        return _framed(codec.pack(b"".join(table), arrays))
    except (TypeError, ValueError) as exc:
        raise core_errors.InvalidParameterError(
            f"this {KIND_NAMES.get(kind, kind)} frame has no wire form: {exc}"
        ) from None


def encode_frame(
    kind: int,
    request_id: int,
    meta: Optional[Dict[str, Any]] = None,
    arrays: Optional[Sequence[np.ndarray]] = None,
) -> bytes:
    """One complete wire frame (prefix included) of ``kind`` (an ``OP_*``
    / ``REPLY_*`` constant) for ``request_id`` (0: unmatchable).

    ``meta`` holds JSON-able operation parameters / reply metadata and
    ``arrays`` numeric 1-D arrays; the module doc says which codec each
    combination takes. Raises ``InvalidParameterError`` for a payload
    with no wire form and ``FrameError`` past :data:`MAX_FRAME_BYTES`.
    """
    meta = meta or {}
    arrays = list(arrays) if arrays else []
    frame = None
    if kind in _SCALAR_FIELDS and not arrays:
        frame = _encode_scalar(kind, request_id, meta)
    frame = frame or _encode_arrays(kind, request_id, meta, arrays)
    if len(frame) - _PREFIX.size > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame body of {len(frame) - _PREFIX.size} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return frame


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def _decode_arrays(body: bytes) -> Tuple[Dict[str, Any], List[np.ndarray]]:
    pos = _ARRAYS_HEAD.size
    meta_len = _ARRAYS_HEAD.unpack_from(body)[5]
    meta = json.loads(body[pos:pos + meta_len]) if meta_len else {}
    if type(meta) is not dict:
        raise ValueError(f"meta is a JSON {type(meta).__name__}, not an object")
    pos += meta_len + _N_ARRAYS.size
    specs = []
    for _ in range(_N_ARRAYS.unpack_from(body, pos - _N_ARRAYS.size)[0]):
        dlen, count = _ARRAY_DESC.unpack_from(body, pos)
        pos += _ARRAY_DESC.size + dlen
        specs.append((_parsed(body[pos - dlen:pos]), count))
    return meta, codec.unpack(body, codec.layout(specs, pos))


def _decode_scalar(kind: int, body: bytes) -> Dict[str, Any]:
    """The meta a ``CODEC_SCALAR`` body stands for (raises on a kind with
    no scalar form, an unknown tag or a wrong-sized body)."""
    name_a, name_b = _SCALAR_FIELDS[kind]
    tags = body[_BODY_HEADER.size], body[_BODY_HEADER.size + 1]
    slots = _SCALAR_BODY[tags].unpack(body)
    meta = {name_a: slots[7] if tags[0] else None}
    if name_b is not None:
        meta[name_b] = slots[8] if tags[1] else None
    elif kind == REPLY_OK:
        meta["r"] = "py"
    return meta


def decode_frame(body: bytes) -> Frame:
    """Decode one CRC-verified frame body into a :class:`Frame`.

    The arrays come back as zero-copy views over ``body`` (read-only when
    ``body`` is a ``bytes`` object); copy before mutating.
    """
    if len(body) < _BODY_HEADER.size:
        raise FrameError(f"frame body of {len(body)} bytes is truncated")
    version, kind, codec_id, _, request_id = _BODY_HEADER.unpack_from(body, 0)
    if version != PROTOCOL_VERSION:
        raise FrameError(
            f"unsupported protocol version {version} "
            f"(this side speaks {PROTOCOL_VERSION})"
        )
    if codec_id not in (CODEC_SCALAR, CODEC_ARRAYS):
        raise FrameError(f"unknown payload codec {codec_id}")
    try:
        if codec_id == CODEC_SCALAR:
            meta, arrays = _decode_scalar(kind, body), []
        else:
            meta, arrays = _decode_arrays(body)
    except Exception as exc:
        raise FrameError(f"undecodable {KIND_NAMES.get(kind, kind)} "
                         f"payload: {exc!r}") from exc
    return Frame(kind, request_id, meta, arrays, codec_id)


class FrameParser:
    """Sans-IO frame reassembly: :meth:`feed` bytes in as the socket
    delivers them, pull frames out with :meth:`next`.

    Parameters
    ----------
    max_bytes:
        Reject bodies longer than this before buffering them.
    """

    __slots__ = ("max_bytes", "consumed", "missing", "_buf")

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        #: Stream offset just past the last frame :meth:`next` took.
        self.consumed = 0
        #: Once :meth:`next` returned ``None``: bytes still to feed it.
        self.missing = _PREFIX.size
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        """Append received bytes (any chunking) to the reassembly buffer."""
        self._buf += data

    def next(self) -> Optional[Frame]:
        """The next complete frame, or ``None`` until more bytes arrive.

        Raises
        ------
        FrameCorruptError
            CRC mismatch: that one frame was consumed, the stream is
            still synchronized — call again.
        FrameError
            Bad magic / length (nothing consumed) or an undecodable
            body (consumed): the stream is unusable.
        """
        buf = self._buf
        end = _PREFIX.size
        if len(buf) >= end:
            magic, body_len, crc = _PREFIX.unpack_from(buf)
            if magic != _MAGIC:
                raise FrameError(f"bad frame magic 0x{magic:04x}")
            if not _BODY_HEADER.size <= body_len <= self.max_bytes:
                raise FrameError(f"frame body length {body_len} out of bounds")
            end += body_len
        if len(buf) < end:
            self.missing = end - len(buf)
            return None
        body = bytes(memoryview(buf)[_PREFIX.size:end])
        del buf[:end]
        self.consumed += end
        if zlib.crc32(body) != crc:
            raise FrameCorruptError(
                f"frame CRC mismatch over {body_len} body bytes"
            )
        frame = decode_frame(body)
        frame.wire_bytes = end
        return frame


async def read_frame(reader, *, max_bytes: int = MAX_FRAME_BYTES) -> Frame:
    """Read and decode exactly one frame from an ``asyncio.StreamReader``
    positioned at a frame boundary (for raw-socket callers; the
    connection pumps feed a :class:`FrameParser` directly).

    Raises what :meth:`FrameParser.next` raises, plus
    ``asyncio.IncompleteReadError`` on EOF mid-frame.
    """
    parser = FrameParser(max_bytes)
    while True:
        parser.feed(await reader.readexactly(parser.missing))
        frame = parser.next()
        if frame is not None:
            return frame


# ----------------------------------------------------------------------
# Result payloads
# ----------------------------------------------------------------------


def _is_pair(value: Any) -> bool:
    return (
        isinstance(value, tuple)
        and len(value) == 2
        and all(isinstance(a, np.ndarray) for a in value)
    )


def encode_result(value: Any) -> Tuple[Dict[str, Any], List[np.ndarray]]:
    """The ``(meta, arrays)`` payload :func:`encode_frame` ships a reply
    value as.

    Numeric arrays, ``(keys, values)`` pairs (a range, or a ``(values,
    found)`` lookup: an empty meta, the hot path) and lists of pairs (the
    ``range_batch`` shape, as :func:`repro.codec.join_pairs` arrays)
    travel as arrays; anything else is a JSON value in the meta. What has
    neither form (object arrays, mixed-dtype rows) is refused by
    :func:`encode_frame`.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, np.ndarray):
        return {"r": "arr"}, [value]
    if _is_pair(value):
        return {}, list(value)
    if isinstance(value, list) and all(_is_pair(p) for p in value):
        joined = codec.join_pairs(value)
        if joined is not None:
            return {"r": "pairs"}, joined
    return {"r": "py", "v": value}, []


def decode_result(frame: Frame) -> Any:
    """The reply value a decoded ``REPLY_OK`` frame carries (see
    :func:`encode_result`)."""
    meta, arrays = frame.meta, frame.arrays
    shape = meta.get("r", "pair")
    if shape == "pair" and len(arrays) == 2:
        return (arrays[0], arrays[1])
    if shape == "py":
        return meta["v"]
    if shape == "arr":
        return arrays[0]
    if shape == "pairs":
        return codec.split_pairs(*arrays)
    raise FrameError(f"unknown result shape {shape!r}")


# ----------------------------------------------------------------------
# Typed errors across the wire
# ----------------------------------------------------------------------


def _from_args(cls):
    return lambda args, attrs: cls(*args)


#: Known exception classes, by name, with their reconstruction recipes.
_ERROR_TYPES = {
    cls.__name__: _from_args(cls)
    for cls in (
        core_errors.InvalidParameterError,
        core_errors.NotSortedError,
        core_errors.EmptyIndexError,
        core_errors.KeyNotFoundError,
        core_errors.SegmentationError,
        core_errors.InvariantViolationError,
        ServerClosedError,
        ServerOverloadedError,
        ClusterError,
    )
}
_ERROR_TYPES["WorkerCrashedError"] = lambda args, attrs: WorkerCrashedError(
    int(attrs.get("shard", -1)), attrs.get("exitcode")
)
_ERROR_TYPES["WorkerRecoveredError"] = lambda args, attrs: WorkerRecoveredError(
    int(attrs.get("shard", -1))
)


def _json_safe_args(exc: BaseException) -> Optional[List[Any]]:
    try:
        json.dumps(exc.args)
    except (TypeError, ValueError):
        return None
    return list(exc.args)


def encode_error(request_id: int, exc: BaseException) -> bytes:
    """Encode an exception as a ``REPLY_ERR`` frame.

    Ships the class name, the stringified message, JSON-safe constructor
    args when available, and the attributes the typed registry needs to
    rebuild cluster errors (``shard``, ``exitcode``).
    """
    attrs: Dict[str, Any] = {}
    for name in ("shard", "exitcode", "applied"):
        if hasattr(exc, name):
            value = getattr(exc, name)
            if value is None or isinstance(value, (bool, int, float, str)):
                attrs[name] = value
    meta = {
        "error": type(exc).__name__,
        "message": str(exc),
        "args": _json_safe_args(exc),
        "attrs": attrs,
    }
    return encode_frame(REPLY_ERR, request_id, meta)


def decode_error(frame: Frame) -> BaseException:
    """Rebuild the typed exception a ``REPLY_ERR`` frame describes.

    Known classes come back as themselves (so ``except KeyNotFoundError``
    works across the socket); unknown names become
    :class:`~repro.net.errors.RemoteError`.
    """
    meta = frame.meta
    name = str(meta.get("error", "Exception"))
    message = str(meta.get("message", ""))
    ctor = _ERROR_TYPES.get(name)
    if ctor is None:
        return RemoteError(name, message)
    args = meta.get("args")
    attrs = meta.get("attrs") or {}
    try:
        exc = ctor(args if args is not None else [message], attrs)
    except Exception:
        return RemoteError(name, message)
    return exc
