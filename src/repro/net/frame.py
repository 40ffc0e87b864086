"""Length-prefixed CRC'd binary framing for the TCP serving tier.

One frame on the wire is::

    +-------+----------+---------+------------------------------------+
    | magic | body_len |  crc32  |               body                 |
    |  u16  |   u32    |   u32   |  (body_len bytes, crc32 of these)  |
    +-------+----------+---------+------------------------------------+

    body := | version u8 | kind u8 | codec u8 | zero u8 | request_id u64 |
            | payload ... |

    CODEC_ARRAYS payload :=
            | meta_len u32 | meta JSON, space-padded | n_arrays u16 |
            | n_arrays x ( dtype_len u8 | count u64 | offset u64 | dtype.str ) |
            | data region: the arrays, as repro.codec packs them |

    CODEC_SCALAR payload := | tag_a u8 | tag_b u8 | slot_a 8B | slot_b 8B |
            tag 0 = None (slot zero) | 1 = int64 | 2 = float64

    CODEC_KEYS payload := | n_arrays u32 | n_arrays x ( code u32 | count u32 ) |
            | data region: the arrays, as repro.codec packs them |
            code 0 = float64 | 1 = int64 | 2 = bool, all little-endian

The 10-byte prefix is framing only; everything semantic — including the
version byte, so the protocol can evolve without touching the prefix —
lives inside the CRC-protected body. A bad magic or over-limit length
means the stream is garbage (:class:`~repro.net.errors.FrameError`, fatal
to the connection); a CRC mismatch means exactly one frame was damaged
(:class:`~repro.net.errors.FrameCorruptError`) and the stream stays
synchronized because the length prefix still framed it. These checks
live in :class:`FrameParser`, the sans-IO reassembler both connection
pumps feed; :func:`read_frame` drives the same parser from a stream.

Payload codecs:

* ``CODEC_SCALAR`` — the scalar hot path: a fixed 30-byte body, nothing
  to parse. The slots are the kind's two operands (``get``: key, default;
  ``range``: lo, hi; ``insert``: key, value; ``delete``: key;
  ``REPLY_OK``: the value). :func:`encode_frame` picks it when the meta
  holds exactly those and each is ``None``, an int64 or a float; a
  ``str``, a ``bool`` (never folded into int), a bigger int or a trace
  context rides ``CODEC_JSON``. Decoding yields the same meta either way.
* ``CODEC_KEYS`` — arrays and nothing else, for a request with an empty
  meta (a ``lookup_batch`` or a client's coalesced gets: the keys) and a
  ``(values, found)`` pair reply, all 1-D float64 / int64 / bool. No
  JSON, no descriptor table: the codes and counts place the arrays.
* ``CODEC_ARRAYS`` — the batch path. A small JSON ``meta`` dict (op
  parameters, trace context), a descriptor table, and a data region that
  :func:`repro.codec.pack_into` fills exactly as it fills an shm lane —
  byte for byte, with the same ``(dtype.str, count, offset)`` descriptors
  (offsets relative to the region's start). The encoder pads the meta
  JSON with trailing spaces so the region starts on a 16-byte boundary
  *of the body*: a ``bytes`` body is itself 16-byte aligned, so every
  array decodes as an aligned zero-copy (read-only) NumPy view over the
  received buffer. No pickling on either side.
* ``CODEC_JSON`` — meta only: control frames and the scalars above.
* ``CODEC_PICKLE`` — the fallback for payloads with no flat numeric form
  (object values, arbitrary defaults). Slower, never wrong. Frames are
  only exchanged between this package's own client and server over links
  the operator already trusts (the same trust model as the cluster
  layer's pickled control frames).

Errors cross the wire as ``REPLY_ERR`` frames carrying the exception's
class name, message, and salient attributes; :func:`decode_error` rebuilds
the same typed exception client-side from a registry of known classes
(unknown names degrade to :class:`~repro.net.errors.RemoteError`).

Both ends of a link ship together: mixed-version peers are unsupported
(the version byte only guards against talking to something else;
version 1, which had no ``CODEC_SCALAR``, version 2, which had no
``CODEC_KEYS``, and version 3, whose ``get_batch`` answered values, not
``(values, found)``, are refused like any other).
"""

from __future__ import annotations

import json
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.errors import (
    ClusterError,
    WorkerCrashedError,
    WorkerRecoveredError,
)
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
PROTOCOL_VERSION = 4

#: Hard upper bound on one frame's body, a defense against a corrupted
#: or hostile length prefix allocating unbounded memory.
MAX_FRAME_BYTES = 64 << 20

_MAGIC = 0xF17E  # "FITing-tree" over Ethernet.
_PREFIX = struct.Struct("<HII")  # magic, body_len, crc32(body)
_BODY_HEADER = struct.Struct("<BBBBQ")  # version, kind, codec, flags, rid
_DESC = struct.Struct("<BQQ")  # dtype-string length, element count, offset

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

CODEC_JSON = 0
CODEC_ARRAYS = 1
CODEC_PICKLE = 2
CODEC_SCALAR = 3
CODEC_KEYS = 4

#: ``CODEC_KEYS`` element types, by code, and the one meta each kind's
#: keys frame stands for.
_KEYS_DTYPES = (np.dtype("<f8"), np.dtype("<i8"), np.dtype("?"))
_KEYS_CODES = {dtype: code for code, dtype in enumerate(_KEYS_DTYPES)}
_KEYS_META = {REPLY_OK: {"r": "pair"}}
_KEYS_DESC = struct.Struct("<II")  # dtype code, element count

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
    codec: int = CODEC_JSON
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


def _framed(body: bytes) -> bytes:
    return _PREFIX.pack(_MAGIC, len(body), zlib.crc32(body)) + body


def _encode_payload(kind: int, request_id: int, codec_id: int, payload: bytes) -> bytes:
    return _framed(
        _BODY_HEADER.pack(PROTOCOL_VERSION, kind, codec_id, 0, request_id) + payload
    )


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


def _encode_keys(kind: int, request_id: int, arrays: List[np.ndarray]):
    """The ``CODEC_KEYS`` frame for ``arrays``, or ``None`` when one is not
    a 1-D float64 / int64 / bool array."""
    try:
        table = [
            _KEYS_DESC.pack(_KEYS_CODES[a.dtype], a.size)
            for a in arrays
            if a.ndim == 1
        ]
    except (AttributeError, KeyError):  # not an array / foreign dtype
        return None
    if len(table) != len(arrays):
        return None
    head = _BODY_HEADER.pack(PROTOCOL_VERSION, kind, CODEC_KEYS, 0, request_id)
    return _framed(codec.pack(
        b"".join([head, struct.pack("<I", len(arrays)), *table]), arrays
    ))


def _encode_arrays(
    kind: int, request_id: int, meta: Dict[str, Any], arrays: List[np.ndarray]
) -> bytes:
    """One complete ``CODEC_ARRAYS`` frame.

    Raises ``ValueError``/``TypeError`` when an array has no packed form
    or the meta is not JSON-able — the caller falls back to pickle.
    """
    meta_b = json.dumps(meta, separators=(",", ":")).encode()
    arrays = [np.asarray(a) for a in arrays]
    dtypes = [a.dtype.str.encode("ascii") for a in arrays]
    table_end = (
        _BODY_HEADER.size + 4 + len(meta_b) + 2
        + sum(_DESC.size + len(d) for d in dtypes)
    )
    meta_b += b" " * (-table_end % 16)  # the data region starts aligned
    descriptors = codec.layout([(a.dtype, a.size) for a in arrays])
    return _framed(codec.pack(b"".join([
        _BODY_HEADER.pack(PROTOCOL_VERSION, kind, CODEC_ARRAYS, 0, request_id),
        struct.pack("<I", len(meta_b)),
        meta_b,
        struct.pack("<H", len(arrays)),
        *(
            _DESC.pack(len(dtype_b), count, offset) + dtype_b
            for dtype_b, (_, count, offset) in zip(dtypes, descriptors)
        ),
    ]), arrays))


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
    combination takes. A meta that is not JSON, or an array that is
    ``object`` or not 1-D, demotes the whole payload to pickle.
    """
    meta = meta or {}
    arrays = list(arrays) if arrays else []
    frame = None
    if kind in _SCALAR_FIELDS and not arrays:
        frame = _encode_scalar(kind, request_id, meta)
    elif arrays and meta == _KEYS_META.get(kind, {}):
        frame = _encode_keys(kind, request_id, arrays)
    if frame is None:
        try:
            if arrays:
                frame = _encode_arrays(kind, request_id, meta, arrays)
            else:
                payload = json.dumps(meta, separators=(",", ":")).encode()
                frame = _encode_payload(kind, request_id, CODEC_JSON, payload)
        except (TypeError, ValueError):
            payload = pickle.dumps(
                (meta, arrays), protocol=pickle.HIGHEST_PROTOCOL
            )
            frame = _encode_payload(kind, request_id, CODEC_PICKLE, payload)
    if len(frame) - _PREFIX.size > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame body of {len(frame) - _PREFIX.size} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return frame


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def _decode_arrays(
    body: bytes, start: int
) -> Tuple[Dict[str, Any], List[np.ndarray]]:
    meta_len = struct.unpack_from("<I", body, start)[0]
    pos = start + 4
    meta = json.loads(bytes(body[pos:pos + meta_len]).decode())
    pos += meta_len
    n_arrays = struct.unpack_from("<H", body, pos)[0]
    pos += 2
    descriptors = []
    for _ in range(n_arrays):
        dlen, count, off = _DESC.unpack_from(body, pos)
        pos += _DESC.size
        descriptors.append(
            (bytes(body[pos:pos + dlen]).decode("ascii"), count, off)
        )
        pos += dlen
    return meta, codec.unpack(memoryview(body)[pos:], descriptors)


def _decode_keys(kind: int, body: bytes) -> Tuple[Dict[str, Any], List[np.ndarray]]:
    pos = _BODY_HEADER.size + 4
    head = pos + _KEYS_DESC.size * struct.unpack_from("<I", body, pos - 4)[0]
    specs = [
        (_KEYS_DTYPES[code], count)
        for code, count in _KEYS_DESC.iter_unpack(body[pos:head])
    ]
    arrays = codec.unpack(body, codec.layout(specs, head))
    return dict(_KEYS_META.get(kind, {})), arrays


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
    start = _BODY_HEADER.size
    try:
        if codec_id == CODEC_SCALAR:
            meta, arrays = _decode_scalar(kind, body), []
        elif codec_id == CODEC_KEYS:
            meta, arrays = _decode_keys(kind, body)
        elif codec_id == CODEC_JSON:
            meta, arrays = json.loads(bytes(body[start:]).decode() or "{}"), []
        elif codec_id == CODEC_ARRAYS:
            meta, arrays = _decode_arrays(body, start)
        elif codec_id == CODEC_PICKLE:
            meta, arrays = pickle.loads(bytes(body[start:]))
        else:
            raise FrameError(f"unknown payload codec {codec_id}")
    except FrameError:
        raise
    except Exception as exc:
        raise FrameError(f"undecodable {KIND_NAMES.get(kind, kind)} "
                         f"payload: {exc!r}") from exc
    return Frame(kind, request_id, meta, list(arrays), codec_id)


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
    found)`` lookup) and lists of pairs (the ``range_batch`` shape, as
    :func:`repro.codec.join_pairs` arrays) travel as arrays; ``None`` and
    JSON-safe scalars ride the meta dict; anything else is embedded raw in
    the meta so the frame encoder's pickle fallback carries it.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return {"r": "py", "v": value}, []
    if isinstance(value, np.ndarray):
        if value.dtype != np.dtype(object):
            return {"r": "arr"}, [value]
        return {"r": "obj", "v": value}, []
    if _is_pair(value) and not any(a.dtype.hasobject for a in value):
        return {"r": "pair"}, list(value)
    if isinstance(value, list) and all(_is_pair(p) for p in value):
        joined = codec.join_pairs(value)
        if joined is not None:
            return {"r": "pairs"}, joined
    return {"r": "obj", "v": value}, []


def decode_result(frame: Frame) -> Any:
    """The reply value a decoded ``REPLY_OK`` frame carries (see
    :func:`encode_result`)."""
    meta, arrays = frame.meta, frame.arrays
    shape = meta.get("r")
    if shape in ("py", "obj"):
        return meta["v"]
    if shape == "arr":
        return arrays[0]
    if shape == "pair":
        return (arrays[0], arrays[1])
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
