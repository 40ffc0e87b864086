"""The in-flight encoding: a list of 1-D numeric arrays as bytes, and back.

Every batch that crosses a process (:mod:`repro.cluster.shm` lanes) or a
socket (:mod:`repro.net.frame`, ``CODEC_ARRAYS``) is laid out by this
module and by nothing else. The rule, stated once:

* arrays sit back to back, each starting at the next **16-byte-aligned
  offset of the buffer** it is packed into (gaps are never written);
* one array is described by a ``(dtype.str, count, offset)`` triple — the
  byte order travels in ``dtype.str`` — and the descriptors ride beside
  the buffer (a control frame on the pipe, a table in the frame body);
* only flat data has this form: an ``object`` dtype or an array that is
  not 1-D is refused with ``ValueError`` and both transports fall back to
  pickle for it.

The at-rest formats (``repro.wal.format`` records, the npz of
``repro.core.serialize``) are deliberately not built on this: each already
has one writer and one reader, and re-laying them out would break every
existing ``data_dir``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["join_pairs", "pack_into", "packed_size", "split_pairs", "unpack"]

#: Layout of one packed array: (dtype.str, element count, byte offset).
Descriptor = Tuple[str, int, int]
Pair = Tuple[np.ndarray, np.ndarray]

_ALIGN = 16


def _flat(arr) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.dtype.hasobject or arr.ndim != 1:
        raise ValueError(
            f"only 1-D non-object arrays have a packed form, got "
            f"dtype={arr.dtype} shape={arr.shape}"
        )
    return arr


def packed_size(arrays: Sequence[np.ndarray]) -> int:
    """Bytes :func:`pack_into` needs for ``arrays`` from an aligned ``base``."""
    end = 0
    for arr in arrays:
        end = -(-end // _ALIGN) * _ALIGN + _flat(arr).nbytes
    return end


def pack_into(buf, arrays: Sequence[np.ndarray], base: int = 0) -> List[Descriptor]:
    """Copy ``arrays`` into the writable buffer ``buf`` at or after ``base``.

    One copy per array, straight into place. Raises ``ValueError`` for an
    unpackable array (see the module rule) or when ``buf`` is too small.
    Returns the descriptors :func:`unpack` takes; offsets are absolute in
    ``buf``.
    """
    descriptors: List[Descriptor] = []
    end = base
    for arr in arrays:
        arr = _flat(arr)
        start = -(-end // _ALIGN) * _ALIGN
        end = start + arr.nbytes
        if end > len(buf):
            raise ValueError(f"buffer overflow: need {end} bytes, have {len(buf)}")
        # Positional on purpose: keyword parsing triples frombuffer's cost.
        np.frombuffer(buf, arr.dtype, arr.size, start)[:] = arr
        descriptors.append((arr.dtype.str, arr.size, start))
    return descriptors


def unpack(buf, descriptors: Sequence[Descriptor]) -> List[np.ndarray]:
    """Zero-copy views of the arrays ``descriptors`` lay out over ``buf``
    (read-only when ``buf`` is)."""
    return [
        np.frombuffer(buf, np.dtype(dtype), count, offset)
        for dtype, count, offset in descriptors
    ]


def join_pairs(pairs: Sequence[Pair]) -> Optional[List[np.ndarray]]:
    """A list of ``(keys, values)`` range results as three packable arrays.

    Returns ``[counts, keys, values]`` — the rows concatenated, ``counts``
    (int64) their lengths — or ``None`` when the list is empty or the
    rows' dtypes differ or hold objects, which have no single flat form.
    """
    if (
        not pairs
        or len({(k.dtype, v.dtype) for k, v in pairs}) != 1
        or pairs[0][0].dtype.hasobject
        or pairs[0][1].dtype.hasobject
    ):
        return None
    return [
        np.asarray([k.size for k, _ in pairs], dtype=np.int64),
        np.concatenate([k for k, _ in pairs]),
        np.concatenate([v for _, v in pairs]),
    ]


def split_pairs(counts: np.ndarray, keys: np.ndarray, values: np.ndarray) -> List[Pair]:
    """Invert :func:`join_pairs`: one ``(keys, values)`` window per count.

    The rows are views of ``keys`` and ``values``; copy those first when
    they alias a buffer that will be reused.
    """
    ends = np.cumsum(counts).tolist()
    return [
        (keys[a:b], values[a:b]) for a, b in zip([0] + ends[:-1], ends)
    ]
