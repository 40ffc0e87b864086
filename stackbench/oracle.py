"""Reply checking: every op's reply against the stream's expected reply.

The expected replies are fixed when the stream is generated (see
:mod:`stackbench.streams`); the end-of-run check compares ``len()`` and a
full scan of the store with the sorted-array model the stream replays.
An op whose call raised is handed in as a :class:`Failure` and counts as
failed, as does any reply that differs from the expected one.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

import numpy as np

from stackbench.streams import DELETE, GET, GET_BATCH, INSERT, RANGE, Stream


class Failure:
    """Stands in for the reply of an op that raised or was never sent."""

    __slots__ = ("error",)

    def __init__(self, error: Any) -> None:
        self.error = error

    def __repr__(self) -> str:
        return f"Failure({self.error!r})"


def _as_ids(replies: Sequence[Any]) -> np.ndarray:
    """Scalar replies as int64 ids: None -> -1, anything unexpected -> -2."""
    return np.fromiter(
        (-1 if r is None
         else int(r) if isinstance(r, (int, np.integer)) else -2
         for r in replies),
        dtype=np.int64, count=len(replies),
    )


def _range_ok(reply: Any, keys: np.ndarray, vals: np.ndarray) -> bool:
    if isinstance(reply, Failure):
        return False
    got_k, got_v = (np.asarray(a) for a in reply)
    return (got_k.shape == keys.shape and np.array_equal(got_k, keys)
            and np.array_equal(got_v.astype(np.int64), vals))


def _array_ok(reply: Any, expected: np.ndarray) -> bool:
    if isinstance(reply, Failure):
        return False
    got = np.asarray(reply)
    if got.shape != expected.shape:
        return False
    if got.dtype == object:  # a default of None among the values
        got = np.array([-1 if v is None else v for v in got], dtype=np.int64)
    return bool(np.array_equal(got, expected))


def check_replies(stream: Stream, lo: int, replies: Sequence[Any]) -> np.ndarray:
    """Per-op verdicts for the replies to ops ``[lo, lo + len(replies))``.

    Returns a bool array, True where the op failed. Batch get/delete
    replies of ``default=-1`` are compared element-wise, so one wrong value
    in a batch of 1024 fails the op.
    """
    n = len(replies)
    sp = stream.space
    bad = np.zeros(n, dtype=bool)
    if stream.batches is not None:
        for j, reply in enumerate(replies):
            kind, _, expected, slices = stream.batches[lo + j]
            if kind == INSERT:
                bad[j] = reply is not None
            elif kind == RANGE:
                bad[j] = isinstance(reply, Failure) or len(reply) != len(slices[0]) or any(
                    not _range_ok(r, sp.keys[a:b], sp.values[a:b])
                    for r, a, b in zip(reply, *slices)
                )
            else:
                bad[j] = not _array_ok(reply, expected)
        return bad
    op = stream.op[lo: lo + n]
    point = (op == GET) | (op == DELETE)
    at = np.flatnonzero(point)
    bad[at] = _as_ids([replies[j] for j in at]) != stream.val[lo: lo + n][at]
    for j in np.flatnonzero(op == INSERT):
        bad[j] = replies[j] is not None
    for j in np.flatnonzero(op == RANGE):
        a, b = stream.r0[lo + j], stream.r1[lo + j]
        bad[j] = not _range_ok(replies[j], sp.keys[a:b], sp.values[a:b])
    for j in np.flatnonzero(op == GET_BATCH):
        a, b = stream.r0[lo + j], stream.r1[lo + j]
        bad[j] = not _array_ok(replies[j], sp.values[a:b])
    return bad


def check_final(stream: Stream, n_reported: int,
                scan: Tuple[np.ndarray, np.ndarray]) -> Tuple[bool, str]:
    """``len()`` and a full scan of the store against the replayed model."""
    keys, vals = stream.model()
    got_k = np.asarray(scan[0], dtype=np.float64)
    got_v = np.asarray(scan[1])
    if n_reported != keys.size:
        return False, f"len() says {n_reported}, the model holds {keys.size}"
    if got_k.size != keys.size:
        return False, f"scan returned {got_k.size} rows, the model holds {keys.size}"
    if not np.array_equal(got_k, keys):
        return False, "scan keys differ from the model"
    if not np.array_equal(got_v.astype(np.int64), vals):
        return False, "scan values differ from the model"
    return True, "ok"
