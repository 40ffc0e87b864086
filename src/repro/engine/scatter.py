"""The scatter/gather kernel: split a batch over the cuts, put answers back.

Every sharded tier — :class:`~repro.engine.engine.ShardedEngine`,
:class:`~repro.cluster.ClusterEngine`, :class:`~repro.net.router.Router` —
asks the same two questions: *which shard owns each key or range*, and
*how do the per-shard answers go back in request order*. This module is
the one place both are decided. It is sans-IO: functions take cut keys
and arrays and return plans and arrays, never a shard, pipe or socket, so
each tier keeps only its transport (in-process call, shm round,
``asyncio.gather`` of client legs).

The rules, stated once:

* **Ownership** is :func:`~repro.engine.partition.route`: a key equal to a
  cut belongs to the shard starting there, keys below the first cut go to
  shard 0. Write batches are stable-sorted (ties keep request order) and
  cut with :func:`~repro.engine.partition.shard_bounds`, which agrees.
* **Gather dtype**: the parts' common dtype when every part fully hit and
  the dtypes agree; otherwise ``object``, with ``default`` in the miss
  slots. ``default`` is applied here, on the caller's side of any process
  or socket boundary.
* **Range stitch**: shard order is key order, so a row's contributions
  concatenate in shard order; mixed value dtypes concatenate losslessly
  as ``object`` (int64+float64 promotion would corrupt large ints).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.page import aligned_value_array, typed_values
from repro.engine.partition import route, shard_bounds

__all__ = [
    "check_bounds",
    "fill_default",
    "gather_lookups",
    "gather_points",
    "resolve_values",
    "split_points",
    "split_ranges",
    "split_sorted",
    "stitch_ranges",
    "values_required",
]

Pair = Tuple[np.ndarray, np.ndarray]


def split_points(cuts: np.ndarray, keys: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """``(shard, positions)`` for each shard owning at least one key.

    ``positions`` index into ``keys`` in request order; groups come back
    in shard order.
    """
    owners = route(cuts, keys)
    groups = []
    for sid in range(cuts.size + 1):
        positions = np.flatnonzero(owners == sid)
        if positions.size:
            groups.append((sid, positions))
    return groups


def split_sorted(
    cuts: np.ndarray, keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, List[Tuple[int, int, int]]]:
    """Stable-sort a write batch and cut it into per-shard slices.

    Returns
    -------
    tuple
        ``(order, sorted_keys, slices)``: the stable argsort of ``keys``,
        ``keys[order]``, and one ``(shard, a, b)`` per non-empty shard so
        that ``sorted_keys[a:b]`` is that shard's chunk and ``order[a:b]``
        its request positions.
    """
    order = keys.argsort(kind="stable")
    skeys = keys[order]
    slices = [
        (sid, a, b)
        for sid, (a, b) in enumerate(shard_bounds(skeys, cuts))
        if a < b
    ]
    return order, skeys, slices


def check_bounds(bounds) -> np.ndarray:
    """``bounds`` as a float64 ``(n, 2)`` array, or a typed error."""
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise InvalidParameterError("bounds must be an (n, 2) array")
    return bounds


def split_ranges(
    cuts: np.ndarray, bounds
) -> Tuple[np.ndarray, List[Tuple[int, np.ndarray]]]:
    """Validate ``[lo, hi]`` rows and find the rows each shard overlaps.

    Returns
    -------
    tuple
        ``(bounds, jobs)``: the validated ``(n, 2)`` array and one
        ``(shard, rows)`` per shard some row overlaps, in shard order. A
        row with ``lo > hi`` across a cut overlaps no shard.
    """
    bounds = check_bounds(bounds)
    first = route(cuts, bounds[:, 0])
    last = route(cuts, bounds[:, 1])
    jobs = []
    for sid in range(cuts.size + 1):
        rows = np.flatnonzero((first <= sid) & (sid <= last))
        if rows.size:
            jobs.append((sid, rows))
    return bounds, jobs


def gather_lookups(
    n: int,
    parts: Sequence[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Reassemble per-shard point results into request-order
    ``(values, found)``.

    Parameters
    ----------
    n:
        Size of the original batch.
    parts:
        ``(positions, values, found)`` per shard: ``values`` aligned with
        ``positions``; ``found`` a bool mask of the slots that hit, or
        ``None`` when every slot hit.

    Returns
    -------
    tuple
        ``(values, found)``: the values in the parts' common dtype
        (``object`` when they differ) and the request-order hit mask; a
        missed slot's value is unspecified.
    """
    dtypes = {values.dtype for _, values, _ in parts}
    values = np.empty(n, dtype=dtypes.pop() if len(dtypes) == 1 else object)
    found = np.ones(n, dtype=bool)
    for positions, part, hits in parts:
        values[positions] = part
        if hits is not None:
            found[positions] = hits
    return values, found


def gather_points(
    n: int,
    parts: Sequence[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]],
    default: Any = None,
) -> np.ndarray:
    """Reassemble per-shard point results into request order.

    Parameters
    ----------
    n:
        Size of the original batch.
    parts:
        ``(positions, values, found)`` per shard, as for
        :func:`gather_lookups`.
    default:
        Fills the slots a ``found`` mask marks as missed.

    Returns
    -------
    numpy.ndarray
        One value per request (see the module doc for the dtype rule).
    """
    return fill_default(*gather_lookups(n, parts), default)


def fill_default(values: np.ndarray, found: np.ndarray, default: Any = None):
    """The ``get_batch`` answer for a ``(values, found)`` lookup:
    ``values`` itself when every query hit, else an ``object`` copy with
    ``default`` in the misses."""
    if bool(found.all()):
        return values
    out = values.astype(object)
    out[~found] = default
    return out


def stitch_ranges(
    n_rows: int,
    parts: Sequence[Tuple[np.ndarray, Sequence[Pair]]],
    empty_dtype: Any,
) -> List[Pair]:
    """Stitch per-shard range contributions into one pair per bounds row.

    Parameters
    ----------
    n_rows:
        Number of bounds rows in the original batch.
    parts:
        ``(rows, pairs)`` per shard **in shard order** (a
        :func:`split_ranges` job list zipped with the replies): ``pairs``
        holds one ``(keys, values)`` per entry of ``rows``.
    empty_dtype:
        Values dtype of the empty pair a row nobody overlaps gets.

    Returns
    -------
    list of (numpy.ndarray, numpy.ndarray)
        Per row: the single contribution as-is, or the contributions
        concatenated in shard order.
    """
    per_row: List[List[Pair]] = [[] for _ in range(n_rows)]
    for rows, pairs in parts:
        for row, pair in zip(rows.tolist(), pairs):
            per_row[row].append(pair)
    out: List[Pair] = []
    for pieces in per_row:
        if len(pieces) == 1:
            out.append(pieces[0])
        elif not pieces:
            out.append(
                (np.empty(0, dtype=np.float64), np.empty(0, dtype=empty_dtype))
            )
        else:
            values = [v for _, v in pieces]
            if len({v.dtype for v in values}) > 1:
                values = [v.astype(object) for v in values]
            out.append(
                (np.concatenate([k for k, _ in pieces]), np.concatenate(values))
            )
    return out


def values_required() -> InvalidParameterError:
    """The one refusal of a valueless insert on an engine built with
    explicit values, whichever verb and backend it reaches."""
    return InvalidParameterError(
        "this engine stores explicit values; insert_batch requires aligned "
        "values"
    )


def resolve_values(
    n: int, values, auto_rowid: bool, next_rowid: int, dtype: np.dtype
) -> Tuple[np.ndarray, int]:
    """The value array an ``n``-key insert batch stores, and the row-id
    counter after it.

    ``values=None`` draws ``n`` consecutive engine-wide row ids (only on
    engines built without explicit values); anything else is aligned to
    ``n``, cast to the engine's values ``dtype`` — a payload it cannot
    hold exactly is refused (:func:`~repro.core.page.typed_values`) — and
    leaves the counter alone.
    """
    if values is None:
        if not auto_rowid:
            raise values_required()
        return (
            np.arange(next_rowid, next_rowid + n, dtype=np.int64),
            next_rowid + n,
        )
    return typed_values(aligned_value_array(n, values), dtype), next_rowid
