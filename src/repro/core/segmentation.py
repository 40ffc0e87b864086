"""Online segmentation: the ShrinkingCone algorithm (paper Algorithm 2).

Given keys sorted ascending (duplicates allowed) and an error threshold,
partition the array into the fewest segments a single greedy pass can manage
such that every element's linearly interpolated position is within ``error``
of its true position.

The cone
--------
For a segment with origin ``(x0, y0)`` (first key and its position), each
subsequent element ``(x, y)`` constrains the feasible slopes to
``[(y - error - y0)/d, (y + error + ... )/d]`` with ``d = x - x0``; the
running intersection of these intervals is the *cone* ``[lo, hi]``. Any
slope inside the final cone satisfies the error bound for every element of
the segment, so the index can safely store the midpoint.

Accept tests
------------
* ``accept="paper"`` — the paper's test: the new point itself must lie
  inside the current cone (its slope-to-origin ``s`` is in ``[lo, hi]``).
* ``accept="exact"`` — our strictly stronger variant: accept whenever the
  intersection of the cone with the new point's own slope interval is
  non-empty. Every point the paper's test accepts is also accepted here,
  and the counterexample in ``tests/core/test_segmentation_exactness.py``
  shows the inclusion is strict. The paper's prose claims its test is
  necessary; it is only sufficient. Both are provided; the index defaults
  to the paper's behaviour, and the ablation bench quantifies the gap.

Duplicates
----------
Elements equal to the origin key have ``d = 0``: interpolation predicts the
origin position regardless of slope, so such an element fits if and only if
its distance from the origin position is at most ``error``. Longer duplicate
runs are split into multiple segments sharing a start key; the FITing-Tree's
``lookup_all`` stitches across such boundaries.

Both a vectorized implementation (numpy scans — the default) and a scalar
reference implementation are provided; a hypothesis property test pins them
to identical output.

Passes sized to the segment
---------------------------
The paper's algorithm is one greedy pass that touches each key once. The
vectorized scan gets close to that by growing its passes: the first covers
``_FIRST_PASS`` = 256 keys, each later one doubles, up to ``chunk``. A pass
costs ~15 NumPy calls whatever its length until it reaches a few hundred
keys, so 256 keys is about where per-key work starts to show; and a segment
at the small errors that dominate build time (``FITingTree`` segments at
``error - buffer_capacity``, 8 at error 16) is ~40-150 keys long on the
``iot`` and uniform datasets, so one first pass usually closes it. Long
segments reach the ``chunk`` cap in four doublings. A pass whose smallest gap
cannot make a slope overflow float64 skips the overflow masking.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError, NotSortedError
from repro.core.segment import Segment

__all__ = [
    "shrinking_cone",
    "shrinking_cone_reference",
    "exact_cone",
    "cone_reach",
    "fixed_segments",
    "max_segments_bound",
]

_INF = float("inf")
_FIRST_PASS = 256
_ACCEPT_MODES = ("paper", "exact")


def _as_sorted_keys(keys) -> np.ndarray:
    arr = np.asarray(keys, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidParameterError(f"keys must be 1-D, got shape {arr.shape}")
    if arr.size > 1 and np.any(arr[1:] < arr[:-1]):
        raise NotSortedError("keys must be sorted ascending")
    return arr


def _check_error(error: float) -> float:
    if not error > 0:
        raise InvalidParameterError(f"error must be positive, got {error}")
    return float(error)


def _check_accept(accept: str) -> bool:
    if accept not in _ACCEPT_MODES:
        raise InvalidParameterError(
            f"accept must be one of {_ACCEPT_MODES}, got {accept!r}"
        )
    return accept == "exact"


def _slope_from_cone(lo: float, hi: float) -> float:
    """Pick the slope the index stores once a segment is closed.

    Any slope in ``[lo, hi]`` honours the error bound; we store the midpoint
    (or ``lo`` — i.e. 0 — when no finite upper bound was ever set, which
    happens only for segments whose elements all share one key). Bounds
    near the float64 maximum (keys ~1e-308 apart) overflow ``lo + hi``;
    only then is the midpoint taken as ``0.5 * lo + 0.5 * hi``, so every
    slope that fits keeps its bits.
    """
    if hi == _INF:
        return lo
    if math.isinf(float(lo) + float(hi)):  # Python floats: no overflow warning
        return 0.5 * lo + 0.5 * hi
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# Scalar reference implementation
# ----------------------------------------------------------------------

def _scan_segment_scalar(
    keys: np.ndarray, i0: int, error: float, exact: bool
) -> Tuple[int, float, float]:
    """Grow one segment starting at ``i0``; return (end_exclusive, lo, hi)."""
    n = len(keys)
    x0 = keys[i0]
    lo, hi = 0.0, _INF
    for k in range(i0 + 1, n):
        d = keys[k] - x0
        y = float(k - i0)
        if d == 0.0:
            if y <= error:
                continue
            return k, lo, hi
        with np.errstate(over="ignore", invalid="ignore"):
            s = y / d
        if not math.isfinite(s):
            # The slope this point needs overflows float64: no representable
            # slope moves the prediction off the origin position, so the
            # point behaves exactly like a duplicate of the origin.
            if y <= error:
                continue
            return k, lo, hi
        with np.errstate(over="ignore", invalid="ignore"):
            margin = error / d
            lo_cand = s - margin
            hi_cand = s + margin
        if math.isnan(lo_cand):
            lo_cand = -_INF
        if math.isnan(hi_cand):
            hi_cand = _INF
        if exact:
            ok = max(lo, lo_cand) <= min(hi, hi_cand)
        else:
            ok = lo <= s <= hi
        if not ok:
            return k, lo, hi
        if lo_cand > lo:
            lo = lo_cand
        if hi_cand < hi:
            hi = hi_cand
    return n, lo, hi


def shrinking_cone_reference(
    keys, error: float, *, accept: str = "paper"
) -> List[Segment]:
    """Scalar reference ShrinkingCone; see :func:`shrinking_cone`."""
    keys = _as_sorted_keys(keys)
    error = _check_error(error)
    exact = _check_accept(accept)
    segments: List[Segment] = []
    i0 = 0
    n = len(keys)
    while i0 < n:
        end, lo, hi = _scan_segment_scalar(keys, i0, error, exact)
        segments.append(
            Segment(float(keys[i0]), i0, _slope_from_cone(lo, hi), end - i0)
        )
        i0 = end
    return segments


# ----------------------------------------------------------------------
# Vectorized implementation
# ----------------------------------------------------------------------

def _scan_segment_vector(
    keys: np.ndarray, i0: int, error: float, exact: bool, chunk: int
) -> Tuple[int, float, float]:
    """Vectorized equivalent of :func:`_scan_segment_scalar`.

    Scans in passes of ``_FIRST_PASS`` elements, doubling up to ``chunk``.
    Each pass writes its candidate bounds behind the incoming cone bound
    (slot 0) and prefix-scans them in place, so slot ``k`` holds the cone
    *before* element ``k`` and slot ``k + 1`` the cone after it; the first
    violating element is located with ``argmax`` on the violation mask.
    """
    n = len(keys)
    x0 = keys[i0]
    lo, hi = 0.0, _INF
    j = i0 + 1
    width = min(chunk, _FIRST_PASS)
    with np.errstate(over="ignore", invalid="ignore"):
        while j < n:
            stop = min(j + width, n)
            width = min(2 * width, chunk)
            x = keys[j:stop]

            # Duplicates of the origin key form a prefix of the sorted pass.
            n_dup = int(np.searchsorted(x, x0, side="right"))
            if n_dup > 0:
                last_dup_pos = j + n_dup - 1
                if last_dup_pos - i0 > error:
                    # First duplicate too far from the origin position.
                    return max(j, i0 + int(math.floor(error)) + 1), lo, hi
                j += n_dup
                continue

            d = x - x0
            y = np.arange(j - i0, stop - i0, dtype=np.float64)
            s = y / d
            margin = error / d
            lo_run = np.empty(stop - j + 1)
            hi_run = np.empty(stop - j + 1)
            lo_run[0], hi_run[0] = lo, hi
            lo_cand, hi_cand = lo_run[1:], hi_run[1:]
            np.subtract(s, margin, out=lo_cand)
            np.add(s, margin, out=hi_cand)
            # ``d[0]`` is the pass's smallest gap, so when the largest
            # position over it is finite no slope in the pass overflows.
            # Otherwise the points whose slope overflows float64 behave
            # exactly like duplicates of the origin (see the scalar path):
            # acceptable iff within ``error`` of the origin position, never
            # constraining the cone. NaN candidate bounds (inf - inf) mean
            # "no constraint".
            s_overflow = None
            if not math.isfinite((stop - i0) / d[0]):
                s_overflow = np.isinf(s)
                np.copyto(lo_cand, -_INF, where=s_overflow | np.isnan(lo_cand))
                np.copyto(hi_cand, _INF, where=s_overflow | np.isnan(hi_cand))

            np.maximum.accumulate(lo_run, out=lo_run)
            np.minimum.accumulate(hi_run, out=hi_run)
            if exact:
                # max(cone before, own bound) is the inclusive scan itself.
                viol = lo_run[1:] > hi_run[1:]
            else:
                viol = (s < lo_run[:-1]) | (s > hi_run[:-1])
            if s_overflow is not None:
                viol = np.where(s_overflow, y > error, viol)

            idx = int(np.argmax(viol))
            if viol[idx]:
                return j + idx, float(lo_run[idx]), float(hi_run[idx])
            lo = float(lo_run[-1])
            hi = float(hi_run[-1])
            j = stop
    return n, lo, hi


def shrinking_cone(
    keys, error: float, *, accept: str = "paper", chunk: int = 4096
) -> List[Segment]:
    """Segment sorted ``keys`` with the ShrinkingCone algorithm.

    Parameters
    ----------
    keys:
        1-D array-like of keys sorted ascending; duplicates allowed.
    error:
        Maximum allowed |predicted − true| position (the paper's tunable
        error threshold). Must be positive.
    accept:
        ``"paper"`` for the paper's in-cone accept test (default),
        ``"exact"`` for the non-empty-intersection test (never produces
        more segments; see module docstring).
    chunk:
        Largest vectorized pass, in elements; affects speed only. Passes
        start at ``min(chunk, 256)`` elements and double up to ``chunk``
        (see "Passes sized to the segment" in the module docstring).

    Returns
    -------
    list[Segment]
        Contiguous segments tiling ``[0, len(keys))``, each satisfying the
        error bound (checkable with
        :func:`repro.core.segment.verify_segments`).
    """
    keys = _as_sorted_keys(keys)
    error = _check_error(error)
    exact = _check_accept(accept)
    if chunk < 2:
        raise InvalidParameterError(f"chunk must be >= 2, got {chunk}")
    segments: List[Segment] = []
    i0 = 0
    n = len(keys)
    while i0 < n:
        end, lo, hi = _scan_segment_vector(keys, i0, error, exact, chunk)
        segments.append(
            Segment(float(keys[i0]), i0, _slope_from_cone(lo, hi), end - i0)
        )
        i0 = end
    return segments


def exact_cone(keys, error: float, *, chunk: int = 4096) -> List[Segment]:
    """ShrinkingCone with the exact (non-empty intersection) accept test."""
    return shrinking_cone(keys, error, accept="exact", chunk=chunk)


def cone_reach(
    keys: np.ndarray, i0: int, error: float, *, chunk: int = 4096
) -> int:
    """Maximal exclusive end of a feasible segment with origin ``i0``.

    Uses the exact accept test, so the result is the true maximal reach: a
    segment ``[i0, end)`` is feasible iff ``end <= cone_reach(keys, i0, e)``
    (feasibility is prefix-closed). This is the primitive behind the
    optimal segmentation in :mod:`repro.core.optimal`.
    """
    end, _, _ = _scan_segment_vector(keys, i0, error, True, chunk)
    return end


# ----------------------------------------------------------------------
# Fixed-size segmentation (baseline substrate) and bounds
# ----------------------------------------------------------------------

def fixed_segments(keys, page_size: int) -> List[Segment]:
    """Split ``keys`` into fixed-size pages, fitting a first-to-last slope.

    This is the paging scheme of the "Fixed" baseline: pages carry no error
    guarantee (interpolating inside one is *not* bounded by any error), so
    the resulting segments must not be fed to ``verify_segments``.
    """
    keys = _as_sorted_keys(keys)
    if page_size < 1:
        raise InvalidParameterError(f"page_size must be >= 1, got {page_size}")
    segments: List[Segment] = []
    n = len(keys)
    for start in range(0, n, page_size):
        end = min(start + page_size, n)
        span = keys[end - 1] - keys[start]
        slope = (end - 1 - start) / span if span > 0 else 0.0
        segments.append(Segment(float(keys[start]), start, float(slope), end - start))
    return segments


def max_segments_bound(n_keys: int, n_elements: int, error: float) -> float:
    """Paper Section 3.4 guarantee on ShrinkingCone's segment count.

    ``min(|keys| / 2, |D| / (error + 1))`` where ``|keys|`` counts distinct
    keys and ``|D|`` counts elements including duplicates.

    Caveat (documented in DESIGN.md): the ``|keys| / 2`` term assumes no
    single key repeats more than ``error + 1`` times. A longer duplicate
    run forces extra segments that share one key — the paper's own A.3
    construction relies on exactly this behaviour — so for duplicate-heavy
    inputs only the ``|D| / (error + 1)`` term (plus one trailing segment)
    is a sound bound for integer errors.
    """
    return min(n_keys / 2.0, n_elements / (error + 1.0))
