"""Seeded request streams and the replies the oracle expects for them.

The keys of a stream are generated from ``numpy.random.default_rng(seed)``
and nothing else, the order of its verbs is a constant of the workload
(:func:`_draw_ops`); the program under test only ever sees the generated
keys. Expected
replies are fixed at generation time — also under 32 interleaved callers —
by splitting the key space into classes no two ops can race on:

* *quiet* build keys (every eighth block of 1024, plus the block around
  the two-backend cut) are never written near, so a range scan inside them
  returns the build slice whatever else is in flight;
* *deletable* build keys (odd positions outside the quiet blocks) are each
  deleted at most once and never read;
* every other build key is *readable* and never deleted;
* *fresh* keys sit in the gaps between build keys: eight insert slots and
  one never-inserted slot (for absent-key reads) per gap. A point read of
  an inserted key is only issued by the logical client that inserted it,
  after that insert returned.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from stackbench.spec import (OPS_BLOCK, RANGE_ROWS, RANGES_PER_BATCH,
                             ROUTER_BATCH, SCHEDULE_SEED)

GET, INSERT, DELETE, RANGE, GET_BATCH = range(5)
OP_CODES = {"get": GET, "insert": INSERT, "delete": DELETE, "range": RANGE,
            "get_batch": GET_BATCH}
VERBS = ("get", "insert", "delete", "range")

_BLOCK = 1024
_SLOTS = 8  # insert slots per gap; slot _SLOTS is the never-inserted one
_ZIPF_THETA = 0.99
_SCRAMBLE = 2654435761  # coprime with any n made of 2s and 5s


class KeySpace:
    """The build dataset cut into the key classes of the module doc.

    Values are the row ids ``arange(n)``, so the expected value of build
    key ``i`` is ``i`` and inserted keys carry ids from ``n`` upwards.
    """

    def __init__(self, keys: np.ndarray) -> None:
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        if keys.size < 4 * _BLOCK or np.any(np.diff(keys) <= 0):
            raise ValueError("build keys must be strictly increasing and "
                             f"at least {4 * _BLOCK} long")
        self.keys = keys
        self.n = n = keys.size
        self.values = np.arange(n, dtype=np.int64)
        idx = np.arange(n)
        self.cut = n // 2  # partition_cuts(keys, 2) cuts at keys[n // 2]
        quiet = ((idx // _BLOCK) % 8 == 0) | (np.abs(idx - self.cut) < _BLOCK // 2)
        self._deletable = ~quiet & (idx % 2 == 1)
        self.deletable_idx = np.flatnonzero(self._deletable)
        gap = np.diff(keys)
        self._gap_idx = np.flatnonzero(~quiet[:-1] & (gap > 1e-3))
        self._gap = gap
        starts = np.arange(0, n, 8 * _BLOCK)
        ends = np.minimum(starts + _BLOCK, n)
        keep = ends - starts > RANGE_ROWS
        self._quiet_starts, self._quiet_ends = starts[keep], ends[keep]
        self._zipf_cdf: Optional[np.ndarray] = None

    @property
    def n_fresh(self) -> int:
        return self._gap_idx.size * _SLOTS

    def fresh(self, ids: np.ndarray) -> np.ndarray:
        """Insertable keys for fresh-key ids in ``[0, n_fresh)``."""
        g = self._gap_idx[ids // _SLOTS]
        return self.keys[g] + self._gap[g] * ((ids % _SLOTS + 1) / (_SLOTS + 2))

    def absent(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Keys no op ever inserts."""
        g = self._gap_idx[rng.integers(0, self._gap_idx.size, size)]
        return self.keys[g] + self._gap[g] * ((_SLOTS + 1) / (_SLOTS + 2))

    def readable(self, rng: np.random.Generator, size: int,
                 dist: str = "uniform") -> np.ndarray:
        """Positions of ``size`` readable build keys."""
        if dist == "zipf":
            if self._zipf_cdf is None:
                w = np.arange(1, self.n + 1, dtype=np.float64) ** -_ZIPF_THETA
                self._zipf_cdf = np.cumsum(w) / w.sum()
            rank = np.searchsorted(self._zipf_cdf, rng.random(size))
            # A fixed scramble: the hot keys are the same keys under every
            # seed, only the order they are asked for in changes.
            idx = (np.minimum(rank, self.n - 1) * _SCRAMBLE) % self.n
        else:
            idx = rng.integers(0, self.n, size)
        return idx - self._deletable[idx]

    def quiet_slices(self, rng: np.random.Generator, size: int,
                     rows: int = RANGE_ROWS) -> Tuple[np.ndarray, np.ndarray]:
        """``[r0, r1)`` build slices of ``rows`` rows inside quiet blocks."""
        b = rng.integers(0, self._quiet_starts.size, size)
        room = self._quiet_ends[b] - self._quiet_starts[b] - rows
        r0 = self._quiet_starts[b] + (rng.random(size) * (room + 1)).astype(np.int64)
        return r0, r0 + rows

    def straddling_slices(self, rng: np.random.Generator, size: int,
                          rows: int) -> Tuple[np.ndarray, np.ndarray]:
        """Slices of ``rows`` rows that cross the two-backend cut."""
        r0 = self.cut - rng.integers(1, rows, size)
        return r0, r0 + rows


@dataclass
class Stream:
    """A generated op sequence with its expected replies.

    Scalar streams hold one row per op in the arrays; batch streams hold
    one entry per op in ``batches`` (``op`` is filled either way).
    ``val`` is the value to insert, or the expected reply of a get/delete
    (-1 = absent); ``r0:r1`` is the build slice a range / get_batch must
    return.
    """

    space: KeySpace
    op: np.ndarray
    key: np.ndarray = field(default_factory=lambda: np.empty(0))
    hi: np.ndarray = field(default_factory=lambda: np.empty(0))
    val: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    r0: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    r1: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    batches: Optional[List[tuple]] = None

    def __len__(self) -> int:
        return self.op.size

    def keys_per_op(self) -> np.ndarray:
        """Keys each op serves (a scalar op or one range counts 1)."""
        if self.batches is None:
            return np.where(self.op == GET_BATCH, ROUTER_BATCH, 1)
        return np.array([len(b[1]) for b in self.batches], dtype=np.int64)

    def digest(self) -> str:
        h = hashlib.sha256(self.op.tobytes())
        if self.batches is None:
            for arr in (self.key, self.hi, self.val, self.r0, self.r1):
                h.update(arr.tobytes())
        else:
            for b in self.batches:
                h.update(np.ascontiguousarray(b[1]).tobytes())
        return h.hexdigest()

    def model(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted ``(keys, values)`` the store must hold after every op."""
        sp = self.space
        alive = np.ones(sp.n, dtype=bool)
        if self.batches is None:
            alive[self.val[self.op == DELETE]] = False
            ins = self.op == INSERT
            add_k, add_v = self.key[ins], self.val[ins]
        else:
            inserted, gone = {}, set()
            for kind, a, b, _ in self.batches:
                if kind == INSERT:
                    inserted[int(b[0])] = (a, b)
                elif kind == DELETE:
                    if b[0] >= sp.n:
                        gone.add(int(b.min()))
                    else:
                        alive[b] = False
            live = [kv for first, kv in inserted.items() if first not in gone]
            add_k = np.concatenate([k for k, _ in live]) if live else np.empty(0)
            add_v = (np.concatenate([v for _, v in live]) if live
                     else np.empty(0, np.int64))
        keys = np.concatenate([sp.keys[alive], add_k])
        vals = np.concatenate([sp.values[alive], add_v])
        order = np.argsort(keys, kind="stable")
        return keys[order], vals[order]


def _draw_ops(n_ops: int, mix) -> np.ndarray:
    """Op codes with the mix's exact shares in every block of ``OPS_BLOCK``.

    The order of the verbs is part of the workload, not of the seed: it is
    drawn from a generator of its own (``SCHEDULE_SEED``), so every seed
    runs the same verbs in the same order on different keys. What a read
    costs depends on how many ops ago the last write was (the first read
    after a write rebuilds the flattened view: 7 ms against 0.2 ms), the
    median read sits between two such modes, and with a verb order per
    seed ``get_p50_us`` of ``engine-batch-mixed`` spread 19 % over ten seeds
    against 4 % over ten runs of one seed. Exact shares per block, for the
    same reason: drawing each op independently would let the number of
    (expensive) writes in a run vary by several percent.
    """
    rng = np.random.default_rng(SCHEDULE_SEED)
    codes = np.array([OP_CODES[k] for k in mix], dtype=np.uint8)
    shares = np.array(list(mix.values()), dtype=np.float64)
    shares /= shares.sum()
    blocks = []
    for start in range(0, n_ops, OPS_BLOCK):
        size = min(OPS_BLOCK, n_ops - start)
        counts = np.floor(shares * size).astype(np.int64)
        short = size - counts.sum()  # largest remainders get the rest
        counts[np.argsort(counts - shares * size)[:short]] += 1
        block = np.repeat(codes, counts)
        rng.shuffle(block)
        blocks.append(block)
    return np.concatenate(blocks)


def scalar_stream(space: KeySpace, seed: int, n_ops: int, mix, *,
                  clients: int, dist: str = "uniform",
                  straddle: bool = False) -> Stream:
    """One op per row: get / insert / delete / range (/ get_batch).

    A tenth of the gets ask for absent keys; with ``clients > 0`` another
    tenth re-read a key the same logical client (op index modulo
    ``clients``) inserted earlier. ``clients == 0`` is the open loop, where
    no two requests are ordered, so inserted keys are only checked by the
    end-of-run scan.
    """
    rng = np.random.default_rng(seed)
    op = _draw_ops(n_ops, mix)
    key = np.zeros(n_ops)
    hi = np.zeros(n_ops)
    val = np.full(n_ops, -1, dtype=np.int64)
    r0 = np.zeros(n_ops, dtype=np.int64)
    r1 = np.zeros(n_ops, dtype=np.int64)

    gets = np.flatnonzero(op == GET)
    idx = space.readable(rng, gets.size, dist)
    key[gets], val[gets] = space.keys[idx], idx
    u = rng.random(gets.size)
    miss = gets[u < 0.1]
    key[miss], val[miss] = space.absent(rng, miss.size), -1

    ins = np.flatnonzero(op == INSERT)
    dels = np.flatnonzero(op == DELETE)
    if ins.size > space.n_fresh or dels.size > space.deletable_idx.size:
        raise ValueError(
            f"{ins.size} inserts / {dels.size} deletes exceed what a "
            f"{space.n}-key dataset offers; lower --seconds"
        )
    key[ins] = space.fresh(rng.permutation(space.n_fresh)[: ins.size])
    val[ins] = space.n + np.arange(ins.size)
    didx = rng.permutation(space.deletable_idx)[: dels.size]
    key[dels], val[dels] = space.keys[didx], didx

    own = gets[(u >= 0.1) & (u < 0.2)]
    pick = rng.random(own.size)
    for c in range(clients):
        mine = ins[ins % clients == c]
        reads = np.flatnonzero(own % clients == c)
        before = np.searchsorted(mine, own[reads])
        ok = before > 0
        src = mine[(pick[reads][ok] * before[ok]).astype(np.int64)]
        key[own[reads][ok]], val[own[reads][ok]] = key[src], val[src]

    for code, rows in ((RANGE, RANGE_ROWS), (GET_BATCH, ROUTER_BATCH)):
        at = np.flatnonzero(op == code)
        if straddle:
            r0[at], r1[at] = space.straddling_slices(rng, at.size, rows)
        else:
            r0[at], r1[at] = space.quiet_slices(rng, at.size, rows)
        key[at], hi[at] = space.keys[r0[at]], space.keys[r1[at] - 1]
    return Stream(space, op, key, hi, val, r0, r1)


def batch_stream(space: KeySpace, seed: int, n_ops: int, mix, *,
                 batch: int) -> Stream:
    """One batch verb per op, for a single sequential caller.

    Entries are ``(op, keys_or_bounds, values_or_expected, slices)``.
    A get_batch mixes readable build keys, a tenth absent keys and an
    eighth keys of a still-live earlier insert batch; every delete_batch
    removes one whole earlier insert batch (oldest first), or deletable
    build keys while none is live.
    """
    rng = np.random.default_rng(seed)
    op = _draw_ops(n_ops, mix)
    n_ins = int((op == INSERT).sum()) * batch
    n_del = int((op == DELETE).sum()) * batch
    if n_ins > space.n_fresh or n_del > space.deletable_idx.size + n_ins:
        raise ValueError(
            f"{n_ins} inserted / {n_del} deleted keys exceed what a "
            f"{space.n}-key dataset offers; lower --seconds"
        )
    fresh_ids = rng.permutation(space.n_fresh)[:n_ins]
    doomed = rng.permutation(space.deletable_idx)
    next_id, used_fresh, used_doomed = space.n, 0, 0
    live: List[Tuple[np.ndarray, np.ndarray]] = []
    batches: List[tuple] = []
    for code in op:
        if code == GET:
            idx = space.readable(rng, batch)
            keys, exp = space.keys[idx], idx.copy()
            miss = rng.random(batch) < 0.1
            keys[miss], exp[miss] = space.absent(rng, int(miss.sum())), -1
            if live:
                lk, lv = live[rng.integers(0, len(live))]
                take = rng.integers(0, lk.size, batch // 8)
                keys[: batch // 8], exp[: batch // 8] = lk[take], lv[take]
            batches.append((GET, keys, exp, None))
        elif code == INSERT:
            keys = space.fresh(fresh_ids[used_fresh: used_fresh + batch])
            used_fresh += batch
            vals = np.arange(next_id, next_id + batch, dtype=np.int64)
            next_id += batch
            live.append((keys, vals))
            batches.append((INSERT, keys, vals, None))
        elif code == DELETE:
            if live:
                keys, vals = live.pop(0)
                order = rng.permutation(keys.size)
                batches.append((DELETE, keys[order], vals[order], None))
            else:
                idx = doomed[used_doomed: used_doomed + batch]
                used_doomed += batch
                batches.append((DELETE, space.keys[idx], idx, None))
        else:
            s0, s1 = space.quiet_slices(rng, RANGES_PER_BATCH)
            bounds = np.stack([space.keys[s0], space.keys[s1 - 1]], axis=1)
            batches.append((RANGE, bounds, None, (s0, s1)))
    return Stream(space, op, batches=batches)


def poisson_due_times(seed: int, n_ops: int, rate: float) -> np.ndarray:
    """Arrival offsets in seconds of a Poisson process at ``rate`` per s.

    Drawn from a generator of its own, so the schedule of a seed does not
    depend on how many numbers the stream consumed.
    """
    rng = np.random.default_rng([seed, 1])
    return np.cumsum(rng.exponential(1.0 / rate, n_ops))
