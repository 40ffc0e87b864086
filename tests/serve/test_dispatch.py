"""The batcher's one dispatch loop: each chunk makes one engine call, and
its failure rules hold for every verb.

* A chunk of several ops whose call provably applied nothing retries each
  op alone (``scalar_fallbacks`` counts it).
* A one-op chunk, or a write that may have applied a prefix, rejects every
  op in the chunk with the call's exception and retries nothing.
* ``Server.get_batch`` is a get op like any other: it waits at the
  read-your-writes fence.
"""

import asyncio
from collections import Counter

import numpy as np
import pytest

from repro.engine import ShardedEngine
from repro.serve import RequestBatcher, Server


def run(coro):
    return asyncio.run(coro)


class Wrapped:
    """An engine proxy that counts the calls to the verbs it overrides."""

    def __init__(self, engine):
        self.inner = engine
        self.calls = Counter()

    def __getattr__(self, name):
        return getattr(self.inner, name)


class BatchesRaise(Wrapped):
    """Every batch write and range verb fails without applying."""

    def _fail(self, verb):
        self.calls[verb] += 1
        raise RuntimeError(verb)

    def insert_batch(self, keys, values=None):
        self._fail("insert_batch")

    def delete_batch(self, keys, **kwargs):
        self._fail("delete_batch")

    def range_batch(self, bounds, include_lo=True, include_hi=True):
        self._fail("range_batch")


class AppliesThenRaises(Wrapped):
    """The batch writes apply every key, then fail, and count each call
    (a per-op retry would show up as a second one)."""

    def insert_batch(self, keys, values=None):
        self.calls["insert_batch"] += 1
        self.inner.insert_batch(keys, values)
        raise RuntimeError("insert_batch failed after applying")

    def delete_batch(self, keys, **kwargs):
        self.calls["delete_batch"] += 1
        self.inner.delete_batch(keys, **kwargs)
        raise RuntimeError("delete_batch failed after applying")


def build_engine():
    return ShardedEngine(np.arange(10_000.0), n_shards=2)


@pytest.mark.parametrize(
    "submit, verb",
    [
        (lambda b: b.submit_insert(123.5, 7), "insert_batch"),
        (lambda b: b.submit_range(10.0, 20.0), "range_batch"),
        (lambda b: b.submit_delete(42.0), "delete_batch"),
    ],
    ids=["insert", "range", "delete"],
)
def test_a_failing_one_op_chunk_calls_the_engine_once(submit, verb):
    engine = BatchesRaise(build_engine())

    async def main():
        batcher = RequestBatcher(engine)
        with pytest.raises(RuntimeError, match=verb):
            await submit(batcher)
        return batcher.stats()

    stats = run(main())
    assert engine.calls == {verb: 1}
    assert stats["scalar_fallbacks"] == 0


@pytest.mark.parametrize("kind", ["insert", "delete"])
def test_a_partly_applied_write_chunk_rejects_every_op_and_retries_none(kind):
    inner = build_engine()
    engine = AppliesThenRaises(inner)
    keys = [100.5, 200.5, 300.5] if kind == "insert" else [100.0, 200.0, 300.0]

    async def main():
        batcher = RequestBatcher(engine)
        if kind == "insert":
            futs = [batcher.submit_insert(k, i) for i, k in enumerate(keys)]
        else:
            futs = [batcher.submit_delete(k) for k in keys]
        out = await asyncio.gather(*futs, return_exceptions=True)
        return out, batcher.stats()

    out, stats = run(main())
    assert engine.calls == {f"{kind}_batch": 1}
    assert all(isinstance(exc, RuntimeError) for exc in out)
    assert len({id(exc) for exc in out}) == 1  # the chunk's one exception
    assert stats["scalar_fallbacks"] == 0
    assert stats["barrier_version"] == inner.version
    # The chunk really was applied, once.
    assert len(inner) == 10_000 + (3 if kind == "insert" else -3)


def test_a_failing_read_chunk_retries_each_op_alone():
    engine = build_engine()

    async def main():
        batcher = RequestBatcher(engine)
        good = batcher.submit_range(10.0, 12.0)
        bad = batcher.submit_range("x", "y")
        return await asyncio.gather(good, bad, return_exceptions=True), (
            batcher.stats()
        )

    (good, bad), stats = run(main())
    assert good[0].tolist() == [10.0, 11.0, 12.0]
    assert isinstance(bad, ValueError)
    assert stats["scalar_fallbacks"] == 1


def test_a_none_range_bound_is_open_in_one_batch_call():
    engine = build_engine()

    async def main():
        batcher = RequestBatcher(engine)
        alone = await batcher.submit_range(None, 2.0)
        both = await asyncio.gather(
            batcher.submit_range(9_997.0, None), batcher.submit_range(5.0, 6.0)
        )
        return alone, both, batcher.stats()

    alone, (top, mid), stats = run(main())
    assert alone[0].tolist() == [0.0, 1.0, 2.0]
    assert top[0].tolist() == [9_997.0, 9_998.0, 9_999.0]
    assert mid[0].tolist() == [5.0, 6.0]
    assert stats["batches"]["range"] == 2
    assert stats["scalar_fallbacks"] == 0


def test_get_batch_waits_for_a_pending_insert():
    engine = build_engine()

    async def main():
        async with Server(engine) as server:
            ins = asyncio.ensure_future(server.insert(123.5, 7))
            await asyncio.sleep(0)  # the insert is pending, not yet flushed
            got = await server.get_batch([123.5], "MISS")
            await ins
            return list(got), server.stats()["batcher"]

    got, batcher = run(main())
    assert got == [7]
    assert batcher["barrier_held"] == 1
    assert batcher["ops"]["get"] == 1  # counted per key


def test_a_get_answers_a_plain_value_or_the_callers_own_default():
    engine = build_engine()
    default = 2.5

    async def main():
        async with Server(engine) as server:
            return await server.get(3.0), await server.get(0.5, default)

    hit, miss = run(main())
    assert hit == 3 and type(hit) is int
    assert miss is default
