#!/usr/bin/env python3
"""cProfile an in-process ``ShardedEngine`` under a write/read interleave.

The profiling hook ROADMAP item 2 asks for: build an engine, drive it with
batches of which a given share are writes (inserts, and deletes: half of
them take back an earlier insert batch, half remove build keys, which
tombstone page data) and the rest ``get_batch`` reads, and print the top 25
rows by cumulative time. ``--batch 1`` is the serving tier's shape (every read
lands right after some write, so the read cache's refresh cost is the
story); large batches are the analytics shape.

cProfile charges every Python call and no native work, so proportions
shift toward call-heavy code: use it to find candidates, then measure them
with profiling off through ``python3 -m stackbench``.

    PYTHONPATH=src python tools/profile_mix.py --n 250000 --shards 2 \\
        --batch 1 --write-share 0.12 --ops 20000
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats

import numpy as np

from repro import ShardedEngine


def drive(engine: ShardedEngine, keys: np.ndarray, args) -> None:
    """Run ``args.ops`` batches against ``engine``; a delete takes back an
    earlier insert batch or removes build keys (each at most once)."""
    rng = np.random.default_rng(args.seed)
    lo, hi = float(keys[0]), float(keys[-1])
    inserted = []
    doomed = iter(rng.permutation(keys.size).tolist())
    for is_write in rng.random(args.ops) < args.write_share:
        roll = rng.random()
        if not is_write:
            engine.get_batch(keys[rng.integers(0, keys.size, args.batch)])
        elif roll < 0.2:
            engine.delete_batch(keys[[next(doomed) for _ in range(args.batch)]])
        elif inserted and roll < 0.4:
            engine.delete_batch(inserted.pop())
        else:
            batch = rng.uniform(lo, hi, args.batch)
            engine.insert_batch(batch)
            inserted.append(batch)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=250_000, help="build keys")
    ap.add_argument("--shards", type=int, default=2)
    ap.add_argument("--batch", type=int, default=1, help="keys per call")
    ap.add_argument("--write-share", type=float, default=0.12)
    ap.add_argument("--ops", type=int, default=20_000, help="calls to drive")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    keys = np.sort(rng.uniform(0.0, 1e6, args.n))
    engine = ShardedEngine(keys, n_shards=args.shards)
    engine.warm()

    profile = cProfile.Profile()
    profile.enable()
    drive(engine, keys, args)
    profile.disable()

    out = io.StringIO()
    pstats.Stats(profile, stream=out).sort_stats("cumulative").print_stats(25)
    print(out.getvalue())
    events = engine._view_stats
    print(
        f"view builds {events['view_builds']}, pages re-exported "
        f"{events['view_pages_exported']} "
        f"({events['view_pages_exported'] / max(events['view_builds'], 1):.1f}"
        f" per build; {engine.stats()['n_pages']} pages in all)"
    )
    engine.validate()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
