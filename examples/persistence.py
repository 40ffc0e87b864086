"""Persistence: build once, save, reload, keep serving (library extension).

Bulk loading segments the whole attribute; for a production index you do
that once and persist the result. ``save_index``/``load_index`` round-trip
the full state — segments, slopes, insert buffers, row-id counter — through
a single .npz file, written uncompressed so that saving costs the bytes
and not a zlib pass.

Run:  python examples/persistence.py
"""

import os
import tempfile
import time

from repro import FITingTree, load_index, save_index
from repro.datasets import weblogs


def main() -> None:
    keys = weblogs(500_000, seed=11)

    t0 = time.perf_counter()
    index = FITingTree(keys, error=128)
    build_s = time.perf_counter() - t0
    print(f"built: {index.n_segments:,} segments over {len(keys):,} keys "
          f"in {build_s:.2f}s")

    # Buffer a few live inserts so the save captures in-flight state too.
    for i in range(100):
        index.insert(keys[-1] + 1.0 + i, 10_000_000 + i)

    path = os.path.join(tempfile.gettempdir(), "weblogs_fiting.npz")
    t0 = time.perf_counter()
    save_index(index, path)
    save_s = time.perf_counter() - t0
    size_mb = os.path.getsize(path) / 1024 / 1024
    print(f"saved to {path}: {size_mb:.1f} MB in {save_s:.2f}s "
          "(data + index + buffers)")

    t0 = time.perf_counter()
    loaded = load_index(path)
    load_s = time.perf_counter() - t0
    print(f"loaded in {load_s:.2f}s (vs {build_s:.2f}s to re-segment): "
          f"{loaded.n_segments:,} segments, n={len(loaded):,}")

    # The reloaded index serves reads and writes immediately.
    assert loaded.get(keys[123_456]) == 123_456
    assert loaded.get(keys[-1] + 1.0) == 10_000_000  # buffered insert survived
    loaded.insert(keys[-1] + 500.0)
    loaded.validate()
    print("reloaded index verified: lookups, buffered inserts and the "
          "row-id counter all survived the round trip")
    os.unlink(path)


if __name__ == "__main__":
    main()
