"""The ``durable-write`` stack: a child process that is killed, then recovered.

The child opens a WAL-backed engine, runs the batch stream it was handed
and acknowledges every batch over a pipe with its timings and reply. The
parent SIGKILLs it after the last acknowledgement — no ``close()``, no
final flush — reopens the directory and checks that every acknowledged
write is there. The flush policy is fixed: fsync on every commit,
foreground snapshots every 512 KiB of log.

Killing a process leaves the operating system's page cache intact, so
this proves the program wrote and ordered its bytes, not that a device
kept them; ``wal_sync=True`` is what stands between the two, and its cost
is the sandbox's fsync, not a disk's.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import shutil
import signal
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from stackbench.load import Timeline, call_batch
from stackbench.measure import (UNIT_REPEATS, speed_unit_ns,
                                speed_unit_samples)
from stackbench.oracle import Failure
from stackbench.spec import ERROR, OUT_DIR
from stackbench.streams import Stream

DURABLE_CONFIG = dict(
    executor="sharded", n_shards=4, error=ERROR, durability="wal+snapshot",
    wal_sync=True, snapshot_interval_bytes=1 << 19, background_snapshots=False,
)
_ACK_TIMEOUT_S = 60.0


def child_main(conn: Any, keys: Any, values: Any, data_dir: str) -> None:
    """Child entry point: open, report ready, run what arrives, wait."""
    from repro import open_engine

    t = time.perf_counter()
    engine = open_engine(keys, values, data_dir=data_dir, **DURABLE_CONFIG)
    engine.warm()
    conn.send(("ready", time.perf_counter() - t))
    msg = conn.recv()
    if msg[0] == "run":
        _, batches, edges, deadline_ns, unit_repeats = msg
        for lo, hi in zip(edges[:-1], edges[1:]):
            gc.collect()
            conn.send(("round", speed_unit_ns(speed_unit_samples(unit_repeats)),
                       time.perf_counter_ns()))
            for i in range(lo, hi):
                if time.perf_counter_ns() > deadline_ns:
                    break
                t0 = time.perf_counter_ns()
                try:
                    reply = call_batch(engine, batches[i])
                except Exception as exc:
                    reply = Failure(repr(exc))
                conn.send(("ack", i, t0, time.perf_counter_ns(), reply))
            conn.send(("round_end", lo, time.perf_counter_ns()))
        conn.send(("done", speed_unit_ns(speed_unit_samples(unit_repeats)),
                   engine.stats()))
        conn.recv()  # the parent kills us here; a "stop" also ends it
    engine.close()


def dir_bytes(path: str) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


class DurableChild:
    """One child process over one fresh data directory."""

    def __init__(self, space: Any) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.data_dir = str(OUT_DIR / f"durable-{os.getpid()}-{time.monotonic_ns()}")
        ctx = mp.get_context("spawn")
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=child_main,
            args=(child_conn, space.keys, space.values, self.data_dir),
            name="stackbench-durable", daemon=True,
        )
        t = time.perf_counter()
        self.proc.start()
        child_conn.close()
        try:
            self._recv()  # ("ready", seconds the child spent opening)
        except BaseException:
            self.discard()
            raise
        self.setup_s = time.perf_counter() - t

    def _recv(self) -> tuple:
        if not self.conn.poll(_ACK_TIMEOUT_S):
            raise TimeoutError("durable child sent nothing for "
                               f"{_ACK_TIMEOUT_S:.0f} s")
        return self.conn.recv()

    def run(self, stream: Stream, edges: List[int], tl: Timeline,
            deadline_ns: int, unit_repeats: int = UNIT_REPEATS
            ) -> Tuple[List[int], List[int], Dict[str, Any]]:
        """Run the stream; returns per-round wall ns, the speed units the
        child timed before each round and after the last, and its stats."""
        self.conn.send(("run", stream.batches, edges, deadline_ns,
                        unit_repeats))
        walls, units, started = [], [], 0
        while True:
            msg = self._recv()
            if msg[0] == "ack":
                _, i, tl.t0[i], tl.t1[i], tl.replies[i] = msg
            elif msg[0] == "round":
                units.append(msg[1])
                started = msg[2]
            elif msg[0] == "round_end":
                walls.append(msg[2] - started)
            else:
                return walls, units + [msg[1]], msg[2]

    def kill(self) -> int:
        """SIGKILL the child; returns the bytes its directory holds."""
        held = dir_bytes(self.data_dir)
        os.kill(self.proc.pid, signal.SIGKILL)
        self.proc.join(timeout=30.0)
        self.conn.close()
        return held

    def recover(self) -> Tuple[float, int, Any, int]:
        """Reopen the killed child's directory in this process."""
        from repro import open_engine

        t = time.perf_counter()
        engine = open_engine(data_dir=self.data_dir, **DURABLE_CONFIG)
        n = len(engine)
        recover_s = time.perf_counter() - t
        try:
            return (recover_s, n, engine.range_arrays(None, None),
                    engine.stats()["model_bytes"])
        finally:
            engine.close()

    def discard(self) -> None:
        """Stop the child if it still runs and remove its directory."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=30.0)
        self.conn.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)
