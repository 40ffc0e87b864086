"""TcpCluster's boot handshake: hello, then spec, then ready, fleet-wide.

The stub-context test pins the order (every backend started before any
spec is sent) and keeps the spec out of the process args, where
``spawn`` would pickle it into the child inside ``Process.start``. The
real-process tests pin the failed boot: a typed error that names the
backend, within ``_READY_TIMEOUT``, and no backend left running.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core.errors import NotSortedError
from repro.net import BackendBootError, TcpCluster
from repro.net import boot as boot_mod

KEYS = np.sort(np.random.default_rng(11).uniform(0, 1e6, 4_000))


def _fleet_children():
    return [
        p
        for p in multiprocessing.active_children()
        if p.name.startswith("repro-net-backend-")
    ]


def _holds_array(obj) -> bool:
    if isinstance(obj, np.ndarray):
        return True
    if isinstance(obj, dict):
        return any(_holds_array(v) for v in obj.values())
    if isinstance(obj, (tuple, list)):
        return any(_holds_array(v) for v in obj)
    return False


class _StubConn:
    """The parent end of a fake pipe: answers hello, then ready once its
    spec arrives; every ``send`` is logged."""

    def __init__(self, idx: int, log: list):
        self.idx = idx
        self.log = log
        self.spec = None

    def poll(self, timeout=None):
        return True

    def recv(self):
        if self.spec is None:
            return ("hello", 1000 + self.idx)
        return ("ready", 9000 + self.idx, 1000 + self.idx)

    def send(self, msg):
        self.log.append(("send", self.idx, msg))
        if isinstance(msg, dict):
            self.spec = msg

    def close(self):
        pass


class _StubProcess:
    def __init__(self, target, args, name, daemon, log):
        self.target, self.args, self.name = target, args, name
        self.log = log
        self.exitcode = None
        self.pid = None

    def start(self):
        self.log.append(("start", self.name, self.args))

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass


class _StubContext:
    def __init__(self):
        self.log: list = []
        self.pipes = 0

    def Pipe(self):
        conn = _StubConn(self.pipes, self.log)
        self.pipes += 1
        return conn, _StubConn(-1, self.log)

    def Process(self, *, target, args, name, daemon):
        return _StubProcess(target, args, name, daemon, self.log)


def test_every_backend_starts_before_any_spec_and_no_args_hold_keys():
    fleet = TcpCluster(KEYS, backends=3, n_shards=1)
    ctx = fleet._ctx = _StubContext()
    fleet.start()
    kinds = [entry[0] for entry in ctx.log]
    assert kinds.count("start") == 3
    first_send = kinds.index("send")
    assert kinds[:first_send] == ["start"] * 3
    for _, _, args in (e for e in ctx.log if e[0] == "start"):
        assert not _holds_array(args)
    specs = [e for e in ctx.log if e[0] == "send"]
    assert [idx for _, idx, _ in specs] == [0, 1, 2]
    assert sum(spec["keys"].size for _, _, spec in specs) == KEYS.size
    assert fleet.addresses == [("127.0.0.1", 9000 + i) for i in range(3)]
    assert fleet.pids == [1000, 1001, 1002]
    fleet.stop()


def test_unsorted_slice_fails_typed_and_stops_the_whole_fleet():
    fleet = TcpCluster(KEYS, backends=2, n_shards=1)
    keys, values = fleet._slices[1]
    fleet._slices[1] = (keys[::-1].copy(), values)
    t0 = time.monotonic()
    with pytest.raises(BackendBootError) as info:
        with fleet:
            pass  # pragma: no cover - the boot must fail
    assert time.monotonic() - t0 < boot_mod._READY_TIMEOUT
    assert info.value.backend == 1
    assert isinstance(info.value.error, NotSortedError)
    assert _fleet_children() == []


def test_failed_restart_stops_only_the_backend_it_started():
    with TcpCluster(KEYS, backends=2, n_shards=1) as fleet:
        keys, values = fleet._slices[1]
        fleet._slices[1] = (keys[::-1].copy(), values)
        with pytest.raises(BackendBootError) as info:
            fleet.restart(1)
        assert info.value.backend == 1
        assert [p.name for p in _fleet_children()] == ["repro-net-backend-0"]
    assert _fleet_children() == []


def _exit_before_hello(conn):
    """Module-level, so a spawned child can import it."""
    os._exit(3)


class _ExitingContext:
    """Spawn context whose backends exit with code 3 before their hello."""

    def __init__(self):
        self._real = multiprocessing.get_context("spawn")

    def Pipe(self):
        return self._real.Pipe()

    def Process(self, *, target, args, name, daemon):
        return self._real.Process(
            target=_exit_before_hello, args=args, name=name, daemon=daemon
        )


def test_child_that_exits_before_its_hello_fails_the_boot():
    fleet = TcpCluster(KEYS, backends=2, n_shards=1)
    fleet._ctx = _ExitingContext()
    t0 = time.monotonic()
    with pytest.raises(BackendBootError) as info:
        fleet.start()
    assert time.monotonic() - t0 < boot_mod._READY_TIMEOUT
    assert info.value.backend == 0
    assert info.value.exitcode == 3
    assert info.value.error is None
    assert _fleet_children() == []
