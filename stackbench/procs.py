"""Nothing the benchmark starts may outlive it.

The stacks stop their own workers, but ``multiprocessing`` also starts a
resource-tracker process that only ends *after* its parent has gone, a
crashed backend can leave grandchildren behind, and an exception or a
SIGTERM can skip a ``close()``. So the run makes itself the adopter of every
orphan below it (``PR_SET_CHILD_SUBREAPER``) and, on every way out, stops
what still runs and waits until ``/proc`` shows no process left beneath it.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from typing import Dict, List, Optional

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans(on: bool = True) -> None:
    """Have descendants whose parent dies re-parented to this process, so
    that :func:`reap_descendants` can wait for them (Linux only)."""
    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_CHILD_SUBREAPER, int(on), 0, 0, 0)
    except (ImportError, OSError, AttributeError):
        pass


def descendants(root: int) -> List[int]:
    """Pids of every process below ``root`` (zombies too), from ``/proc``."""
    parent: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces and ")"
                parent[int(entry)] = int(fh.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # ended while we looked
    found: List[int] = []
    frontier = [root]
    while frontier:
        above = set(frontier)
        frontier = [pid for pid, ppid in parent.items()
                    if ppid in above and pid not in found and pid != root]
        found += frontier
    return found


def _kill_and_wait(spare: Optional[int], deadline: float) -> List[int]:
    """SIGKILL every descendant but ``spare`` and wait for them; returns
    the ones still there at ``deadline``."""
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass  # no child at all
        left = [pid for pid in descendants(os.getpid()) if pid != spare]
        if not left or time.monotonic() > deadline:
            return left
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.005)


def _resource_tracker() -> Optional[object]:
    """``multiprocessing``'s tracker object, if this process started one."""
    return getattr(sys.modules.get("multiprocessing.resource_tracker"),
                   "_resource_tracker", None)


def _close_resource_tracker() -> None:
    """Let the tracker end the way it ends itself: close our end of its
    pipe. It exits once every process that inherited the pipe is gone, and
    unlinks the shared memory they leaked on its way.

    Its own ``_stop()`` is not used: that takes a lock the interrupted code
    may hold (this also runs from a signal handler) and waits without limit.
    """
    tracker = _resource_tracker()
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        tracker._fd = None
        try:
            os.close(fd)
        except OSError:
            pass


def reap_descendants(timeout_s: float = 30.0) -> List[int]:
    """Kill and wait for every process below this one.

    Workers first — they hold the resource tracker's pipe open — then the
    tracker is given two seconds to clean up and leave by itself, then
    whatever is left is killed too. Returns the pids still there after
    ``timeout_s`` (none, unless a process sits in an uninterruptible wait).
    """
    deadline = time.monotonic() + timeout_s
    tracker = getattr(_resource_tracker(), "_pid", None)
    _kill_and_wait(tracker, deadline)
    _close_resource_tracker()
    patience = min(deadline, time.monotonic() + 2.0)
    while tracker in descendants(os.getpid()) and time.monotonic() < patience:
        try:
            os.waitpid(tracker, os.WNOHANG)
        except ChildProcessError:
            break
        time.sleep(0.005)
    return _kill_and_wait(None, deadline)
