"""Typed failures of the multi-process cluster layer."""

from __future__ import annotations

__all__ = ["ClusterError", "WorkerCrashedError"]


class ClusterError(RuntimeError):
    """A cluster-level failure: a worker process died, stopped responding,
    or the engine was used after :meth:`~repro.cluster.ClusterEngine.close`.

    Deliberately distinct from the index-level exceptions in
    :mod:`repro.core.errors`: those are re-raised transparently when a
    worker reports them (an invalid parameter is an invalid parameter on
    either side of the process boundary), whereas a ``ClusterError`` means
    the *transport* failed and shard state on the other side is unknown.
    """


class WorkerCrashedError(ClusterError):
    """A shard's worker process exited or broke its pipe mid-conversation.

    Carries ``shard`` (the shard id) and ``exitcode`` (the process's exit
    code, or ``None`` if it is unjoined/hung) so callers can report which
    range of the key space became unavailable.
    """

    def __init__(self, shard: int, exitcode=None, detail: str = "") -> None:
        self.shard = shard
        self.exitcode = exitcode
        message = f"worker for shard {shard} crashed (exitcode={exitcode})"
        if detail:
            message += f": {detail}"
        super().__init__(message)

