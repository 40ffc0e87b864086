"""The public API layer: one engine protocol, one factory, every backend.

This package is the front door of the reproduction's serving stack. It
holds no execution machinery of its own — just the two things every
caller needs:

* :mod:`repro.api.protocol` — the structural engine contracts.
  :class:`EngineProtocol` is the complete CRUD surface (``get_batch`` /
  ``range_batch`` / ``insert_batch`` / ``delete_batch``, scalar mirrors,
  ``version``, ``stats()``, ``warm()``, ``validate()``);
  :class:`BatchEngine` is the minimal subset the serving layer dispatches
  on.
* :mod:`repro.api.factory` — declarative construction.
  :class:`EngineConfig` names an executor (``single`` / ``sharded`` /
  ``cluster``), an index kind and the serve knobs; :func:`open_engine` /
  :func:`open_server` build the matching backend, so application code is
  written once against the protocol and deployed on any executor::

      from repro import EngineConfig, open_engine

      engine = open_engine(keys, executor="sharded", n_shards=4)
      values = engine.get_batch(queries)
      engine.delete_batch(expired)

The cross-backend conformance suite (``tests/api``) pins that every
backend opened here answers the same scenario bit-identically.
"""

from repro.api.factory import EngineConfig, open_engine, open_server
from repro.api.protocol import BatchEngine, EngineProtocol

__all__ = [
    "BatchEngine",
    "EngineConfig",
    "EngineProtocol",
    "open_engine",
    "open_server",
]
