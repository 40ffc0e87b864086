"""Validate before log: a rejected write touches neither log nor state.

The serve batcher retries a failed batch per item when the engine's
``version`` did not move; that is only safe if an unmoved version also
means *nothing was logged* — a committed record for a batch that never
applied would replay into a state the live engine never had.
"""

import numpy as np
import pytest

from repro.api import open_engine
from repro.core.errors import InvalidParameterError

KEYS = np.arange(1000.0)
VALUES = np.arange(1000)
OBJECTS = np.asarray(["a", "b"], dtype=object)

REJECTED = {
    "misaligned values": lambda e: e.insert_batch([1.5, 900.5], [1]),
    "object payload": lambda e: e.insert_batch([1.5, 900.5], OBJECTS),
    "scalar without a value": lambda e: e.insert(1.5),
    "unknown missing mode": lambda e: e.delete_batch(
        [1.0, 900.0], missing="bogus"
    ),
}
READ_ONLY = {
    "insert_batch": lambda e: e.insert_batch([1.5, 900.5], [1, 2]),
    "insert": lambda e: e.insert(1.5, 1),
    "delete_batch": lambda e: e.delete_batch([1.0, 900.0]),
    "delete": lambda e: e.delete(1.0),
}


@pytest.mark.parametrize("executor", ["sharded", "cluster"])
@pytest.mark.parametrize("read_only", [False, True])
def test_rejected_write_touches_neither_log_nor_state(
    tmp_path, executor, read_only
):
    engine = open_engine(
        KEYS, VALUES, executor=executor, n_shards=2, error=64.0,
        buffer_capacity=0 if read_only else None,
        durability="wal", data_dir=str(tmp_path), wal_sync=False,
    )
    try:
        def observed():
            return engine.stats()["wal"]["records"], engine.version, len(engine)

        before = observed()
        for label, write in (READ_ONLY if read_only else REJECTED).items():
            with pytest.raises(InvalidParameterError):
                write(engine)
            assert observed() == before, label
    finally:
        engine.close()
