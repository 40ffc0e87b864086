"""EngineConfig <-> JSON round-trip: every field survives, typos fail loudly."""

import numpy as np
import pytest

from repro import EngineConfig, Telemetry, open_engine
from repro.core.errors import InvalidParameterError


def test_default_config_round_trips():
    cfg = EngineConfig()
    assert EngineConfig.from_json(cfg.to_json()) == cfg


def test_non_default_fields_round_trip():
    cfg = EngineConfig(
        executor="cluster",
        n_shards=3,
        index="fixed",
        page_size=128,
        buffer_capacity=8,
        index_kwargs={"search": "linear"},
        lane_capacity=1 << 20,
        op_timeout=5.0,
        max_batch=64,
        max_delay=0.01,
        eager_flush=False,
        max_pending=100,
        overload="reject",
        latency_window=500,
        telemetry="metrics",
    )
    back = EngineConfig.from_json(cfg.to_json())
    assert back == cfg


def test_telemetry_instance_collapses_to_mode_string():
    cfg = EngineConfig(telemetry=Telemetry(mode="full"))
    data = cfg.to_dict()
    assert data["telemetry"] == "full"
    back = EngineConfig.from_dict(data)
    assert back.telemetry == "full"


def test_unknown_key_rejected():
    with pytest.raises(InvalidParameterError, match="unknown EngineConfig"):
        EngineConfig.from_dict({"n_shards": 2, "shards": 4})


def test_invalid_json_rejected():
    with pytest.raises(InvalidParameterError, match="invalid config JSON"):
        EngineConfig.from_json("{not json")
    with pytest.raises(InvalidParameterError, match="must be a dict"):
        EngineConfig.from_json("[1, 2]")


def test_from_dict_validates_fields():
    with pytest.raises(InvalidParameterError, match="executor"):
        EngineConfig.from_dict({"executor": "gpu"})
    with pytest.raises(InvalidParameterError, match="telemetry"):
        EngineConfig.from_dict({"telemetry": "verbose"})


def test_opaque_runtime_objects_do_not_serialize():
    import multiprocessing as mp

    cfg = EngineConfig(mp_context=mp.get_context("spawn"))
    with pytest.raises(InvalidParameterError, match="mp_context"):
        cfg.to_json()
    # A string setting of the same field serializes fine.
    cfg = EngineConfig(mp_context="spawn")
    back = EngineConfig.from_json(cfg.to_json())
    assert back.mp_context == "spawn"


def test_removed_serve_knobs_fail_loudly():
    for name in ("serve_executor", "shard_concurrency"):
        with pytest.raises(InvalidParameterError, match=name):
            EngineConfig.from_dict({name: None})


def test_round_tripped_config_opens_an_engine():
    keys = np.sort(np.random.default_rng(3).uniform(0, 1e6, 2_000))
    cfg = EngineConfig.from_json(
        EngineConfig(n_shards=2, telemetry="metrics").to_json()
    )
    engine = open_engine(keys, config=cfg)
    engine.get_batch(keys[:8])
    assert engine.telemetry is not None
    assert engine.telemetry.mode == "metrics"
