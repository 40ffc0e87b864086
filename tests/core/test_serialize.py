"""Save/load round trips for the FITing-Tree."""

import zipfile

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.core.fiting_tree import FITingTree
from repro.core.serialize import load_index, load_state, save_index


def roundtrip(index, tmp_path):
    path = str(tmp_path / "index.npz")
    save_index(index, path)
    return load_index(path)


class TestRoundTrip:
    def test_fresh_index(self, uniform_keys, tmp_path):
        index = FITingTree(uniform_keys, error=64)
        loaded = roundtrip(index, tmp_path)
        loaded.validate()
        assert len(loaded) == len(index)
        assert loaded.n_segments == index.n_segments
        assert loaded.model_bytes() == index.model_bytes()
        for i in range(0, len(uniform_keys), 199):
            assert loaded.get(uniform_keys[i]) == i

    def test_after_mutations(self, uniform_keys, tmp_path, rng):
        index = FITingTree(uniform_keys, error=32, buffer_capacity=8)
        inserted = rng.uniform(0, 1e6, 500)
        for i, k in enumerate(inserted):
            index.insert(k, 100_000 + i)
        for k in uniform_keys[::500]:
            index.delete(k)
        loaded = roundtrip(index, tmp_path)
        loaded.validate()
        assert len(loaded) == len(index)
        assert list(loaded.items()) == list(index.items())
        # Buffered (unmerged) inserts survive the round trip.
        assert loaded.get(inserted[0]) == 100_000

    def test_rowid_counter_survives(self, uniform_keys, tmp_path):
        index = FITingTree(uniform_keys, error=64)
        index.insert(1e7)
        loaded = roundtrip(index, tmp_path)
        loaded.insert(1e7 + 1)
        assert loaded.get(1e7 + 1) == len(uniform_keys) + 1

    def test_parameters_survive(self, uniform_keys, tmp_path):
        index = FITingTree(
            uniform_keys, error=48, buffer_capacity=7, accept="exact",
            search="exponential", branching=8,
        )
        loaded = roundtrip(index, tmp_path)
        assert loaded.error == 48
        assert loaded.buffer_capacity == 7
        assert loaded.seg_error == 41
        assert loaded._accept == "exact"
        assert loaded.search_mode == "exponential"
        assert loaded.branching == 8

    def test_empty_index(self, tmp_path):
        loaded = roundtrip(FITingTree(error=16), tmp_path)
        assert len(loaded) == 0
        loaded.insert(1.0)
        assert loaded.get(1.0) == 0

    def test_float_values(self, tmp_path):
        keys = np.arange(100, dtype=np.float64)
        index = FITingTree(keys, keys * 0.5, error=8)
        loaded = roundtrip(index, tmp_path)
        assert loaded.get(10.0) == 5.0
        loaded.insert(200.0, 100.0)
        assert loaded.get(200.0) == 100.0

    def test_duplicate_runs_survive(self, tmp_path):
        keys = np.sort(np.concatenate([np.full(40, 5.0), np.arange(40.0)]))
        index = FITingTree(keys, error=4, buffer_capacity=2)
        expected = len(index.lookup_all(5.0))
        assert expected == 41  # 40 explicit + the 5.0 inside arange(40)
        loaded = roundtrip(index, tmp_path)
        assert len(loaded.lookup_all(5.0)) == expected

    def test_loaded_index_mutable(self, uniform_keys, tmp_path):
        loaded = roundtrip(FITingTree(uniform_keys, error=32), tmp_path)
        for i in range(200):
            loaded.insert(float(i) * 11.13, 900_000 + i)
        loaded.validate()
        assert len(loaded) == len(uniform_keys) + 200


class TestErrors:
    def test_object_values_rejected(self, tmp_path):
        values = np.array(["a", "b"], dtype=object)
        index = FITingTree(np.arange(2.0), values, error=4)
        with pytest.raises(InvalidParameterError):
            save_index(index, str(tmp_path / "x.npz"))

    def test_wrong_type_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            save_index({"not": "an index"}, str(tmp_path / "x.npz"))

    def test_version_check(self, uniform_keys, tmp_path):
        import json

        path = str(tmp_path / "index.npz")
        save_index(FITingTree(uniform_keys[:100], error=16), path)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"]).decode())
        meta["format_version"] = 999
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(InvalidParameterError, match="version"):
            load_index(path)


class TestFormat:
    """The archive is stored; compressed files from older writers load."""

    def _mutated(self, keys, rng):
        index = FITingTree(keys, error=32, buffer_capacity=8)
        for i, k in enumerate(rng.uniform(0, 1e6, 300)):
            index.insert(k, 100_000 + i)
        for k in keys[::400]:
            index.delete(k)
        return index

    def test_every_member_is_stored(self, uniform_keys, tmp_path, rng):
        path = str(tmp_path / "index.npz")
        save_index(self._mutated(uniform_keys, rng), path)
        with zipfile.ZipFile(path) as zf:
            members = zf.infolist()
        assert {m.filename for m in members} >= {"meta.npy", "data_keys.npy"}
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)

    def test_compressed_file_loads_bit_identically(
        self, uniform_keys, tmp_path, rng
    ):
        index = self._mutated(uniform_keys, rng)
        stored = str(tmp_path / "stored.npz")
        compressed = str(tmp_path / "compressed.npz")
        save_index(index, stored)
        # The old writer: np.savez_compressed over the same members.
        with np.load(stored) as archive:
            np.savez_compressed(
                compressed, **{k: archive[k] for k in archive.files}
            )
        with zipfile.ZipFile(compressed) as zf:
            assert all(
                m.compress_type == zipfile.ZIP_DEFLATED for m in zf.infolist()
            )
        new, old = load_state(stored), load_state(compressed)
        assert new.keys() == old.keys()
        for field, value in new.items():
            if isinstance(value, np.ndarray):
                assert value.dtype == old[field].dtype, field
                assert value.shape == old[field].shape, field
                assert value.tobytes() == old[field].tobytes(), field
            else:
                assert value == old[field], field
        loaded = load_index(compressed)
        loaded.validate()
        assert list(loaded.items()) == list(index.items())
