"""Unit tests for the workload profiler: sketches and skew."""

import numpy as np
import pytest

from repro.obs import SpaceSaving, Telemetry, WorkloadProfiler


# ---------------------------------------------------------------------------
# SpaceSaving sketch
# ---------------------------------------------------------------------------

def test_space_saving_tracks_heavy_hitters_exactly_when_under_capacity():
    ss = SpaceSaving(capacity=8)
    for _ in range(5):
        ss.offer(1.0)
    ss.offer(2.0, count=3)
    top = ss.top(2)
    assert top[0] == (1.0, 5, 0)
    assert top[1] == (2.0, 3, 0)
    assert len(ss) == 2
    assert ss.total == 8


def test_space_saving_eviction_inherits_floor_as_error():
    ss = SpaceSaving(capacity=2)
    ss.offer(1.0, count=10)
    ss.offer(2.0, count=3)
    ss.offer(3.0)  # evicts key 2.0 (the min), inherits its count
    (k, count, err) = ss.top(3)[-1]
    assert k == 3.0
    assert count == 4  # floor 3 + 1
    assert err == 3
    assert len(ss) == 2


def test_space_saving_guarantees_frequent_keys_survive():
    rng = np.random.default_rng(0)
    ss = SpaceSaving(capacity=32)
    noise = rng.uniform(0, 1e6, 2_000)
    for k in noise:
        ss.offer(float(k))
    for _ in range(500):
        ss.offer(42.0)
    top_keys = [k for k, _, _ in ss.top(5)]
    assert 42.0 in top_keys


# ---------------------------------------------------------------------------
# WorkloadProfiler binning
# ---------------------------------------------------------------------------

def test_profiler_bins_keys_into_owning_shard_rows():
    # 3 shards: (-inf, 10), [10, 20), [20, inf) with adopted open edges.
    prof = WorkloadProfiler(cuts=[10.0, 20.0], n_bins=4, sample=1,
                            batch_sample=1)
    prof.record("get", np.array([0.0, 5.0, 9.0]))       # shard 0
    prof.record("get", np.array([12.0, 15.0, 19.0]))    # shard 1
    prof.record("get", np.array([25.0, 30.0]))          # shard 2
    snap = prof.snapshot()
    per_shard = [sum(row["counts"]) for row in snap["heatmap"]]
    assert per_shard == [3, 3, 2]
    assert snap["total_keys"] == 8


def test_profiler_inner_shard_middle_bins_receive_counts():
    # Regression guard: inner shards (both edges from cuts) must spread
    # keys across their bins, not collapse everything into bin 0.
    prof = WorkloadProfiler(cuts=[0.0, 100.0], n_bins=10, sample=1)
    prof.record("get", np.array([5.0, 55.0, 95.0]))  # all shard 1
    row = prof.snapshot()["heatmap"][1]["counts"]
    assert row[0] == 1 and row[5] == 1 and row[9] == 1


def test_profiler_open_edges_adopt_and_widen_from_observed_keys():
    prof = WorkloadProfiler(cuts=[100.0], n_bins=4, sample=1,
                            batch_sample=1)
    prof.record("get", np.array([10.0, 50.0, 90.0]))
    snap = prof.snapshot()
    assert snap["heatmap"][0]["lo"] == 10.0
    assert snap["heatmap"][0]["hi"] == 100.0  # inner edge stays the cut
    prof.record("get", np.array([0.0]))  # widens shard 0's lo edge
    assert prof.snapshot()["heatmap"][0]["lo"] == 0.0


def test_profiler_strided_sampling_scales_counts_back_up():
    prof = WorkloadProfiler(cuts=[], n_bins=4, sample=4)
    prof.record("get", np.linspace(0.0, 1.0, 64))
    snap = prof.snapshot()
    assert snap["total_keys"] == 64  # exact (per-call n, not sampled)
    assert sum(snap["heatmap"][0]["counts"]) == 64  # 16 sampled * 4


def test_profiler_batch_stride_folds_skipped_calls_into_next_binned():
    # batch_sample=4: calls 2-4 only bump totals/pending; call 5 bins and
    # scales its sample so the skipped batches' keys are represented.
    prof = WorkloadProfiler(cuts=[], n_bins=4, sample=1, batch_sample=4)
    batch = np.linspace(0.0, 1.0, 32)
    prof.record("get", batch)  # call 1: always binned (32 counted)
    for _ in range(3):
        prof.record("get", batch)  # skipped, 96 keys pending
    snap = prof.snapshot()
    assert snap["batch_sample"] == 4
    assert snap["total_keys"] == 128  # exact despite skips
    assert sum(snap["verbs"]["get"]) == 32  # pending not yet binned
    prof.record("get", batch)  # call 5: bins, factor = 128 // 32
    snap = prof.snapshot()
    assert snap["total_keys"] == 160
    assert sum(snap["verbs"]["get"]) == 160  # 32 + 32 * 4
    # A different verb's first call is binned immediately: single-burst
    # traffic on a rare verb is never invisible in the mix.
    prof.record("insert", batch[:8])
    assert sum(prof.snapshot()["verbs"]["insert"]) == 8


def test_profiler_verb_mix_and_read_fraction():
    prof = WorkloadProfiler(cuts=[], n_bins=4, sample=1)
    prof.record("get", np.arange(8.0))
    prof.record("insert", np.arange(4.0))
    prof.record("range", np.arange(4.0))
    snap = prof.snapshot()
    assert sum(snap["verbs"]["get"]) == 8
    assert sum(snap["verbs"]["insert"]) == 4
    assert sum(snap["verbs"]["range"]) == 4
    assert snap["read_fraction"] == pytest.approx(12 / 16)


def test_profiler_hot_keys_recovered_from_skewed_stream():
    rng = np.random.default_rng(3)
    prof = WorkloadProfiler(cuts=[5e5], sample=1, batch_sample=1,
                            hot_sample=1, flush_keys=512)
    hot = np.asarray([float(k) for k in rng.uniform(0, 1e6, 10)])
    for _ in range(40):
        batch = np.concatenate([rng.uniform(0, 1e6, 64), np.repeat(hot, 4)])
        rng.shuffle(batch)
        prof.record("get", batch)
    reported = {h["key"] for h in prof.snapshot()["hot_keys"]}
    assert len(reported & set(hot.tolist())) >= 8


def test_skew_report_identifies_hot_shard():
    prof = WorkloadProfiler(cuts=[100.0], n_bins=8, sample=1,
                            batch_sample=1)
    prof.record("get", np.random.default_rng(4).uniform(0, 100, 1000))
    prof.record("get", np.random.default_rng(5).uniform(100, 200, 50))
    skew = prof.skew_report()
    assert skew["hottest_shard"] == 0
    assert skew["per_shard"][0]["share"] > 0.9
    assert skew["shard_gini"] > 0.4


# ---------------------------------------------------------------------------
# Telemetry integration
# ---------------------------------------------------------------------------

def test_telemetry_workload_modes_resolve():
    assert Telemetry.from_mode("off") is None
    metrics = Telemetry.from_mode("metrics")
    assert metrics.workload_enabled is False and metrics.taillog is None
    wl = Telemetry.from_mode("workload")
    assert wl.workload_enabled is True and wl.tracer is None
    full = Telemetry.from_mode("full")
    assert full.workload_enabled is True and full.taillog is not None
    fw = Telemetry.from_mode("full+workload")
    assert fw.workload_enabled is True and fw.tracer is not None


def test_ensure_workload_is_lazy_and_shared():
    tel = Telemetry(mode="metrics", workload=True)
    assert tel.workload is None
    prof = tel.ensure_workload([10.0])
    assert prof is tel.workload
    assert tel.ensure_workload([10.0]) is prof  # second engine reuses it
    off = Telemetry(mode="metrics", workload=False)
    assert off.ensure_workload([10.0]) is None


def test_snapshot_carries_workload_and_slow_ops_blocks():
    tel = Telemetry(mode="full")
    tel.ensure_workload([10.0])
    tel.workload.record("get", np.array([1.0, 2.0]))
    snap = tel.snapshot()
    assert snap["workload"]["total_keys"] == 2
    assert "skew" in snap["workload"]
    assert snap["slow_ops"]["count"] == 0
