"""Tests of the benchmark itself: smoke, schema, determinism, oracle, cleanup."""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from stackbench import load, oracle, procs, run
from stackbench.spec import ROOT, WORKLOADS, benchmark_json
from stackbench.streams import DELETE, GET, INSERT, RANGE

BENCH = benchmark_json()
E2E = [m["name"] for m in BENCH["end_to_end"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_run_has_no_failed_op_and_every_metric(name):
    result = run.run_workload(name, seed=3, seconds=2.0, quick=True,
                              setup_repeats=1)
    assert result["failed"] == 0, result["first_failures"]
    assert result["correct"], result["final_check"]
    assert result["attempted"] >= 400
    assert run.missing_metrics(result["values"], BENCH["end_to_end"]) == []
    assert all(result["values"][m] != 0 for m in E2E)


def test_benchmark_json_is_within_the_contract_and_names_the_workloads():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["stackbench"]
    # tcp-point-open is a diagnostic workload: runnable, not gated (README).
    assert ([w["name"] for w in BENCH["workloads"]]
            == [n for n in WORKLOADS if n != "tcp-point-open"])
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = ([w["name"] for w in BENCH["workloads"]] + E2E
             + [m["name"] for m in BENCH["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCH["workloads"])
    assert all(0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
               for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_line_ends_with_the_declared_metrics(trace):
    proc = subprocess.run(
        [sys.executable, "-m", "stackbench", "--workload", "engine-batch-mixed",
         "--seed", "5", "--seconds", "2", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"\n{m['name']} " in "\n" + proc.stdout  # printed by name
    if trace:
        assert "# ladder:" in proc.stdout


def test_same_seed_same_stream_and_counts_other_seed_other_stream():
    wl = WORKLOADS["index-point"]
    space = run.key_space(wl, quick=True)
    digests = [run.make_stream(wl, space, seed, 2000).digest()
               for seed in (7, 7, 8)]
    assert digests[0] == digests[1] != digests[2]
    batch = WORKLOADS["engine-batch-mixed"]
    space = run.key_space(batch, quick=True)
    assert (run.make_stream(batch, space, 7, 300).digest()
            == run.make_stream(batch, space, 7, 300).digest()
            != run.make_stream(batch, space, 8, 300).digest())
    a, b = (run.run_workload("index-point", 7, 1.0, quick=True, setup_repeats=1)
            for _ in range(2))
    assert a["stream_sha256"] == b["stream_sha256"]
    assert a["values"]["index_bytes_per_key"] == b["values"]["index_bytes_per_key"]
    assert a["attempted"] == b["attempted"]


def test_oracle_counts_a_wrong_reply_an_exception_and_an_unsent_op():
    wl = WORKLOADS["index-point"]
    space = run.key_space(wl, quick=True)
    stream = run.make_stream(wl, space, 1, 2000)
    replies = []
    for i in range(len(stream)):
        op, a, b = stream.op[i], stream.r0[i], stream.r1[i]
        if op == INSERT:
            replies.append(None)
        elif op == RANGE:
            replies.append((space.keys[a:b], space.values[a:b]))
        else:
            replies.append(None if stream.val[i] < 0 else int(stream.val[i]))
    assert not oracle.check_replies(stream, 0, replies).any()

    first = {code: int(np.flatnonzero(stream.op == code)[0])
             for code in (GET, INSERT, DELETE, RANGE)}
    replies[first[GET]] = 123456789  # a wrong row id
    replies[first[INSERT]] = oracle.Failure(RuntimeError("boom"))
    replies[first[DELETE]] = load.Timeline(1).replies[0]  # never sent
    a, b = stream.r0[first[RANGE]], stream.r1[first[RANGE]]
    replies[first[RANGE]] = (space.keys[a:b - 1], space.values[a:b - 1])
    bad = oracle.check_replies(stream, 0, replies)
    assert sorted(np.flatnonzero(bad)) == sorted(first.values())

    keys, vals = stream.model()
    assert oracle.check_final(stream, keys.size, (keys, vals))[0]
    assert not oracle.check_final(stream, keys.size - 1, (keys, vals))[0]
    assert not oracle.check_final(stream, keys.size, (keys, vals + 1))[0]


@pytest.mark.parametrize("name, driver", [
    ("cluster-batch-mixed", "run_sync_batch"),
    ("tcp-point-closed", "run_closed"),
])
def test_no_process_or_shm_lane_survives_a_workload_that_raises(
        monkeypatch, name, driver):
    def explode(*args, **kwargs):
        raise RuntimeError("injected")

    shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    monkeypatch.setattr(load, driver, explode)
    with pytest.raises(RuntimeError, match="injected"):
        run.run_workload(name, seed=1, seconds=1.0, quick=True, setup_repeats=1)
    for child in mp.active_children():
        child.join(timeout=10.0)
    assert mp.active_children() == []
    if shm_before or os.path.isdir("/dev/shm"):
        assert set(os.listdir("/dev/shm")) <= shm_before


def test_command_line_leaves_no_process_behind():
    """The driver's check: after the command has exited, nothing it started
    runs — not a worker, not ``multiprocessing``'s resource tracker."""
    procs.adopt_orphans()  # what the run orphans is handed to this process
    try:
        before = set(procs.descendants(os.getpid()))
        proc = subprocess.run(
            [sys.executable, "-m", "stackbench", "--workload",
             "cluster-batch-mixed", "--seed", "5", "--seconds", "2", "--quick"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert set(procs.descendants(os.getpid())) <= before
    finally:
        procs.adopt_orphans(False)
