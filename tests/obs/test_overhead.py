"""The telemetry cost guards: off must be ~free, the profiler cheap.

Runs the ``obs`` bench experiment at smoke size and asserts the claims
the docs make: an engine opened with ``telemetry="off"`` pays <= 2% on
the ``get_batch`` hot loop relative to the un-instrumented
implementation, and the workload profiler's increment — the
``"workload"`` row minus the ``"metrics"`` row, both in percentage
points of baseline — stays <= 5%. Both guards are differentials between
rows measured in the same matched-pair rounds, so common-mode timing
drift cancels instead of failing the build. Each measurement runs in a
fresh interpreter: inside the suite's own process the heap a thousand
earlier tests left behind makes collector pauses land on whichever mode
is being timed, so the verdict would depend on suite order.
"""

import json
import subprocess
import sys

from repro.bench.exp_obs import (
    OFF_OVERHEAD_LIMIT_PCT,
    WORKLOAD_OVERHEAD_LIMIT_PCT,
)

ALL_MODES = {
    "baseline", "off", "metrics", "workload", "full", "full+workload",
}


def _obs_rows(tmp_path, repeats):
    """The smoke-size ``obs`` experiment's rows, measured in a child."""
    out = tmp_path / f"obs-{repeats}.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from repro.bench.exp_obs import obs; "
            "obs(n=20_000, n_queries=20_000, repeats=int(sys.argv[2]), "
            "out=sys.argv[1])",
            str(out),
            str(repeats),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())["rows"]


def _mode_pct(rows, mode):
    return next(r["overhead_pct"] for r in rows if r["mode"] == mode)


def test_disabled_telemetry_overhead_within_guard(tmp_path):
    rows = {r["mode"]: r for r in _obs_rows(tmp_path, 9)}
    assert set(rows) == ALL_MODES
    assert rows["baseline"]["overhead_pct"] == 0.0
    off_pct = rows["off"]["overhead_pct"]
    if off_pct > OFF_OVERHEAD_LIMIT_PCT:
        # Timing on a loaded CI box is noisy at smoke size; one retry at
        # higher repeat count separates a real regression from a blip.
        off_pct = min(off_pct, _mode_pct(_obs_rows(tmp_path, 21), "off"))
    assert off_pct <= OFF_OVERHEAD_LIMIT_PCT, rows["off"]
    # Enabled modes must still answer correctly-sized throughput numbers
    # (the point of recording them is the trajectory, not a bar).
    for mode in ("metrics", "workload", "full", "full+workload"):
        assert rows[mode]["ops_per_second"] > 0


def _profiler_increment(rows):
    return _mode_pct(rows, "workload") - _mode_pct(rows, "metrics")


def test_workload_profiler_increment_within_guard(tmp_path):
    inc_pct = _profiler_increment(_obs_rows(tmp_path, 9))
    if inc_pct > WORKLOAD_OVERHEAD_LIMIT_PCT:
        inc_pct = min(inc_pct, _profiler_increment(_obs_rows(tmp_path, 21)))
    assert inc_pct <= WORKLOAD_OVERHEAD_LIMIT_PCT, inc_pct


def test_experiment_registered_with_harness():
    from repro.bench import experiment_names

    assert "obs" in experiment_names()
