"""Printing and orchestration behind ``python3 -m stackbench``."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from stackbench import procs
from stackbench.measure import environment, quartiles
from stackbench.run import missing_metrics, run_workload
from stackbench.spec import OUT_DIR, ROOT, WORKLOADS, benchmark_json


def _fmt(value: float) -> str:
    return f"{value:,.4g}" if abs(value) < 1e4 else f"{value:,.0f}"


def _print_result(result: Dict[str, Any], declared: List[dict],
                  per_layer: bool) -> None:
    env = result["env"]
    print(f"# stackbench {result['workload']}  seed={result['seed']}  "
          f"seconds={result['seconds']}  trace={int(per_layer)}  "
          f"keys={result['n_keys']}  ops={result['attempted']}  "
          f"failed={result['failed']}  final={result['final_check']}")
    print(f"# cpu_count={env['cpu_count']} git={env['git_sha']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"loadavg1={env['loadavg1']} wall_s={result['wall_s']:.1f}")
    print(f"# stream sha256 {result['stream_sha256'][:16]}  "
          f"dataset sha256 {result['dataset_sha256'][:16]}")
    for failure in result["first_failures"]:
        print(f"# failed op: {failure}")
    for m in declared:
        name, value = m["name"], result["values"].get(m["name"])
        stat = result["detail"].get(name)
        spread = (f"  [q1 {_fmt(stat['q1'])}  q3 {_fmt(stat['q3'])}  "
                  f"n={stat['n']}"
                  + (f"  samples={stat['samples']}  p{stat['pct']:.4g}"
                     if "samples" in stat else "")
                  + "]") if isinstance(stat, dict) and "q1" in stat else ""
        shown = "n/a" if value is None else _fmt(value)
        print(f"{name:42s} {shown:>14s} {m['unit']:<6s}{spread}")
    detail = result["detail"]
    if "speed" in detail:
        units = ", ".join(f"{u:.2f}" for u in detail["speed"]["unit_ms"])
        print(f"# speed unit, ms, at each set-up/round boundary: {units} "
              "(timings above are scaled to 7.00)")
        print("# unscaled: " + "  ".join(
            f"{m['name']}={_fmt(detail['raw'][m['name']])}" for m in declared
            if m["name"] in detail["raw"]))
    for name in ("get_p95_us", "get_p99_us", "insert_p95_us", "insert_p99_us",
                 "delete_p95_us", "range_p95_us", "get_batch_p50_us"):
        if detail.get(name) is not None:
            stat = detail[name]
            print(f"# {name}: {_fmt(stat['median'])} (p{stat['pct']:.4g} of "
                  f"{stat['samples']} samples, n={stat['n']})")
    for name in ("open_loop", "round_wall_s"):
        if detail.get(name) is not None:
            print(f"# {name}: {json.dumps(detail[name])}")
    for name, value in result["extra"].items():
        if not isinstance(value, dict):
            print(f"# {name}: {value}")
    if "ladder" in result:
        print(result["ladder"])


def run_one(workload: str, seed: int, seconds: Optional[float], traced: bool,
            quick: bool) -> int:
    """One run in this process, ending with the driver's JSON line.

    Whatever way the run ends, no process it started is left: see
    :mod:`stackbench.procs`.
    """
    procs.adopt_orphans()
    signal.signal(signal.SIGTERM, _terminated)
    try:
        return _run_one(workload, seed, seconds, traced, quick)
    finally:
        sys.stdout.flush()
        left = procs.reap_descendants()
        if left:
            print(f"stackbench: processes {left} did not end", file=sys.stderr)


def _terminated(signum: int, frame: Any) -> None:
    """SIGTERM: end everything below and leave at once. Unwinding the
    stacks' own teardown from inside a signal handler is not safe (a
    ClusterEngine interrupted mid-call aborted in free()), and the resource
    tracker unlinks the shared memory they would have."""
    procs.reap_descendants()
    os._exit(128 + signum)


def _run_one(workload: str, seed: int, seconds: Optional[float], traced: bool,
             quick: bool) -> int:
    bench = benchmark_json()
    if workload not in WORKLOADS:
        print(f"stackbench: unknown workload {workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = float(bench["run_seconds"]) if seconds is None else seconds
    declared = bench["per_layer"] if traced else bench["end_to_end"]
    if traced:
        from stackbench.trace import run_traced

        result = run_traced(workload, seed, seconds, quick=quick)
    else:
        result = run_workload(workload, seed, seconds, quick=quick)
    _print_result(result, declared, traced)
    missing = missing_metrics(result["values"], declared)
    if missing:
        print(f"stackbench: could not measure {', '.join(missing)}",
              file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{workload}-{seed}-{int(traced)}.json").write_text(
        json.dumps(result, default=_jsonable))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": float(result["values"][m["name"]]),
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


def _jsonable(obj: Any) -> Any:
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return repr(obj)


def run_all(seed: int, seconds: Optional[float], traced: bool, quick: bool,
            repeat: int, out: Optional[str]) -> int:
    """Every workload in a fresh subprocess each; print and save a summary.

    With ``--repeat N`` workload runs use seeds ``seed .. seed + N - 1`` and
    the summary holds each metric's median and quartiles over the runs.
    With ``--trace`` one traced run per workload (first seed) adds the
    per-layer metrics; end-to-end numbers always come from untraced runs.
    """
    bench = benchmark_json()
    summary: Dict[str, Any] = {"env": environment(), "seed": seed,
                               "repeat": repeat, "quick": quick,
                               "workloads": {}}
    status = 0
    for name in WORKLOADS:
        runs = []
        modes = [(seed + r, 0) for r in range(repeat)] + ([(seed, 1)] if traced else [])
        for run_seed, trace in modes:
            cmd = [sys.executable, "-m", "stackbench", "--workload", name,
                   "--seed", str(run_seed), "--trace", str(trace)]
            if seconds is not None:
                cmd += ["--seconds", str(seconds)]
            if quick:
                cmd.append("--quick")
            t = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                print(f"stackbench: {name} exited with {proc.returncode}",
                      file=sys.stderr)
                status = 1
                continue
            print(f"# run.wall_s.{name} {time.perf_counter() - t:.1f}\n")
            runs.append((trace, json.loads(lines[-1])))
        untraced = [r for trace, r in runs if not trace]
        if not untraced:
            continue
        entry: Dict[str, Any] = {
            "attempted": sum(r["attempted"] for r in untraced),
            "failed": sum(r["failed"] for r in untraced),
            "correct": all(r["correct"] for r in untraced),
            "metrics": {},
        }
        for m in bench["end_to_end"]:
            stat = quartiles([r["metrics"][m["name"]]["value"] for r in untraced])
            entry["metrics"][m["name"]] = {**stat, "unit": m["unit"]}
        for trace, r in runs:
            if trace:
                entry["per_layer"] = {k: v["value"] for k, v in r["metrics"].items()}
        if entry["failed"] or not entry["correct"]:
            status = 1
        summary["workloads"][name] = entry
    path = out or str(OUT_DIR / f"summary-{seed}.json")
    OUT_DIR.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"# summary written to {path}")
    return status
