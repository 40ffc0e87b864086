"""``python3 -m stackbench compare A.json B.json``: judge B against A.

A and B are summaries written by ``python3 -m stackbench --repeat N --out``
(A the parent, B the change — or two sets of runs of the same code, to see
whether the benchmark repeats). Each (workload, end-to-end metric) row gets
the metric's direction and bound from ``BENCHMARK.json``:

* ``unresolved`` — either side's quartile spread is wider than the bound,
  so the two medians cannot be told apart at that resolution;
* ``worse`` / ``better`` — B's median is off A's by more than the bound;
* ``same`` — within the bound.

The exit code is 1 if any row is ``worse`` (or any op failed in B), else 0.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple

from stackbench.spec import benchmark_json


def verdict(a: Dict[str, float], b: Dict[str, float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, change, spread)`` of one row.

    ``change`` is B's median relative to A's, signed so that positive is
    worse; ``spread`` the wider of the two sides' interquartile ranges over
    its own median.
    """
    change = (b["median"] - a["median"]) / abs(a["median"])
    if better == "higher":
        change = -change
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (a, b))
    if spread > bound:
        return "unresolved", change, spread
    if change > bound:
        return "worse", change, spread
    if change < -bound:
        return "better", change, spread
    return "same", change, spread


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[list, Dict[str, float]]:
    """Rows ``(workload, metric, verdict, change, spread, bound)`` for every
    declared end-to-end metric both summaries hold, and B's failed share
    per workload."""
    rows = []
    failed: Dict[str, float] = {}
    declared = benchmark_json()["end_to_end"]
    for name, entry_b in b["workloads"].items():
        failed[name] = entry_b["failed"] / max(entry_b["attempted"], 1)
        entry_a = a["workloads"].get(name)
        if entry_a is None:
            continue
        for m in declared:
            sa = entry_a["metrics"].get(m["name"])
            sb = entry_b["metrics"].get(m["name"])
            if sa is None or sb is None:
                continue
            rows.append((name, m["name"],
                         *verdict(sa, sb, m["better"], m["bound"]), m["bound"]))
    return rows, failed


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    rows, failed = compare(a, b)
    print(f"# A = {path_a} (git {a['env']['git_sha']}, "
          f"{a['repeat']} runs per workload)")
    print(f"# B = {path_b} (git {b['env']['git_sha']}, "
          f"{b['repeat']} runs per workload)")
    print(f"{'workload':22s} {'metric':22s} {'verdict':11s} "
          f"{'B vs A':>8s} {'spread':>8s} {'bound':>7s}")
    for name, metric, word, change, spread, bound in rows:
        print(f"{name:22s} {metric:22s} {word:11s} {change:+8.1%} "
              f"{spread:8.1%} {bound:7.1%}")
    for name, share in failed.items():
        print(f"# failed share {name:22s} {share:.4%}")
    counts = {w: sum(1 for r in rows if r[2] == w)
              for w in ("better", "same", "worse", "unresolved")}
    print("# " + "  ".join(f"{w}: {n}" for w, n in counts.items()))
    return 1 if counts["worse"] or any(failed.values()) else 0
