#!/usr/bin/env python3
"""Aggregate committed ``BENCH_*.json`` artifacts into one trajectory table.

Each engine-track benchmark (``python -m repro.bench engine|serve|
cluster|obs|net``) commits a JSON artifact at the repo root so the perf
trajectory accumulates across PRs. This tool folds all of them into one
markdown table — experiment, last-commit date (from git), and a headline
number with context — and splices it into ``docs/BENCHMARKS.md`` between
the ``<!-- bench-report:start -->`` / ``<!-- bench-report:end -->``
markers (appending the block on first run).

Usage::

    python tools/bench_report.py            # rewrite docs/BENCHMARKS.md
    python tools/bench_report.py --check    # exit 1 if the doc is stale

CI runs ``--check`` so a PR that moves a committed number without
regenerating the table fails fast.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parents[1]
DOC = REPO / "docs" / "BENCHMARKS.md"
START = "<!-- bench-report:start -->"
END = "<!-- bench-report:end -->"


def _git_date(path: Path) -> str:
    """The artifact's last commit date (YYYY-MM-DD), or ``uncommitted``."""
    try:
        out = subprocess.run(
            ["git", "log", "-1", "--format=%cs", "--", str(path)],
            cwd=REPO, capture_output=True, text=True, timeout=30,
        ).stdout.strip()
    except OSError:
        return "unknown"
    return out or "uncommitted"


def _fmt_ops(ops: float) -> str:
    if ops >= 1e6:
        return f"{ops / 1e6:.2f}M ops/s"
    return f"{ops / 1e3:.0f}k ops/s"


def _headline_engine(doc: Dict[str, Any]) -> Tuple[str, str]:
    best = max(doc["rows"], key=lambda r: r.get("speedup_vs_baseline") or 0.0)
    return (
        f"{best['speedup_vs_baseline']:.1f}x vs {best['baseline']}",
        f"{best['dataset']}/{best['mode']}, {_fmt_ops(best['ops_per_second'])}",
    )


def _headline_serve(doc: Dict[str, Any]) -> Tuple[str, str]:
    best = max(doc["rows"], key=lambda r: r.get("speedup_vs_naive") or 0.0)
    return (
        f"{best['speedup_vs_naive']:.1f}x vs naive",
        f"{best['mode']} @ c={best['concurrency']}, "
        f"p99 {best['p99_us']:.0f}us",
    )


def _headline_cluster(doc: Dict[str, Any]) -> Tuple[str, str]:
    best = max(doc["rows"], key=lambda r: r.get("speedup_vs_inproc") or 0.0)
    return (
        f"{best['speedup_vs_inproc']:.2f}x vs in-proc",
        f"{best['workload']} @ {best['workers']} workers, "
        f"{_fmt_ops(best['ops_per_second'])}",
    )


def _headline_obs(doc: Dict[str, Any]) -> Tuple[str, str]:
    rows = {r["mode"]: r for r in doc["rows"]}
    off = rows["off"]["overhead_pct"]
    limit = doc["params"].get("off_overhead_limit_pct")
    detail = ", ".join(
        f"{mode} {rows[mode]['overhead_pct']:+.1f}%"
        for mode in ("metrics", "workload", "full", "full+workload")
        if mode in rows
    )
    return f"off {off:+.1f}% (guard <= {limit:.0f}%)", detail


def _headline_net(doc: Dict[str, Any]) -> Tuple[str, str]:
    rows = doc["rows"]
    scalar = [
        r for r in rows
        if r["path"] == "tcp" and r["load"] == "closed-loop"
    ]
    best = max(scalar, key=lambda r: r["ops_per_second"])
    batch = next(
        (r for r in rows
         if r["path"] == "tcp" and str(r["load"]).startswith("get_batch")),
        None,
    )
    head = f"{best['vs_inproc']:.0%} of in-proc (scalar TCP)"
    detail = (
        f"{_fmt_ops(best['ops_per_second'])} @ c={best['clients']}, "
        f"p99 {best['p99_us']:.0f}us"
    )
    if batch is not None:
        detail += f"; {batch['load']} {batch['vs_inproc']:.0%} of in-proc"
    return head, detail


_HEADLINES = {
    "engine": _headline_engine,
    "serve": _headline_serve,
    "cluster": _headline_cluster,
    "obs": _headline_obs,
    "net": _headline_net,
}


def _headline(name: str, doc: Dict[str, Any]) -> Tuple[str, str]:
    fn = _HEADLINES.get(name)
    if fn is not None:
        try:
            return fn(doc)
        except (KeyError, ValueError, TypeError):
            pass  # schema drifted: fall through to the generic row
    rows = doc.get("rows") or [{}]
    ops = rows[0].get("ops_per_second")
    return ("" if ops is None else _fmt_ops(ops)), f"{len(rows)} rows"


def build_table() -> str:
    """The markdown trajectory table over every committed artifact."""
    lines = [
        "| Experiment | Updated | Headline | Detail |",
        "| ---------- | ------- | -------- | ------ |",
    ]
    artifacts = sorted(REPO.glob("BENCH_*.json"))
    if not artifacts:
        return "_No committed `BENCH_*.json` artifacts found._"
    for path in artifacts:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            lines.append(f"| `{path.name}` | — | unreadable: {exc} | |")
            continue
        name = doc.get("experiment", path.stem.replace("BENCH_", ""))
        head, detail = _headline(name, doc)
        lines.append(
            f"| `{name}` | {_git_date(path)} | {head} | {detail} |"
        )
    return "\n".join(lines)


def render_block() -> str:
    """The full marker-delimited block to splice into the doc."""
    return (
        f"{START}\n"
        "## Benchmark trajectory (generated)\n\n"
        "One headline row per committed artifact — regenerate with\n"
        "`python tools/bench_report.py` after updating any "
        "`BENCH_*.json`.\n\n"
        f"{build_table()}\n"
        f"{END}"
    )


def spliced(text: str) -> str:
    """``text`` with the generated block replaced (or appended)."""
    block = render_block()
    if START in text and END in text:
        head, _, rest = text.partition(START)
        _, _, tail = rest.partition(END)
        return head + block + tail
    return text.rstrip("\n") + "\n\n" + block + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="verify the doc is current instead of rewriting it",
    )
    args = parser.parse_args(argv)
    current = DOC.read_text()
    updated = spliced(current)
    if args.check:
        if updated != current:
            print(
                "docs/BENCHMARKS.md trajectory table is stale; run "
                "`python tools/bench_report.py`", file=sys.stderr,
            )
            return 1
        print("bench report: docs/BENCHMARKS.md is current")
        return 0
    if updated != current:
        DOC.write_text(updated)
        print(f"bench report: rewrote {DOC.relative_to(REPO)}")
    else:
        print("bench report: no changes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
