#!/usr/bin/env python3
"""Print the paper figures' deterministic output: every modeled column.

Runs the experiments whose tables carry the paper's access model (fig6 to
fig13, table1, a3 and the abl_branching / abl_cachesim / abl_cone /
abl_search ablations) at ``--quick`` size through ``python -m repro.bench``
and prints their tables with the wall-clock parts removed: the ``wall_ns``
and ``minserts_per_s`` columns, the ``completed in`` lines and the
``throughput ratio`` note. What is left depends only on the code and the
seeds, so two checkouts print the same text unless a change moved a
modeled number (an access-counter charge, a segment count, an index
size). Diff the outputs of the two:

    python tools/modeled_columns.py > after.txt
    (cd ../parent && python tools/modeled_columns.py) > before.txt
    diff before.txt after.txt

The experiments run from the ``src/`` next to this file, whatever
``PYTHONPATH`` says. About 100 s on a 2-core x86 box.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import List

EXPERIMENTS = (
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "table1", "a3", "abl_branching", "abl_cachesim", "abl_cone", "abl_search",
)
WALL_CLOCK_COLUMNS = {"wall_ns", "minserts_per_s"}
WALL_CLOCK_LINE = re.compile(r"^\[\w+\] completed in |throughput ratio")

SRC = Path(__file__).resolve().parents[1] / "src"


def drop_columns(lines: List[str]) -> List[str]:
    """``lines`` with the wall-clock columns cut out of every table.

    A table is a header line over a rule of dash runs (one per column,
    two spaces apart) and the rows under it, aligned to the same widths;
    it ends at the first empty, ``params:``, ``note:`` or ``[`` line.
    """
    out: List[str] = []
    spans = None
    for i, line in enumerate(lines):
        nxt = lines[i + 1] if i + 1 < len(lines) else ""
        if spans is None and nxt.startswith("-") and not nxt.strip("- "):
            spans = [
                (m.start(), m.end())
                for m in re.finditer(r"-+", nxt)
                if line[m.start():m.end()].strip() not in WALL_CLOCK_COLUMNS
            ]
        elif spans is not None and (
            not line or line.startswith(("params:", "note:", "["))
        ):
            spans = None
        if spans is not None:
            line = "  ".join(line[a:b] for a, b in spans).rstrip()
        out.append(line)
    return out


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for name in EXPERIMENTS:
        text = subprocess.run(
            [sys.executable, "-m", "repro.bench", name, "--quick"],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        lines = [ln for ln in text.splitlines() if not WALL_CLOCK_LINE.search(ln)]
        print("\n".join(drop_columns(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
