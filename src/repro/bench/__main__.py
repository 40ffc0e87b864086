"""CLI entry point: ``python -m repro.bench <experiment | all | list>``.

``--quick`` shrinks dataset sizes for smoke runs; ``--n`` / ``--seed``
override an experiment's defaults explicitly.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.harness import experiment_names, run_experiment

#: n used by --quick (experiments scale their own query counts off n).
_QUICK_N = 20_000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="FITing-Tree reproduction experiment harness",
    )
    parser.add_argument(
        "experiment",
        help="experiment name, 'all', or 'list'",
    )
    parser.add_argument("--n", type=int, default=None, help="dataset size")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--quick", action="store_true", help=f"shrink sizes (n={_QUICK_N})"
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in experiment_names():
            print(name)
        return 0

    names = experiment_names() if args.experiment == "all" else [args.experiment]
    overrides = {"seed": args.seed}
    if args.n is not None:
        overrides["n"] = args.n
    elif args.quick:
        overrides["n"] = _QUICK_N

    for name in names:
        start = time.perf_counter()
        result = run_experiment(name, **overrides)
        elapsed = time.perf_counter() - start
        print(result.render())
        print(f"[{name}] completed in {elapsed:.1f}s")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
