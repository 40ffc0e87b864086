"""Command line of the benchmark.

``python3 -m stackbench --workload W --seed S --seconds T --trace 0|1``
    one run of one workload; the last line of stdout is the JSON object
    the driver reads (the form ``BENCHMARK.json`` names).
``python3 -m stackbench --seed S [--trace] [--repeat N] [--out F]``
    every workload, each run in a fresh subprocess; prints every metric by
    name with its unit and writes a summary ``compare`` can read.
``python3 -m stackbench compare A.json B.json``
    judges two summaries against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"


def _need_repro() -> None:
    """Make ``repro`` importable from the checkout this package sits in."""
    try:
        import repro  # noqa: F401
    except ImportError:
        if not (_SRC / "repro").is_dir():
            sys.exit("stackbench: no src/repro beside stackbench/ — run it "
                     "from the root of a checkout of the repository")
        sys.path.insert(0, str(_SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m stackbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", choices=["compare"])
    parser.add_argument("files", nargs="*", help="compare: A.json B.json")
    parser.add_argument("--workload", help="run only this workload, in this "
                        "process, and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                        choices=[0, 1], help="1: the traced run that yields "
                        "the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="20k keys and a fiftieth of the ops (smoke test)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: runs per workload, each "
                        "with the next seed")
    parser.add_argument("--out", help="all-workloads mode: summary file")
    args = parser.parse_args(argv)

    if args.command == "compare":
        from stackbench.compare import main as compare_main

        if len(args.files) != 2:
            parser.error("compare takes two summary files")
        return compare_main(*args.files)
    if args.files:
        parser.error(f"unexpected argument {args.files[0]!r}")

    _need_repro()
    from stackbench import cli

    if args.workload is not None:
        return cli.run_one(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.quick)
    return cli.run_all(args.seed, args.seconds, bool(args.trace), args.quick,
                       args.repeat, args.out)


if __name__ == "__main__":
    sys.exit(main())
