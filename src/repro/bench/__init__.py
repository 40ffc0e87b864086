"""Benchmark harness: one registered experiment per paper table/figure.

Plus ``obs``, the telemetry-overhead guard. The serving tiers above the
index are measured by the repo-root ``stackbench`` package, not here.

Run from the command line::

    python -m repro.bench list          # show experiments
    python -m repro.bench table1        # one experiment
    python -m repro.bench all --quick   # everything, reduced sizes

Importing this package registers all experiments.
"""

from repro.bench import exp_fig6 as _exp_fig6  # noqa: F401
from repro.bench import exp_fig7 as _exp_fig7  # noqa: F401
from repro.bench import exp_fig8 as _exp_fig8  # noqa: F401
from repro.bench import exp_fig9 as _exp_fig9  # noqa: F401
from repro.bench import exp_fig10 as _exp_fig10  # noqa: F401
from repro.bench import exp_fig11 as _exp_fig11  # noqa: F401
from repro.bench import exp_fig12 as _exp_fig12  # noqa: F401
from repro.bench import exp_fig13 as _exp_fig13  # noqa: F401
from repro.bench import exp_cachesim as _exp_cachesim  # noqa: F401
from repro.bench import exp_misc as _exp_misc  # noqa: F401
from repro.bench import exp_obs as _exp_obs  # noqa: F401
from repro.bench import exp_table1 as _exp_table1  # noqa: F401
from repro.bench.harness import (
    ExperimentResult,
    build_all_indexes,
    experiment_names,
    register_experiment,
    run_experiment,
)
from repro.bench.reporting import format_table, print_table

__all__ = [
    "ExperimentResult",
    "build_all_indexes",
    "experiment_names",
    "format_table",
    "print_table",
    "register_experiment",
    "run_experiment",
]
