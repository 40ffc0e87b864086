"""Turning timelines into metrics: rounds, medians, quartiles, stamps."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from stackbench.spec import ROOT, ROUNDS, WARMUP_SHARE


#: What :func:`speed_unit_ns` takes on this box when nothing else runs.
SPEED_UNIT_REFERENCE_NS = 7_000_000


#: Units timed at every set-up and round boundary.
UNIT_REPEATS = 8


def speed_unit_samples(repeats: int = UNIT_REPEATS) -> List[int]:
    """Time one fixed unit of interpreter work (about 7 ms), ``repeats`` times.

    The sandbox itself changes speed: the same unit takes 5.2 to 10.5 ms
    from one minute to the next, in bursts of tens of milliseconds and in
    slow quarters of an hour, and the timings of the program move with it
    (twenty ``index-point`` runs spread 6.6 % raw and 3.4 % once each round
    is scaled by the units timed right before and after it; in a slow hour
    14 % and 7 %). The unit shares no code with the repository, so a slower
    program cannot hide in it.
    """
    samples = []
    for _ in range(repeats):
        t = time.perf_counter_ns()
        total = 0
        for i in range(150_000):
            total += i * i
        samples.append(time.perf_counter_ns() - t)
    return samples


def speed_unit_ns(samples: Sequence[int]) -> int:
    """One boundary's unit: the mean of its samples. A round's time is the
    sum of its work over the speed it ran at, so what a burst of
    interference did to a share of the samples it did to about that share
    of the round; the fastest sample would not see it (over twenty runs of
    each workload the mean of eight left a worst spread of 7.9 %, the
    fastest of five 9.1 %)."""
    return int(sum(samples) / len(samples))


def speed_scales(units_ns: Sequence[int]) -> List[float]:
    """Per-interval factors that bring timings to the reference speed.

    ``units_ns`` holds one speed unit timed at every boundary of a
    sequence of intervals; interval ``i`` is scaled by the reference over
    the mean of the units at its two ends.
    """
    return [2.0 * SPEED_UNIT_REFERENCE_NS / (a + b)
            for a, b in zip(units_ns[:-1], units_ns[1:])]


def round_bounds(n_ops: int, multiple: int = 1) -> List[int]:
    """Op indices ``[0, warm, r1, ..., n_ops]``: about the first 5 % is
    warm-up, the rest up to ``ROUNDS`` rounds.

    Every edge is a multiple of ``multiple`` — a whole number of the
    stream's verb blocks and of the callers — so each round holds the mix's
    exact shares and starts with every caller idle; rounds differ in length
    by at most one such unit. A stream shorter than two units (the traced
    prefix of a smoke run) is cut without regard to it.
    """
    if n_ops < 2 * multiple:
        multiple = 1
    whole = n_ops // multiple
    warm = max(1, round(whole * WARMUP_SHARE))
    rounds = min(ROUNDS, whole - warm)
    return ([0] + [(warm + (whole - warm) * r // rounds) * multiple
                   for r in range(rounds)] + [n_ops])


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a handful of round (or run) values,
    and the values themselves (for the run file)."""
    vals = [float(v) for v in values]
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "n": len(vals), "values": vals}


def percentile_of_rounds(rounds: Sequence[np.ndarray], pct: float) -> Optional[Dict[str, float]]:
    """The median over rounds of each round's ``pct`` percentile.

    A percentile is only taken where at least ten samples lie beyond it.
    When some round is too short for ``pct``, the rounds are pooled and the
    percentile taken once (``n == 1``); when the pool is too short as well,
    the highest percentile the pool does support is taken in its place and
    named in ``pct`` — op counts are fixed, so a workload always reports
    the same one. No tail at all below twenty samples.
    """
    need = 10.0 / (1.0 - pct / 100.0) if pct > 50 else 1.0
    samples = int(sum(r.size for r in rounds))
    if rounds and all(r.size >= need for r in rounds):
        out = quartiles([np.percentile(r, pct) for r in rounds])
    elif samples >= min(need, 20.0):
        pct = min(pct, 100.0 * (1.0 - 10.0 / samples)) if pct > 50 else pct
        out = quartiles([np.percentile(np.concatenate(list(rounds)), pct)])
    else:
        return None
    out.update(samples=samples, pct=pct)
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    ``ru_maxrss`` is in KiB on Linux. Children only show once waited for,
    so call this after every stack has been torn down.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def sha256_of(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def git_sha() -> str:
    """The commit the checkout is at, or ``unknown`` outside a git clone
    (the driver's checkout is not one)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, timeout=5,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> Dict[str, Any]:
    """What every output is stamped with."""
    return {
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg1": round(os.getloadavg()[0], 2),
    }
