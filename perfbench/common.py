"""Paths, workload inputs and small statistics shared by the benchmark scripts."""

from __future__ import annotations

import json
import random
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMO_CONFIGS = ROOT / "configs"
OUT = ROOT / ".perfbench_out"
TIMING = "perfbench-timing"  # starts the line where a child reports its timing

WORKLOADS = ("cli-demo", "hawkes-draws", "mixed-draws")

ALL_CONFIGS = (
    "boolean_disks",
    "boolean_segments",
    "branching_approx",
    "brix_kendall",
    "grid_thinning",
    "hawkes_mr",
    "matern",
    "nonlinear_hawkes",
    "poisson",
    "poisson_lines",
    "renewal",
)
MIXED_CONFIGS = tuple(c for c in ALL_CONFIGS if c != "hawkes_mr")
# Quick mode still reaches Hawkes, the oracles and the validation battery.
QUICK_CLI_CONFIGS = ("brix_kendall", "hawkes_mr", "poisson")

# Draws per Hawkes session.  A session is one copy of the built sampler drawing
# replicates 0..n-1, as one `exactpp sample` run with n replicates would.
HAWKES_SESSION_DRAWS = 200


def derive_seed(workload_seed, tag):
    """A 31-bit seed fixed by (workload seed, tag); the tag names a config or session."""
    return random.Random(f"{int(workload_seed)}/{tag}").getrandbits(31)


def workload_configs(workload, quick=False):
    if workload == "cli-demo":
        return QUICK_CLI_CONFIGS if quick else ALL_CONFIGS
    if workload == "hawkes-draws":
        return ("hawkes_mr",)
    return MIXED_CONFIGS


def write_configs(workload, workload_seed, dest, quick=False):
    """Demo configs with seeds derived from the workload seed; returns their paths.

    cli-demo turns the validation battery on, as a user re-checking a sampler would.
    """
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in workload_configs(workload, quick):
        cfg = json.loads((DEMO_CONFIGS / f"{name}.json").read_text())
        cfg["seed"] = derive_seed(workload_seed, name)
        if workload == "cli-demo":
            cfg.setdefault("validation", {})["enabled"] = True
        path = dest / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def trimmed_mean(values):
    """Mean of the middle 80%: the fastest and the slowest tenth are dropped.

    Used for the few CLI invocations of cli-demo, where one invocation that
    meets a burst of load from other processes would otherwise move the mean.
    """
    xs = sorted(values)
    k = len(xs) // 10
    middle = xs[k:len(xs) - k]
    return sum(middle) / len(middle)


def reference_ms(reps=1):
    """Milliseconds a fixed computation takes on this CPU now (mean of `reps`).

    The computation mixes what the samplers do, interpreted loops, string and
    dict work and numpy on small and large arrays, and does not use exactpp.
    An operation's time divided by this one is its cost in reference units,
    which does not move when the machine runs everything faster or slower.
    The machine's speed changes within a fraction of a second, so a mean over
    many reps stands for the mix of speeds; a median would pick one of them.
    """
    import numpy as np  # here, so that a traced cli.import span sees numpy's import

    big = np.arange(50_000, dtype=float)
    small = np.arange(2_000, dtype=float)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(1_500):
            acc += i * i
            table[repr(i * 0.1)] = i
        for _ in range(4):
            np.cumsum(np.sort(small[::-1]))
        np.exp(-(big * 1e-5)).sum()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.fmean(times)
