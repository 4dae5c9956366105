"""The benchmark's own tests: python3 -m pytest perfbench -q (from the repository root)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from common import ROOT, SRC

sys.path.insert(0, str(SRC))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_mode_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert record["seed"] == 3 and record["nproc"] >= 1 and record["ops"] >= 1


def test_point_outside_the_window_counts_as_failed(tmp_path):
    import worker
    from common import write_configs
    from exactpp import cli
    from exactpp.core import PointPattern

    paths = write_configs("mixed-draws", 5, tmp_path / "configs")
    configs = [(cfg, cli.build(cfg)) for cfg in map(cli.load_config, paths)]
    cfg, built = next(c for c in configs if c[0]["sampler"] == "poisson")
    good = built["sample"]

    def shifted(rng):
        pattern = good(rng)
        return PointPattern(pattern.points + [100.0, 0.0], dim=pattern.dim)

    loop = worker.Loop(tracer=None)
    worker.mixed_draws(loop, [(cfg, {**built, "sample": shifted})], rounds=3, tmp=tmp_path)
    assert loop.attempted == 3
    assert len(loop.errors) == 3 and "outside the window" in loop.errors[0]

    loop = worker.Loop(tracer=None)
    worker.mixed_draws(loop, configs, rounds=3, tmp=tmp_path)
    assert loop.attempted == 3 * len(configs) and loop.errors == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "mixed-draws", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
