"""exactpp benchmark: one workload, one run, one JSON result on the last line.

    python3 perfbench/run.py --workload {cli-demo,hawkes-draws,mixed-draws}
                             --seed N --seconds S --trace {0,1} [--quick]

Run from the repository root.  The package is used from src/ without being
installed.  Workloads, metrics and their meaning are described in
perfbench/README.md; BENCHMARK.json lists the metric names and units.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer
from common import (
    DEMO_CONFIGS,
    HAWKES_SESSION_DRAWS,
    OUT,
    ROOT,
    SRC,
    WORKLOADS,
    TIMING,
    reference_ms,
    trimmed_mean,
    write_configs,
)

BUDGET_S = 170.0  # every run ends within 180 s
HAWKES_SESSIONS_PER_S = 0.6  # about 1.7 s per session of 200 draws on 2 cores
MIXED_ROUNDS_PER_S = 120  # about 6 ms per round of ten draws and writes
SETUP_PROBES = 5
# setup_s is reported at the machine speed where reference_ms() takes this long in
# a fresh set-up process (about its median on the 2-core machine the benchmark was
# written on), so that a machine that runs everything slower for a while does not
# read as a regression.
REFERENCE_MS = 2.2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKER = Path(__file__).resolve().parent / "worker.py"


class BenchError(RuntimeError):
    pass


def child_env():
    """Pinned environment: package from src/, one worker, fixed validation seed, 1 thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["EXACTPP_WORKERS"] = "1"
    env.pop("EXACTPP_FRESH_SEED", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S
        self.env = child_env()
        tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        self.dir = OUT / tag
        self.spans_dir = OUT / "spans" / tag
        self.config_paths = write_configs(args.workload, args.seed, self.dir / "configs",
                                          args.quick)
        self.configs = {p.stem: json.loads(p.read_text()) for p in self.config_paths}

    def spawn(self, argv, log):
        """Run a child to completion within the budget; returns (exit code, peak RSS in MB)."""
        with open(log, "w") as out:
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=out,
                                    stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return proc.returncode, usage.ru_maxrss / 1024.0
                if time.monotonic() > self.deadline:
                    raise BenchError(f"{argv[1:3]} did not finish within the time budget")
                time.sleep(0.002)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()

    def setup_probe(self, i):
        """One set-up in a fresh process: (wall seconds, reference ms in that process)."""
        log = self.dir / f"setup-{i}.log"
        start = time.monotonic()
        code, _ = self.spawn([sys.executable, str(WORKER), "setup",
                              *map(str, self.config_paths)], log)
        if code != 0:
            raise BenchError(f"setup probe exited {code}: {log.read_text()[-2000:]}")
        return child_timing(log, start)

    # -- draw workloads ---------------------------------------------------------------
    def draw_loop(self, trace):
        a = self.args
        spec = {
            "workload": a.workload,
            "configs": [str(p) for p in self.config_paths],
            "trace": trace,
            "sessions": 1 if a.quick else max(1, round(a.seconds * HAWKES_SESSIONS_PER_S)),
            "draws": 20 if a.quick else HAWKES_SESSION_DRAWS,
            "rounds": 5 if a.quick else max(1, round(a.seconds * MIXED_ROUNDS_PER_S)),
            "tmp": str(self.dir / f"csv-{trace}"),
            "spans": str(self.spans_dir / "loop.json"),
        }
        spec_path = self.dir / f"loop-{trace}.json"
        result_path = self.dir / f"loop-{trace}.result.json"
        spec_path.write_text(json.dumps(spec))
        log = self.dir / f"loop-{trace}.log"
        code, rss_mb = self.spawn([sys.executable, str(WORKER), "loop", str(spec_path),
                                   str(result_path)], log)
        if code != 0:
            raise BenchError(f"workload process exited {code}: {log.read_text()[-2000:]}")
        res = json.loads(result_path.read_text())
        shutil.rmtree(spec["tmp"], ignore_errors=True)
        return {**res, "rss_mb": [rss_mb], "trace": [res["trace"]] if trace else []}

    # -- cli-demo -------------------------------------------------------------------------
    def cli_runs(self, trace):
        """One cold CLI run per config."""
        op_ms, rss_mb, errors, rejects, summaries = [], [], [], 0, []
        ref_ms = []
        for path in self.config_paths:
            name = path.stem
            out = self.dir / f"cli-{trace}" / name
            args = ["sample", "-c", str(path), "-o", str(out)]
            if trace:
                spans = self.spans_dir / f"{name}.json"
                argv = [sys.executable, str(WORKER), "cli", str(spans), *args]
            elif self.args.trace:  # the untraced half of a traced run, timed as the other
                argv = [sys.executable, "-m", "exactpp.cli", *args]
            else:
                argv = [sys.executable, str(WORKER), "cli", "-", *args]
            log = self.dir / f"cli-{trace}-{name}.log"
            start = time.monotonic()
            code, rss = self.spawn(argv, log)
            if self.args.trace:
                op_ms.append((time.monotonic() - start) * 1e3)
            elif code in (0, 1):
                try:
                    wall_s, ref = child_timing(log, start)
                except BenchError as exc:
                    errors.append(str(exc))
                    continue
                op_ms.append(wall_s * 1e3)
                ref_ms.append(ref)
            rss_mb.append(rss)
            if trace and spans.with_suffix(".summary.json").is_file():
                summaries.append(json.loads(spans.with_suffix(".summary.json").read_text()))
            if code == 1:
                rejects += 1  # the validation battery rejected: a statistical outcome
            elif code != 0:
                errors.append(f"{name}: exactpp exited {code}")
                continue
            try:
                err = cli_output_error(self.configs[name], out, self.dir / "reread.csv")
            except (OSError, ValueError, KeyError) as exc:
                err = f"unreadable output: {exc}"
            if err is not None:
                errors.append(f"{name}: {err}")
            shutil.rmtree(out)
        if not op_ms:
            raise BenchError(f"no CLI run finished: {errors[:3]}")
        op_ref = [ms / ref for ms, ref in zip(op_ms, ref_ms)]  # empty in a traced run
        return {
            "op_ms": op_ms,
            "op_ref": op_ref,
            "ref_ms": ref_ms,
            "late_ms": op_ms[-math.ceil(len(op_ms) / 4):],
            "attempted": len(self.config_paths),
            "errors": errors,
            "rejects": rejects,
            "rss_mb": rss_mb,
            "trace": summaries,
        }

    def timed(self, trace):
        if trace:
            self.spans_dir.mkdir(parents=True, exist_ok=True)
        if self.args.workload == "cli-demo":
            return self.cli_runs(trace)
        return self.draw_loop(trace)


def child_timing(log, start):
    """(seconds from `start` to the end of the child's timed work, reference ms).

    The child's timing line holds the seconds its first reference took, the
    clock when its work ended, and the reference in ms before and after the
    work; the first reference is not counted as work.
    """
    lines = [ln for ln in log.read_text().splitlines() if ln.startswith(TIMING)]
    if not lines:
        raise BenchError(f"{log.name}: no timing line")
    ref_s, end, before, after = map(float, lines[-1].split()[1:])
    return end - start - ref_s, (before + after) / 2.0


def cli_output_error(cfg, out, scratch):
    """Pattern files, meta.json and the validation report of one `exactpp sample` run."""
    import checks  # imports exactpp, which is on sys.path only once main() has checked src/
    from exactpp.core import PointPattern

    reps = cfg.get("replicates", 1)
    meta = json.loads((out / "meta.json").read_text())
    if meta["replicates"] != reps or meta["seed"] != cfg["seed"]:
        return "meta.json does not describe the run"
    if not (out / "validation_report.json").is_file():
        return "validation report missing"
    for r in range(reps):
        path = out / f"pattern-{r:05d}.csv"
        pattern = PointPattern.from_csv(path)
        err = checks.domain_error(cfg, pattern)
        if err is not None:
            return f"{path.name}: {err}"
        pattern.to_csv(scratch)  # what reads back must write the same bytes
        if scratch.read_bytes() != path.read_bytes():
            return f"{path.name} does not read back equal"
    return None


def run_record(args):
    """Machine, library versions and source identity for the run."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = "unknown"  # a checkout without .git; git must not find an enclosing repository
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if git.returncode == 0:
                commit = git.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "src_sha256": source_digest(),
    }


def source_digest():
    """sha256 over the package sources, which identifies the code when .git is absent."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "exactpp").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def op_cost(workload, res):
    """Mean cost of one operation in reference units.

    cli-demo drops its cheapest and dearest tenth of CLI runs.  The draw
    workloads drop their dearest 1% of operations.  On hawkes-draws those are
    a handful of draws per run that take up to seconds each: grid rebuilds,
    extra sandwich iterations and the longest conditioned-cluster rejections.
    Whether a run meets them is up to its seed, and with them the mean over ten
    seeds spread 0.5 to 0.8 (interquartile range over median).  The record's
    op_cost_mean_all keeps them.
    """
    if workload == "cli-demo":
        return trimmed_mean(res["op_ref"])
    xs = sorted(res["op_ref"])
    return statistics.fmean(xs[:len(xs) - len(xs) // 100])


def measure(runner, args):
    """Returns (metrics by name, attempted, failed, record extras)."""
    res = runner.timed(0)
    wall_s = sum(res["op_ms"]) / 1e3
    extras = {
        "ops": len(res["op_ms"]),
        "late_ops": len(res["late_ms"]),
        "wall_s": wall_s,
        "ops_per_s": len(res["op_ms"]) / wall_s,
        "op_ms_tmean": trimmed_mean(res["op_ms"]),
        "op_ms_p50": statistics.median(res["op_ms"]),
        "op_ms_p50_late": statistics.median(res["late_ms"]),
        "op_ms_p99": statistics.quantiles(res["op_ms"], n=100, method="inclusive")[98],
        "peak_rss_mb": max(res["rss_mb"]),
        "peak_rss_mb_median_process": statistics.median(res["rss_mb"]),
        "errors": res["errors"][:20],
    }
    if "hawkes" in res:
        extras["hawkes"] = res["hawkes"]
    if "rejects" in res:
        extras["validation_rejects"] = res["rejects"]
    attempted, failed = res["attempted"], len(res["errors"])
    if not args.trace:
        extras["op_cost_mean_all"] = statistics.fmean(res["op_ref"])
        extras["reference_ms_median"] = statistics.median(res["ref_ms"])
        probes = [runner.setup_probe(i) for i in range(1 if args.quick else SETUP_PROBES)]
        walls = extras["setup_wall_s"] = [wall for wall, _ in probes]
        refs = extras["setup_reference_ms"] = [ref for _, ref in probes]
        metrics = {
            "setup_s": statistics.median(walls) * REFERENCE_MS / statistics.median(refs),
            "op_cost": op_cost(args.workload, res),
        }
        return metrics, attempted, failed, extras
    traced = runner.timed(1)
    traced_wall = sum(traced["op_ms"]) / 1e3
    attempted += traced["attempted"]
    failed += len(traced["errors"])
    metrics = tracer.layer_metrics(tracer.merge(traced["trace"]))
    metrics["cli.validation_rejects"] = traced.get("rejects", 0)
    metrics["trace.untraced_wall_s"] = wall_s
    metrics["trace.overhead_s"] = traced_wall - wall_s
    metrics["failed_frac"] = failed / attempted
    extras["traced_errors"] = traced["errors"][:20]
    return metrics, attempted, failed, extras


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true",
                    help="a few operations per workload, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "exactpp" / "cli.py").is_file() or not DEMO_CONFIGS.is_dir():
        print(f"benchmark: no exactpp sources under {SRC} or no demo configs", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    sys.path.insert(0, str(SRC))
    runner = Runner(args)
    try:
        metrics, attempted, failed, extras = measure(runner, args)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"benchmark: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"record": {**run_record(args), **extras}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
