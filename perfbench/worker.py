"""Child processes of the benchmark; run.py starts them with PYTHONPATH=src.

  worker.py setup CONFIG...             import exactpp.cli, load and build the
                                        configs
  worker.py loop SPEC.json RESULT.json  set up, then run a draw workload's
                                        timed loop and write its results
  worker.py cli - ARGS...               `python -m exactpp.cli ARGS`
  worker.py cli SPANS.json ARGS...      the same with spans recorded

setup and untraced cli print a line starting with common.TIMING: the seconds
spent on a reference computation before the work, the monotonic clock when the
work ended, and the reference in ms before and after the work.
"""

from __future__ import annotations

import copy
import importlib
import json
import sys
import time
from pathlib import Path

from common import TIMING, derive_seed, reference_ms
from tracer import Tracer, combine_hawkes, hawkes_counts, install

# exactpp, and checks which imports it, are imported only inside functions, so
# that the traced run's cli.import span sees the whole import.


def _setup(config_paths, tracer=None):
    """Import, load and build as the CLI does; returns [(cfg, built)]."""
    if tracer is None:
        from exactpp import cli
    else:
        cli = tracer.span("cli.import", importlib.import_module, "exactpp.cli")
        install(tracer)
    return [(cfg, cli.build(cfg)) for cfg in map(cli.load_config, config_paths)]


REFERENCE_REPS = 45  # about 0.1 s: a few reps in a fresh process are not steady


def with_reference(work):
    """Runs work() between two references and prints their timing; returns its result.

    numpy is imported first: exactpp needs it anyway, so its import stays in
    the work's wall time.
    """
    import numpy  # noqa: F401

    start = time.monotonic()
    before = reference_ms(REFERENCE_REPS)
    ref_s = time.monotonic() - start
    result = work()
    end = time.monotonic()
    print(TIMING, ref_s, end, before, reference_ms(REFERENCE_REPS), flush=True)
    return result


def cmd_setup(config_paths):
    with_reference(lambda: _setup(config_paths))


CALIBRATE_EVERY_S = 0.05


class Loop:
    """Timed draws with their output checks; op_ms holds one latency per operation.

    op_ref holds the same latencies divided by reference_ms(), measured again
    every twentieth of a second between operations.
    """

    def __init__(self, tracer):
        from exactpp.core import RngStream

        self.RngStream = RngStream
        self.tracer = tracer
        self.op_ms = []
        self.op_ref = []
        self.late_ms = []
        self.ref_ms = []
        self.errors = []
        self.attempted = 0
        self.counts = {}
        self._next_calibration = 0.0

    def calibrate(self):
        """Measure the reference again when it is due; call before an operation."""
        if time.perf_counter() >= self._next_calibration:
            self.ref_ms.append(reference_ms())
            self._next_calibration = time.perf_counter() + CALIBRATE_EVERY_S

    def record(self, ms, late):
        self.op_ms.append(ms)
        self.op_ref.append(ms / self.ref_ms[-1])
        if late:
            self.late_ms.append(ms)

    def draw(self, cfg, sample, stream, csv_path=None):
        """RNG setup, one draw and, for mixed-draws, the CSV write; returns the timed ms.

        The output checks that follow are not timed.
        """
        import checks

        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                pattern = _op(self.RngStream, sample, stream, csv_path)
            else:
                pattern = self.tracer.span("bench.draw", _op, self.RngStream, sample, stream,
                                           csv_path)
        except Exception as exc:  # a draw that raises is a failed operation
            self.errors.append(f"{cfg['sampler']}: {type(exc).__name__}: {exc}")
            return (time.perf_counter() - start) * 1e3
        ms = (time.perf_counter() - start) * 1e3
        err = checks.domain_error(cfg, pattern)
        if err is None and csv_path is not None:
            err = checks.csv_error(pattern, csv_path)
            csv_path.unlink()
        if err is not None:
            self.errors.append(f"{cfg['sampler']}: {err}")
        self.counts.setdefault(cfg["sampler"], []).append(pattern.n)
        return ms

    def check_means(self, configs):
        import checks

        for cfg, built in configs:
            expect = checks.expected_mean(cfg, built)
            if expect is not None:
                self.attempted += 1
                err = checks.mean_error(cfg["sampler"], self.counts[cfg["sampler"]], expect)
                if err is not None:
                    self.errors.append(err)


def _op(rng_stream, sample, stream, csv_path):
    pattern = sample(rng_stream(*stream).generator())
    if csv_path is not None:
        pattern.to_csv(csv_path)
    return pattern


def hawkes_draws(loop, configs, sessions, draws):
    """Sessions of `draws` replicates, each from its own copy of the one built sampler.

    Session k draws replicates r = 0..draws-1 from RngStream(seed_k, r), as an
    `exactpp sample` run would; its copy keeps the history of those draws only.
    """
    (cfg, built), = configs
    sample = built["sample"]
    base = getattr(sample, "__wrapped__", sample).__self__  # unwrap the cli.draw span
    counts = []
    for k in range(sessions):
        sampler = copy.deepcopy(base)
        seed = derive_seed(cfg["seed"], f"session-{k}")
        for r in range(draws):
            loop.calibrate()
            loop.record(loop.draw(cfg, sampler.sample, (seed, r)), late=4 * r >= 3 * draws)
        counts.append(hawkes_counts(sampler))
        del sampler  # one session's grid in memory at a time, as in one CLI run
    return counts


def mixed_draws(loop, configs, rounds, tmp):
    """Round r draws replicate r of every sampler and writes it to a fresh CSV.

    The operation is the round: the latencies of ten different samplers mix
    into a distribution whose median jumps between their clusters.
    """
    dirs = []
    for cfg, _ in configs:
        d = Path(tmp) / cfg["sampler"]
        d.mkdir(parents=True, exist_ok=True)
        dirs.append(d)
    for r in range(rounds):
        loop.calibrate()
        ms = sum(loop.draw(cfg, built["sample"], (cfg["seed"], r), d / f"pattern-{r:05d}.csv")
                 for (cfg, built), d in zip(configs, dirs))
        loop.record(ms, late=4 * r >= 3 * rounds)


def cmd_loop(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    tracer = Tracer() if spec["trace"] else None
    configs = _setup(spec["configs"], tracer)
    loop = Loop(tracer)
    sessions = []
    if spec["workload"] == "hawkes-draws":
        sessions = hawkes_draws(loop, configs, spec["sessions"], spec["draws"])
    else:
        mixed_draws(loop, configs, spec["rounds"], spec["tmp"])
    loop.check_means(configs)
    result = {
        "op_ms": loop.op_ms,
        "op_ref": loop.op_ref,
        "ref_ms": loop.ref_ms,
        "late_ms": loop.late_ms,
        "attempted": loop.attempted,
        "errors": loop.errors,
        "hawkes": combine_hawkes(sessions),
    }
    if tracer is not None:
        tracer.hawkes_sessions.extend(sessions)
        result["trace"] = tracer.summary()
        tracer.dump(spec["spans"])
    Path(result_path).write_text(json.dumps(result))


def cmd_cli(spans_path, argv):
    if spans_path == "-":
        return with_reference(lambda: importlib.import_module("exactpp.cli").main(argv))
    tracer = Tracer()
    cli = tracer.span("cli.import", importlib.import_module, "exactpp.cli")
    install(tracer)
    code = cli.main(argv)
    tracer.dump(spans_path)
    Path(spans_path).with_suffix(".summary.json").write_text(json.dumps(tracer.summary()))
    return code


def main(argv):
    mode, *rest = argv
    if mode == "setup":
        cmd_setup(rest)
        return 0
    if mode == "loop":
        cmd_loop(*rest)
        return 0
    if mode == "cli":
        return cmd_cli(rest[0], rest[1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
