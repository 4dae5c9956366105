"""Command-line interface: exact sampling runs driven by JSON configs.

Subcommands:
  sample   -c CONFIG -o DIR   write one CSV pattern per replicate (and a validation
                              report when the config enables it), then meta.json;
                              an earlier run's meta.json, report and patterns past
                              this run's replicates are removed first
  validate -c CONFIG          run the sampler's statistical battery (Holm-joint)
  plotdata -c CONFIG --kind K [-o DIR]  emit plot-ready CSV for the given kind

Exit codes: 0 success, 1 validation rejection, 2 config schema error,
3 sampler error.  Replicate r always uses the stream (seed, stream_id=r), so
outputs are byte-identical across reruns and independent of EXACTPP_WORKERS.

Configs are read by one reader, _Obj, and each sampler's registry entry
declares its params keys, its window dimension and the module that holds its
builder, _build_<sampler>: Poisson's is in core, beside the draws it makes, and
every other one is at the end of its sampler's module. Every config error about
a single value (an unknown, missing or mistyped key, or a value out of its
range) names the value's dotted path and exits 2. Conditions on several
values together or on the model are the samplers' own checks, made when a
sampler is built or run; a refusal of several values of one config object
(lo < hi, mark weights that sum to one) names that object's dotted path and
keeps the sampler's exit code. Model-level impossibilities (supercritical
kernels, unbounded buffers, point counts too large to draw) exit 3.

Only core is imported with this module, and argparse only when main() runs.
build imports the module that holds the builder a config names (core, already
loaded, for Poisson), and each validation imports validation and each oracle
imports oracles when it runs; so a run loads only the modules of the sampler
its config names (validation and oracles only when validation runs), a build
or a sample run with validation off loads no validation, the plot module is
loaded only by plotdata, and concurrent.futures is loaded only when
EXACTPP_WORKERS > 1. No other module imports this one, so
`python -m exactpp.cli` compiles it once.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .core import (
    _AT_LEAST_1,
    _NONNEG,
    _OPEN_UNIT,
    ConfigError,
    RngStream,
    SamplerError,
    Window,
    _finite,
    _jsonable,
    _made,
    _make_output_dir,
    config_hash,
)

SCHEMA_VERSION = 1


# -- config reader -------------------------------------------------------------------

_MISSING = object()
_KINDS = {int: "an integer", bool: "true or false", str: "a string", list: "a list",
          dict: "an object"}


class _Obj:
    """A config object at a dotted path, with only the given keys (any keys for None).

    Every value it refuses raises ConfigError naming the value's dotted path.
    """

    def __init__(self, value, path, keys=None):
        self.value, self.path = value, path
        if not isinstance(value, dict):
            raise ConfigError(f"'{path}' must be an object")
        unknown = sorted(set(value) - set(keys)) if keys is not None else []
        if unknown:
            raise ConfigError(f"unknown key '{self._at(unknown[0])}'")

    def _at(self, key):
        return f"{self.path}.{key}" if self.path else key

    def get(self, key, kind, default=_MISSING, check=None):
        """The value at key, of the given kind (float: any finite number); a
        check (test, phrase) refuses a value that fails the test."""
        if key not in self.value:
            if default is _MISSING:
                raise ConfigError(f"missing key '{self._at(key)}'")
            return default
        v = self.value[key]
        if kind is float:
            v = _finite(v)
            if v is None:
                raise ConfigError(f"'{self._at(key)}' must be a finite number")
        elif not isinstance(v, kind) or (kind is int and isinstance(v, bool)):
            raise ConfigError(f"'{self._at(key)}' must be {_KINDS[kind]}")
        if check is not None and not check[0](v):
            raise ConfigError(f"'{self._at(key)}' {check[1]}")
        return v

    def floats(self, key, n=None, check=None):
        """A list of finite numbers as a tuple, of length n if given; check applies to each."""
        out = tuple(map(_finite, self.get(key, list)))
        if None in out:
            raise ConfigError(f"'{self._at(key)}' must be a list of finite numbers")
        if n is not None and len(out) != n:
            raise ConfigError(f"'{self._at(key)}' must have {n} entries")
        if check is not None and not all(map(check[0], out)):
            raise ConfigError(f"'{self._at(key)}' entries {check[1]}")
        return out

    def obj(self, key, keys, default=_MISSING):
        return _Obj(self.get(key, dict, default), self._at(key), keys)

    def variant(self, tag, variants):
        """(tag, this object) for the tag naming one of variants, a dict from
        each tag to the keys that variant takes besides the tag."""
        name = self.get(tag, str)
        if name not in variants:
            raise ConfigError(f"'{self._at(tag)}' must be one of: {', '.join(variants)}")
        return name, _Obj(self.value, self.path, {tag, *variants[name]})

    def tagged(self, key, tag, variants):
        """The object at key as variant() reads it."""
        return self.obj(key, None).variant(tag, variants)

    def window(self, key, dim):
        """The box at key, of dimension dim (any dimension for None). A string
        dim says where a sampler without a window draws: the key must be absent,
        and the result is None."""
        if isinstance(dim, str):
            if key in self.value:
                raise ConfigError(f"unknown key '{self._at(key)}' (this sampler {dim})")
            return None
        w = self.obj(key, ("lower", "upper"))
        return _made(w.path, Window, w.floats("lower", dim), w.floats("upper", dim))


# -- sampler registry ----------------------------------------------------------------
#
# Each builder, _build_<sampler>, takes the params reader and the window (None for
# a sampler without one). Poisson's is in core, beside the draws it makes; every
# other one is at the end of its sampler's module.


_HALF_AXIS = "runs on its own half-axis"

# name -> (the module that defines its builder; its params keys (None: the
#          builder's variant checks them); its window: a dimension, None for any,
#          or for a sampler without one a phrase saying where it draws)
_BUILDERS = {
    "poisson": ("core", ("rate",), None),
    "brix_kendall": ("cluster_exact", ("rate0", "cluster_mean", "displacement"), None),
    "boolean_disks": ("boolean_model", ("rate", "radius"), 2),
    "boolean_segments": ("boolean_model", ("rate", "length"), 2),
    "poisson_lines": ("boolean_model", ("rate", "target_center", "target_radius", "germ_region"),
                      "draws its germs on params.germ_region"),
    "grid_thinning": ("germ_thinning", None, _HALF_AXIS),
    "renewal": ("germ_thinning", ("interarrival", "thin"), _HALF_AXIS),
    "matern": ("germ_thinning", ("rate", "radius", "thin_p"), None),
    "nonlinear_hawkes": ("germ_thinning", ("phi", "excitation"), 1),
    "hawkes_mr": ("hawkes_mr", ("kernel", "mu", "tol", "step"), 1),
    "branching_approx": ("branching_approx",
                         ("rate0", "progeny_mean", "displacement", "generations"), None),
}

_TOP_KEYS = ("schema", "sampler", "seed", "replicates", "window", "params", "validation")


def load_config(path):
    """The config at path, read as UTF-8 JSON and checked at the top level; a
    file that cannot be read (missing, a directory, unreadable, not UTF-8)
    raises ConfigError naming the path, as a schema error does."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file is not UTF-8 text: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    top = _Obj(cfg, "", _TOP_KEYS)
    if top.get("schema", int, SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"'schema' must be {SCHEMA_VERSION}")
    sampler = top.get("sampler", str)
    if sampler not in _BUILDERS:
        raise ConfigError(
            f"unknown sampler '{sampler}'; available: {', '.join(sorted(_BUILDERS))}"
        )
    top.get("seed", int, check=_NONNEG)
    top.get("replicates", int, 1, _AT_LEAST_1)
    val = top.obj("validation", ("enabled", "replicates", "alpha"), {})
    val.get("enabled", bool, False)
    val.get("replicates", int, 400, (lambda n: n >= 2, "must be at least 2"))
    val.get("alpha", float, 0.05, _OPEN_UNIT)
    return cfg


def build(cfg):
    """The built sampler of a loaded config, as a dict: sample(rng), window,
    validate(stream, n_reps, collector), plots, meta and sampler-specific extras."""
    home, keys, dim = _BUILDERS[cfg["sampler"]]
    make = getattr(importlib.import_module(f".{home}", __package__), f"_build_{cfg['sampler']}")
    top = _Obj(cfg, "", _TOP_KEYS)
    return make(top.obj("params", keys), top.window("window", dim))


# -- commands -------------------------------------------------------------------------


def _write_patterns(built, seed, outdir, indices):
    for r in indices:
        rng = RngStream(seed, stream_id=r).generator()
        built["sample"](rng).to_csv(Path(outdir) / f"pattern-{r:05d}.csv")


def _write_range(cfg, outdir, indices):
    """Pool worker: build the sampler and write the given replicates."""
    _write_patterns(build(cfg), cfg["seed"], outdir, indices)


def _run_validation(cfg, built):
    from .validation import ReportCollector

    val = cfg.get("validation", {})
    collector = ReportCollector(alpha=val.get("alpha", 0.05))
    built["validate"](
        RngStream(cfg["seed"], stream_id=20_000), val.get("replicates", 400), collector
    )
    reports, all_ok = collector.finalize()
    for r in reports:
        print(
            f"{'PASS' if r.accepted else 'FAIL'} {r.name}: "
            f"statistic={r.statistic:.6g} threshold={r.threshold:.6g}"
            + (f" pvalue={r.pvalue:.4g}" if r.pvalue is not None else "")
        )
    return reports, all_ok


def _write_reports(reports, path):
    with open(path, "w") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_sample(cfg, outdir):
    reps = cfg.get("replicates", 1)
    try:
        workers = min(max(int(os.environ.get("EXACTPP_WORKERS", "1")), 1), reps)
    except ValueError:
        raise ConfigError("EXACTPP_WORKERS must be an integer") from None
    built = build(cfg)  # a config the build refuses leaves no output directory
    outdir = Path(outdir)
    _make_output_dir(outdir)
    # meta.json is written last, so a directory holds one only once a run has finished;
    # an earlier run's report and its patterns past this run's replicates go with it
    (outdir / "meta.json").unlink(missing_ok=True)
    (outdir / "validation_report.json").unlink(missing_ok=True)
    for path in outdir.glob("pattern-*.csv"):
        r = path.name[len("pattern-"):-len(".csv")]
        if r.isdigit() and int(r) >= reps and path.name == f"pattern-{int(r):05d}.csv":
            path.unlink()
    # replicate r goes to chunk r % workers; the parent writes chunk 0 (all of a serial run)
    chunks = [list(range(i, reps, workers)) for i in range(workers)]
    pool = nullcontext()
    if workers > 1:
        from concurrent import futures  # only a parallel run pays for this import

        pool = futures.ProcessPoolExecutor(workers - 1)
    with pool:
        jobs = [pool.submit(_write_range, cfg, outdir, c) for c in chunks[1:]]
        _write_patterns(built, cfg["seed"], outdir, chunks[0])
        for job in jobs:
            job.result()
    meta = {
        "schema": SCHEMA_VERSION,
        "sampler": cfg["sampler"],
        "seed": cfg["seed"],
        "replicates": reps,
        "config_hash": config_hash(cfg),
        "meta": _jsonable(built["meta"]),
        # pattern bytes also depend on numpy's distribution algorithms and on
        # the SIMD kernels numpy picks for this CPU
        "numpy": np.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "simd": np.show_config(mode="dicts")["SIMD Extensions"].get("found", []),  # absent if none
    }
    print(f"wrote {reps} pattern file(s) to {outdir}")
    all_ok = True
    if cfg.get("validation", {}).get("enabled", False):
        reports, all_ok = _run_validation(cfg, built)
        _write_reports(reports, outdir / "validation_report.json")
    with open(outdir / "meta.json", "w") as fh:  # a rejected validation finishes the run too
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if not all_ok:
        print("validation rejected", file=sys.stderr)
        return 1
    return 0


def cmd_validate(cfg):
    built = build(cfg)
    reports, all_ok = _run_validation(cfg, built)
    if not all_ok:
        print("validation rejected", file=sys.stderr)
        return 1
    print("validation accepted")
    return 0


def main(argv=None):
    import argparse  # with gettext and locale about 1.3 ms, which load_config and build skip

    parser = argparse.ArgumentParser(
        prog="exactpp", description="Exact point-process sampling from JSON configs."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sample = sub.add_parser("sample", help="write replicate pattern files")
    p_sample.add_argument("-c", "--config", required=True)
    p_sample.add_argument("-o", "--out", required=True)
    p_val = sub.add_parser("validate", help="run the statistical battery")
    p_val.add_argument("-c", "--config", required=True)
    p_plot = sub.add_parser("plotdata", help="emit plot-ready CSV")
    p_plot.add_argument("-c", "--config", required=True)
    p_plot.add_argument(
        "--kind", required=True,
        choices=["points-2d", "counts-histogram", "sandwich-curves", "coverage-raster"],
    )
    p_plot.add_argument("-o", "--out", default="plotdata")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "sample":
            return cmd_sample(cfg, args.out)
        if args.command == "validate":
            return cmd_validate(cfg)
        from .plotdata import cmd_plotdata  # only this command loads the plot module

        return cmd_plotdata(cfg, build(cfg), args.kind, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SamplerError as exc:
        print(f"sampler error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an output file that cannot be written: a directory at its path, say
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
