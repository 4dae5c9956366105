"""Spans around calls into the exactpp modules, recorded from outside the package.

`install` replaces public functions and methods with timing wrappers.  A module
that imported a function by name keeps its own reference, so the wrapper is
also set on `exactpp.cli` wherever the CLI looks the name up.  Spans are kept
in memory as [name, start, end, parent index] and written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name) for module-level functions.
FUNCTIONS = (
    ("cli", "load_config", "cli.load_config"),
    ("cli", "cmd_sample", "cli.cmd_sample"),
    ("hawkes_mr", "build_sandwich", "hawkes_mr.build_sandwich"),
    ("hawkes_mr", "sample_gw_cluster", "hawkes_mr.gw_cluster"),
    ("boolean_model", "boolean_exact_sample", "boolean_model.exact_sample"),
    ("boolean_model", "sample_poisson_lines", "boolean_model.lines"),
    ("germ_thinning", "thin_grid", "germ_thinning.grid"),
    ("germ_thinning", "renewal_thin_first", "germ_thinning.renewal"),
    ("germ_thinning", "matern_thin_first", "germ_thinning.matern"),
    ("germ_thinning", "nonlinear_hawkes_germ", "germ_thinning.nonlinear"),
    ("branching_approx", "approx_branching_sample", "branching_approx.sample"),
    ("validation", "replicate_counts", "validation.replicate_counts"),
    ("validation", "two_sample_ks", "validation.ks"),
)

# (module, class, method, span name).
METHODS = (
    ("core", "RngStream", "generator", "core.rng_generator"),
    ("core", "PointPattern", "to_csv", "core.to_csv"),
    ("hawkes_mr", "PhiOperator", "apply", "hawkes_mr.phi_apply"),
    ("hawkes_mr", "Sandwich", "bounds", "hawkes_mr.sandwich_bounds"),
    ("hawkes_mr", "HawkesSampler", "sample", "hawkes_mr.sample"),
    ("hawkes_mr", "HawkesSampler", "_conditioned_cluster", "hawkes_mr.conditioned_cluster"),
    ("cluster_exact", "BrixKendallSampler", "__init__", "cluster_exact.build"),
    ("cluster_exact", "BrixKendallSampler", "sample", "cluster_exact.sample"),
    ("boolean_model", "BooleanSample", "coverage", "boolean_model.coverage"),
    ("poisson", "FiniteDensitySampler", "__init__", "poisson.finite_density_build"),
)

ORACLES = (
    "cluster_direct_oracle",
    "matern_direct_oracle",
    "renewal_thin_after",
    "hawkes_exp_burn_in",
    "nonlinear_hawkes_burn_in",
    "grid_thin_after",
)

# Per-layer metric -> (span name, "calls" | "s" | "self_s").
SPAN_METRICS = {
    "cli.import_s": ("cli.import", "s"),
    "cli.load_config_s": ("cli.load_config", "s"),
    "cli.build_s": ("cli.build", "s"),
    "cli.validate_s": ("cli.validate", "s"),
    "core.rng_generator_calls": ("core.rng_generator", "calls"),
    "core.rng_generator_s": ("core.rng_generator", "s"),
    "core.to_csv_calls": ("core.to_csv", "calls"),
    "core.to_csv_s": ("core.to_csv", "s"),
    "hawkes_mr.build_sandwich_calls": ("hawkes_mr.build_sandwich", "calls"),
    "hawkes_mr.build_sandwich_s": ("hawkes_mr.build_sandwich", "s"),
    "hawkes_mr.phi_apply_calls": ("hawkes_mr.phi_apply", "calls"),
    "hawkes_mr.phi_apply_s": ("hawkes_mr.phi_apply", "s"),
    "hawkes_mr.sandwich_bounds_calls": ("hawkes_mr.sandwich_bounds", "calls"),
    "hawkes_mr.sandwich_bounds_s": ("hawkes_mr.sandwich_bounds", "s"),
    "hawkes_mr.gw_cluster_calls": ("hawkes_mr.gw_cluster", "calls"),
    "hawkes_mr.gw_cluster_s": ("hawkes_mr.gw_cluster", "s"),
    "hawkes_mr.sample_self_s": ("hawkes_mr.sample", "self_s"),
    "cluster_exact.build_s": ("cluster_exact.build", "s"),
    "cluster_exact.sample_s": ("cluster_exact.sample", "s"),
    "boolean_model.exact_sample_s": ("boolean_model.exact_sample", "s"),
    "boolean_model.lines_s": ("boolean_model.lines", "s"),
    "boolean_model.coverage_s": ("boolean_model.coverage", "s"),
    "germ_thinning.grid_s": ("germ_thinning.grid", "s"),
    "germ_thinning.renewal_s": ("germ_thinning.renewal", "s"),
    "germ_thinning.matern_s": ("germ_thinning.matern", "s"),
    "germ_thinning.nonlinear_s": ("germ_thinning.nonlinear", "s"),
    "poisson.finite_density_build_calls": ("poisson.finite_density_build", "calls"),
    "poisson.finite_density_build_s": ("poisson.finite_density_build", "s"),
    "branching_approx.sample_s": ("branching_approx.sample", "s"),
    "validation.replicate_counts_s": ("validation.replicate_counts", "s"),
    "validation.ks_s": ("validation.ks", "s"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.hawkes_samplers = []  # built through HawkesSampler.__init__
        self.hawkes_sessions = []  # counters of sampler copies drawn by the benchmark
        self._stack = []

    def wrap(self, fn, name, after=None):
        """fn timed as span `name`; after(args, result) runs once fn returns."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span."""
        return self.wrap(fn, name)(*args)

    def summary(self):
        """Per span name: [calls, inclusive seconds, self seconds]; plus the write time.

        Self time is a span's duration minus the durations of its child spans.
        cli.write is the part of cmd_sample spent outside building, drawing and
        validating: the pattern CSVs, meta.json and the validation report.
        """
        child = [0.0] * len(self.spans)
        not_write = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
                if self.spans[parent][0] == "cli.cmd_sample" and name != "core.to_csv":
                    not_write[parent] += end - start
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        write_s = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            a = agg[name]
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child[i]
            if name == "cli.cmd_sample":
                write_s += end - start - not_write[i]
        return {
            "spans": dict(agg),
            "counts": dict(self.counts),
            "write_s": write_s,
            "hawkes": combine_hawkes([hawkes_counts(h) for h in self.hawkes_samplers]
                                     + self.hawkes_sessions),
        }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


HAWKES_STATS = ("condition_attempts", "fallback_coins", "grid_levels_built")


def hawkes_counts(sampler):
    """A HawkesSampler's counters and the node count of its current grid."""
    out = {key: int(sampler.stats[key]) for key in HAWKES_STATS}
    out["grid_nodes_final"] = int(sampler.sandwich.phi.n_nodes)
    return out


def combine_hawkes(counts):
    """Counters summed over samplers; grid_nodes_final is the largest grid."""
    out = {key: sum(c[key] for c in counts) for key in HAWKES_STATS}
    out["grid_nodes_final"] = max((c["grid_nodes_final"] for c in counts), default=0)
    return out


def install(tracer):
    """Wrap the exactpp layers; call after `import exactpp.cli`, before any build."""
    import importlib

    cli = importlib.import_module("exactpp.cli")

    def module(name):
        return importlib.import_module(f"exactpp.{name}")

    for mod_name, attr, span in FUNCTIONS:
        mod = module(mod_name)
        original = getattr(mod, attr)
        traced = tracer.wrap(original, span)
        setattr(mod, attr, traced)
        if getattr(cli, attr, None) is original:
            setattr(cli, attr, traced)

    def count_rows(args, _):
        tracer.counts["core.to_csv_rows"] += args[0].n

    oracles = module("oracles")
    for attr in ORACLES:
        setattr(oracles, attr, tracer.wrap(getattr(oracles, attr), f"oracles.{attr}"))

    for mod_name, cls_name, attr, span in METHODS:
        cls = getattr(module(mod_name), cls_name)
        after = count_rows if span == "core.to_csv" else None
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), span, after))

    hawkes_cls = module("hawkes_mr").HawkesSampler
    hawkes_init = hawkes_cls.__init__

    def register(self, *args, **kwargs):
        hawkes_init(self, *args, **kwargs)
        tracer.hawkes_samplers.append(self)

    hawkes_cls.__init__ = register

    build = cli.build

    def traced_build(cfg):
        built = build(cfg)
        built["sample"] = tracer.wrap(built["sample"], "cli.draw")
        built["validate"] = tracer.wrap(built["validate"], "cli.validate")
        return built

    cli.build = tracer.wrap(traced_build, "cli.build")


def merge(summaries):
    """Sum summaries from several processes (grid_nodes_final takes the maximum)."""
    out = {"spans": defaultdict(lambda: [0, 0.0, 0.0]), "counts": Counter(), "write_s": 0.0}
    for s in summaries:
        for name, vals in s["spans"].items():
            out["spans"][name] = [a + b for a, b in zip(out["spans"][name], vals)]
        out["counts"].update(s["counts"])
        out["write_s"] += s["write_s"]
    out["hawkes"] = combine_hawkes([s["hawkes"] for s in summaries])
    return out


def layer_metrics(summary):
    """The per-layer metrics of BENCHMARK.json that spans and counters give."""
    spans = summary["spans"]
    out = {}
    for metric, (name, kind) in SPAN_METRICS.items():
        calls, total, self_s = spans.get(name, (0, 0.0, 0.0))
        out[metric] = {"calls": calls, "s": total, "self_s": self_s}[kind]
    out["cli.write_s"] = summary["write_s"]
    out["core.to_csv_rows"] = summary["counts"].get("core.to_csv_rows", 0)
    oracle_spans = [v for k, v in spans.items() if k.startswith("oracles.")]
    out["oracles.calls"] = sum(v[0] for v in oracle_spans)
    out["oracles.s"] = sum(v[1] for v in oracle_spans)
    h = summary["hawkes"]
    for key in ("condition_attempts", "fallback_coins", "grid_levels_built", "grid_nodes_final"):
        out[f"hawkes_mr.{key}"] = h[key]
    # a conditioned-cluster call that returns has found one useful cluster
    useful = spans.get("hawkes_mr.conditioned_cluster", (0,))[0]
    attempts = h["condition_attempts"]
    out["hawkes_mr.condition_accept_ratio"] = useful / attempts if attempts else 0.0
    return out
