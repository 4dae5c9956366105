"""Exact sampling of cluster point processes, Boolean models, and Hawkes processes.

Samplers produce point patterns on bounded windows whose law is exactly the
restriction of the stationary target process: germs are thinned to those
that reach the window, or drawn only there, and never truncated. The package
is organized by construction:

- core: windows, point patterns, reproducible RNG streams, intensity measures,
  the homogeneous Poisson draw and the thinning coin
- poisson: finite-density Poisson sampling on the half-line; no sampler uses it
- cluster_exact: retention thinning, then each kept germ's in-window points
  drawn directly
- boolean_model: grain processes (disks, segments, lines) with edge correction
- germ_thinning: thinned grids, renewal streams, Matern hard cores,
  non-linear self-exciting germs
- hawkes_mr: perfect sampling of linear Hawkes processes by thinning under
  a closed-form tilted envelope with spine clusters
- sandwich: certified fixed-point sandwich bounds on the Hawkes
  cluster-length distribution, loaded only when a sampler's curve is read
- branching_approx: the Galton-Watson engine that grows every iterated
  cluster (Hawkes and spatial branching), the layout of size-biased spines,
  and generation-truncated branching with variation-distance certificates
- validation: statistical acceptance harness (KS, chi-square, Laplace, Holm)
- oracles: independently-coded reference samplers used only by validation
- cli: `exactpp sample | validate | plotdata` driven by JSON configs; each
  sampler module ends with its config builders, and core holds Poisson's
- plotdata: the plot-ready CSV of `exactpp plotdata`, loaded only by that command

Importing the package loads none of these modules. Each name in `__all__` is
imported from its module on first access, and the CLI imports a sampler's
modules only when it builds that sampler and validation only when a run
validates, so a run loads core, cli and the modules of the one sampler its
config names (with validation, and oracles when its validation runs one,
only when it validates), and a build alone loads no validation. The value
classes are plain classes on one read-only base in core, so an import
compiles no generated methods.

numpy is the only runtime dependency: no module imports scipy. The
two-sample KS test computes its p-value with `math` (exact for equal sample
sizes, from the Kolmogorov limit otherwise), and the chi-square test with
the incomplete gamma function of germ_thinning.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each exported name
_HOMES = {
    "boolean_model": ("BooleanSample", "DiskGrains", "DiskWindow", "ExpRadius", "FixedRadius",
                      "SegmentGrains", "UniformRadius", "boolean_exact_sample",
                      "hit_prob_poisson_line", "sample_poisson_lines"),
    "branching_approx": ("GWCluster", "TruncationCertificate", "approx_branching_sample",
                         "certificate_generations_for", "sample_gw_cluster"),
    "cluster_exact": ("BrixKendallSampler", "TranslatedPoissonCluster", "UniformDisplacement"),
    "core": ("ConfigError", "DensityIntensity", "LebesgueIntensity", "PointPattern", "RngStream",
             "SamplerError", "Window"),
    "germ_thinning": ("GeometricGrid", "InverseSquareGrid", "TableGrid", "matern_thin_first",
                      "nonlinear_hawkes_germ", "renewal_thin_first", "thin_grid"),
    "hawkes_mr": ("ExponentialFertility", "HawkesSampler", "PiecewiseConstantFertility",
                  "PolynomialFertility"),
    "sandwich": ("PhiOperator", "Sandwich", "build_sandwich"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """An exported name, imported from its module on first access (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
