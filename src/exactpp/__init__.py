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
  a closed-form tilted envelope with spine clusters, and certified
  fixed-point sandwich bounds on the cluster-length distribution
- branching_approx: generation-truncated branching with variation-distance
  certificates
- validation: statistical acceptance harness (KS, chi-square, Laplace, Holm)
- oracles: independently-coded reference samplers used only by validation
- cli: `exactpp sample | validate | plotdata` driven by JSON configs

scipy is imported inside the few routines that call it (quadrature, the
trigamma tail, the one-sample KS and chi-square tests), so importing the
package, or building and drawing a Hawkes sampler, loads no scipy module.
The two-sample KS test computes its p-value with numpy alone, so no CLI
command loads scipy.stats.
"""

from .boolean_model import (
    BooleanSample,
    DiskGrains,
    DiskWindow,
    ExpRadius,
    FixedRadius,
    SegmentGrains,
    UniformRadius,
    boolean_exact_sample,
    hit_prob_poisson_line,
    sample_poisson_lines,
)
from .branching_approx import (
    TruncationCertificate,
    approx_branching_sample,
    certificate_generations_for,
)
from .cluster_exact import (
    BrixKendallSampler,
    TranslatedPoissonCluster,
    UniformDisplacement,
)
from .core import (
    ConfigError,
    DensityIntensity,
    LebesgueIntensity,
    PointPattern,
    RngStream,
    SamplerError,
    Window,
)
from .germ_thinning import (
    GeometricGrid,
    InverseSquareGrid,
    TableGrid,
    matern_thin_first,
    nonlinear_hawkes_germ,
    renewal_thin_first,
    thin_grid,
)
from .hawkes_mr import (
    ExponentialFertility,
    GWCluster,
    HawkesSampler,
    PhiOperator,
    PiecewiseConstantFertility,
    PolynomialFertility,
    Sandwich,
    build_sandwich,
    sample_gw_cluster,
)

__version__ = "0.1.0"

__all__ = [
    "BooleanSample",
    "BrixKendallSampler",
    "ConfigError",
    "DensityIntensity",
    "DiskGrains",
    "DiskWindow",
    "ExpRadius",
    "ExponentialFertility",
    "FixedRadius",
    "GWCluster",
    "GeometricGrid",
    "HawkesSampler",
    "InverseSquareGrid",
    "LebesgueIntensity",
    "PhiOperator",
    "PiecewiseConstantFertility",
    "PointPattern",
    "PolynomialFertility",
    "RngStream",
    "SamplerError",
    "Sandwich",
    "SegmentGrains",
    "TableGrid",
    "TranslatedPoissonCluster",
    "TruncationCertificate",
    "UniformDisplacement",
    "UniformRadius",
    "Window",
    "approx_branching_sample",
    "boolean_exact_sample",
    "build_sandwich",
    "certificate_generations_for",
    "hit_prob_poisson_line",
    "matern_thin_first",
    "nonlinear_hawkes_germ",
    "renewal_thin_first",
    "sample_gw_cluster",
    "sample_poisson_lines",
    "thin_grid",
]
