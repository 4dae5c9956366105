"""Exact sampling of cluster point processes on a bounded window.

Construction: thin the (possibly infinite-mass) germ down to the germs whose
cluster actually hits the window — for Poisson-cluster kernels the retention
probability is p(x) = 1 - exp(-K(x, W-x)) with K the mean cluster mass
falling in W — then draw each retained germ's points in W directly. By the
colouring theorem (Kingman 1993, Poisson Processes, 5.1) the points of a
Poisson cluster that fall in W are independent of those outside, so given a
hit they are a zero-truncated Poisson(K(x, W-x)) number of i.i.d. points on
the cluster's support intersected with W; the points outside W are never
drawn. The thinned germ has finite mass integral p(x) mu(dx), at most the
germ's bound times the volume of the bounded germ region; the construction
refuses a germ whose bound is not finite, the only way that integral can
diverge.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import DensityIntensity, PointPattern, SamplerError

__all__ = [
    "UniformDisplacement",
    "TranslatedPoissonCluster",
    "BrixKendallSampler",
]

@dataclass(frozen=True)
class UniformDisplacement:
    """Cluster-point displacement uniform on a box [lo_1,hi_1]x...x[lo_m,hi_m]."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not all(a < b for a, b in zip(lo, hi)):
            raise SamplerError("displacement box needs lo < hi per axis")

    @property
    def dim(self):
        return len(self.lo)

    @property
    def support_radius(self):
        """Euclidean bound on one displacement (the farthest box corner)."""
        corner = np.maximum(np.abs(self.lo), np.abs(self.hi))
        return float(np.sqrt(np.sum(corner**2)))

    def sample(self, n, rng):
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return lo + rng.random((int(n), self.dim)) * (hi - lo)

    def _overlap(self, xs, window):
        """Corners (lo, hi) of (x + box) ∩ W for each germ row x; empty where lo >= hi."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return np.maximum(xs + self.lo, window.lower), np.minimum(xs + self.hi, window.upper)

    def prob_in(self, xs, window):
        """P(x + D in W) for each germ row x (closed form, product of overlaps)."""
        lo, hi = self._overlap(xs, window)
        return np.prod(np.clip(hi - lo, 0.0, None) / np.subtract(self.hi, self.lo), axis=1)

    def sample_in(self, xs, counts, window, rng):
        """counts[i] points uniform on (xs[i] + box) ∩ W for each germ row, concatenated."""
        lo, hi = (np.repeat(c, counts, axis=0) for c in self._overlap(xs, window))
        return lo + rng.random(lo.shape) * (hi - lo)


@dataclass(frozen=True)
class TranslatedPoissonCluster:
    """Cluster kernel: Poisson(total_mean) points displaced i.i.d. from the germ.

    K(x, W-x) = total_mean * P(x + D in W) is available in closed form when
    the displacement reports prob_in, which is what makes the retention
    probability 1 - exp(-K) evaluable exactly.
    """

    total_mean: float
    displacement: UniformDisplacement

    def __post_init__(self):
        if not self.total_mean > 0:
            raise SamplerError("cluster mean must be positive")

    @property
    def dim(self):
        return self.displacement.dim

    def mass_in(self, xs, window):
        return self.total_mean * self.displacement.prob_in(xs, window)

    def retention(self, xs, window):
        return -np.expm1(-self.mass_in(xs, window))

    def germ_region(self, window):
        """Smallest box containing every germ whose cluster can hit the window."""
        return window.shifted(
            [-h for h in self.displacement.hi], [-l for l in self.displacement.lo]
        )

    def sample_offsets(self, counts, rng):
        """Concatenated displacements for clusters of the given sizes."""
        return self.displacement.sample(int(np.sum(counts)), rng)

    def sample_conditioned(self, germs, window, rng):
        """In-window points of clusters at the germ rows (k, dim), each cluster
        conditioned on hitting W, and the germ row owning each point.

        The in-W count at x is Poisson(lam), lam = mass_in(x, W). Given a hit it
        is 1 + Poisson(lam - T1), with T1 the first arrival of a unit-rate
        process given that it falls below lam, drawn by inversion; the points
        are i.i.d. uniform on (x + box) ∩ W. No loop, and no point outside W.
        """
        lam = self.mass_in(germs, window)
        if not lam.min(initial=1.0) > 0:
            raise SamplerError("cannot condition a cluster that misses the window to hit it")
        first = -np.log1p(rng.random(lam.size) * np.expm1(-lam))
        # log1p and expm1 round independently, so T1 <= lam is not guaranteed to the ulp
        counts = 1 + rng.poisson(np.maximum(lam - first, 0.0))
        owner = np.repeat(np.arange(lam.size), counts)
        return self.displacement.sample_in(germs, counts, window, rng), owner


class BrixKendallSampler:
    """Exact cluster-process sampler on a window (build once, sample repeatedly).

    Each sample() draws the retained germs by thinning a homogeneous process
    at the germ's bound on the germ region by p(x) mu(x) / bound, then draws
    each retained germ's in-window points directly
    (TranslatedPoissonCluster.sample_conditioned). The same path serves every
    dimension.

    The displacement is bounded, so the germ region (every germ whose
    cluster can reach the window) is a box and no germ is truncated away.
    """

    def __init__(self, germ, kernel, window):
        if kernel.dim != window.dim:
            raise SamplerError("kernel and window dimension mismatch")
        self.germ = germ
        self.kernel = kernel
        self.window = window
        self.region = region = kernel.germ_region(window)

        def thinned_density(pts):
            # DensityIntensity passes a flat array of positions in dim 1
            xs = np.reshape(pts, (-1, window.dim))
            return kernel.retention(xs, window) * germ.density_at(xs)

        bound = float(germ.bound_on(region))
        if not np.isfinite(bound):
            # the retained mass is at most bound * |region|, finite for a finite bound
            raise SamplerError("germ bound is not finite: exact sampling impossible")
        # DensityIntensity refuses a zero bound; the germ is then void
        self._thinned = (
            DensityIntensity(thinned_density, bound=bound, dim=window.dim) if bound > 0 else None
        )

    @functools.cached_property
    def retained_mass(self):
        """Mean retained-germ count (diagnostics and tests): tensor trapezoid in
        2-D, adaptive quadrature in 1-D."""
        if self._thinned is None:
            return 0.0
        if self.window.dim > 1:
            return self._thinned.total_on(self.region)
        from scipy import integrate

        mass, _ = integrate.quad(
            lambda t: float(self._thinned.density_at([[t]])[0]),
            self.region.lower[0],
            self.region.upper[0],
            limit=400,
        )
        return mass

    def sample_retained_germs(self, rng):
        """Thinned germ: Poisson with density p(x) mu(x) on the germ region."""
        if self._thinned is None:
            return np.empty((0, self.window.dim))
        return self._thinned.sample_on(self.region, rng).points

    def sample(self, rng):
        """One exact draw of the cluster process restricted to the window."""
        germs = self.sample_retained_germs(rng)
        points, _ = self.kernel.sample_conditioned(germs, self.window, rng)
        return PointPattern(points, dim=self.window.dim)
