"""Exact sampling of cluster point processes on a bounded window.

Construction: thin the (possibly infinite-mass) germ down to the germs whose
cluster actually hits the window — for Poisson-cluster kernels the retention
probability is p(x) = 1 - exp(-K(x, W-x)) with K the mean cluster mass
falling in W — then attach one cluster per retained germ conditioned on
hitting W, superpose, and restrict. The thinned germ has finite mass
integral p(x) mu(dx), at most the germ's bound times the volume of the
bounded germ region; the construction refuses a germ whose bound is not
finite, the only way that integral can diverge.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import DensityIntensity, PointPattern, SamplerError

__all__ = [
    "UniformDisplacement",
    "TranslatedPoissonCluster",
    "sample_conditioned_cluster",
    "BrixKendallSampler",
]

ROUND_CAP = 10_000  # conditioning rounds before declaring the draw implausible
RETENTION_FLOOR = 1e-9  # smallest conditioning probability a germ may have


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

    def prob_in(self, xs, window):
        """P(x + D in W) for each germ row x (closed form, product of overlaps)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        p = np.ones(xs.shape[0])
        for d in range(self.dim):
            a = xs[:, d] + self.lo[d]
            b = xs[:, d] + self.hi[d]
            overlap = np.minimum(b, window.upper[d]) - np.maximum(a, window.lower[d])
            p *= np.clip(overlap, 0.0, None) / (self.hi[d] - self.lo[d])
        return p


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


def sample_conditioned_cluster(kernel, germs, window, rng):
    """Clusters at the germ rows (k, dim), each conditioned on putting a point in W.

    Rejection in batched rounds: each germ whose cluster has not hit W yet
    draws a fresh one.  Returns the accepted clusters' points (inside W or
    not), the germ row owning each point and the clusters drawn per germ.
    Raises for a conditioning probability below RETENTION_FLOOR, or after
    ROUND_CAP rounds (e^-60 territory for any retention above 1e-2: a broken
    configuration, not bad luck).
    """
    p = kernel.retention(germs, window)
    if np.any(p < RETENTION_FLOOR):
        i = int(np.argmin(p))
        raise SamplerError(
            f"conditioning probability {p[i]:.3e} below floor {RETENTION_FLOOR:.1e} "
            f"at germ {germs[i].tolist()}"
        )
    attempts = np.zeros(germs.shape[0], dtype=np.int64)
    collected, owners = [], []
    live = np.arange(germs.shape[0])
    for _ in range(ROUND_CAP):
        attempts[live] += 1
        counts = rng.poisson(kernel.total_mean, size=live.size)
        offsets = kernel.sample_offsets(counts, rng)
        germ_idx = np.repeat(np.arange(live.size), counts)
        pts = germs[live[germ_idx]] + offsets
        hit_germ = np.zeros(live.size, dtype=bool)
        np.logical_or.at(hit_germ, germ_idx[window.contains(pts)], True)
        keep_rows = hit_germ[germ_idx]
        collected.append(pts[keep_rows])
        owners.append(live[germ_idx[keep_rows]])
        live = live[~hit_germ]
        if not live.size:
            break
    else:
        raise SamplerError(
            f"conditioning round cap {ROUND_CAP} exceeded for {live.size} germs"
        )
    return np.vstack(collected), np.concatenate(owners), attempts


class BrixKendallSampler:
    """Exact cluster-process sampler on a window (build once, sample repeatedly).

    Each sample() draws the retained germs by thinning a homogeneous process
    at the germ's bound on the germ region by p(x) mu(x) / bound, attaches
    clusters conditioned to hit the window in batched rejection rounds, and
    restricts. The same path serves every dimension.

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
        points, _, _ = sample_conditioned_cluster(self.kernel, germs, self.window, rng)
        return PointPattern(points, dim=self.window.dim).restrict(self.window)
