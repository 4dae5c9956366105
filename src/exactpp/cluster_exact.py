"""Exact sampling of cluster point processes on a bounded window.

Construction: thin the (possibly infinite-mass) germ down to the germs whose
cluster actually hits the window — for Poisson-cluster kernels the retention
probability is p(x) = 1 - exp(-K(x, W-x)) with K the mean cluster mass
falling in W — then draw each retained germ's points in W directly. By the
colouring theorem (Kingman 1993, Poisson Processes, 5.1) the points of a
Poisson cluster that fall in W are independent of those outside, so given a
hit they are a zero-truncated Poisson(K(x, W-x)) number of i.i.d. points on
the cluster's support intersected with W; the points outside W are never
drawn. The germ is homogeneous Poisson at a constant rate, so the thinned
germ has finite mass, the integral of rate * p(x) over the bounded germ
region, at most the rate times its volume; the construction refuses a rate
that is not finite, the only way that integral can diverge.
"""

from __future__ import annotations

import numpy as np

from . import core
from .core import (_NONNEG, _POS, LebesgueIntensity, PointPattern, SamplerError, _built,
                   _count_checks, _Frozen, _made, chain_offsets, homogeneous_chains, thin_chains)

__all__ = [
    "UniformDisplacement",
    "TranslatedPoissonCluster",
    "BrixKendallSampler",
]


class UniformDisplacement(_Frozen):
    """Cluster-point displacement uniform on a box [lo_1,hi_1]x...x[lo_m,hi_m];
    its corners and side lengths are also kept as read-only arrays, made once."""

    _fields = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = tuple(float(v) for v in np.atleast_1d(lo))
        hi = tuple(float(v) for v in np.atleast_1d(hi))
        if len(lo) != len(hi) or not all(a < b for a, b in zip(lo, hi)):
            raise SamplerError("displacement box needs lo < hi per axis")
        box = np.array((lo, hi, np.subtract(hi, lo)))
        box.setflags(write=False)  # its rows are views, read-only too
        self.__dict__.update(lo=lo, hi=hi, _lo=box[0], _hi=box[1], _width=box[2])

    @property
    def dim(self):
        return len(self.lo)

    @property
    def support_radius(self):
        """Euclidean bound on one displacement (the farthest box corner)."""
        corner = np.maximum(np.abs(self.lo), np.abs(self.hi))
        return float(np.sqrt(np.sum(corner**2)))

    def sample(self, n, rng):
        return self._lo + rng.random((int(n), self.dim)) * self._width

    def overlap(self, xs, window):
        """Corners (lo, hi) of (x + box) ∩ W for each row x of the (k, dim) array
        xs; the overlap is empty where lo >= hi."""
        return np.maximum(xs + self._lo, window.lo), np.minimum(xs + self._hi, window.hi)

    def prob_in(self, corners):
        """P(x + D in W) for each germ row x from the corners of its overlap
        (closed form, product of overlaps)."""
        lo, hi = corners
        return np.multiply.reduce(np.maximum(hi - lo, 0.0) / self._width, axis=1)

    def sample_in(self, corners, counts, rng):
        """counts[i] points uniform on the i-th overlap (corners from overlap), concatenated."""
        lo, hi = (np.repeat(c, counts, axis=0) for c in corners)
        return lo + rng.random(lo.shape) * (hi - lo)


class TranslatedPoissonCluster(_Frozen):
    """Cluster kernel: Poisson(total_mean) points displaced i.i.d. from the germ.

    K(x, W-x) = total_mean * P(x + D in W) is available in closed form when
    the displacement reports prob_in, which is what makes the retention
    probability 1 - exp(-K) evaluable exactly. total_mean must lie in
    (0, core.MAX_MEAN_POINTS].
    """

    _fields = ("total_mean", "displacement")

    def __init__(self, total_mean, displacement):
        if not total_mean > 0:
            raise SamplerError("cluster mean must be positive")
        if not total_mean <= core.MAX_MEAN_POINTS:
            raise SamplerError(
                f"cluster mean {total_mean:.3g} exceeds the limit {core.MAX_MEAN_POINTS:.0e}"
            )
        self.__dict__.update(total_mean=total_mean, displacement=displacement)

    @property
    def dim(self):
        return self.displacement.dim

    # a branching_approx.sample_gw_cluster kernel: one mark, and total_mean children a point
    one_mark_nu = property(lambda self: self.total_mean)
    sample_displacement = property(lambda self: self.displacement.sample)

    def germ_region(self, window):
        """Smallest box containing every germ whose cluster can hit the window."""
        return window.shifted(
            [-h for h in self.displacement.hi], [-l for l in self.displacement.lo]
        )

    def sample_conditioned(self, corners, lam, rng):
        """In-window points of clusters at k germs, each cluster conditioned on
        hitting W, and the k cluster sizes; corners are the germs' overlaps
        (x + box) ∩ W, from displacement.overlap.

        lam holds K(x, W - x) at each germ: the in-W count at x is
        Poisson(lam). Given a hit it is 1 + Poisson(lam - T1), with T1 the
        first arrival of a unit-rate process given that it falls below lam,
        drawn by inversion; the points are i.i.d. uniform on (x + box) ∩ W. No
        loop, and no point outside W.
        """
        if not lam.min(initial=1.0) > 0:
            raise SamplerError("cannot condition a cluster that misses the window to hit it")
        first = -np.log1p(rng.random(lam.size) * np.expm1(-lam))
        # log1p and expm1 round independently, so T1 <= lam is not guaranteed to the ulp
        counts = 1 + rng.poisson(np.maximum(lam - first, 0.0))
        return self.displacement.sample_in(corners, counts, rng), counts


class BrixKendallSampler:
    """Exact cluster-process sampler on a window (build once, sample repeatedly).

    The germ is a LebesgueIntensity, homogeneous Poisson at germ.rate. Each
    sample() draws the retained germs by thinning a homogeneous process at
    that rate on the germ region by p(x), then draws each retained germ's
    in-window points directly (TranslatedPoissonCluster.sample_conditioned).
    The same path serves every dimension.

    The displacement is bounded, so the germ region (every germ whose
    cluster can reach the window) is a box and no germ is truncated away.
    The germ region and the rate are fixed when the sampler is built; a draw
    computes each germ's overlap with the window once.
    """

    def __init__(self, germ, kernel, window):
        if not kernel.dim == window.dim == germ.dim:
            raise SamplerError("germ, kernel and window dimension mismatch")
        self.kernel = kernel
        self.window = window
        self.region = kernel.germ_region(window)
        self.rate = float(germ.rate)
        if not np.isfinite(self.rate):
            # the retained mass is at most rate * |region|, finite for a finite rate
            raise SamplerError("germ rate is not finite: exact sampling impossible")

    def _retained_germs(self, rng, n_chains=1):
        """Thinned germ of n_chains independent replicates: Poisson with density
        rate * p(x) on the germ region, as rows (k, dim); lam = K(x, W - x) at
        each row, which gave p(x) = 1 - exp(-lam); the corners of each row's
        overlap (x + box) ∩ W; and the offsets of each replicate's rows."""
        germs, offsets = homogeneous_chains(self.region, self.rate, n_chains, rng)
        disp = self.kernel.displacement
        corners = disp.overlap(germs, self.window)
        lam = self.kernel.total_mean * disp.prob_in(corners)  # K(x, W - x), from the corners
        if len(germs):
            keep, offsets = thin_chains(offsets, -np.expm1(-lam), rng)
            germs, lam, corners = germs[keep], lam[keep], (corners[0][keep], corners[1][keep])
        return germs, lam, corners, offsets

    def sample_chains(self, n_chains, rng):
        """(points, offsets) of n_chains independent draws of sample, in
        lockstep: every replicate's germ counts, then all germs, all coins, all
        hit times, all cluster sizes and all cluster points, each one generator
        call. One replicate draws what sample draws."""
        _, lam, corners, offsets = self._retained_germs(rng, n_chains)
        points, counts = self.kernel.sample_conditioned(corners, lam, rng)
        if n_chains == 1:  # no need to sum the cluster sizes
            return points, chain_offsets([len(points)])
        return points, chain_offsets(counts)[offsets]

    def sample(self, rng):
        """One exact draw of the cluster process restricted to the window."""
        return PointPattern(self.sample_chains(1, rng)[0], dim=self.window.dim)


# -- config builder, which cli.build calls ---------------------------------


def _displacement(p):
    d = p.obj("displacement", ("lo", "hi"))
    return _made(d.path, UniformDisplacement, d.floats("lo"), d.floats("hi"))


def _build_brix_kendall(p, window):
    rate0 = p.get("rate0", float, check=_NONNEG)
    cmean = p.get("cluster_mean", float, check=_POS)
    kernel = TranslatedPoissonCluster(cmean, _displacement(p))
    sampler = BrixKendallSampler(LebesgueIntensity(rate0, window.dim), kernel, window)

    def oracle(n_reps, rng):
        from .oracles import cluster_direct_chains

        return cluster_direct_chains(rate0, kernel, window, n_reps, rng)

    validate = _count_checks(
        sampler.sample_chains,
        mean=("cluster-mean-count", rate0 * cmean * window.volume()),
        oracle=("cluster-counts-vs-oracle", oracle),
        per_rep=rate0 * (sampler.region.volume() + cmean * window.volume()),  # germs, points
    )
    return _built(sampler.sample, window, validate)
