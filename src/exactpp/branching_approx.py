"""Generation-truncated branching sampler with a total-variation certificate,
and the Galton-Watson engine that grows its generations and hawkes_mr's clusters.

A spatial branching process starts from a Poisson germ (generation 0) and
lets every point spawn an independent Poisson(progeny mass) brood of
displaced children.  Keeping generations 0..n and dropping the rest leaves a
law whose distance from the full process, restricted to a bounded window, is
controlled by the expected number of dropped points there:

    bound = gamma * rho^n,   gamma = rate0 * volume(W) / (1 - rho),

with rho the per-point progeny mass.  When the displacement has a bounded
Euclidean reach R, every possible ancestor of a window point within n
generations lives in the window buffered by n*R, so simulating the germ on
that buffer makes the truncated restriction exact - the certificate covers
only the dropped generations, never the geometry.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .core import (_NONNEG, _POS, PointPattern, SamplerError, _built, _count_checks, _Frozen,
                   _mean_count, chain_offsets, homogeneous_chains)

__all__ = [
    "GWCluster",
    "TruncationCertificate",
    "approx_branching_sample",
    "approx_branching_chains",
    "certificate_generations_for",
    "sample_gw_cluster",
]

POINT_CAP = 5_000_000


class GWCluster:
    """All points of one or more single-ancestor clusters, with generation labels.

    owner[i] is the root that point i descends from.  ancestor, ancestor_mark
    and extinction_time (last point minus ancestor, on the line) are floats for
    a scalar ancestor and have one entry per root otherwise.  generations,
    owner and extinction_time are built from the brood counts when first read:
    a Hawkes draw reads only points and owner, and a branching draw only
    points, so neither pays for the other labels.
    """

    def __init__(self, points, ancestor, ancestor_mark, broods):
        self.points, self.ancestor, self.ancestor_mark = points, ancestor, ancestor_mark
        self._broods = broods  # broods[k][j]: the children of point j of generation k

    @property
    def n(self):
        return self.points.shape[0]

    @functools.cached_property
    def generations(self):
        return np.arange(len(self._broods)).repeat([b.size for b in self._broods])

    @functools.cached_property
    def owner(self):
        owners = [np.arange(self._broods[0].size)]
        for counts in self._broods[:-1]:
            owners.append(owners[-1].repeat(counts))
        return np.concatenate(owners)

    @functools.cached_property
    def extinction_time(self):
        if isinstance(self.ancestor, float):
            return float(self.points.max() - self.ancestor)
        extinction = np.zeros(self.ancestor.size)
        np.maximum.at(extinction, self.owner, self.points - self.ancestor[self.owner])
        return extinction


def sample_gw_cluster(kernel, ancestor, rng, point_cap=POINT_CAP, root_marks=None,
                      generations=None):
    """Generation-by-generation draw of the clusters of a scalar ancestor, a 1-D
    array of them, or a (k, d) array of k roots in R^d.

    Each point with mark z spawns Poisson(nu_inf(z)) children displaced by
    kernel.sample_displacement, (n,) or (n, d); the recursion terminates a.s.
    (mean brood < 1).  All clusters grow in one generation loop, and point_cap
    bounds the points of the whole call, roots included.  generations, if
    given, keeps generations 0..generations: the last one's points get an
    all-zero brood and draw nothing.  The roots draw their marks from the
    mixture unless root_marks gives them, one per root.  Each generation costs
    its generator calls, one repeat (whose size is the next generation's) and
    one add; the loop keeps the brood counts, from which GWCluster builds the
    labels a caller reads.

    A kernel with one mark (one_mark and one_mark_nu, the offspring mean of
    every point, are not None) draws no marks: each generation's offspring
    counts are one Poisson with the scalar rate one_mark_nu, and no random
    number is spent on a mark whose only outcome is the one mark.  Its
    clusters have the law, not the bytes, of a mixture of equal marks.
    """
    roots = np.asarray(ancestor, dtype=float)
    batch = roots.ndim > 0
    roots = roots if batch else roots.reshape(1)
    nu = kernel.one_mark_nu
    poisson, displace = rng.poisson, kernel.sample_displacement
    if root_marks is not None:
        marks = anc_marks = np.asarray(root_marks, dtype=float).reshape(-1)
        if marks.size != len(roots):
            raise SamplerError(f"root_marks gives {marks.size} marks for {len(roots)} ancestors")
    elif nu is None:
        marks = anc_marks = kernel.sample_mark(len(roots), rng)
    else:
        marks = anc_marks = None  # None: every mark is the kernel's one mark
    pts, broods, gen, total = [roots], [], roots, len(roots)
    for _ in itertools.repeat(None) if generations is None else range(generations):
        counts = poisson(nu, len(gen)) if marks is None else poisson(kernel.nu_inf(marks))
        broods.append(counts)
        gen = gen.repeat(counts, 0)  # each child at its parent (axis 0): the size is the count
        n = len(gen)
        total += n
        if total > point_cap:
            raise SamplerError(
                f"cluster exceeded {point_cap} points: near-critical progeny grows huge "
                "clusters; lower the progeny mass, the generations or the root count"
            )
        if n == 0:
            break
        gen += displace(n, rng)
        pts.append(gen)
        marks = None if nu is not None else kernel.sample_mark(n, rng)
    else:  # the generation cap: the last generation's points have no children
        broods.append(np.zeros(len(gen), dtype=int))
    points = np.concatenate(pts)
    if batch:
        if anc_marks is None:  # the one mark, filled in at half the cost of np.full
            anc_marks = np.empty(len(roots))
            anc_marks.fill(kernel.one_mark)
        return GWCluster(points, roots, anc_marks, broods)
    z = kernel.one_mark if anc_marks is None else float(anc_marks[0])
    return GWCluster(points, float(ancestor), z, broods)


class TruncationCertificate(_Frozen):
    """Certified bound on what dropping generations beyond n can cost.

    gamma is the window's expected total population per unit of progeny
    slack; bound = gamma * rho^n dominates the expected number of missing
    points in the window (the dropped generations carry mass
    gamma * rho^(n+1) <= bound), hence the total-variation error.
    """

    _fields = ("n", "gamma", "bound")

    def __init__(self, n, gamma, bound):
        self.__dict__.update(n=n, gamma=gamma, bound=bound)

    def to_dict(self):
        return {"n": self.n, "gamma": self.gamma, "bound": self.bound}


def _certificate(rate0, rho, vol_w, n):
    if rho >= 1:
        raise SamplerError(
            "truncation certificate requires subcritical progeny (mass < 1)"
        )
    gamma = rate0 * vol_w / (1.0 - rho)
    return TruncationCertificate(n=int(n), gamma=float(gamma), bound=float(gamma * rho**n))


def certificate_generations_for(eps, rate0, progeny_mass, vol_w):
    """Smallest generation count whose certificate bound is at most eps."""
    if eps <= 0:
        raise SamplerError("eps must be positive")
    if progeny_mass < 0:
        raise SamplerError("progeny mass must be nonnegative")
    if progeny_mass == 0:
        return 0
    gamma = _certificate(rate0, progeny_mass, vol_w, 0).gamma
    if eps >= gamma:
        return 0
    ratio = (math.log(eps) - math.log(gamma)) / math.log(progeny_mass)
    return max(int(math.ceil(ratio - 1e-12)), 0)


_last_check = ((None,) * 4, None)  # the arguments and result of the last _checked call


def _checked(rate0, progeny, window, n):
    """The certificate and the germ region of a draw of generations 0..n,
    after every refusal that comes before its first random number: n < 0, an
    unbounded displacement, rho >= 1, and a germ region whose mean count
    exceeds MAX_MEAN_POINTS. A call with the very (frozen) objects of the last
    call returns its result: one built sampler checks once."""
    global _last_check
    if all(a is b for a, b in zip(_last_check[0], (rate0, progeny, window, n))):
        return _last_check[1]
    if n < 0:
        raise SamplerError("generation count must be nonnegative")
    radius = getattr(progeny.displacement, "support_radius", None)
    if radius is None or not np.isfinite(radius):
        raise SamplerError("buffer radius undefined; use exact sampler")
    cert = _certificate(rate0, float(progeny.total_mean), window.volume(), n)
    region = window.buffered(n * float(radius))
    _mean_count(rate0, region.volume())
    _last_check = (rate0, progeny, window, n), (cert, region)
    return cert, region


def approx_branching_sample(rate0, progeny, window, n, rng):
    """Generations 0..n of the branching process restricted to the window.

    progeny supplies the per-point brood: total_mean (the progeny mass rho)
    and a displacement with a finite Euclidean support_radius.  The germ is
    drawn on the n*R-buffered window and grown by one sample_gw_cluster call,
    so the returned restriction is exactly distributed; the certificate bounds
    only the dropped generations. Draws with the objects of the last call
    reuse its checks, certificate and buffer. One replicate of
    approx_branching_chains.
    """
    points, _, cert = approx_branching_chains(rate0, progeny, window, n, 1, rng)
    return PointPattern(points, dim=window.dim), cert


def approx_branching_chains(rate0, progeny, window, n, n_chains, rng):
    """(points, offsets, certificate) of n_chains independent draws of
    approx_branching_sample, in lockstep.

    The germs of every replicate are drawn first, then all of them grow in one
    sample_gw_cluster call, so POINT_CAP, read at each call, bounds the points
    of all n_chains replicates together (the CLI's battery asks for blocks of
    replicates that hold about validation.BATTERY_POINTS points, well within
    it).
    Past one replicate, the window points are grouped by
    replicate, each in the engine's order.
    """
    cert, region = _checked(rate0, progeny, window, n)
    germs, offsets = homogeneous_chains(region, rate0, n_chains, rng)
    cluster = sample_gw_cluster(progeny, germs, rng, POINT_CAP, generations=int(n))
    inside = window.contains(cluster.points)
    points = cluster.points[inside]
    if n_chains == 1:  # no need to label the points with their replicates
        return points, chain_offsets([len(points)]), cert
    chain = np.repeat(np.arange(int(n_chains)), np.diff(offsets))[cluster.owner[inside]]
    order = np.argsort(chain, kind="stable")
    return points[order], chain_offsets(np.bincount(chain, minlength=int(n_chains))), cert


# -- config builder, which cli.build calls ---------------------------------


def _build_branching_approx(p, window):
    from .cluster_exact import TranslatedPoissonCluster, _displacement

    rate0 = p.get("rate0", float, check=_NONNEG)
    pmean = p.get("progeny_mean", float, check=_POS)
    n_gen = p.get("generations", int, check=_NONNEG)
    progeny = TranslatedPoissonCluster(pmean, _displacement(p))
    cert, region = _checked(rate0, progeny, window, n_gen)  # refuses as a draw would

    def sample(rng):
        pattern, _ = approx_branching_sample(rate0, progeny, window, n_gen, rng)
        return pattern

    def chains(n_reps, rng):
        points, offsets, _ = approx_branching_chains(rate0, progeny, window, n_gen, n_reps, rng)
        return points, offsets

    # the mean density of generations 0..n_gen; _checked has refused pmean >= 1
    density = rate0 * (1.0 - pmean ** (n_gen + 1)) / (1.0 - pmean)
    validate = _count_checks(chains, mean=("branching-mean-count", density * window.volume()),
                             per_rep=density * region.volume())  # the germs fill the region
    return _built(sample, window, validate, meta={"truncation_certificate": cert.to_dict()})
