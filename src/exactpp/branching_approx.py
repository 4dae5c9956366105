"""Generation-truncated branching sampler with a total-variation certificate,
the Galton-Watson engine that grows its generations and hawkes_mr's clusters,
and the layout of the size-biased spines whose nodes root hawkes_mr's tilted
clusters.

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
import math

import numpy as np

from . import core
from .core import (_NONNEG, _POS, PointPattern, SamplerError, _built, _count_checks, _Frozen,
                   _mean_count, chain_offsets, homogeneous_chains)

__all__ = [
    "GWCluster",
    "TruncationCertificate",
    "approx_branching_sample",
    "approx_branching_chains",
    "certificate_generations_for",
    "sample_gw_cluster",
    "spine_nodes",
]

class GWCluster:
    """All points of one or more single-ancestor clusters, with their owners.

    owner[i] is the root that point i descends from, grown in the generation
    loop beside the points; the roots come first, in order.  owner is None
    when the call grew no labels (owners=False).  ancestor and
    extinction_time (last point minus ancestor, on the line) are floats for a
    scalar ancestor and have one entry per root otherwise; a batch's
    extinction times read the owners.  extinction_time is built when first
    read: a Hawkes draw reads only points and owner, a branching draw only
    points, and plotdata's extinction times the owners.
    """

    def __init__(self, points, ancestor, owner):
        self.points, self.ancestor, self.owner = points, ancestor, owner

    @functools.cached_property
    def extinction_time(self):
        if isinstance(self.ancestor, float):
            return float(self.points.max() - self.ancestor)
        extinction = np.zeros(self.ancestor.size)
        np.maximum.at(extinction, self.owner, self.points - self.ancestor[self.owner])
        return extinction


def sample_gw_cluster(kernel, ancestor, rng, root_marks=None, generations=None, owners=True):
    """Generation-by-generation draw of the clusters of a scalar ancestor, a 1-D
    array of them, or a (k, d) array of k roots in R^d.

    Each point with mark z spawns Poisson(nu_inf(z)) children displaced by
    kernel.sample_displacement, (n,) or (n, d); the recursion terminates a.s.
    (mean brood < 1).  All clusters grow in one generation loop, and
    core.POINT_CAP, read at each call, bounds the points of the whole call,
    roots included, whatever its replicate count; a call that grows more
    raises SamplerError.  generations, if
    given, keeps generations 0..generations: the last one's points get no
    children.  root_marks, if given, are the roots' marks, one per root.

    A point's mark decides only its offspring count, so the engine draws each
    point's count whole, as Poisson(nu_inf(z)) with z drawn from the mixture,
    and its displacement, in blocks: a generation slices its counts and its
    children's displacements from the current block of each, and draws a new
    block, discarding what is left of the old one, only when that is too
    short.  A block holds the call's mean point count, roots / (1 - mean
    brood), at most core.BLOCK, or the generation's size if that is larger,
    so a call draws one or two blocks of counts and mostly one of
    displacements, whatever its generation count.  Blocks are drawn when
    first needed: a call of zero generations draws nothing, and a generation
    with no child no displacement.  Roots given their marks draw their counts
    in a call of their own.  Each generation then costs two slices, two
    repeats by the same counts (of the parents' positions and of their int32
    owner labels) and one add, and little Python besides: the loop counts
    down the generations left, keeps each block's length in a local and
    builds no function or iterator per call.  The point cap is checked before
    an empty generation ends the loop, and the points and owners of every
    generation are concatenated once, after it.  With owners=False, for a
    caller that reads only the points, no owner label is grown: the owners'
    repeats and concatenation are skipped and the result's owner is None.
    The labels take no random number, so the points and the generator's
    state are the same either way.

    A kernel with one mark (one_mark_nu, the offspring mean of every point,
    is not None) draws no marks: its counts are one Poisson with the scalar
    rate one_mark_nu, and no random number is spent on a mark whose only
    outcome is the one mark.  Its clusters have the law, not the bytes, of a
    mixture of equal marks.

    The roots of a size-biased cluster are the nodes of its spine, which
    spine_nodes lays out; hawkes_mr grows its far ancestors' spines and its
    plain roots in one call, with the spine nodes' marks as root_marks.
    """
    roots = np.asarray(ancestor, dtype=float)
    batch = roots.ndim > 0
    roots = roots if batch else roots.reshape(1)
    nu, cap, n = kernel.one_mark_nu, core.POINT_CAP, len(roots)
    poisson, displace = rng.poisson, kernel.sample_displacement
    rates = None  # the given root marks' offspring means, drawn in their own call
    if root_marks is not None:
        marks = np.asarray(root_marks, dtype=float).reshape(-1)
        if marks.size != n:
            raise SamplerError(f"root_marks gives {marks.size} marks for {n} ancestors")
        rates = kernel.nu_inf(marks)
    brood = kernel.rho if nu is None else nu  # the mean brood
    block = int(min(n / (1.0 - brood), core.BLOCK)) if brood < 1 else core.BLOCK
    count_block = step_block = counts = ()  # the current blocks, drawn when first needed
    c = s = c_end = s_end = 0  # the first unused entry of each, and its length
    gen, total, pts = roots, n, [roots]
    labels = [np.arange(n, dtype=np.int32)] if owners else None
    left = -1 if generations is None else max(generations, 0)  # from -1, never down to 0
    while left:
        left -= 1
        if rates is not None:
            counts, rates = poisson(rates), None
        else:
            if c + n > c_end:  # n, the size of the generation whose broods these are
                c_end = max(block, n)
                count_block = (poisson(nu, c_end) if nu is not None
                               else poisson(kernel.nu_inf(kernel.sample_mark(c_end, rng))))
                c = 0
            counts, c = count_block[c : c + n], c + n
        gen = gen.repeat(counts, 0)  # each child at its parent (axis 0): the size is the count
        n = len(gen)
        total += n
        if total > cap:
            raise SamplerError(
                f"cluster exceeded {cap} points: near-critical progeny grows huge "
                "clusters; lower the progeny mass, the generations or the root count"
            )
        if n == 0:
            break
        if s + n > s_end:
            s_end = max(block, n)
            step_block, s = displace(s_end, rng), 0
        gen += step_block[s : s + n]
        s += n
        pts.append(gen)
        if owners:
            labels.append(labels[-1].repeat(counts))
    del count_block, step_block, counts  # a block, and a view of one, not held to the end
    return GWCluster(np.concatenate(pts), roots if batch else float(ancestor),
                     np.concatenate(labels) if owners else None)


def spine_nodes(nodes, start, steps):
    """(positions, spine) of the nodes of size-biased spines, from steps the caller drew.

    A size-biased cluster is a spine of nodes, each the root of an ordinary
    cluster (Lyons, Pemantle & Peres 1995): the caller draws the spines' node
    counts, nodes[i] >= 1, and one step a node, and grows the clusters of the
    returned positions in one sample_gw_cluster call.  start[i] is spine i's
    first node, and steps holds one row a node, spine by spine; a node's row
    is its step from the node before, so a spine's first row is not a step.
    Node j of a spine lies at its start plus its rows 1..j: one running sum
    over all rows, less its value at the spine's first row.  start and steps
    are indexed on axis 0, so their rows may be scalars or points in R^d.
    spine[k] is node k's spine, as int32 owner labels like the engine's.
    """
    pos = steps.cumsum(axis=0)
    ends = nodes.cumsum()
    pos -= (pos[ends - nodes] - start).repeat(nodes, axis=0)
    return pos, np.arange(nodes.size, dtype=np.int32).repeat(nodes)


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
    exceeds core.MAX_MEAN_POINTS. A call with the very (frozen) objects of the last
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
    sample_gw_cluster call, so core.POINT_CAP bounds the points of all
    n_chains replicates together (the CLI's battery asks for blocks of
    replicates that hold about core.BLOCK mean points, well within it).
    Past one replicate, the window points are grouped by replicate, each in
    the engine's order, which reads the owner labels the engine grows; one
    replicate's points need no grouping, and the engine grows no labels.
    """
    cert, region = _checked(rate0, progeny, window, n)
    germs, offsets = homogeneous_chains(region, rate0, n_chains, rng)
    cluster = sample_gw_cluster(progeny, germs, rng, generations=int(n), owners=n_chains != 1)
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
