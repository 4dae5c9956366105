"""Independent reference samplers used to cross-check the exact constructions.

Every routine here deliberately avoids the machinery it validates: direct
buffered simulation instead of germ thinning, thin-after ordering instead of
thin-first, state-based thinning instead of cluster attachment.  Agreement
between the two routes is the evidence; sharing code would collapse it.

Exactness status is part of each contract: the buffered cluster and hard-core
oracles are exact for bounded displacement/interaction ranges, the burn-in
self-exciting oracles carry an exponentially small initialization bias that
the caller sizes far below test resolution.

Every oracle also has a lockstep form, named *_chains, that draws n_chains
independent chains from one generator with a fixed number of numpy calls per
step rather than per chain, and returns (points, offsets): chain i's window
points are points[offsets[i]:offsets[i + 1]], an (n, dim) array for the
windowed oracles, event times for the half-line ones and site indices for
the grid.  Chains that share one generator draw the same law as the scalar
routines but in general not the same numbers as scalar calls one after
another; the grid's chains, whose coins are drawn chain after chain, do.  The
one-chain case of cluster_direct_chains, matern_direct_chains and
grid_thin_after_chains calls the generator exactly as the scalar routine
does, so those scalar routines are one-chain calls.  Memory grows with the
points drawn; the pairs compared at once by the hard-core sweep and the coins
drawn at once by the grid are held to blocks of core.BLOCK, read at each call,
and no result depends on the block size.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from . import core
from .core import PointPattern, SamplerError, _mean_count

__all__ = [
    "cluster_direct_oracle",
    "cluster_direct_chains",
    "matern_direct_oracle",
    "matern_direct_chains",
    "renewal_thin_after",
    "renewal_thin_after_chains",
    "hawkes_exp_burn_in",
    "hawkes_exp_burn_in_chains",
    "hawkes_bounded_burn_in",
    "hawkes_bounded_burn_in_chains",
    "nonlinear_hawkes_burn_in",
    "nonlinear_hawkes_burn_in_chains",
    "grid_thin_after",
    "grid_thin_after_chains",
]

def _offsets(chain, n_chains):
    """Offsets of points listed chain by chain, from each point's chain index."""
    return np.concatenate(([0], np.cumsum(np.bincount(chain, minlength=n_chains))))


def _chain_order(chains, values):
    """The per-step arrays of chain indices and their values, concatenated and
    ordered chain by chain, each chain's values in step order."""
    chain = np.concatenate([np.empty(0, dtype=np.int64), *chains])
    order = np.argsort(chain, kind="stable")
    return chain[order], np.concatenate([np.empty(0), *values])[order]


def _ring_push(rings, head, near, accept, values):
    """Write values[k] at slot head of the accepted rows of rings[k], then
    advance their head; the rings of the lockstep burn-in oracles, one row per
    chain, an empty slot -inf.  When a slot to be written still holds a point
    within the support (near), every ring first doubles: oldest first from
    slot 0, the doubled half empty and written next.  Returns the rings."""
    if np.any(near[accept, head[accept]]):
        cap = rings[0].shape[1]
        order = (head[:, None] + np.arange(cap)) % cap
        rings = [np.concatenate([np.take_along_axis(r, order, axis=1), np.full(r.shape, -np.inf)],
                                axis=1) for r in rings]
        head[:] = cap
    at = head[accept]
    for ring, value in zip(rings, values):
        ring[accept, at] = value
    head[accept] = (at + 1) % rings[0].shape[1]
    return rings


def cluster_direct_oracle(rate0, kernel, window, rng):
    """Cluster process by direct buffered simulation (exact for box offsets).

    Germs are homogeneous Poisson on the kernel's germ region - the set of
    locations whose cluster can reach the window at all - with full
    unconditioned clusters attached and the superposition restricted.  No
    germ thinning, no conditioned clusters.  One chain of
    cluster_direct_chains.
    """
    points, _ = cluster_direct_chains(rate0, kernel, window, 1, rng)
    return PointPattern(points, dim=window.dim)


def cluster_direct_chains(rate0, kernel, window, n_chains, rng):
    """(points, offsets) of n_chains cluster_direct_oracle chains.

    The germ counts of every chain are drawn first, then all germs, all
    cluster sizes and all displacements, each in one call, chain by chain.
    """
    region = kernel.germ_region(window)
    n = rng.poisson(_mean_count(rate0, region.volume()), size=int(n_chains))
    germs = region.sample_uniform(n.sum(), rng)
    sizes = rng.poisson(kernel.total_mean, size=len(germs))
    pts = np.repeat(germs, sizes, axis=0) + kernel.displacement.sample(int(sizes.sum()), rng)
    chain = np.repeat(np.repeat(np.arange(n.size), n), sizes)
    inside = window.contains(pts)
    return pts[inside], _offsets(chain[inside], n.size)


def matern_direct_oracle(rate, radius, thin_p, window, rng):
    """Mark-minimal hard core in thin-after order (exact).

    One full Poisson(rate) candidate set on the radius-buffered window,
    uniform marks, survival by strict mark minimality within the radius,
    and the independent p-thinning applied last.  One chain of
    matern_direct_chains.
    """
    points, _ = matern_direct_chains(rate, radius, thin_p, window, 1, rng)
    return PointPattern(points, dim=window.dim)


def matern_direct_chains(rate, radius, thin_p, window, n_chains, rng):
    """(points, offsets) of n_chains matern_direct_oracle chains.

    The candidate counts of every chain are drawn first, then all candidates,
    all marks and, for the survivors, all thinning coins, each in one call,
    chain by chain; thin_p is called once, on every chain's survivors.
    """
    region = window.buffered(radius)
    n = rng.poisson(rate * region.volume(), size=int(n_chains))
    pts = region.sample_uniform(n.sum(), rng)
    marks = rng.random(len(pts))
    chain = np.repeat(np.arange(n.size), n)
    survive = _mark_minimal(pts, marks, chain, radius)
    pts, chain = pts[survive], chain[survive]
    if len(pts):
        keep = rng.random(len(pts)) < np.asarray(thin_p(pts), dtype=float)
        pts, chain = pts[keep], chain[keep]
    inside = window.contains(pts)
    return pts[inside], _offsets(chain[inside], n.size)


def _mark_minimal(pts, marks, chain, radius):
    """Mask of the points with no point of their own chain within radius
    (Euclidean, closed) whose mark is smaller.

    With the points sorted by chain, then by first coordinate, each point is
    compared with the successors that lie at most radius beyond it along the
    first coordinate, found by one search on a key that puts the chains apart;
    the reach carries a slack above radius for the key's rounding, and the
    distances decide.  At most core.BLOCK pairs are compared at once.
    """
    order = np.lexsort((pts[:, 0], chain))
    pts, marks, chain = pts[order], marks[order], chain[order]
    beaten = np.zeros(len(pts), dtype=bool)
    if len(pts):
        x = pts[:, 0] - pts[:, 0].min()
        key = x + chain * (2.0 * (x.max() + radius) + 1.0)
        reach = radius + 1e-9 * (radius + key[-1] + abs(pts[:, 0]).max())
        width = np.searchsorted(key, key + reach, side="right") - np.arange(1, len(key) + 1)
        ends = np.cumsum(width)
        lo = 0
        while lo < len(pts):  # the pairs of points lo..hi-1: at most core.BLOCK, or one point's
            hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - width[lo] + core.BLOCK, "right")))
            w = width[lo:hi]
            a = np.repeat(np.arange(lo, hi), w)
            b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(w) - w, w)  # a's w successors
            near = np.sqrt(np.sum((pts[b] - pts[a]) ** 2, axis=1)) <= radius
            near &= chain[a] == chain[b]
            beaten[a[near & (marks[b] < marks[a])]] = True
            beaten[b[near & (marks[a] < marks[b])]] = True
            lo = hi
    survive = np.empty(len(pts), dtype=bool)
    survive[order] = ~beaten
    return survive


def renewal_thin_after(interarrival, thin_p, t_end, rng):
    """Renewal stream built forward from 0, each point then p-thinned.

    interarrival(rng) draws one gap; thin_p(t) gives the retention
    probability.  Exact - the dual of the thin-first construction.
    """
    times = []
    t = float(interarrival(rng))
    while t <= t_end:
        times.append(t)
        t += float(interarrival(rng))
    times = np.asarray(times)
    if times.size:
        keep = rng.random(times.size) < np.asarray(thin_p(times), dtype=float)
        times = times[keep]
    return PointPattern(times.reshape(-1, 1), dim=1)


def renewal_thin_after_chains(interarrival, thin_p, t_end, n_chains, rng):
    """(points, offsets) of n_chains renewal_thin_after chains, points their times.

    interarrival(rng, size) draws size gaps.  One step draws the next gap of
    every chain still at or before t_end; the thinning coins of all chains are
    drawn last, in one call, chain by chain.
    """
    chain = np.arange(int(n_chains))
    t = interarrival(rng, chain.size)
    chains, times = [], []
    while True:
        live = t <= t_end
        chain, t = chain[live], t[live]
        if not chain.size:
            break
        chains.append(chain)
        times.append(t)
        t = t + interarrival(rng, chain.size)
    chain, times = _chain_order(chains, times)
    if times.size:
        keep = rng.random(times.size) < np.asarray(thin_p(times), dtype=float)
        chain, times = chain[keep], times[keep]
    return times, _offsets(chain, int(n_chains))


def hawkes_exp_burn_in(kernel, mu, a, burn_in, rng):
    """Self-exciting process with exponential fertility by state thinning.

    Simulation starts empty at -burn_in; the excitation state
    S(t) = sum z_i beta exp(-gamma (t - t_i)) decays between events, so
    mu + S(current) dominates the future intensity and classic thinning is
    exact given the empty start.  Initialization bias is the chance that
    pre-start points would have influenced [0, a]; it decays like
    exp(-gamma (1 - rho) burn_in) and the caller sizes burn_in accordingly.
    Marks are drawn here from kernel.components(), not by the sampler's own
    mark routine, so the oracle does not share code with what it checks.
    """
    beta, gamma = kernel.beta, kernel.gamma
    if mu < 0:
        raise SamplerError("immigrant intensity must be nonnegative")
    w = np.array([w for w, _ in kernel.components()])
    # the generator calls of rng.choice(len(w), p=w), with the CDF built once;
    # the chain steps in Python floats, where numpy scalars cost more per operation
    cdf = np.cumsum(w / w.sum())
    cdf = (cdf / cdf[-1]).tolist()
    zs = [z for _, z in kernel.components()]
    exponential, uniform, exp, pick = rng.exponential, rng.random, math.exp, bisect.bisect_right
    t = -float(burn_in)
    s = 0.0
    out = []
    while True:
        bound = mu + s
        if bound <= 0:
            break
        gap = exponential(1.0 / bound)
        s *= exp(-gamma * gap)
        t += gap
        if t > a:
            break
        if uniform() * bound < mu + s:
            if t >= 0.0:
                out.append(t)
            s += zs[pick(cdf, uniform())] * beta
    return PointPattern(np.asarray(out).reshape(-1, 1), dim=1)


def hawkes_exp_burn_in_chains(kernel, mu, a, burn_in, n_chains, rng):
    """(points, offsets) of n_chains hawkes_exp_burn_in chains, points their times in [0, a].

    Every chain runs the state thinning of hawkes_exp_burn_in; one step draws
    the next proposal of every chain still before a, so a chain leaves the
    step arrays once its proposal passes a.  Marks are drawn from
    kernel.components(), as in the scalar oracle.
    """
    if mu < 0:
        raise SamplerError("immigrant intensity must be nonnegative")
    cdf = np.cumsum([w for w, _ in kernel.components()])
    cdf /= cdf[-1]
    jumps = kernel.beta * np.array([z for _, z in kernel.components()])
    chain = np.arange(int(n_chains) if mu > 0 else 0)  # no immigrant, no event: no chain steps
    t = np.full(chain.size, -float(burn_in))
    s = np.zeros(chain.size)
    chains, times = [], []
    while chain.size:
        bound = mu + s
        gap = rng.standard_exponential(chain.size) / bound
        s *= np.exp(-kernel.gamma * gap)
        t += gap
        live = t <= a
        if not live.all():
            chain, t, s, bound = chain[live], t[live], s[live], bound[live]
        accept = rng.random(chain.size) * bound < mu + s
        kept = accept & (t >= 0.0)
        chains.append(chain[kept])
        times.append(t[kept])
        s[accept] += jumps[cdf.searchsorted(rng.random(np.count_nonzero(accept)), side="right")]
    chain, times = _chain_order(chains, times)
    return times, _offsets(chain, int(n_chains))


def hawkes_bounded_burn_in(kernel, mu, a, burn_in, rng):
    """Self-exciting process with a bounded-support fertility by Ogata thinning.

    Simulation starts empty at -burn_in.  Until the next event arrives, events
    only leave the support, so mu + h_max * sum z_i over the events still
    within the support dominates the future intensity; thinning against that
    running bound is exact given the empty start.  The initialization bias
    is the chance that pre-start points would have influenced [0, a]; a
    cluster spans at most one support per generation, so the bias decays like
    rho^(burn_in / support) and the caller sizes burn_in accordingly.  The
    fertility is read through kernel.h, kernel.support and kernel.h_max, and
    marks are drawn here from kernel.components(), not by the sampler's own
    mark routine.
    """
    if mu < 0:
        raise SamplerError("immigrant intensity must be nonnegative")
    cdf = np.cumsum([w for w, _ in kernel.components()])
    cdf /= cdf[-1]
    zs = [z for _, z in kernel.components()]
    support, h_max = kernel.support, kernel.h_max
    t = -float(burn_in)
    times, marks = [], []  # the events within the support of the current time
    out = []
    while True:
        while times and t - times[0] > support:
            times.pop(0)
            marks.pop(0)
        bound = mu + h_max * sum(marks)
        if bound <= 0:
            break
        t += rng.exponential(1.0 / bound)
        if t > a:
            break
        # below mu the proposal is accepted whatever the excitation is, so h is
        # evaluated only above it: the same generator calls and the same decisions
        u = rng.random() * bound
        accept = u < mu
        if not accept and times:
            accept = u < mu + float(np.sum(kernel.h(t - np.asarray(times), np.asarray(marks))))
        if accept:
            if t >= 0.0:
                out.append(t)
            times.append(t)
            marks.append(zs[int(np.searchsorted(cdf, rng.random(), side="right"))])
    return PointPattern(np.asarray(out).reshape(-1, 1), dim=1)


def hawkes_bounded_burn_in_chains(kernel, mu, a, burn_in, n_chains, rng):
    """(points, offsets) of n_chains hawkes_bounded_burn_in chains, points their times in [0, a].

    Each chain keeps its events, and their marks beside them, in a ring
    buffer as nonlinear_hawkes_burn_in_chains does, and the sum z of the marks
    of its events within the support of its time; one step draws the next
    proposal of every chain still before a against its bound mu + h_max * z,
    and evaluates h only at the events within the support of the proposal.
    Marks are drawn from kernel.components(), as in the scalar oracle.
    """
    if mu < 0:
        raise SamplerError("immigrant intensity must be nonnegative")
    cdf = np.cumsum([w for w, _ in kernel.components()])
    cdf /= cdf[-1]
    zs = np.array([z for _, z in kernel.components()], dtype=float)
    support, h_max = kernel.support, kernel.h_max
    chain = np.arange(int(n_chains) if mu > 0 else 0)  # no immigrant, no event: no chain steps
    t = np.full(chain.size, -float(burn_in))
    z = np.zeros(chain.size)
    ring = np.full((chain.size, 4), -np.inf)  # -inf: an empty slot, outside any support
    mark = np.full(ring.shape, -np.inf)  # an empty slot's mark, never read
    head = np.zeros(chain.size, dtype=np.int64)  # the slot each chain writes next
    chains, times = [], []
    while chain.size:
        bound = mu + h_max * z
        t = t + rng.standard_exponential(chain.size) / bound
        live = t <= a
        if not live.all():
            chain, t, bound, ring, mark, head = (
                chain[live], t[live], bound[live], ring[live], mark[live], head[live]
            )
        lag = t[:, None] - ring
        near = lag <= support
        slots = np.flatnonzero(near)
        rows, marks = slots // ring.shape[1], mark.ravel()[slots]
        excite = np.bincount(rows, kernel.h(lag.ravel()[slots], marks), chain.size)
        z = np.bincount(rows, marks, chain.size).astype(float)  # int if rows is empty
        accept = np.flatnonzero(rng.random(chain.size) * bound < mu + excite)
        kept = accept[t[accept] >= 0.0]
        chains.append(chain[kept])
        times.append(t[kept])
        new = zs[cdf.searchsorted(rng.random(accept.size), side="right")]
        ring, mark = _ring_push((ring, mark), head, near, accept, (t[accept], new))
        z[accept] += new
    chain, times = _chain_order(chains, times)
    return times, _offsets(chain, int(n_chains))


def nonlinear_hawkes_burn_in(phi, phi_bound, h, h_support, window, burn_in, rng):
    """Bounded-rate self-exciting germ by burn-in thinning.

    Candidates arrive at the constant dominating rate phi_bound starting at
    window start minus burn_in; each is retained with probability
    phi(drive)/phi_bound where the drive sums h over retained points within
    h_support.  Exact given the empty start; the initialization bias is the
    chance no regeneration gap opens inside the burn-in stretch.
    """
    b0, b1 = float(window.lower[0]), float(window.upper[0])
    t = b0 - float(burn_in)
    retained = []
    while True:
        t += rng.exponential(1.0 / phi_bound)
        if t > b1:
            break
        drive = 0.0
        for s in reversed(retained):
            if t - s > h_support:
                break
            drive += float(h(t - s))
        rate = float(phi(drive))
        if rate > phi_bound * (1 + 1e-12):
            raise SamplerError("phi left its declared bound")
        if rng.random() * phi_bound < rate:
            retained.append(t)
    pts = np.asarray([s for s in retained if b0 <= s <= b1])
    return PointPattern(pts.reshape(-1, 1), dim=1)


def nonlinear_hawkes_burn_in_chains(phi, phi_bound, h, h_support, window, burn_in, n_chains,
                                    rng):
    """(points, offsets) of n_chains nonlinear_hawkes_burn_in chains, points their window times.

    phi and h act elementwise on arrays.  Each chain keeps its retained points
    in a ring buffer, one row per chain, written in time order; the slot
    written next holds the chain's oldest point.  When that point is still
    within h_support of the chain's time, the buffer doubles instead, so the
    drive always sums h over every retained point within the support.
    """
    b0, b1 = float(window.lower[0]), float(window.upper[0])
    chain = np.arange(int(n_chains))
    t = np.full(chain.size, b0 - float(burn_in))
    ring = np.full((chain.size, 4), -np.inf)  # -inf: an empty slot, outside any support
    head = np.zeros(chain.size, dtype=np.int64)  # the slot each chain writes next
    chains, times = [], []
    while chain.size:
        t += rng.standard_exponential(chain.size) / phi_bound
        live = t <= b1
        if not live.all():
            chain, t, ring, head = chain[live], t[live], ring[live], head[live]
        lag = t[:, None] - ring
        near = lag <= h_support
        drive = np.where(near, h(np.where(near, lag, 0.0)), 0.0).sum(axis=1)
        rate = phi(drive)
        if np.any(rate > phi_bound * (1 + 1e-12)):
            raise SamplerError("phi left its declared bound")
        accept = np.flatnonzero(rng.random(chain.size) * phi_bound < rate)
        kept = accept[t[accept] >= b0]
        chains.append(chain[kept])
        times.append(t[kept])
        (ring,) = _ring_push((ring,), head, near, accept, (t[accept],))
    chain, times = _chain_order(chains, times)
    return times, _offsets(chain, int(n_chains))


def grid_thin_after(p_fn, n_sites, rng):
    """Independent coin at every site 0..n_sites-1; returns retained indices.

    One chain of grid_thin_after_chains.
    """
    return grid_thin_after_chains(p_fn, n_sites, 1, rng)[0]


def grid_thin_after_chains(p_fn, n_sites, n_chains, rng):
    """(points, offsets) of n_chains grid_thin_after chains, points their retained sites.

    The coins are drawn chain by chain, site by site, for as many whole
    chains at a time as core.BLOCK coins allow (at least one).
    """
    sites = np.arange(int(n_sites))
    p = np.asarray(p_fn(sites), dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise SamplerError("site retention probabilities must lie in [0, 1]")
    rows = max(1, core.BLOCK // max(sites.size, 1))
    chains, kept = [np.empty(0, dtype=np.int64)], [sites[:0]]
    for lo in range(0, int(n_chains), rows):
        c, k = np.nonzero(rng.random((min(rows, int(n_chains) - lo), sites.size)) < p)
        chains.append(c + lo)
        kept.append(sites[k])
    return np.concatenate(kept), _offsets(np.concatenate(chains), int(n_chains))
