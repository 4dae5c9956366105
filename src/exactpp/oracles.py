"""Independent reference samplers used to cross-check the exact constructions.

Every routine here deliberately avoids the machinery it validates: direct
buffered simulation instead of germ thinning, thin-after ordering instead of
thin-first, state-based thinning instead of cluster attachment.  Agreement
between the two routes is the evidence; sharing code would collapse it.

Exactness status is part of each contract: the buffered cluster and hard-core
oracles are exact for bounded displacement/interaction ranges, the burn-in
self-exciting oracles carry an exponentially small initialization bias that
the caller sizes far below test resolution.

The *_burn_in_counts routines run the same burn-in simulations for many
independent chains in lockstep, one numpy step for all chains per proposal,
and return only each chain's window count.  Their chains share one generator,
so they draw the same law as the scalar routines but not the same numbers.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .core import PointPattern, SamplerError, sample_homogeneous

__all__ = [
    "cluster_direct_oracle",
    "matern_direct_oracle",
    "renewal_thin_after",
    "hawkes_exp_burn_in",
    "hawkes_exp_burn_in_counts",
    "hawkes_bounded_burn_in",
    "nonlinear_hawkes_burn_in",
    "nonlinear_hawkes_burn_in_counts",
    "grid_thin_after",
]

_PAIR_BLOCK = 1 << 20  # pair distances held at once by matern_direct_oracle


def cluster_direct_oracle(rate0, kernel, window, rng):
    """Cluster process by direct buffered simulation (exact for box offsets).

    Germs are homogeneous Poisson on the kernel's germ region - the set of
    locations whose cluster can reach the window at all - with full
    unconditioned clusters attached and the superposition restricted.  No
    germ thinning, no conditioned clusters.
    """
    region = kernel.germ_region(window)
    germs = sample_homogeneous(region, rate0, rng)
    counts = rng.poisson(kernel.total_mean, size=germs.n)
    if counts.sum() == 0:
        return PointPattern.empty(window.dim)
    parents = np.repeat(germs.points, counts, axis=0)
    pts = parents + kernel.sample_offsets(counts, rng)
    return PointPattern(pts, dim=window.dim).restrict(window)


def matern_direct_oracle(rate, radius, thin_p, window, rng):
    """Mark-minimal hard core in thin-after order (exact).

    One full Poisson(rate) candidate set on the radius-buffered window,
    uniform marks, survival by strict mark minimality within the radius,
    and the independent p-thinning applied last.  Survival is decided for a
    block of candidates at a time from their distances to every candidate,
    with at most _PAIR_BLOCK distances held at once.
    """
    region = window.buffered(radius)
    n = rng.poisson(rate * region.volume())
    pts = region.sample_uniform(n, rng)
    marks = rng.random(n)
    survive = np.empty(n, dtype=bool)
    step = max(1, _PAIR_BLOCK // max(n, 1))
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        d = np.sqrt(np.sum((pts[None, :, :] - pts[rows, None, :]) ** 2, axis=2))
        near = d <= radius
        near[np.arange(rows.size), rows] = False
        survive[rows] = ~np.any(near & (marks < marks[rows, None]), axis=1)
    kept = pts[survive]
    if kept.shape[0]:
        p_vals = np.asarray(thin_p(kept), dtype=float)
        kept = kept[rng.random(kept.shape[0]) < p_vals]
    return PointPattern(kept, dim=window.dim).restrict(window)


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


def hawkes_exp_burn_in_counts(kernel, mu, a, burn_in, n_reps, rng):
    """Window counts N([0, a]) of n_reps independent hawkes_exp_burn_in chains.

    Every chain runs the state thinning of hawkes_exp_burn_in; one step draws
    the next proposal of every chain still before a, so a chain leaves the
    step arrays once its proposal passes a.  Marks are drawn from
    kernel.components(), as in the scalar oracle.
    """
    if mu < 0:
        raise SamplerError("immigrant intensity must be nonnegative")
    counts = np.zeros(int(n_reps), dtype=np.int64)
    if mu == 0:
        return counts  # no immigrant ever starts the excitation
    cdf = np.cumsum([w for w, _ in kernel.components()])
    cdf /= cdf[-1]
    jumps = kernel.beta * np.array([z for _, z in kernel.components()])
    chain = np.arange(counts.size)
    t = np.full(counts.size, -float(burn_in))
    s = np.zeros(counts.size)
    while chain.size:
        bound = mu + s
        gap = rng.standard_exponential(chain.size) / bound
        s *= np.exp(-kernel.gamma * gap)
        t += gap
        live = t <= a
        if not live.all():
            chain, t, s, bound = chain[live], t[live], s[live], bound[live]
        accept = rng.random(chain.size) * bound < mu + s
        counts[chain[accept & (t >= 0.0)]] += 1
        s[accept] += jumps[cdf.searchsorted(rng.random(np.count_nonzero(accept)), side="right")]
    return counts


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


def nonlinear_hawkes_burn_in_counts(phi, phi_bound, h, h_support, window, burn_in, n_reps, rng):
    """Window counts of n_reps independent nonlinear_hawkes_burn_in chains.

    phi and h act elementwise on arrays.  Each chain keeps its retained points
    in a ring buffer, one row per chain, written in time order; the slot
    written next holds the chain's oldest point.  When that point is still
    within h_support of the chain's time, the buffer doubles instead, so the
    drive always sums h over every retained point within the support.
    """
    b0, b1 = float(window.lower[0]), float(window.upper[0])
    counts = np.zeros(int(n_reps), dtype=np.int64)
    chain = np.arange(counts.size)
    t = np.full(counts.size, b0 - float(burn_in))
    ring = np.full((counts.size, 4), -np.inf)  # -inf: an empty slot, outside any support
    head = np.zeros(counts.size, dtype=np.int64)  # the slot each chain writes next
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
        counts[chain[accept[t[accept] >= b0]]] += 1
        if np.any(near[accept, head[accept]]):
            # oldest first from slot 0, the doubled half empty and written next
            cap = ring.shape[1]
            order = (head[:, None] + np.arange(cap)) % cap
            ring = np.concatenate(
                [np.take_along_axis(ring, order, axis=1), np.full(ring.shape, -np.inf)], axis=1
            )
            head[:] = cap
        ring[accept, head[accept]] = t[accept]
        head[accept] = (head[accept] + 1) % ring.shape[1]
    return counts


def grid_thin_after(p_fn, n_sites, rng):
    """Independent coin at every site 0..n_sites-1; returns retained indices."""
    sites = np.arange(int(n_sites))
    p = np.asarray(p_fn(sites), dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise SamplerError("site retention probabilities must lie in [0, 1]")
    return sites[rng.random(sites.size) < p]
