"""Independent reference samplers used to cross-check the exact constructions.

Every routine here deliberately avoids the machinery it validates: direct
buffered simulation instead of germ thinning, thin-after ordering instead of
thin-first, state-based thinning instead of cluster attachment.  Agreement
between the two routes is the evidence; sharing code would collapse it.

Exactness status is part of each contract: the buffered cluster and hard-core
oracles are exact for bounded displacement/interaction ranges, the burn-in
self-exciting oracles carry an exponentially small initialization bias that
the caller sizes far below test resolution.
"""

from __future__ import annotations

import numpy as np

from .core import PointPattern, SamplerError, sample_homogeneous

__all__ = [
    "cluster_direct_oracle",
    "matern_direct_oracle",
    "renewal_thin_after",
    "hawkes_exp_burn_in",
    "hawkes_bounded_burn_in",
    "nonlinear_hawkes_burn_in",
    "grid_thin_after",
]


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
    and the independent p-thinning applied last.
    """
    region = window.buffered(radius)
    n = rng.poisson(rate * region.volume())
    pts = region.sample_uniform(n, rng)
    marks = rng.random(n)
    survive = np.ones(n, dtype=bool)
    for i in range(n):
        d = np.sqrt(np.sum((pts - pts[i]) ** 2, axis=1))
        near = (d <= radius) & (np.arange(n) != i)
        if np.any(marks[near] < marks[i]):
            survive[i] = False
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
    # the generator calls of rng.choice(len(w), p=w), with the CDF built once
    cdf = np.cumsum(w / w.sum())
    cdf /= cdf[-1]
    zs = [z for _, z in kernel.components()]
    exponential, uniform, exp = rng.exponential, rng.random, np.exp
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
            s += zs[cdf.searchsorted(uniform(), side="right")] * beta
    return PointPattern(np.asarray(out).reshape(-1, 1), dim=1)


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


def grid_thin_after(p_fn, n_sites, rng):
    """Independent coin at every site 0..n_sites-1; returns retained indices."""
    sites = np.arange(int(n_sites))
    p = np.asarray(p_fn(sites), dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise SamplerError("site retention probabilities must lie in [0, 1]")
    return sites[rng.random(sites.size) < p]
