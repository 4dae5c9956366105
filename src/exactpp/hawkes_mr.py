"""Perfect sampling of linear self-exciting processes on a bounded interval.

A single-ancestor cluster rooted at 0 (offspring arrive as a Poisson process
with intensity h(., z) scaled by the parent's mark, each offspring spawning
its own independent subtree) has extinction time L = last point - ancestor.
An ancestor a distance t before the window reaches it iff L > t, an event of
probability F(t) = P(L > t).  HawkesSampler draws the ancestors that reach
the window without evaluating F.  Up to t1 = 4 t0, four times the distance
where the closed-form envelope U(t) = e^(-theta t) / (1 - rho_theta) of an
exponentially tilted cluster law falls to 1, ancestors arrive at rate mu with
ordinary clusters, and the cut to the window drops the points of those that
do not reach it; beyond t1 it thins candidates under U with a coin on their
tilted clusters, drawn through their spine.  The coin is exact at any
distance, and t1 is a measured time choice: most draws then have no far
ancestor and pay for no spine or coin.  FertilityKernel.reach(u), the
distance where U falls to u, gives t0 = reach(1) and the two other Hawkes
distances: the end of the certified curve's grid and the burn-in of the
oracle that validation compares the draws with.
Every cluster grows through branching_approx.sample_gw_cluster, the
Galton-Watson engine that spatial branching draws share, and the spines'
nodes are laid out by branching_approx.spine_nodes; this module keeps only
the Hawkes law of a spine (its node count, tilted steps and marks) and the coin.

The certified curve of F, a sandwich of bounds driven by the fixed-point
operator Phi whose fixed point is 1 - F, lives in exactpp.sandwich, which no
draw reads.  HawkesSampler.sandwich imports it when first read, and this
module resolves PhiOperator, Sandwich and build_sandwich from it on first
access, the names perfbench's tracer wraps here; so importing, building
and drawing compile none of it.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from . import core
from .branching_approx import sample_gw_cluster, spine_nodes
from .core import (_NONNEG, _POS, ConfigError, PointPattern, SamplerError, _built,
                   _count_checks, _finite, _made, chain_offsets, order_by_label)

__all__ = [
    "FertilityKernel",
    "ExponentialFertility",
    "PolynomialFertility",
    "PiecewiseConstantFertility",
    "HawkesSampler",
]

# the certified curve's names that perfbench's tracer wraps on this module
_SANDWICH_NAMES = ("PhiOperator", "Sandwich", "build_sandwich")


def __getattr__(name):
    """A name of the certified curve, imported from exactpp.sandwich on first access (PEP 562)."""
    if name not in _SANDWICH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import sandwich

    value = getattr(sandwich, name)
    globals()[name] = value  # later lookups, and a wrapper set here, find it without this function
    return value


def _validate_marks(marks):
    marks = tuple((float(w), float(z)) for (w, z) in marks)
    ws = np.array([w for w, _ in marks])
    zs = np.array([z for _, z in marks])
    if np.any(ws <= 0) or np.any(zs < 0):
        raise SamplerError("mark mixture needs positive weights and nonnegative values")
    if abs(ws.sum() - 1.0) > 1e-9:
        raise SamplerError("mark weights must sum to one")
    return marks, ws / ws.sum(), zs


def _cdf(weights):
    cdf = weights.cumsum()
    return cdf / cdf[-1]


class FertilityKernel:
    """Reproduction rate h(t, z) = z * h0(t), marks from a finite mixture.

    Marks scale the offspring intensity multiplicatively, so offspring counts
    are Poisson(z * nu0_inf) and displacement positions share one law with
    density h0 / nu0_inf.  Subclasses provide the base shape h0 (_h0): its
    exact cumulative _nu0, total mass _nu0_inf and tilted mass
    _tilted_mass(theta) = int h0(s) e^(theta s) ds, and exact samplers of one
    displacement and of one tilted displacement (density proportional to
    h0(s) e^(theta s)): sample_displacement and sample_tilted_displacement.
    A shape of unbounded support also overrides _tilt.

    theta is the tilt of the spine construction (see HawkesSampler), a
    function of the kernel alone: the theta > 0 where rho_theta =
    E[z] * _tilted_mass(theta) equals (1 + rho) / 2.  The zero kernel (rho = 0)
    has theta = rho_theta = 0 and never needs a tilt.  The envelope
    U(t) = e^(-theta t) / (1 - rho_theta) >= F(t) of that tilt gives every
    Hawkes distance through reach: the sampler's split, the certified curve's
    grid end and the burn-in of the oracle that checks the draws.
    """

    def __init__(self, marks=((1.0, 1.0),)):
        self.marks, self._weights, self._zs = _validate_marks(marks)
        self._mark_cdf = _cdf(self._weights)  # the CDF Generator.choice(p=) would rebuild per call
        self._base = base = self._nu0_inf()  # the total mass, kept: nu_inf(z) = z * base
        if base < 0 or not np.isfinite(base):
            raise SamplerError("offspring mass must be finite and nonnegative")
        # the offspring mean of every point when there is one mark, else None
        self.one_mark_nu = float(self.nu_inf(float(self._zs[0]))) if self._zs.size == 1 else None
        self.mean_mark = float(np.sum(self._weights * self._zs))
        self.rho = float(self.mean_mark * base)
        if self.rho >= 1:
            raise SamplerError(
                f"branching ratio rho={self.rho:.6g} >= 1: supercritical, no finite clusters"
            )
        self.theta, self.rho_theta = 0.0, 0.0
        if self.rho > 0:
            self._biased_cdf = _cdf(self._weights * self._zs)
            self.theta, self.rho_theta = self._tilt()

    def reach(self, u):
        """The distance t >= 0 where the envelope U(t) = e^(-theta t) / (1 - rho_theta)
        falls to u: 0 where U(0) <= u already, and 0 for the zero kernel, whose
        clusters die at their ancestor.  At u = 1 it is t0 = -ln(1 - rho_theta) / theta."""
        if self.rho == 0:
            return 0.0
        return max((-math.log(u) - math.log1p(-self.rho_theta)) / self.theta, 0.0)

    def _tilt(self):
        """(theta, rho_theta) with rho_theta = (1 + rho) / 2, by bisection on the closed form.

        Bounded support makes the tilted mass finite and unbounded in theta.
        """
        target = 0.5 * (1.0 + self.rho)

        def rho_at(theta):
            return self.mean_mark * self._tilted_mass(theta)

        lo, hi = 0.0, 1.0 / self.support
        while rho_at(hi) < target:
            lo, hi = hi, 2.0 * hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if rho_at(mid) < target else (lo, mid)
        return lo, rho_at(lo)

    # -- derived quantities --------------------------------------------------
    def h(self, t, z):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0, 0.0, z * self._h0(np.maximum(t, 0.0)))

    def nu(self, t, z):
        t = np.asarray(t, dtype=float)
        return z * self._nu0(np.maximum(t, 0.0))

    def nu_inf(self, z):
        return z * self._base

    def components(self):
        """(weight, z) pairs of the mark mixture."""
        return self.marks

    def sample_mark(self, n, rng):
        """n iid marks: the indices and random numbers of rng.choice(p=weights)."""
        return self._zs[self._mark_cdf.searchsorted(rng.random(n), side="right")]

    def sample_biased_mark(self, n, rng):
        """n iid z-size-biased marks (weights w_j z_j): the marks of a spine's parents."""
        return self._zs[self._biased_cdf.searchsorted(rng.random(n), side="right")]


class ExponentialFertility(FertilityKernel):
    """h(t, z) = z * beta * exp(-gamma t); displacements are Exp(gamma).

    Tilted displacements are Exp(gamma - theta), and theta = gamma (1 - rho) / (1 + rho).
    """

    def __init__(self, beta, gamma, marks=((1.0, 1.0),)):
        if beta < 0 or gamma <= 0:
            raise SamplerError("need beta >= 0 and gamma > 0")
        self.beta = float(beta)
        self.gamma = float(gamma)
        super().__init__(marks)

    def _h0(self, t):
        return self.beta * np.exp(-self.gamma * t)

    def _nu0(self, t):
        return self.beta * (-np.expm1(-self.gamma * t)) / self.gamma

    def _nu0_inf(self):
        return self.beta / self.gamma

    def _tilted_mass(self, theta):
        return self.beta / (self.gamma - theta)

    def _tilt(self):
        theta = self.gamma * (1.0 - self.rho) / (1.0 + self.rho)
        return theta, self.mean_mark * self._tilted_mass(theta)

    def sample_displacement(self, n, rng):
        return rng.exponential(1.0 / self.gamma, size=int(n))

    def sample_tilted_displacement(self, n, rng):
        return rng.exponential(1.0 / (self.gamma - self.theta), size=int(n))


class PolynomialFertility(FertilityKernel):
    """h0(t) = max(poly(t), 0-checked) on [0, support], zero beyond.

    The polynomial must be nonnegative on its support (checked at the
    derivative's real roots and the endpoints, so the check is exact), and
    h_max is its exact maximum there.  Displacements are drawn by rejection
    under h_max, tilted ones under h_max * e^(theta * support).
    """

    def __init__(self, coeffs, support, marks=((1.0, 1.0),)):
        if support <= 0:
            raise SamplerError("support must be positive")
        self.coeffs = tuple(float(c) for c in coeffs)
        self.support = float(support)
        self._poly = np.polynomial.Polynomial(self.coeffs)
        self._integ = self._poly.integ()  # the antiderivative, built once
        crit = [0.0, self.support]
        for r in self._poly.deriv().roots():
            if abs(r.imag) < 1e-12 and 0 <= r.real <= self.support:
                crit.append(float(r.real))
        vals = self._poly(np.array(crit))
        if np.min(vals) < 0:
            raise SamplerError("fertility polynomial is negative on its support")
        self.h_max = float(np.max(vals))
        super().__init__(marks)

    def _h0(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= self.support, np.maximum(self._poly(t), 0.0), 0.0)

    def _nu0(self, t):
        t = np.minimum(np.asarray(t, dtype=float), self.support)
        return self._integ(t) - self._integ(0.0)

    def _nu0_inf(self):
        return float(self._integ(self.support) - self._integ(0.0))

    def _tilted_mass(self, theta):
        # int_0^S p(s) e^(theta s) ds = S sum_m (theta S)^m / m! int_0^1 u^m p(S u) du:
        # p >= 0 on the support, so no term is negative and the series does not cancel
        x = theta * self.support
        scaled = [c * self.support**j for j, c in enumerate(self.coeffs)]
        total, coef, m = 0.0, 1.0, 0
        while True:
            term = coef * sum(c / (j + m + 1) for j, c in enumerate(scaled))
            total += term
            if m > x and abs(term) <= 1e-17 * total:
                return self.support * total
            m += 1
            coef *= x / m

    def _under_box(self, n, rng, theta):
        """Rejection from uniform proposals under h_max e^(theta support) >= h0(s) e^(theta s)."""
        out = np.empty(int(n))
        have = 0
        while have < n:
            m = max(int(2.2 * (n - have)) + 8, 16)
            cand = rng.random(m) * self.support
            tilt = np.exp(theta * (cand - self.support))
            keep = rng.random(m) * self.h_max < self._h0(cand) * tilt
            got = cand[keep][: n - have]
            out[have : have + got.size] = got
            have += got.size
        return out

    def sample_displacement(self, n, rng):
        return self._under_box(n, rng, 0.0)  # the factor e^0 is exactly 1

    def sample_tilted_displacement(self, n, rng):
        return self._under_box(n, rng, self.theta)


class PiecewiseConstantFertility(FertilityKernel):
    """User-table shape: h0 constant on each cell of a breakpoint grid.

    A displacement picks a cell by its mass and is uniform inside it; a tilted
    one picks a cell by its tilted mass and is a truncated exponential inside it.
    """

    def __init__(self, breaks, values, marks=((1.0, 1.0),)):
        breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=float)
        if breaks.ndim != 1 or breaks.size < 2 or np.any(np.diff(breaks) <= 0):
            raise SamplerError("breaks must be strictly increasing with >= 2 entries")
        if breaks[0] != 0.0:
            raise SamplerError("table must start at t=0")
        if values.shape != (breaks.size - 1,) or np.any(values < 0):
            raise SamplerError("need one nonnegative value per cell")
        self.breaks = breaks
        self.values = values
        self.support = float(breaks[-1])
        self.h_max = float(values.max())
        self._widths = np.diff(breaks)
        self._cell_mass = values * self._widths
        self._cum = np.concatenate([[0.0], np.cumsum(self._cell_mass)])
        super().__init__(marks)
        if self.rho > 0:  # the tilted cell masses and their running sum, for every tilted draw
            self._tilted_cell_mass = self._tilted_cells(self.theta)
            self._tilted_cum = np.concatenate([[0.0], np.cumsum(self._tilted_cell_mass)])

    def _h0(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0, self.values.size - 1)
        return np.where(t <= self.support, self.values[idx], 0.0)

    def _nu0(self, t):
        t = np.minimum(np.asarray(t, dtype=float), self.support)
        idx = np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0, self.values.size - 1)
        return self._cum[idx] + self.values[idx] * (t - self.breaks[idx])

    def _nu0_inf(self):
        return float(self._cum[-1])

    def _tilted_cells(self, theta):
        lo = self.breaks[:-1]
        return self.values * np.exp(theta * lo) * np.expm1(theta * self._widths) / theta

    def _tilted_mass(self, theta):
        return float(np.sum(self._tilted_cells(theta)))

    def _pick_cells(self, cum, mass, n, rng):
        """n cells drawn by mass (cum: its running sum from 0); each draw's fraction of its cell."""
        r = rng.random(int(n)) * cum[-1]
        idx = np.clip(np.searchsorted(cum, r, side="right") - 1, 0, self.values.size - 1)
        return idx, (r - cum[idx]) / np.where(mass[idx] > 0, mass[idx], 1.0)

    def sample_displacement(self, n, rng):
        idx, frac = self._pick_cells(self._cum, self._cell_mass, n, rng)
        return self.breaks[idx] + frac * (self.breaks[idx + 1] - self.breaks[idx])

    def sample_tilted_displacement(self, n, rng):
        idx, frac = self._pick_cells(self._tilted_cum, self._tilted_cell_mass, n, rng)
        # inverse CDF of the density e^(theta s) on the cell
        theta = self.theta
        return self.breaks[idx] + np.log1p(frac * np.expm1(theta * self._widths[idx])) / theta


# -- the perfect sampler ---------------------------------------------------------------


_NO_FAR = np.empty(0)  # the far ancestors of a draw that has none
_NO_FAR.setflags(write=False)


def _kept_clusters(kernel, far, rng, roots, root_counts):
    """The clusters of the plain roots and of the far ancestors that the tilted coin keeps.

    The plain roots, at positions roots in the window's frame, carry one
    ordinary cluster each and are all kept.  They come from len(root_counts)
    replicates, root_counts[r] of replicate r listed in turn.  A far ancestor
    at -t, t in far, draws one Q-cluster, grown in the window's frame, and is
    kept iff u Z < 1, u uniform and Z = sum_p e^(theta p) over its points p:
    with probability min(1, e^(theta t) / Z_0), Z_0 = e^(theta t) Z the sum
    over the cluster rooted at 0.  A coin-kept cluster whose extinction time
    L is at most t has every point at p <= 0, and for L > t,
    Z_0 >= e^(theta L) > e^(theta t), so the coin keeps it with probability
    e^(theta t) / Z_0.

    A Q-cluster is a cluster size-biased by Z_0: a spine of nodes, each the
    root of an ordinary cluster, which branching_approx.spine_nodes lays out
    from its ancestor.  This function keeps the Hawkes law of the spine: a
    Geometric(1 - rho_theta) node count, one step a node with density
    proportional to h0(s) e^(theta s), z-size-biased marks for the nodes
    before each spine's last and ordinary marks for the last nodes and the
    plain roots, drawn in that order.  All clusters of the call grow in
    one sample_gw_cluster call, whose point cap, core.POINT_CAP, bounds them
    together, whatever the replicate count; only its points and the owner
    labels grown beside them are read, and the cluster is dropped once they
    are.  The engine is called through this module's global, so a wrapper set
    on hawkes_mr.sample_gw_cluster sees every call.

    With no far ancestor the plain roots' clusters grow alone: no spine,
    tilted step, weight or coin; and for one replicate, whose points all have
    the one owner, the engine grows no owner labels.

    Returns the points of the kept clusters and the owner of each: the far
    ancestors are owners 0 to far.size - 1, and replicate r's plain roots
    owner far.size + r.  With no far ancestor and one replicate the owners
    are None.
    """
    n_far, n_reps = far.size, len(root_counts)
    if n_far == 0:  # no spine, tilted step, weight or coin: the roots' clusters alone
        cl = sample_gw_cluster(kernel, roots, rng, owners=n_reps != 1)
        if n_reps == 1:
            return cl.points, None
        return cl.points, np.arange(n_reps, dtype=np.int32).repeat(root_counts)[cl.owner]
    nodes = rng.geometric(1.0 - kernel.rho_theta, size=n_far)
    # each spine's first node at its ancestor, -t, and every later one a tilted step on
    pos, spine = spine_nodes(nodes, -far, kernel.sample_tilted_displacement(nodes.sum(), rng))
    plain = np.arange(n_far, n_far + n_reps, dtype=np.int32).repeat(root_counts)
    owner = np.concatenate((spine, plain))  # the owner of each root
    roots = np.concatenate((pos, roots))
    marks = None  # one mark: sample_gw_cluster draws none
    if kernel.one_mark_nu is None:
        biased = np.zeros(roots.size, dtype=bool)
        biased[:pos.size] = True
        biased[nodes.cumsum() - 1] = False  # the spine nodes before the last
        n_biased = pos.size - n_far
        marks = np.empty(roots.size)
        marks[biased] = kernel.sample_biased_mark(n_biased, rng)
        marks[~biased] = kernel.sample_mark(roots.size - n_biased, rng)
        del biased
    del pos, spine, plain, nodes  # not held through the engine
    cl = sample_gw_cluster(kernel, roots, rng, root_marks=marks)
    del roots, marks
    points, who = cl.points, owner[cl.owner]
    del cl, owner  # the labels, one per grown point and one per root, are read no more
    # e^(theta p), capped at e^709 < the largest double: a capped far point already makes
    # u Z >= 1 at every nonzero u (u >= 2^-53), and the plain roots' weights are never read
    weights = kernel.theta * points
    np.exp(np.minimum(weights, 709.0, out=weights), out=weights)
    z_tilted = np.bincount(who, weights=weights, minlength=n_far)
    del weights
    kept = np.ones(n_far + n_reps, dtype=bool)
    kept[:n_far] = rng.random(n_far) * z_tilted[:n_far] < 1.0  # the tilted coin: u Z < 1
    mine = kept[who]
    return points[mine], who[mine]


class HawkesSampler:
    """Exact draws of a self-exciting process on [0, a], with no grid and no state between draws.

    An ancestor at distance t before the window contributes iff its
    cluster's extinction time L exceeds t, which has probability F(t).  With
    the kernel's tilt theta (rho_theta = E[z] int h0(s) e^(theta s) ds < 1)
    and Z = sum_v e^(theta pos_v) over a cluster rooted at 0,
    E[Z] = 1/(1 - rho_theta) and Z >= e^(theta L), so

        F(t) = U(t) E_Q[1{L > t} e^(theta t) / Z],   U(t) = e^(-theta t) / (1 - rho_theta),

    with Q the Z-size-biased cluster law (Chen & Wang 2020 tilt the Hawkes
    cluster this way; Lyons, Pemantle & Peres 1995 give the spine form of Q).
    U(t0) = 1 at t0 = kernel.reach(1) = -ln(1 - rho_theta)/theta.  Roots
    arrive at rate mu on [-t1, a), t1 = 4 t0, the immigrants and the near
    ancestors in one process, and each carries an ordinary cluster: a root
    before the window whose cluster dies out before 0 puts no point in it,
    and the cut to [0, a] drops its points.  Beyond t1, Poisson(mu e^(-theta t1)/(theta (1 - rho_theta)))
    far ancestors, a mean of mu (1 - rho_theta)^3/theta, arrive at
    t1 + Exp(theta), rate mu U(t), each with a Q-cluster that _kept_clusters
    keeps with probability min(1, e^(theta t) / Z).  A kept far cluster with
    L <= t has every point at or before 0, and for L > t,
    Z >= e^(theta L) > e^(theta t), so the kept clusters that reach the window
    have intensity mu U(t) Q(dc) e^(theta t) / Z = mu P(dc) 1{L > t}: those of
    the ancestors at distance t that reach it.  That holds at every t, so the
    split is a cost choice, not a law choice.  A split at s grows
    G(s) = mu (a + s)/(1 - rho) + mu e^(-theta s)/(theta (1 - rho_theta)^2 (1 - rho))
    points a draw, the fewest where e^(-theta s) = (1 - rho_theta)^2, at 2 t0.
    Yet a draw's time is set more by its numpy calls than by its points, and
    a draw with any far ancestor makes about 25 more: the spine, the tilted
    steps, the owner labels, the weights and the coin.  So the split is a
    measured time choice: at 4 t0 a draw with no far ancestor (e^(-3/64), 95%
    of the demo's, against 83% at 3 t0 and 47% at 2 t0) grows its roots'
    clusters with no spine, weight or coin.  A demo draw took about a fifth
    less time at 3 t0 than at 2 t0 (BENCH_42.json), and less again at 4 t0
    with the engine's random numbers drawn in blocks (BENCH_43.json, both on
    a 2-core x86-64 machine).  The far path's int32 owner labels keep a heavy
    lockstep block, which grows more points at 4 t0, under its memory test's
    bound.  The zero kernel (rho = 0) has t1 = 0
    and no far ancestor.  mu is a constant nonnegative rate.  A mean
    candidate count per draw, mu (a + t1) plus the far ancestors' mean, above
    core.MAX_MEAN_POINTS raises SamplerError when the sampler is built.

    One body, _conditioned_cluster, draws n replicates from one generator and
    grows the clusters of all their roots and far ancestors in one
    sample_gw_cluster call, reading only their points and the owner labels
    that the engine grows beside them (none for one replicate with no far
    ancestor).  sample is its one-replicate case and sample_chains, the
    lockstep form, cuts and sorts its n replicates.  At one replicate the
    counts are scalar generator calls, and the engine, the RNG set-up and the
    pattern add little Python to their numpy calls, so a demo draw pays
    mostly for those: its generator, about 5.5 generations of repeat and add,
    two or three block draws, one sort and one concatenation (BENCH_44.json).
    core.POINT_CAP bounds the points one call grows, for one replicate or n
    together: a call that grows more raises SamplerError, so a large batch is
    drawn in blocks, as the battery's blocks of about core.BLOCK mean points
    are, and the cap stops a runaway near-critical call.

    tol and step describe only the certified curve of F, the sandwich
    property: it is built from them by exactpp.sandwich when first read, and
    no draw reads it.
    stats["condition_attempts"] counts the far ancestors that either form
    proposes, the only clusters that a coin decides; stats["fallback_coins"]
    and stats["grid_levels_built"] stay 0 and are kept for the counters that
    perfbench reports.
    """

    def __init__(self, kernel, mu, a, *, tol=1e-3, step=1e-4):
        if a <= 0:
            raise SamplerError("window length must be positive")
        self.kernel = kernel
        self.a = float(a)
        self.mu = float(mu)
        if self.mu < 0:
            raise SamplerError("immigrant intensity must be nonnegative")
        self.tol = float(tol)
        self.step = float(step)
        self.stats = {"condition_attempts": 0, "fallback_coins": 0, "grid_levels_built": 0}
        self._t0 = kernel.reach(1.0)
        # roots on [-t1, a), then Poisson(int_t1^inf mu U(t) dt) far ancestors beyond t1:
        # mu (1 - rho_theta)^3 / theta at t1 = 4 t0, where e^(-theta t1) = (1 - rho_theta)^4
        self._t1 = 4.0 * self._t0
        self._far_mean = (self.mu * math.exp(-kernel.theta * self._t1)
                          / (kernel.theta * (1.0 - kernel.rho_theta)) if kernel.rho > 0 else 0.0)
        mean = self.mu * (self.a + self._t1) + self._far_mean
        if not mean <= core.MAX_MEAN_POINTS:
            raise SamplerError(
                f"mean candidate count {mean:.3g} per draw exceeds the limit "
                f"{core.MAX_MEAN_POINTS:.0e}"
            )
        self.meta = {"theta": kernel.theta, "rho_theta": kernel.rho_theta, "t0": self._t0}

    @functools.cached_property
    def sandwich(self):
        """The certified curve of F: a Sandwich driven to tol on a grid of the given step.

        build_sandwich is looked up on this module, so the first read imports
        exactpp.sandwich and a wrapper set on hawkes_mr.build_sandwich sees the build.
        """
        return sys.modules[__name__].build_sandwich(self.kernel, tol=self.tol, step=self.step)

    def _conditioned_cluster(self, rng, n=1):
        """Points of n independent draws' clusters, unsorted and uncut: those of
        the roots on [-t1, a) and of the far ancestors that the coin keeps.

        Every replicate's roots, then its far ancestors are drawn, each count
        and each position one generator call for all replicates; one
        replicate's counts are scalar calls, which draw the variates of the
        size-1 calls at less cost and make no array to sum.  Then the clusters
        of all of them grow in one _kept_clusters call.  Past one replicate,
        each point's replicate is returned too.
        """
        mu, a, t1 = self.mu, self.a, self._t1
        # roots at rate mu on [-t1, a), then far ancestors at distance t1 + Exp(theta)
        if n == 1:
            roots_n = (rng.poisson(mu * (t1 + a)),)
            roots = rng.random(roots_n[0]) * (t1 + a) - t1
            n_far = rng.poisson(self._far_mean)
        else:
            roots_n = rng.poisson(mu * (t1 + a), n)
            roots = rng.random(roots_n.sum()) * (t1 + a) - t1
            far_n = rng.poisson(self._far_mean, n)
            n_far = far_n.sum()
        far = t1 + rng.exponential(1.0 / self.kernel.theta, size=n_far) if n_far else _NO_FAR
        self.stats["condition_attempts"] += far.size
        pts, who = _kept_clusters(self.kernel, far, rng, roots, roots_n)
        if n == 1:
            return pts
        reps = np.arange(n)
        owner_rep = np.concatenate((reps.repeat(far_n), reps))
        return pts, owner_rep.take(who, out=who)  # each point's replicate, in who's memory

    def sample(self, rng):
        """One exact draw on the closed window [0, a] as a sorted 1-D pattern."""
        pts = self._conditioned_cluster(rng)
        pts.sort()
        cut = pts[pts.searchsorted(0.0, side="left") : pts.searchsorted(self.a, side="right")]
        return PointPattern(cut.reshape(-1, 1), dim=1)

    def sample_chains(self, n_chains, rng):
        """(points, offsets) of n_chains independent draws of sample, in lockstep.

        Replicate i's points, cut to [0, a] and sorted, are
        points[offsets[i]:offsets[i + 1]], one row each.  _conditioned_cluster
        draws them all, and at one replicate it is sample's own draw.
        """
        n = int(n_chains)
        drawn = self._conditioned_cluster(rng, n)  # at one replicate, the points alone
        pts, rep = drawn if n != 1 else (drawn, np.zeros(drawn.size, dtype=int))
        inside = (pts >= 0.0) & (pts <= self.a)
        cut, cut_rep = pts[inside], rep[inside]
        del drawn, pts, rep, inside  # the uncut arrays, freed before the sort
        order = order_by_label(cut, cut_rep)
        return cut[order].reshape(-1, 1), chain_offsets(np.bincount(cut_rep, minlength=n))


# -- config builder, which cli.build calls ----------------------------------------


def _fertility(p):
    family, k = p.tagged("kernel", "family", {
        "exponential": ("beta", "gamma", "marks"),
        "polynomial": ("coeffs", "support", "marks"),
        "table": ("breaks", "values", "marks"),
    })
    marks = k.get("marks", list, [[1.0, 1.0]])
    if not all(isinstance(m, list) and len(m) == 2 and None not in map(_finite, m)
               for m in marks):
        raise ConfigError(
            f"'{k.path}.marks' must be a list of [weight, value] pairs of finite numbers"
        )
    marks = tuple((float(w), float(z)) for w, z in marks)
    if family == "exponential":
        beta, gamma = k.get("beta", float, check=_NONNEG), k.get("gamma", float, check=_POS)
        return _made(k.path, ExponentialFertility, beta, gamma, marks)
    if family == "polynomial":
        return _made(k.path, PolynomialFertility, k.floats("coeffs"),
                     k.get("support", float, check=_POS), marks)
    return _made(k.path, PiecewiseConstantFertility, k.floats("breaks"), k.floats("values"), marks)


def _build_hawkes_mr(p, window):
    kernel = _fertility(p)
    mu = p.get("mu", float, check=_NONNEG)
    if abs(window.lower[0]) > 1e-12:
        raise ConfigError("'window.lower' must be [0] for the self-exciting sampler")
    sampler = HawkesSampler(kernel, mu, window.upper[0], tol=p.get("tol", float, 1e-3, _POS),
                            step=p.get("step", float, 1e-4, _POS))

    def oracle(n_reps, rng):
        from .oracles import TV_PER_CHAIN, hawkes_bounded_burn_in_chains, hawkes_exp_burn_in_chains

        # a chain differs from the stationary law only if an ancestor before -burn reaches
        # the window: mean mu int_burn^inf F <= mu U(burn) / theta = TV_PER_CHAIN
        a = window.upper[0]
        burn = kernel.reach(TV_PER_CHAIN * kernel.theta / mu) if mu > 0 else 0.0
        chains = (hawkes_exp_burn_in_chains if isinstance(kernel, ExponentialFertility)
                  else hawkes_bounded_burn_in_chains)
        return chains(kernel, mu, a, burn, n_reps, rng)

    # a replicate's points: the clusters of its mu (t1 + a) roots on [-t1, a) and of the
    # spine nodes of its _far_mean far ancestors, 1 / (1 - rho_theta) each; a share rho_theta
    # of the nodes, those before each spine's last, carry z-size-biased marks, whose
    # clusters grow (E[z^2] / E[z] - E[z]) nu0 / (1 - rho) more points each (0 for one mark)
    nodes = biased = 0.0
    if kernel.rho > 0:
        nodes = sampler._far_mean / (1.0 - kernel.rho_theta)
        spread = float(np.sum(kernel._weights * (kernel._zs - kernel.mean_mark) ** 2))
        biased = kernel.rho_theta * spread / kernel.mean_mark * kernel._base
    per_rep = (mu * (window.upper[0] + sampler._t1) + nodes * (1.0 + biased)) / (1.0 - kernel.rho)
    validate = _count_checks(
        sampler.sample_chains,
        mean=("self-exciting-mean-count", mu * window.upper[0] / (1.0 - kernel.rho)),
        oracle=("self-exciting-counts-vs-burn-in", oracle),
        per_rep=per_rep,
    )
    # the certified curve is built only if a plot reads it
    return _built(sampler.sample, window, validate, ("points-2d", "sandwich-curves"),
                  dict(sampler.meta), sampler=sampler, kernel=kernel)
