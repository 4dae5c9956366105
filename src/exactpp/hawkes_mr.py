"""Perfect sampling of linear self-exciting processes on a bounded interval.

A single-ancestor cluster rooted at 0 (offspring arrive as a Poisson process
with intensity h(., z) scaled by the parent's mark, each offspring spawning
its own independent subtree) has extinction time L = last point - ancestor.
An ancestor a distance t before the window reaches it iff L > t, an event of
probability F(t) = P(L > t).  HawkesSampler draws the ancestors that reach
the window without evaluating F.  Up to t1 = 2 t0, twice the distance where
the closed-form envelope U(t) = e^(-theta t) / (1 - rho_theta) of an
exponentially tilted cluster law falls to 1, ancestors arrive at rate mu with
ordinary clusters, and the cut to the window drops the points of those that
do not reach it; beyond t1 it thins candidates under U with a coin on their
tilted clusters, drawn through their spine.  The coin is exact at any
distance, and t1 is the split at which a draw grows the fewest points.
Every cluster grows through branching_approx.sample_gw_cluster, the
Galton-Watson engine that spatial branching draws share.

The CDF E = 1 - F is also the unique fixed point of

    (Phi g)(t) = sum_j w_j * exp( -nu_inf(z_j) + int_0^t g(t-s) h(s, z_j) ds ),

which is the probability-generating functional of the first generation: every
first-generation point at s must be <= t and its subtree must die out by
t - s.  The constant *total* offspring mass nu_inf(z) in the exponent is
essential: with the cumulative mass nu(t, z) instead, the map would return 1
at t = 0 for every argument, while the true E(0) = P(no offspring at all) =
sum_j w_j exp(-nu_inf(z_j)).  The Monte-Carlo containment check in the
validation suite discriminates the two forms.

build_sandwich drives certified bounds l_n <= F <= u_n on a grid:
quadrature is bracketed by staircase envelopes with exact per-cell kernel
mass, every step rounds outward by EPS_ROUND, and iterates are clamped
monotone, so the bounds stay valid on the grid by induction.  The sandwich
is an independent construction of F that checks the spine route; no draw
uses it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .branching_approx import sample_gw_cluster
from .core import (MAX_MEAN_POINTS, _NONNEG, _POS, ConfigError, PointPattern, SamplerError, _built,
                   _count_checks, _finite, _Frozen, _made, chain_offsets, order_by_label,
                   poisson_counts)

__all__ = [
    "EPS_ROUND",
    "FertilityKernel",
    "ExponentialFertility",
    "PolynomialFertility",
    "PiecewiseConstantFertility",
    "PhiOperator",
    "BoundPair",
    "Sandwich",
    "build_sandwich",
    "HawkesSampler",
]

EPS_ROUND = 1e-10  # directed-rounding margin absorbing quadrature float error
POINT_CAP = 1_000_000


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
    A shape of unbounded support also overrides suggested_decay and _tilt.

    theta is the tilt of the spine construction (see HawkesSampler), a
    function of the kernel alone: the theta > 0 where rho_theta =
    E[z] * _tilted_mass(theta) equals (1 + rho) / 2.  The zero kernel (rho = 0)
    has theta = rho_theta = 0 and never needs a tilt.
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

    def suggested_decay(self):
        """The certified curve's decay rate for a bounded shape: rho^(t / support)."""
        return -math.log(max(self.rho, 1e-12)) / self.support

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

    def suggested_decay(self):
        return self.gamma * (1.0 - self.rho)


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


# -- the fixed-point operator on a uniform grid -----------------------------------


def _next_fast_len(target):
    """Smallest integer >= target whose only prime factors are 2, 3, 5, 7, 11.

    The same length as scipy.fft.next_fast_len(target) (real=False).  Such
    numbers lie at most 15,750 apart below 5e6, so the scan stays short.
    """
    n = target
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


class PhiOperator:
    """Phi on grid functions with bracketed staircase quadrature.

    The integral int_0^{tau_i} g(tau_i - s) h(s, z) ds is bracketed per cell
    [tau_k, tau_{k+1}] between g at the two relevant nodes times the exact
    cell mass of h(., z); for CDF-like nondecreasing g the node values are the
    true cell extrema, so "up"/"down" rounding yields rigorous one-sided
    results (plus/minus EPS_ROUND absorbing float error).  Both alignments
    are single convolutions, computed with numpy.fft at the 11-smooth length
    (prime factors 2, 3, 5, 7 and 11 only) at or above the full linear
    convolution's 2 * n_nodes - 2.
    """

    def __init__(self, kernel, step, n_nodes):
        if step <= 0 or n_nodes < 2:
            raise SamplerError("need a positive step and at least two grid nodes")
        self.kernel = kernel
        self.step = float(step)
        self.n_nodes = int(n_nodes)
        self.taus = np.arange(self.n_nodes) * self.step
        self._fft_len = _next_fast_len(2 * self.n_nodes - 2)
        self._dnu = []
        self._dnu_fft = []
        self._nu_inf = []
        self._w = []
        for w, z in kernel.components():
            nu_nodes = kernel.nu(self.taus, z)
            dnu = np.diff(nu_nodes)
            self._dnu.append(dnu)
            self._dnu_fft.append(np.fft.rfft(dnu, self._fft_len) if np.any(dnu) else None)
            self._nu_inf.append(float(kernel.nu_inf(z)))
            self._w.append(float(w))
        self.max_width = 0.0

    def _integrals(self, f):
        """Per-component (I_down, I_up) staircase quadratures as arrays."""
        out = []
        n = self.n_nodes
        f_fft = None
        for dnu, dnu_fft in zip(self._dnu, self._dnu_fft):
            if dnu_fft is None:
                zero = np.zeros(n)
                out.append((zero, zero))
                continue
            if f_fft is None:
                f_fft = np.fft.rfft(f, self._fft_len)
            c = np.fft.irfft(f_fft * dnu_fft, self._fft_len)
            i_up = c[:n].copy()
            i_up[:-1] -= f[0] * dnu
            i_down = np.concatenate([[0.0], c[: n - 1]])
            out.append((i_down, i_up))
        return out

    def apply(self, f, rounding):
        """Phi(f) on the grid; rounding in {'down', 'up', 'nearest'}."""
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n_nodes,):
            raise SamplerError("grid function has the wrong length")
        if np.any(f < -1e-12) or np.any(f > 1 + 1e-12):
            raise SamplerError("grid function must take values in [0, 1]")
        out = np.zeros(self.n_nodes)
        width = 0.0
        for (i_down, i_up), nu_inf, w in zip(self._integrals(f), self._nu_inf, self._w):
            if rounding == "up":
                integral = i_up
            elif rounding == "down":
                integral = i_down
            else:
                integral = 0.5 * (i_down + i_up)
            width = max(width, w * float(np.max(i_up - i_down)))
            out += w * np.exp(np.minimum(-nu_inf + integral, 0.0))
        self.max_width = max(self.max_width, width)
        if rounding == "up":
            out += EPS_ROUND
        elif rounding == "down":
            out -= EPS_ROUND
        return np.clip(out, 0.0, 1.0)


# -- sandwich bounds ----------------------------------------------------------------


class BoundPair(_Frozen):
    """Rigorous node bounds ell <= F <= upp on the survival tail F = 1 - E.

    A Sandwich builds one pair per iterate and hands the same pair to every
    caller, so ell and upp are read-only.  A deep copy (of a sandwich or a
    sampler) shares the pair instead of copying it into writable arrays.
    """

    _fields = ("taus", "ell", "upp", "n")

    def __init__(self, taus, ell, upp, n):
        if np.any(ell > upp + 1e-15):
            raise SamplerError("lower bound exceeded upper bound: rigor leak")
        ell.flags.writeable = False
        upp.flags.writeable = False
        self.__dict__.update(taus=taus, ell=ell, upp=upp, n=n)

    def __deepcopy__(self, memo):
        return self


class Sandwich:
    """Monotone sandwich state: CDF-side iterates e_lo <= E <= e_hi on the grid.

    e_hi starts at 1 and is iterated with up-rounded quadrature; e_lo starts
    at the zero-started certified iterate (everything below E stays below E
    under down-rounding).  Both paths are clamped monotone in n and tightened
    monotone in t, so every BoundPair invariant holds by construction.
    advance() is the only code that moves the iterates; the read-only
    BoundPair of the current iterate is built there and at construction, and
    bounds() returns it without copying. The iterate count n starts at 0 and
    gap0, the residual of the certificate, is the initial gap; gaps and
    cert_ok record each iterate's gap and whether the certificate held. A
    sandwich is mutable, so it has no hash.
    """

    __hash__ = None

    def __init__(self, kernel, phi, e_lo, e_hi, *, meta):
        self.kernel, self.phi, self.e_lo, self.e_hi, self.meta = kernel, phi, e_lo, e_hi, meta
        self.n, self.gaps, self.cert_ok = 0, [], []
        self._set_bounds()
        self.gap0 = self.gap

    def _set_bounds(self):
        self._bounds = BoundPair(self.taus, 1.0 - self.e_hi, 1.0 - self.e_lo, self.n)

    @property
    def taus(self):
        return self.phi.taus

    @property
    def gap(self):
        return float(np.max(self.e_hi - self.e_lo))

    def bounds(self):
        return self._bounds

    def certificate_bound(self, n=None):
        """Geometric certificate rho^n/(1-rho) * initial residual."""
        n = self.n if n is None else n
        rho = self.kernel.rho
        return rho**n / (1.0 - rho) * self.gap0

    def advance(self, steps=1):
        for _ in range(steps):
            hi = self.phi.apply(self.e_hi, "up")
            hi = np.minimum.accumulate(hi[::-1])[::-1]  # suffix-min: E nondecreasing
            self.e_hi = np.minimum(self.e_hi, hi)
            lo = self.phi.apply(self.e_lo, "down")
            lo = np.maximum.accumulate(lo)  # prefix-max: E nondecreasing
            self.e_lo = np.maximum(self.e_lo, lo)
            if np.any(self.e_lo > self.e_hi + 1e-15):
                raise SamplerError("sandwich sides crossed: rigor leak")
            self.n += 1
            g = self.gap
            self.gaps.append(g)
            self.cert_ok.append(bool(g <= self.certificate_bound()))
        self._set_bounds()
        return self.gap

    def drive(self, tol, n_max):
        """Iterate until the sup gap reaches tol; error with the achieved gap."""
        while self.gap > tol:
            if self.n >= n_max:
                raise SamplerError(
                    f"sandwich did not reach tolerance {tol:.3g} within {n_max} "
                    f"iterations; achieved gap {self.gap:.3g}"
                )
            self.advance(1)
        return self.bounds()


def _certified_floor(phi, n_nodes, cert_max=160, stall=0.25 * EPS_ROUND):
    """Zero-started down-rounded iterates: always <= E, driven to their stall."""
    z = np.zeros(n_nodes)
    used = 0
    for _ in range(cert_max):
        nxt = phi.apply(z, "down")
        nxt = np.maximum.accumulate(nxt)
        nxt = np.maximum(z, nxt)
        moved = float(np.max(nxt - z))
        z = nxt
        used += 1
        if moved < stall:
            break
    return z, used


def build_sandwich(
    kernel,
    n_max=200,
    tol=1e-3,
    t_max=None,
    step=1e-4,
    quad_tol=0.25,
):
    """Certified sandwich driven to tolerance on a uniform grid.

    The lower CDF path starts at the zero-started certified floor.
    """
    if t_max is None:
        t_max = 30.0 / max(kernel.suggested_decay() / 2.0, 1e-6)
    n_nodes = max(int(math.ceil(t_max / step)) + 1, 8)
    phi = PhiOperator(kernel, step, n_nodes)
    floor, cert_iters = _certified_floor(phi, n_nodes)
    if phi.max_width > quad_tol:
        raise SamplerError(
            f"grid too coarse: staircase quadrature width {phi.max_width:.3g} "
            f"exceeds {quad_tol:.3g}"
        )
    sw = Sandwich(
        kernel=kernel,
        phi=phi,
        e_lo=floor,
        e_hi=np.ones(n_nodes),
        meta={"t_max": float(t_max), "step": float(step), "cert_iterations": cert_iters},
    )
    sw.drive(tol, n_max)
    sw.meta["n_at_tol"] = sw.n
    sw.meta["gap_at_tol"] = sw.gap
    return sw


# -- the perfect sampler ---------------------------------------------------------------


def _total(counts):
    """The sum of poisson_counts' counts; one replicate's is its one count."""
    return counts[0] if len(counts) == 1 else int(counts.sum())


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

    A Q-cluster is a cluster size-biased by Z_0.  Under Q, a distinguished node
    lies Geometric(1 - rho_theta) - 1 generations deep, and the path to it (the
    spine) takes steps with density proportional to h0(s) e^(theta s).  The
    spine nodes before the last carry z-size-biased marks, and every spine
    node roots an ordinary cluster with its mark; the last spine nodes and
    the plain roots draw ordinary marks.  All clusters of the call grow in
    one sample_gw_cluster call, whose point cap, POINT_CAP a replicate,
    bounds them together; only its points and the owner labels grown beside
    them are read, and the cluster is dropped once they are.

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
        cl = sample_gw_cluster(kernel, roots, rng, POINT_CAP * n_reps, owners=n_reps != 1)
        if n_reps == 1:
            return cl.points, None
        return cl.points, np.arange(n_reps).repeat(root_counts)[cl.owner]
    nodes = rng.geometric(1.0 - kernel.rho_theta, size=n_far)
    roots_of = np.concatenate((nodes, root_counts))  # a far ancestor's roots are its spine nodes
    owner = np.arange(n_far + n_reps).repeat(roots_of)  # the owner of each root
    n_nodes = owner.size - roots.size  # the spine nodes
    ends = nodes.cumsum()
    # one tilted step a node, summed over all spines; taking away the running sum at each
    # spine's first node puts that node at its ancestor, -t, and every later node at -t
    # plus its depth
    pos = kernel.sample_tilted_displacement(n_nodes, rng).cumsum()
    pos -= (pos[ends - nodes] + far).repeat(nodes)
    roots = np.concatenate((pos, roots))
    marks = None  # one mark: sample_gw_cluster draws none
    if kernel.one_mark_nu is None:
        biased = np.zeros(roots.size, dtype=bool)
        biased[:n_nodes] = True
        biased[ends - 1] = False  # the spine nodes before the last
        n_biased = n_nodes - n_far
        marks = np.empty(roots.size)
        marks[biased] = kernel.sample_biased_mark(n_biased, rng)
        marks[~biased] = kernel.sample_mark(roots.size - n_biased, rng)
        del biased
    del roots_of, pos, ends, nodes  # not held through the engine
    cl = sample_gw_cluster(kernel, roots, rng, POINT_CAP * n_reps, root_marks=marks)
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
    U(t0) = 1 at t0 = -ln(1 - rho_theta)/theta.  Roots arrive at rate mu on
    [-t1, a), t1 = 2 t0, the immigrants and the near ancestors in one process,
    and each carries an ordinary cluster: a root before the window whose
    cluster dies out before 0 puts no point in it, and the cut to [0, a] drops
    its points.  Beyond t1, Poisson(mu (1 - rho_theta)/theta) far ancestors
    arrive at t1 + Exp(theta), rate mu U(t), each with a Q-cluster that
    _kept_clusters keeps with probability min(1, e^(theta t) / Z).  A kept far
    cluster with L <= t has every point at or before 0, and for L > t,
    Z >= e^(theta L) > e^(theta t), so the kept clusters that reach the window
    have intensity mu U(t) Q(dc) e^(theta t) / Z = mu P(dc) 1{L > t}: those of
    the ancestors at distance t that reach it.  That holds at every t, so the
    split is a cost choice, not a law choice: a split at s grows
    G(s) = mu (a + s)/(1 - rho) + mu e^(-theta s)/(theta (1 - rho_theta)^2 (1 - rho))
    points a draw, least where e^(-theta s) = (1 - rho_theta)^2, at s = t1.
    A draw with no far ancestor (e^(-3/4), 47% of the demo's) grows its roots'
    clusters with no spine, weight or coin; the zero kernel (rho = 0) has
    t1 = 0 and no far ancestor.  mu is a constant nonnegative rate.  A mean
    candidate count per draw, mu (a + t1 + (1 - rho_theta)/theta), above
    core.MAX_MEAN_POINTS raises SamplerError when the sampler is built.

    One body, _conditioned_cluster, draws n replicates from one generator and
    grows the clusters of all their roots and far ancestors in one
    sample_gw_cluster call, reading only their points and the owner labels
    that the engine grows beside them (none for one replicate with no far
    ancestor).  sample is its one-replicate case and
    sample_chains, the lockstep form, cuts and sorts its n replicates.
    POINT_CAP bounds the points a call grows, per replicate: at most POINT_CAP
    for a draw, n * POINT_CAP for n replicates together.  A battery's blocks
    bound a call's mean points (validation.BATTERY_POINTS), and the cap stops
    a runaway near-critical call.

    tol and step describe only the certified curve of F, the sandwich
    property: it is built from them when first read, and no draw reads it.
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
        self._t0 = -math.log1p(-kernel.rho_theta) / kernel.theta if kernel.rho > 0 else 0.0
        # roots on [-t1, a), then Poisson(mu (1 - rho_theta) / theta) far ancestors beyond t1
        self._t1 = 2.0 * self._t0
        self._far_mean = (self.mu * (1.0 - kernel.rho_theta) / kernel.theta
                          if kernel.rho > 0 else 0.0)
        mean = self.mu * (self.a + self._t1) + self._far_mean
        if not mean <= MAX_MEAN_POINTS:
            raise SamplerError(
                f"mean candidate count {mean:.3g} per draw exceeds the limit {MAX_MEAN_POINTS:.0e}"
            )
        self.meta = {"theta": kernel.theta, "rho_theta": kernel.rho_theta, "t0": self._t0}

    @functools.cached_property
    def sandwich(self):
        """The certified curve of F: a Sandwich driven to tol on a grid of the given step."""
        return build_sandwich(self.kernel, tol=self.tol, step=self.step)

    def _conditioned_cluster(self, rng, n=1):
        """Points of n independent draws' clusters, unsorted and uncut: those of
        the roots on [-t1, a) and of the far ancestors that the coin keeps.

        Every replicate's roots, then its far ancestors are drawn, each count
        and each position one generator call for all replicates; then the
        clusters of all of them grow in one _kept_clusters call.  Past one
        replicate, each point's replicate is returned too.
        """
        mu, a, t1 = self.mu, self.a, self._t1
        # roots at rate mu on [-t1, a), then far ancestors at distance t1 + Exp(theta)
        roots_n = poisson_counts(mu * (t1 + a), n, rng)
        roots = rng.random(_total(roots_n)) * (t1 + a) - t1
        far_n = poisson_counts(self._far_mean, n, rng)
        n_far = _total(far_n)
        far = t1 + rng.exponential(1.0 / self.kernel.theta, size=n_far) if n_far else np.empty(0)
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
        from .oracles import hawkes_bounded_burn_in_chains, hawkes_exp_burn_in_chains

        a, burn = window.upper[0], 60.0 / max(kernel.suggested_decay(), 1e-6)
        chains = (hawkes_exp_burn_in_chains if isinstance(kernel, ExponentialFertility)
                  else hawkes_bounded_burn_in_chains)
        return chains(kernel, mu, a, burn, n_reps, rng)

    # a replicate's points: the clusters of its mu (t1 + a) roots on [-t1, a) and of its
    # mu (1 - rho_theta) / theta far ancestors, with 1 / (1 - rho_theta) spine nodes each;
    # its mu rho_theta / theta spine nodes before the last carry z-size-biased marks, whose
    # clusters grow (E[z^2] / E[z] - E[z]) nu0 / (1 - rho) more points each (0 for one mark)
    far = biased = 0.0
    if kernel.rho > 0:
        far = 1.0 / kernel.theta
        spread = float(np.sum(kernel._weights * (kernel._zs - kernel.mean_mark) ** 2))
        biased = kernel.rho_theta / kernel.theta * spread / kernel.mean_mark * kernel._base
    per_rep = mu * (window.upper[0] + sampler._t1 + far + biased) / (1.0 - kernel.rho)
    validate = _count_checks(
        sampler.sample_chains,
        mean=("self-exciting-mean-count", mu * window.upper[0] / (1.0 - kernel.rho)),
        oracle=("self-exciting-counts-vs-burn-in", oracle),
        per_rep=per_rep,
    )
    # the certified curve is built only if a plot reads it
    return _built(sampler.sample, window, validate, ("points-2d", "sandwich-curves"),
                  dict(sampler.meta), sampler=sampler, kernel=kernel)
