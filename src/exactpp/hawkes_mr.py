"""Perfect sampling of linear self-exciting processes on a bounded interval.

A single-ancestor cluster rooted at 0 (offspring arrive as a Poisson process
with intensity h(., z) scaled by the parent's mark, each offspring spawning
its own independent subtree) has extinction time L = last point - ancestor.
Its CDF E(t) = P(L <= t) is the unique fixed point of

    (Phi g)(t) = sum_j w_j * exp( -nu_inf(z_j) + int_0^t g(t-s) h(s, z_j) ds ),

which is the probability-generating functional of the first generation: every
first-generation point at s must be <= t and its subtree must die out by
t - s.  The constant *total* offspring mass nu_inf(z) in the exponent is
essential: with the cumulative mass nu(t, z) instead, the map would return 1
at t = 0 for every argument, while the true E(0) = P(no offspring at all) =
sum_j w_j exp(-nu_inf(z_j)).  The Monte-Carlo containment check in the
validation suite discriminates the two forms.

F = 1 - E is the survival tail.  An ancestor a reversed distance t before
the window contributes iff its cluster survives past t - an event of
probability F(t) - so dominated candidate ancestors carrying uniform heights
are classified against rigorous sandwich bounds l_n <= F <= u_n without ever
evaluating F: quadrature is bracketed by staircase envelopes with exact
per-cell kernel mass, every step rounds outward by EPS_ROUND, and iterates
are clamped monotone, so the bounds stay valid on the grid by induction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import PointPattern, SamplerError, Window

__all__ = [
    "EPS_ROUND",
    "FertilityKernel",
    "ExponentialFertility",
    "PolynomialFertility",
    "PiecewiseConstantFertility",
    "GWCluster",
    "sample_gw_cluster",
    "PhiOperator",
    "BoundPair",
    "Sandwich",
    "build_sandwich",
    "HawkesSampler",
]

EPS_ROUND = 1e-10  # directed-rounding margin absorbing quadrature float error
POINT_CAP = 1_000_000
CONDITION_ATTEMPT_CAP = 1_000_000


def _validate_marks(marks):
    marks = tuple((float(w), float(z)) for (w, z) in marks)
    ws = np.array([w for w, _ in marks])
    zs = np.array([z for _, z in marks])
    if np.any(ws <= 0) or np.any(zs < 0):
        raise SamplerError("mark mixture needs positive weights and nonnegative values")
    if abs(ws.sum() - 1.0) > 1e-9:
        raise SamplerError("mark weights must sum to one")
    return marks, ws / ws.sum(), zs


class FertilityKernel:
    """Reproduction rate h(t, z) = z * h0(t), marks from a finite mixture.

    Marks scale the offspring intensity multiplicatively, so offspring counts
    are Poisson(z * nu0_inf) and displacement positions share one law with
    density h0 / nu0_inf.  Subclasses provide the base shape h0: its exact
    cumulative _nu0, total mass _nu0_inf, first moment _t_moment = int t h0,
    a suggested exponential decay rate for the dominating tail, and an exact
    displacement sampler; their __init__ sets _displacement_m2, a bound on the
    second moment of one displacement.
    """

    def __init__(self, marks=((1.0, 1.0),)):
        self.marks, self._weights, self._zs = _validate_marks(marks)
        cdf = self._weights.cumsum()
        cdf /= cdf[-1]
        self._mark_cdf = cdf  # the CDF Generator.choice(p=) would rebuild per call
        base = self._nu0_inf()
        if base < 0 or not np.isfinite(base):
            raise SamplerError("offspring mass must be finite and nonnegative")
        self.rho = float(np.sum(self._weights * self._zs) * base)
        if self.rho >= 1:
            raise SamplerError(
                f"branching ratio rho={self.rho:.6g} >= 1: supercritical, no finite clusters"
            )
        tm = self._t_moment()
        if not np.isfinite(tm):
            raise SamplerError("first moment of the fertility rate must be finite")
        self.m1 = float(np.sum(self._weights * self._zs) * tm)
        self.mean_mark = float(np.sum(self._weights * self._zs))

    # -- base-shape interface ----------------------------------------------
    def _h0(self, t):
        raise NotImplementedError

    def _nu0(self, t):
        raise NotImplementedError

    def _nu0_inf(self):
        raise NotImplementedError

    def _t_moment(self):
        raise NotImplementedError

    def sample_displacement(self, n, rng):
        raise NotImplementedError

    def suggested_decay(self):
        raise NotImplementedError

    # -- derived quantities --------------------------------------------------
    def h(self, t, z):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0, 0.0, z * self._h0(np.maximum(t, 0.0)))

    def nu(self, t, z):
        t = np.asarray(t, dtype=float)
        return z * self._nu0(np.maximum(t, 0.0))

    def nu_inf(self, z):
        return z * self._nu0_inf()

    def components(self):
        """(weight, z) pairs of the mark mixture."""
        return self.marks

    def mean_cluster_size(self):
        return 1.0 / (1.0 - self.rho)

    def sample_mark(self, n, rng):
        """n iid marks: the indices and random numbers of rng.choice(p=weights)."""
        return self._zs[self._mark_cdf.searchsorted(rng.random(n), side="right")]


class ExponentialFertility(FertilityKernel):
    """h(t, z) = z * beta * exp(-gamma t); displacements are Exp(gamma)."""

    def __init__(self, beta, gamma, marks=((1.0, 1.0),)):
        if beta < 0 or gamma <= 0:
            raise SamplerError("need beta >= 0 and gamma > 0")
        self.beta = float(beta)
        self.gamma = float(gamma)
        self._displacement_m2 = 2.0 / self.gamma**2  # exact for Exp(gamma)
        super().__init__(marks)

    def _h0(self, t):
        return self.beta * np.exp(-self.gamma * t)

    def _nu0(self, t):
        return self.beta * (-np.expm1(-self.gamma * t)) / self.gamma

    def _nu0_inf(self):
        return self.beta / self.gamma

    def _t_moment(self):
        return self.beta / self.gamma**2

    def sample_displacement(self, n, rng):
        return rng.exponential(1.0 / self.gamma, size=int(n))

    def suggested_decay(self):
        return self.gamma * (1.0 - self.rho)


class PolynomialFertility(FertilityKernel):
    """h0(t) = max(poly(t), 0-checked) on [0, support], zero beyond.

    The polynomial must be nonnegative on its support (checked at the
    derivative's real roots and the endpoints, so the check is exact).
    Displacements are drawn by rejection under the exact polynomial maximum.
    """

    def __init__(self, coeffs, support, marks=((1.0, 1.0),)):
        if support <= 0:
            raise SamplerError("support must be positive")
        self.coeffs = tuple(float(c) for c in coeffs)
        self.support = float(support)
        self._poly = np.polynomial.Polynomial(self.coeffs)
        crit = [0.0, self.support]
        for r in self._poly.deriv().roots():
            if abs(r.imag) < 1e-12 and 0 <= r.real <= self.support:
                crit.append(float(r.real))
        vals = self._poly(np.array(crit))
        if np.min(vals) < 0:
            raise SamplerError("fertility polynomial is negative on its support")
        self._h_max = float(np.max(vals))
        self._displacement_m2 = self.support**2
        super().__init__(marks)

    def _h0(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= self.support, np.maximum(self._poly(t), 0.0), 0.0)

    def _nu0(self, t):
        integ = self._poly.integ()
        t = np.minimum(np.asarray(t, dtype=float), self.support)
        return integ(t) - integ(0.0)

    def _nu0_inf(self):
        integ = self._poly.integ()
        return float(integ(self.support) - integ(0.0))

    def _t_moment(self):
        shifted = self._poly * np.polynomial.Polynomial([0.0, 1.0])
        integ = shifted.integ()
        return float(integ(self.support) - integ(0.0))

    def sample_displacement(self, n, rng):
        out = np.empty(int(n))
        have = 0
        while have < n:
            m = max(int(2.2 * (n - have)) + 8, 16)
            cand = rng.random(m) * self.support
            keep = rng.random(m) * self._h_max < self._h0(cand)
            got = cand[keep][: n - have]
            out[have : have + got.size] = got
            have += got.size
        return out

    def suggested_decay(self):
        return -math.log(max(self.rho, 1e-12)) / self.support


class PiecewiseConstantFertility(FertilityKernel):
    """User-table shape: h0 constant on each cell of a breakpoint grid."""

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
        self._cell_mass = values * np.diff(breaks)
        self._cum = np.concatenate([[0.0], np.cumsum(self._cell_mass)])
        self._displacement_m2 = float(breaks[-1]) ** 2
        super().__init__(marks)

    def _h0(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0, self.values.size - 1)
        return np.where(t <= self.breaks[-1], self.values[idx], 0.0)

    def _nu0(self, t):
        t = np.minimum(np.asarray(t, dtype=float), self.breaks[-1])
        idx = np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0, self.values.size - 1)
        return self._cum[idx] + self.values[idx] * (t - self.breaks[idx])

    def _nu0_inf(self):
        return float(self._cum[-1])

    def _t_moment(self):
        lo, hi = self.breaks[:-1], self.breaks[1:]
        return float(np.sum(self.values * (hi**2 - lo**2) / 2.0))

    def sample_displacement(self, n, rng):
        total = self._cum[-1]
        r = rng.random(int(n)) * total
        idx = np.clip(np.searchsorted(self._cum, r, side="right") - 1, 0, self.values.size - 1)
        frac = (r - self._cum[idx]) / np.where(self._cell_mass[idx] > 0, self._cell_mass[idx], 1.0)
        return self.breaks[idx] + frac * (self.breaks[idx + 1] - self.breaks[idx])

    def suggested_decay(self):
        return -math.log(max(self.rho, 1e-12)) / self.breaks[-1]


# -- single-ancestor clusters ----------------------------------------------------


@dataclass(frozen=True)
class GWCluster:
    """All points of one or more single-ancestor clusters, with generation labels.

    owner[i] is the root that point i descends from.  ancestor, ancestor_mark
    and extinction_time (last point minus ancestor) are floats for a scalar
    ancestor and arrays with one entry per root otherwise.
    """

    points: np.ndarray
    generations: np.ndarray
    owner: np.ndarray
    ancestor: float | np.ndarray
    ancestor_mark: float | np.ndarray
    extinction_time: float | np.ndarray

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def offsets(self):
        return self.points - np.atleast_1d(self.ancestor)[self.owner]


def sample_gw_cluster(kernel, ancestor, rng, point_cap=POINT_CAP):
    """Generation-by-generation draw of the clusters of a scalar or 1-D array of ancestors.

    Each point with mark z spawns Poisson(nu_inf(z)) children displaced by
    the kernel's normalized shape; the recursion terminates a.s. (rho < 1)
    with mean total size 1/(1-rho) per root.  All clusters grow in one
    generation loop, and point_cap bounds the points of the whole call,
    roots included.
    """
    roots = np.asarray(ancestor, dtype=float)
    batch = roots.ndim > 0  # a scalar ancestor owns every point: no owner bookkeeping
    roots = roots.reshape(-1)
    marks = anc_marks = kernel.sample_mark(roots.size, rng)
    pts, gens, owners = [roots], [np.zeros(roots.size, dtype=np.int64)], [np.arange(roots.size)]
    total = roots.size
    while pts[-1].size:
        counts = rng.poisson(kernel.nu_inf(marks))
        n_next = int(counts.sum())
        total += n_next
        if total > point_cap:
            raise SamplerError(
                f"cluster exceeded {point_cap} points (rho={kernel.rho:.4g}; "
                "near-critical configurations grow huge clusters)"
            )
        if n_next == 0:
            break
        pts.append(np.repeat(pts[-1], counts) + kernel.sample_displacement(n_next, rng))
        gens.append(np.full(n_next, len(gens), dtype=np.int64))
        if batch:
            owners.append(np.repeat(owners[-1], counts))
        marks = kernel.sample_mark(n_next, rng)
    points, generations = np.concatenate(pts), np.concatenate(gens)
    if not batch:
        owner, a = np.zeros(points.size, dtype=np.int64), float(ancestor)
        return GWCluster(points, generations, owner, a, float(anc_marks[0]), float(points.max() - a))
    owner = np.concatenate(owners)
    extinction = np.zeros(roots.size)
    np.maximum.at(extinction, owner, points - roots[owner])
    return GWCluster(points, generations, owner, roots, anc_marks, extinction)


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

    def __init__(self, kernel, step, n_nodes, eps=EPS_ROUND):
        if step <= 0 or n_nodes < 2:
            raise SamplerError("need a positive step and at least two grid nodes")
        self.kernel = kernel
        self.step = float(step)
        self.n_nodes = int(n_nodes)
        self.eps = float(eps)
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
            out += self.eps
        elif rounding == "down":
            out -= self.eps
        return np.clip(out, 0.0, 1.0)


# -- sandwich bounds ----------------------------------------------------------------


@dataclass(frozen=True)
class BoundPair:
    """Rigorous node bounds ell <= F <= upp on the survival tail F = 1 - E.

    A Sandwich builds one pair per iterate and hands the same pair to every
    caller, so ell and upp are read-only.  A deep copy (of a sandwich or a
    sampler) shares the pair instead of copying it into writable arrays.
    """

    taus: np.ndarray
    ell: np.ndarray
    upp: np.ndarray
    n: int

    def __post_init__(self):
        if np.any(self.ell > self.upp + 1e-15):
            raise SamplerError("lower bound exceeded upper bound: rigor leak")
        self.ell.flags.writeable = False
        self.upp.flags.writeable = False

    def __deepcopy__(self, memo):
        return self

    @property
    def step(self):
        return float(self.taus[1] - self.taus[0])

    @property
    def width(self):
        return float(np.max(self.upp - self.ell))

    def lower_at(self, ts):
        """Valid lower bound off-grid: F is nonincreasing, so use the right node
        (zero beyond the grid)."""
        ts = np.asarray(ts, dtype=float)
        idx = np.ceil(ts / self.step - 1e-12).astype(np.int64)
        out = np.zeros(ts.shape)
        inside = idx < self.taus.size
        out[inside] = self.ell[np.clip(idx[inside], 0, self.taus.size - 1)]
        return out

    def upper_at(self, ts):
        """Valid upper bound off-grid: left node; frozen at the last node beyond."""
        ts = np.asarray(ts, dtype=float)
        idx = np.clip(np.floor(ts / self.step + 1e-12).astype(np.int64), 0, self.taus.size - 1)
        return self.upp[idx]


@dataclass
class Sandwich:
    """Monotone sandwich state: CDF-side iterates e_lo <= E <= e_hi on the grid.

    e_hi starts at 1 and is iterated with up-rounded quadrature; e_lo starts
    at the zero-started certified iterate (everything below E stays below E
    under down-rounding).  Both paths are clamped monotone in n and tightened
    monotone in t, so every BoundPair invariant holds by construction.
    advance() is the only code that moves the iterates; the read-only
    BoundPair of the current iterate is built there and at construction, and
    bounds() returns it without copying.
    """

    kernel: object
    phi: PhiOperator
    e_lo: np.ndarray
    e_hi: np.ndarray
    n: int = 0
    gap0: float = 1.0
    gaps: list = field(default_factory=list)
    cert_ok: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    _bounds: BoundPair = field(init=False, repr=False)

    def __post_init__(self):
        self._set_bounds()

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
    sw.gap0 = sw.gap
    sw.drive(tol, n_max)
    sw.meta["n_at_tol"] = sw.n
    sw.meta["gap_at_tol"] = sw.gap
    return sw


# -- the perfect sampler ---------------------------------------------------------------


def _moment_tail_bound(kernel, t_max):
    """Assumption-free (Markov) bound on int_{t_max}^inf P(L > t) dt.

    L is at most the sum S of all displacements in the cluster tree, whose
    first two moments are closed-form Wald-type recursions; then
    E[(S - T)^+] <= E[S^2]/T.
    """
    base = kernel._nu0_inf()
    if base == 0:
        return 0.0
    m_d = kernel._t_moment() / base
    q_d = kernel._displacement_m2
    rho = kernel.rho
    w, z = np.array([m for m, _ in kernel.components()]), np.array(
        [z for _, z in kernel.components()]
    )
    rho2 = float(np.sum(w * (z * base) ** 2))
    s1 = rho * m_d / (1.0 - rho)
    s2 = (rho * (q_d + 2.0 * m_d * s1) + rho2 * (m_d + s1) ** 2) / (1.0 - rho)
    return s2 / t_max


class HawkesSampler:
    """Exact draws of a self-exciting process on [0, a] via sandwich thinning.

    Candidate pre-window ancestors are a Poisson process under a certified
    staircase envelope of the survival tail; uniform heights classify each
    candidate against the sandwich (retain strictly below the lower curve,
    discard strictly above the upper).  Unresolved candidates trigger more
    iterations (up to n_max), then grid refinements while the sampler's
    budget of refine_levels halvings lasts (a budget for the sampler's
    lifetime, not per draw), and finally the configured fallback:

    - "cluster-coin" (default): draw one cluster and keep the candidate iff
      it outlives the candidate's distance (the cluster is then its
      conditioned cluster).  Within t_max, only draws where a candidate
      reaches the coin can depart from the exact law; meta["unresolved_rate"]
      bounds the expected number of candidates per draw between the bounds
      of the sandwich as built, and stats["fallback_coins"] counts the coins.
    - "error": raise carrying the offending points.

    Retained ancestors get clusters conditioned to reach the window by
    rejection; immigrants inside the window carry unconditioned clusters.

    A draw's work scales with its candidates and clusters, not with the grid:
    the envelope's cell masses and the sandwich's bound pair are built ahead
    of the draws, and only Sandwich.advance and the capped refinement do work
    the size of the grid.
    """

    def __init__(
        self,
        kernel,
        mu,
        a,
        mu_bound=None,
        tol=1e-3,
        n_max=200,
        step=1e-4,
        t_max=None,
        refine_levels=1,
        classify_fallback="cluster-coin",
        point_cap=POINT_CAP,
    ):
        if a <= 0:
            raise SamplerError("window length must be positive")
        if classify_fallback not in ("cluster-coin", "error"):
            raise SamplerError("classify_fallback must be 'cluster-coin' or 'error'")
        self.kernel = kernel
        self.a = float(a)
        self._window = Window((0.0,), (self.a,))
        if callable(mu):
            if mu_bound is None:
                raise SamplerError("a callable immigrant intensity needs mu_bound")
            self.mu, self.mu_bound = mu, float(mu_bound)
        else:
            self.mu, self.mu_bound = None, float(mu)
            if self.mu_bound < 0:
                raise SamplerError("immigrant intensity must be nonnegative")
        self.tol = float(tol)
        self.n_max = int(n_max)
        self.refine_levels = int(refine_levels)
        self.classify_fallback = classify_fallback
        self.point_cap = int(point_cap)
        self._t_max = t_max
        self.stats = {
            "fallback_coins": 0,
            "condition_attempts": 0,
            "grid_levels_built": 0,
            "extra_iterations": 0,
        }
        self.sandwich = build_sandwich(
            kernel, n_max=n_max, tol=tol, t_max=t_max, step=step
        )
        self._install_envelope()

    # -- envelope over the survival tail ------------------------------------
    def _install_envelope(self):
        sw = self.sandwich
        upp = (1.0 - sw.e_lo)[:-1]  # left-node staircase dominates F on each cell
        self._env_vals = upp
        self._env_step = sw.phi.step  # frozen: refinement must not move the envelope
        cell = upp * self._env_step * self.mu_bound
        self._env_cum = np.concatenate([[0.0], np.cumsum(cell)])
        # per-cell divisor for the position inside a cell; it is the diff of
        # the cumulative masses, not `cell`, which differs in the low bits
        cum_step = np.diff(self._env_cum)
        self._env_div = np.where(cum_step > 0, cum_step, 1.0)
        self._env_mass = float(self._env_cum[-1])
        t_max = sw.meta["t_max"]
        delta = max(self.kernel.suggested_decay() / 2.0, 1e-6)
        assumed = self.mu_bound * math.exp(-delta * t_max) / delta
        b = sw.bounds()
        retained = float(np.sum(b.ell) * sw.phi.step * self.mu_bound)
        # a candidate in cell k is unresolved iff its score lies in [ell[k+1], upp[k]]
        unresolved = float(np.sum(b.upp[:-1] - b.ell[1:]) * sw.phi.step * self.mu_bound)
        self.meta = {
            **sw.meta,
            "candidate_mass": self._env_mass,
            "retained_mass_estimate": retained,
            "unresolved_rate": unresolved,
            "tail_bound_assumed_decay": assumed,
            "tail_bound_moment": self.mu_bound * _moment_tail_bound(self.kernel, t_max),
            "tail_audit_ok": bool(assumed <= 1e-12 * max(retained, 1e-300)),
        }

    def _sample_candidates(self, rng):
        k = rng.poisson(self._env_mass)
        if k == 0:
            return np.empty(0)
        r = np.sort(rng.random(k)) * self._env_mass
        idx = np.clip(np.searchsorted(self._env_cum, r, side="right") - 1, 0, self._env_vals.size - 1)
        frac = (r - self._env_cum[idx]) / self._env_div[idx]
        ts = (idx + frac) * self._env_step
        if self.mu is not None:  # thin a bounded variable immigrant intensity
            accept = rng.random(k) * self.mu_bound < np.asarray(self.mu(-ts), dtype=float)
            ts = ts[accept]
        return ts

    def _env_at(self, ts):
        idx = np.clip(np.floor(ts / self._env_step).astype(np.int64), 0, self._env_vals.size - 1)
        return self._env_vals[idx]

    def _refine_grid(self):
        self.stats["grid_levels_built"] += 1
        self.sandwich = build_sandwich(
            self.kernel,
            n_max=self.n_max,
            tol=self.tol,
            t_max=self._t_max,
            step=self.sandwich.phi.step / 2.0,
        )
        # the frozen envelope stays: it is valid for any certified sandwich

    def _classify(self, ts, scores):
        """(retained, unresolved) masks and the last lower bounds at ts; exact."""
        retain = np.zeros(ts.size, dtype=bool)
        pending = np.ones(ts.size, dtype=bool)
        while True:
            b = self.sandwich.bounds()
            lo, up = b.lower_at(ts), b.upper_at(ts)
            retain |= pending & (scores < lo)
            pending &= ~(scores < lo) & ~(scores > up)
            if not pending.any():
                return retain, pending, lo
            if self.sandwich.n < self.n_max:
                before = self.sandwich.gap
                self.sandwich.advance(3)
                self.stats["extra_iterations"] += 3
                if self.sandwich.gap < 0.98 * before:
                    continue
            if self.stats["grid_levels_built"] < self.refine_levels:  # a budget per sampler
                self._refine_grid()
                continue
            break
        if self.classify_fallback == "error":
            stuck = np.flatnonzero(pending)
            pts = ", ".join(f"(t={ts[i]:.6g}, height={scores[i]:.6g})" for i in stuck)
            raise SamplerError(
                f"{stuck.size} dominated points left unclassified between the bounds "
                f"after refinement: {pts}"
            )
        return retain, pending, lo

    def _conditioned_cluster(self, ts, lower, coin, rng):
        """Points of clusters rooted at -ts, each conditioned to outlive its t.

        Rejection in rounds: each unsatisfied candidate gets a block of iid
        clusters, sized from the lower bound on F(t), and keeps the first
        that outlives its t, which has the conditioned law.  A round draws
        about a tenth of point_cap points on average.  A `coin` candidate gets
        a single cluster and is dropped unless that cluster outlives its t.
        """
        floor = np.maximum(lower, 1e-6)
        cap = np.where(coin, 1, np.minimum(np.ceil(60.0 / floor), CONDITION_ATTEMPT_CAP))
        self.stats["fallback_coins"] += int(coin.sum())
        budget = max(int(0.1 * self.point_cap / self.kernel.mean_cluster_size()), 1)
        used = np.zeros(ts.size, dtype=np.int64)
        live = np.arange(ts.size)
        pieces = [np.empty(0)]
        while live.size:
            block = np.minimum(np.ceil(1.0 / floor[live]), cap[live] - used[live]).astype(np.int64)
            if block.sum() > budget:
                block = np.maximum(block * budget // block.sum(), 1)
            starts = np.cumsum(block) - block
            cand = np.repeat(live, block)
            cl = sample_gw_cluster(self.kernel, np.zeros(cand.size), rng, self.point_cap)
            hit = cl.extinction_time > ts[cand]
            # the first hit of each block, or past the block's end when there is none
            first = np.minimum.reduceat(np.where(hit, np.arange(cand.size), cand.size), starts)
            won = first < starts + block
            examined = np.minimum(first - starts + 1, block)
            used[live] += examined
            self.stats["condition_attempts"] += int(examined[~coin[live]].sum())
            kept = np.isin(cl.owner, first[won])
            pieces.append(-ts[cand[cl.owner[kept]]] + cl.points[kept])
            live = live[~won & ~coin[live]]
            exhausted = live[used[live] >= cap[live]]
            if exhausted.size:
                i = exhausted[0]
                raise SamplerError(
                    f"conditioned-cluster rejection exhausted {cap[i]:.0f} attempts at distance "
                    f"{ts[i]:.4g} (success probability is the survival tail there)"
                )
        return np.concatenate(pieces)

    def sample(self, rng):
        """One exact draw on [0, a] as a sorted 1-D pattern."""
        ts = self._sample_candidates(rng)
        heights = rng.random(ts.size)
        scores = heights * self._env_at(ts)
        retain, coin, lower = self._classify(ts, scores)
        take = retain | coin
        kept = self._conditioned_cluster(ts[take], lower[take], coin[take], rng)
        k = rng.poisson(self.mu_bound * self.a)
        imm = np.sort(rng.random(k)) * self.a
        if self.mu is not None:  # thin a bounded variable immigrant intensity
            imm = imm[rng.random(k) * self.mu_bound < np.asarray(self.mu(imm), dtype=float)]
        free = sample_gw_cluster(self.kernel, imm, rng, self.point_cap).points
        pts = np.concatenate([kept, free])
        return PointPattern(np.sort(pts).reshape(-1, 1), dim=1).restrict(self._window)
