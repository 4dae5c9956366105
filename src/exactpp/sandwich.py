"""The certified curve of a Hawkes cluster's extinction time, by fixed-point iteration.

A single-ancestor cluster rooted at 0 has extinction time L = last point -
ancestor, and F(t) = P(L > t) (see hawkes_mr).  The CDF E = 1 - F is the
unique fixed point of

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
uses it, so only its readers load this module: HawkesSampler.sandwich, the
sandwich-curves plot and the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .core import SamplerError, _Frozen

__all__ = ["EPS_ROUND", "PhiOperator", "BoundPair", "Sandwich", "build_sandwich"]

EPS_ROUND = 1e-10  # directed-rounding margin absorbing quadrature float error


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
