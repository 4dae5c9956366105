"""Thinning non-Poissonian germs without simulating infinite patterns.

Grid germs: the last retained site T has P(T = n) = p_n * prod_{k>n}(1-p_k),
and conditionally on T the earlier sites are retained independently, so a
draw needs only the tail products — computed in closed form per family, in
log space with compensated summation where truncation is involved.

Renewal germs: thin first, then build the renewal chain inside a dominating
rate-M strip so only finitely many interarrivals are ever drawn.

Matern hard cores and non-linear self-exciting germs follow the same
pattern: a dominating finite construction whose thinning reproduces the
restriction of the infinite process exactly. Every independent coin -- the
grid sites below T, the renewal complement and both
Matern stages -- is core.thin; only the sequential renewal and non-linear
chains, whose coins depend on earlier decisions, flip their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PointPattern, SamplerError, Window, sample_homogeneous, thin
from .poisson import FiniteDensitySampler

__all__ = [
    "TableGrid",
    "GeometricGrid",
    "InverseSquareGrid",
    "thin_grid",
    "renewal_candidates",
    "renewal_thin_first",
    "matern_thin_first",
    "nonlinear_hawkes_germ",
]

NEGLECTED_TAIL = 1e-14  # allowed truncation residue in sums of p_k


class _GridBase:
    """Shared sampling logic over S(n) = P(no retained site beyond n)."""

    def survival(self, n):
        """S(n) = prod_{k >= n+1} (1 - p_k); S(-1) is the void probability."""
        raise NotImplementedError

    def p(self, ks):
        raise NotImplementedError

    def pmf_last(self, n):
        """P(T = n) = p_n * S(n)."""
        return float(self.p(np.array([n]))[0] * self.survival(n))

    def prob_empty(self):
        return self.survival(-1)

    def sample_last(self, rng):
        """Index of the last retained site, or None when no site survives."""
        u = rng.random()
        if u <= self.survival(-1):
            return None
        n = 0
        while self.survival(n) < u:
            n += 1
            if n > 10_000_000:
                raise SamplerError("last-site search runaway; check the retention family")
        return n

    def thin(self, rng):
        """Sorted retained indices: draw T, then independent coins below it."""
        t = self.sample_last(rng)
        if t is None:
            return np.empty(0, dtype=np.int64)
        ks = np.arange(t)
        return np.append(thin(ks, self.p(ks), rng), t)


@dataclass(frozen=True)
class TableGrid(_GridBase):
    """Finite explicit retention table; p_k = 0 beyond the table."""

    probs: tuple

    def __post_init__(self):
        probs = tuple(float(v) for v in self.probs)
        object.__setattr__(self, "probs", probs)
        if any(not 0 <= v <= 1 for v in probs):
            raise SamplerError("retention probabilities must lie in [0,1]")
        logs = [math.log1p(-v) if v < 1 else -math.inf for v in probs]
        tail = [0.0] * (len(probs) + 1)
        for i in range(len(probs) - 1, -1, -1):
            tail[i] = tail[i + 1] + logs[i]
        object.__setattr__(self, "_tail_logs", tuple(tail))

    def p(self, ks):
        ks = np.asarray(ks, dtype=np.int64)
        table = np.asarray(self.probs)
        out = np.zeros(ks.shape[0])
        inside = ks < table.size
        out[inside] = table[ks[inside]]
        return out

    def survival(self, n):
        idx = min(max(n + 1, 0), len(self.probs))
        return math.exp(self._tail_logs[idx])


@dataclass(frozen=True)
class GeometricGrid(_GridBase):
    """p_n = c * ratio^n; tail products truncated with a certified residue."""

    c: float
    ratio: float

    def __post_init__(self):
        if not (0 <= self.c <= 1 and 0 < self.ratio < 1):
            raise SamplerError("need c in [0,1] and ratio in (0,1)")
        # truncate where the neglected sum of p_k is provably < NEGLECTED_TAIL
        k_max = 1
        while self.c * self.ratio**k_max / (1 - self.ratio) >= NEGLECTED_TAIL:
            k_max += 1
        ks = np.arange(k_max + 1)
        logs = np.log1p(-np.minimum(self.c * self.ratio**ks, 1 - 1e-300))
        tail = np.zeros(k_max + 2)
        # compensated reverse accumulation
        for i in range(k_max, -1, -1):
            tail[i] = math.fsum([tail[i + 1], logs[i]])
        object.__setattr__(self, "_tail_logs", tail)
        object.__setattr__(self, "_k_max", k_max)

    def p(self, ks):
        ks = np.asarray(ks, dtype=np.int64)
        return self.c * self.ratio ** ks.astype(float)

    def survival(self, n):
        idx = min(max(n + 1, 0), self._k_max + 1)
        return math.exp(self._tail_logs[idx])


@dataclass(frozen=True)
class InverseSquareGrid(_GridBase):
    """p_n = 1 - exp(-C/(n+1)^2); tail products are exact via the trigamma:
    prod_{k>n}(1-p_k) = exp(-C * psi_1(n+2))."""

    C: float

    def __post_init__(self):
        if not self.C > 0:
            raise SamplerError("C must be positive")

    def p(self, ks):
        ks = np.asarray(ks, dtype=np.int64).astype(float)
        return -np.expm1(-self.C / (ks + 1.0) ** 2)

    def survival(self, n):
        from scipy import special

        return float(np.exp(-self.C * special.polygamma(1, n + 2)))


def thin_grid(spec, rng):
    """Exact draw of the retained sites of a thinned grid on N."""
    return spec.thin(rng)


# -- renewal germs ---------------------------------------------------------------


def renewal_candidates(bound, thin_p, p_upper=None, p_tail=None, p_mass=None):
    """Sampler of the candidates of renewal_thin_first: Poisson, density bound*p(t).

    p vanishes beyond its support endpoint p_upper, or has the tail
    p_tail(t) = int_t^inf p and the total mass p_mass. The sampler draws no
    random numbers when it is built, so it can be built once and reused.
    """
    return FiniteDensitySampler(
        lambda t: bound * np.asarray(thin_p(t), dtype=float),
        bound,
        upper=p_upper,
        tail_mass=(lambda t: bound * p_tail(t)) if p_tail is not None else None,
        total_mass=bound * p_mass if p_mass is not None else None,
    )


def renewal_thin_first(
    hazard, bound, thin_p, rng, p_upper=None, p_tail=None, p_mass=None, candidates=None
):
    """Thin a stationary-start renewal stream by p without a horizon.

    The retained candidates form a Poisson process with density bound*p(t)
    (finite mass); the dominating rate-`bound` stream is completed below the
    last candidate, heights build the renewal chain N0 inside the strip
    (hazard(t - last renewal) against height*bound), and renewal points
    flagged as candidates are the output. hazard must be bounded by `bound`.

    `candidates` is renewal_candidates(bound, thin_p, ...) built once by a
    caller that draws many times; without it, each call builds its own from
    p_upper, p_tail and p_mass.
    """
    if candidates is None:
        candidates = renewal_candidates(bound, thin_p, p_upper, p_tail, p_mass)
    cand = np.sort(candidates.sample(rng).points[:, 0])
    if cand.size == 0:
        return PointPattern.empty(1)
    t_last = cand[-1]

    # complement stream has density bound*(1-p): thin a homogeneous stream by 1-p
    extra = np.sort(sample_homogeneous(Window((0.0,), (t_last,)), bound, rng).points[:, 0])
    extra = thin(extra, 1.0 - np.asarray(thin_p(extra), dtype=float), rng)

    times = np.concatenate([cand, extra])
    flags = np.concatenate([np.ones(cand.size, bool), np.zeros(extra.size, bool)])
    order = np.argsort(times)
    times, flags = times[order], flags[order]
    heights = rng.random(times.size)

    retained = []
    last_renewal = 0.0
    for t, flag, u in zip(times, flags, heights):
        haz = float(hazard(t - last_renewal))
        if haz < 0 or haz > bound * (1 + 1e-12):
            raise SamplerError("hazard left its declared bound")
        if u * bound < haz:
            last_renewal = t
            if flag:
                retained.append(t)
    return PointPattern(np.asarray(retained, dtype=float).reshape(-1, 1), dim=1)


# -- Matern hard core -------------------------------------------------------------


def matern_thin_first(rate, radius, thin_p, window, rng):
    """Mark-minimal hard core further thinned by p, restricted to window.

    Thin first: N1 ~ Poisson(rate * p) on the radius-buffered window, then the
    complement N2 ~ Poisson(rate * (1-p)) only within `radius` of N1 (farther
    complement points can never compete), uniform marks on N1+N2, and an N1
    point survives iff its mark beats every neighbor within `radius`.
    """
    cand = sample_homogeneous(window.buffered(radius), rate, rng).points
    first = thin(cand, thin_p(cand), rng) if len(cand) else cand
    if first.shape[0] == 0:
        return PointPattern.empty(window.dim)

    lo = first.min(axis=0) - radius
    hi = first.max(axis=0) + radius
    comp = sample_homogeneous(Window(tuple(lo), tuple(hi)), rate, rng).points
    if len(comp):
        d2 = np.min(
            np.sum((comp[:, None, :] - first[None, :, :]) ** 2, axis=2), axis=1
        )
        comp = comp[d2 <= radius**2]
        comp = thin(comp, 1.0 - np.asarray(thin_p(comp), dtype=float), rng)

    full = np.vstack([first, comp])
    marks = rng.random(full.shape[0])
    out = first[_mark_minimal(full, marks, first.shape[0], radius)]
    return PointPattern(out, dim=window.dim).restrict(window)


def _mark_minimal(points, marks, k, radius):
    """Mask of the first k points whose mark beats every other point within radius.

    One (k x n) distance and mark comparison; a point's own mark is never
    smaller than itself, so it needs no exclusion.
    """
    d2 = np.sum((points[None, :, :] - points[:k, None, :]) ** 2, axis=2)
    beaten = (d2 <= radius**2) & (marks[None, :] < marks[:k, None])
    return ~np.any(beaten, axis=1)


# -- non-linear self-exciting germ -------------------------------------------------


def nonlinear_hawkes_germ(
    phi, phi_bound, h, h_support, window, rng, search_horizon=None
):
    """Stationary non-linear self-exciting process on a bounded interval.

    Intensity phi(sum h(t - s) over past points), phi <= phi_bound, h
    supported on [0, h_support]. Any dominating-stream gap longer than
    h_support is a regeneration: the intensity after it never sees older
    points. Scan backward from the window for the first such gap, then thin
    the same dominating stream forward (the point opening the gap included,
    with phi(0) intensity).
    """
    b0, b1 = float(window.lower[0]), float(window.upper[0])
    lam = float(phi_bound)
    a = float(h_support)
    expected_reach = float(np.exp(min(lam * a, 700.0)) / lam)
    if search_horizon is None:
        search_horizon = 60.0 * expected_reach + 10.0 * a

    # backward scan: dominating points below b0 until a gap > a opens before one
    back = []
    pos = b0
    while True:
        nxt = pos - rng.exponential(1.0 / lam)
        if back and (pos - nxt) > a:
            break  # pos is a dominating point whose predecessor gap exceeds a
        if (b0 - nxt) > search_horizon:
            raise SamplerError(
                f"no regeneration gap within {search_horizon:.3g} "
                f"(expected distance about {expected_reach:.3g})"
            )
        back.append(nxt)
        pos = nxt

    dominating = np.sort(np.asarray(back))
    forward = np.sort(sample_homogeneous(window, lam, rng).points[:, 0])
    stream = np.concatenate([dominating, forward])

    retained = []
    for t in stream:
        drive = 0.0
        for s in reversed(retained):
            if t - s > a:
                break
            if t > s:
                drive += float(h(t - s))
        lam_t = float(phi(drive))
        if lam_t < 0 or lam_t > lam * (1 + 1e-12):
            raise SamplerError("phi left its declared bound")
        if rng.random() * lam < lam_t:
            retained.append(t)
    retained = np.asarray(retained)
    inside = retained[(retained >= b0) & (retained <= b1)]
    return PointPattern(inside.reshape(-1, 1), dim=1)
