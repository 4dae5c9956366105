"""Thinning non-Poissonian germs without simulating infinite patterns.

Grid germs: the last retained site T has P(T = n) = p_n * prod_{k>n}(1-p_k),
and conditionally on T the earlier sites are retained independently, so a
draw needs only the tail products — computed in closed form per family, in
log space with compensated summation where truncation is involved.

Renewal germs and Matern hard cores: one dominating homogeneous stream split
by one independent coin per point into candidates and the rest (colouring
theorem, Kingman 1993, 5.1). Renewal draws its last candidate first, from a
closed form, and builds the renewal chain inside the rate-M strip only below
it; a Matern candidate competes only with stream points within the radius.

Every independent coin -- the grid sites below T and the renewal and Matern
candidates -- is core.thin; only the sequential renewal chain and the
non-linear self-exciting germ (regeneration gaps), whose coins depend on
earlier decisions, flip their own.

The grid, renewal, Matern and non-linear draws each have a lockstep form
(*_chains) that draws n independent replicates from one generator, each step
one call for every replicate, and returns (points, offsets): replicate i's
points are points[offsets[i]:offsets[i + 1]]. The single draws are these
forms at n = 1.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import core
from .core import (_AT_LEAST_1, _NONNEG, _OPEN_UNIT, _POS, _UNIT, PointPattern, SamplerError,
                   _built, _count_checks, _Frozen, _mean_count, chain_offsets, homogeneous_chains,
                   kept_rows, order_by_label, pair_blocks, poisson_counts, thin, thin_chains)

__all__ = [
    "TableGrid",
    "GeometricGrid",
    "InverseSquareGrid",
    "thin_grid",
    "renewal_thin_first",
    "renewal_thin_first_chains",
    "matern_thin_first",
    "matern_thin_first_chains",
    "nonlinear_hawkes_germ",
    "nonlinear_hawkes_germ_chains",
]


_LAST_SITES = 10_000_000  # a last-site search past this many sites is a runaway


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
        return self._last_site(rng.random())

    def _last_site(self, u):
        """The last retained site for the uniform u: None when u <= S(-1), else
        the first n with S(n) >= u."""
        if u <= self.survival(-1):
            return None
        n = 0
        while self.survival(n) < u:
            n += 1
            if n > _LAST_SITES:
                raise SamplerError("last-site search runaway; check the retention family")
        return n

    def sample_chains(self, n_chains, rng):
        """(sites, offsets) of n_chains independent draws of the retained sites,
        each sorted: every replicate's last site T from one call of n_chains
        uniforms, then the independent coins below every T from one call."""
        n_chains = int(n_chains)
        lasts = [self._last_site(u) for u in rng.random(n_chains).tolist()]
        last = [t for t in lasts if t is not None]
        if not last:  # every replicate is empty
            return np.empty(0, dtype=np.int64), np.zeros(n_chains + 1, dtype=np.int64)
        # the coin sites 0..T-1 of every replicate with a last site, in turn
        ks = np.arange(sum(last))
        last = np.array(last, dtype=np.int64)
        if n_chains == 1:  # its kept coin sites, then its last site
            sites = np.append(thin(ks, self.p(ks), rng), last)
            return sites, chain_offsets([sites.size])
        starts = chain_offsets(last)
        ks -= np.repeat(starts[:-1], last)
        rows = thin(np.arange(ks.size), self.p(ks), rng)
        ends = np.searchsorted(rows, starts[1:])  # where each replicate's kept coin sites end
        counts = np.zeros(n_chains, dtype=np.int64)
        counts[[t is not None for t in lasts]] = np.diff(ends, prepend=0) + 1
        return np.insert(ks[rows], ends, last), chain_offsets(counts)


class TableGrid(_GridBase, _Frozen):
    """Finite explicit retention table; p_k = 0 beyond the table."""

    _fields = ("probs",)

    def __init__(self, probs):
        probs = tuple(float(v) for v in probs)
        if any(not 0 <= v <= 1 for v in probs):
            raise SamplerError("retention probabilities must lie in [0,1]")
        logs = [math.log1p(-v) if v < 1 else -math.inf for v in probs]
        tail = [0.0] * (len(probs) + 1)
        for i in range(len(probs) - 1, -1, -1):
            tail[i] = tail[i + 1] + logs[i]
        self.__dict__.update(probs=probs, _tail_logs=tuple(tail))

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


class GeometricGrid(_GridBase, _Frozen):
    """p_n = c * ratio^n. The tail products stop at k_max, the first index
    from 1 at which the neglected sum c * ratio^(k_max + 1) / (1 - ratio) of
    the p_k beyond it falls below sys.float_info.epsilon / 4 = 2^-54. The
    neglected product of the (1 - p_k) beyond k_max then lies in
    (1 - 2^-54, 1], which rounds to 1.0: the truncation is below float
    resolution, and S(n) is 1.0 from n = k_max on."""

    _fields = ("c", "ratio")

    def __init__(self, c, ratio):
        if not (0 <= c <= 1 and 0 < ratio < 1):
            raise SamplerError("need c in [0,1] and ratio in (0,1)")
        k_max = 1  # the neglected sum of the p_k beyond k_max falls below 2^-54
        while c * ratio ** (k_max + 1) / (1 - ratio) >= sys.float_info.epsilon / 4:
            k_max += 1
        ps = c * ratio ** np.arange(k_max + 1)
        logs = np.full(ps.size, -np.inf)  # log(1 - p) is -inf where p = 1 (c = 1 at k = 0)
        below = ps < 1.0
        logs[below] = np.log1p(-ps[below])
        tail = np.zeros(k_max + 2)
        # compensated reverse accumulation
        for i in range(k_max, -1, -1):
            tail[i] = math.fsum([tail[i + 1], logs[i]])
        self.__dict__.update(c=c, ratio=ratio, _tail_logs=tail, _k_max=k_max)

    def p(self, ks):
        ks = np.asarray(ks, dtype=np.int64)
        return self.c * self.ratio ** ks.astype(float)

    def survival(self, n):
        idx = min(max(n + 1, 0), self._k_max + 1)
        return math.exp(self._tail_logs[idx])


class InverseSquareGrid(_GridBase, _Frozen):
    """p_n = 1 - exp(-C/(n+1)^2); tail products are exact via the trigamma:
    prod_{k>n}(1-p_k) = exp(-C * psi_1(n+2))."""

    _fields = ("C",)

    def __init__(self, C):
        if not C > 0:
            raise SamplerError("C must be positive")
        self.__dict__["C"] = C

    def p(self, ks):
        ks = np.asarray(ks, dtype=np.int64).astype(float)
        return -np.expm1(-self.C / (ks + 1.0) ** 2)

    def survival(self, n):
        return math.exp(-self.C * _trigamma(n + 2))


# Bernoulli numbers B_2, B_4, ..., B_18: the trigamma series' coefficients
_TRIGAMMA_SERIES = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                    -3617 / 510, 43867 / 798)


def _trigamma(x):
    """psi_1(x) = sum_{k>=0} 1/(x+k)^2 for x > 0: the recurrence
    psi_1(x) = 1/x^2 + psi_1(x+1) up to x >= 6, then the asymptotic series
    1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1), whose first omitted term is about
    1e-13 relative there."""
    head = 0.0
    while x < 6:
        head += 1.0 / (x * x)
        x += 1
    t = 1.0 / x
    t2 = t * t
    tail = 0.0
    for b in reversed(_TRIGAMMA_SERIES):
        tail = (tail + b) * t2
    return head + t + 0.5 * t2 + t * tail


def thin_grid(spec, rng):
    """Exact draw of the retained sites of a thinned grid on N, sorted: the last
    site T, then independent coins below it; one replicate of spec.sample_chains.
    A GeometricGrid's tail products drop only a factor that rounds to 1.0 (its
    neglected sum of p_k is below 2^-54), so no constant sets a residue."""
    return spec.sample_chains(1, rng)[0]


# -- renewal germs ---------------------------------------------------------------


def renewal_thin_first(hazard, bound, thin_p, rng, *, p_tail, p_mass=None):
    """Thin a stationary-start renewal stream by p without a horizon.

    One rate-`bound` stream dominates the renewal chain N0, and one coin per
    stream point, p(t), marks the candidates; the candidates are Poisson with
    density bound*p(t) and only the stream up to the last one matters. p is
    described by its decreasing tail p_tail(t) = int_t^inf p (a p that
    vanishes beyond T has the tail of p times the indicator of [0, T], such
    as max(T - t, 0) for the indicator itself). The last candidate T is drawn
    first, P(T <= t) = exp(-bound * p_tail(t)), with no candidate at all when
    the exponential E = bound * p_tail(T) is at least bound * p_tail(0);
    below T the stream and its coins are unconditioned. p_mass, if given,
    must equal p_tail(0). Heights build N0 inside the strip (hazard(t - last
    renewal) against height*bound), and renewal points that are candidates
    are the output. hazard must be bounded by `bound`. One replicate of
    renewal_thin_first_chains.
    """
    points, _ = renewal_thin_first_chains(hazard, bound, thin_p, 1, rng, p_tail=p_tail,
                                          p_mass=p_mass)
    return PointPattern(points, dim=1)


def renewal_thin_first_chains(hazard, bound, thin_p, n_chains, rng, *, p_tail, p_mass=None):
    """(points, offsets) of n_chains independent renewal_thin_first draws, in
    lockstep: every replicate's exponential E, then every stream's count, all
    stream points, all coins and all heights, each one generator call; the
    last candidates and the renewal chains are Python loops over the
    replicates."""
    n_chains = int(n_chains)
    mass = float(p_tail(0.0))
    if p_mass is not None and not math.isclose(p_mass, mass, rel_tol=1e-9):
        raise SamplerError(f"p_mass {p_mass!r} differs from p_tail(0) = {mass!r}")
    e = rng.standard_exponential(n_chains).tolist()
    live = [c for c, x in enumerate(e) if x < bound * mass]  # the others have no candidate
    if not live:
        return np.empty((0, 1)), np.zeros(n_chains + 1, dtype=np.int64)
    uppers = [_last_candidate(p_tail, e[c] / bound, bound) for c in live]

    # the dominating streams on [0, upper], each drawn as sample_homogeneous draws it
    counts = poisson_counts([_mean_count(bound, u) for u in uppers], len(uppers), rng)
    if len(uppers) == 1:
        times = rng.random(counts[0]) * uppers[0]
        times.sort()
    else:
        times = rng.random(sum(counts)) * np.repeat(uppers, counts)
        times = times[order_by_label(times, np.repeat(np.arange(len(counts)), counts))]
    flags = np.zeros(times.size, bool)
    flags[thin(np.arange(times.size), thin_p(times), rng)] = True
    times, flags = times.tolist(), flags.tolist()  # for the loops
    # each stream ends at its last candidate: its points and that end each take a height
    heights = rng.random(sum(counts) + len(uppers)).tolist()

    kept = [0] * n_chains
    retained = []
    b = 0
    for j, (c, k, up) in enumerate(zip(live, counts, uppers)):
        a, b = b, b + k  # stream j's points; its heights follow those of j earlier ends
        last_renewal = 0.0
        for t, flag, u in zip(times[a:b] + [up], flags[a:b] + [True], heights[a + j:b + j + 1]):
            haz = float(hazard(t - last_renewal))
            if haz < 0 or haz > bound * (1 + 1e-12):
                raise SamplerError("hazard left its declared bound")
            if u * bound < haz:
                last_renewal = t
                if flag:
                    retained.append(t)
                    kept[c] += 1
    return np.asarray(retained, dtype=float).reshape(-1, 1), chain_offsets(kept)


def _last_candidate(p_tail, y, bound):
    """The t with p_tail(t) = y, for 0 < y < p_tail(0) and p_tail decreasing.

    Doubles a bracket from [0, 1], then narrows it to adjacent floats with
    p_tail(lo) > y >= p_tail(hi) and returns hi, the first float with
    p_tail(t) <= y for a tail that does not increase in floats. The steps are
    secant steps on log p_tail through the last two evaluations, moved toward
    the midpoint by 2^k ulps after k moves of one end so that they cross the
    root, and a bisection whenever two steps leave more than half the bracket:
    a handful of tail evaluations where bisection takes about 55. A bracket
    whose rate-`bound` stream would pass core.MAX_MEAN_POINTS raises
    SamplerError, so a tail that never falls to y stops.
    """
    def g(p):  # log(p / y), the secant's value; only p > y decides a side
        return math.log(p / y) if p / y > 0 else -math.inf

    lo, hi, g_lo = 0.0, 1.0, math.inf  # p_tail(0) is not evaluated
    while (p := p_tail(hi)) > y:
        lo, hi, g_lo = hi, 2.0 * hi, g(p)
        if bound * hi > core.MAX_MEAN_POINTS:
            raise SamplerError(f"p_tail stays above {y:.3g} past t = {lo:.3g}: the stream "
                               f"would exceed {core.MAX_MEAN_POINTS:.0e} points")
    a, g_a, b, g_b = lo, g_lo, hi, g(p)  # the last two evaluations, b the latest
    streak, limit, last = 0, math.inf, math.inf
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        t = b - g_b * (b - a) / (g_b - g_a) if hi - lo <= limit and g_a != g_b else mid
        nudge = math.ulp(hi) * 2.0 ** min(abs(streak), 60)
        t = t + math.copysign(nudge, mid - t) if lo < t < hi and abs(mid - t) > nudge else mid
        limit, last = 0.5 * last, hi - lo
        if (p := p_tail(t)) > y:
            lo, streak = t, max(streak, 0) + 1
        else:
            hi, streak = t, min(streak, 0) - 1
        a, g_a, b, g_b = b, g_b, t, g(p)
    return hi


_GAMMA_ITERATIONS = 100_000  # far more than either expansion needs below a = 10^6
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min / _EPS  # Lentz's floor for a vanishing denominator


def _gamma_q(a, x):
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a), a > 0, x > 0.

    Below x = a + 1 it sums the series of P = 1 - Q, beyond it evaluates the
    continued fraction of Q by Lentz's method (Numerical Recipes, 3rd ed.,
    6.2), both to double precision. The prefactor x^a e^-x / Gamma(a) loses
    about a * log(x) ulps, so the relative error grows with a.
    """
    log_front = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, _GAMMA_ITERATIONS):
            term *= x / (a + n)
            total += term
            if abs(term) < abs(total) * _EPS:
                return 1.0 - total * math.exp(log_front)
    else:
        b = x + 1.0 - a
        c, d = 1.0 / _TINY, 1.0 / b
        frac = d
        for i in range(1, _GAMMA_ITERATIONS):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = b + an / c
            c = c if abs(c) >= _TINY else _TINY
            delta = d * c
            frac *= delta
            if abs(delta - 1.0) <= _EPS:
                return frac * math.exp(log_front)
    raise SamplerError(f"incomplete gamma Q({a:.6g}, {x:.6g}) did not converge")


def _gamma_hazard(shape, scale):
    """Hazard pdf / survival of the gamma(shape >= 1, scale) law, capped at its limit 1 / scale."""
    bound = 1.0 / scale
    log_norm = math.lgamma(shape)

    def hazard(t):
        x = t / scale
        if x <= 0.0:
            return bound if shape == 1.0 else 0.0  # the pdf at 0 over a survival of 1
        sf = _gamma_q(shape, x)
        if sf <= 0:
            return bound
        return min(math.exp((shape - 1.0) * math.log(x) - x - log_norm) / scale / sf, bound)

    return hazard


# -- Matern hard core -------------------------------------------------------------


def matern_thin_first(rate, radius, thin_p, window, rng):
    """Mark-minimal hard core further thinned by p, restricted to window.

    Thin first: one rate-`rate` stream on the radius-buffered window, one
    coin p per point, then uniform marks on the whole stream. A candidate
    inside the window survives iff its mark beats every stream point within
    `radius`; all of those lie in the buffered window. One replicate of
    matern_thin_first_chains.
    """
    points, _ = matern_thin_first_chains(rate, radius, thin_p, window, 1, rng)
    return PointPattern(points, dim=window.dim)


def matern_thin_first_chains(rate, radius, thin_p, window, n_chains, rng):
    """(points, offsets) of n_chains independent matern_thin_first draws, in
    lockstep: every replicate's stream count, then all stream points, all
    coins and all marks, each one generator call; thin_p is called once, on
    every stream. A candidate competes only with its own replicate's stream.
    """
    pts, offsets = homogeneous_chains(window.buffered(radius), rate, n_chains, rng)
    cand, cand_off = thin_chains(offsets, thin_p(pts), rng)
    inside, cand_off = kept_rows(window.contains(pts[cand]), cand_off)
    cand = cand[inside]
    marks = rng.random(len(pts))  # also drawn when no candidate reads them: a draw's last numbers
    rows, offsets = kept_rows(_mark_minimal(pts, marks, cand, radius, offsets), cand_off)
    return pts[cand[rows]], offsets


def _mark_minimal(points, marks, idx, radius, offsets=None):
    """Mask of the rows idx whose mark beats every other point of their
    replicate (rows listed by offsets; one replicate by default) within radius.

    One replicate whose (len(idx) x n) block holds at most core.BLOCK
    pairs compares every row of idx with every point in that block. Larger
    replicates, and many replicates, are swept instead, so memory stays
    bounded: the points are sorted by replicate, then by first coordinate,
    through one key that keeps replicates apart, and each row of idx is
    compared with the points whose key lies within radius of its own, with a
    relative slack of 1e-9 for the key's rounding, at most core.BLOCK
    pairs at once. Either way the distances decide, with the same arithmetic.
    A point's own mark is never smaller than itself, so it needs no exclusion.
    """
    if offsets is None or len(offsets) <= 2:
        if idx.size * len(points) <= core.BLOCK:
            d2 = np.add.reduce((points[None, :, :] - points[idx, None, :]) ** 2, axis=2)  # np.sum's
            beaten = (d2 <= radius**2) & (marks[None, :] < marks[idx, None])
            return ~beaten.any(axis=1)
        offsets = (0, len(points))
    if idx.size == 0:
        return np.ones(0, dtype=bool)
    key = points[:, 0]
    chain = np.arange(len(offsets) - 1).repeat(np.diff(offsets))
    low = key.min()
    key = key - low + chain * (2.0 * (key.max() - low + radius) + 1.0)
    order = key.argsort(kind="stable")
    sorted_key = key[order]
    reach = radius + 1e-9 * (radius + max(-sorted_key[0], sorted_key[-1]))
    at = key[idx]
    first = sorted_key.searchsorted(at - reach)
    width = sorted_key.searchsorted(at + reach, side="right") - first  # each is >= 1
    survive = np.empty(idx.size, dtype=bool)
    for rows in pair_blocks(width):
        w = width[rows]
        ends = w.cumsum()
        starts = ends - w  # each candidate's first pair
        a = idx[rows].repeat(w)
        b = order[np.arange(ends[-1]) + (first[rows] - starts).repeat(w)]
        d = points[b] - points[a]
        d *= d
        d2 = d[:, 0]
        for k in range(1, d.shape[1]):  # summed in coordinate order, as np.sum sums a row
            d2 = d2 + d[:, k]
        survive[rows] = ~np.logical_or.reduceat((d2 <= radius**2) & (marks[b] < marks[a]), starts)
    return survive


# -- non-linear self-exciting germ -------------------------------------------------


SEARCH_REACHES = 60.0  # the backward scan gives up this many expected reaches past the window


def nonlinear_hawkes_germ(phi, phi_bound, h, h_support, window, rng):
    """Stationary non-linear self-exciting process on a bounded interval.

    Intensity phi(sum h(t - s) over past points), phi <= phi_bound, h
    supported on [0, h_support]. Any dominating-stream gap longer than
    h_support is a regeneration: the intensity after it never sees older
    points. Scan backward from the window for the first such gap, then thin
    the same dominating stream forward (the point opening the gap included,
    with phi(0) intensity).

    The scan draws about e^(phi_bound * h_support) points, so a pair whose
    e^(phi_bound * h_support) exceeds core.MAX_MEAN_POINTS raises
    SamplerError before any random number is drawn. A scan that passes
    SEARCH_REACHES expected reaches (e^(phi_bound * h_support) / phi_bound)
    plus 10 supports before the window without finding a gap raises
    SamplerError too. One replicate of nonlinear_hawkes_germ_chains.
    """
    points, _ = nonlinear_hawkes_germ_chains(phi, phi_bound, h, h_support, window, 1, rng)
    return PointPattern(points, dim=1)


def nonlinear_hawkes_germ_chains(phi, phi_bound, h, h_support, window, n_chains, rng):
    """(points, offsets) of n_chains independent nonlinear_hawkes_germ draws, in
    lockstep: every replicate's backward scan in turn, one scalar exponential
    per step, then all forward streams in one homogeneous_chains call and all
    coins in one call; the thinning is a Python loop over the replicates."""
    n_chains = int(n_chains)
    b0, b1 = float(window.lower[0]), float(window.upper[0])
    lam = float(phi_bound)
    a = float(h_support)
    scan = math.exp(min(lam * a, 700.0))  # about the points the backward scan draws
    if not scan <= core.MAX_MEAN_POINTS:
        raise SamplerError(
            f"regeneration-gap scan of about e^(bound * support) = {scan:.3g} points "
            f"exceeds the limit {core.MAX_MEAN_POINTS:.0e}"
        )
    expected_reach = scan / lam
    search_horizon = SEARCH_REACHES * expected_reach + 10.0 * a

    # backward scans: dominating points below b0 until a gap > a opens before one
    scans = []
    for _ in range(n_chains):
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
        scans.append(back)

    forward, offsets = homogeneous_chains(window, lam, n_chains, rng)
    forward = forward[:, 0]
    # nothing else draws in the loops, so one call gives every stream's coins in stream order
    coins = rng.random(sum(map(len, scans)) + int(offsets[-1])).tolist()
    inside, kept = [], [0] * n_chains
    at = 0
    for c, back in enumerate(scans):
        # each scan falls, so reversed it is sorted
        stream = back[::-1] + np.sort(forward[offsets[c]:offsets[c + 1]]).tolist()
        retained = []
        for t, u in zip(stream, coins[at:at + len(stream)]):
            drive = 0.0
            for s in reversed(retained):
                if t - s > a:
                    break
                if t > s:
                    drive += float(h(t - s))
            lam_t = float(phi(drive))
            if lam_t < 0 or lam_t > lam * (1 + 1e-12):
                raise SamplerError("phi left its declared bound")
            if u * lam < lam_t:
                retained.append(t)
        at += len(stream)
        mine = [t for t in retained if b0 <= t <= b1]
        inside += mine
        kept[c] = len(mine)
    return np.asarray(inside, dtype=float).reshape(-1, 1), chain_offsets(kept)


# -- config builders, which cli.build calls --------------------------------------


_HORIZON_SITES = 50_000_000  # an oracle horizon past this many sites is refused


def _grid_horizon(spec, tail=1e-5):
    """A site index beyond which any retained site has probability <= tail."""
    n = 4
    while 1.0 - spec.survival(n) > tail:
        n *= 2
        if n > _HORIZON_SITES:
            raise SamplerError("retention tail too heavy for a finite-horizon oracle")
    return n + 1


def _build_grid_thinning(p, window):
    family, p = p.variant("family", {"table": ("probs",), "geometric": ("c", "ratio"),
                                     "inverse_square": ("C",)})
    if family == "table":
        spec = TableGrid(p.floats("probs", check=_UNIT))
    elif family == "geometric":
        spec = GeometricGrid(p.get("c", float, check=_UNIT),
                             p.get("ratio", float, check=_OPEN_UNIT))
    else:
        spec = InverseSquareGrid(p.get("C", float, check=_POS))

    def sample(rng):
        sites = thin_grid(spec, rng)
        return PointPattern(np.asarray(sites, dtype=float).reshape(-1, 1), dim=1)

    def chains(n_reps, rng):
        sites, offsets = spec.sample_chains(n_reps, rng)
        return sites.astype(float).reshape(-1, 1), offsets

    def oracle(n_reps, rng):
        from .oracles import grid_thin_after_chains

        return grid_thin_after_chains(spec.p, _grid_horizon(spec), n_reps, rng)

    # a replicate draws a coin per site below its last one, few in any grid
    # whose tail the oracle's horizon covers: the battery is one block
    validate = _count_checks(chains, oracle=("grid-counts-vs-thin-after", oracle))
    return _built(sample, window, validate, ())


def _build_renewal(p, window):
    _, inter = p.tagged("interarrival", "kind", {"gamma": ("shape", "scale")})
    shape = inter.get("shape", float, check=_AT_LEAST_1)  # a bounded hazard
    scale = inter.get("scale", float, 1.0, _POS)
    _, retention = p.tagged("thin", "kind", {"exp": ("rate",)})  # a finite retained mass
    thin_rate = retention.get("rate", float, check=_POS)

    bound = 1.0 / scale  # gamma hazard with shape >= 1 increases toward 1/scale
    hazard = _gamma_hazard(shape, scale)

    def thin_p(ts):
        return np.exp(-thin_rate * ts)

    def p_tail(t):
        return math.exp(-thin_rate * t) / thin_rate

    def sample(rng):
        return renewal_thin_first(
            hazard, bound, thin_p, rng, p_tail=p_tail, p_mass=1.0 / thin_rate
        )

    def chains(n_reps, rng):
        return renewal_thin_first_chains(
            hazard, bound, thin_p, n_reps, rng, p_tail=p_tail, p_mass=1.0 / thin_rate
        )

    def oracle(n_reps, rng):
        from .oracles import renewal_thin_after_chains

        return renewal_thin_after_chains(
            lambda r, size: r.gamma(shape, scale, size), thin_p, 60.0 / thin_rate, n_reps, rng
        )

    validate = _count_checks(chains, oracle=("renewal-counts-vs-thin-after", oracle),
                             per_rep=bound / thin_rate)  # the mean candidate count
    return _built(sample, window, validate, ())


def _build_matern(p, window):
    rate = p.get("rate", float, check=_NONNEG)
    radius = p.get("radius", float, check=_NONNEG)
    thin_p = p.get("thin_p", float, 1.0, _UNIT)

    def thin_fn(pts):
        return thin_p  # one retention probability for every point; it broadcasts

    def sample(rng):
        return matern_thin_first(rate, radius, thin_fn, window, rng)

    def chains(n_reps, rng):
        return matern_thin_first_chains(rate, radius, thin_fn, window, n_reps, rng)

    def oracle(n_reps, rng):
        from .oracles import matern_direct_chains

        return matern_direct_chains(rate, radius, thin_fn, window, n_reps, rng)

    validate = _count_checks(chains, oracle=("hardcore-counts-vs-thin-after", oracle),
                             per_rep=rate * window.buffered(radius).volume())
    return _built(sample, window, validate)


def _build_nonlinear_hawkes(p, window):
    _, phi_spec = p.tagged("phi", "kind", {"saturating": ("bound", "base")})
    lam = phi_spec.get("bound", float, check=_POS)
    base = phi_spec.get("base", float, check=_POS)
    _, exc = p.tagged("excitation", "kind", {"triangular": ("height", "support")})
    height = exc.get("height", float, check=_NONNEG)
    support = exc.get("support", float, check=_POS)

    def phi(drive):
        return lam * -math.expm1(-(base + float(drive)) / lam)

    def h(t):
        return height * max(1.0 - float(t) / support, 0.0)

    # phi and h elementwise on arrays, for the lockstep oracle; the sampler keeps the above
    def phi_array(drive):
        return lam * -np.expm1(-(base + drive) / lam)

    def h_array(t):
        return height * np.maximum(1.0 - t / support, 0.0)

    def sample(rng):
        return nonlinear_hawkes_germ(phi, lam, h, support, window, rng)

    def chains(n_reps, rng):
        return nonlinear_hawkes_germ_chains(phi, lam, h, support, window, n_reps, rng)

    def oracle(n_reps, rng):
        from .oracles import nonlinear_hawkes_burn_in_chains

        burn = 20.0 * math.exp(min(lam * support, 30.0)) / lam + 10.0 * support
        return nonlinear_hawkes_burn_in_chains(
            phi_array, lam, h_array, support, window, burn, n_reps, rng
        )

    # the backward scan's e^(bound * support) points and the forward stream's
    per_rep = math.exp(min(lam * support, 700.0)) + lam * window.volume()
    validate = _count_checks(chains, oracle=("nonlinear-counts-vs-burn-in", oracle),
                             per_rep=per_rep)
    return _built(sample, window, validate, ())
