"""Statistical acceptance harness: KS, chi-square, Laplace, Holm correction.

Every check returns a TestReport carrying the statistic, its threshold at the
stated level, the p-value when the test has one, and an accept/reject
decision. Multiple checks in one run are combined with Holm's step-down
correction so the familywise level is the stated alpha. replicate_counts
draws a battery's replicates from a sampler's lockstep form, in blocks of
bounded size, and reduces each replicate to a value; the battery's
substreams are named by LOCKSTEP, ORACLE and PROBES.

The two-sample KS test, the one test the CLI runs, needs numpy alone: its
p-value is the Kolmogorov distribution of Simard & L'Ecuyer (2011), ported
from scipy.stats (BSD-3-Clause; see `_kolmogorov_sf`). The chi-square test
takes its p-value from the incomplete gamma function of germ_thinning, so no
routine here imports scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _Frozen, _jsonable

__all__ = [
    "TestReport",
    "mean_ci",
    "empirical_laplace",
    "two_sample_ks",
    "chi_square",
    "holm_correct",
    "ReportCollector",
    "replicate_counts",
]


class TestReport(_Frozen):
    """Outcome of one statistical check."""

    __test__ = False  # not a pytest collection target despite the name

    _fields = ("name", "statistic", "threshold", "alpha", "decision", "pvalue", "n", "details")

    def __init__(self, name, statistic, threshold, alpha, decision, pvalue=None, n=None,
                 details=None):
        self.__dict__.update(name=name, statistic=statistic, threshold=threshold, alpha=alpha,
                             decision=decision, pvalue=pvalue, n=n,
                             details={} if details is None else details)

    @property
    def accepted(self):
        return self.decision == "accept"

    def to_dict(self):
        out = {
            "name": self.name,
            "statistic": float(self.statistic),
            "threshold": float(self.threshold),
            "alpha": float(self.alpha),
            "decision": self.decision,
            "pvalue": None if self.pvalue is None else float(self.pvalue),
            "n": self.n,
            "details": _jsonable(self.details),
        }
        return out


# -- summaries ----------------------------------------------------------------


def mean_ci(values, z=3.0):
    """(mean, z-sigma half width) of the sample mean."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise ValueError("need at least two values")
    se = values.std(ddof=1) / np.sqrt(n)
    return float(values.mean()), float(z * se)


def empirical_laplace(counts, c, z=3.0):
    """Estimate of E[exp(-c N(W))] with a z-sigma half width."""
    vals = np.exp(-float(c) * np.asarray(counts, dtype=float))
    return mean_ci(vals, z=z)


# -- hypothesis tests ----------------------------------------------------------


def two_sample_ks(a, b, alpha=0.05, name="two-sample-ks"):
    """Two-sample KS; threshold is the asymptotic c(alpha) sqrt((n+m)/nm).

    The statistic is computed as scipy.stats.ks_2samp computes it (both
    samples sorted, each empirical CDF read with searchsorted(side="right")
    at the pooled points, so ties are handled exactly), and the p-value as
    its method="asymp": the two-sided one-sample Kolmogorov survival function
    at the effective size round(nm/(n+m)), from `_kolmogorov_sf`, a numpy
    port of scipy's Simard-L'Ecuyer algorithm that needs no scipy. Raises
    ValueError for an empty sample, a NaN value, or sizes whose effective
    size rounds to 0 (one value against one).
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = a.size, b.size
    if n == 0 or m == 0:
        raise ValueError(f"two-sample KS needs two nonempty samples, got sizes {n} and {m}")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("two-sample KS got a NaN value")
    size = round(n * m / (n + m))
    if size < 1:
        raise ValueError(
            f"two-sample KS needs an effective size of at least 1, got sizes {n} and {m}"
        )
    pooled = np.concatenate([a, b])
    diffs = (np.searchsorted(a, pooled, side="right") / n
             - np.searchsorted(b, pooled, side="right") / m)
    below = np.clip(-diffs.min(), 0, 1)
    above = diffs.max()
    statistic = below if below > above else above
    pvalue = _kolmogorov_sf(size, statistic)
    c_alpha = np.sqrt(-np.log(alpha / 2.0) / 2.0)
    threshold = c_alpha * np.sqrt((n + m) / (n * m))
    decision = "accept" if pvalue >= alpha else "reject"
    return TestReport(
        name=name,
        statistic=float(statistic),
        threshold=float(threshold),
        alpha=alpha,
        decision=decision,
        pvalue=pvalue,
        n=n,
        details={"m": m},
    )


# -- the Kolmogorov distribution -------------------------------------------------
#
# The routines below are ported from scipy/stats/_ksstats.py (scipy 1.17),
# whose notice follows.
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

# Rescaling by 2^128 in extended precision, as scipy does: the Durbin power
# and its n!/n^n factor leave float64's range for large n.
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# Stirling coefficients B_2j / (2j (2j-1)) for j = 8, ..., 1 (B_m Bernoulli numbers)
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _prob(p):
    """p clipped to [0, 1] and rounded to a Python float; the Durbin branch
    may carry a long double until here, as scipy's does."""
    return float(np.clip(p, 0.0, 1.0))


def _kolmogorov_sf(n, x):
    """P(D_n > x) for the two-sided one-sample KS statistic D_n of n points.

    Simard & L'Ecuyer (2011), "Computing the two-sided Kolmogorov-Smirnov
    distribution", J. Stat. Softw. 39(11), choose the method by (n, n x^2):
    - n x <= 1 and n x >= n - 1: the closed forms of Ruben & Gambino (1982);
    - small n x^2: the Durbin (1968) matrix power, H^n scaled as Marsaglia,
      Tsang & Wang (2003), J. Stat. Softw. 8(18), compute it;
    - larger n x^2 at n > 140: the series of Pelz & Good (1976), J. R. Stat.
      Soc. B 38(2), for the CDF, returned as 1 - CDF;
    - x >= 1/2, and large n x^2: 2 P(D_n^+ >= x), the doubled one-sided
      tail (`_smirnov`), exact for x >= 1/2 and elsewhere too large only by
      P(D_n^+ >= x and D_n^- >= x), which the thresholds keep negligible.

    The branches and their arithmetic are scipy's `_ksstats._kolmogn(n, x,
    cdf=False)` behind `scipy.stats.kstwo.sf(x, n)`, with two changes: at
    n <= 140 the Durbin matrix replaces scipy's Pomeranz (1974) recursion
    (both are exact), and the one-sided tail is the Birnbaum-Tingey sum
    instead of scipy.special.smirnov. Everywhere else the result is
    scipy's, bit for bit. n is a positive integer, x a float.
    """
    if x <= 0.5 / n:  # kstwo's support starts at 1/(2n)
        return 1.0
    if x >= 1.0:
        return 0.0
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/(2n) <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return _prob(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _prob(2 * (1.0 - x) ** n)
    if x >= 0.5:
        return _prob(2 * _smirnov(n, x))
    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 4:
            return _prob(1.0 - np.clip(_durbin_cdf(n, x), 0.0, 1.0))
        return _prob(2 * _smirnov(n, x))
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _prob(2 * _smirnov(n, x))
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = np.clip(_durbin_cdf(n, x), 0.0, 1.0)
    else:
        cdfprob = _pelz_good_cdf(n, x)
    return _prob(1.0 - cdfprob)


def _log_nfactorial_div_n_pow_n(n):
    """log(n!/n^n) by Stirling's series, with n log n taken out beforehand."""
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _durbin_cdf(n, d):
    """P(D_n <= d) as the (k, k) entry of (n!/n^n) H^n, for 1 < n d and d < 1/2.

    With n d = k - h (k an integer, 0 <= h < 1), H is Durbin's (2k-1)-square
    matrix; the power is taken by repeated squaring, rescaled by 2^128 as
    needed (Marsaglia, Tsang & Wang 2003).
    """
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    H = np.zeros([m, m])
    # v is the first column (and, reversed, the last row) of H; w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(m)
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2
    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n^n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return p


def _pelz_good_cdf(n, x):
    """P(D_n <= x) ~ K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n^1.5, z = sqrt(n) x.

    The Li-Chien (1956) and Korolyuk (1960) expansion, each K_i turned by
    the Jacobi theta functional equation into a series that converges fast
    for small z (Pelz & Good 1976); 0 < x < 1.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z below about 0.0417
        return 0.0
    q = np.exp(qlog)

    # coefficients of the terms in the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # sum c_i q^(i^2) over odd i by a Horner scheme
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the terms over all integers k: (pi^2 k^2) q^(k^2) in K2 and
    # (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2) in K3, summed directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)


def _smirnov(n, x):
    """P(D_n^+ >= x), the one-sided upper tail, by the exact sum of Birnbaum &
    Tingey (1951): x sum_{j <= n(1-x)} C(n, j) (1 - x - j/n)^(n-j) (x + j/n)^(j-1).

    The terms are positive and summed in log space, so neither the binomials
    nor the powers overflow or underflow; 0 < x < 1.
    """
    j = np.arange(int(np.floor(n * (1.0 - x))) + 1)
    gap = 1.0 - x - j / n
    j, gap = j[gap > 0], gap[gap > 0]  # a zero gap makes a zero term
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    log_binom = log_factorial[n] - log_factorial[j] - log_factorial[n - j]
    logs = log_binom + (n - j) * np.log(gap) + (j - 1) * np.log(x + j / n)
    top = logs.max()
    return math.exp(math.log(x) + top + math.log(np.exp(logs - top).sum()))


def chi_square(observed, expected_probs, alpha=0.05, name="chi-square", min_expected=5.0):
    """Pearson chi-square of category counts against expected probabilities.

    Trailing categories are pooled until every expected count reaches
    min_expected; expected_probs must sum to 1 over the given categories, and
    at least two cells must remain. The statistic is sum (obs - exp)^2 / exp,
    the arithmetic of scipy.stats.chisquare. With df = cells - 1, the p-value
    is the chi-square survival function Q(df/2, stat/2) of
    germ_thinning._gamma_q (1 at stat = 0, 0 at stat = inf), and the
    threshold is the statistic where that p-value falls to alpha, bisected to
    adjacent floats.
    """
    # imported here: a validated run of another sampler compiles no germ_thinning
    from .germ_thinning import _gamma_q

    obs = np.asarray(observed, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    if obs.shape != probs.shape:
        raise ValueError("observed and expected shapes differ")
    total = obs.sum()
    if not np.isclose(probs.sum(), 1.0, atol=1e-9):
        raise ValueError("expected probabilities must sum to 1")
    exp = probs * total
    # pool from the tail until all expected counts are large enough
    while exp.size > 1 and exp[-1] < min_expected:
        exp = np.concatenate([exp[:-2], [exp[-2] + exp[-1]]])
        obs = np.concatenate([obs[:-2], [obs[-2] + obs[-1]]])
    if obs.size < 2:
        raise ValueError(f"chi-square needs two cells after pooling, {obs.size} remain")
    df = obs.size - 1

    def sf(x):  # Q(df/2, x/2), with its limits at 0 and at infinity
        return 1.0 if x == 0 else 0.0 if x == math.inf else _gamma_q(df / 2.0, x / 2.0)

    stat = float(((obs - exp) ** 2 / exp).sum())
    pvalue = sf(stat)
    lo, hi = 0.0, float(df)
    while sf(hi) >= alpha:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if sf(mid) >= alpha else (lo, mid)
    decision = "accept" if pvalue >= alpha else "reject"
    return TestReport(
        name=name,
        statistic=stat,
        threshold=hi,
        alpha=alpha,
        decision=decision,
        pvalue=pvalue,
        n=int(total),
        details={"df": df},
    )


def holm_correct(reports, alpha=0.05):
    """Holm step-down over the p-valued reports; returns adjusted reports.

    Reports without a p-value pass through unchanged (their decisions stand
    on their own numeric criteria).
    """
    tested = [r for r in reports if r.pvalue is not None]
    rest = [r for r in reports if r.pvalue is None]
    m = len(tested)
    order = np.argsort([r.pvalue for r in tested])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        adj = min(1.0, (m - rank) * tested[idx].pvalue)
        running = max(running, adj)
        adjusted[idx] = running
    out = []
    for i, r in enumerate(tested):
        adj = adjusted[i]
        decision = "accept" if adj >= alpha else "reject"
        out.append(
            TestReport(
                name=r.name,
                statistic=r.statistic,
                threshold=r.threshold,
                alpha=alpha,
                decision=decision,
                pvalue=r.pvalue,
                n=r.n,
                details={**r.details, "holm_adjusted_pvalue": adj},
            )
        )
    return out + list(rest)


class ReportCollector:
    """Accumulates reports across checks; finalize applies Holm jointly."""

    def __init__(self, alpha=0.05):
        self.alpha = alpha
        self.reports = []

    def add(self, report):
        self.reports.append(report)
        return report

    def finalize(self):
        corrected = holm_correct(self.reports, alpha=self.alpha)
        all_ok = all(r.accepted for r in corrected)
        return corrected, all_ok


# The battery's streams under a run's validation stream. Each key is the
# lineage word of its substream: the lockstep replicates, the oracle chains
# and the probes each draw from one substream, and no two share a word. The
# words are those the roles have always had, so their reports keep their bytes.
LOCKSTEP, ORACLE, PROBES = 1, 2, 3


BATTERY_POINTS = 1 << 20  # mean points one lockstep call of a battery draws, at most


def _counts(points, offsets):
    return np.diff(offsets)


def battery_blocks(n_reps, per_rep):
    """The replicate counts of the blocks, in turn, of a battery of n_reps
    replicates of per_rep mean points each: at most BATTERY_POINTS / per_rep
    replicates a block (at least one), and one block for a battery within
    BATTERY_POINTS."""
    block = n_reps if per_rep * n_reps <= BATTERY_POINTS else max(1, int(BATTERY_POINTS // per_rep))
    return [min(block, n_reps - a) for a in range(0, n_reps, block)]


def replicate_counts(n_reps, stream, chains, per_rep=0.0, reduce=_counts):
    """One value per replicate, reduce(points, offsets), of n_reps independent
    replicates of a sampler: by default each replicate's count N(W),
    np.diff(offsets).

    chains(k, rng), a sampler's lockstep form, returns the (points, offsets)
    of k replicates, replicate i's points being
    points[offsets[i]:offsets[i + 1]]; every call draws from the one
    generator of stream.substream(LOCKSTEP).

    per_rep is the mean count of the points one replicate draws, candidates
    included. The replicates are drawn in the blocks of battery_blocks, each
    reduced before the next is drawn, so the battery never holds much more
    than BATTERY_POINTS points, or one replicate's.
    """
    n_reps = int(n_reps)
    if n_reps < 1:
        raise ValueError("replicate_counts needs at least one replicate")
    rng = stream.substream(LOCKSTEP).generator()
    return np.concatenate([reduce(*chains(k, rng)) for k in battery_blocks(n_reps, per_rep)])
