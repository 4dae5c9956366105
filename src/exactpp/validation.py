"""Statistical acceptance harness: KS, chi-square, Laplace, Holm correction.

Every check returns a TestReport carrying the statistic, its threshold at the
stated level, the p-value when the test has one, and an accept/reject
decision. Multiple checks in one run are combined with Holm's step-down
correction so the familywise level is the stated alpha. replicate_counts
draws a battery's replicates from a sampler's lockstep form, in blocks of
bounded size, and reduces each replicate to a value; the battery's
substreams are named by LOCKSTEP, ORACLE and PROBES.

The two-sample KS test, the one test the CLI runs, computes its p-value with
`math` alone: exactly for equal sample sizes, as every battery has them, and
from the Kolmogorov limit otherwise. The chi-square test takes its p-value
from the incomplete gamma function of germ_thinning, so no routine here
imports scipy.
"""

from __future__ import annotations

import math

import numpy as np

from . import core
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
    """Two-sample KS of a against b, decided by its p-value: accept at p >= alpha.

    The statistic is computed as scipy.stats.ks_2samp computes it (both
    samples sorted, each empirical CDF read with searchsorted(side="right")
    at the pooled points, so ties are handled exactly). The p-value is
    P(D >= statistic) when both samples come from one continuous law:
    - equal sizes n = m: exact, from `_equal_sizes_sf`, the value of
      ks_2samp(method="exact");
    - unequal sizes: asymptotic, from `_kolmogorov_limit_sf`.
    Ties, as in counts, make the exact value conservative. threshold is the
    asymptotic critical value c(alpha) sqrt((n+m)/nm), reported beside the
    statistic; the decision reads the p-value, not the threshold. Raises
    ValueError for an empty sample or a NaN value.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = a.size, b.size
    if n == 0 or m == 0:
        raise ValueError(f"two-sample KS needs two nonempty samples, got sizes {n} and {m}")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("two-sample KS got a NaN value")
    pooled = np.concatenate([a, b])
    diffs = (np.searchsorted(a, pooled, side="right") / n
             - np.searchsorted(b, pooled, side="right") / m)
    below = np.clip(-diffs.min(), 0, 1)
    above = diffs.max()
    statistic = float(below if below > above else above)
    if n == m:
        pvalue = _equal_sizes_sf(n, round(statistic * n))
    else:
        pvalue = _kolmogorov_limit_sf(n, m, statistic)
    c_alpha = np.sqrt(-np.log(alpha / 2.0) / 2.0)
    threshold = c_alpha * np.sqrt((n + m) / (n * m))
    decision = "accept" if pvalue >= alpha else "reject"
    return TestReport(
        name=name,
        statistic=statistic,
        threshold=float(threshold),
        alpha=alpha,
        decision=decision,
        pvalue=pvalue,
        n=n,
        details={"m": m},
    )


def _equal_sizes_sf(n, c):
    """P(D >= c/n) for two samples of n values each from one continuous law,
    exactly: 2 sum_{k >= 1} (-1)^(k+1) C(2n, n - kc) / C(2n, n) (Gnedenko &
    Korolyuk 1951). Each ratio n!^2 / ((n - kc)! (n + kc)!) is taken through
    math.lgamma; the terms decrease, so the sum stops at one that underflows.
    """
    if c <= 1:  # D is a multiple of 1/n, and 0 only on ties: P(D >= 1/n) = 1
        return 1.0
    log_central = 2 * math.lgamma(n + 1)
    total = 0.0
    for k in range(1, n // c + 1):
        term = math.exp(log_central - math.lgamma(n - k * c + 1) - math.lgamma(n + k * c + 1))
        if term == 0.0:
            break
        total += term if k % 2 else -term
    return min(1.0, 2 * total)


def _kolmogorov_limit_sf(n, m, d):
    """P(D >= d) for samples of n and m values, asymptotically: the Kolmogorov
    limit 2 sum_{k >= 1} (-1)^(k-1) exp(-2 k^2 lam^2) at Stephens' (1970)
    lam = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) d, ne = nm/(n+m).

    Not exact: against scipy's exact lattice count at 21 pairs of sizes, from
    1 against 2 to 2000 against 2001 (every attainable d, or 3,000 of them),
    it was within 0.4/sqrt(ne) of the exact value, furthest off where the
    sizes differ by one.
    """
    root = math.sqrt(n * m / (n + m))
    lam = (root + 0.12 + 0.11 / root) * d
    if lam < 0.2:  # the limit is 1 - 5e-13 there, and the series converges slowly
        return 1.0
    return math.fsum(2 * (-1) ** (k - 1) * math.exp(-2 * (k * lam) ** 2) for k in range(1, 101))


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


def _counts(points, offsets):
    return np.diff(offsets)


def battery_blocks(n_reps, per_rep):
    """The replicate counts of the blocks, in turn, of a battery of n_reps
    replicates of per_rep mean points each: at most core.BLOCK / per_rep
    replicates a block (at least one), and one block for a battery within
    core.BLOCK mean points."""
    block = n_reps if per_rep * n_reps <= core.BLOCK else max(1, int(core.BLOCK // per_rep))
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
    than core.BLOCK mean points, or one replicate's.
    """
    n_reps = int(n_reps)
    if n_reps < 1:
        raise ValueError("replicate_counts needs at least one replicate")
    rng = stream.substream(LOCKSTEP).generator()
    return np.concatenate([reduce(*chains(k, rng)) for k in battery_blocks(n_reps, per_rep)])
