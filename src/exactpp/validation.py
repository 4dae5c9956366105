"""Statistical acceptance harness: KS, chi-square, Laplace, Holm correction.

Every check returns a TestReport carrying the statistic, its threshold at the
stated level, the p-value when the test has one, and an accept/reject
decision. Multiple checks in one run are combined with Holm's step-down
correction so the familywise level is the stated alpha.

Seeds are fixed by callers for reproducibility; set EXACTPP_FRESH_SEED=1 to
derive a fresh entropy seed instead (documented fresh-seed mode).
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TestReport",
    "base_seed",
    "mean_ci",
    "empirical_intensity",
    "empirical_laplace",
    "poisson_laplace",
    "void_probability",
    "two_sample_ks",
    "ks_against_cdf",
    "chi_square",
    "holm_correct",
    "ReportCollector",
    "replicate_counts",
]


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical check."""

    __test__ = False  # not a pytest collection target despite the name

    name: str
    statistic: float
    threshold: float
    alpha: float
    decision: str
    pvalue: float = None
    n: int = None
    details: dict = field(default_factory=dict)

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

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def _jsonable(v):
    """v with numpy scalars and arrays replaced by plain JSON values, recursively."""
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (np.bool_, bool)):
        return bool(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, (np.floating, float)):
        return float(v)
    return v


def base_seed(default):
    """Fixed seed for CI; EXACTPP_FRESH_SEED=1 swaps in fresh entropy."""
    if os.environ.get("EXACTPP_FRESH_SEED", "") == "1":
        return secrets.randbits(63)
    return int(default)


# -- summaries ----------------------------------------------------------------


def mean_ci(values, z=3.0):
    """(mean, z-sigma half width) of the sample mean."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise ValueError("need at least two values")
    se = values.std(ddof=1) / np.sqrt(n)
    return float(values.mean()), float(z * se)


def empirical_intensity(counts, window, z=3.0):
    """Empirical intensity (points per unit volume) with a z-sigma half width."""
    mean, half = mean_ci(counts, z=z)
    vol = window.volume()
    return mean / vol, half / vol


def empirical_laplace(counts, c, z=3.0):
    """Estimate of E[exp(-c N(W))] with a z-sigma half width."""
    vals = np.exp(-float(c) * np.asarray(counts, dtype=float))
    return mean_ci(vals, z=z)


def poisson_laplace(rate, volume, c):
    """Exact E[exp(-c N(W))] for a homogeneous Poisson process."""
    return float(np.exp(rate * volume * (np.exp(-c) - 1.0)))


def void_probability(counts, z=3.0):
    """Empirical P(N(W) = 0) with a z-sigma half width."""
    hits = (np.asarray(counts) == 0).astype(float)
    p = float(hits.mean())
    se = float(np.sqrt(max(p * (1 - p), 1e-300) / hits.size))
    return p, z * se


# -- hypothesis tests ----------------------------------------------------------


def two_sample_ks(a, b, alpha=0.05, name="two-sample-ks"):
    """Two-sample KS; threshold is the asymptotic c(alpha) sqrt((n+m)/nm)."""
    from scipy import stats

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    res = stats.ks_2samp(a, b, method="asymp")
    n, m = a.size, b.size
    c_alpha = np.sqrt(-np.log(alpha / 2.0) / 2.0)
    threshold = c_alpha * np.sqrt((n + m) / (n * m))
    decision = "accept" if res.pvalue >= alpha else "reject"
    return TestReport(
        name=name,
        statistic=float(res.statistic),
        threshold=float(threshold),
        alpha=alpha,
        decision=decision,
        pvalue=float(res.pvalue),
        n=n,
        details={"m": m},
    )


def ks_against_cdf(samples, cdf, alpha=0.05, name="ks-vs-cdf"):
    """One-sample KS against a callable CDF; threshold K_alpha / sqrt(n)."""
    from scipy import stats

    samples = np.asarray(samples, dtype=float)
    res = stats.kstest(samples, cdf)
    k_alpha = stats.kstwobign.isf(alpha)
    threshold = k_alpha / np.sqrt(samples.size)
    decision = "accept" if res.pvalue >= alpha else "reject"
    return TestReport(
        name=name,
        statistic=float(res.statistic),
        threshold=float(threshold),
        alpha=alpha,
        decision=decision,
        pvalue=float(res.pvalue),
        n=samples.size,
    )


def chi_square(observed, expected_probs, alpha=0.05, name="chi-square", min_expected=5.0):
    """Pearson chi-square of category counts against expected probabilities.

    Trailing categories are pooled until every expected count reaches
    min_expected; expected_probs must sum to 1 over the given categories.
    """
    from scipy import stats

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
    stat, pvalue = stats.chisquare(obs, exp)
    df = obs.size - 1
    threshold = stats.chi2.isf(alpha, df) if df > 0 else np.inf
    decision = "accept" if pvalue >= alpha else "reject"
    return TestReport(
        name=name,
        statistic=float(stat),
        threshold=float(threshold),
        alpha=alpha,
        decision=decision,
        pvalue=float(pvalue),
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


def replicate_counts(sample_fn, n_reps, stream, window=None):
    """Counts from n_reps independent replicates, one substream each.

    sample_fn(rng) must return a PointPattern; with a window the count is
    restricted to it, otherwise the full pattern size is used.
    """
    counts = np.empty(int(n_reps), dtype=np.int64)
    for r in range(int(n_reps)):
        pat = sample_fn(stream.substream(r).generator())
        counts[r] = pat.count_in(window) if window is not None else pat.n
    return counts
