"""Validation harness self-checks: summary statistics against closed forms,
calibration and power of the KS/chi-square wrappers, the numpy Kolmogorov
survival function against scipy.stats.kstwo, Holm correction arithmetic, and
report serialization."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from exactpp import RngStream, Window
from exactpp.core import homogeneous_chains
from exactpp.validation import (
    ReportCollector,
    TestReport,
    _kolmogorov_sf,
    chi_square,
    empirical_laplace,
    holm_correct,
    ks_against_cdf,
    mean_ci,
    replicate_counts,
    two_sample_ks,
)


def _gen(seed, stream=0):
    return RngStream(seed, stream).generator()


# -- summaries -------------------------------------------------------------------


def test_mean_ci_constant_array_has_zero_width():
    mean, half = mean_ci([4.0, 4.0, 4.0, 4.0])
    assert mean == 4.0 and half == 0.0


def test_mean_ci_known_values_and_z_scaling():
    vals = [1.0, 2.0, 3.0, 4.0]
    mean3, half3 = mean_ci(vals, z=3.0)
    mean6, half6 = mean_ci(vals, z=6.0)
    assert mean3 == pytest.approx(2.5)
    se = np.std(vals, ddof=1) / 2.0
    assert half3 == pytest.approx(3.0 * se)
    assert half6 == pytest.approx(2.0 * half3)


def test_mean_ci_needs_two_values():
    with pytest.raises(ValueError, match="two values"):
        mean_ci([1.0])


def test_empirical_laplace_at_c_zero_is_one():
    mean, half = empirical_laplace([0, 3, 7, 2], c=0.0)
    assert mean == pytest.approx(1.0) and half == pytest.approx(0.0)


def test_empirical_laplace_matches_poisson_closed_form():
    counts = _gen(121).poisson(5.0, size=20000)
    for c in (0.1, 1.0):
        mean, half = empirical_laplace(counts, c, z=4.0)
        # E[exp(-c N)] = exp(rate*vol*(e^{-c} - 1))
        assert abs(mean - math.exp(5.0 * (math.exp(-c) - 1.0))) < half


# -- KS wrappers -----------------------------------------------------------------


def test_two_sample_ks_calibrated_under_the_null():
    rng = _gen(124)
    accepted = sum(
        two_sample_ks(rng.exponential(1.0, 1000), rng.exponential(1.0, 1000)).accepted
        for _ in range(50)
    )
    # alpha = 0.05: P(Binomial(50, .95) < 40) is about 1e-6
    assert accepted >= 40


def test_two_sample_ks_detects_a_mean_shift():
    rng = _gen(125)
    rejections = sum(
        not two_sample_ks(
            rng.poisson(5.0, 400).astype(float), rng.poisson(6.0, 400).astype(float)
        ).accepted
        for _ in range(20)
    )
    assert rejections >= 19


def test_two_sample_ks_report_fields():
    rep = two_sample_ks(np.arange(100.0), np.arange(100.0) + 0.5, name="shifted")
    assert rep.name == "shifted"
    assert rep.n == 100 and rep.details["m"] == 100
    assert (rep.pvalue >= rep.alpha) == rep.accepted


def test_two_sample_ks_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="nonempty"):
        two_sample_ks(np.array([]), np.arange(5.0))


def test_two_sample_ks_rejects_a_nan_value():
    with pytest.raises(ValueError, match="NaN"):
        two_sample_ks(np.array([1.0, np.nan, 2.0]), np.arange(5.0))


def test_two_sample_ks_rejects_one_value_against_one():
    # the effective size nm/(n+m) = 1/2 rounds to 0: no Kolmogorov law to read
    with pytest.raises(ValueError, match="effective size"):
        two_sample_ks([1.0], [2.0])


def _not_literal(n, x):
    """Where the port departs from scipy's arithmetic: scipy's 2 * smirnov
    regime (x >= 1/2, or n x^2 >= 2.2 at n > 140) and all of n <= 140, where
    scipy runs the Pomeranz recursion or 2 * smirnov."""
    return n <= 140 or x >= 0.5 or n * x * x >= 2.2


def _attainable(n):
    """Every x = i/(2n) in [0, 1]: the edges of every branch, and the values a
    two-sample statistic often takes at effective size n."""
    return np.arange(2 * n + 1) / (2 * n)


@pytest.mark.parametrize("n", [141, 200, 250, 300, 400, 1000, 2500])
def test_kolmogorov_sf_is_scipys_bit_for_bit_where_ported_literally(n):
    xs = [x for x in _attainable(n) if not _not_literal(n, x)]
    assert len(xs) > 10
    got = np.array([_kolmogorov_sf(n, x) for x in xs])
    assert np.array_equal(got, stats.kstwo.sf(xs, n))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 25, 64, 139, 140, 141, 250, 1000, 2500])
def test_kolmogorov_sf_matches_scipy_where_the_arithmetic_differs(n):
    xs = [x for x in _attainable(n) if _not_literal(n, x)]
    xs = xs[:: max(1, len(xs) // 60)]
    got = np.array([_kolmogorov_sf(n, x) for x in xs])
    want = stats.kstwo.sf(xs, n)
    # relative 1e-10, down to the smallest normal double (subnormals hold fewer digits)
    assert np.all(np.abs(got - want) <= 1e-10 * want + np.finfo(float).tiny)


@pytest.mark.parametrize("sizes", [(400, 400), (400, 800), (300, 1000), (800, 800), (30, 70)])
@pytest.mark.parametrize("shift", [0.0, 0.4, 1.0])
def test_two_sample_ks_matches_scipy_on_tied_counts(sizes, shift):
    rng = _gen(130 + sizes[0] + sizes[1])
    a = rng.poisson(5.0, sizes[0]).astype(float)
    b = rng.poisson(5.0 + shift, sizes[1]).astype(float)
    rep = two_sample_ks(a, b)
    ref = stats.ks_2samp(a, b, method="asymp")
    assert rep.statistic == ref.statistic
    size = round(sizes[0] * sizes[1] / sum(sizes))
    if _not_literal(size, rep.statistic):
        assert rep.pvalue == pytest.approx(ref.pvalue, rel=1e-10, abs=np.finfo(float).tiny)
    else:
        assert rep.pvalue == ref.pvalue
    assert rep.accepted == (ref.pvalue >= rep.alpha)


def test_ks_against_cdf_uniform_accepts_and_shifted_rejects():
    u = _gen(126).random(2000)
    uniform_cdf = lambda x: np.clip(x, 0.0, 1.0)
    assert ks_against_cdf(u, uniform_cdf, alpha=0.01).accepted
    rep = ks_against_cdf(u + 0.2, uniform_cdf, alpha=0.01)
    assert not rep.accepted
    assert rep.statistic > rep.threshold


# -- chi-square ------------------------------------------------------------------


def test_chi_square_exact_proportions_accept():
    probs = np.array([0.2, 0.3, 0.5])
    rep = chi_square(probs * 1000, probs, alpha=0.05)
    assert rep.accepted
    assert rep.statistic == pytest.approx(0.0, abs=1e-12)
    assert rep.pvalue == pytest.approx(1.0)


def test_chi_square_pools_sparse_tail():
    # the last two cells expect 2.5 each; one pool brings the tail to 5
    probs = np.array([0.5, 0.4, 0.05, 0.025, 0.025])
    obs = np.array([50.0, 40.0, 5.0, 3.0, 2.0])
    rep = chi_square(obs, probs, alpha=0.05, min_expected=5.0)
    assert rep.details["df"] == 3  # 5 cells pooled down to 4
    assert rep.accepted


def test_chi_square_input_validation():
    with pytest.raises(ValueError, match="shapes differ"):
        chi_square([1, 2, 3], [0.5, 0.5])
    with pytest.raises(ValueError, match="sum to 1"):
        chi_square([10, 10], [0.5, 0.6])


def test_chi_square_detects_wrong_proportions():
    rng = _gen(127)
    draws = rng.choice(3, p=[0.5, 0.3, 0.2], size=5000)
    obs = np.bincount(draws, minlength=3)
    assert not chi_square(obs, np.array([1, 1, 1]) / 3.0, alpha=0.05).accepted


# -- Holm ------------------------------------------------------------------------


def _p_report(name, pvalue):
    return TestReport(
        name=name, statistic=0.0, threshold=1.0, alpha=0.05,
        decision="accept" if pvalue >= 0.05 else "reject", pvalue=pvalue,
    )


def test_holm_adjusted_pvalues_step_down():
    reports = [_p_report("a", 0.01), _p_report("b", 0.02), _p_report("c", 0.30)]
    out = holm_correct(reports, alpha=0.05)
    adj = {r.name: r.details["holm_adjusted_pvalue"] for r in out}
    assert adj["a"] == pytest.approx(0.03)
    assert adj["b"] == pytest.approx(0.04)
    assert adj["c"] == pytest.approx(0.30)
    decisions = {r.name: r.decision for r in out}
    assert decisions == {"a": "reject", "b": "reject", "c": "accept"}


def test_holm_adjustment_is_monotone_in_rank():
    # raw 0.03 would adjust to 0.03 but must be lifted to the running max
    out = holm_correct([_p_report("x", 0.011), _p_report("y", 0.03)], alpha=0.05)
    adj = {r.name: r.details["holm_adjusted_pvalue"] for r in out}
    assert adj["x"] == pytest.approx(0.022)
    assert adj["y"] == pytest.approx(0.03)


def test_holm_passes_through_reports_without_pvalues():
    plain = TestReport(
        name="ci-check", statistic=0.5, threshold=1.0, alpha=0.05, decision="accept"
    )
    out = holm_correct([plain, _p_report("k", 0.2)], alpha=0.05)
    names = [r.name for r in out]
    assert "ci-check" in names
    kept = next(r for r in out if r.name == "ci-check")
    assert kept.decision == "accept" and kept.pvalue is None


def test_holm_never_helps_a_single_rejection():
    out = holm_correct([_p_report("only", 0.01)], alpha=0.05)
    assert out[0].decision == "reject"
    assert out[0].details["holm_adjusted_pvalue"] == pytest.approx(0.01)


def test_report_collector_finalizes_jointly():
    coll = ReportCollector(alpha=0.05)
    r = coll.add(_p_report("a", 0.04))
    assert r is coll.reports[0]
    coll.add(_p_report("b", 0.9))
    corrected, all_ok = coll.finalize()
    # 0.04 doubles to 0.08 under Holm with two tests: jointly acceptable
    assert all_ok
    assert len(corrected) == 2


def test_report_collector_flags_a_joint_failure():
    coll = ReportCollector(alpha=0.05)
    coll.add(_p_report("a", 1e-5))
    coll.add(_p_report("b", 0.9))
    _, all_ok = coll.finalize()
    assert not all_ok


# -- replication and serialization -------------------------------------------------


def test_replicate_counts_deterministic_per_stream():
    w = Window((0.0,), (4.0,))

    def chains(n, rng):
        return homogeneous_chains(w, 3.0, n, rng)

    a = replicate_counts(50, RngStream(128), chains)
    b = replicate_counts(50, RngStream(128), chains)
    assert np.array_equal(a, b)
    assert a.dtype == np.int64 and a.shape == (50,) and a.min() >= 0
    assert not np.array_equal(a, replicate_counts(50, RngStream(129), chains))


def test_report_to_json_round_trip():
    rep = chi_square([52, 48], [0.5, 0.5], alpha=0.05, name="demo")
    loaded = json.loads(json.dumps(rep.to_dict()))
    assert set(loaded) == {
        "name", "statistic", "threshold", "alpha", "decision", "pvalue", "n", "details",
    }
    assert loaded["name"] == "demo"
    assert loaded["decision"] == "accept"
    assert loaded["details"]["df"] == 1


def test_report_to_dict_converts_numpy_values():
    rep = TestReport(
        name="np", statistic=np.float64(0.5), threshold=1.0, alpha=0.05,
        decision="accept", details={"arr": np.array([1.0, 2.0]), "i": np.int64(3)},
    )
    d = rep.to_dict()
    assert d["details"]["arr"] == [1.0, 2.0]
    assert isinstance(d["details"]["i"], int)
    json.dumps(d)  # fully serializable
