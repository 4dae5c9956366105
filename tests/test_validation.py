"""Validation harness self-checks: summary statistics against closed forms,
calibration and power of the KS/chi-square wrappers, the KS p-values against
scipy.stats.ks_2samp, Holm correction arithmetic, and report serialization."""

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
    chi_square,
    empirical_laplace,
    holm_correct,
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


def test_two_sample_ks_reads_one_value_against_one_as_scipy_does():
    # equal sizes have an exact law down to n = 1: D = 1 there, with p = 1
    rep = two_sample_ks([1.0], [2.0])
    assert rep.statistic == 1.0
    assert rep.pvalue == stats.ks_2samp([1.0], [2.0], method="exact").pvalue == 1.0


def _shifted(n, c):
    """Two samples of n values whose KS statistic is c/n: 0..n-1 against the
    same values moved c - 1/2 to the right (or not moved, for c = 0)."""
    a = np.arange(float(n))
    return a, a + (c - 0.5 if c else 0.0)


# where scipy's exact sum rounds above 1 (at some c near 1), it warns and
# returns its asymptotic value, 1.0
@pytest.mark.filterwarnings("ignore:ks_2samp. Exact calculation unsuccessful")
@pytest.mark.parametrize("n", [1, 2, 5, 50, 200, 400, 500, 600, 800, 2500])
def test_equal_sizes_pvalue_is_scipys_exact_at_every_attainable_statistic(n):
    for c in range(n + 1):
        a, b = _shifted(n, c)
        rep = two_sample_ks(a, b)
        ref = stats.ks_2samp(a, b, method="exact")
        assert rep.statistic == pytest.approx(c / n, abs=1e-12)
        # relative 1e-10, down to the smallest normal double (subnormals hold fewer digits)
        assert rep.pvalue == pytest.approx(ref.pvalue, rel=1e-10, abs=np.finfo(float).tiny), c


def _limit_bound(n, m):
    """The stated distance of the unequal-size p-value from the exact one."""
    return 0.4 / math.sqrt(n * m / (n + m))


@pytest.mark.parametrize("sizes", [(30, 70), (400, 800), (300, 1000), (400, 10_000)])
def test_unequal_sizes_pvalue_is_within_its_bound_of_scipys_exact(sizes):
    n, m = sizes
    a, b = (np.arange(n) + 0.5) / n, (np.arange(m) + 0.5) / m
    pvalues = []
    for shift in np.linspace(0.0, 6.0 / math.sqrt(n * m / (n + m)), 61):
        rep = two_sample_ks(a, b + shift)
        ref = stats.ks_2samp(a, b + shift, method="exact")
        assert rep.statistic == pytest.approx(ref.statistic, abs=1e-12)
        assert abs(rep.pvalue - ref.pvalue) <= _limit_bound(n, m), shift
        pvalues.append(ref.pvalue)
    assert max(pvalues) > 0.9 and min(pvalues) < 1e-6  # the shifts sweep the whole law


def test_unequal_sizes_pvalue_is_within_its_bound_at_ac8s_size():
    # AC-8 pools 68,565 against 68,605 nearest-neighbour distances; scipy has
    # no exact count at that size (method="exact" falls back to "asymp"), so
    # the reference is its asymptotic value, kstwo.sf at round(nm/(n+m))
    n, m = 68_565, 68_605
    a, b = (np.arange(n) + 0.5) / n, (np.arange(m) + 0.5) / m
    for shift in np.linspace(0.0, 6.0 / math.sqrt(n * m / (n + m)), 31):
        rep = two_sample_ks(a, b + shift)
        ref = stats.ks_2samp(a, b + shift, method="asymp")
        assert rep.statistic == ref.statistic
        assert abs(rep.pvalue - ref.pvalue) <= _limit_bound(n, m), shift


@pytest.mark.parametrize("sizes", [(400, 400), (400, 800), (300, 1000), (800, 800), (30, 70)])
@pytest.mark.parametrize("shift", [0.0, 0.4, 1.0])
def test_two_sample_ks_matches_scipy_on_tied_counts(sizes, shift):
    rng = _gen(130 + sizes[0] + sizes[1])
    a = rng.poisson(5.0, sizes[0]).astype(float)
    b = rng.poisson(5.0 + shift, sizes[1]).astype(float)
    rep = two_sample_ks(a, b)
    assert rep.statistic == stats.ks_2samp(a, b, method="asymp").statistic
    ref = stats.ks_2samp(a, b, method="exact")  # its statistic is rounded to the lattice
    if sizes[0] == sizes[1]:  # the exact law
        assert rep.pvalue == pytest.approx(ref.pvalue, rel=1e-10, abs=np.finfo(float).tiny)
    else:  # its limit, within the stated bound
        assert abs(rep.pvalue - ref.pvalue) <= _limit_bound(*sizes)
    assert rep.accepted == (ref.pvalue >= rep.alpha)


# -- chi-square ------------------------------------------------------------------


def test_chi_square_exact_proportions_accept():
    probs = np.array([0.2, 0.3, 0.5])
    rep = chi_square(probs * 1000, probs, alpha=0.05)
    assert rep.accepted
    assert rep.statistic == 0.0 and rep.pvalue == 1.0


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


def test_chi_square_refuses_a_table_that_pools_to_one_cell():
    # expected counts 2, 1, 1: the tail pools into one cell, which has no test
    with pytest.raises(ValueError, match="two cells after pooling, 1 remain"):
        chi_square([2, 1, 1], [0.5, 0.25, 0.25])
    with pytest.raises(ValueError, match="two cells after pooling, 1 remain"):
        chi_square([7], [1.0])


@pytest.mark.parametrize("pooled", [False, True], ids=["plain", "pooled"])
@pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 12, 25, 40])
def test_chi_square_matches_scipy_chi2(df, pooled):
    # equal cells of 1,000 expected counts, pushed apart so that the statistic
    # runs from 1e-3 to 400; pooled, three tail cells of 1 expected count each
    # pool into the last cell, which leaves df the same
    k = df + 1
    expected = np.full(k, 1000.0)
    shape = np.resize([1.0, -1.0], k)
    shape[-1] -= shape.sum()  # the deviations sum to 0
    for target in np.geomspace(1e-3, 400.0, 13):
        obs = expected + shape * math.sqrt(target * 1000.0 / (shape**2).sum())
        table, probs = obs, expected / expected.sum()
        if pooled:
            table = np.concatenate([obs[:-1], [obs[-1] - 3.0], [1.0, 1.0, 1.0]])
            probs = np.concatenate([expected[:-1], [997.0, 1.0, 1.0, 1.0]]) / expected.sum()
        for alpha in (0.05, 0.01, 0.005, 1e-4):
            rep = chi_square(table, probs, alpha=alpha)
            assert rep.details["df"] == df
            ref = stats.chisquare(obs, expected)
            assert rep.statistic == pytest.approx(ref.statistic, rel=1e-12)
            assert rep.pvalue == pytest.approx(stats.chi2.sf(rep.statistic, df), rel=1e-10)
            assert rep.threshold == pytest.approx(stats.chi2.isf(alpha, df), rel=1e-10)
            assert rep.accepted == (rep.statistic <= rep.threshold)


def test_chi_square_rejects_a_count_in_a_cell_of_probability_zero():
    with np.errstate(divide="ignore"):
        rep = chi_square([250, 10, 500], [0.5, 0.0, 0.5])
    assert rep.statistic == math.inf and rep.pvalue == 0.0 and not rep.accepted


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
