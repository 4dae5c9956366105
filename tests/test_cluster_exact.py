"""Retention thinning and window-conditioned clusters: closed-form retention
values, the zero-truncated Poisson law of a kept germ's in-window points and
their uniform positions, and the thinned-germ Poisson structure of the full
sampler."""

import math

import numpy as np
import pytest
from scipy import stats

from exactpp import (
    BrixKendallSampler,
    LebesgueIntensity,
    PointPattern,
    RngStream,
    SamplerError,
    TranslatedPoissonCluster,
    UniformDisplacement,
    Window,
)
from exactpp.validation import chi_square, mean_ci

W10 = Window((0.0,), (10.0,))
DISP = UniformDisplacement((-0.5,), (0.5,))


def _gen(seed, stream=0):
    return RngStream(seed, stream).generator()


def _kernel(mean):
    return TranslatedPoissonCluster(total_mean=mean, displacement=DISP)


def _conditioned(kernel, germs, window, rng):
    corners = kernel.displacement.overlap(germs, window)
    return kernel.sample_conditioned(corners, kernel.mass_in(germs, window), rng)


# -- retention probability ------------------------------------------------------


def test_retention_closed_form_values():
    # an interior germ has full displacement overlap, so p = 1 - e^{-mean}
    x = np.array([[5.0]])
    assert _kernel(1e-12).retention(x, W10)[0] == pytest.approx(0.0, abs=1e-11)
    assert _kernel(math.log(2.0)).retention(x, W10)[0] == pytest.approx(0.5)
    assert _kernel(1.0).retention(x, W10)[0] == pytest.approx(1.0 - math.exp(-1.0))


def test_retention_vanishes_out_of_reach():
    xs = np.array([[-0.6], [10.6], [100.0]])
    assert np.all(_kernel(2.0).retention(xs, W10) == 0.0)


def test_retention_monotone_in_the_window():
    xs = np.linspace(-1.0, 11.0, 241)[:, None]
    small = Window((2.0,), (8.0,))
    p_small = _kernel(2.0).retention(xs, small)
    p_big = _kernel(2.0).retention(xs, W10)
    assert np.all(p_small <= p_big + 1e-15)


def test_retention_monotone_in_cluster_mean():
    xs = np.linspace(-0.5, 10.5, 101)[:, None]
    p1 = _kernel(1.0).retention(xs, W10)
    p2 = _kernel(2.0).retention(xs, W10)
    assert np.all(p1 <= p2 + 1e-15)


# -- conditioned clusters --------------------------------------------------------


def _ztp_size_report(kernel, germ, lam, n, seed):
    # chi-square of the in-W sizes at n copies of one germ against ZTP(lam)
    _, sizes = _conditioned(kernel, np.tile(germ, (n, 1)), W10, _gen(seed))
    k_hi = 7
    norm = -math.expm1(-lam)
    probs = np.array([math.exp(-lam) * lam**k / math.factorial(k) / norm for k in range(1, k_hi)])
    probs = np.append(probs, 1.0 - probs.sum())
    observed = np.bincount(np.minimum(sizes, k_hi), minlength=k_hi + 1)[1:]
    return chi_square(observed, probs, alpha=0.01)


def test_conditioned_size_is_zero_truncated_poisson_for_an_interior_germ():
    # full overlap: the in-W size is ZTP(mean) = ZTP(1)
    rep = _ztp_size_report(_kernel(1.0), [5.0], 1.0, 100_000, 21)
    assert rep.accepted, rep.to_dict()


def test_conditioned_size_is_zero_truncated_poisson_for_a_half_overlapping_germ():
    # germ at 0 reaches [-1/2, 1/2]: q = 1/2, so the in-W size is ZTP(3 * 1/2)
    rep = _ztp_size_report(_kernel(3.0), [0.0], 1.5, 100_000, 22)
    assert rep.accepted, rep.to_dict()


def test_conditioned_positions_are_uniform_on_the_overlap():
    points, _ = _conditioned(_kernel(3.0), np.zeros((20_000, 1)), W10, _gen(23))
    p = stats.kstest(points[:, 0], lambda t: np.clip(t / 0.5, 0.0, 1.0)).pvalue
    assert p >= 0.01, p


def test_conditioned_cluster_always_hits_the_window():
    n = 500
    points, sizes = _conditioned(_kernel(0.5), np.zeros((n, 1)), W10, _gen(24))
    assert sizes.shape == (n,) and np.all(sizes >= 1) and sizes.sum() == len(points)
    assert np.all(W10.contains(points))


def test_germ_at_the_edge_of_reach_gets_exactly_one_point():
    # overlap 1e-12: conditioning probability ~2e-12, which has a law to sample
    germs = np.full((1_000, 1), -0.5 + 1e-12)
    points, sizes = _conditioned(_kernel(2.0), germs, W10, _gen(25))
    assert np.array_equal(sizes, np.ones(1_000))
    assert np.all(W10.contains(points))


def test_germ_out_of_reach_cannot_be_conditioned():
    with pytest.raises(SamplerError, match="misses the window"):
        _conditioned(_kernel(2.0), np.array([[5.0], [50.0]]), W10, _gen(26))


@pytest.mark.parametrize(
    "window,disp",
    [
        (W10, DISP),
        (Window((0.0, 0.0), (3.0, 3.0)), UniformDisplacement((-0.5, -0.5), (0.5, 0.5))),
    ],
)
def test_conditioned_points_never_leave_the_window(window, disp):
    # germs across the whole germ region, its edges included
    kernel = TranslatedPoissonCluster(total_mean=2.0, displacement=disp)
    region = kernel.germ_region(window)
    rng = _gen(27)
    germs = region.sample_uniform(5_000, rng)
    germs = germs[kernel.mass_in(germs, window) > 0]
    edge = np.array(region.lower) + 1e-12
    points, _ = _conditioned(kernel, np.vstack([germs, edge]), window, rng)
    assert points.shape[0] > germs.shape[0]
    assert np.all(window.contains(points))


# -- the full sampler -------------------------------------------------------------


def test_unbounded_germ_is_refused():
    with pytest.raises(SamplerError, match="germ rate is not finite"):
        BrixKendallSampler(LebesgueIntensity(math.inf, 1), _kernel(2.0), W10)


def test_zero_germ_rate_gives_empty_patterns():
    sampler = BrixKendallSampler(LebesgueIntensity(0.0, 1), _kernel(2.0), W10)
    rng = _gen(24)
    for _ in range(20):
        assert sampler.sample(rng).n == 0


def test_thinned_germ_count_is_poisson():
    # rate 1 germ, Poisson(2) clusters, U(-1/2,1/2) displacement, W = [0,10]:
    # the retained-germ count must be Poisson with mean the integral of
    # 1 - e^{-2 overlap(x)} over [-1/2, 10.5], 8(1-e^{-2}) + 2; the mean
    # matches and the dispersion index sits at 1
    sampler = BrixKendallSampler(LebesgueIntensity(1.0, 1), _kernel(2.0), W10)
    rng = _gen(25)
    counts = np.array([sampler._retained_germs(rng)[0].shape[0] for _ in range(20_000)])
    mean, half = mean_ci(counts, z=4.0)
    assert abs(mean - (8.0 * (1.0 - math.exp(-2.0)) + 2.0)) < half
    dispersion = counts.var(ddof=1) / counts.mean()
    # Var of the dispersion index of a Poisson sample is ~ 2/n
    assert abs(dispersion - 1.0) < 4.0 * math.sqrt(2.0 / counts.size)


def test_retained_germs_live_in_the_germ_region():
    sampler = BrixKendallSampler(LebesgueIntensity(1.0, 1), _kernel(2.0), W10)
    rng = _gen(26)
    germs = np.concatenate(
        [sampler._retained_germs(rng)[0][:, 0] for _ in range(200)]
    )
    assert germs.min() >= -0.5 - 1e-12
    assert germs.max() <= 10.5 + 1e-12


def test_retained_germs_carry_their_window_mass():
    # the lam that thinned each germ is the lam its cluster is conditioned with
    sampler = BrixKendallSampler(LebesgueIntensity(1.0, 1), _kernel(2.0), W10)
    rng = _gen(30)
    for _ in range(50):
        germs, lam, (lo, hi), _ = sampler._retained_germs(rng)
        assert np.array_equal(lam, sampler.kernel.mass_in(germs, W10))
        assert np.array_equal(lo, np.maximum(germs - 0.5, 0.0))
        assert np.array_equal(hi, np.minimum(germs + 0.5, 10.0))


def test_mean_window_count_matches_intensity():
    # E[N(W)] = rate * cluster mean * |W| = 1 * 2 * 10 = 20
    rng = _gen(27)
    sampler = BrixKendallSampler(LebesgueIntensity(1.0, 1), _kernel(2.0), W10)
    counts = np.array([sampler.sample(rng).n for _ in range(4_000)])
    mean, half = mean_ci(counts, z=4.0)
    assert abs(mean - 20.0) < half


def test_every_point_lies_inside_the_window():
    rng = _gen(28)
    for _ in range(40):
        pat = BrixKendallSampler(LebesgueIntensity(1.0, 1), _kernel(2.0), W10).sample(rng)
        assert pat.dim == 1
        assert np.all(W10.contains(pat.points))


def test_two_dimensional_mean_window_count_matches_intensity():
    window = Window((0.0, 0.0), (3.0, 3.0))
    disp = UniformDisplacement((-0.5, -0.5), (0.5, 0.5))
    kernel = TranslatedPoissonCluster(total_mean=2.0, displacement=disp)
    sampler = BrixKendallSampler(LebesgueIntensity(1.0, 2), kernel, window)
    rng = _gen(29)
    counts = np.array([sampler.sample(rng).n for _ in range(3_000)])
    mean, half = mean_ci(counts, z=4.0)
    assert abs(mean - 2.0 * window.volume()) < half


def test_dimension_mismatch_rejected():
    with pytest.raises(SamplerError, match="dimension mismatch"):
        BrixKendallSampler(LebesgueIntensity(1.0, 1), _kernel(2.0), Window((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(SamplerError, match="dimension mismatch"):  # the germ's, at build
        BrixKendallSampler(LebesgueIntensity(1.0, 2), _kernel(2.0), W10)

