"""Poisson samplers: moments, thinning under a bound, finite-density laws,
and the consistency couplings (thinning, superposition) they must satisfy."""

import math

import numpy as np
import pytest
from scipy import stats

from exactpp import DensityIntensity, RngStream, SamplerError, Window
from exactpp.core import sample_homogeneous
from exactpp.poisson import TAIL_TOL, FiniteDensitySampler
from exactpp.validation import chi_square, two_sample_ks

UNIT_SQUARE = Window((0.0, 0.0), (1.0, 1.0))
LINE = Window((0.0,), (10.0,))


def _gen(seed, stream=0):
    return RngStream(seed, stream).generator()


def test_zero_rate_is_exactly_empty():
    rng = _gen(1)
    for _ in range(50):
        assert sample_homogeneous(UNIT_SQUARE, 0.0, rng).n == 0


def test_negative_rate_rejected():
    with pytest.raises(SamplerError):
        sample_homogeneous(UNIT_SQUARE, -1.0, _gen(1))


def test_homogeneous_count_moments():
    rng = _gen(2)
    counts = np.array([sample_homogeneous(UNIT_SQUARE, 5.0, rng).n for _ in range(100_000)])
    assert abs(counts.mean() - 5.0) < 0.05
    assert abs(counts.var() - 5.0) < 0.15


def test_homogeneous_points_are_uniform():
    rng = _gen(3)
    pat = sample_homogeneous(Window((0.0,), (1.0,)), 20_000.0, rng)
    assert stats.kstest(pat.points[:, 0], lambda t: np.clip(t, 0.0, 1.0)).pvalue >= 0.01


# -- thinning under a bound ----------------------------------------------------------
# DensityIntensity.sample_on thins the dominating strip (0, T] x (0, bound):
# a rate-`bound` point t with uniform height v is kept iff v < density(t).


def test_strip_with_full_rate_accepts_every_dominating_point():
    full = DensityIntensity(lambda t: np.full(t.shape, 3.0), bound=3.0)
    dominating = sample_homogeneous(LINE, 3.0, _gen(4))
    thinned = full.sample_on(LINE, _gen(4))
    assert dominating.n > 0
    assert np.array_equal(thinned.points, dominating.points)


def test_strip_with_zero_rate_accepts_nothing():
    zero = DensityIntensity(lambda t: np.zeros(t.shape), bound=3.0)
    assert sample_homogeneous(LINE, 3.0, _gen(5)).n > 0  # the dominating stream
    assert zero.sample_on(LINE, _gen(5)).n == 0


def test_strip_linear_rate_mean_count():
    # rate(t) = M t / T on (0, T]: mean accepted count is M T / 2
    M, T = 2.0, 5.0
    intensity = DensityIntensity(lambda t: M * t / T, bound=M)
    line = Window((0.0,), (T,))
    rng = _gen(6)
    counts = np.array([intensity.sample_on(line, rng).n for _ in range(20_000)])
    target = M * T / 2.0
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - target) < 4.0 * se


def test_strip_rejects_rate_above_bound():
    intensity = DensityIntensity(lambda t: np.full(t.shape, 2.0), bound=1.0)
    with pytest.raises(SamplerError, match="exceeds its declared bound"):
        intensity.sample_on(Window((0.0,), (200.0,)), _gen(8))


def test_strip_rejects_negative_rate():
    intensity = DensityIntensity(lambda t: np.full(t.shape, -0.5), bound=1.0)
    with pytest.raises(SamplerError, match="negative"):
        intensity.sample_on(Window((0.0,), (200.0,)), _gen(9))


def test_thinning_consistency_with_homogeneous_target():
    # thinning the strip at constant rate p*M must match a plain
    # homogeneous draw at rate p*M in count law and position law
    M, p, T = 4.0, 0.35, 10.0
    intensity = DensityIntensity(lambda t: np.full(t.shape, p * M), bound=M)
    line = Window((0.0,), (T,))
    rng = _gen(10)
    thinned_counts, thinned_pos = [], []
    for _ in range(10_000):
        pat = intensity.sample_on(line, rng)
        thinned_counts.append(pat.n)
        thinned_pos.append(pat.points[:, 0])
    rng2 = _gen(11)
    direct_counts, direct_pos = [], []
    for _ in range(10_000):
        pat = sample_homogeneous(line, p * M, rng2)
        direct_counts.append(pat.n)
        direct_pos.append(pat.points[:, 0])
    ks_counts = two_sample_ks(np.asarray(thinned_counts), np.asarray(direct_counts), alpha=0.01)
    ks_pos = two_sample_ks(np.concatenate(thinned_pos), np.concatenate(direct_pos), alpha=0.01)
    assert ks_counts.accepted, ks_counts.to_dict()
    assert ks_pos.accepted, ks_pos.to_dict()


def test_superposition_of_independent_poissons_is_poisson():
    lam1, lam2 = 1.5, 2.5
    rng = _gen(12)
    counts = []
    for _ in range(20_000):
        a = sample_homogeneous(UNIT_SQUARE, lam1, rng)
        b = sample_homogeneous(UNIT_SQUARE, lam2, rng)
        counts.append(a.n + b.n)
    counts = np.asarray(counts)
    lam = lam1 + lam2
    k_hi = 12
    probs = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(k_hi)]
    probs.append(1.0 - sum(probs))
    observed = np.bincount(np.minimum(counts, k_hi), minlength=k_hi + 1)
    rep = chi_square(observed, np.asarray(probs), alpha=0.01)
    assert rep.accepted, rep.to_dict()


# -- finite-density sampler ---------------------------------------------------------


def _exp_density(rate=1.0):
    return lambda t: rate * np.exp(-rate * np.asarray(t, dtype=float))


def test_finite_density_zero_density_is_empty():
    sampler = FiniteDensitySampler(
        lambda t: np.zeros_like(np.asarray(t, dtype=float)), 1.0, upper=1.0
    )
    assert sampler.sample(_gen(13)).n == 0


def test_finite_density_exponential_mean_and_positions():
    sampler = FiniteDensitySampler(
        _exp_density(), 1.0, tail_mass=lambda t: math.exp(-t), total_mass=1.0
    )
    assert sampler.total_mass == pytest.approx(1.0)
    rng = _gen(14)
    draws = [sampler.sample(rng).points[:, 0] for _ in range(40_000)]
    counts = np.array([d.size for d in draws])
    assert abs(counts.mean() - 1.0) < 4.0 / math.sqrt(counts.size)
    pos = np.concatenate(draws)
    # exact thinning: positions are Exp(1) with no discretisation allowance
    p = stats.kstest(pos, lambda t: -np.expm1(-np.clip(t, 0.0, None))).pvalue
    assert p >= 0.01, p


def test_finite_density_mass_is_the_tail_at_zero_or_not_computed():
    # a tail gives the mass, tail_mass(0); a support endpoint alone leaves it
    # unknown, finite (at most bound * upper) and unneeded
    tail = lambda t: 3.0 * math.exp(-2.0 * t)
    tailed = FiniteDensitySampler(lambda t: 3.0 * _exp_density(2.0)(t), 6.0, tail_mass=tail)
    assert tailed.total_mass == 3.0
    assert tail(tailed.upper) <= TAIL_TOL * 3.0
    assert FiniteDensitySampler(_exp_density(), 1.0, upper=5.0).total_mass is None


def test_finite_density_one_shot_draw_matches_mass():
    pat = FiniteDensitySampler(
        _exp_density(2.0), 2.0, tail_mass=lambda t: math.exp(-2.0 * t)
    ).sample(_gen(15))
    assert pat.dim == 1
    assert np.all(pat.points >= 0.0)


def test_finite_density_above_bound_rejected():
    sampler = FiniteDensitySampler(
        lambda t: np.full_like(np.asarray(t, dtype=float), 2.0), 1.0, upper=10.0
    )
    with pytest.raises(SamplerError, match="exceeds its declared bound"):
        sampler.sample(_gen(17))


def test_finite_density_requires_support_information():
    with pytest.raises(SamplerError, match="support endpoint|tail mass"):
        FiniteDensitySampler(_exp_density(), 1.0)


def test_finite_density_divergent_mass_rejected():
    with pytest.raises(SamplerError, match="diverges"):
        FiniteDensitySampler(
            lambda t: np.ones_like(np.asarray(t, dtype=float)),
            1.0,
            total_mass=math.inf,
            upper=1.0,
        )


def test_finite_density_negative_density_rejected():
    # positive total mass, negative below t = 1/4: caught when a draw meets it
    sampler = FiniteDensitySampler(lambda t: np.asarray(t, dtype=float) - 0.25, 50.0, upper=1.0)
    with pytest.raises(SamplerError, match="negative"):
        sampler.sample(_gen(18))


def test_finite_density_reuse_is_deterministic():
    sampler = FiniteDensitySampler(_exp_density(), 1.0, tail_mass=lambda t: math.exp(-t))
    rng_a, rng_b = _gen(16), _gen(16)
    a = np.concatenate([sampler.sample(rng_a).points for _ in range(20)])
    b = np.concatenate([sampler.sample(rng_b).points for _ in range(20)])
    assert a.size > 0
    assert np.array_equal(a, b)
