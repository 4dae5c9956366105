"""Fixed-point operator, certified sandwich, single-ancestor clusters, and the
perfect self-exciting sampler built on them."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from exactpp import (
    ExponentialFertility,
    HawkesSampler,
    PhiOperator,
    PiecewiseConstantFertility,
    PolynomialFertility,
    RngStream,
    SamplerError,
    build_sandwich,
    sample_gw_cluster,
)
from exactpp.hawkes_mr import _next_fast_len
from exactpp.oracles import hawkes_exp_burn_in
from exactpp.validation import chi_square, mean_ci, two_sample_ks

KERNEL = ExponentialFertility(0.5, 1.0)  # rho = 0.5, nu_inf = 0.5
ZERO_KERNEL = PiecewiseConstantFertility((0.0, 1.0), (0.0,))  # h == 0, rho = 0


def _gen(seed, stream=0):
    return RngStream(seed, stream).generator()


# -- kernel families ------------------------------------------------------------


def test_exponential_kernel_scalars():
    k = ExponentialFertility(0.5, 1.0)
    assert k.rho == pytest.approx(0.5)
    assert k.mean_cluster_size() == pytest.approx(2.0)
    assert k.nu_inf(1.0) == pytest.approx(0.5)
    assert k.nu_inf(2.0) == pytest.approx(1.0)
    assert float(k.h(0.3, 1.0)) == pytest.approx(0.5 * math.exp(-0.3))
    assert float(k.h(-0.1, 1.0)) == 0.0
    assert float(k.nu(50.0, 1.0)) == pytest.approx(0.5, abs=1e-12)


def test_polynomial_kernel_scalars():
    # h0(t) = 0.3 (1 - t) on [0, 1]: mass 0.15
    k = PolynomialFertility((0.3, -0.3), 1.0)
    assert k.rho == pytest.approx(0.15)
    assert float(k.h(0.5, 1.0)) == pytest.approx(0.15)
    assert float(k.h(2.0, 1.0)) == 0.0
    assert float(k.nu(1.0, 1.0)) == pytest.approx(0.15)
    with pytest.raises(SamplerError, match="negative on its support"):
        PolynomialFertility((0.1, -1.0), 1.0)


def test_piecewise_kernel_scalars():
    k = PiecewiseConstantFertility((0.0, 1.0, 3.0), (0.4, 0.1))
    assert k.rho == pytest.approx(0.4 + 0.2)
    assert float(k.h(0.5, 1.0)) == pytest.approx(0.4)
    assert float(k.h(2.0, 1.0)) == pytest.approx(0.1)
    assert float(k.h(3.5, 1.0)) == 0.0
    assert float(k.nu(2.0, 1.0)) == pytest.approx(0.5)
    with pytest.raises(SamplerError, match="start at t=0"):
        PiecewiseConstantFertility((1.0, 2.0), (0.1,))
    with pytest.raises(SamplerError, match="strictly increasing"):
        PiecewiseConstantFertility((0.0, 0.0), (0.1,))
    with pytest.raises(SamplerError, match="nonnegative value per cell"):
        PiecewiseConstantFertility((0.0, 1.0), (-0.1,))


def test_supercritical_kernel_rejected():
    with pytest.raises(SamplerError, match="supercritical, no finite clusters"):
        ExponentialFertility(2.0, 1.0)


def test_mark_mixture_validation():
    with pytest.raises(SamplerError, match="sum to one"):
        ExponentialFertility(0.5, 1.0, marks=((0.5, 1.0), (0.4, 2.0)))
    with pytest.raises(SamplerError, match="positive weights"):
        ExponentialFertility(0.5, 1.0, marks=((-0.5, 1.0), (1.5, 2.0)))
    k = ExponentialFertility(0.5, 1.0, marks=((0.6, 0.5), (0.4, 1.2)))
    assert k.rho == pytest.approx(0.5 * (0.6 * 0.5 + 0.4 * 1.2))


@pytest.mark.parametrize(
    "marks",
    [((1.0, 1.0),), ((0.3, 0.5), (0.7, 1.0)), ((0.2, 0.1), (0.5, 0.6), (0.3, 1.2))],
)
@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_sample_mark_matches_generator_choice(marks, n):
    # the precomputed CDF gives the marks of Generator.choice(p=) and leaves
    # the generator in the same state
    k = ExponentialFertility(0.5, 1.0, marks=marks)
    w = np.array([w for w, _ in marks])
    zs = np.array([z for _, z in marks])
    rng_k, rng_c = _gen(110), _gen(110)
    assert np.array_equal(k.sample_mark(n, rng_k), zs[rng_c.choice(zs.size, size=n, p=w / w.sum())])
    assert rng_k.random() == rng_c.random()


# -- the operator ------------------------------------------------------------------


def test_operator_value_at_zero_is_the_no_offspring_probability():
    # Phi(f)(0) = sum_j w_j exp(-nu_inf(z_j)) for EVERY f: at t = 0 the
    # integral term is empty, leaving exactly the probability of a childless
    # ancestor (the fixed point E has E(0) = P(no offspring))
    step, n = 0.01, 512
    expected = math.exp(-0.5)
    op = PhiOperator(KERNEL, step, n)
    for f in (np.zeros(n), np.ones(n), np.linspace(0.0, 1.0, n) ** 2):
        out = op.apply(f, "nearest")
        assert out[0] == pytest.approx(expected, abs=1e-12)

    marked = ExponentialFertility(0.5, 1.0, marks=((0.6, 0.5), (0.4, 1.2)))
    expected_marked = 0.6 * math.exp(-0.5 * 0.5) + 0.4 * math.exp(-0.5 * 1.2)
    out = PhiOperator(marked, step, n).apply(np.ones(n), "nearest")
    assert out[0] == pytest.approx(expected_marked, abs=1e-12)


def test_operator_is_a_contraction_with_modulus_rho():
    step, n = 0.01, 1024
    op = PhiOperator(KERNEL, step, n)
    rng = _gen(81)
    for _ in range(25):
        f = rng.random(n)
        g = rng.random(n)
        lhs = np.max(np.abs(op.apply(f, "nearest") - op.apply(g, "nearest")))
        rhs = KERNEL.rho * np.max(np.abs(f - g))
        assert lhs <= rhs + 1e-9


def test_operator_is_monotone():
    step, n = 0.01, 1024
    op = PhiOperator(KERNEL, step, n)
    rng = _gen(82)
    for _ in range(10):
        f = np.sort(rng.random(n))
        g = np.clip(f + rng.random(n) * 0.2, 0.0, 1.0)
        assert np.all(op.apply(f, "nearest") <= op.apply(g, "nearest") + 1e-12)


def test_directed_rounding_brackets_the_midpoint():
    step, n = 0.01, 1024
    op = PhiOperator(KERNEL, step, n)
    f = np.sort(_gen(83).random(n))  # CDF-like input
    down = op.apply(f, "down")
    near = op.apply(f, "nearest")
    up = op.apply(f, "up")
    assert np.all(down <= near + 1e-15)
    assert np.all(near <= up + 1e-15)


def test_fft_length_matches_scipy():
    from scipy import fft

    # the grids over t_max = 120 that the demo config and the tests build, at
    # step 1e-2 down to the third halving of step 1e-3 (smaller ones are in range)
    steps = (1e-2, 2e-3, 1e-3, 5e-4, 2.5e-4, 1.25e-4)
    grids = [math.ceil(120.0 / step) + 1 for step in steps]
    for target in [*range(2, 20_001), *(2 * n - 2 for n in grids)]:
        assert _next_fast_len(target) == fft.next_fast_len(target), target


def test_operator_quadratures_match_direct_convolution():
    # I_up[i] = sum_{k<i} f[i-k] dnu_k and I_down[i] = sum_{k<i} f[i-1-k] dnu_k:
    # per cell [tau_k, tau_k+1], the kernel mass times f at its two end nodes
    step, n = 0.01, 500
    kernels = (
        ExponentialFertility(0.5, 1.0, marks=((0.6, 0.5), (0.4, 1.2))),
        PolynomialFertility((0.3, -0.3), 1.0),
    )
    f = np.sort(_gen(84).random(n))
    for kernel in kernels:
        op = PhiOperator(kernel, step, n)
        expected = {"down": np.zeros(n), "up": np.zeros(n)}
        for w, z in kernel.components():
            dnu = np.diff(kernel.nu(op.taus, z))
            i_down = np.concatenate([[0.0], np.convolve(f, dnu)[: n - 1]])
            i_up = np.concatenate([[0.0], np.convolve(f[1:], dnu)[: n - 1]])
            for rounding, integral in (("down", i_down), ("up", i_up)):
                expected[rounding] += w * np.exp(np.minimum(-kernel.nu_inf(z) + integral, 0.0))
        for rounding, sign in (("down", -1.0), ("up", 1.0)):
            want = np.clip(expected[rounding] + sign * op.eps, 0.0, 1.0)
            assert np.max(np.abs(op.apply(f, rounding) - want)) <= 1e-12


def test_operator_rejects_out_of_range_grid_functions():
    op = PhiOperator(KERNEL, 0.01, 64)
    with pytest.raises(SamplerError, match=r"values in \[0, 1\]"):
        op.apply(np.full(64, 1.5), "nearest")
    with pytest.raises(SamplerError, match="wrong length"):
        op.apply(np.zeros(32), "nearest")


def test_coarse_grid_is_refused():
    with pytest.raises(SamplerError, match="grid too coarse"):
        build_sandwich(
            ExponentialFertility(0.45, 0.5), step=5.0, t_max=20.0, quad_tol=0.1
        )


# -- the sandwich -------------------------------------------------------------------


@pytest.fixture(scope="module")
def sandwich():
    return build_sandwich(KERNEL, tol=1e-3, step=1e-3)


def test_sandwich_reaches_tolerance_with_certificates(sandwich):
    assert sandwich.gap <= 1e-3
    assert all(sandwich.cert_ok), "some iteration broke the geometric certificate"
    assert sandwich.meta["cert_iterations"] >= 1
    assert sandwich.meta["n_at_tol"] == sandwich.n


def test_sandwich_bounds_are_valid_tail_brackets(sandwich):
    b = sandwich.bounds()
    assert np.all(b.ell >= -1e-15) and np.all(b.upp <= 1.0 + 1e-15)
    assert np.all(b.ell <= b.upp + 1e-15)
    # tails of a distribution are nonincreasing
    assert np.all(np.diff(b.ell) <= 1e-15)
    assert np.all(np.diff(b.upp) <= 1e-15)
    assert b.taus[0] == 0.0
    # at t = 0 the tail is 1 - P(no offspring)
    tail0 = 1.0 - math.exp(-0.5)
    assert b.ell[0] <= tail0 <= b.upp[0]


def test_sandwich_certificate_formula(sandwich):
    rho = KERNEL.rho
    for n in (0, 1, 5, sandwich.n):
        assert sandwich.certificate_bound(n) == pytest.approx(
            rho**n / (1.0 - rho) * sandwich.gap0
        )
    assert sandwich.gap <= sandwich.certificate_bound(sandwich.n)


def test_sandwich_advance_only_tightens():
    sw = build_sandwich(KERNEL, tol=5e-2, step=2e-3)
    before = sw.bounds()
    sw.advance(2)
    after = sw.bounds()
    assert np.all(after.ell >= before.ell - 1e-15)
    assert np.all(after.upp <= before.upp + 1e-15)
    assert sw.gap <= sw.gaps[-3] + 1e-15


def test_sandwich_bounds_are_built_once_per_iterate():
    sw = build_sandwich(KERNEL, tol=5e-2, step=2e-3)
    b = sw.bounds()
    assert sw.bounds() is b
    assert np.array_equal(b.ell, 1.0 - sw.e_hi) and np.array_equal(b.upp, 1.0 - sw.e_lo)
    sw.advance(1)
    after = sw.bounds()
    assert after is not b and sw.bounds() is after and after.n == sw.n == b.n + 1
    assert np.array_equal(after.ell, 1.0 - sw.e_hi) and np.array_equal(after.upp, 1.0 - sw.e_lo)
    for arr in (b.ell, b.upp, after.ell, after.upp):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5


def test_sandwich_near_fixed_point_residual(sandwich):
    # the upper CDF path is an approximate fixed point: one more application
    # moves it by no more than the (contracted) gap plus rounding
    e_hi = sandwich.e_hi
    moved = sandwich.phi.apply(e_hi, "nearest") - e_hi
    assert np.max(np.abs(moved)) <= (1.0 + KERNEL.rho) * sandwich.gap + 1e-8


def test_sandwich_iteration_budget_is_enforced():
    with pytest.raises(SamplerError, match="did not reach tolerance"):
        build_sandwich(KERNEL, tol=1e-9, n_max=3, step=2e-3)


def test_zero_excitation_sandwich_collapses_immediately():
    sw = build_sandwich(ZERO_KERNEL, tol=1e-3, step=0.01, t_max=5.0)
    b = sw.bounds()
    assert np.all(b.upp <= 5e-10)  # the tail of a point mass at 0
    assert sw.gap <= 5e-10


# -- single-ancestor clusters ----------------------------------------------------


def test_zero_excitation_cluster_is_the_bare_ancestor():
    rng = _gen(84)
    for _ in range(20):
        cl = sample_gw_cluster(ZERO_KERNEL, 3.0, rng)
        assert cl.n == 1
        assert cl.extinction_time == 0.0
        assert cl.points[0] == 3.0
        assert cl.generations.tolist() == [0]


def test_cluster_mean_size_is_the_geometric_series():
    rng = _gen(85)
    sizes = np.array([sample_gw_cluster(KERNEL, 0.0, rng).n for _ in range(30_000)])
    mean, half = mean_ci(sizes, z=4.0)
    assert abs(mean - 2.0) < half  # 1 / (1 - rho)


def test_cluster_offsets_are_nonnegative_and_generations_consistent():
    rng = _gen(86)
    for _ in range(200):
        cl = sample_gw_cluster(KERNEL, 1.5, rng)
        assert np.all(cl.offsets >= 0.0)
        assert cl.generations[0] == 0
        assert np.all(np.diff(np.unique(cl.generations)) == 1)
        assert cl.extinction_time == pytest.approx(float(np.max(cl.offsets)))


def test_first_generation_is_poisson_per_ancestor_mark():
    kernel = ExponentialFertility(0.5, 1.0, marks=((0.5, 0.4), (0.5, 1.2)))
    rng = _gen(87)
    per_mark = {0.4: [], 1.2: []}
    for _ in range(8_000):
        cl = sample_gw_cluster(kernel, 0.0, rng)
        per_mark[round(cl.ancestor_mark, 6)].append(int(np.sum(cl.generations == 1)))
    for z, counts in per_mark.items():
        lam = kernel.nu_inf(z)
        counts = np.asarray(counts)
        k_hi = 4
        probs = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(k_hi)]
        probs.append(1.0 - sum(probs))
        observed = np.bincount(np.minimum(counts, k_hi), minlength=k_hi + 1)
        rep = chi_square(observed, np.asarray(probs), alpha=0.005)
        assert rep.accepted, (z, rep.to_dict())


def test_cluster_point_cap_guards_near_critical_growth():
    kernel = ExponentialFertility(0.9, 1.0)
    rng = _gen(88)
    with pytest.raises(SamplerError, match="cluster exceeded"):
        for _ in range(500):
            sample_gw_cluster(kernel, 0.0, rng, point_cap=5)


def test_forest_extinction_times_match_single_clusters():
    n = 20_000
    forest = sample_gw_cluster(KERNEL, np.zeros(n), _gen(101))
    rng = _gen(102)
    single = np.array([sample_gw_cluster(KERNEL, 0.0, rng).extinction_time for _ in range(n)])
    rep = two_sample_ks(forest.extinction_time, single, alpha=0.01)
    assert rep.accepted, rep.to_dict()


def test_forest_bookkeeping_per_root():
    kernel = ExponentialFertility(0.5, 1.0, marks=((0.5, 0.4), (0.5, 1.2)))
    roots = np.linspace(-3.0, 3.0, 400)
    cl = sample_gw_cluster(kernel, roots, _gen(103))
    # every root appears once, at generation 0, owning itself
    gen0 = cl.generations == 0
    assert np.array_equal(cl.points[gen0], roots)
    assert np.array_equal(cl.owner[gen0], np.arange(roots.size))
    assert np.array_equal(cl.ancestor, roots)
    assert cl.ancestor_mark.shape == roots.shape
    # each root's extinction time is the largest offset in its owner group
    offsets = cl.offsets
    assert np.all(offsets >= 0.0)
    for i in range(roots.size):
        assert cl.extinction_time[i] == np.max(offsets[cl.owner == i])
    # a scalar ancestor and a one-element array draw the same clusters
    one = sample_gw_cluster(kernel, np.array([1.5]), _gen(104))
    scalar = sample_gw_cluster(kernel, 1.5, _gen(104))
    assert np.array_equal(one.points, scalar.points)
    assert one.extinction_time[0] == scalar.extinction_time


def test_point_cap_counts_the_whole_call():
    # ten bare ancestors: the cap covers all of them together, roots included
    assert sample_gw_cluster(ZERO_KERNEL, np.zeros(10), _gen(105), point_cap=10).n == 10
    with pytest.raises(SamplerError, match="cluster exceeded 9 points"):
        sample_gw_cluster(ZERO_KERNEL, np.zeros(10), _gen(105), point_cap=9)


# -- the perfect sampler ------------------------------------------------------------


@pytest.fixture(scope="module")
def sampler():
    return HawkesSampler(KERNEL, mu=1.0, a=10.0, tol=1e-3, step=1e-3)


def test_sampler_audit_trail(sampler):
    meta = sampler.meta
    assert meta["candidate_mass"] > 0.0
    assert meta["tail_audit_ok"], "assumed-decay tail bound failed its audit"
    # the moment audit is the assumption-free (Markov) fallback: coarse by
    # design, it only has to rule out a grossly undersized horizon
    assert meta["tail_bound_moment"] < 0.1
    assert meta["gap_at_tol"] <= 1e-3


def test_sampler_draws_live_in_the_window(sampler):
    rng = _gen(89)
    for _ in range(50):
        pat = sampler.sample(rng)
        assert pat.dim == 1
        if pat.n:
            assert pat.points.min() >= 0.0
            assert pat.points.max() <= 10.0
            assert np.all(np.diff(pat.points[:, 0]) >= 0.0)


def test_sampler_mean_count(sampler):
    # stationary rate mu/(1-rho) = 2, window length 10
    rng = _gen(90)
    counts = np.array([sampler.sample(rng).n for _ in range(2_000)])
    mean, half = mean_ci(counts, z=4.0)
    assert abs(mean - 20.0) < half


def test_sampler_matches_burn_in_oracle(sampler):
    rng = _gen(91)
    exact = np.array([sampler.sample(rng).n for _ in range(1_200)])
    rng2 = _gen(92)
    burn = 60.0 / (KERNEL.gamma * (1.0 - KERNEL.rho))
    oracle = np.array(
        [hawkes_exp_burn_in(KERNEL, 1.0, 10.0, burn, rng2).n for _ in range(1_200)]
    )
    rep = two_sample_ks(exact, oracle, alpha=0.01)
    assert rep.accepted, rep.to_dict()


def test_sampler_is_deterministic_per_stream(sampler):
    a = sampler.sample(_gen(93))
    b = sampler.sample(_gen(93))
    assert np.array_equal(a.points, b.points)


def test_deep_copy_keeps_the_bounds_read_only(sampler):
    twin = copy.deepcopy(sampler)
    b = twin.sandwich.bounds()
    for arr in (b.ell, b.upp):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5
    for r in range(20):
        mine = twin.sample(_gen(112, r))
        assert mine.points.tobytes() == sampler.sample(_gen(112, r)).points.tobytes()


def test_tolerance_band_never_needs_the_fallback(sampler):
    rng = _gen(94)
    before = sampler.stats["fallback_coins"]
    for _ in range(300):
        sampler.sample(rng)
    assert sampler.stats["fallback_coins"] == before


def test_conditioned_clusters_match_single_cluster_rejection(sampler):
    # the batched rounds give each candidate the law of the first cluster
    # that outlives its t in a plain one-cluster-at-a-time loop
    ts = np.array([0.3, 1.0, 2.5])
    lower = sampler.sandwich.bounds().lower_at(ts)
    rng = _gen(106)
    batched = [
        sampler._conditioned_cluster(ts, lower, np.zeros(ts.size, dtype=bool), rng)
        for _ in range(3_000)
    ]
    rng = _gen(107)

    def first_outliving(t):
        while True:
            cl = sample_gw_cluster(KERNEL, 0.0, rng)
            if cl.extinction_time > t:
                return -t + cl.points

    looped = [np.concatenate([first_outliving(t) for t in ts]) for _ in range(3_000)]
    for stat in (len, np.max):  # points per call; the last point of a call
        rep = two_sample_ks(
            np.array([stat(p) for p in batched]), np.array([stat(p) for p in looped]), alpha=0.01
        )
        assert rep.accepted, (stat, rep.to_dict())


def test_conditioned_cluster_rejection_is_capped(sampler):
    # a claimed lower bound of 1 caps the rejection at 60 attempts, far too
    # few for a cluster to outlive t = 60
    with pytest.raises(SamplerError, match="exhausted 60 attempts at distance 60"):
        sampler._conditioned_cluster(np.array([60.0]), np.ones(1), np.zeros(1, dtype=bool), _gen(108))


def test_draws_allocate_nothing_the_size_of_the_grid(sampler):
    # without an advance or a refinement a draw only looks up its candidates
    grid_bytes = sampler.sandwich.phi.n_nodes * 8
    state = (sampler.sandwich.n, sampler.stats["grid_levels_built"])
    rng = _gen(109)
    tracemalloc.start()
    try:
        for _ in range(50):
            sampler.sample(rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (sampler.sandwich.n, sampler.stats["grid_levels_built"]) == state
    assert peak < grid_bytes / 4, (peak, grid_bytes)


def test_zero_excitation_sampler_is_poisson():
    s = HawkesSampler(ZERO_KERNEL, mu=2.0, a=3.0, tol=1e-3, step=0.01, t_max=5.0)
    rng = _gen(95)
    counts = np.array([s.sample(rng).n for _ in range(2_000)])
    lam = 6.0
    k_hi = 14
    probs = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(k_hi)]
    probs.append(1.0 - sum(probs))
    observed = np.bincount(np.minimum(counts, k_hi), minlength=k_hi + 1)
    rep = chi_square(observed, np.asarray(probs), alpha=0.01)
    assert rep.accepted, rep.to_dict()


def test_refinement_halves_the_grid_but_freezes_the_envelope():
    s = HawkesSampler(KERNEL, mu=1.0, a=5.0, tol=1e-3, step=2e-3)
    env_step = s._env_step
    env_mass = s._env_mass
    step0 = s.sandwich.phi.step
    s._refine_grid()
    assert s.sandwich.phi.step == pytest.approx(step0 / 2.0)
    assert s._env_step == env_step
    assert s._env_mass == env_mass
    assert s.stats["grid_levels_built"] == 1


def test_refinement_budget_is_spent_once_per_sampler():
    # a sandwich frozen at n = 0 leaves every score between its bounds stuck;
    # repeated draws may halve the grid once in all, not once each
    s = HawkesSampler(KERNEL, mu=1.0, a=2.0, tol=0.45, n_max=0, step=1 / 64, t_max=8.0, refine_levels=1)
    n0 = s.sandwich.phi.n_nodes
    ts = np.linspace(0.1, 4.0, 20)
    for _ in range(4):
        b = s.sandwich.bounds()
        lo, up = b.lower_at(ts), b.upper_at(ts)
        assert np.all(lo < up)
        _, unresolved, _ = s._classify(ts, 0.5 * (lo + up))
        assert unresolved.all()
        assert s.stats["grid_levels_built"] <= 1
        assert s.sandwich.phi.n_nodes <= 2 * (n0 - 1) + 1
    assert s.stats["grid_levels_built"] == 1


def test_variable_immigrant_intensity_needs_a_bound():
    with pytest.raises(SamplerError, match="needs mu_bound"):
        HawkesSampler(KERNEL, mu=lambda t: 1.0, a=5.0)
    with pytest.raises(SamplerError, match="window length"):
        HawkesSampler(KERNEL, mu=1.0, a=0.0)
    with pytest.raises(SamplerError, match="classify_fallback"):
        HawkesSampler(KERNEL, mu=1.0, a=5.0, classify_fallback="guess")


def test_variable_immigrant_intensity_halves_the_rate():
    # mu(t) = 1 on [0, a) modulated to 0.5 via thinning against bound 1
    s = HawkesSampler(
        ZERO_KERNEL,
        mu=lambda t: np.full(np.asarray(t).shape, 0.5),
        a=4.0,
        mu_bound=1.0,
        tol=1e-3,
        step=0.01,
        t_max=5.0,
    )
    rng = _gen(96)
    counts = np.array([s.sample(rng).n for _ in range(2_000)])
    mean, half = mean_ci(counts, z=4.0)
    assert abs(mean - 2.0) < half


def test_unresolved_candidates_raise_in_error_mode():
    # a sandwich frozen at a wide gap (n_max = 0) cannot classify anything:
    # error mode must report the offending points, coin mode must resolve them
    kwargs = dict(mu=3.0, a=2.0, tol=0.45, n_max=0, step=0.01, t_max=20.0, refine_levels=0)
    strict = HawkesSampler(KERNEL, classify_fallback="error", **kwargs)
    with pytest.raises(SamplerError, match="left unclassified between the bounds"):
        for _ in range(50):
            strict.sample(_gen(97))

    coin = HawkesSampler(KERNEL, classify_fallback="cluster-coin", **kwargs)
    rng = _gen(97)
    for _ in range(50):
        pat = coin.sample(rng)
        if pat.n:
            assert pat.points.min() >= 0.0 and pat.points.max() <= 2.0
    assert coin.stats["fallback_coins"] > 0


def test_burn_in_oracle_draws_its_own_marks(monkeypatch):
    k = ExponentialFertility(0.5, 1.0, marks=((0.5, 0.5), (0.5, 1.5)))
    expected = hawkes_exp_burn_in(k, 1.0, 5.0, 40.0, _gen(111))

    def broken(n, rng):
        raise AssertionError("the oracle called the sampler's mark routine")

    monkeypatch.setattr(k, "sample_mark", broken)
    pat = hawkes_exp_burn_in(k, 1.0, 5.0, 40.0, _gen(111))
    assert pat.n > 0 and np.array_equal(pat.points, expected.points)


def test_fresh_sampler_draw_is_reproducible():
    def draw():
        return HawkesSampler(KERNEL, 1.0, 5.0, tol=5e-3, step=2e-3).sample(_gen(98))

    pat = draw()
    assert pat.dim == 1
    assert pat.n == draw().n
