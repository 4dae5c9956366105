"""Fixed-point operator, certified sandwich, single-ancestor clusters, and the
perfect self-exciting sampler built on them."""

import copy
import hashlib
import math
import tracemalloc
import warnings

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
from exactpp.hawkes_mr import _kept_clusters
from exactpp.oracles import (
    hawkes_bounded_burn_in,
    hawkes_bounded_burn_in_chains,
    hawkes_exp_burn_in,
    hawkes_exp_burn_in_chains,
)
from exactpp.sandwich import EPS_ROUND, _next_fast_len
from exactpp.validation import chi_square, mean_ci, two_sample_ks
from pins import pin_message

KERNEL = ExponentialFertility(0.5, 1.0)  # rho = 0.5, nu_inf = 0.5
ZERO_KERNEL = PiecewiseConstantFertility((0.0, 1.0), (0.0,))  # h == 0, rho = 0
TWO_MARKS = ((0.25, 0.5), (0.75, 7 / 6))  # mean mark 1, so rho = 0.5 with KERNEL's shape


def _gen(seed, stream=0):
    return RngStream(seed, stream).generator()


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# -- kernel families ------------------------------------------------------------


def test_exponential_kernel_scalars():
    k = ExponentialFertility(0.5, 1.0)
    assert k.rho == pytest.approx(0.5)
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


FAMILIES = [KERNEL, ExponentialFertility(0.5, 1.0, marks=TWO_MARKS),
            PolynomialFertility((0.45, -0.225), 2.0),
            PiecewiseConstantFertility((0.0, 0.5, 2.0), (0.6, 0.1),
                                       marks=((0.5, 0.5), (0.5, 1.5)))]


@pytest.mark.parametrize("kernel", FAMILIES, ids=["exponential", "two-marks", "polynomial",
                                                  "piecewise"])
def test_reach_inverts_the_envelope(kernel):
    # reach(1) is the sampler's t0 = -ln(1 - rho_theta) / theta bit for bit, and
    # U(reach(u)) = u up to the rounding of reach's value t: a relative theta ulp(t)
    t0 = -math.log1p(-kernel.rho_theta) / kernel.theta
    assert kernel.reach(1.0) == t0 == HawkesSampler(kernel, mu=1.0, a=1.0).meta["t0"]
    for u in (1.0, 1e-3, EPS_ROUND):
        t = kernel.reach(u)
        envelope = math.exp(-kernel.theta * t) / (1.0 - kernel.rho_theta)
        assert abs(envelope - u) <= 4.0 * (kernel.theta * math.ulp(t) * u + math.ulp(u)), u
    assert kernel.reach(2.0 / (1.0 - kernel.rho_theta)) == 0.0  # U(0) is below u already


def test_reach_of_the_zero_kernel_is_zero():
    assert [ZERO_KERNEL.reach(u) for u in (1.0, 1e-3, EPS_ROUND)] == [0.0, 0.0, 0.0]
    assert HawkesSampler(ZERO_KERNEL, mu=1.0, a=1.0).meta["t0"] == 0.0


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


def test_offspring_mass_is_computed_once_per_kernel(monkeypatch):
    # a two-mark polynomial kernel keeps its total mass: draws, whose mixture
    # path reads nu_inf once per generation, never integrate the polynomial again
    kernel = PolynomialFertility((0.45, -0.225), 2.0, marks=((0.5, 0.5), (0.5, 1.5)))
    zs = np.array([0.5, 1.5])
    before = kernel.nu_inf(zs)
    assert np.array_equal(before, zs * kernel._nu0_inf())

    def integrate_again():
        raise AssertionError("the offspring mass was integrated again")

    monkeypatch.setattr(kernel, "_nu0_inf", integrate_again)
    sampler = HawkesSampler(kernel, mu=1.0, a=5.0)
    assert sum(sampler.sample(_gen(123, r)).n for r in range(50)) > 0
    assert np.array_equal(kernel.nu_inf(zs), before)


@pytest.mark.parametrize(
    "marks",
    [((1.0, 1.0),), ((0.3, 0.5), (0.7, 1.0)), ((0.2, 0.1), (0.5, 0.6), (0.3, 1.2))],
)
@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_sample_mark_matches_generator_choice(marks, n):
    # the precomputed CDFs give the marks of Generator.choice(p=) and leave
    # the generator in the same state
    k = ExponentialFertility(0.5, 1.0, marks=marks)
    w = np.array([w for w, _ in marks])
    zs = np.array([z for _, z in marks])
    rng_k, rng_c = _gen(110), _gen(110)
    assert np.array_equal(k.sample_mark(n, rng_k), zs[rng_c.choice(zs.size, size=n, p=w / w.sum())])
    assert rng_k.random() == rng_c.random()
    # the spine's z-size-biased marks: the same with weights w_j z_j
    wz = w * zs
    expected = zs[rng_c.choice(zs.size, size=n, p=wz / wz.sum())]
    assert np.array_equal(k.sample_biased_mark(n, rng_k), expected)
    assert rng_k.random() == rng_c.random()



@pytest.mark.parametrize(
    "kernel",
    [
        ExponentialFertility(0.5, 1.0, marks=((0.5, 0.4), (0.5, 1.4))),
        PolynomialFertility((0.45, -0.225), 2.0),
        PiecewiseConstantFertility((0.0, 0.5, 2.0), (0.6, 0.1), marks=((0.5, 0.5), (0.5, 1.5))),
    ],
    ids=["exponential", "polynomial", "piecewise"],
)
def test_tilt_closed_forms(kernel):
    from scipy import integrate

    theta = kernel.theta
    assert 0.0 < theta and kernel.rho_theta == pytest.approx(0.5 * (1.0 + kernel.rho), rel=1e-12)
    upper = getattr(kernel, "support", 100.0)  # exponential: e^-62 of the mass lies beyond
    direct, _ = integrate.quad(lambda s: float(kernel._h0(s)) * math.exp(theta * s), 0.0, upper,
                               points=getattr(kernel, "breaks", None), limit=200)
    assert kernel._tilted_mass(theta) == pytest.approx(direct, rel=1e-10)
    # a tilted displacement D has E[e^(-theta D)] = nu0_inf / tilted mass and
    # the shape's law: P(D <= s) = int_0^s h0(u) e^(theta u) du / tilted mass
    d = kernel.sample_tilted_displacement(100_000, _gen(113))
    assert np.all(d >= 0.0) and np.all(d <= getattr(kernel, "support", np.inf))
    mean, half = mean_ci(np.exp(-theta * d), z=4.0)
    assert abs(mean - kernel._nu0_inf() / kernel._tilted_mass(theta)) < half
    for q in (0.3, 1.0):
        part, _ = integrate.quad(lambda s: float(kernel._h0(s)) * math.exp(theta * s), 0.0, q)
        p = part / direct
        assert abs(np.mean(d <= q) - p) < 4.0 * math.sqrt(p * (1 - p) / d.size)


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

    # the grids up to the demo kernel's reach(EPS_ROUND) = 73.24 that the demo
    # config and the tests build, at step 1e-2 down to the third halving of
    # step 1e-3 (smaller ones are in range)
    steps = (1e-2, 2e-3, 1e-3, 5e-4, 2.5e-4, 1.25e-4)
    grids = [math.ceil(KERNEL.reach(EPS_ROUND) / step) + 1 for step in steps]
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
            want = np.clip(expected[rounding] + sign * EPS_ROUND, 0.0, 1.0)
            assert np.max(np.abs(op.apply(f, rounding) - want)) <= 1e-12


def test_operator_rejects_out_of_range_grid_functions():
    op = PhiOperator(KERNEL, 0.01, 64)
    with pytest.raises(SamplerError, match=r"values in \[0, 1\]"):
        op.apply(np.full(64, 1.5), "nearest")
    with pytest.raises(SamplerError, match="wrong length"):
        op.apply(np.zeros(32), "nearest")


# -- the sandwich -------------------------------------------------------------------


@pytest.fixture(scope="module")
def sandwich():
    return build_sandwich(KERNEL, tol=1e-3, step=1e-3)


def test_sandwich_reaches_tolerance_with_certificates(sandwich):
    # driven one iterate at a time from the floor, as AC-10 drives it, the
    # geometric certificate holds at every iterate, and the build stops at the same one
    sw = build_sandwich(KERNEL, tol=1.0, n_max=0, step=1e-3)
    assert sw.n == 0
    while sw.gap > 1e-3:
        sw.advance(1)
        assert sw.gap <= sw.certificate_bound(), sw.n
    assert sw.n == sandwich.n >= 1 and sw.gap == sandwich.gap <= 1e-3


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
    before, gap = sw.bounds(), sw.gap
    for _ in range(2):
        sw.advance(1)
        assert sw.gap <= sw.certificate_bound()
    after = sw.bounds()
    assert np.all(after.ell >= before.ell - 1e-15)
    assert np.all(after.upp <= before.upp + 1e-15)
    assert sw.gap <= gap + 1e-15


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


def test_the_cut_grid_keeps_the_curve_of_a_longer_grid():
    # Phi at a node reads only earlier nodes, so the curve on the grid cut at
    # reach(EPS_ROUND) equals, node for node, the curve on a grid twice as long,
    # up to the rounding of FFTs of other lengths; the iterates stop at the same n
    from exactpp.sandwich import Sandwich, _certified_floor

    step = 1e-2
    cut = build_sandwich(KERNEL, tol=1e-3, step=step)
    n = cut.phi.n_nodes
    assert n == math.ceil(KERNEL.reach(EPS_ROUND) / step) + 1
    phi = PhiOperator(KERNEL, step, 2 * n)
    long = Sandwich(KERNEL, phi, _certified_floor(phi, 2 * n), np.ones(2 * n))
    long.drive(1e-3, 200)
    assert long.n == cut.n
    for side in ("ell", "upp"):
        a, b = getattr(cut.bounds(), side), getattr(long.bounds(), side)[:n]
        assert np.max(np.abs(a - b)) <= 4 * np.finfo(float).eps, side
    # past the cut the longer grid's upper bound stays above U(t) itself
    t = phi.taus[n:]
    envelope = np.exp(-KERNEL.theta * t) / (1.0 - KERNEL.rho_theta)
    assert np.all(long.bounds().upp[n:] >= envelope)


def test_zero_excitation_sandwich_collapses_immediately():
    sw = build_sandwich(ZERO_KERNEL, tol=1e-3, step=0.01)
    b = sw.bounds()
    assert np.all(b.upp <= 5e-10)  # the tail of a point mass at 0
    assert sw.gap <= 5e-10


# -- single-ancestor clusters ----------------------------------------------------


def test_zero_excitation_cluster_is_the_bare_ancestor():
    rng = _gen(84)
    for _ in range(20):
        cl = sample_gw_cluster(ZERO_KERNEL, 3.0, rng)
        assert cl.points.tolist() == [3.0] and cl.owner.tolist() == [0]
        assert cl.extinction_time == 0.0


def test_cluster_mean_size_is_the_geometric_series():
    rng = _gen(85)
    sizes = np.array([sample_gw_cluster(KERNEL, 0.0, rng).points.size for _ in range(30_000)])
    mean, half = mean_ci(sizes, z=4.0)
    assert abs(mean - 2.0) < half  # 1 / (1 - rho)


def test_cluster_offsets_are_nonnegative_and_generations_consistent():
    # a run capped at g generations on the same seed is a prefix of the whole
    # cluster, the ancestor alone at g = 0, and it grows at every g until the
    # whole cluster is drawn: no generation is empty before the last
    for r in range(200):
        cl = sample_gw_cluster(KERNEL, 1.5, _gen(86, r))
        offsets = cl.points - cl.ancestor
        assert np.all(offsets >= 0.0)
        assert cl.extinction_time == pytest.approx(float(np.max(offsets)))
        sizes = []
        while not sizes or sizes[-1] < cl.points.size:
            capped = sample_gw_cluster(KERNEL, 1.5, _gen(86, r), generations=len(sizes)).points
            assert np.array_equal(capped, cl.points[:capped.size])
            assert capped.size > (sizes[-1] if sizes else 0)
            sizes.append(capped.size)
        assert sizes[0] == 1 and cl.points[0] == 1.5


def test_first_generation_is_poisson_per_ancestor_mark():
    # 4,000 roots of each mark, grown one generation: a root's children are
    # the points it owns besides itself
    kernel = ExponentialFertility(0.5, 1.0, marks=((0.5, 0.4), (0.5, 1.2)))
    marks = np.tile([0.4, 1.2], 4_000)
    cl = sample_gw_cluster(kernel, np.zeros(marks.size), _gen(87), root_marks=marks,
                           generations=1)
    children = np.bincount(cl.owner, minlength=marks.size) - 1
    for z in (0.4, 1.2):
        lam = kernel.nu_inf(z)
        counts = children[marks == z]
        k_hi = 4
        probs = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(k_hi)]
        probs.append(1.0 - sum(probs))
        observed = np.bincount(np.minimum(counts, k_hi), minlength=k_hi + 1)
        rep = chi_square(observed, np.asarray(probs), alpha=0.005)
        assert rep.accepted, (z, rep.to_dict())


def test_cluster_point_cap_guards_near_critical_growth(monkeypatch):
    from exactpp import core

    kernel = ExponentialFertility(0.9, 1.0)
    rng = _gen(88)
    monkeypatch.setattr(core, "POINT_CAP", 5)
    with pytest.raises(SamplerError, match="cluster exceeded"):
        for _ in range(500):
            sample_gw_cluster(kernel, 0.0, rng)


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
    # every root comes first, once, owning itself
    assert np.array_equal(cl.points[:roots.size], roots)
    assert np.array_equal(cl.owner[:roots.size], np.arange(roots.size))
    assert np.array_equal(cl.ancestor, roots)
    # each root's extinction time is the largest offset in its owner group
    offsets = cl.points - cl.ancestor[cl.owner]
    assert np.all(offsets >= 0.0)
    for i in range(roots.size):
        assert cl.extinction_time[i] == np.max(offsets[cl.owner == i])
    # a scalar ancestor and a one-element array draw the same clusters
    one = sample_gw_cluster(kernel, np.array([1.5]), _gen(104))
    scalar = sample_gw_cluster(kernel, 1.5, _gen(104))
    assert np.array_equal(one.points, scalar.points)
    assert one.extinction_time[0] == scalar.extinction_time


def test_point_cap_counts_the_whole_call(monkeypatch):
    # ten bare ancestors: the cap covers all of them together, roots included
    from exactpp import core

    monkeypatch.setattr(core, "POINT_CAP", 10)
    assert sample_gw_cluster(ZERO_KERNEL, np.zeros(10), _gen(105)).points.size == 10
    monkeypatch.setattr(core, "POINT_CAP", 9)
    with pytest.raises(SamplerError, match="cluster exceeded 9 points"):
        sample_gw_cluster(ZERO_KERNEL, np.zeros(10), _gen(105))



def test_given_root_marks_drive_the_first_generation():
    # roots with mark 0 stay childless; roots with mark 1.5 get Poisson(0.75) children
    kernel = ExponentialFertility(0.5, 1.0, marks=((0.5, 0.4), (0.5, 1.2)))
    marks = np.tile([0.0, 1.5], 5_000)
    cl = sample_gw_cluster(kernel, np.zeros(marks.size), _gen(115), root_marks=marks,
                           generations=1)
    children = np.bincount(cl.owner, minlength=marks.size) - 1
    assert np.all(children[marks == 0.0] == 0)
    mean, half = mean_ci(children[marks == 1.5], z=4.0)
    assert abs(mean - 0.75) < half


@pytest.mark.parametrize(
    "ancestor, n_marks",
    [(np.zeros(5), 1), (np.zeros(5), 2), (np.zeros(5), 6), (0.0, 2)],
    ids=["one-for-five", "two-for-five", "six-for-five", "two-for-a-scalar"],
)
def test_root_marks_must_match_the_roots(ancestor, n_marks):
    # one mark per root, refused before any draw: a lone mark is not broadcast
    kernel = ExponentialFertility(0.5, 1.0, marks=TWO_MARKS)
    rng = _gen(122)
    with pytest.raises(SamplerError, match="root_marks gives"):
        sample_gw_cluster(kernel, ancestor, rng, root_marks=np.ones(n_marks))
    assert rng.random() == _gen(122).random()  # nothing was drawn


def test_one_mark_kernels_draw_the_law_of_a_mixture_of_equal_marks():
    # the scalar-rate path for one mark, which draws no marks, against the
    # array-rate path of two components with the same mark: the same law,
    # different random numbers
    twin = ExponentialFertility(0.5, 1.0, marks=((0.5, 1.0), (0.5, 1.0)))
    assert KERNEL.one_mark_nu == 0.5 and twin.one_mark_nu is None
    one = sample_gw_cluster(KERNEL, np.zeros(20_000), _gen(116))
    mix = sample_gw_cluster(twin, np.zeros(20_000), _gen(116, 1))
    rep = two_sample_ks(one.extinction_time, mix.extinction_time, alpha=0.01)
    assert rep.accepted, ("forest extinction times", rep.to_dict())
    a, n = 10.0, 3_000
    one, mix = HawkesSampler(KERNEL, 1.0, a), HawkesSampler(twin, 1.0, a)
    ones = [one.sample(_gen(117, r)) for r in range(n)]
    mixes = [mix.sample(_gen(117, n + r)) for r in range(n)]
    for name, stat in (("count", lambda p: p.n), ("first point", lambda p: _first_point(p, a))):
        rep = two_sample_ks(
            np.array([stat(p) for p in ones]), np.array([stat(p) for p in mixes]), alpha=0.01
        )
        assert rep.accepted, (name, rep.to_dict())


# The digests below were computed before the one-mark scalar-rate path existed,
# and those of one-mark clusters and of Hawkes draws again when one-mark kernels
# stopped drawing marks and one draw grew all its clusters in one call.


def test_demo_sampler_draws_keep_their_bytes():
    sampler = HawkesSampler(KERNEL, mu=1.0, a=10.0)  # configs/hawkes_mr.json
    pats = [sampler.sample(_gen(31, r)).points[:, 0] for r in range(500)]
    digest = _sha256(np.array([p.size for p in pats]), np.concatenate(pats))
    assert digest == "f3eb6b66665d5f515e6495e3e97b0a044325255f0c2271b8cbcd60b954d94225", (
        pin_message("the demo sampler's draws"))


def test_scalar_cluster_extinction_times_keep_their_bytes():
    rng = _gen(212)  # the kernel and stream of AC-10
    ext = np.array([sample_gw_cluster(KERNEL, 0.0, rng).extinction_time for _ in range(20_000)])
    assert _sha256(ext) == "f4504bf50272235a10764c8fc0d2accd94a5cb62694ca2388015a86464ee7a68", (
        pin_message("scalar clusters' extinction times"))


def test_two_mark_forest_keeps_its_bytes():
    kernel = ExponentialFertility(0.5, 1.0, marks=TWO_MARKS)
    cl = sample_gw_cluster(kernel, np.linspace(0.0, 1.0, 2_000), _gen(213))
    digest = _sha256(cl.points, cl.owner, cl.extinction_time)
    assert digest == "1cc91b25ee6d6fecdf2dfb83ea4fe1477ac7d083cd5f274322adb408dfc6c526", (
        pin_message("the two-mark forest's bytes"))


# The engine digests below and the two-mark forest's above hash the fields a
# cluster keeps: its points, owners and sizes or extinction times. They were
# restated over these fields when the cluster stopped keeping generation labels
# and root marks, and the engine that kept them gives the same digests.
# The Hawkes draw digests (here and in test_demo_sampler_draws_keep_their_bytes)
# were taken again when the roots before the window came to be drawn with the
# immigrants, as one process on [-t0, a), and the far ancestors' clusters to
# grow in the window's frame: that changed the order of the random numbers and
# the rounding of a position, and two-sample KS tests against the earlier code
# (window counts and pooled positions, 20,000 lockstep draws per kernel) found
# no difference in law. They were taken again when the split between the plain
# roots and the thinned far ancestors moved from t0 to 2 t0: fewer far
# ancestors draw other random numbers, and the same checks, with the mean count
# on [0, 1], found no difference in law against the split at t0. They were taken
# again when it moved from 2 t0 to 3 t0, and KS tests of the window counts and
# of each draw's first point, with the mean count on [0, 1], found no
# difference in law against the split at 2 t0. They, and the engine digests,
# were taken again when the engine came to draw its offspring counts and
# displacements in blocks and the split moved to 4 t0; the same checks
# (BENCH_43.json) found no difference in law against the earlier code.


@pytest.mark.parametrize(
    "kernel, digest",
    [
        (KERNEL, "2f0037b322f161ec31a049cabd269b21726a056935081e72121ffb20a961d3a8"),
        (
            ExponentialFertility(0.5, 1.0, marks=TWO_MARKS),
            "8f99790ddfe4e5bf86427447b0e02bb8ba7492d442085943b7ed01bd778db309",
        ),
    ],
    ids=["one-mark", "two-marks"],
)
def test_scalar_clusters_keep_their_bytes(kernel, digest):
    rng = _gen(214)
    cls = [sample_gw_cluster(kernel, 0.5, rng) for _ in range(3_000)]
    parts = [np.array([cl.points.size for cl in cls])]
    for field in ("points", "owner"):
        parts.append(np.concatenate([getattr(cl, field) for cl in cls]))
    assert _sha256(*parts) == digest, pin_message("scalar clusters' bytes")


@pytest.mark.parametrize(
    "kernel, mu, a, digest",
    [
        (
            ExponentialFertility(0.5, 1.0, marks=TWO_MARKS), 1.0, 10.0,
            "68c1cf8d9510fb0792763bf3f689f0eb41088bca9e4af7348532ca06b98dd6a0",
        ),
        (
            PolynomialFertility((0.45, -0.225), 2.0), 1.0, 5.0,
            "b8559c60f29102658ed7da52cc5644d614d1640ff850f9a1ccd99ab375f5b9c3",
        ),
        (
            PiecewiseConstantFertility((0.0, 0.5, 2.0), (0.6, 0.1)), 1.0, 5.0,
            "9dc81621f6edae03a3db302d9c5c8c3dc66e17b9678496cdfe9f692262b6de8c",
        ),
    ],
    ids=["two-marks", "polynomial", "piecewise"],
)
def test_sampler_draws_keep_their_bytes(kernel, mu, a, digest):
    sampler = HawkesSampler(kernel, mu=mu, a=a)
    pats = [sampler.sample(_gen(32, r)).points[:, 0] for r in range(400)]
    # the piecewise kernel's tilted displacements go through np.log1p and np.expm1
    assert _sha256(np.array([p.size for p in pats]), np.concatenate(pats)) == digest, (
        pin_message("the sampler's draws", isinstance(kernel, PiecewiseConstantFertility)))


# The digests below were taken before the split between the plain roots and the
# far ancestors moved from t0 to 2 t0, and hold since, at 3 t0 and 4 t0 too: the zero
# kernel has no far ancestor at any split, and a call with no far ancestor grows
# the roots' clusters alone, drawing the random numbers that the spine path drew
# with none.


def test_zero_kernel_draws_keep_their_bytes():
    s = HawkesSampler(ZERO_KERNEL, mu=2.0, a=3.0)
    pats = [s.sample(_gen(35, r)).points[:, 0] for r in range(400)]
    assert _sha256(np.array([p.size for p in pats]), np.concatenate(pats)) == (
        "352220be842e533d7044b85b396fd4908ab31d18f66941951b106ecbd0c5afff"
    ), pin_message("the zero kernel's draws")
    points, offsets = s.sample_chains(400, _gen(36))
    assert _sha256(points, offsets) == (
        "32f87aa73182d6eebd2cde4203de580912b590ac63611a9d219194d77af152c8"
    ), pin_message("the zero kernel's lockstep draws")


@pytest.mark.parametrize(
    "kernel, digest",
    [
        (KERNEL, "7a82ff3ed3a5c40b5e435b1f8b837dace50e47fe6c1aa4a91a53031fbfac0081"),
        (
            ExponentialFertility(0.5, 1.0, marks=TWO_MARKS),
            "0870749d4ba7a3c8bf0730923c144ba6f3e1c85c7bc21e50d87266e5fbcd6124",
        ),
        (
            PolynomialFertility((0.45, -0.225), 2.0),
            "ca13be83d045f9b6d309c60bf0369a6845faacba375d2e80cbef8001d14fece0",
        ),
        (
            PiecewiseConstantFertility((0.0, 0.5, 2.0), (0.6, 0.1), marks=((0.5, 0.5), (0.5, 1.5))),
            "60a134a542b726ed65434c1ed7600812c833ec131587c99eb7ee46dadccb8f9a",
        ),
    ],
    ids=["one-mark", "two-marks", "polynomial", "piecewise"],
)
def test_kept_clusters_without_far_ancestors_keep_their_bytes(kernel, digest):
    roots = np.linspace(-8.0, 10.0, 600)
    pts, who = _kept_clusters(kernel, np.empty(0), _gen(37), roots, np.array([250, 150, 200]))
    assert _sha256(pts, who) == digest, pin_message("the roots' clusters without far ancestors")


# -- the perfect sampler ------------------------------------------------------------


@pytest.fixture(scope="module")
def sampler():
    return HawkesSampler(KERNEL, mu=1.0, a=10.0, tol=1e-3, step=1e-3)


def test_sampler_audit_trail(sampler):
    # the run record names the tilt and nothing truncated or decided by a coin
    meta = sampler.meta
    assert set(meta) == {"theta", "rho_theta", "t0"}
    assert meta["theta"] == pytest.approx(1.0 / 3.0)  # gamma (1 - rho) / (1 + rho)
    assert meta["rho_theta"] == pytest.approx(0.75)  # (1 + rho) / 2
    assert meta["t0"] == pytest.approx(3.0 * math.log(4.0))  # U(t0) = 1

def test_sampler_draws_live_in_the_window(sampler):
    rng = _gen(89)
    for _ in range(50):
        pat = sampler.sample(rng)
        assert pat.dim == 1
        if pat.n:
            assert pat.points.min() >= 0.0
            assert pat.points.max() <= 10.0
            assert np.all(np.diff(pat.points[:, 0]) >= 0.0)


def test_a_long_window_draws_without_overflow():
    # theta a = 1000: e^(theta p) at a point late in the window would overflow
    # a double; the coin's weights are capped, and only the far ancestors' read
    s = HawkesSampler(KERNEL, mu=0.05, a=3_000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points, offsets = s.sample_chains(20, _gen(128))
    assert offsets[-1] > 1_000 and points.max() <= 3_000.0


def test_sampler_mean_count(sampler):
    # stationary rate mu/(1-rho) = 2, window length 10
    rng = _gen(90)
    counts = np.array([sampler.sample(rng).n for _ in range(2_000)])
    mean, half = mean_ci(counts, z=4.0)
    assert abs(mean - 20.0) < half


EDGE_KERNELS = [
    KERNEL,
    ExponentialFertility(0.5, 1.0, marks=TWO_MARKS),
    PolynomialFertility((0.45, -0.225), 2.0),
    PiecewiseConstantFertility((0.0, 0.5, 2.0), (0.6, 0.1)),
]
EDGE_IDS = ["demo", "two-marks", "polynomial", "piecewise"]


def _window_and_strip_counts(sampler, rng, n=20_000, block=5_000):
    """Each of n lockstep draws' counts on the window and on [0, 1], drawn in blocks."""
    counts, strips = [], []
    for _ in range(n // block):
        points, offsets = sampler.sample_chains(block, rng)
        rep = np.arange(block).repeat(np.diff(offsets))
        counts.append(np.diff(offsets))
        strips.append(np.bincount(rep[points[:, 0] <= 1.0], minlength=block))
    return np.concatenate(counts), np.concatenate(strips)


def _edge_strip_mean(kernel):
    """(mean, 4-sigma half width) of the count on [0, 1] in 20,000 lockstep
    draws on [0, 10] at mu = 1: the strip that the pre-window ancestors feed most."""
    sampler = HawkesSampler(kernel, mu=1.0, a=10.0)
    return mean_ci(_window_and_strip_counts(sampler, _gen(127), block=20_000)[1], z=4.0)


@pytest.mark.parametrize("kernel", EDGE_KERNELS, ids=EDGE_IDS)
def test_edge_strip_count_is_stationary(kernel):
    # the stationary rate mu / (1 - rho) holds at the window's left edge only if
    # the ancestors before the window, near and far, carry the right clusters
    mean, half = _edge_strip_mean(kernel)
    assert abs(mean - 1.0 / (1.0 - kernel.rho)) < half, (mean, half)


def _no_far_ancestors(kernel, far, rng, roots, root_counts):
    """_kept_clusters that drops every far ancestor, with the owners it would give."""
    pts, who = _kept_clusters(kernel, far[:0], rng, roots, root_counts)
    return pts, who + far.size


def _no_roots_before_the_window(kernel, far, rng, roots, root_counts):
    """_kept_clusters that drops every root on [-t1, 0)."""
    inside = roots >= 0.0
    reps = np.arange(len(root_counts)).repeat(root_counts)[inside]
    return _kept_clusters(kernel, far, rng, roots[inside],
                          np.bincount(reps, minlength=len(root_counts)))


@pytest.mark.parametrize("mutant", [_no_roots_before_the_window],
                         ids=["no-roots-before-the-window"])
def test_edge_strip_count_fails_without_a_pre_window_part(monkeypatch, mutant):
    # the roots before the window, missing, leave the strip short by more than
    # 4 standard errors (the whole window's mean moves far less). The far
    # ancestors, beyond 4 t0, feed the strip too little for this test to see
    # them (0.0002 mu, an eighth of what those beyond 3 t0 fed): the next test
    # counts them alone
    from exactpp import hawkes_mr

    monkeypatch.setattr(hawkes_mr, "_kept_clusters", mutant)
    mean, half = _edge_strip_mean(KERNEL)
    assert mean < 1.0 / (1.0 - KERNEL.rho) - half, (mean, half)


@pytest.mark.parametrize("keep, fits", [(_kept_clusters, True), (_no_far_ancestors, False)],
                         ids=["sampler", "no-far-ancestors"])
def test_far_clusters_feed_the_edge_strip_as_the_closed_form_says(monkeypatch, keep, fits):
    # with h = beta e^(-gamma s) a cluster's descendants arrive at rate
    # beta e^(-(gamma - beta) s) after its root, so the ancestors beyond t1 put
    # mu beta (1 - e^(-(gamma - beta))) e^(-(gamma - beta) t1) / (gamma - beta)^2
    # points on [0, 1] a draw: 0.0115 at mu = 60 and t1 = 4 t0, with a standard
    # error of about 13% at 10,000 draws (5% at 3 t0); with no far ancestor
    # kept, none
    from exactpp import hawkes_mr

    far_flags = []

    def recording(kernel, far, rng, roots, root_counts):
        pts, who = keep(kernel, far, rng, roots, root_counts)
        far_flags.append(who < far.size)  # the far ancestors own 0 to far.size - 1
        return pts, who

    monkeypatch.setattr(hawkes_mr, "_kept_clusters", recording)
    mu, block = 60.0, 500
    s = HawkesSampler(KERNEL, mu=mu, a=1.0)
    rng = _gen(129)
    counts = []
    for _ in range(20):
        pts, rep = s._conditioned_cluster(rng, block)
        in_strip = far_flags.pop() & (pts >= 0.0) & (pts <= 1.0)
        counts.append(np.bincount(rep[in_strip], minlength=block))
    g, t1 = KERNEL.gamma - KERNEL.beta, s._t1
    expected = mu * KERNEL.beta * -math.expm1(-g) * math.exp(-g * t1) / g**2
    mean, half = mean_ci(np.concatenate(counts), z=4.0)
    assert (abs(mean - expected) < half) == fits, (mean, half, expected)


@pytest.mark.parametrize("split", ["3t0", "2t0", "t0", "zero"])
def test_the_split_is_a_cost_choice_not_a_law_choice(monkeypatch, split):
    # the coin keeps a far cluster that reaches the window with probability
    # e^(theta t) / Z_0 at every distance t, so a split at 3 t0, 2 t0, t0 or 0, with
    # mu U(t) far ancestors beyond it, draws the law of the default split at 4 t0
    default, moved = HawkesSampler(KERNEL, mu=1.0, a=10.0), HawkesSampler(KERNEL, mu=1.0, a=10.0)
    at = {"3t0": 3.0, "2t0": 2.0, "t0": 1.0, "zero": 0.0}[split] * moved.meta["t0"]
    theta, rho_theta = KERNEL.theta, KERNEL.rho_theta
    monkeypatch.setattr(moved, "_t1", at)
    monkeypatch.setattr(moved, "_far_mean",
                        moved.mu * math.exp(-theta * at) / (theta * (1.0 - rho_theta)))
    (c0, s0), (c1, s1) = (_window_and_strip_counts(x, _gen(132, i))
                          for i, x in enumerate((default, moved)))
    rep = two_sample_ks(c0, c1, alpha=0.01)
    assert rep.accepted, ("window counts", rep.to_dict())
    (m0, h0), (m1, h1) = mean_ci(s0, z=4.0), mean_ci(s1, z=4.0)
    assert abs(m1 - m0) < math.hypot(h0, h1), (m0, m1, h0, h1)


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
    # no draw falls back or refines, whatever the certified curve's tolerance
    rng = _gen(94)
    before = sampler.stats["condition_attempts"]
    for _ in range(300):
        sampler.sample(rng)
    assert sampler.stats["fallback_coins"] == sampler.stats["grid_levels_built"] == 0
    assert sampler.stats["condition_attempts"] > before


def test_conditioned_clusters_match_single_cluster_rejection():
    # a far candidate's Q-cluster that the coin keeps and that has a point
    # after 0, in the window's frame, has the law of an ordinary cluster that
    # outlives t, at any t > 0, since Z > e^(theta t) whenever L > t: plain
    # rejection from a forest of ordinary clusters
    ts = np.array([0.3, 1.0, 2.5, 6.0])
    n = 3_000
    rng = _gen(106)
    batched = {t: [] for t in ts}
    while min(len(v) for v in batched.values()) < n:
        pts, who = _kept_clusters(KERNEL, np.repeat(ts, 200), rng, np.empty(0), [0])
        order = np.argsort(who, kind="stable")
        who, pts = who[order], pts[order]
        starts = np.flatnonzero(np.diff(who, prepend=-1))
        for c, p in zip(who[starts], np.split(pts, starts[1:])):
            if p.max() > 0.0:
                batched[ts[c // 200]].append(p)
    forest = sample_gw_cluster(KERNEL, np.zeros(400_000), _gen(107))
    for t in ts:
        roots = np.flatnonzero(forest.extinction_time > t)[:n]
        assert roots.size == n
        sizes = np.bincount(forest.owner, minlength=forest.ancestor.size)[roots]
        for name, mine, plain in (
            ("points per cluster", [p.size for p in batched[t][:n]], sizes),
            ("last point", [p.max() for p in batched[t][:n]], forest.extinction_time[roots] - t),
        ):
            rep = two_sample_ks(np.array(mine), np.asarray(plain), alpha=0.01)
            assert rep.accepted, (t, name, rep.to_dict())


def test_draws_allocate_nothing_the_size_of_the_grid():
    # draws never build the certified curve, and allocate far less than its grid
    s = HawkesSampler(KERNEL, mu=1.0, a=10.0, tol=1e-3, step=1e-3)
    rng = _gen(109)
    tracemalloc.start()
    try:
        for _ in range(50):
            s.sample(rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "sandwich" not in vars(s)
    grid_bytes = s.sandwich.phi.n_nodes * 8
    assert peak < grid_bytes / 4, (peak, grid_bytes)


def test_a_heavy_lockstep_block_stays_under_40_mib():
    # about 1.07M grown points at the split at 4 t0. With int32 owner labels,
    # and the engine's blocks dropped before its concatenation, the block
    # peaks at 32.6-32.8 MiB (tracemalloc, seeds 126-128). With int64 labels
    # it peaked at 40.7-40.9 MiB at 4 t0, past the bound, at 35.3-35.4 MiB at
    # 3 t0 (about 930k points) and at 32.1-32.2 MiB at 2 t0 (about 850k). At
    # t0 it grew about 1.05M points and peaked at 42.4-42.5 MiB, and a reach
    # and a shift per point took that to 52.7-53.0 MiB. The bound leaves
    # about 18%.
    s = HawkesSampler(KERNEL, mu=60.0, a=10.0)
    rng = _gen(126)
    tracemalloc.start()
    try:
        _, offsets = s.sample_chains(333, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert offsets[-1] > 350_000  # points in the window; the block grows about 2.3 times as many
    assert peak < 40 * 2**20, peak / 2**20


def test_a_block_with_its_points_in_the_window_sorts_within_the_draw_peak():
    # the heavy battery's first block (mu = 29, a = 50, rho = 0.5): nearly every
    # grown point lies in the window, so the cut copies are about as large as
    # the drawn arrays. With the uncut arrays freed before the sort, the block
    # peaks at 43.9-44.1 MiB, inside the draw (tracemalloc, seeds 130-135);
    # held through the sort, they took it to 57.3-57.6 MiB. The bound leaves
    # about 13%.
    s = HawkesSampler(ExponentialFertility(5.0, 10.0), mu=29.0, a=50.0)
    rng = _gen(130)
    tracemalloc.start()
    try:
        _, offsets = s.sample_chains(350, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert offsets[-1] > 1_000_000
    assert peak < 50 * 2**20, peak / 2**20


def test_zero_excitation_sampler_is_poisson():
    s = HawkesSampler(ZERO_KERNEL, mu=2.0, a=3.0, tol=1e-3, step=0.01)
    rng = _gen(95)
    counts = np.array([s.sample(rng).n for _ in range(2_000)])
    lam = 6.0
    k_hi = 14
    probs = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(k_hi)]
    probs.append(1.0 - sum(probs))
    observed = np.bincount(np.minimum(counts, k_hi), minlength=k_hi + 1)
    rep = chi_square(observed, np.asarray(probs), alpha=0.01)
    assert rep.accepted, rep.to_dict()


def test_sampler_refuses_an_empty_window_or_a_negative_rate():
    with pytest.raises(SamplerError, match="window length"):
        HawkesSampler(KERNEL, mu=1.0, a=0.0)
    with pytest.raises(SamplerError, match="immigrant intensity must be nonnegative"):
        HawkesSampler(KERNEL, mu=-0.5, a=5.0)
    # the immigrant rate is one number: a rate function or its bound is refused
    with pytest.raises(TypeError):
        HawkesSampler(KERNEL, mu=lambda t: 1.0, a=5.0)
    with pytest.raises(TypeError, match="mu_bound"):
        HawkesSampler(KERNEL, mu=1.0, a=5.0, mu_bound=1.0)


@pytest.mark.parametrize(
    "kernel, mu",
    [(KERNEL, 1.0), (ExponentialFertility(0.5, 1.0, marks=TWO_MARKS), 1.0), (ZERO_KERNEL, 2.0)],
    ids=["one-mark", "two-marks", "zero-kernel"],
)
def test_each_draw_grows_its_clusters_in_one_call(monkeypatch, kernel, mu):
    # candidates and immigrants grow together: one sample_gw_cluster call per draw
    from exactpp import hawkes_mr

    calls = []
    grow = hawkes_mr.sample_gw_cluster

    def counting(*args, **kwargs):
        calls.append(1)
        return grow(*args, **kwargs)

    monkeypatch.setattr(hawkes_mr, "sample_gw_cluster", counting)
    sampler = HawkesSampler(kernel, mu=mu, a=10.0)
    for r in range(30):
        sampler.sample(_gen(124, r))
        assert len(calls) == r + 1


@pytest.mark.parametrize(
    "kernel, mu",
    [(KERNEL, 1.0), (ExponentialFertility(0.5, 1.0, marks=TWO_MARKS), 1.0), (ZERO_KERNEL, 2.0)],
    ids=["one-mark", "two-marks", "zero-kernel"],
)
def test_lockstep_form_grows_every_replicate_in_one_call(monkeypatch, kernel, mu):
    # one sample_gw_cluster call for all replicates, under the one cap of a call;
    # stats count the far ancestors that _kept_clusters receives, the only
    # clusters that a coin decides
    from exactpp import hawkes_mr

    calls, candidates = [], []
    grow, keep = hawkes_mr.sample_gw_cluster, hawkes_mr._kept_clusters

    def recording(kernel, roots, rng, *args, **kwargs):
        calls.append(args)  # no cap is passed: the engine reads core.POINT_CAP
        return grow(kernel, roots, rng, *args, **kwargs)

    def counting(kernel, far, *args):
        candidates.append(far.size)
        return keep(kernel, far, *args)

    monkeypatch.setattr(hawkes_mr, "sample_gw_cluster", recording)
    monkeypatch.setattr(hawkes_mr, "_kept_clusters", counting)
    sampler = HawkesSampler(kernel, mu=mu, a=10.0)
    for n in (1, 7, 60):
        before = sampler.stats["condition_attempts"]
        points, offsets = sampler.sample_chains(n, _gen(125, n))
        assert calls == [()] and offsets.size == n + 1
        assert sampler.stats["condition_attempts"] - before == sum(candidates)
        assert len(candidates) == 1  # the zero kernel's too, with no far ancestor
        del calls[:], candidates[:]


def test_lockstep_call_is_capped_as_a_whole(monkeypatch):
    # about 43 points a replicate: single draws stay far within a cap of 1,000,
    # but 50 replicates grow about 2,150 points in their one engine call, and
    # the cap bounds that call, whatever its replicate count
    from exactpp import core

    monkeypatch.setattr(core, "POINT_CAP", 1_000)
    sampler = HawkesSampler(KERNEL, mu=1.0, a=10.0)
    for r in range(20):
        sampler.sample(_gen(128, r))
    with pytest.raises(SamplerError, match="cluster exceeded 1000 points: near-critical"):
        sampler.sample_chains(50, _gen(128))


def test_burn_in_oracle_draws_its_own_marks(monkeypatch):
    marks = ((0.5, 0.5), (0.5, 1.5))
    for kernel, oracle in (
        (ExponentialFertility(0.5, 1.0, marks=marks), hawkes_exp_burn_in),
        (
            PiecewiseConstantFertility((0.0, 0.5, 2.0), (0.6, 0.1), marks=marks),
            hawkes_bounded_burn_in,
        ),
    ):
        expected = oracle(kernel, 1.0, 5.0, 40.0, _gen(111))

        def broken(n, rng):
            raise AssertionError("the oracle called the sampler's mark routine")

        monkeypatch.setattr(kernel, "sample_mark", broken)
        pat = oracle(kernel, 1.0, 5.0, 40.0, _gen(111))
        assert pat.n > 0 and np.array_equal(pat.points, expected.points)


def test_lockstep_burn_in_oracle_draws_its_own_marks(monkeypatch):
    kernel = ExponentialFertility(0.5, 1.0, marks=((0.5, 0.5), (0.5, 1.5)))
    expected = hawkes_exp_burn_in_chains(kernel, 1.0, 5.0, 40.0, 50, _gen(111))

    def broken(n, rng):
        raise AssertionError("the oracle called the sampler's mark routine")

    monkeypatch.setattr(kernel, "sample_mark", broken)
    points, offsets = hawkes_exp_burn_in_chains(kernel, 1.0, 5.0, 40.0, 50, _gen(111))
    assert points.size > 0 and np.array_equal(points, expected[0])
    assert np.array_equal(offsets, expected[1])

def test_fresh_sampler_draw_is_reproducible():
    def draw():
        return HawkesSampler(KERNEL, 1.0, 5.0, tol=5e-3, step=2e-3).sample(_gen(98))

    pat = draw()
    assert pat.dim == 1
    assert pat.n == draw().n


def test_replicate_does_not_depend_on_earlier_draws():
    # replicate r from a fresh sampler equals replicate r drawn after 0..r-1
    serial = HawkesSampler(KERNEL, mu=1.0, a=10.0)
    for r in range(40):
        mine = serial.sample(_gen(116, r)).points.tobytes()
        assert mine == HawkesSampler(KERNEL, mu=1.0, a=10.0).sample(_gen(116, r)).points.tobytes()


def test_spine_acceptance_matches_the_sandwich(sandwich):
    # U(t) times the frequency with which the coin keeps a Q-cluster at
    # distance t that has a point in the window estimates F(t): the spine
    # route and the certified sandwich are two independent constructions of
    # F, checked here against each other
    n = 40_000
    b = sandwich.bounds()
    for i, t in enumerate((1.0, 5.0, 15.0, 30.0)):
        pts, who = _kept_clusters(KERNEL, np.full(n, t), _gen(117, i), np.empty(0), [0])
        u = math.exp(-KERNEL.theta * t) / (1.0 - KERNEL.rho_theta)
        p = np.unique(who[pts > 0.0]).size / n
        band = 4.0 * u * math.sqrt(max(p, 1.0 / n) * (1.0 - p) / n)
        # F is nonincreasing: the node at or after t bounds it below, the one at or before above
        lo = b.ell[np.searchsorted(b.taus, t, side="left")]
        hi = b.upp[np.searchsorted(b.taus, t, side="right") - 1]
        assert lo - band <= u * p <= hi + band, (t, lo, u * p, hi, band)


def _first_point(pattern, a):
    return pattern.points[0, 0] if pattern.n else a


def _counts_and_first_points(points, offsets, a):
    """Each chain's window count and first point (a for an empty chain) from a
    lockstep oracle's (points, offsets)."""
    counts = np.diff(offsets)
    firsts = np.full(counts.size, a)
    firsts[counts > 0] = points[offsets[:-1][counts > 0]]
    return counts, firsts


@pytest.mark.parametrize(
    "kernel, burn",
    [  # burn-ins of 15 support / -ln(rho) and 15 / (gamma (1 - rho)), rho = 0.45
        (PolynomialFertility((0.45, -0.225), 2.0), 37.57008247021116),
        (PiecewiseConstantFertility((0.0, 0.5, 2.0), (0.6, 0.1),
                                    marks=((0.5, 0.5), (0.5, 1.5))), 37.57008247021116),
        (ExponentialFertility(0.5, 1.0, marks=((0.5, 0.4), (0.5, 1.4))), 27.27272727272727),
    ],
    ids=["polynomial", "piecewise", "exponential-two-marks"],
)
def test_sampler_matches_burn_in_oracle_per_family(kernel, burn):
    # a short window, where pre-window ancestors carry much of the law; the
    # burn-in leaves a bias below e^-15 relative to the pre-window mass
    a, n = 3.0, 1_500
    s = HawkesSampler(kernel, mu=1.0, a=a)
    exact = [s.sample(_gen(118, r)) for r in range(n)]
    exact = (np.array([p.n for p in exact]), np.array([_first_point(p, a) for p in exact]))
    if isinstance(kernel, ExponentialFertility):
        ref = [hawkes_exp_burn_in(kernel, 1.0, a, burn, _gen(119, r)) for r in range(n)]
        ref = (np.array([p.n for p in ref]), np.array([_first_point(p, a) for p in ref]))
    else:  # the lockstep oracle: about 4 ms a chain for the one-chain oracle here
        ref = _counts_and_first_points(
            *hawkes_bounded_burn_in_chains(kernel, 1.0, a, burn, n, _gen(119)), a
        )
    for name, x, y in zip(("count", "first point"), exact, ref):
        rep = two_sample_ks(x, y, alpha=0.01)
        assert rep.accepted, (name, rep.to_dict())
