"""Thinned grids (last-site law, enumeration identities),
renewal thin-first, Matern hard cores, and the non-linear self-exciting
germ drawn by coupling from the past."""

import bisect
import math
import time

import numpy as np
import pytest

from exactpp import (
    GeometricGrid,
    InverseSquareGrid,
    RngStream,
    SamplerError,
    TableGrid,
    Window,
    matern_thin_first,
    nonlinear_hawkes_germ,
    renewal_thin_first,
    thin_grid,
)
from exactpp import core
from exactpp.germ_thinning import _retained
from exactpp.oracles import grid_thin_after, renewal_thin_after
from exactpp.validation import chi_square, two_sample_ks


def _gen(seed, stream=0):
    return RngStream(seed, stream).generator()


# -- grid retention families ---------------------------------------------------------


def test_table_grid_half_half_enumeration():
    grid = TableGrid((0.5, 0.5))
    assert grid.prob_empty() == pytest.approx(0.25)
    assert grid.pmf_last(0) == pytest.approx(0.25)
    assert grid.pmf_last(1) == pytest.approx(0.5)
    assert grid.pmf_last(0) + grid.pmf_last(1) + grid.prob_empty() == pytest.approx(1.0, abs=1e-12)


def test_table_grid_last_site_chi_square():
    grid = TableGrid((0.5, 0.5))
    rng = _gen(51)
    draws = [grid.sample_last(rng) for _ in range(8_000)]
    categories = np.array([{None: 0, 0: 1, 1: 2}[d] for d in draws])
    observed = np.bincount(categories, minlength=3)
    rep = chi_square(observed, np.array([0.25, 0.25, 0.5]), alpha=0.01)
    assert rep.accepted, rep.to_dict()


def test_table_grid_joint_law_is_independent_coins():
    grid = TableGrid((0.5, 0.5))
    rng = _gen(52)
    cells = np.zeros(4, dtype=np.int64)  # (X0, X1) in {00, 01, 10, 11}
    for _ in range(8_000):
        kept = set(thin_grid(grid, rng).tolist())
        cells[2 * (0 in kept) + (1 in kept)] += 1
    rep = chi_square(cells, np.full(4, 0.25), alpha=0.01)
    assert rep.accepted, rep.to_dict()


def test_degenerate_tables():
    rng = _gen(53)
    dead = TableGrid((0.0, 0.0, 0.0))
    assert dead.prob_empty() == 1.0
    for _ in range(20):
        assert thin_grid(dead, rng).size == 0
        assert dead.sample_last(rng) is None
    certain = TableGrid((1.0,))
    assert certain.prob_empty() == 0.0
    for _ in range(20):
        assert thin_grid(certain, rng).tolist() == [0]


def test_table_grid_rejects_bad_probabilities():
    with pytest.raises(SamplerError):
        TableGrid((0.5, 1.5))
    with pytest.raises(SamplerError):
        TableGrid((-0.1,))


@pytest.mark.parametrize(
    "grid",
    [
        TableGrid((0.3, 0.9, 0.001, 0.25)),
        GeometricGrid(0.7, 0.6),
        InverseSquareGrid(1.3),
    ],
    ids=["table", "geometric", "inverse-square"],
)
def test_last_site_pmf_sums_to_one(grid):
    # P(empty) + sum_n P(T = n) telescopes to 1; the tail beyond N is S(N)-left
    # mass and must be analytically tiny at the probed depth
    n_hi = 400
    total = grid.prob_empty() + sum(grid.pmf_last(n) for n in range(n_hi))
    tail = 1.0 - grid.survival(n_hi - 1)
    assert total + tail == pytest.approx(1.0, abs=1e-10)
    assert grid.survival(-1) == pytest.approx(grid.prob_empty())


def test_survival_is_monotone_nondecreasing():
    for grid in (GeometricGrid(0.7, 0.6), InverseSquareGrid(2.0), TableGrid((0.4, 0.2, 0.9))):
        s = [grid.survival(n) for n in range(-1, 50)]
        assert all(a <= b + 1e-15 for a, b in zip(s, s[1:]))
        assert s[-1] <= 1.0 + 1e-15


def test_inverse_square_survival_closed_form():
    # prod_{k>n} exp(-C/(k+1)^2) = exp(-C * psi_1(n+2)); check against a long
    # explicit partial product
    grid = InverseSquareGrid(0.8)
    n = 3
    direct = np.exp(-0.8 * np.sum(1.0 / np.arange(n + 2, 200_000) ** 2))
    assert grid.survival(n) == pytest.approx(direct, rel=1e-4)


@pytest.mark.parametrize("ns", [range(201), [10**k for k in range(3, 8)]], ids=["0-200", "1e3-1e7"])
def test_trigamma_matches_scipy(ns):
    from scipy import special

    from exactpp.germ_thinning import _trigamma

    for n in ns:
        assert _trigamma(n + 2) == pytest.approx(float(special.polygamma(1, n + 2)), rel=1e-12, abs=0)


def test_thin_matches_thin_after_oracle():
    # the backward last-site construction must agree with forward independent
    # coins on a finite table
    probs = (0.6, 0.3, 0.8, 0.1)
    grid = TableGrid(probs)
    rng = _gen(54)
    masks_backward = np.zeros(16, dtype=np.int64)
    masks_forward = np.zeros(16, dtype=np.int64)
    for _ in range(6_000):
        kept = thin_grid(grid, rng)
        masks_backward[sum(1 << int(k) for k in kept)] += 1
        kept2 = grid_thin_after(lambda ks: grid.p(ks), 4, rng)
        masks_forward[sum(1 << int(k) for k in kept2)] += 1
    # exact joint pmf of 4 independent coins
    pmf = np.ones(16)
    for mask in range(16):
        for k in range(4):
            pmf[mask] *= probs[k] if mask & (1 << k) else 1.0 - probs[k]
    rep_b = chi_square(masks_backward, pmf, alpha=0.005)
    rep_f = chi_square(masks_forward, pmf, alpha=0.005)
    assert rep_b.accepted, rep_b.to_dict()
    assert rep_f.accepted, rep_f.to_dict()


def test_thin_returns_sorted_unique_indices():
    grid = GeometricGrid(0.9, 0.8)
    rng = _gen(57)
    for _ in range(200):
        kept = thin_grid(grid, rng)
        assert kept.dtype == np.int64
        assert np.all(np.diff(kept) > 0)


# -- renewal thin-first ------------------------------------------------------------------


def _poisson_chi_square(counts, mean, k_hi):
    probs = [math.exp(-mean) * mean**k / math.factorial(k) for k in range(k_hi)]
    probs.append(1.0 - sum(probs))
    observed = np.bincount(np.minimum(counts, k_hi), minlength=k_hi + 1)
    return chi_square(observed, np.asarray(probs), alpha=0.01)


def test_renewal_constant_hazard_full_retention_is_poisson():
    # hazard == bound makes the renewal stream Poisson(bound); retaining
    # everything on [0, T] must give Poisson(bound*T) counts
    M, T = 1.0, 5.0
    rng = _gen(58)
    thin = lambda t: np.asarray(np.asarray(t) <= T, dtype=float)
    p_tail = lambda t: max(T - t, 0.0)  # the tail of the indicator of [0, T]
    counts = np.array(
        [renewal_thin_first(lambda t: M, M, thin, rng, p_tail=p_tail).n for _ in range(4_000)]
    )
    rep = _poisson_chi_square(counts, M * T, 12)
    assert rep.accepted, rep.to_dict()


def test_renewal_zero_retention_is_empty():
    rng = _gen(59)
    thin = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    pat = renewal_thin_first(lambda t: 1.0, 1.0, thin, rng, p_tail=lambda t: 0.0)
    assert pat.n == 0


def test_renewal_thin_first_matches_thin_after_oracle():
    # Gamma(2, 1) interarrivals, retention e^{-t/2}
    from scipy import stats

    shape, scale = 2.0, 1.0
    bound = 1.0 / scale

    def hazard(u):
        if u <= 0:
            return 0.0
        sf = stats.gamma.sf(u, shape, scale=scale)
        if sf <= 0:
            return bound
        return min(stats.gamma.pdf(u, shape, scale=scale) / sf, bound)

    thin_rate = 0.5
    thin = lambda t: np.exp(-thin_rate * np.asarray(t, dtype=float))
    tail = dict(p_tail=lambda t: math.exp(-thin_rate * t) / thin_rate, p_mass=1.0 / thin_rate)
    rng = _gen(60)
    first = np.array(
        [renewal_thin_first(hazard, bound, thin, rng, **tail).n for _ in range(3_000)]
    )
    rng2 = _gen(61)
    after = np.array(
        [
            renewal_thin_after(
                lambda g: g.gamma(shape, scale),
                lambda t: np.exp(-thin_rate * np.asarray(t, dtype=float)),
                60.0 / thin_rate,
                rng2,
            ).n
            for _ in range(3_000)
        ]
    )
    rep = two_sample_ks(first, after, alpha=0.01)
    assert rep.accepted, rep.to_dict()


def test_renewal_hazard_bound_is_enforced():
    rng = _gen(62)
    thin = lambda t: np.asarray(np.asarray(t) <= 30.0, dtype=float)
    with pytest.raises(SamplerError, match="hazard left its declared bound"):
        renewal_thin_first(lambda t: 2.0, 1.0, thin, rng, p_tail=lambda t: max(30.0 - t, 0.0))


def test_renewal_heavy_tailed_retention_is_poisson():
    # p(t) = (1+t)^-2 has finite mass 1 but a tail 1/(1+t) that no fixed
    # horizon truncates below 1e-12; hazard == bound keeps every candidate
    bound = 1.5
    thin = lambda t: (1.0 + np.asarray(t, dtype=float)) ** -2
    tail = dict(p_tail=lambda t: 1.0 / (1.0 + t), p_mass=1.0)
    rng = _gen(90)
    counts = np.array(
        [renewal_thin_first(lambda u: bound, bound, thin, rng, **tail).n for _ in range(3_000)]
    )
    rep = _poisson_chi_square(counts, bound * 1.0, 8)
    assert rep.accepted, rep.to_dict()


def test_renewal_last_point_has_the_closed_form_law():
    # with hazard == bound the last output point is the last candidate T,
    # P(T <= t) = exp(-bound * p_tail(t)); conditioned on T existing
    from scipy import stats

    bound, rate = 1.5, 0.5
    thin = lambda t: np.exp(-rate * np.asarray(t, dtype=float))
    p_tail = lambda t: math.exp(-rate * t) / rate
    rng = _gen(91)
    last = []
    for _ in range(3_000):
        pat = renewal_thin_first(lambda u: bound, bound, thin, rng, p_tail=p_tail)
        if pat.n:
            last.append(pat.points[-1, 0])
    empty = math.exp(-bound / rate)
    cdf = lambda t: (np.exp(-bound * np.exp(-rate * np.asarray(t)) / rate) - empty) / (1 - empty)
    p = stats.kstest(last, cdf).pvalue
    assert p >= 0.01, p


def test_last_candidate_inverts_the_tail_to_the_last_float():
    from exactpp.germ_thinning import _last_candidate

    for y in np.geomspace(1e-300, 0.5, 400):
        t = _last_candidate(lambda t: math.exp(-t), y, 1.0)
        assert abs(t + math.log(y)) <= 2 * np.spacing(-math.log(y))


def _bisected_last_candidate(p_tail, y):
    """The reference search: doubling, then bisection to adjacent floats.
    Returns the last candidate and the number of tail evaluations."""
    calls = []

    def tail(t):
        calls.append(t)
        return p_tail(t)

    lo, hi = 0.0, 1.0
    while tail(hi) > y:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if tail(mid) > y:
            lo = mid
        else:
            hi = mid
    return hi, len(calls)


@pytest.mark.parametrize("name, p_tail, y_min", [
    ("exp", lambda t: math.exp(-t), 1e-300),
    ("exp-2.5", lambda t: math.exp(-2.5 * t) / 2.5, 1e-300),
    ("harmonic", lambda t: 1.0 / (1.0 + t), 1e-8),  # the doubling stops at t = 1e9
])
def test_last_candidate_matches_bisection_in_a_few_evaluations(name, p_tail, y_min):
    from exactpp.germ_thinning import _last_candidate

    top = p_tail(0.0)
    uniform = _gen(95).uniform(0.0, top, 5_000)  # about the law of a renewal draw's y
    counts = []
    for y in np.concatenate([uniform, np.geomspace(y_min, top, 5_000, endpoint=False)]).tolist():
        calls = []
        t = _last_candidate(lambda t: calls.append(t) or p_tail(t), y, 1.0)
        ref, ref_calls = _bisected_last_candidate(p_tail, y)
        assert t == ref, (name, y)
        assert len(calls) <= 2 * ref_calls, (name, y)
        counts.append(len(calls))
    assert np.mean(counts[:uniform.size]) <= 15.0


def test_renewal_checks_its_retention_description():
    thin = lambda t: np.exp(-np.asarray(t, dtype=float))
    # the tail is the one description of p: a support endpoint is refused
    with pytest.raises(TypeError, match="p_tail"):
        renewal_thin_first(lambda u: 1.0, 1.0, thin, _gen(92))
    with pytest.raises(TypeError, match="p_upper"):
        renewal_thin_first(lambda u: 1.0, 1.0, thin, _gen(92), p_upper=30.0)
    with pytest.raises(SamplerError, match="p_mass"):
        renewal_thin_first(
            lambda u: 1.0, 1.0, thin, _gen(92), p_tail=lambda t: math.exp(-t), p_mass=1.001
        )
    # a tail that never falls below p_tail(0) would double its bracket forever
    with pytest.raises(SamplerError, match="exceed"):
        renewal_thin_first(lambda u: 1.0, 1e3, thin, _gen(92), p_tail=lambda t: 1.0)


def _count_streams(monkeypatch):
    """Count homogeneous_chains calls, which draw every homogeneous stream
    (sample_homogeneous is its one-replicate call), made directly or through core."""
    from exactpp import core, germ_thinning

    calls = []
    draw = core.homogeneous_chains

    def counting(*args):
        calls.append(1)
        return draw(*args)

    monkeypatch.setattr(core, "homogeneous_chains", counting)
    monkeypatch.setattr(germ_thinning, "homogeneous_chains", counting)
    return calls


def test_each_renewal_draw_draws_one_stream(monkeypatch):
    # a renewal draw draws its stream inline: each stream's mean count is checked once
    from exactpp import germ_thinning

    calls = []
    mean_count = germ_thinning._mean_count
    monkeypatch.setattr(germ_thinning, "_mean_count", lambda *a: calls.append(1) or mean_count(*a))
    hazard = lambda u: 0.0 if u <= 0 else u / (1.0 + u)
    thin = lambda t: np.exp(-np.asarray(t, dtype=float) / 20.0)
    # P(no candidate) = exp(-20): every draw has a last candidate and a stream
    p_tail = lambda t: 20.0 * math.exp(-t / 20.0)
    rng = _gen(93)
    for _ in range(50):
        before = len(calls)
        renewal_thin_first(hazard, 1.0, thin, rng, p_tail=p_tail, p_mass=20.0)
        assert len(calls) == before + 1


def test_each_matern_draw_draws_one_stream(monkeypatch):
    calls = _count_streams(monkeypatch)
    window = Window((0.0, 0.0), (3.0, 3.0))
    rng = _gen(94)
    for _ in range(50):
        before = len(calls)
        matern_thin_first(2.0, 0.3, lambda pts: np.full(pts.shape[0], 0.8), window, rng)
        assert len(calls) == before + 1


# -- Matern hard core ----------------------------------------------------------


def test_matern_hard_core_distance_is_guaranteed():
    window = Window((0.0, 0.0), (2.0, 2.0))
    rng = _gen(63)
    radius = 0.3
    for _ in range(200):
        pat = matern_thin_first(4.0, radius, lambda pts: np.full(pts.shape[0], 0.8), window, rng)
        if pat.n >= 2:
            d = np.sqrt(np.sum((pat.points[:, None, :] - pat.points[None, :, :]) ** 2, axis=2))
            np.fill_diagonal(d, np.inf)
            assert d.min() > radius


def test_matern_tiny_radius_full_retention_reduces_to_poisson():
    window = Window((0.0, 0.0), (1.0, 1.0))
    rng = _gen(64)
    rate = 3.0
    counts = np.array(
        [
            matern_thin_first(rate, 1e-9, lambda pts: np.ones(pts.shape[0]), window, rng).n
            for _ in range(3_000)
        ]
    )
    rep = _poisson_chi_square(counts, rate, 10)
    assert rep.accepted, rep.to_dict()


def test_matern_thin_first_matches_direct_oracle():
    from exactpp.oracles import matern_direct_oracle

    window = Window((0.0, 0.0), (3.0, 3.0))
    rate, radius = 2.0, 0.3
    thin = lambda pts: np.full(pts.shape[0], 0.8)
    rng = _gen(65)
    first = np.array([matern_thin_first(rate, radius, thin, window, rng).n for _ in range(1_500)])
    rng2 = _gen(66)
    direct = np.array(
        [matern_direct_oracle(rate, radius, thin, window, rng2).n for _ in range(1_500)]
    )
    rep = two_sample_ks(first, direct, alpha=0.01)
    assert rep.accepted, rep.to_dict()


def test_mark_minimal_survival_matches_per_point_loop(monkeypatch):
    # one replicate takes the dense block only while it holds core.BLOCK pairs,
    # and the sweep past that: both match the loop
    from exactpp import core
    from exactpp.germ_thinning import _mark_minimal

    rng = _gen(68)
    for trial in range(60):
        dim = 1 + trial % 3
        n = int(rng.integers(1, 60))
        idx = np.flatnonzero(rng.random(n) < 0.5)
        pts = rng.random((n, dim)) * 2.0
        marks = rng.random(n)
        radius = float(rng.uniform(0.05, 0.8))
        expected = np.ones(idx.size, dtype=bool)
        for j, i in enumerate(idx):
            d2 = np.sum((pts - pts[i]) ** 2, axis=1)
            near = (d2 <= radius**2) & (np.arange(n) != i)
            if np.any(marks[near] < marks[i]):
                expected[j] = False
        assert np.array_equal(_mark_minimal(pts, marks, idx, radius), expected)
        with monkeypatch.context() as m:
            m.setattr(core, "BLOCK", 0)
            assert np.array_equal(_mark_minimal(pts, marks, idx, radius), expected)


def test_large_matern_draw_stays_in_bounded_memory():
    # about 6,000 stream points and as many candidates: one dense block of all
    # pairs would take about 0.8 GiB
    import tracemalloc

    window = Window((0.0, 0.0), (10.0, 10.0))
    tracemalloc.start()
    try:
        pat = matern_thin_first(60.0, 0.05, lambda pts: 1.0, window, _gen(69))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pat.n > 1_000
    assert peak < 64 * 2**20


def test_matern_rejects_invalid_thinning_probabilities():
    window = Window((0.0, 0.0), (2.0, 2.0))
    with pytest.raises(SamplerError, match=r"\[0,1\]"):
        matern_thin_first(5.0, 0.2, lambda pts: np.full(pts.shape[0], 1.5), window, _gen(67))


# -- non-linear self-exciting germ ----------------------------------------------


def test_nonlinear_constant_rate_reduces_to_poisson():
    window = Window((0.0,), (3.0,))
    c = 1.5
    rng = _gen(68)
    counts = np.array(
        [
            nonlinear_hawkes_germ(lambda d: c, c, lambda t: 0.5, 1.0, window, rng).n
            for _ in range(3_000)
        ]
    )
    lam = c * 3.0
    k_hi = 13
    probs = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(k_hi)]
    probs.append(1.0 - sum(probs))
    observed = np.bincount(np.minimum(counts, k_hi), minlength=k_hi + 1)
    rep = chi_square(observed, np.asarray(probs), alpha=0.01)
    assert rep.accepted, rep.to_dict()


def test_nonlinear_zero_excitation_uses_base_rate():
    window = Window((0.0,), (4.0,))

    def phi(drive):
        return 1.0 + drive  # with h == 0 the drive never grows

    rng = _gen(69)
    counts = np.array(
        [
            nonlinear_hawkes_germ(phi, 2.0, lambda t: 0.0, 1.0, window, rng).n
            for _ in range(3_000)
        ]
    )
    lam = 4.0  # phi(0) * |W|
    k_hi = 13
    probs = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(k_hi)]
    probs.append(1.0 - sum(probs))
    observed = np.bincount(np.minimum(counts, k_hi), minlength=k_hi + 1)
    rep = chi_square(observed, np.asarray(probs), alpha=0.01)
    assert rep.accepted, rep.to_dict()


def test_nonlinear_matches_burn_in_oracle():
    from exactpp.oracles import nonlinear_hawkes_burn_in

    window = Window((0.0,), (5.0,))
    bound, base, height, support = 2.0, 0.5, 0.8, 1.0

    def phi(drive):
        return bound * (-math.expm1(-(base + drive) / bound))

    def h(t):
        return height * max(1.0 - t / support, 0.0)

    rng = _gen(70)
    germ = np.array(
        [nonlinear_hawkes_germ(phi, bound, h, support, window, rng).n for _ in range(2_000)]
    )
    rng2 = _gen(71)
    burn = 20.0 * math.exp(bound * support) / bound + 10.0 * support
    oracle = np.array(
        [
            nonlinear_hawkes_burn_in(phi, bound, h, support, window, burn, rng2).n
            for _ in range(2_000)
        ]
    )
    rep = two_sample_ks(germ, oracle, alpha=0.01)
    assert rep.accepted, rep.to_dict()


def test_nonlinear_output_is_deterministic_per_stream():
    window = Window((0.0,), (5.0,))
    args = (lambda d: 1.0 + min(d, 0.5), 1.5, lambda t: 0.3, 1.0, window)
    a = nonlinear_hawkes_germ(*args, _gen(72))
    b = nonlinear_hawkes_germ(*args, _gen(72))
    assert np.array_equal(a.points, b.points)


def test_nonlinear_phi_bound_is_enforced():
    window = Window((0.0,), (2.0,))
    with pytest.raises(SamplerError, match="phi left its declared bound"):
        nonlinear_hawkes_germ(lambda d: 3.0, 1.0, lambda t: 0.0, 1.0, window, _gen(73))


def test_nonlinear_negative_excitation_is_refused():
    window = Window((0.0,), (2.0,))
    with pytest.raises(SamplerError, match="h took a negative value"):
        nonlinear_hawkes_germ(lambda d: 1.0, 1.0, lambda t: -0.1, 1.0, window, _gen(74))


def _saturating(bound, base):
    def phi(drive):
        return bound * -math.expm1(-(base + drive) / bound)

    return phi


def test_nonlinear_draw_at_large_bound_times_support_is_cheap_and_exact():
    # bound * support = 13, where a scan for a regeneration gap would draw
    # about e^13 points; with h = 0 the chains agree at once, and the law is
    # Poisson with rate phi(0)
    window = Window((0.0,), (5.0,))
    phi = _saturating(2.0, 0.5)
    rng = _gen(75)
    n = 3_000
    start = time.perf_counter()
    counts = np.array(
        [nonlinear_hawkes_germ(phi, 2.0, lambda t: 0.0, 6.5, window, rng).n for _ in range(n)]
    )
    assert (time.perf_counter() - start) / n < 1e-3
    expected = phi(0.0) * 5.0
    assert abs(counts.mean() - expected) < 3 * math.sqrt(expected / n)


@pytest.mark.parametrize("height,support", [(0.8, 1.0), (0.8, 3.0), (2.0, 0.5)])
def test_nonlinear_lower_chain_keeps_no_point_the_upper_drops(height, support):
    # the coupling's monotonicity, on random streams and coins: a chain that
    # starts from the full history keeps every point the empty start keeps
    bound = 2.0
    phi = _saturating(bound, 0.5)

    def h(t):
        return height * max(1.0 - t / support, 0.0)

    rng = _gen(76)
    differ = 0
    for _ in range(300):
        length = rng.uniform(0.5, 10.0)
        times = np.sort(rng.random(rng.poisson(bound * length)) * length).tolist()
        coins = rng.random(len(times)).tolist()
        forced = bisect.bisect_left(times, support)
        lower = _retained(times, coins, 0, phi, bound, h, support)
        upper = _retained(times, coins, forced, phi, bound, h, support)
        assert upper[:forced] == [True] * forced
        assert not any(lo and not up for lo, up in zip(lower, upper))
        differ += lower[forced:] != upper[forced:]
    assert differ > 0  # the chains do differ past the forced points


class _Recorded:
    """A generator that records the name of each method call it makes."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self.calls.append(name)
            return getattr(self.rng, name)(*args, **kwargs)

        return call


def test_nonlinear_span_past_the_limit_is_refused_before_it_is_drawn(monkeypatch):
    # phi(0) = 0: the lower chain keeps nothing, the upper keeps every point
    # until a gap longer than the support, which a span of 4 at rate 5
    # rarely holds, so at this seed the two differ on the window's points;
    # the limit admits spans of 2 (mean 10), so the third, of 4, is refused
    # before its count is drawn
    monkeypatch.setattr(core, "MAX_MEAN_POINTS", 15.0)
    window = Window((0.0,), (1.0,))
    rng = _Recorded(_gen(77))
    with pytest.raises(SamplerError, match="mean point count 20 exceeds the limit"):
        nonlinear_hawkes_germ(lambda d: 5.0 if d >= 1.0 else 0.0, 5.0, lambda t: 1.0, 2.0,
                              window, rng)
    # the window's count, positions and coins, then two spans' counts, positions and coins
    assert rng.calls == ["poisson", "random", "random"] + ["poisson", "random", "random"] * 2
