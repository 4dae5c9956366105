"""Boolean models and Poisson lines: closed-form hit probabilities, coverage
against the exponential-of-mean-area formula, the chord geometry of
retained lines, and the closed-form conditional laws and batched predicates
against the per-germ rejection and scalar loops they replace."""

import math

import numpy as np
import pytest

from exactpp import (
    ConfigError,
    DiskGrains,
    DiskWindow,
    ExpRadius,
    FixedRadius,
    RngStream,
    SamplerError,
    SegmentGrains,
    UniformRadius,
    Window,
    boolean_exact_sample,
    hit_prob_poisson_line,
    sample_poisson_lines,
)
from exactpp.boolean_model import _line_angles, segment_hits_box
from exactpp.validation import mean_ci, two_sample_ks

SQUARE = Window((0.0, 0.0), (4.0, 4.0))


def _gen(seed, stream=0):
    return RngStream(seed, stream).generator()


# -- radius laws -------------------------------------------------------------------


def test_radius_laws_validate_parameters():
    with pytest.raises(ConfigError):
        FixedRadius(-0.5)
    with pytest.raises(ConfigError):
        UniformRadius(2.0, 1.0)
    with pytest.raises(ConfigError):
        UniformRadius(-0.1, 1.0)
    with pytest.raises(ConfigError):
        ExpRadius(0.0)


def test_radius_tails():
    assert FixedRadius(1.0).tail(0.5) == 1.0
    assert FixedRadius(1.0).tail(1.0) == 1.0
    assert FixedRadius(1.0).tail(1.5) == 0.0
    assert UniformRadius(0.0, 2.0).tail(1.0) == pytest.approx(0.5)
    assert ExpRadius(1.0).tail(1.0) == pytest.approx(math.exp(-1.0))
    assert ExpRadius(1.0).tail(0.0) == 1.0


# -- disk grains --------------------------------------------------------------------


def test_disk_hit_prob_examples():
    grains = DiskGrains(FixedRadius(1.0))
    inside = np.array([[1.0, 1.0]])
    assert grains.hit_prob(inside, SQUARE)[0] == 1.0
    two_away = np.array([[-2.0, 2.0]])  # distance 2 from the box
    assert grains.hit_prob(two_away, SQUARE)[0] == 0.0
    exp_grains = DiskGrains(ExpRadius(1.0))
    one_away = np.array([[-1.0, 2.0]])
    assert exp_grains.hit_prob(one_away, SQUARE)[0] == pytest.approx(math.exp(-1.0))


def test_zero_rate_boolean_model_is_empty():
    sample = boolean_exact_sample(0.0, DiskGrains(FixedRadius(0.5)), SQUARE, _gen(31))
    assert sample.germ_pattern().n == 0
    probes = SQUARE.sample_uniform(100, _gen(32))
    assert not sample.coverage(probes).any()


def test_unbounded_grains_need_truncation():
    with pytest.raises(SamplerError, match="truncation radius"):
        boolean_exact_sample(1.0, DiskGrains(ExpRadius(2.0)), SQUARE, _gen(33))


def test_truncation_mass_must_be_certified():
    with pytest.raises(SamplerError, match="neglected retention mass"):
        boolean_exact_sample(
            1.0, DiskGrains(ExpRadius(2.0)), SQUARE, _gen(34), truncation_radius=1.0
        )
    # far enough out the exponential tail certifies
    sample = boolean_exact_sample(
        1.0, DiskGrains(ExpRadius(2.0)), SQUARE, _gen(35), truncation_radius=25.0
    )
    assert sample.window is SQUARE


def test_conditioned_grain_reaches_the_window():
    grains = DiskGrains(ExpRadius(1.0))
    rng = _gen(36)
    x = np.array([-1.5, 2.0])  # distance 1.5 from the box
    for _ in range(200):
        grain = grains.sample_conditioned(x, SQUARE, rng)
        assert grain["radius"] >= 1.5


@pytest.mark.parametrize(
    "law", [UniformRadius(0.1, 0.6), ExpRadius(2.0)], ids=["uniform", "exp"]
)
def test_sample_at_least_matches_rejection(law):
    rng = _gen(44)
    for d in (0.0, 0.3, 0.5):
        closed = law.sample_at_least(np.full(4_000, d), rng)
        assert np.all(closed >= d)
        draws = law.sample(60_000, rng)
        rejected = draws[draws >= d][:4_000]
        rep = two_sample_ks(closed, rejected, alpha=0.01)
        assert rep.accepted, (d, rep.to_dict())


def test_fixed_radius_conditioning_draws_no_random_number():
    rng = _gen(45)
    assert np.array_equal(FixedRadius(0.5).sample_at_least(np.array([0.0, 0.4]), rng), [0.5, 0.5])
    assert rng.random() == _gen(45).random()


def test_conditioning_a_germ_beyond_reach_raises():
    with pytest.raises(SamplerError, match="cannot reach"):
        DiskGrains(FixedRadius(0.5)).sample_conditioned(np.array([-1.0, 2.0]), SQUARE, _gen(46))


def test_coverage_matches_per_grain_loop():
    rng = _gen(47)
    sample = boolean_exact_sample(1.0, DiskGrains(UniformRadius(0.1, 0.6)), SQUARE, rng)
    probes = SQUARE.buffered(0.5).sample_uniform(2_000, rng)
    covered = np.zeros(probes.shape[0], dtype=bool)
    for g in sample.grains:
        covered |= np.sum((probes - np.asarray(g["center"])) ** 2, axis=1) <= g["radius"] ** 2
    assert len(sample.grains) > 5 and covered.any() and not covered.all()
    assert np.array_equal(sample.coverage(probes), covered)


def test_coverage_matches_closed_form():
    # coverage fraction of a stationary Boolean model: 1 - exp(-lambda pi E[R^2])
    rate, radius = 1.0, 0.5
    target = 1.0 - math.exp(-rate * math.pi * radius**2)
    rng = _gen(37)
    probe_rng = _gen(38)
    grains = DiskGrains(FixedRadius(radius))
    fractions = np.empty(400)
    for i in range(fractions.size):
        sample = boolean_exact_sample(rate, grains, SQUARE, rng)
        probes = SQUARE.sample_uniform(400, probe_rng)
        fractions[i] = sample.coverage(probes).mean()
    mean, half = mean_ci(fractions, z=4.0)
    assert abs(mean - target) < half


def test_germs_live_in_the_reach_buffered_region():
    grains = DiskGrains(FixedRadius(0.5))
    rng = _gen(39)
    region = SQUARE.buffered(0.5)
    for _ in range(100):
        sample = boolean_exact_sample(1.0, grains, SQUARE, rng)
        if sample.germ_pattern().n:
            assert np.all(region.contains(sample.germs))


def test_every_retained_disk_hits_the_window():
    grains = DiskGrains(UniformRadius(0.1, 0.6))
    rng = _gen(40)
    for _ in range(100):
        sample = boolean_exact_sample(1.0, grains, SQUARE, rng)
        for g in sample.grains:
            c = np.asarray(g["center"])
            d = np.linalg.norm(c - np.clip(c, SQUARE.lower, SQUARE.upper))
            assert g["radius"] >= d - 1e-12


# -- segment grains ------------------------------------------------------------------


def test_segment_interior_germ_always_hits():
    grains = SegmentGrains(length=1.0)
    assert grains.hit_prob(np.array([[2.0, 2.0]]), SQUARE, n_angle=64)[0] == 1.0


def test_segment_sampler_keeps_only_window_hitting_segments():
    grains = SegmentGrains(length=1.0)
    rng = _gen(41)
    seen = 0
    for _ in range(50):
        sample = boolean_exact_sample(0.5, grains, SQUARE, rng)
        for g in sample.grains:
            seen += 1
            assert segment_hits_box(g["p0"], g["p1"], SQUARE)
    assert seen > 0


def _scalar_slab_hit(p0, p1, window):
    """One segment at a time, with early exits: the predicate's reference."""
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(p1, dtype=float) - p0
    t0, t1 = 0.0, 1.0
    for ax in range(len(p0)):
        lo, hi = window.lower[ax], window.upper[ax]
        if abs(d[ax]) < 1e-300:
            if p0[ax] < lo or p0[ax] > hi:
                return False
            continue
        ta = (lo - p0[ax]) / d[ax]
        tb = (hi - p0[ax]) / d[ax]
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return False
    return True


def _segment_cases(rng):
    """Random segments, axis-parallel ones, and ones ending on the box boundary."""
    n = 3_000
    p0 = rng.uniform(-2.0, 6.0, (n, 2))
    p1 = p0 + rng.uniform(-3.0, 3.0, (n, 2))
    flat0 = rng.uniform(-2.0, 6.0, (n, 2))
    flat1 = flat0.copy()
    axis = rng.integers(0, 2, n)
    flat1[np.arange(n), axis] += rng.uniform(-3.0, 3.0, n)
    flat0[: n // 4, :] = rng.choice([-1.0, 0.0, 2.0, 4.0, 5.0], (n // 4, 2))
    flat1[: n // 4, :] = flat0[: n // 4, :]
    flat1[: n // 4, 0] += rng.choice([-1.0, 1.0], n // 4)
    edge = rng.uniform(0.0, 4.0, (n, 2))
    edge[np.arange(n), axis] = rng.choice([0.0, 4.0], n)
    outer = edge + rng.uniform(-2.0, 2.0, (n, 2))
    return np.vstack([p0, flat0, edge, outer]), np.vstack([p1, flat1, outer, edge])


def test_batched_slab_predicate_matches_scalar_loop():
    p0, p1 = _segment_cases(_gen(48))
    batched = segment_hits_box(p0, p1, SQUARE)
    expected = np.array([_scalar_slab_hit(a, b, SQUARE) for a, b in zip(p0, p1)])
    assert batched.dtype == bool and np.array_equal(batched, expected)
    assert 0 < expected.sum() < expected.size
    single = [segment_hits_box(a, b, SQUARE) for a, b in zip(p0[:200], p1[:200])]
    assert all(type(v) is bool for v in single) and single == expected[:200].tolist()


def test_segment_hit_prob_matches_scalar_loop():
    grains = SegmentGrains(length=1.0)
    probes = SQUARE.buffered(0.5).sample_uniform(20, _gen(49))
    n_angle = 256
    thetas = (np.arange(n_angle) + 0.5) * np.pi / n_angle
    expected = np.empty(probes.shape[0])
    for i, x in enumerate(probes):
        hits = 0
        for theta in thetas:
            h = 0.5 * grains.length * np.array([np.cos(theta), np.sin(theta)])
            hits += _scalar_slab_hit(x - h, x + h, SQUARE)
        expected[i] = hits / n_angle
    assert np.array_equal(grains.hit_prob(probes, SQUARE, n_angle=n_angle), expected)


# -- Poisson lines --------------------------------------------------------------------


def test_line_hit_prob_examples():
    R = 1.0
    on_circle = np.array([[R, 0.0]])
    assert hit_prob_poisson_line(on_circle, R)[0] == pytest.approx(0.5)
    twice_out = np.array([[0.0, 2.0 * R]])
    assert hit_prob_poisson_line(twice_out, R)[0] == pytest.approx(1.0 / 6.0)
    far = np.array([[1e6, 0.0]])
    assert hit_prob_poisson_line(far, R)[0] < 1e-5
    inside = np.array([[0.2, 0.1]])
    assert hit_prob_poisson_line(inside, R)[0] == 1.0


def test_line_hit_prob_monotone_in_distance():
    d = np.linspace(1.0, 30.0, 200)
    p = hit_prob_poisson_line(np.column_stack([d, np.zeros_like(d)]), 1.0)
    assert np.all(np.diff(p) <= 1e-15)


def test_sampled_chords_actually_cross_the_disk():
    target = DiskWindow((2.0, 2.0), 1.0)
    region = Window((0.0, 0.0), (4.0, 4.0))
    rng = _gen(42)
    total = 0
    for _ in range(50):
        ls = sample_poisson_lines(0.8, target, region, rng)
        assert ls.germs.shape[0] == ls.angles.shape[0] == len(ls.chords)
        for (p0, p1) in ls.chords:
            total += 1
            for end in (p0, p1):
                assert np.linalg.norm(np.asarray(end) - np.asarray(target.center)) == pytest.approx(
                    target.radius, abs=1e-9
                )
        # the germ lies on its own chord line
        for germ, theta, (p0, p1) in zip(ls.germs, ls.angles, ls.chords):
            u = np.array([math.cos(theta), math.sin(theta)])
            v = np.asarray(p1) - np.asarray(p0)
            if np.linalg.norm(v) > 1e-9:
                cross = abs(u[0] * v[1] - u[1] * v[0])
                assert cross < 1e-9
    assert total > 0


def test_retained_line_count_mean():
    # mean retained germs = rate * integral of the arcsin rule over the region
    target = DiskWindow((2.0, 2.0), 1.0)
    region = Window((0.0, 0.0), (4.0, 4.0))
    rate = 0.8
    grid = np.linspace(0.0, 4.0, 401)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    pts = np.column_stack([xx.ravel() - 2.0, yy.ravel() - 2.0])
    p = hit_prob_poisson_line(pts, 1.0)
    cell = (grid[1] - grid[0]) ** 2
    expected = rate * p.sum() * cell
    rng = _gen(43)
    counts = np.array(
        [sample_poisson_lines(rate, target, region, rng).germs.shape[0] for _ in range(3_000)]
    )
    mean, half = mean_ci(counts, z=4.0)
    assert abs(mean - expected) < half + 0.02  # small quadrature slack


def _rejected_angles(x, radius, n, rng):
    """Uniform directions in [0, pi) kept when the line through x meets the disk."""
    out = []
    while len(out) < n:
        theta = rng.random(4 * n) * np.pi
        cross = np.abs(np.cos(theta) * -x[1] - np.sin(theta) * -x[0])
        out.extend(theta[cross <= radius].tolist())
    return np.asarray(out[:n])


@pytest.mark.parametrize("rho", [0.4, 1.5, 3.0, 8.0], ids=["inside", "near", "mid", "far"])
def test_closed_form_line_angle_matches_rejection(rho):
    radius = 1.0
    x = rho * np.array([math.cos(0.7), math.sin(0.7)])
    rng = _gen(50)
    closed = _line_angles(np.tile(x, (3_000, 1)), radius, rng)
    assert np.all((closed >= 0.0) & (closed <= np.pi))
    cross = np.abs(np.cos(closed) * -x[1] - np.sin(closed) * -x[0])
    assert np.all(cross <= radius * (1 + 1e-12))
    rep = two_sample_ks(closed, _rejected_angles(x, radius, 3_000, rng), alpha=0.01)
    assert rep.accepted, rep.to_dict()


def test_every_sampled_line_meets_the_disk():
    target = DiskWindow((2.0, 2.0), 1.0)
    region = Window((-3.0, -3.0), (7.0, 7.0))
    rng = _gen(51)
    for _ in range(100):
        ls = sample_poisson_lines(0.8, target, region, rng)
        c = np.asarray(target.center) - ls.germs
        cross = np.abs(np.cos(ls.angles) * c[:, 1] - np.sin(ls.angles) * c[:, 0])
        assert np.all(cross <= target.radius * (1 + 1e-12))
