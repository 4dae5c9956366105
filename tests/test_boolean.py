"""Boolean models and Poisson lines: the Steiner-weighted disk draw against
a definition-based reference, the radius laws' moments and r^k-reweighted
draws, coverage against the exponential-of-mean-area formula, the chord
geometry of retained rays, and the closed-form ray directions and batched
predicates against the rejection and scalar loops they replace."""

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
from exactpp.boolean_model import _line_angles, box_distance, segment_hits_box
from exactpp.validation import mean_ci, two_sample_ks

LAWS = [FixedRadius(0.5), UniformRadius(0.1, 0.6), ExpRadius(2.0)]
LAW_IDS = ["fixed", "uniform", "exp"]

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


@pytest.mark.parametrize(
    "law,moments",
    [
        (FixedRadius(0.5), [1.0, 0.5, 0.25]),
        (UniformRadius(0.1, 0.6), [1.0, 0.35, 0.215 / 1.5]),
        (ExpRadius(2.0), [1.0, 0.5, 0.5]),
    ],
    ids=LAW_IDS,
)
def test_radius_moments_match_closed_forms(law, moments):
    draws = law.sample(200_000, _gen(52))
    for k, m in enumerate(moments):
        assert law.moment(k) == pytest.approx(m, rel=1e-12)
        assert np.mean(draws**k) == pytest.approx(m, rel=0.02)


@pytest.mark.parametrize("law", [UniformRadius(0.1, 0.6), ExpRadius(2.0)], ids=["uniform", "exp"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_sample_biased_matches_reweighting(law, k):
    # the law reweighted by r^k, by importance resampling of plain draws
    rng = _gen(44, k)
    pool = law.sample(400_000, rng)
    w = pool**k
    reweighted = pool[rng.choice(pool.size, 4_000, p=w / w.sum())]
    biased = law.sample_biased(k, 4_000, rng)
    rep = two_sample_ks(biased, reweighted, alpha=0.01)
    assert rep.accepted, (k, rep.to_dict())


def test_fixed_radius_conditioning_draws_no_random_number():
    rng = _gen(45)
    for k in range(3):
        assert np.array_equal(FixedRadius(0.5).sample_biased(k, 2, rng), [0.5, 0.5])
    assert rng.random() == _gen(45).random()


# -- disk grains --------------------------------------------------------------------


def test_zero_rate_boolean_model_is_empty():
    sample = boolean_exact_sample(0.0, DiskGrains(FixedRadius(0.5)), SQUARE, _gen(31))
    assert sample.germs.shape[0] == 0
    probes = SQUARE.sample_uniform(100, _gen(32))
    assert not sample.coverage(probes).any()


def _reference_disks(rate, law, window, buffer, rng):
    """The Boolean model by its definition: Poisson germs on a generously
    buffered box with unconditioned radii, keeping the disks that meet W."""
    region = window.buffered(buffer)
    germs = region.sample_uniform(rng.poisson(rate * region.volume()), rng)
    radii = law.sample(germs.shape[0], rng)
    return radii[box_distance(germs, window) <= radii]


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_kept_disks_match_the_definition(law):
    # radii beyond the buffer of 12 have mass e^-24 under ExpRadius(2)
    buffer = 12.0 if isinstance(law, ExpRadius) else 0.6
    grains = DiskGrains(law)
    rng, ref_rng = _gen(53), _gen(54)
    counts, ref_counts, radii, ref_radii = [], [], [], []
    for _ in range(1_000):
        sample = boolean_exact_sample(1.0, grains, SQUARE, rng)
        counts.append(sample.germs.shape[0])
        radii.extend(sample.radii.tolist())
        ref = _reference_disks(1.0, law, SQUARE, buffer, ref_rng)
        ref_counts.append(ref.size)
        ref_radii.extend(ref.tolist())
    assert two_sample_ks(counts, ref_counts, alpha=0.01).accepted
    if not isinstance(law, FixedRadius):
        rep = two_sample_ks(radii[:5_000], ref_radii[:5_000], alpha=0.01)
        assert rep.accepted, rep.to_dict()
    # Steiner: mean count rate * (A + P E R + pi E R^2)
    expected = 16.0 + 16.0 * law.moment(1) + math.pi * law.moment(2)
    mean, half = mean_ci(counts, z=4.0)
    assert abs(mean - expected) < half


def test_exp_radius_coverage_at_the_corner():
    # stationary coverage 1 - exp(-rate pi E R^2) holds at the window's corner
    target = 1.0 - math.exp(-math.pi * ExpRadius(2.0).moment(2))
    grains = DiskGrains(ExpRadius(2.0))
    rng = _gen(55)
    hits = [
        bool(boolean_exact_sample(1.0, grains, SQUARE, rng).coverage([[0.1, 0.1]])[0])
        for _ in range(4_000)
    ]
    mean, half = mean_ci(np.asarray(hits, dtype=float), z=4.0)
    assert abs(mean - target) < half


@pytest.mark.parametrize(
    "rate,message", [(-1.0, "rate must be nonnegative"), (1e15, "mean point count")]
)
def test_disk_grains_refuse_a_bad_rate_before_drawing(rate, message):
    rng = _gen(57)
    with pytest.raises(SamplerError, match=message):
        boolean_exact_sample(rate, DiskGrains(FixedRadius(0.5)), SQUARE, rng)
    assert rng.random() == _gen(57).random()  # nothing was drawn


def test_disk_grains_need_a_planar_window():
    with pytest.raises(ConfigError, match="2-D window"):
        boolean_exact_sample(1.0, DiskGrains(FixedRadius(0.5)), Window((0.0,), (4.0,)), _gen(56))


def test_coverage_matches_per_grain_loop():
    rng = _gen(47)
    sample = boolean_exact_sample(1.0, DiskGrains(UniformRadius(0.1, 0.6)), SQUARE, rng)
    probes = SQUARE.buffered(0.5).sample_uniform(2_000, rng)
    covered = np.zeros(probes.shape[0], dtype=bool)
    for center, radius in zip(sample.germs, sample.radii):
        covered |= np.sum((probes - center) ** 2, axis=1) <= radius**2
    assert sample.germs.shape[0] > 5 and covered.any() and not covered.all()
    assert np.array_equal(sample.coverage(probes), covered)


@pytest.mark.parametrize("rate,law", [(0.0, LAWS[0]), *((1.5, law) for law in LAWS)],
                         ids=["empty", *LAW_IDS])
def test_coverage_equals_the_broadcast_formula(rate, law):
    """The mask is bit for bit the summed (probes, disks, 2) broadcast's, also
    for probes on a disk's rim."""
    rng = _gen(61)
    for _ in range(5):
        sample = boolean_exact_sample(rate, DiskGrains(law), SQUARE, rng)
        centers, radii = sample.germs, sample.radii
        rims = centers + np.stack([radii, np.zeros_like(radii)], axis=1)
        probes = np.concatenate([SQUARE.buffered(0.5).sample_uniform(400, rng), rims])
        d2 = np.sum((probes[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        assert np.array_equal(sample.coverage(probes), np.any(d2 <= radii**2, axis=1))
        assert (sample.germs.shape[0] == 0) == (rate == 0.0)


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
        if sample.germs.shape[0]:
            assert np.all(region.contains(sample.germs))


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_every_retained_disk_hits_the_window(law):
    grains = DiskGrains(law)
    rng = _gen(40)
    for _ in range(100):
        sample = boolean_exact_sample(1.0, grains, SQUARE, rng)
        for c, radius in zip(sample.germs, sample.radii):
            d = np.linalg.norm(c - np.clip(c, SQUARE.lower, SQUARE.upper))
            assert radius >= d - 1e-12


# -- segment grains ------------------------------------------------------------------


def test_segment_interior_germ_always_hits():
    thetas = np.linspace(0.0, np.pi, 64, endpoint=False)
    p0, p1 = SegmentGrains(length=1.0).endpoints(np.array([2.0, 2.0]), thetas)
    assert segment_hits_box(p0, p1, SQUARE).all()


def test_segment_sampler_keeps_only_window_hitting_segments():
    grains = SegmentGrains(length=1.0)
    rng = _gen(41)
    seen = 0
    for _ in range(50):
        sample = boolean_exact_sample(0.5, grains, SQUARE, rng)
        for p0, p1 in zip(sample.p0, sample.p1):
            seen += 1
            assert segment_hits_box(p0, p1, SQUARE)
    assert seen > 0


LINE = Window((0.0,), (4.0,))
CUBE = Window((0.0, 0.0, 0.0), (4.0, 4.0, 4.0))


@pytest.mark.parametrize("window", [LINE, CUBE], ids=["1d", "3d"])
def test_segment_grains_need_a_planar_window(window):
    rng = _gen(58)
    with pytest.raises(ConfigError, match="2-D window"):
        boolean_exact_sample(1.0, SegmentGrains(1.0), window, rng)
    assert rng.random() == _gen(58).random()  # nothing was drawn


def test_segment_germ_count_matches_steiner():
    # germs whose length-L segment meets the box: mean area A + L P / pi
    grains = SegmentGrains(length=1.0)
    rng = _gen(57)
    counts = [boolean_exact_sample(0.5, grains, SQUARE, rng).germs.shape[0] for _ in range(4_000)]
    mean, half = mean_ci(counts, z=4.0)
    assert abs(mean - 0.5 * (16.0 + 16.0 / math.pi)) < half


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


def _per_axis_slab_hits(p0, p1, window):
    """One batched slab test per axis, in a Python loop over the axes: the
    reference for the predicate's single broadcast over the last axis."""
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(p1, dtype=float) - p0
    t0 = np.zeros(p0.shape[:-1])
    t1 = np.ones(p0.shape[:-1])
    hit = np.ones(p0.shape[:-1], dtype=bool)
    for ax in range(p0.shape[-1]):
        lo, hi = window.lower[ax], window.upper[ax]
        x, dx = p0[..., ax], d[..., ax]
        flat = np.abs(dx) < 1e-300
        hit &= ~(flat & ((x < lo) | (x > hi)))
        step = np.where(flat, 1.0, dx)
        ta = (lo - x) / step
        tb = (hi - x) / step
        t0 = np.where(flat, t0, np.maximum(t0, np.minimum(ta, tb)))
        t1 = np.where(flat, t1, np.minimum(t1, np.maximum(ta, tb)))
    hit &= t0 <= t1
    return bool(hit) if hit.ndim == 0 else hit


def _slab_cases(rng, dim, n=2_000):
    """Segments against the box [0, 4]^dim: random ones, axis-parallel ones,
    zero-length ones, and ones between points of a grid through the box's
    faces and corners, so that many touch a face or a corner exactly."""
    p0 = rng.uniform(-2.0, 6.0, (n, dim))
    p1 = p0 + rng.uniform(-3.0, 3.0, (n, dim))
    flat0 = rng.uniform(-2.0, 6.0, (n, dim))
    flat1 = flat0.copy()
    flat1[np.arange(n), rng.integers(0, dim, n)] += rng.uniform(-3.0, 3.0, n)
    still = rng.choice([-1.0, 0.0, 2.0, 4.0, 5.0], (n, dim))
    grid = [-1.0, 0.0, 1.0, 3.0, 4.0, 5.0]
    face0, face1 = rng.choice(grid, (n, dim)), rng.choice(grid, (n, dim))
    return np.vstack([p0, flat0, still, face0]), np.vstack([p1, flat1, still, face1])


@pytest.mark.parametrize("window", [LINE, SQUARE, CUBE], ids=["1d", "2d", "3d"])
def test_slab_broadcast_matches_per_axis_loop(window):
    p0, p1 = _slab_cases(_gen(59, window.dim), window.dim)
    expected = _per_axis_slab_hits(p0, p1, window)
    assert np.array_equal(segment_hits_box(p0, p1, window), expected)
    assert 0 < expected.sum() < expected.size
    # scalar (dim,) end points, from each kind of case
    for i in range(0, p0.shape[0], 50):
        hit = segment_hits_box(p0[i], p1[i], window)
        assert type(hit) is bool and hit == _per_axis_slab_hits(p0[i], p1[i], window)


def test_batched_slab_predicate_matches_scalar_loop():
    p0, p1 = _segment_cases(_gen(48))
    batched = segment_hits_box(p0, p1, SQUARE)
    expected = np.array([_scalar_slab_hit(a, b, SQUARE) for a, b in zip(p0, p1)])
    assert batched.dtype == bool and np.array_equal(batched, expected)
    assert 0 < expected.sum() < expected.size
    single = [segment_hits_box(a, b, SQUARE) for a, b in zip(p0[:200], p1[:200])]
    assert all(type(v) is bool for v in single) and single == expected[:200].tolist()


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


def _chords(ls):
    """The part of each sampled ray inside the target disk, as end points
    (n, 2): an inside germ's chord starts at the germ."""
    center, germs = np.asarray(ls.target.center), ls.germs
    u = np.stack([np.cos(ls.angles), np.sin(ls.angles)], axis=1)
    t0 = np.sum((center - germs) * u, axis=1)
    h2 = ls.target.radius**2 - np.sum((germs + t0[:, None] * u - center) ** 2, axis=1)
    h = np.sqrt(np.maximum(h2, 0.0))
    return germs + np.maximum(t0 - h, 0.0)[:, None] * u, germs + (t0 + h)[:, None] * u


def test_sampled_chords_actually_cross_the_disk():
    target = DiskWindow((2.0, 2.0), 1.0)
    center = np.asarray(target.center)
    region = Window((0.0, 0.0), (4.0, 4.0))
    rng = _gen(42)
    inside = outside = 0
    for _ in range(50):
        ls = sample_poisson_lines(0.8, target, region, rng)
        ends0, ends1 = _chords(ls)
        assert ls.germs.shape[0] == ls.angles.shape[0] == len(ends0)
        for germ, theta, p0, p1 in zip(ls.germs, ls.angles, ends0, ends1):
            # a germ inside the disk starts its ray's chord
            if np.linalg.norm(germ - center) < target.radius:
                inside += 1
                assert np.allclose(p0, germ, rtol=0.0, atol=1e-12)
            else:
                outside += 1
                assert np.linalg.norm(p0 - center) == pytest.approx(target.radius, abs=1e-9)
            assert np.linalg.norm(p1 - center) == pytest.approx(target.radius, abs=1e-9)
            # the chord lies on the ray from the germ, in its direction
            u = np.array([math.cos(theta), math.sin(theta)])
            for v in (p0 - germ, p1 - germ):
                assert abs(u[0] * v[1] - u[1] * v[0]) < 1e-9
                assert np.dot(u, v) >= -1e-12
    assert inside > 0 and outside > 0


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
    """Uniform directions in [0, 2 pi) kept when the ray from x meets the disk."""
    out = []
    while len(out) < n:
        theta = rng.random(4 * n) * 2.0 * np.pi
        cross = np.abs(np.cos(theta) * -x[1] - np.sin(theta) * -x[0])
        ahead = np.cos(theta) * -x[0] + np.sin(theta) * -x[1] >= 0.0
        meets = (cross <= radius) & (ahead | (np.hypot(*x) <= radius))
        out.extend(theta[meets].tolist())
    return np.asarray(out[:n])


@pytest.mark.parametrize("rho", [0.4, 1.5, 3.0, 8.0], ids=["inside", "near", "mid", "far"])
def test_closed_form_line_angle_matches_rejection(rho):
    radius = 1.0
    x = rho * np.array([math.cos(0.7), math.sin(0.7)])
    rng = _gen(50)
    closed = _line_angles(np.tile(x, (3_000, 1)), radius, rng)
    assert np.all((closed >= 0.0) & (closed <= 2.0 * np.pi))
    cross = np.abs(np.cos(closed) * -x[1] - np.sin(closed) * -x[0])
    assert np.all(cross <= radius * (1 + 1e-12))
    rep = two_sample_ks(closed, _rejected_angles(x, radius, 3_000, rng), alpha=0.01)
    assert rep.accepted, rep.to_dict()


@pytest.mark.parametrize("region", [LINE, CUBE], ids=["1d", "3d"])
def test_poisson_lines_need_a_planar_germ_region(region):
    rng = _gen(60)
    with pytest.raises(ConfigError, match="2-D germ region"):
        sample_poisson_lines(50.0, DiskWindow((2.0, 2.0), 1.0), region, rng)
    assert rng.random() == _gen(60).random()  # nothing was drawn


def test_every_sampled_line_meets_the_disk():
    target = DiskWindow((2.0, 2.0), 1.0)
    region = Window((-3.0, -3.0), (7.0, 7.0))
    rng = _gen(51)
    for _ in range(100):
        ls = sample_poisson_lines(0.8, target, region, rng)
        c = np.asarray(target.center) - ls.germs
        cross = np.abs(np.cos(ls.angles) * c[:, 1] - np.sin(ls.angles) * c[:, 0])
        assert np.all(cross <= target.radius * (1 + 1e-12))
        # a germ outside the disk points its ray toward the centre
        ahead = np.cos(ls.angles) * c[:, 0] + np.sin(ls.angles) * c[:, 1]
        outside = np.hypot(c[:, 0], c[:, 1]) > target.radius
        assert np.all(ahead[outside] >= 0.0)
