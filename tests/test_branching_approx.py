"""Generation-truncated branching sampler: certificate algebra, the smallest
sufficient generation count, buffered-germ restriction moments, the
collapse/overflow guard rails, and the Galton-Watson engine it shares with
the Hawkes sampler."""

import hashlib
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactpp import (
    ExponentialFertility,
    HawkesSampler,
    PointPattern,
    RngStream,
    SamplerError,
    TranslatedPoissonCluster,
    TruncationCertificate,
    UniformDisplacement,
    Window,
    approx_branching_sample,
    certificate_generations_for,
    core,
    sample_gw_cluster,
)
from exactpp.branching_approx import spine_nodes
from exactpp.validation import chi_square, mean_ci, two_sample_ks
from pins import pin_message

W1 = Window((0.0,), (1.0,))
PROGENY = TranslatedPoissonCluster(
    total_mean=0.5, displacement=UniformDisplacement((-0.25,), (0.25,))
)


def _gen(seed, stream=0):
    return RngStream(seed, stream).generator()


# -- certificate algebra ---------------------------------------------------------


def test_certificate_bound_formula():
    # gamma = rate0 * vol / (1 - rho); bound = gamma * rho^n
    _, cert = approx_branching_sample(1.0, PROGENY, W1, 3, _gen(101))
    assert isinstance(cert, TruncationCertificate)
    assert cert.n == 3
    assert cert.gamma == pytest.approx(2.0, abs=1e-15)
    assert cert.bound == pytest.approx(0.25, abs=1e-15)


def test_certificate_n_zero_bound_is_gamma():
    _, cert = approx_branching_sample(1.0, PROGENY, W1, 0, _gen(102))
    assert cert.bound == pytest.approx(cert.gamma, abs=1e-15)


def test_certificate_to_dict_round_trip():
    _, cert = approx_branching_sample(1.0, PROGENY, W1, 2, _gen(103))
    d = cert.to_dict()
    assert set(d) == {"n", "gamma", "bound"}
    assert d["n"] == 2 and d["bound"] == pytest.approx(0.5)


def test_generations_for_quarter_eps_is_three():
    # gamma = 2, so 2 * 0.5^n <= 0.25 first holds at n = 3; eps sits exactly
    # on the bound, which must not tip the ceiling up a generation
    assert certificate_generations_for(0.25, 1.0, 0.5, 1.0) == 3


def test_generations_for_tight_eps():
    # 2 * 0.5^n <= 1e-6  <=>  n >= log2(2e6) = 20.93...
    assert certificate_generations_for(1e-6, 1.0, 0.5, 1.0) == 21


def test_generations_for_loose_eps_is_zero():
    assert certificate_generations_for(2.0, 1.0, 0.5, 1.0) == 0
    assert certificate_generations_for(5.0, 1.0, 0.5, 1.0) == 0


def test_generations_for_zero_progeny_is_zero():
    assert certificate_generations_for(1e-12, 1.0, 0.0, 1.0) == 0


def test_generations_for_rejects_bad_arguments():
    with pytest.raises(SamplerError, match="eps must be positive"):
        certificate_generations_for(0.0, 1.0, 0.5, 1.0)
    with pytest.raises(SamplerError, match="nonnegative"):
        certificate_generations_for(0.1, 1.0, -0.2, 1.0)
    with pytest.raises(SamplerError, match="subcritical progeny"):
        certificate_generations_for(0.1, 1.0, 1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    eps=st.floats(1e-9, 10.0),
    rho=st.floats(0.01, 0.99),
    rate0=st.floats(0.1, 5.0),
    vol=st.floats(0.1, 5.0),
)
def test_generations_for_is_minimal(eps, rho, rate0, vol):
    n = certificate_generations_for(eps, rate0, rho, vol)
    gamma = rate0 * vol / (1.0 - rho)
    assert gamma * rho**n <= eps * (1.0 + 1e-9)
    if n > 0:
        assert gamma * rho ** (n - 1) > eps * (1.0 - 1e-9)


# -- sampler law -----------------------------------------------------------------


def test_window_mean_counts_generations_zero_to_n():
    # translation invariance on the buffered germ gives
    # E[N(W)] = rate0 * vol * (1 + rho + rho^2 + rho^3) = 1.875
    counts = []
    for r in range(4000):
        pat, _ = approx_branching_sample(1.0, PROGENY, W1, 3, _gen(104, r))
        counts.append(len(pat))
    mean, half = mean_ci(counts, z=4.0)
    assert abs(mean - 1.875) < half


def test_zero_generations_is_the_poisson_germ():
    rng = _gen(105)
    counts = np.array(
        [len(approx_branching_sample(4.0, PROGENY, W1, 0, rng)[0]) for _ in range(3000)]
    )
    k_hi = 12
    probs = [math.exp(-4.0) * 4.0**k / math.factorial(k) for k in range(k_hi)]
    probs.append(1.0 - sum(probs))
    observed = np.bincount(np.minimum(counts, k_hi), minlength=k_hi + 1)
    report = chi_square(observed, probs, alpha=0.01)
    assert report.accepted, report.to_dict()


def test_zero_progeny_mass_collapses_to_germ():
    progeny = TranslatedPoissonCluster(
        total_mean=1e-12, displacement=UniformDisplacement((-0.25,), (0.25,))
    )
    pat, cert = approx_branching_sample(3.0, progeny, W1, 2, _gen(106))
    assert cert.bound <= 1e-23
    assert len(pat) >= 0  # germ only; no brood at this mass in practice


def test_all_points_inside_window():
    for r in range(200):
        pat, _ = approx_branching_sample(2.0, PROGENY, W1, 3, _gen(107, r))
        if len(pat):
            assert np.all(pat.points >= 0.0) and np.all(pat.points <= 1.0)


def test_sampler_is_deterministic_per_stream():
    a, _ = approx_branching_sample(2.0, PROGENY, W1, 3, _gen(108))
    b, _ = approx_branching_sample(2.0, PROGENY, W1, 3, _gen(108))
    assert np.array_equal(a.points, b.points)


def test_returns_point_pattern_with_window_dim():
    w2 = Window((0.0, 0.0), (1.0, 2.0))
    progeny = TranslatedPoissonCluster(
        total_mean=0.5, displacement=UniformDisplacement((-0.1, -0.1), (0.1, 0.1))
    )
    pat, cert = approx_branching_sample(1.0, progeny, w2, 2, _gen(109))
    assert isinstance(pat, PointPattern) and pat.dim == 2
    assert cert.n == 2


# -- guard rails -----------------------------------------------------------------


def test_negative_generation_count_rejected():
    with pytest.raises(SamplerError, match="generation count must be nonnegative"):
        approx_branching_sample(1.0, PROGENY, W1, -1, _gen(110))


def test_supercritical_progeny_rejected():
    progeny = TranslatedPoissonCluster(
        total_mean=1.0, displacement=UniformDisplacement((-0.25,), (0.25,))
    )
    with pytest.raises(SamplerError, match="subcritical progeny"):
        approx_branching_sample(1.0, progeny, W1, 3, _gen(111))


def test_unbounded_displacement_rejected():
    missing = SimpleNamespace(total_mean=0.5, displacement=SimpleNamespace())
    with pytest.raises(SamplerError, match="buffer radius undefined; use exact sampler"):
        approx_branching_sample(1.0, missing, W1, 2, _gen(112))
    infinite = SimpleNamespace(
        total_mean=0.5, displacement=SimpleNamespace(support_radius=float("inf"))
    )
    with pytest.raises(SamplerError, match="buffer radius undefined"):
        approx_branching_sample(1.0, infinite, W1, 2, _gen(113))


def test_point_cap_overflow_raises(monkeypatch):
    # the cap is read when a draw is made, not when the module is loaded
    progeny = TranslatedPoissonCluster(
        total_mean=0.9, displacement=UniformDisplacement((-0.25,), (0.25,))
    )
    monkeypatch.setattr(core, "POINT_CAP", 20)
    with pytest.raises(SamplerError, match="cluster exceeded 20 points"):
        approx_branching_sample(30.0, progeny, W1, 3, _gen(114))
    with pytest.raises(TypeError, match="point_cap"):
        approx_branching_sample(30.0, progeny, W1, 3, _gen(114), point_cap=20)


# -- the Galton-Watson engine ------------------------------------------------------

BOX2 = UniformDisplacement((-0.1, -0.2), (0.15, 0.1))
PROGENY2 = TranslatedPoissonCluster(total_mean=0.9, displacement=BOX2)


# a unit step: every generation moves each coordinate by 1 to 1.1, so the whole
# part of a point's offset from its root at 0 is its generation, below 10
STEP2 = TranslatedPoissonCluster(
    total_mean=0.9, displacement=UniformDisplacement((1.0, 1.0), (1.1, 1.1)))


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_engine_stops_at_the_generation_cap(k):
    roots = np.zeros((50, 2))
    deepest = 0
    for r in range(20):
        cl = sample_gw_cluster(STEP2, roots, _gen(120, r), generations=k)
        depth = np.floor(cl.points[:, 0]).astype(int)
        assert np.array_equal(depth, np.floor(cl.points[:, 1]))
        assert depth.max() <= k
        assert cl.owner.shape == depth.shape
        deepest = max(deepest, depth.max())
    assert deepest == k  # and the cap is reached


def test_engine_at_zero_generations_returns_the_roots_and_draws_nothing():
    rng = _gen(121)
    roots = np.arange(12.0).reshape(6, 2)
    cl = sample_gw_cluster(PROGENY2, roots, rng, generations=0)
    assert np.array_equal(cl.points, roots)
    assert cl.owner.tolist() == list(range(6))
    assert rng.random(4).tolist() == _gen(121).random(4).tolist()  # the stream is untouched


def test_engine_keeps_row_roots_aligned_with_their_labels():
    roots = _gen(122).random((300, 2)) * 4.0
    cl = sample_gw_cluster(PROGENY2, roots, _gen(123), generations=6)
    assert cl.points.shape == (cl.owner.size, 2)
    # a run capped at g - 1 generations on the same seed is the prefix of this
    # one that holds generations 0..g - 1, so the points past it are generation g on
    sizes = []
    for g in range(6):
        capped = sample_gw_cluster(PROGENY2, roots, _gen(123), generations=g)
        assert np.array_equal(capped.points, cl.points[:len(capped.points)])
        assert np.array_equal(capped.owner, cl.owner[:len(capped.points)])
        sizes.append(len(capped.points))
    generation = np.searchsorted(sizes, np.arange(len(cl.points)), side="right")
    assert sizes[0] == 300 and generation.max() > 1
    assert np.array_equal(cl.points[:300], roots)
    assert np.array_equal(cl.owner[:300], np.arange(300))
    # g displacements from the box [lo, hi] leave each point within g * box of its root
    offsets = cl.points - roots[cl.owner]
    g = generation[:, None]
    tol = 1e-12
    assert np.all(offsets >= g * np.array(BOX2.lo) - tol)
    assert np.all(offsets <= g * np.array(BOX2.hi) + tol)


class _Blocks:
    """Entries handed out in order from blocks of draw(size): a request that the
    current block cannot fill draws a block of max(size, request) and drops the
    rest of the old one. No block is drawn before the first request."""

    def __init__(self, draw, size):
        self.draw, self.size, self.rest = draw, size, None

    def take(self, k):
        if self.rest is None or len(self.rest) < k:
            self.rest = self.draw(max(self.size, k))
        got, self.rest = self.rest[:k], self.rest[k:]
        return got


def _brood_engine(kernel, ancestor, rng, root_marks=None, generations=None):
    """The engine's draws with its labels derived as the reference: the loop keeps
    broods[k][j], the children of point j of generation k, and owner is rebuilt
    from them after the loop. Counts and displacements come from _Blocks of the
    call's mean point count, roots / (1 - mean brood), at most core.BLOCK;
    counts are Poisson(nu_inf(z)) with a fresh mark z, except given root marks',
    which take a call of their own."""
    roots = np.asarray(ancestor, dtype=float)
    roots = roots if roots.ndim else roots.reshape(1)
    nu = kernel.one_mark_nu
    mean_brood = kernel.rho if nu is None else nu
    size = int(min(len(roots) / (1.0 - mean_brood), core.BLOCK))
    if nu is None:
        counts = _Blocks(lambda k: rng.poisson(kernel.nu_inf(kernel.sample_mark(k, rng))), size)
    else:
        counts = _Blocks(lambda k: rng.poisson(nu, k), size)
    steps = _Blocks(lambda k: kernel.sample_displacement(k, rng), size)
    pts, broods, gen = [roots], [], roots
    for g in itertools.count() if generations is None else range(generations):
        if g == 0 and root_marks is not None:
            brood = rng.poisson(kernel.nu_inf(np.asarray(root_marks, dtype=float)))
        else:
            brood = counts.take(len(gen))
        broods.append(brood)
        gen = gen.repeat(brood, 0)
        if len(gen) == 0:
            break
        gen += steps.take(len(gen))
        pts.append(gen)
    else:  # the generation cap: the last generation has no children
        broods.append(np.zeros(len(gen), dtype=int))
    owners = [np.arange(len(roots), dtype=np.int32)]
    for brood in broods[:-1]:
        owners.append(owners[-1].repeat(brood))
    points, owner = np.concatenate(pts), np.concatenate(owners)
    labels = {"points": points, "owner": owner}
    if np.ndim(ancestor) == 0:
        labels["extinction_time"] = float(points.max() - float(ancestor))
    elif roots.ndim == 1:
        labels["extinction_time"] = np.zeros(roots.size)
        np.maximum.at(labels["extinction_time"], owner, points - roots[owner])
    return labels


TWO_MARK_KERNEL = ExponentialFertility(0.5, 1.0, marks=((0.25, 0.5), (0.75, 7 / 6)))


@pytest.mark.parametrize(
    "kernel, ancestor, kwargs",
    [
        (ExponentialFertility(0.5, 1.0), 0.5, {}),
        (TWO_MARK_KERNEL, 0.5, {}),
        (ExponentialFertility(0.5, 1.0), np.linspace(0.0, 1.0, 40), {}),
        (TWO_MARK_KERNEL, np.linspace(0.0, 1.0, 40), {}),
        (TWO_MARK_KERNEL, np.linspace(0.0, 1.0, 40), {"root_marks": np.tile([0.5, 7 / 6], 20)}),
        (PROGENY2, np.arange(24.0).reshape(12, 2), {"generations": 0}),
        (PROGENY2, np.arange(24.0).reshape(12, 2), {"generations": 6}),
    ],
    ids=["scalar", "scalar-two-marks", "forest", "forest-two-marks", "root-marks",
         "rows-generations-0", "rows-generations-6"],
)
def test_engine_labels_equal_the_brood_count_reference(kernel, ancestor, kwargs):
    rng, ref_rng = _gen(126), _gen(126)
    for _ in range(200):
        cl = sample_gw_cluster(kernel, ancestor, rng, **kwargs)
        ref = _brood_engine(kernel, ancestor, ref_rng, **kwargs)
        for field, want in ref.items():
            got = getattr(cl, field)
            assert type(got) is type(want), field
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field
            assert np.asarray(got).dtype == np.asarray(want).dtype, field
    assert rng.random(4).tolist() == ref_rng.random(4).tolist()


@pytest.mark.parametrize(
    "kernel, ancestor, kwargs",
    [
        (ExponentialFertility(0.5, 1.0), 0.5, {}),
        (TWO_MARK_KERNEL, 0.5, {}),
        (ExponentialFertility(0.5, 1.0), np.linspace(0.0, 1.0, 40), {}),
        (TWO_MARK_KERNEL, np.linspace(0.0, 1.0, 40), {"root_marks": np.tile([0.5, 7 / 6], 20)}),
        (PROGENY2, np.arange(24.0).reshape(12, 2), {"generations": 6}),
    ],
    ids=["scalar", "scalar-two-marks", "forest", "root-marks", "rows-generations-6"],
)
def test_engine_without_owner_labels_grows_the_same_points(kernel, ancestor, kwargs):
    # the labels take no random number: the same point bytes, and the generator
    # left in the same state, with or without them
    rng, bare_rng = _gen(127), _gen(127)
    for _ in range(200):
        cl = sample_gw_cluster(kernel, ancestor, rng, **kwargs)
        bare = sample_gw_cluster(kernel, ancestor, bare_rng, owners=False, **kwargs)
        assert bare.owner is None
        assert bare.points.tobytes() == cl.points.tobytes()
        assert bare.points.shape == cl.points.shape
        if np.ndim(ancestor) == 0:
            assert bare.extinction_time == cl.extinction_time
    assert repr(bare_rng.bit_generator.state) == repr(rng.bit_generator.state)


@pytest.mark.parametrize(
    "kernel, roots, kwargs, mean",
    [
        (ExponentialFertility(0.5, 1.0), np.zeros(4), {}, 2.0),
        # a root of mark z has Poisson(z nu0) children of mean cluster 1 / (1 - rho)
        (TWO_MARK_KERNEL, np.zeros(4), {"root_marks": [0.5, 7 / 6, 0.5, 7 / 6]},
         1.0 + 0.5 * (0.5 + 7 / 6) / 2 / 0.5),
        (PROGENY2, np.zeros((4, 2)), {"generations": 3}, 1.0 + 0.9 + 0.9**2 + 0.9**3),
    ],
    ids=["one-mark", "two-marks-root-marks", "rows-generations-3"],
)
def test_engine_blocks_that_run_short_inside_a_call_keep_the_law(monkeypatch, kernel, roots,
                                                                 kwargs, mean):
    # blocks of 3 counts and 3 displacements run short in most calls, so a
    # call's generations come from several blocks and drop what each leaves;
    # its clusters' sizes keep the law of the default blocks and the closed form
    sizes = []
    for block in (core.BLOCK, 3):
        monkeypatch.setattr(core, "BLOCK", block)
        rng = _gen(131, block)
        owners = [sample_gw_cluster(kernel, roots, rng, **kwargs).owner for _ in range(5_000)]
        sizes.append(np.concatenate([np.bincount(o, minlength=len(roots)) for o in owners]))
    rep = two_sample_ks(*sizes, alpha=0.01)
    assert rep.accepted, rep.to_dict()
    for got in sizes:
        m, half = mean_ci(got, z=4.0)
        assert abs(m - mean) < half, (m, half, mean)


def test_engine_grows_a_forest_within_its_bytes_per_point():
    # a million-point forest with owner labels peaks at 20.0 bytes a point
    # (tracemalloc, seeds 140-142): the float64 points of the generations and
    # of their concatenation, and the int32 labels of both; the blocks are
    # dropped before the concatenation. The bound leaves about 15%.
    roots = np.zeros(500_000)
    rng = _gen(140)
    tracemalloc.start()
    try:
        cl = sample_gw_cluster(ExponentialFertility(0.5, 1.0), roots, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cl.owner.dtype == np.int32
    assert len(cl.points) > 900_000
    assert peak < 23 * len(cl.points), peak / len(cl.points)


def test_spines_lay_out_their_nodes_and_grow_their_clusters_in_one_call():
    # 4,000 spines of 3 nodes in the plane, from starts and steps of whole numbers,
    # whose sums are exact: node j lies at its start plus its spine's steps 1..j.
    # Under a one-mark kernel of mass rho = 0.5, each node roots an ordinary
    # cluster of mean 1 / (1 - rho) points, grown in one engine call.
    k, depth, rho = 4_000, 3, 0.5
    rng = _gen(150)
    nodes = np.full(k, depth)
    start = rng.integers(-1_000, 1_000, (k, 2)).astype(float)
    steps = rng.integers(0, 1_000, (k * depth, 2)).astype(float)
    pos, spine = spine_nodes(nodes, start, steps)
    walked = np.cumsum(steps.reshape(k, depth, 2)[:, 1:], axis=1)
    laid = start[:, None] + np.concatenate((np.zeros((k, 1, 2)), walked), axis=1)
    assert np.array_equal(pos, laid.reshape(-1, 2))
    assert spine.dtype == np.int32 and np.array_equal(spine, np.arange(k).repeat(depth))
    kernel = TranslatedPoissonCluster(rho, UniformDisplacement((-0.25, -0.25), (0.25, 0.25)))
    cl = sample_gw_cluster(kernel, pos, rng)
    m, half = mean_ci(np.bincount(spine[cl.owner], minlength=k), z=4.0)
    assert abs(m - depth / (1.0 - rho)) < half, (m, half)
    # spines of unequal node counts on the line
    nodes = rng.integers(1, 6, 50)
    start, steps = rng.integers(-1_000, 1_000, 50) * 1.0, rng.integers(0, 1_000, nodes.sum()) * 1.0
    pos, spine = spine_nodes(nodes, start, steps)
    first = np.cumsum(nodes) - nodes
    for node, (i, at) in enumerate(zip(spine, pos)):
        assert at == start[i] + steps[first[i] + 1 : node + 1].sum()


def test_only_callers_that_read_owner_labels_grow_them(monkeypatch):
    # a one-replicate branching draw and a Hawkes draw with no far ancestor read
    # only the points; the lockstep forms and the far-ancestor coin read owners
    from exactpp import branching_approx, hawkes_mr

    grown = []
    for mod in (branching_approx, hawkes_mr):
        def recording(*args, _grow=mod.sample_gw_cluster, **kwargs):
            cl = _grow(*args, **kwargs)
            grown.append(cl.owner is not None)
            return cl

        monkeypatch.setattr(mod, "sample_gw_cluster", recording)
    for n in (1, 5):
        branching_approx.approx_branching_chains(2.0, PROGENY, W1, 3, n, _gen(128, n))
    assert grown == [False, True]
    sampler, far = HawkesSampler(ExponentialFertility(0.5, 1.0), mu=1.0, a=10.0), []
    for r in range(40):
        before = sampler.stats["condition_attempts"]
        sampler.sample(_gen(129, r))
        far.append(sampler.stats["condition_attempts"] > before)
    assert grown[2:] == far and 0 < sum(far) < 40
    sampler.sample_chains(5, _gen(130))
    assert grown[-1]


def test_each_draw_grows_its_generations_in_one_engine_call(monkeypatch):
    # branching draws call branching_approx's engine; Hawkes draws call it through
    # hawkes_mr's own name, the one the benchmark tracer wraps
    from exactpp import branching_approx, hawkes_mr

    calls = []
    for name, mod in (("branching", branching_approx), ("hawkes", hawkes_mr)):
        def counting(*args, _name=name, _grow=mod.sample_gw_cluster, **kwargs):
            calls.append(_name)
            return _grow(*args, **kwargs)

        monkeypatch.setattr(mod, "sample_gw_cluster", counting)
    for r in range(10):
        approx_branching_sample(2.0, PROGENY, W1, 3, _gen(124, r))
    assert calls == ["branching"] * 10
    sampler = HawkesSampler(ExponentialFertility(0.5, 1.0), mu=1.0, a=10.0)
    for r in range(10):
        sampler.sample(_gen(125, r))
    assert calls == ["branching"] * 10 + ["hawkes"] * 10


def _digest(rate0, progeny, window, n):
    h, sizes = hashlib.sha256(), []
    for r in range(200):
        pat, _ = approx_branching_sample(rate0, progeny, window, n, RngStream(41, r).generator())
        sizes.append(pat.n)
        h.update(np.ascontiguousarray(pat.points).tobytes())
    h.update(np.array(sizes).tobytes())
    return sum(sizes), h.hexdigest()


# Pinned before branching draws moved onto sample_gw_cluster, and taken again
# when the engine came to draw its counts and displacements in blocks; the law
# checks of BENCH_43.json found no difference in 1-D and 2-D.
def test_branching_bytes_in_two_and_three_dimensions():
    assert _digest(
        20.0,
        TranslatedPoissonCluster(0.6, UniformDisplacement((-0.1, -0.1), (0.1, 0.15))),
        Window((0.0, 0.0), (1.0, 1.0)),
        4,
    ) == (9383, "70e4cf5f2fc142fa479597584dc82c7aed1b1b8ad6435c24ea315eeb4d051f17"), (
        pin_message("2-D branching draws"))
    assert _digest(
        15.0,
        TranslatedPoissonCluster(0.7, UniformDisplacement((-0.1, -0.2, -0.05), (0.1, 0.1, 0.15))),
        Window((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        8,
    ) == (10029, "3b7e6d88f47b942b91e9d3a1909f3e52be67a1be01dfef7060bc83cee11b3405"), (
        pin_message("3-D branching draws"))
