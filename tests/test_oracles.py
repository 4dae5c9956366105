"""Reference samplers against each other: every lockstep oracle against the
one-chain oracle it batches, in law, and in bytes where the one-chain case
calls the generator as the scalar oracle does; the lockstep Hawkes oracle
against its closed-form mean, and the hard-core sweep against a per-point
loop."""

import hashlib
import math

import numpy as np
import pytest

from exactpp import (
    ExponentialFertility,
    GeometricGrid,
    PiecewiseConstantFertility,
    PointPattern,
    PolynomialFertility,
    RngStream,
    SamplerError,
    TranslatedPoissonCluster,
    UniformDisplacement,
    Window,
    core,
)
from exactpp.oracles import (
    cluster_direct_chains,
    cluster_direct_oracle,
    grid_thin_after,
    grid_thin_after_chains,
    hawkes_bounded_burn_in,
    hawkes_bounded_burn_in_chains,
    hawkes_exp_burn_in,
    hawkes_exp_burn_in_chains,
    matern_direct_chains,
    matern_direct_oracle,
    nonlinear_hawkes_burn_in,
    nonlinear_hawkes_burn_in_chains,
    renewal_thin_after,
    renewal_thin_after_chains,
)
from exactpp.validation import mean_ci, two_sample_ks
from pins import pin_message

N_CHAINS = 2_000


def _gen(seed, stream=0):
    return RngStream(seed, stream).generator()


def _counts(chains):
    """The window count of each chain of a lockstep oracle's (points, offsets)."""
    points, offsets = chains
    assert offsets[0] == 0 and offsets[-1] == len(points) and np.all(np.diff(offsets) >= 0)
    return np.diff(offsets)


def _saturating(bound, base, height, support):
    """phi and a triangular h, each as a scalar map and as an elementwise array map."""
    return (
        lambda d: bound * -math.expm1(-(base + d) / bound),
        lambda t: height * max(1.0 - t / support, 0.0),
        lambda d: bound * -np.expm1(-(base + d) / bound),
        lambda t: height * np.maximum(1.0 - t / support, 0.0),
    )


@pytest.mark.parametrize(
    "bound,base,height,support,upper,burn",
    [
        # the demo config, with the CLI's burn-in
        (2.0, 0.5, 0.8, 1.0, 5.0, 20.0 * math.exp(2.0) / 2.0 + 10.0),
        # dense: about five retained points within the support at a time
        (10.0, 2.0, 2.0, 1.0, 2.0, 5.0),
    ],
    ids=["demo", "dense"],
)
def test_lockstep_nonlinear_oracle_matches_scalar(bound, base, height, support, upper, burn):
    phi, h, phi_array, h_array = _saturating(bound, base, height, support)
    window = Window((0.0,), (upper,))
    widths = []

    def h_recorded(t):
        widths.append(t.shape[1])
        return h_array(t)

    lockstep = _counts(nonlinear_hawkes_burn_in_chains(
        phi_array, bound, h_recorded, support, window, burn, N_CHAINS, _gen(301)
    ))
    rng = _gen(302)
    scalar = [
        nonlinear_hawkes_burn_in(phi, bound, h, support, window, burn, rng).n
        for _ in range(N_CHAINS)
    ]
    rep = two_sample_ks(lockstep, np.array(scalar), alpha=0.01)
    assert rep.accepted, rep.to_dict()
    if bound * support > 5.0:
        assert max(widths) > min(widths), "the dense case never grew the ring buffer"


def test_lockstep_nonlinear_oracle_enforces_the_phi_bound():
    window = Window((0.0,), (2.0,))
    with pytest.raises(SamplerError, match="phi left its declared bound"):
        nonlinear_hawkes_burn_in_chains(
            lambda d: np.full(d.shape, 3.0), 1.0, np.zeros_like, 1.0, window, 5.0, 10, _gen(303)
        )


def test_lockstep_hawkes_oracle_matches_scalar():
    kernel = ExponentialFertility(0.5, 1.0, marks=((0.5, 0.4), (0.5, 1.4)))
    a, burn = 5.0, 40.0
    lockstep = _counts(hawkes_exp_burn_in_chains(kernel, 1.0, a, burn, N_CHAINS, _gen(304)))
    rng = _gen(305)
    scalar = [hawkes_exp_burn_in(kernel, 1.0, a, burn, rng).n for _ in range(N_CHAINS)]
    rep = two_sample_ks(lockstep, np.array(scalar), alpha=0.01)
    assert rep.accepted, rep.to_dict()


@pytest.mark.parametrize(
    "marks, digest",
    [
        (((1.0, 1.0),), "882a7969d669c9002ccc8cd2131d0a033174a23c21ce47e96893cfed35d9b743"),
        (
            ((0.25, 0.5), (0.75, 7 / 6)),
            "55f7e309be52213dfe2a19068f550dcdaccae5c73c85e32d40cec89e56fc43a2",
        ),
    ],
    ids=["one-mark", "two-marks"],
)
def test_burn_in_oracle_keeps_its_counts(marks, digest):
    # AC-11's kernel shape, stream and burn-in.  The window counts, which AC-11
    # compares, were computed while each chain stepped in numpy scalars with
    # np.exp; math.exp moves some event times by an ulp, never a count here
    kernel = ExponentialFertility(0.5, 1.0, marks=marks)
    burn = 60.0 / kernel.suggested_decay()
    rng = _gen(214)
    counts = np.array([hawkes_exp_burn_in(kernel, 1.0, 10.0, burn, rng).n for _ in range(500)])
    assert hashlib.sha256(counts.tobytes()).hexdigest() == digest, (
        pin_message("the burn-in oracle's counts"))


def test_lockstep_hawkes_oracle_mean_count():
    # E N([0, a]) = mu a / (1 - rho) = 20 for the stationary process
    kernel = ExponentialFertility(0.5, 1.0)
    burn = 60.0 / kernel.suggested_decay()
    counts = _counts(hawkes_exp_burn_in_chains(kernel, 1.0, 10.0, burn, 20_000, _gen(306)))
    mean, half = mean_ci(counts, z=4.0)
    assert abs(mean - 1.0 * 10.0 / (1.0 - kernel.rho)) < half


def test_lockstep_hawkes_oracle_without_immigrants_is_empty():
    kernel = ExponentialFertility(0.5, 1.0)
    points, offsets = hawkes_exp_burn_in_chains(kernel, 0.0, 5.0, 40.0, 7, _gen(307))
    assert points.size == 0 and offsets.tolist() == [0] * 8


def _matern_loop(rate, radius, thin_p, window, rng):
    """Mark-minimal hard core decided point by point, thin-after: the reference."""
    region = window.buffered(radius)
    n = rng.poisson(rate * region.volume())
    pts = region.sample_uniform(n, rng)
    marks = rng.random(n)
    survive = np.ones(n, dtype=bool)
    for i in range(n):
        d = np.sqrt(np.sum((pts - pts[i]) ** 2, axis=1))
        near = (d <= radius) & (np.arange(n) != i)
        survive[i] = not np.any(marks[near] < marks[i])
    kept = pts[survive]
    if kept.shape[0]:
        kept = kept[rng.random(kept.shape[0]) < np.asarray(thin_p(kept), dtype=float)]
    return PointPattern(kept[window.contains(kept)], dim=window.dim)


@pytest.mark.parametrize("block", [None, 1, 200], ids=["one-block", "row-by-row", "small-blocks"])
@pytest.mark.parametrize(
    "window,rate,radius",
    [
        (Window((0.0, 0.0), (3.0, 3.0)), 2.0, 0.3),
        (Window((0.0, 0.0), (2.0, 2.0)), 20.0, 0.2),
        (Window((0.0,), (10.0,)), 3.0, 0.25),
    ],
    ids=["demo", "dense", "1d"],
)
def test_matern_oracle_equals_the_per_point_loop(window, rate, radius, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(core, "BLOCK", block)

    def thin_p(pts):
        return np.full(pts.shape[0], 0.8)

    rng, ref_rng = _gen(308), _gen(308)
    for _ in range(100):
        got = matern_direct_oracle(rate, radius, thin_p, window, rng)
        want = _matern_loop(rate, radius, thin_p, window, ref_rng)
        assert got.points.tobytes() == want.points.tobytes()
    assert rng.random() == ref_rng.random()


# -- lockstep forms of the one-chain oracles -----------------------------------------

BK_1D = TranslatedPoissonCluster(2.0, UniformDisplacement((-0.5,), (0.5,)))
BK_2D = TranslatedPoissonCluster(1.5, UniformDisplacement((-0.3, -0.2), (0.4, 0.3)))
W_1D = Window((0.0,), (10.0,))
W_2D = Window((0.0, 0.0), (3.0, 2.0))
W_MATERN = Window((0.0, 0.0), (3.0, 3.0))
GRID = GeometricGrid(0.7, 0.6)


def _thin_08(pts):
    return np.full(pts.shape[0], 0.8)


def _renewal_gap(rng, size=None):
    return rng.gamma(2.0, 1.0, size)


def _renewal_thin(t):
    return np.exp(-0.5 * np.asarray(t, dtype=float))


# name -> (one chain of the scalar oracle as an array, the lockstep form of n chains)
ONE_CHAIN_CASES = {
    "brix-kendall-1d": (
        lambda rng: cluster_direct_oracle(1.0, BK_1D, W_1D, rng).points,
        lambda n, rng: cluster_direct_chains(1.0, BK_1D, W_1D, n, rng),
    ),
    "brix-kendall-2d": (
        lambda rng: cluster_direct_oracle(2.0, BK_2D, W_2D, rng).points,
        lambda n, rng: cluster_direct_chains(2.0, BK_2D, W_2D, n, rng),
    ),
    "matern-1d": (
        lambda rng: matern_direct_oracle(3.0, 0.25, _thin_08, W_1D, rng).points,
        lambda n, rng: matern_direct_chains(3.0, 0.25, _thin_08, W_1D, n, rng),
    ),
    "matern-2d": (
        lambda rng: matern_direct_oracle(2.0, 0.3, _thin_08, W_MATERN, rng).points,
        lambda n, rng: matern_direct_chains(2.0, 0.3, _thin_08, W_MATERN, n, rng),
    ),
    "grid": (
        lambda rng: grid_thin_after(GRID.p, 40, rng),
        lambda n, rng: grid_thin_after_chains(GRID.p, 40, n, rng),
    ),
}


@pytest.mark.parametrize(
    "case, digest",
    [
        ("brix-kendall-1d", "3f10e172f3197b96e3e36c65c124897bd467fda09dc40f32adb09eaa3ecb9128"),
        ("brix-kendall-2d", "9312c9acfe0650b6e6580e6e12d4ca0b8b0f30ff21f15d2eafb01dbab747ecb2"),
        ("matern-1d", "4b91d715792d121d434599dd606cbf2a029d2c1b8315aab9d48f35fa659cda84"),
        ("matern-2d", "b908f241203c979f69288bfa9717dddae37602b1409cd6929c59576c60d12a03"),
        ("grid", "de8f6694766333c1b72b502cb0ecd6d4b91764729db9b685df13452841f3d9b6"),
    ],
)
def test_one_chain_lockstep_keeps_the_scalar_oracles_bytes(case, digest):
    # digests of the scalar oracles as written before their lockstep forms
    # existed: 200 chains, then the generator's next numbers
    scalar, chains = ONE_CHAIN_CASES[case]
    for draw in (scalar, lambda rng: chains(1, rng)[0]):
        rng = _gen(310)
        h = hashlib.sha256()
        for _ in range(200):
            h.update(draw(rng).tobytes())
        h.update(rng.random(4).tobytes())
        assert h.hexdigest() == digest, pin_message(f"{case}: one-chain oracle draws")


@pytest.mark.parametrize("case", sorted(ONE_CHAIN_CASES))
def test_lockstep_oracle_matches_its_scalar_in_law(case):
    scalar, chains = ONE_CHAIN_CASES[case]
    lockstep = _counts(chains(N_CHAINS, _gen(311)))
    rng = _gen(312)
    one_by_one = np.array([len(scalar(rng)) for _ in range(N_CHAINS)])
    rep = two_sample_ks(lockstep, one_by_one, alpha=0.01)
    assert rep.accepted, rep.to_dict()


def test_lockstep_renewal_oracle_matches_scalar():
    lockstep = _counts(
        renewal_thin_after_chains(_renewal_gap, _renewal_thin, 30.0, N_CHAINS, _gen(313))
    )
    rng = _gen(314)
    scalar = [renewal_thin_after(_renewal_gap, _renewal_thin, 30.0, rng).n for _ in range(N_CHAINS)]
    rep = two_sample_ks(lockstep, np.array(scalar), alpha=0.01)
    assert rep.accepted, rep.to_dict()


def test_lockstep_renewal_points_are_each_chains_thinned_stream():
    points, offsets = renewal_thin_after_chains(
        _renewal_gap, _renewal_thin, 30.0, 50, _gen(315)
    )
    assert offsets.size == 51 and offsets[-1] == points.size > 0
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        chain = points[lo:hi]
        assert np.all(np.diff(chain) > 0) and np.all((chain > 0) & (chain <= 30.0))


@pytest.mark.parametrize(
    "kernel",
    [
        PolynomialFertility((0.45, -0.225), 2.0),
        PiecewiseConstantFertility((0.0, 0.5, 2.0), (0.6, 0.1), marks=((0.5, 0.5), (0.5, 1.5))),
    ],
    ids=["polynomial", "piecewise"],
)
def test_lockstep_bounded_hawkes_oracle_matches_scalar(kernel):
    # the scalar oracle steps about 4 ms a chain here, so its side stays small
    a, burn = 3.0, 15.0 / kernel.suggested_decay()
    points, offsets = hawkes_bounded_burn_in_chains(kernel, 1.0, a, burn, N_CHAINS, _gen(316))
    assert np.all((points >= 0.0) & (points <= a))
    rng = _gen(317)
    scalar = [hawkes_bounded_burn_in(kernel, 1.0, a, burn, rng) for _ in range(300)]
    rep = two_sample_ks(_counts((points, offsets)), np.array([p.n for p in scalar]), alpha=0.01)
    assert rep.accepted, rep.to_dict()
    # E N([0, a]) = mu a / (1 - rho) for the stationary process
    mean, half = mean_ci(np.diff(offsets), z=4.0)
    assert abs(mean - a / (1.0 - kernel.rho)) < half


def test_lockstep_bounded_hawkes_oracle_grows_its_ring_and_draws_its_own_marks(monkeypatch):
    # dense: one support of 2 holds more than four events of a chain, so the
    # four-slot ring must double, or excitation would be lost and the mean fall
    kernel = PiecewiseConstantFertility((0.0, 2.0), (0.4,), marks=((0.5, 0.5), (0.5, 1.5)))

    def broken(n, rng):
        raise AssertionError("the oracle called the sampler's mark routine")

    monkeypatch.setattr(kernel, "sample_mark", broken)
    points, offsets = hawkes_bounded_burn_in_chains(kernel, 2.0, 5.0, 60.0, 200, _gen(318))
    crowded = [
        np.max(np.searchsorted(chain, chain + kernel.support, "right") - np.arange(chain.size))
        for chain in np.split(points, offsets[1:-1])
        if chain.size
    ]
    assert max(crowded) > 4
    mean, half = mean_ci(np.diff(offsets), z=4.0)
    assert abs(mean - 2.0 * 5.0 / (1.0 - kernel.rho)) < half


def test_lockstep_bounded_hawkes_oracle_without_immigrants_is_empty():
    kernel = PolynomialFertility((0.45, -0.225), 2.0)
    points, offsets = hawkes_bounded_burn_in_chains(kernel, 0.0, 5.0, 40.0, 7, _gen(319))
    assert points.size == 0 and offsets.tolist() == [0] * 8


@pytest.mark.parametrize("case", ["matern-1d", "matern-2d", "grid"])
def test_lockstep_blocks_do_not_change_the_output(case, monkeypatch):
    # blocks of one pair (the hard-core sweep) or one chain's coins (the grid)
    _, chains = ONE_CHAIN_CASES[case]
    want = chains(300, _gen(320))
    monkeypatch.setattr(core, "BLOCK", 1)
    got = chains(300, _gen(320))
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])
