"""Reference samplers against each other: the lockstep burn-in oracles against
the one-chain oracles they batch, the lockstep Hawkes oracle against its closed
-form mean, and the pairwise Matern oracle against a per-point loop."""

import math

import numpy as np
import pytest

from exactpp import ExponentialFertility, PointPattern, RngStream, SamplerError, Window, oracles
from exactpp.oracles import (
    hawkes_exp_burn_in,
    hawkes_exp_burn_in_counts,
    matern_direct_oracle,
    nonlinear_hawkes_burn_in,
    nonlinear_hawkes_burn_in_counts,
)
from exactpp.validation import mean_ci, two_sample_ks

N_CHAINS = 2_000


def _gen(seed, stream=0):
    return RngStream(seed, stream).generator()


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

    lockstep = nonlinear_hawkes_burn_in_counts(
        phi_array, bound, h_recorded, support, window, burn, N_CHAINS, _gen(301)
    )
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
        nonlinear_hawkes_burn_in_counts(
            lambda d: np.full(d.shape, 3.0), 1.0, np.zeros_like, 1.0, window, 5.0, 10, _gen(303)
        )


def test_lockstep_hawkes_oracle_matches_scalar():
    kernel = ExponentialFertility(0.5, 1.0, marks=((0.5, 0.4), (0.5, 1.4)))
    a, burn = 5.0, 40.0
    lockstep = hawkes_exp_burn_in_counts(kernel, 1.0, a, burn, N_CHAINS, _gen(304))
    rng = _gen(305)
    scalar = [hawkes_exp_burn_in(kernel, 1.0, a, burn, rng).n for _ in range(N_CHAINS)]
    rep = two_sample_ks(lockstep, np.array(scalar), alpha=0.01)
    assert rep.accepted, rep.to_dict()


def test_lockstep_hawkes_oracle_mean_count():
    # E N([0, a]) = mu a / (1 - rho) = 20 for the stationary process
    kernel = ExponentialFertility(0.5, 1.0)
    burn = 60.0 / kernel.suggested_decay()
    counts = hawkes_exp_burn_in_counts(kernel, 1.0, 10.0, burn, 20_000, _gen(306))
    mean, half = mean_ci(counts, z=4.0)
    assert abs(mean - 1.0 * 10.0 / (1.0 - kernel.rho)) < half


def test_lockstep_hawkes_oracle_without_immigrants_is_empty():
    kernel = ExponentialFertility(0.5, 1.0)
    counts = hawkes_exp_burn_in_counts(kernel, 0.0, 5.0, 40.0, 7, _gen(307))
    assert counts.tolist() == [0] * 7


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
    return PointPattern(kept, dim=window.dim).restrict(window)


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
        monkeypatch.setattr(oracles, "_PAIR_BLOCK", block)

    def thin_p(pts):
        return np.full(pts.shape[0], 0.8)

    rng, ref_rng = _gen(308), _gen(308)
    for _ in range(100):
        got = matern_direct_oracle(rate, radius, thin_p, window, rng)
        want = _matern_loop(rate, radius, thin_p, window, ref_rng)
        assert got.points.tobytes() == want.points.tobytes()
    assert rng.random() == ref_rng.random()
