"""Lockstep forms of the samplers: n replicates drawn from one generator and
returned as (points, offsets).

Each public single draw is its form at n = 1 and keeps its bytes; at large n
the forms' window counts (and the self-exciting forms' first points) have the
law of one-by-one draws; the offsets are well formed and group each
replicate's points; a validated run builds a fixed number of generators
whatever its replicate count; and the battery's streams have keys that
cannot coincide."""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from exactpp import (
    BrixKendallSampler,
    DiskGrains,
    ExponentialFertility,
    GeometricGrid,
    HawkesSampler,
    LebesgueIntensity,
    PiecewiseConstantFertility,
    PolynomialFertility,
    RngStream,
    SegmentGrains,
    TranslatedPoissonCluster,
    UniformDisplacement,
    UniformRadius,
    Window,
    approx_branching_sample,
    boolean_exact_sample,
    matern_thin_first,
    renewal_thin_first,
    sample_poisson_lines,
    thin_grid,
)
from exactpp import boolean_model, core, germ_thinning, oracles, validation
from exactpp.boolean_model import DiskWindow, boolean_exact_chains, poisson_lines_chains
from exactpp.branching_approx import approx_branching_chains
from exactpp.core import homogeneous_chains, sample_homogeneous
from exactpp.germ_thinning import (
    _gamma_hazard,
    matern_thin_first_chains,
    nonlinear_hawkes_germ,
    nonlinear_hawkes_germ_chains,
    renewal_thin_first_chains,
)
from exactpp.validation import replicate_counts, two_sample_ks
from pins import pin_message

ROOT = Path(__file__).resolve().parents[1]


def _gen(seed, stream=0):
    return RngStream(seed, stream).generator()


W1 = Window((0.0,), (2.0,))
W2 = Window((0.0, 0.0), (4.0, 4.0))
BK = BrixKendallSampler(
    LebesgueIntensity(0.5, 1), TranslatedPoissonCluster(2.0, UniformDisplacement((-0.5,), (0.5,))),
    W1,
)
PROGENY = TranslatedPoissonCluster(0.5, UniformDisplacement((-0.25,), (0.25,)))
UNIT = Window((0.0,), (1.0,))
DISKS = DiskGrains(UniformRadius(0.1, 0.6))
SEGMENTS = SegmentGrains(1.0)
TARGET = DiskWindow((2.0, 2.0), 1.0)
GRID = GeometricGrid(0.7, 0.6)
HAZARD = _gamma_hazard(2.0, 1.0)
RENEWAL = dict(p_tail=lambda t: math.exp(-t), p_mass=1.0)
UPPER = dict(p_tail=lambda t: max(2.0 - t, 0.0))  # the tail of the indicator of [0, 2]
# self-exciting samplers on [0, 3] at a low immigrant rate, so that some replicates are empty
HAWKES = {
    "hawkes_one_mark": HawkesSampler(ExponentialFertility(0.5, 1.0), 0.25, 3.0),
    "hawkes_two_marks": HawkesSampler(
        ExponentialFertility(0.5, 1.0, marks=((0.25, 0.5), (0.75, 7 / 6))), 0.25, 3.0),
    "hawkes_polynomial": HawkesSampler(PolynomialFertility((0.45, -0.225), 2.0), 0.25, 3.0),
    "hawkes_piecewise": HawkesSampler(
        PiecewiseConstantFertility((0.0, 0.5, 2.0), (0.6, 0.1)), 0.25, 3.0),
    "hawkes_zero": HawkesSampler(PiecewiseConstantFertility((0.0, 1.0), (0.0,)), 0.5, 3.0),
}
NONLINEAR = (  # the demo config's phi, h, bound and support on [0, 3]
    lambda drive: 2.0 * -math.expm1(-(0.5 + drive) / 2.0),
    2.0,
    lambda t: 0.8 * max(1.0 - t, 0.0),
    1.0,
    Window((0.0,), (3.0,)),
)


def _thin_p(t):
    return np.exp(-np.asarray(t, dtype=float))


def _upper_p(t):
    return (np.asarray(t) <= 2.0).astype(float)


def _rows(*columns):
    """Columns side by side as one float array, one row per point."""
    return np.column_stack([c if c.ndim == 2 else c[:, None] for c in columns]).astype(float)


def _disk_rows(bs):
    return _rows(bs.germs, bs.radii)


def _segment_rows(bs):
    return _rows(bs.germs, bs.p0, bs.p1)


def _line_rows(ls):
    return _rows(ls.germs, ls.angles)


def _form(draw, rows):
    """A lockstep form that returns (sample, offsets), as (rows, offsets)."""

    def chains(n, rng):
        drawn, offsets = draw(n, rng)
        return rows(drawn), offsets

    return chains


# name -> (single draw as rows, lockstep form as (rows, offsets)); every case
# has empty replicates at a few thousand draws
CASES = {
    "poisson": (
        lambda rng: sample_homogeneous(W2, 0.15, rng).points,
        lambda n, rng: homogeneous_chains(W2, 0.15, n, rng),
    ),
    "brix_kendall": (lambda rng: BK.sample(rng).points, BK.sample_chains),
    "branching_approx": (
        lambda rng: approx_branching_sample(1.0, PROGENY, UNIT, 3, rng)[0].points,
        lambda n, rng: approx_branching_chains(1.0, PROGENY, UNIT, 3, n, rng)[:2],
    ),
    "boolean_disks": (
        lambda rng: _disk_rows(boolean_exact_sample(0.1, DISKS, W2, rng)),
        _form(lambda n, rng: boolean_exact_chains(0.1, DISKS, W2, n, rng), _disk_rows),
    ),
    "boolean_segments": (
        lambda rng: _segment_rows(boolean_exact_sample(0.15, SEGMENTS, W2, rng)),
        _form(lambda n, rng: boolean_exact_chains(0.15, SEGMENTS, W2, n, rng), _segment_rows),
    ),
    "poisson_lines": (
        lambda rng: _line_rows(sample_poisson_lines(0.3, TARGET, W2, rng)),
        _form(lambda n, rng: poisson_lines_chains(0.3, TARGET, W2, n, rng), _line_rows),
    ),
    "grid_thinning": (
        lambda rng: thin_grid(GRID, rng).reshape(-1, 1),
        lambda n, rng: (lambda s, o: (s.reshape(-1, 1), o))(*GRID.sample_chains(n, rng)),
    ),
    "matern": (
        lambda rng: matern_thin_first(0.3, 0.3, lambda p: 0.8, W2, rng).points,
        lambda n, rng: matern_thin_first_chains(0.3, 0.3, lambda p: 0.8, W2, n, rng),
    ),
    "renewal": (
        lambda rng: renewal_thin_first(HAZARD, 1.0, _thin_p, rng, **RENEWAL).points,
        lambda n, rng: renewal_thin_first_chains(HAZARD, 1.0, _thin_p, n, rng, **RENEWAL),
    ),
    "renewal_upper": (  # a retention that vanishes beyond 2
        lambda rng: renewal_thin_first(HAZARD, 1.0, _upper_p, rng, **UPPER).points,
        lambda n, rng: renewal_thin_first_chains(HAZARD, 1.0, _upper_p, n, rng, **UPPER),
    ),
    **{name: (lambda rng, s=sampler: s.sample(rng).points, sampler.sample_chains)
       for name, sampler in HAWKES.items()},
    "nonlinear_hawkes": (
        lambda rng: nonlinear_hawkes_germ(*NONLINEAR, rng).points,
        lambda n, rng: nonlinear_hawkes_germ_chains(*NONLINEAR, n, rng),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_single_draw_is_the_form_at_one_replicate(case):
    """The form at one replicate returns the single draw and leaves its
    generator in the same state: it makes the single draw's generator calls."""
    single, chains = CASES[case]
    for r in range(300):
        one_rng, form_rng = _gen(401, r), _gen(401, r)
        one = single(one_rng)
        points, offsets = chains(1, form_rng)
        assert np.array_equal(one, points)
        assert offsets.tolist() == [0, len(one)]
        assert repr(one_rng.bit_generator.state) == repr(form_rng.bit_generator.state)


@pytest.mark.parametrize("case", sorted(CASES))
def test_lockstep_counts_have_the_law_of_single_draws(case):
    single, chains = CASES[case]
    n = 2_000
    _, offsets = chains(n, _gen(402))
    one_by_one = [len(single(RngStream(403).substream(r).generator())) for r in range(n)]
    rep = two_sample_ks(np.diff(offsets), np.array(one_by_one), alpha=0.01)
    assert rep.accepted, rep.to_dict()


@pytest.mark.parametrize("case", sorted(HAWKES))
def test_lockstep_hawkes_first_points_have_the_law_of_single_draws(case):
    single, chains = CASES[case]
    n = 2_000
    points, offsets = chains(n, _gen(402))
    first = points[offsets[:-1][np.diff(offsets) > 0], 0]
    one_by_one = [single(RngStream(403).substream(r).generator()) for r in range(n)]
    rep = two_sample_ks(first, np.array([p[0, 0] for p in one_by_one if len(p)]), alpha=0.01)
    assert rep.accepted, rep.to_dict()


def _pairwise_min(points):
    if len(points) < 2:
        return np.inf
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    return d.min()


@pytest.mark.parametrize("case", sorted(CASES))
def test_offsets_are_well_formed_and_group_each_replicate(case):
    _, chains = CASES[case]
    n = 400
    points, offsets = chains(n, _gen(404))
    counts = np.diff(offsets)
    assert offsets.shape == (n + 1,) and offsets[0] == 0 and offsets[-1] == len(points)
    assert np.all(counts >= 0)
    assert np.any(counts == 0) and np.any(counts > 1)  # empty replicates among full ones
    groups = [points[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
    if case in ("grid_thinning", "renewal", "renewal_upper"):
        # each replicate's sites or times increase; across replicates they restart
        assert all(np.all(np.diff(g[:, 0]) > 0) for g in groups)
        assert np.any(np.diff(points[:, 0]) < 0)
    if case == "matern":
        # no two retained points of one replicate lie within the radius
        assert min(_pairwise_min(g) for g in groups) > 0.3
        assert _pairwise_min(points) <= 0.3
    if case in ("poisson", "brix_kendall", "branching_approx", "matern"):
        assert np.all((points >= 0.0) & (points <= (4.0 if points.shape[1] == 2 else 2.0)))
    if case in HAWKES or case == "nonlinear_hawkes":
        # each replicate's times are sorted and lie in the window [0, 3]
        assert all(np.all(np.diff(g[:, 0]) >= 0) for g in groups)
        assert np.any(np.diff(points[:, 0]) < 0)
        assert points.shape[1] == 1 and np.all((points >= 0.0) & (points <= 3.0))


def test_form_at_zero_replicates_is_empty():
    for case, (_, chains) in CASES.items():
        points, offsets = chains(0, _gen(405))
        assert len(points) == 0 and offsets.tolist() == [0], case


def test_lockstep_matern_blocks_do_not_change_the_output(monkeypatch):
    chains = CASES["matern"][1]
    whole = chains(300, _gen(406))
    monkeypatch.setattr(core, "BLOCK", 7)
    blocked = chains(300, _gen(406))
    assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))


def _counted(func, calls):
    """func, appending to calls at each call."""
    def counting(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)
    return counting


def _counted_slices(func, calls):
    """pair_blocks, appending to calls at each slice it yields."""
    def counting(width):
        for rows in func(width):
            calls.append(1)
            yield rows
    return counting


class _CountingNumpy:
    """numpy, with the calls of one of its functions counted."""

    def __init__(self, name, calls):
        self.name, self.calls = name, calls

    def __getattr__(self, attr):
        value = getattr(np, attr)
        return _counted(value, self.calls) if attr == self.name else value


class _CountingRandom:
    """A generator whose random calls, the grid oracle's only draws, are counted."""

    def __init__(self, rng, calls):
        self.rng, self.calls = rng, calls

    def random(self, *args):
        self.calls.append(1)
        return self.rng.random(*args)


def _grid_p(ks):
    return 0.9 ** (ks + 1.0)


def _battery(monkeypatch, calls):
    # the grid oracle's chains, whose coins come chain after chain, as a battery
    # of 300 replicates that declare 40 points each
    chains = _counted(lambda k, rng: oracles.grid_thin_after_chains(_grid_p, 40, k, rng), calls)
    return (replicate_counts(300, RngStream(9, 20_000), chains=chains, per_rep=40.0),)


def _matern_sweep(monkeypatch, calls):
    monkeypatch.setattr(germ_thinning, "pair_blocks", _counted_slices(core.pair_blocks, calls))
    return matern_thin_first_chains(2.0, 0.3, lambda pts: 0.8, W2, 40, _gen(409))


def _coverage_sweep(monkeypatch, calls):
    monkeypatch.setattr(boolean_model, "pair_blocks", _counted_slices(core.pair_blocks, calls))
    drawn, offsets = boolean_exact_chains(0.3, DISKS, W2, 40, _gen(410))
    return (drawn.coverage(W2.sample_uniform(300, _gen(411)), offsets),)


def _dense_threshold(monkeypatch, calls):
    # one replicate of 200 points: 100 x 200 pairs, the dense path at the default block
    monkeypatch.setattr(germ_thinning, "pair_blocks", _counted_slices(core.pair_blocks, calls))
    rng = _gen(412)
    pts, marks = W2.sample_uniform(200, rng), rng.random(200)
    return (germ_thinning._mark_minimal(pts, marks, np.arange(0, 200, 2), 0.4),)


def _oracle_pairs(monkeypatch, calls):
    monkeypatch.setattr(oracles, "np", _CountingNumpy("sqrt", calls))  # one sqrt a block
    return oracles.matern_direct_chains(2.0, 0.3, lambda pts: np.full(len(pts), 0.8), W2, 40,
                                        _gen(413))


def _oracle_coins(monkeypatch, calls):
    return oracles.grid_thin_after_chains(_grid_p, 40, 300, _CountingRandom(_gen(414), calls))


@pytest.mark.parametrize("reader", [_battery, _matern_sweep, _coverage_sweep, _dense_threshold,
                                    _oracle_pairs, _oracle_coins],
                         ids=["battery", "matern-sweep", "coverage-sweep", "dense-threshold",
                              "oracle-pairs", "oracle-coins"])
def test_one_block_size_splits_every_reader(reader, monkeypatch):
    # the default core.BLOCK holds each of these in one step (the dense path
    # needs no sweep); a block of 1,000 splits every one of them, and the
    # output keeps its bytes
    calls = []
    with monkeypatch.context() as m:
        whole = reader(m, calls)
    steps = len(calls)
    del calls[:]
    monkeypatch.setattr(core, "BLOCK", 1_000)
    split = reader(monkeypatch, calls)
    assert steps == (0 if reader is _dense_threshold else 1) and len(calls) > 1
    assert all(a.tobytes() == b.tobytes() for a, b in zip(whole, split, strict=True))


def test_boolean_coverage_per_replicate_is_each_replicates_union():
    drawn, offsets = boolean_exact_chains(0.3, DISKS, W2, 40, _gen(407))
    probes = W2.sample_uniform(300, _gen(408))
    covered = drawn.coverage(probes, offsets)
    assert covered.shape == (40, 300)
    for i, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        d2 = ((probes[:, None, :] - drawn.germs[None, lo:hi, :]) ** 2).sum(axis=2)
        assert np.array_equal(covered[i], (d2 <= drawn.radii[lo:hi] ** 2).any(axis=1))


# -- single draws keep their bytes ---------------------------------------------------
#
# sha256 over 400 single draws (streams RngStream(99, r)) of each built config:
# every demo config and ten variants. Taken on the code before the single
# draws became their lockstep forms, with numpy 2.4.6 on Python 3.11.7;
# hawkes_mr's again when its roots before the window joined the immigrants,
# and when its split between plain and thinned ancestors moved to 2 t0, then 3 t0;
# it and the branching digests again when the Galton-Watson engine came to draw
# its counts and displacements in blocks, and the split moved to 4 t0.
SINGLE_DRAW_SHA256 = {
    "poisson": "a3fba5576cea4c4f0775c2cdd5c4dd06f6e064d275011cb63d88ff7a5418fd27",
    "brix_kendall": "610ac9964576023ee9713830d2435520cb352aadad108d160700f43b569c185d",
    "branching_approx": "29fefb232b90e68c8d893936eb6508013d2dff8712d5fbcce545decfc949da58",
    "boolean_disks": "fe0ae27c9b51051529d369983b250ffe421d5446d2213a1f062b547961c79386",
    "boolean_segments": "a3ae79b135c2579896eaa54a576f49c0287aaf062ef69ef4e9cfc644fb9661f0",
    "poisson_lines": "c846aff84434a67724a3be1710602d6c464ccf973d53bbcc174d27e24f2ead10",
    "grid_thinning": "d2d2c82ba1745acdf9302eb9c154f9fd8937bac8463ff0f6a84dfdd393c69076",
    "matern": "bcc111e0c245aeb9ad05b963429aa197cdfc7b92346989aa7c91a82609eca1d1",
    "renewal": "3c7f0355bb7a0ac8934244fe4b98f53222b35d6ddaa423d5f5aeea5d64553526",
    "nonlinear_hawkes": "5b78a67827026df09d67974883606492b7909f31f4c2488402479115868f625e",
    "hawkes_mr": "6e7fda90e70e007afb3ce4628c3e1599c9b8170922fb2017b3c1f97749f235bd",
    "brix_kendall_2d": "4225d3c28c93f6afc7bf4fe5c84fa41190fc73959b9beb3787ce302915bd8985",
    "disks_uniform": "3ac9b51cfa9d0ef81b2bfaa931b8241f37b538288bc833ed10d88e93a3f3b1bf",
    "disks_exp": "1dadad54e45bde68e1464e5c9db40f24c085cf47dd4f6bb7e53f4c33ab45b8cb",
    "grid_table": "ca9d097bdb66d362776778cf81ca5393ad8ae52a20b70b4d0767add8125b4494",
    "grid_inverse_square": "7220960eb0a6e75baf00ebb17062a01a7f7304364e5d4dd0561ae36ae02ccdab",
    "matern_1d": "aed3eb7b78cc3c8685370fad2ea4556ff8500c8d54e3ec3d8a4c854d43febcb0",
    "branching_2d": "90da7272335ddc0035369b05a632d6348db66a25e0a430606d2ac28f67bdc860",
    "branching_0": "b6a3ebfe390f445c94e7337d50251a584669cb70d76cc7693470743b211158d1",
}


def _variants():
    def demo(name):
        return json.loads((ROOT / "configs" / f"{name}.json").read_text())

    for name in ("poisson", "brix_kendall", "branching_approx", "boolean_disks",
                 "boolean_segments", "poisson_lines", "grid_thinning", "matern", "renewal",
                 "nonlinear_hawkes", "hawkes_mr"):
        yield name, demo(name)
    cfg = demo("brix_kendall")
    cfg["window"] = {"lower": [0.0, 0.0], "upper": [3.0, 3.0]}
    cfg["params"]["displacement"] = {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]}
    yield "brix_kendall_2d", cfg
    cfg = demo("boolean_disks")
    cfg["params"]["radius"] = {"kind": "uniform", "lo": 0.1, "hi": 0.9}
    yield "disks_uniform", cfg
    cfg = dict(cfg, params=dict(cfg["params"], radius={"kind": "exp", "rate": 2.0}))
    yield "disks_exp", cfg
    cfg = demo("grid_thinning")
    cfg["params"] = {"family": "table", "probs": [0.2, 0.9, 0.0, 0.5, 1.0, 0.3]}
    yield "grid_table", cfg
    cfg = dict(cfg, params={"family": "inverse_square", "C": 2.0})
    yield "grid_inverse_square", cfg
    cfg = demo("matern")
    cfg["window"] = {"lower": [0.0], "upper": [5.0]}
    yield "matern_1d", cfg
    cfg = demo("branching_approx")
    cfg["window"] = {"lower": [0.0, 0.0], "upper": [2.0, 2.0]}
    cfg["params"]["displacement"] = {"lo": [-0.3, -0.3], "hi": [0.3, 0.3]}
    yield "branching_2d", cfg
    cfg = demo("branching_approx")
    cfg["params"]["generations"] = 0
    yield "branching_0", cfg


def _single_draw_digest(cfg):
    from exactpp import cli

    sample = cli.build(cfg)["sample"]
    digest = hashlib.sha256()
    for r in range(400):
        pattern = sample(RngStream(99, r).generator())
        digest.update(pattern.points.tobytes())
        digest.update(b"|")
        if pattern.marks is not None:
            digest.update(pattern.marks.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name, cfg", list(_variants()), ids=lambda v: v if isinstance(v, str) else "")
def test_single_draws_keep_their_bytes(name, cfg):
    # line angles (np.arcsin, np.arctan2) and size-biased radii (**) are written out
    assert _single_draw_digest(cfg) == SINGLE_DRAW_SHA256[name], pin_message(
        f"{name}: single draws", name in ("poisson_lines", "disks_uniform"))


# -- the battery's streams and generators ----------------------------------------------


def test_battery_stream_keys_cannot_coincide():
    keys = (validation.LOCKSTEP, validation.ORACLE, validation.PROBES)
    assert keys == (1, 2, 3)  # the words the battery's streams have always had
    stream = RngStream(5, 20_000)
    got = [stream.substream(k).generator().bit_generator.state["state"]["key"].tolist()
           for k in keys]
    want = [np.random.SeedSequence(5, spawn_key=(20_000, k)).generate_state(2, np.uint64).tolist()
            for k in keys]
    assert got == want
    assert len({tuple(key) for key in got}) == 3


def _keeping(seen):
    """A reduce that keeps every block it is handed and returns its counts."""
    def reduce(points, offsets):
        seen.append((points, offsets))
        return np.diff(offsets)
    return reduce


def test_replicate_counts_draw_from_the_battery_streams():
    stream = RngStream(7, 20_000)
    w = Window((0.0,), (3.0,))
    seen = []
    counts = replicate_counts(5, stream, chains=lambda n, rng: homogeneous_chains(w, 2.0, n, rng),
                              reduce=_keeping(seen))
    ref = homogeneous_chains(w, 2.0, 5, stream.substream(validation.LOCKSTEP).generator())
    assert len(seen) == 1  # within core.BLOCK: one block
    assert np.array_equal(seen[0][0], ref[0]) and np.array_equal(seen[0][1], ref[1])
    assert np.array_equal(counts, np.diff(ref[1]))


def test_replicate_counts_draw_blocks_of_bounded_points(monkeypatch):
    # 6 points a replicate against a bound of 20: blocks of 3, 3 and 2
    # replicates, drawn in turn from the one lockstep generator and each
    # reduced before the next is drawn
    monkeypatch.setattr(core, "BLOCK", 20)
    stream = RngStream(8, 20_000)
    w = Window((0.0,), (3.0,))
    asked, seen = [], []

    def chains(n, rng):
        asked.append(n)
        assert len(seen) == len(asked) - 1  # the block before was reduced already
        return homogeneous_chains(w, 2.0, n, rng)

    counts = replicate_counts(8, stream, chains=chains, per_rep=6.0, reduce=_keeping(seen))
    assert asked == [3, 3, 2]
    rng = stream.substream(validation.LOCKSTEP).generator()
    for n, (points, offsets) in zip(asked, seen):
        ref = homogeneous_chains(w, 2.0, n, rng)
        assert np.array_equal(points, ref[0]) and np.array_equal(offsets, ref[1])
    assert np.array_equal(counts, np.concatenate([np.diff(o) for _, o in seen]))
    # a replicate above the bound is a block of its own; a battery within it, one block
    for per_rep, blocks in ((50.0, [1, 1, 1]), (6.0, [3])):
        del asked[:], seen[:]
        replicate_counts(3, stream, chains=chains, per_rep=per_rep, reduce=_keeping(seen))
        assert asked == blocks


LOCKSTEP_CONFIGS = ("boolean_disks", "boolean_segments", "branching_approx", "brix_kendall",
                    "grid_thinning", "hawkes_mr", "matern", "nonlinear_hawkes", "poisson",
                    "poisson_lines", "renewal")


@pytest.mark.parametrize("name", LOCKSTEP_CONFIGS)
def test_validated_run_builds_generators_independent_of_replicates(monkeypatch, tmp_path, name,
                                                                    capsys):
    from exactpp.cli import main

    generator, philox, seed = core._numpy_random()
    built = []

    def counting(bits):
        built.append(1)
        return generator(bits)

    monkeypatch.setattr(core, "_numpy_random", lambda: (counting, philox, seed))
    cfg = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    made = []
    for reps in (50, 120):
        path = tmp_path / f"{name}-{reps}.json"
        path.write_text(json.dumps(dict(cfg, validation={"replicates": reps})))
        del built[:]
        # the run completes; whether this replicate count accepts is not this test's question
        assert main(["validate", "-c", str(path)]) in (0, 1), capsys.readouterr()
        made.append(len(built))
    # the lockstep replicates, and the oracle's chains or the probes
    assert made[0] == made[1] <= 2


@pytest.mark.parametrize("name", LOCKSTEP_CONFIGS)
def test_validated_run_draws_its_battery_in_bounded_blocks(monkeypatch, tmp_path, name, capsys):
    # a bound of 7.5 replicates' mean points: blocks of 7 replicates, but one
    # block for the grid, whose replicates declare no points
    from exactpp.cli import main

    draw = validation.replicate_counts
    asked = []

    def bounded(n_reps, stream, chains=None, per_rep=0.0, **kw):
        monkeypatch.setattr(core, "BLOCK", 7.5 * per_rep)

        def counting(k, rng):
            asked.append(k)
            return chains(k, rng)

        return draw(n_reps, stream, chains=counting, per_rep=per_rep, **kw)

    monkeypatch.setattr(validation, "replicate_counts", bounded)
    cfg = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    n_reps = cfg["validation"]["replicates"]
    # other blocks draw other numbers; whether they accept is not this test's question
    assert main(["validate", "-c", str(path)]) in (0, 1), capsys.readouterr()
    assert sum(asked) == n_reps
    assert asked == ([n_reps] if name == "grid_thinning" else
                     [7] * (n_reps // 7) + [n_reps % 7] * (n_reps % 7 > 0))


# -- the geometric grid at c = 1 ---------------------------------------------------------


def test_geometric_grid_with_a_certain_first_site_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = GeometricGrid(1.0, 0.99)
        assert grid.survival(-1) == 0.0 == grid.prob_empty()
        assert thin_grid(grid, _gen(409))[0] == 0  # site 0 is always retained
    # every other tail value is the old computation's, bit for bit
    for c, ratio in ((1.0, 0.99), (0.7, 0.6), (0.3, 0.9), (1.0, 0.5), (0.999, 0.2)):
        grid = GeometricGrid(c, ratio)
        with np.errstate(divide="ignore"):
            logs = np.log1p(-np.minimum(c * ratio ** np.arange(grid._k_max + 1), 1 - 1e-300))
        tail = np.zeros(grid._k_max + 2)
        for i in range(grid._k_max, -1, -1):
            tail[i] = math.fsum([tail[i + 1], logs[i]])
        assert np.array_equal(grid._tail_logs, tail)
        assert all(grid.survival(n) == math.exp(tail[n + 1]) for n in range(-1, grid._k_max + 1))


def test_matern_sweep_makes_the_single_replicate_decisions():
    # many replicates are swept, one is compared in one block: the same survivors
    from exactpp.germ_thinning import _mark_minimal

    rng = _gen(410)
    counts = rng.poisson(30.0, 60)
    offsets = core.chain_offsets(counts)
    points = rng.random((offsets[-1], 2)) * 3.0
    marks = rng.random(offsets[-1])
    idx = np.flatnonzero(rng.random(offsets[-1]) < 0.6)
    swept = _mark_minimal(points, marks, idx, 0.4, offsets)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        mine = (idx >= lo) & (idx < hi)
        one = _mark_minimal(points[lo:hi], marks[lo:hi], idx[mine] - lo, 0.4)
        assert np.array_equal(swept[mine], one)
