"""Windows, point patterns, CSV round trips, RNG streams, and the thinning
step every sampler is built from."""

import copy
import inspect
import math
import os
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exactpp import (
    BooleanSample,
    ConfigError,
    DensityIntensity,
    DiskGrains,
    DiskWindow,
    ExpRadius,
    ExponentialFertility,
    FixedRadius,
    GeometricGrid,
    InverseSquareGrid,
    LebesgueIntensity,
    PointPattern,
    RngStream,
    SamplerError,
    SegmentGrains,
    TableGrid,
    TranslatedPoissonCluster,
    TruncationCertificate,
    UniformDisplacement,
    UniformRadius,
    Window,
    build_sandwich,
)
from exactpp import core
from exactpp.boolean_model import LineSample, _steiner
from exactpp.core import thin
from exactpp.sandwich import BoundPair
from exactpp.validation import TestReport

UNIT = Window((0.0,), (1.0,))


# -- windows ---------------------------------------------------------------------


def test_window_volume_examples():
    assert Window((0.0,), (1.0,)).volume() == 1.0
    assert Window((0.0, 0.0, 0.0), (1.0, 2.0, 3.0)).volume() == 6.0
    assert Window((-1.0,), (1.0,)).volume() == 2.0


def test_window_derived_values_are_computed_once_and_read_only():
    w = Window([-1.5, 0.25, 2.0], (0.5, 3.0, 2.125))
    assert w.lower == (-1.5, 0.25, 2.0)
    assert np.array_equal(w.sides, np.asarray(w.upper) - np.asarray(w.lower))
    assert w.volume() == float(np.prod(w.sides))
    assert not w.sides.flags.writeable
    with pytest.raises(ValueError):
        w.sides[0] = 1.0
    # scalars, tuples, lists and arrays give equal windows with equal hashes
    same = (Window(0.0, 2), Window((0,), [2.0]), Window(np.zeros(1), np.float64(2.0)))
    assert len({*same}) == 1 and same[0].volume() == 2.0


def test_window_rejects_degenerate_boxes():
    with pytest.raises(ConfigError):
        Window((0.0,), (0.0,))
    with pytest.raises(ConfigError):
        Window((0.0, 0.0), (1.0,))
    with pytest.raises(ConfigError):
        Window((2.0,), (1.0,))
    with pytest.raises(ConfigError):
        Window((), ())


def test_window_contains_is_closed():
    w = Window((0.0, 0.0), (1.0, 2.0))
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [0.5, 1.0], [1.0 + 1e-12, 1.0], [-0.1, 1.0]])
    assert w.contains(pts).tolist() == [True, True, True, False, False]


def test_window_buffered_and_shifted():
    w = Window((0.0,), (1.0,))
    b = w.buffered(0.5)
    assert b.lower == (-0.5,) and b.upper == (1.5,)
    s = w.shifted(-0.25, 0.25)
    assert s.lower == (-0.25,) and s.upper == (1.25,)
    with pytest.raises(ConfigError):
        w.buffered(-0.1)


def test_window_uniform_sampling_stays_inside():
    w = Window((-1.0, 2.0), (1.0, 5.0))
    rng = RngStream(11, 0).generator()
    pts = w.sample_uniform(500, rng)
    assert pts.shape == (500, 2)
    assert np.all(w.contains(pts))


# -- the coin step ------------------------------------------------------------------


def test_thin_keeps_the_rows_whose_uniform_is_below_p():
    rows = np.arange(40.0).reshape(20, 2)
    p = np.linspace(0.0, 1.0, 20)
    rng, ref = RngStream(12, 0).generator(), RngStream(12, 0).generator()
    kept = thin(rows, p, rng)
    u = ref.random(20)
    assert np.array_equal(kept, rows[u < p])
    assert rng.random() == ref.random()  # the generator advanced as rng.random(n) does


def test_thin_with_p_zero_and_one():
    rows = np.arange(10)
    rng = RngStream(13, 0).generator()
    assert thin(rows, 0.0, rng).size == 0
    assert np.array_equal(thin(rows, 1.0, rng), rows)
    assert np.array_equal(thin(rows, np.full(10, 1.0 + 1e-13), rng), rows)  # bound rounding
    assert thin(np.empty((0, 2)), 0.5, rng).shape == (0, 2)


@pytest.mark.parametrize("p", [-0.1, 1.01, np.nan, [0.5, 0.5, 2.0]])
def test_thin_rejects_probabilities_outside_the_unit_interval(p):
    with pytest.raises(SamplerError, match=r"\[0,1\]"):
        thin(np.arange(3), p, RngStream(14, 0).generator())



@pytest.mark.parametrize("n, n_labels", [(5_000, 300), (5_000, 70_000), (400, 1), (0, 1)])
def test_order_by_label_is_lexsort(n, n_labels):
    """Values with ties (two decimals), labels in one byte, two bytes, beyond
    two bytes, one label and empty input: the order is np.lexsort's."""
    rng = np.random.default_rng(n + n_labels)
    values = np.round(rng.random(n), 2)
    labels = rng.integers(0, n_labels, n)
    order = core.order_by_label(values, labels)
    expect = np.lexsort((values, labels))
    assert np.array_equal(order, expect)
    assert values[order].tobytes() == values[expect].tobytes()
    assert labels[order].tobytes() == labels[expect].tobytes()

# -- RNG streams -------------------------------------------------------------------


def test_rng_stream_reproducible_and_splittable():
    a = RngStream(123, 4).generator().random(32)
    b = RngStream(123, 4).generator().random(32)
    assert np.array_equal(a, b)

    other_stream = RngStream(123, 5).generator().random(32)
    assert not np.array_equal(a, other_stream)

    sub1 = RngStream(123, 4).substream(7).generator().random(32)
    sub1_again = RngStream(123, 4).substream(7).generator().random(32)
    sub2 = RngStream(123, 4).substream(8).generator().random(32)
    assert np.array_equal(sub1, sub1_again)
    assert not np.array_equal(sub1, sub2)
    assert not np.array_equal(sub1, a)


SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1]
STREAM_IDS = [0, 255, 256, 511, 20_000, 30_000, 2**32 - 1, 2**33]
LINEAGES = [(), (10_001,), (10_002, 2**40 + 3), (7, 2**64 + 9, 10_001)]


def _numpy_generator(seed, spawn_key):
    """The generator numpy's own SeedSequence path gives: the oracle."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(seq))


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_key_and_words_match_numpy_seed_sequence(seed):
    for stream_id in STREAM_IDS:
        for lineage in LINEAGES:
            spawn_key = (stream_id, *lineage)
            want = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
            key = core._philox_key(seed, spawn_key)
            assert key == tuple(int(v) for v in want.generate_state(2, np.uint64))
            rng = RngStream(seed, stream_id, lineage).generator()
            assert rng.bit_generator.state["state"]["key"].tolist() == list(key)
            ref = _numpy_generator(seed, spawn_key)
            assert np.array_equal(rng.bit_generator.random_raw(16),
                                  ref.bit_generator.random_raw(16))


@pytest.mark.parametrize("seed", SEEDS)
def test_key_blocks_are_the_reference_keys(seed):
    # the first and last blocks of the one-word stream ids, against _philox_key
    for block in (0, 2**24 - 1):
        ids = range(block * 256, block * 256 + 256)
        want = [list(core._philox_key(seed, (i,))) for i in ids]
        assert core._key_block(seed, block).tolist() == want


def _check_top_level_streams(seed, stream_ids):
    for stream_id in stream_ids:
        rng = RngStream(seed, stream_id).generator()
        ref = _numpy_generator(seed, (stream_id,))
        assert np.array_equal(rng.bit_generator.random_raw(4), ref.bit_generator.random_raw(4))


def test_top_level_streams_in_shuffled_order_match_numpy():
    core._key_block.cache_clear()
    ids = np.random.default_rng(3).permutation(np.r_[0:520, 2**32 - 300:2**32]).tolist()
    for seed in (3, 2**64 + 5):
        _check_top_level_streams(seed, ids)
    assert core._key_block.cache_info().currsize == 2 * 5  # blocks 0-2 and the last two a seed


def test_top_level_streams_match_numpy_after_blocks_are_evicted():
    # 80 blocks drawn twice in shuffled order: the cache of 64 evicts blocks
    # between the two passes, and a block computed again gives the same keys
    core._key_block.cache_clear()
    pick = np.random.default_rng(4)
    ids = (np.arange(80) * 256 + pick.integers(0, 256, 80)).tolist()
    for _ in range(2):
        _check_top_level_streams(11, pick.permutation(ids).tolist())
    info = core._key_block.cache_info()
    assert info.maxsize == 64 and info.currsize == 64
    assert info.misses > 80  # some blocks were computed twice


def test_cached_keys_cannot_be_written_through_a_generator():
    rng = RngStream(8, 300).generator()
    with pytest.raises(ValueError):
        rng.bit_generator.seed_seq.key[0] = 0
    assert np.array_equal(RngStream(8, 300).generator().bit_generator.random_raw(4),
                          _numpy_generator(8, (300,)).bit_generator.random_raw(4))


def test_substream_is_the_stream_with_a_longer_lineage():
    stream = RngStream(5, 30_000).substream(10_001).substream(2**40)
    assert stream == RngStream(5, 30_000, [10_001, np.int64(2**40)])
    assert stream.lineage == (10_001, 2**40) and RngStream(5).lineage == ()
    rng = stream.generator()
    assert np.array_equal(rng.random(16), _numpy_generator(5, (30_000, 10_001, 2**40)).random(16))


@pytest.mark.parametrize(
    "stream",
    [RngStream(-1), RngStream(3, -2), RngStream(3, 0, (4, -1)), RngStream(3).substream(-5)],
    ids=["seed", "stream-id", "lineage", "substream"],
)
def test_negative_stream_words_raise_value_error(stream):
    with pytest.raises(ValueError):
        stream.generator()


@pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_generator_survives_pickling_and_copying(clone):
    # a substream's key and a top-level stream's cached key
    for lineage in ((9,), ()):
        rng = RngStream(17, 2, lineage).generator()
        head = rng.random(5)
        twin = clone(rng)
        assert np.array_equal(twin.random(40), rng.random(40))
        assert np.array_equal(head, _numpy_generator(17, (2, *lineage)).random(5))


def test_live_generators_of_one_stream_share_no_state():
    a, b = RngStream(8, 3).generator(), RngStream(8, 3).generator()
    a.random(1000)
    assert np.array_equal(b.random(10), _numpy_generator(8, (3,)).random(10))
    assert a.bit_generator.seed_seq is not b.bit_generator.seed_seq


def test_stream_generator_cannot_spawn():
    rng = RngStream(8, 3).generator()
    assert not isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence)
    with pytest.raises(TypeError):
        rng.spawn(1)
    with pytest.raises(ValueError):
        rng.bit_generator.seed_seq.generate_state(4, np.uint32)


def test_seed_cache_stays_bounded():
    for seed in range(10_000, 20_000):
        RngStream(seed, 1).generator()
    info = core._seed_pool.cache_info()
    assert info.maxsize == 64
    assert info.currsize <= 64


# -- point-pattern algebra ----------------------------------------------------------


points_2d = st.lists(
    st.tuples(
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
    ),
    max_size=30,
)


@settings(deadline=None, max_examples=60)
@given(
    points_2d,
    st.floats(0.05, 0.45),
    st.floats(0.55, 0.95),
)
def test_restriction_is_monotone_in_the_window(pts, lo, hi):
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    small = Window((lo, lo), (hi, hi))
    big = Window((0.0, 0.0), (1.0, 1.0))
    inner = pts[small.contains(pts)]
    assert np.all(big.contains(inner))
    assert np.all(small.contains(inner))  # idempotent


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=30),
    st.floats(0.1, 0.9),
)
def test_disjoint_split_counts_add_up(xs, cut):
    assume(all(x != cut for x in xs))
    pts = np.asarray(xs, dtype=float).reshape(-1, 1)
    left = Window((0.0,), (cut,))
    right = Window((cut,), (1.0,))
    whole = Window((0.0,), (1.0,))
    assert left.contains(pts).sum() + right.contains(pts).sum() == whole.contains(pts).sum()


def test_pattern_rejects_mismatched_marks():
    with pytest.raises(ValueError):
        PointPattern(np.zeros((3, 1)), marks=np.zeros(2))


def test_pattern_copies_the_arrays_it_is_given():
    # a caller that reuses its buffers must not change a built pattern
    points, marks = np.zeros((2, 1)), np.zeros(2)
    pat = PointPattern(points, marks=marks, dim=1)
    points[0, 0], marks[1] = 5.0, 7.0
    assert pat.points.tolist() == [[0.0], [0.0]]
    assert pat.marks.tolist() == [0.0, 0.0]
    assert pat.points.flags.c_contiguous and pat.marks.flags.c_contiguous


# -- serialization -------------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    rng = RngStream(5, 0).generator()
    pat = PointPattern(rng.random((17, 2)) * 1e3, marks=rng.random(17), dim=2)
    path = tmp_path / "pat.csv"
    pat.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,mark"
    back = PointPattern.from_csv(path)
    assert np.array_equal(back.points, pat.points)
    assert np.array_equal(back.marks, pat.marks)


def test_csv_header_for_unmarked_1d():
    pat = PointPattern(np.array([[0.5], [0.25]]), dim=1)
    import io, tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "p.csv")
        pat.to_csv(path)
        lines = open(path).read().splitlines()
    assert lines[0] == "x1"
    assert len(lines) == 3


def test_empty_pattern_csv_round_trip(tmp_path):
    path = tmp_path / "empty.csv"
    PointPattern([], dim=3).to_csv(path)
    assert path.read_text() == "x1,x2,x3\n"
    back = PointPattern.from_csv(path)
    assert back.n == 0 and back.dim == 3


def _row_writer_csv(pattern, path):
    """Reference writer: csv.writer, one formatted cell at a time."""
    import csv

    def text(v):
        v = float(v)
        return repr(0.0 if v == 0.0 else v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = [f"x{i + 1}" for i in range(pattern.dim)]
        if pattern.marks is not None:
            header.append("mark")
        writer.writerow(header)
        for i in range(pattern.n):
            row = [text(v) for v in pattern.points[i]]
            if pattern.marks is not None:
                row.append(text(pattern.marks[i]))
            writer.writerow(row)


def _mixed_values(rng, shape):
    """Floats of every magnitude and sign, with some zeros of either sign."""
    vals = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    return np.where(rng.random(shape) < 0.05, rng.choice([-0.0, 0.0], size=shape), vals)


def test_csv_bytes_match_row_writer(tmp_path):
    rng = RngStream(7, 0).generator()
    odd = np.array([-0.0, 0.0, 1e-310, -2.5e22, 1.0 / 3.0, np.inf, -1e-5])
    patterns = [
        PointPattern(rng.random(9) * 1e4 - 5e3, dim=1),
        PointPattern(rng.normal(size=(13, 2)), dim=2),
        PointPattern(rng.random((11, 3)), marks=rng.random(11) * 6.0, dim=3),
        PointPattern(np.column_stack([odd, odd[::-1]]), marks=-odd, dim=2),
        PointPattern(np.array([[-0.0]]), marks=np.array([-0.0]), dim=1),
    ]
    # every layout: dims 1-3, with and without marks, at 0, 1 and 10^4 rows
    for dim in (1, 2, 3):
        for n in (0, 1, 10_000):
            points = _mixed_values(rng, (n, dim))
            patterns.append(PointPattern(points, dim=dim))
            patterns.append(PointPattern(points, marks=_mixed_values(rng, n), dim=dim))
    for i, pat in enumerate(patterns):
        ours, ref = tmp_path / f"ours{i}.csv", tmp_path / f"ref{i}.csv"
        pat.to_csv(ours)
        _row_writer_csv(pat, ref)
        assert ours.read_bytes() == ref.read_bytes(), i
        # the file mode is open()'s: 0o666 under the umask
        assert os.stat(ours).st_mode == os.stat(ref).st_mode, i


def test_csv_write_finishes_short_writes(tmp_path, monkeypatch):
    rng = RngStream(8, 0).generator()
    pat = PointPattern(_mixed_values(rng, (300, 2)), marks=rng.random(300), dim=2)
    pat.to_csv(tmp_path / "whole.csv")
    whole = (tmp_path / "whole.csv").read_bytes()
    write, sizes = os.write, []

    def short_write(fd, data):  # at most 7 bytes per call, as a slow device may take
        sizes.append(write(fd, bytes(data[:7])))
        return sizes[-1]

    monkeypatch.setattr(os, "write", short_write)
    pat.to_csv(tmp_path / "short.csv")
    monkeypatch.undo()
    assert (tmp_path / "short.csv").read_bytes() == whole
    assert sum(sizes) == len(whole) and len(sizes) == -(-len(whole) // 7)


def test_csv_write_error_closes_the_descriptor(tmp_path, monkeypatch):
    opened, closed = [], []
    real_open, real_close = os.open, os.close

    def recording_open(*args):
        opened.append(real_open(*args))
        return opened[-1]

    def full_disk(fd, data):
        raise OSError(28, "No space left on device")

    def recording_close(fd):
        closed.append(fd)
        real_close(fd)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "write", full_disk)
    monkeypatch.setattr(os, "close", recording_close)
    with pytest.raises(OSError, match="No space left"):
        PointPattern(np.ones((5, 2)), dim=2).to_csv(tmp_path / "full.csv")
    monkeypatch.undo()
    assert len(opened) == 1 and closed == opened
    with pytest.raises(OSError):  # closed, not merely recorded
        os.fstat(opened[0])


def test_negative_zero_is_normalized_in_files(tmp_path):
    path = tmp_path / "z.csv"
    PointPattern(np.array([[-0.0]]), dim=1).to_csv(path)
    assert "-0.0" not in path.read_text()


# -- read-only value classes --------------------------------------------------------

# (make, hashable): a fresh instance of each read-only class; the classes that
# hold arrays or a dict compare equal only to themselves and have no hash
VALUE_CLASSES = [
    (lambda: Window((0.0, 0.0), (1.0, 2.0)), True),
    (lambda: PointPattern([[0.0, 1.0], [2.0, 3.0]], marks=[1.0, 2.0]), False),
    (lambda: RngStream(5, 3, (1, 2)), True),
    (lambda: LebesgueIntensity(2.0, 2), True),
    (lambda: DensityIntensity(np.ones_like, 1.5), True),
    (lambda: DiskWindow((0.5, 0.5), 1.0), True),
    (lambda: FixedRadius(0.3), True),
    (lambda: UniformRadius(0.1, 0.4), True),
    (lambda: ExpRadius(2.0), True),
    (lambda: DiskGrains(UniformRadius(0.1, 0.4)), True),
    (lambda: SegmentGrains(0.5), True),
    (lambda: BooleanSample(np.zeros((2, 2)), UNIT, radii=np.ones(2)), False),
    (lambda: LineSample(np.zeros((1, 2)), np.zeros(1), DiskWindow((0.0, 0.0), 1.0)), False),
    (lambda: TruncationCertificate(3, 2.0, 0.25), True),
    (lambda: UniformDisplacement((-0.5,), (0.5,)), True),
    (lambda: TranslatedPoissonCluster(2.0, UniformDisplacement((-0.5,), (0.5,))), True),
    (lambda: TableGrid((0.5, 0.25)), True),
    (lambda: GeometricGrid(0.5, 0.5), True),
    (lambda: InverseSquareGrid(1.0), True),
    (lambda: BoundPair(np.arange(3.0), np.zeros(3), np.ones(3), 0), False),
    (lambda: TestReport("t", 0.1, 0.2, 0.05, "accept", details={"a": 1}), False),
]


@pytest.mark.parametrize("make, hashable", VALUE_CLASSES,
                         ids=[type(make()).__name__ for make, _ in VALUE_CLASSES])
def test_value_classes_are_read_only_values(make, hashable):
    obj = make()
    fields = list(inspect.signature(type(obj)).parameters)  # the constructor's, in order
    for name in fields + ["unknown"]:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(obj, name)
    assert repr(obj).startswith(f"{type(obj).__name__}({fields[0]}=")
    assert obj == obj and obj != object()
    clones = [copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]
    for clone in clones:
        assert type(clone) is type(obj) and repr(clone) == repr(obj)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(clone, fields[0], None)
    if hashable:
        for other in (make(), *clones):
            assert other == obj and hash(other) == hash(obj)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)


def test_equal_windows_and_radius_laws_share_one_steiner_entry():
    _steiner.cache_clear()
    for lower in ([0, 0], (0.0, np.float64(0.0))):
        _steiner(UniformRadius(0.1, 0.4), Window(lower, (1.0, 2.0)))
    info = _steiner.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_sandwich_stays_mutable_and_unhashable():
    sandwich = build_sandwich(ExponentialFertility(0.5, 1.0), step=1e-2)
    with pytest.raises(TypeError, match="unhashable"):
        hash(sandwich)
    n = sandwich.n
    sandwich.advance(1)
    assert sandwich.n == sandwich.bounds().n == n + 1
    for clone in (copy.deepcopy(sandwich), pickle.loads(pickle.dumps(sandwich))):
        assert clone.n == n + 1 and clone.gaps == sandwich.gaps
        assert np.array_equal(clone.bounds().ell, sandwich.bounds().ell)
