"""Shared geometry, point-pattern, RNG, and intensity-measure types, and the
two steps every exact sampler is built from.

Everything here has value semantics: windows and RNG streams are frozen,
point patterns copy their arrays on construction, and samplers receive an
RngStream rather than a live generator so that a (seed, stream_id) pair
pins down the output bit-for-bit.

RngStream(seed, stream_id, lineage).generator() is numpy's
Generator(Philox(SeedSequence(seed, spawn_key=(stream_id, *lineage)))), bit
for bit, so numpy alone re-derives any stream. The Philox key is computed here
with SeedSequence's hashing (its pool cached per seed; the keys of a
top-level stream's 256 neighbouring ids computed at once and cached per
block) and handed to Philox through a seed object that holds only the key,
so no SeedSequence is built, Philox reads no OS entropy, and rng.spawn() is
not supported.
numpy.random itself is imported on the first generator() call, not with this
module.

sample_homogeneous draws the dominating homogeneous Poisson process on a box
and thin is the one coin step: one uniform per row, kept iff it is below the
row's retention probability (Lewis & Shedler 1979). Every sampler that thins
a dominating process goes through these two routines.

Many replicates drawn in lockstep from one generator are listed as
(points, offsets): replicate i's points are points[offsets[i]:offsets[i + 1]].
homogeneous_chains draws n such replicates, kept_rows carries the offsets
through a filter of the rows, and thin_chains is thin over every replicate's
rows at once. sample_homogeneous is homogeneous_chains at n = 1, and a form
at n = 1 makes the generator calls of the single draw. order_by_label sorts
rows by replicate, then by value. The Poisson sampler's config builder,
_build_poisson, follows the draws it makes, and the config builders' shared
parts end the module.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os

import numpy as np

__all__ = [
    "ConfigError",
    "SamplerError",
    "Window",
    "sample_homogeneous",
    "homogeneous_chains",
    "thin",
    "thin_chains",
    "kept_rows",
    "chain_offsets",
    "order_by_label",
    "poisson_counts",
    "pair_blocks",
    "PointPattern",
    "RngStream",
    "LebesgueIntensity",
    "DensityIntensity",
    "config_hash",
]


class ConfigError(ValueError):
    """A configuration violates the schema or a declared precondition."""


class SamplerError(RuntimeError):
    """A sampler cannot produce an exact draw under the given configuration."""


class _Frozen:
    """Base of the read-only value classes. An instance refuses the assignment
    and deletion of any attribute with AttributeError, and compares, hashes and
    prints as the tuple of its class's _fields; an instance of another class is
    never equal. Constructors fill __dict__ directly, as pickle, deepcopy and
    functools.cached_property do."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = operator.attrgetter(*cls._fields)  # a tuple for two or more fields
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        values = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({values})"


def _bounds(v):
    """A window bound as a tuple of floats; plain scalars, tuples and lists skip numpy."""
    if isinstance(v, (int, float)):
        return (float(v),)
    return tuple(map(float, v if isinstance(v, (tuple, list)) else np.atleast_1d(v)))


class Window(_Frozen):
    """Axis-aligned box [lower_1, upper_1] x ... x [lower_m, upper_m].

    Bounds are strict: lower < upper on every axis, so the window always has
    positive volume.  The side lengths and the bounds as read-only arrays
    (`sides`, `lo`, `hi`) and the volume are computed once, when the window is
    made; equality and hashing use lower and upper only.  The window also
    keeps the last window `buffered` made from it.
    """

    _fields = ("lower", "upper")

    def __init__(self, lower, upper):
        lo, hi = _bounds(lower), _bounds(upper)
        if len(lo) != len(hi):
            raise ConfigError("window lower/upper dimension mismatch")
        if len(lo) == 0:
            raise ConfigError("window needs at least one axis")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ConfigError("window requires lower < upper on every axis")
        sides = [b - a for a, b in zip(lo, hi)]
        rows = np.array((sides, lo, hi))
        rows.setflags(write=False)  # its rows are views, read-only too
        self.__dict__.update(lower=lo, upper=hi, _volume=math.prod(sides), sides=rows[0],
                             lo=rows[1], hi=rows[2], _buffer=(None, None))

    @property
    def dim(self):
        return len(self.lower)

    def volume(self):
        return self._volume

    def contains(self, points):
        """Boolean mask of the rows of `points`, an (n, dim) array, inside the closed box."""
        return ((points >= self.lo) & (points <= self.hi)).all(axis=1)

    def buffered(self, r):
        """Window inflated by r >= 0 on every side (Minkowski sum with a box).

        It is made once per r: a second call with the r of the last call
        returns the same (immutable) window, so a sampler that buffers its
        window on every draw builds the buffer once.
        """
        last, made = self._buffer
        if r == last:
            return made
        if r < 0:
            raise ConfigError("buffer radius must be nonnegative")
        made = Window(tuple(v - r for v in self.lower), tuple(v + r for v in self.upper))
        self.__dict__["_buffer"] = (r, made)
        return made

    def shifted(self, lo_shift, hi_shift):
        """Window with per-axis bound shifts (germ regions for displaced clusters)."""
        lo = tuple(v + s for v, s in zip(self.lower, np.broadcast_to(lo_shift, (self.dim,))))
        hi = tuple(v + s for v, s in zip(self.upper, np.broadcast_to(hi_shift, (self.dim,))))
        return Window(lo, hi)

    def sample_uniform(self, n, rng):
        """n i.i.d. uniform points in the box, shape (n, dim)."""
        return self.lo + rng.random((int(n), self.dim)) * self.sides


def _as_points(points, dim=None):
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        if dim is None:
            raise ValueError("empty pattern needs an explicit dim")
        return np.empty((0, int(dim)), dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if dim in (None, 1) else pts[None, :]
    if pts.ndim != 2:
        raise ValueError("points must be an (n, dim) array")
    if dim is not None and pts.shape[1] != int(dim):
        raise ValueError(f"points have dim {pts.shape[1]}, expected {dim}")
    return pts


class PointPattern(_Frozen):
    """A finite point pattern: points shape (n, dim), optional scalar marks (n,)."""

    _fields = ("points", "marks", "dim")

    def __init__(self, points, marks=None, dim=None):
        pts = _as_points(points, dim)
        if marks is not None:
            marks = np.array(marks, dtype=float, order="C").reshape(-1)  # a copy
            if marks.shape[0] != pts.shape[0]:
                raise ValueError("marks length must match point count")
        self.__dict__.update(points=np.array(pts, order="C"), marks=marks, dim=pts.shape[1])

    @property
    def n(self):
        return self.points.shape[0]

    def __len__(self):
        return self.n

    # -- serialization ------------------------------------------------------

    def to_csv(self, path):
        """Write columns x1..xm (and mark) with deterministic float text.

        Each value is its shortest round-trip decimal (repr), with -0.0
        written as 0.0 so that files are stable; every line ends in a line
        feed. The text is encoded once and handed to os.write on a descriptor
        from os.open, with open()'s file mode and no file object, until every
        byte is written; the descriptor is closed on any error.
        """
        header, row = _csv_layout(self.dim, self.marks is not None)
        cols = self.points
        if self.marks is not None:
            cols = np.empty((self.n, self.dim + 1))
            cols[:, :-1], cols[:, -1] = self.points, self.marks
        # adding 0.0 turns -0.0 into 0.0 and leaves every other value alone
        data = memoryview((header + row * self.n % tuple((cols + 0.0).ravel().tolist())).encode())
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)  # open()'s "wb"
        fd = os.open(path, flags, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)

    @classmethod
    def from_csv(cls, path):
        import csv  # about 1 ms to import, which only reading a pattern back needs

        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            has_marks = header and header[-1] == "mark"
            dim = len(header) - (1 if has_marks else 0)
            pts, marks = [], []
            for row in reader:
                vals = [float(v) for v in row]
                pts.append(vals[:dim])
                if has_marks:
                    marks.append(vals[dim])
        return cls(
            np.asarray(pts, dtype=float).reshape(-1, dim),
            marks=np.asarray(marks) if has_marks else None,
            dim=dim,
        )


@functools.cache
def _csv_layout(dim, marks):
    """The header line and the row format (%r is repr) of a pattern's CSV."""
    names = [f"x{i + 1}" for i in range(dim)] + ["mark"] * marks
    return ",".join(names) + "\n", ",".join(["%r"] * len(names)) + "\n"


# -- replicate streams --------------------------------------------------------
#
# RngStream keys its Philox generator exactly as numpy's SeedSequence (pool
# size 4, numpy/random/bit_generator.pyx) keys it, in Python ints with uint32
# wrap-around: the constants below carry that file's names.

_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(n):
    """The little-endian 32-bit words of an integer n >= 0, as SeedSequence
    reads it ([0] for 0); a negative n raises ValueError."""
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _hashmix(value, h):
    """SeedSequence's hashmix of a word: the hashed word and the next hash constant."""
    nh = h * _MULT_A & _M32
    value = (value ^ h) * nh & _M32
    return value ^ value >> 16, nh


def _mix_in(pool, h, ints):
    """The 4-word pool and hash constant after mixing every 32-bit word of each
    integer into every pool word, as SeedSequence mixes the entropy words past
    its pool (the spawn key, and the run entropy beyond 128 bits)."""
    p0, p1, p2, p3 = pool
    for n in ints:
        for w in (n,) if 0 <= n <= _M32 else _words(n):
            # hashmix(w) then mix(p_i, .) into each pool word, unrolled: this
            # is the per-replicate cost of a generator
            a, h = h, h * _MULT_A & _M32
            v = (w ^ a) * h & _M32
            p0 = _MIX_MULT_L * p0 - _MIX_MULT_R * (v ^ v >> 16) & _M32
            p0 ^= p0 >> 16
            a, h = h, h * _MULT_A & _M32
            v = (w ^ a) * h & _M32
            p1 = _MIX_MULT_L * p1 - _MIX_MULT_R * (v ^ v >> 16) & _M32
            p1 ^= p1 >> 16
            a, h = h, h * _MULT_A & _M32
            v = (w ^ a) * h & _M32
            p2 = _MIX_MULT_L * p2 - _MIX_MULT_R * (v ^ v >> 16) & _M32
            p2 ^= p2 >> 16
            a, h = h, h * _MULT_A & _M32
            v = (w ^ a) * h & _M32
            p3 = _MIX_MULT_L * p3 - _MIX_MULT_R * (v ^ v >> 16) & _M32
            p3 ^= p3 >> 16
    return (p0, p1, p2, p3), h


@functools.lru_cache(maxsize=64)
def _seed_pool(seed):
    """The pool and hash constant of SeedSequence(entropy=seed, spawn_key=k)
    once its run entropy is hashed in, for any non-empty spawn key k: the
    entropy words, zero-padded to the pool size, hashed into the pool, mixed
    all to all, then the words past the pool mixed in. Cached per seed."""
    words = _words(seed)
    words += [0] * (4 - len(words))
    h = _INIT_A
    pool = []
    for w in words[:4]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                r = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * v) & _M32
                pool[dst] = r ^ r >> 16
    return _mix_in(pool, h, words[4:])


# generate_state's hash constant before each of its four output words, and after the last
_OUT_HASH = tuple(_INIT_B * pow(_MULT_B, k, 1 << 32) & _M32 for k in range(5))


def _philox_key(seed, spawn_key):
    """The Philox key of a stream: the two words of
    SeedSequence(entropy=seed, spawn_key=spawn_key).generate_state(2, np.uint64),
    as Python ints. spawn_key is a non-empty tuple of integers >= 0."""
    return _pool_key(_mix_in(*_seed_pool(seed), spawn_key)[0])


def _pool_key(pool):
    """The Philox key that SeedSequence's generate_state(2, np.uint64) makes of a pool."""
    p0, p1, p2, p3 = pool
    h0, h1, h2, h3, h4 = _OUT_HASH
    p0 = (p0 ^ h0) * h1 & _M32
    p1 = (p1 ^ h1) * h2 & _M32
    p2 = (p2 ^ h2) * h3 & _M32
    p3 = (p3 ^ h3) * h4 & _M32
    return p0 ^ p0 >> 16 | (p1 ^ p1 >> 16) << 32, p2 ^ p2 >> 16 | (p3 ^ p3 >> 16) << 32


_BLOCK_BITS = 8  # a key block holds the 2^8 = 256 stream ids that share id >> 8
_BLOCK_MASK = (1 << _BLOCK_BITS) - 1  # an id's row in its block


@functools.lru_cache(maxsize=64)
def _key_block(seed, block):
    """The Philox keys of the streams block * 256 to block * 256 + 255 of a
    seed, with no lineage, as a read-only (256, 2) uint64 array: _philox_key
    of each one-word spawn key, all 256 in one pass of numpy uint64
    arithmetic. Every product fits in 64 bits and & _M32 keeps the low word,
    as SeedSequence's uint32 arithmetic does, so the keys are the same bits.
    block is at most 2^24 - 1, whose last id is 2^32 - 1. At most 64 blocks of
    4,096 bytes of keys are cached (4,224 bytes an array with its header)."""
    pool, h = _seed_pool(seed)
    ids = np.arange(block << _BLOCK_BITS, block + 1 << _BLOCK_BITS, dtype=np.uint64)
    mixed = []
    for p in pool:  # _mix_in's hashmix and mix of one word, every id at once
        a, h = h, h * _MULT_A & _M32
        v = (ids ^ a) * h & _M32
        r = _MIX_MULT_L * p - _MIX_MULT_R * (v ^ v >> 16) & _M32
        mixed.append(r ^ r >> 16)
    keys = np.stack(_pool_key(mixed), axis=1)
    keys.setflags(write=False)  # a generator's seed object holds a row
    return keys


# Philox's first counter, which it copies; it reads an array faster than the int 0
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.setflags(write=False)


def _philox_seed(key):
    """The seed object that hands Philox `key`; unpickling rebuilds it here."""
    return _numpy_random()[2](key)


@functools.cache
def _numpy_random():
    """numpy.random's Generator and Philox, and the seed class of an RngStream's
    Philox, made on the first generator() call: importing numpy.random costs
    about 14 ms that an import or a build should not pay."""
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        """generate_state(2, np.uint64) returns the stream's key, so Philox
        neither builds a SeedSequence nor reads OS entropy. It cannot spawn:
        Generator.spawn raises TypeError."""

        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
                raise ValueError("a Philox key is generate_state(2, np.uint64)")
            return np.array(self.key, dtype=np.uint64)

        def __reduce__(self):
            return _philox_seed, (self.key,)

    return Generator, Philox, PhiloxKey


class RngStream(_Frozen):
    """Reproducible, splittable random stream keyed by (seed, stream_id).

    The stream's generator is, bit for bit, numpy's

        Generator(Philox(SeedSequence(seed, spawn_key=(stream_id, *lineage))))

    so any replicate's stream can be re-derived with numpy alone, and
    replicate r of a run can be redrawn in isolation. The Philox key is
    computed here, with SeedSequence's pool for each seed cached. A
    top-level stream (no lineage, stream_id at most 2^32 - 1) reads its key
    from _key_block, which computes the keys of 256 neighbouring ids in one
    numpy pass, each at a small part of what _philox_key's Python costs; a
    substream or a larger id goes through _philox_key. seed, stream_id and
    the lineage entries must be integers >= 0 (else generator() raises
    ValueError). The generator's seed object holds only the key, so
    rng.spawn() is not supported: substream(i) derives an independent child
    stream, used for per-germ or per-replicate randomness.
    """

    _fields = ("seed", "stream_id", "lineage")

    def __init__(self, seed, stream_id=0, lineage=()):
        if type(lineage) is not tuple or lineage:  # the default () needs no work
            lineage = tuple(int(v) for v in lineage)
        self.__dict__.update(seed=seed, stream_id=stream_id, lineage=lineage)

    def generator(self):
        generator, philox, seed = _numpy_random()
        stream_id = int(self.stream_id)
        if not self.lineage and 0 <= stream_id <= _M32:
            key = _key_block(int(self.seed), stream_id >> _BLOCK_BITS)[stream_id & _BLOCK_MASK]
        else:
            key = _philox_key(int(self.seed), (stream_id,) + self.lineage)
        return generator(philox(seed(key), counter=_ZERO_COUNTER))

    def substream(self, i):
        return RngStream(self.seed, self.stream_id, self.lineage + (int(i),))


def config_hash(config):
    """Stable short hash of a JSON-serializable config (meta provenance)."""
    import hashlib  # about 3 ms to import, which a build or a draw does not need

    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _jsonable(v):
    """v with numpy scalars and arrays replaced by plain JSON values, recursively."""
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (np.bool_, bool)):
        return bool(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, (np.floating, float)):
        return float(v)
    return v


def _make_output_dir(outdir):
    """Make the pathlib.Path outdir and its parents, as `sample -o` and
    `plotdata -o` do; a path that cannot be a directory is a ConfigError."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file at the path, say
        raise ConfigError(f"cannot make output directory {outdir}: {exc.strerror}") from None


# -- dominating process and thinning ---------------------------------------

MAX_MEAN_POINTS = 1e9  # largest mean count of any Poisson draw; more cannot fit in memory


def _mean_count(rate, volume):
    """The mean count rate * volume of a Poisson draw; a negative rate or a mean
    above MAX_MEAN_POINTS raises SamplerError, before anything is drawn."""
    if rate < 0:
        raise SamplerError("rate must be nonnegative")
    mean = rate * volume
    if not mean <= MAX_MEAN_POINTS:
        raise SamplerError(
            f"mean point count {mean:.3g} exceeds the limit {MAX_MEAN_POINTS:.0e}"
        )
    return mean


def sample_homogeneous(window, rate, rng):
    """Homogeneous Poisson(rate) restricted to the window, refused as _mean_count refuses."""
    return PointPattern(homogeneous_chains(window, rate, 1, rng)[0], dim=window.dim)


def chain_offsets(counts):
    """The offsets [0, c_0, c_0 + c_1, ...] of replicates with the given point counts."""
    if len(counts) == 1:  # a single draw's offsets, at a fifth of the cost
        return np.array((0, counts[0]), dtype=np.int64)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def order_by_label(values, labels):
    """The order np.lexsort((values, labels)) gives: by label, by value within
    a label, and ties in input order. A stable sort of the values, then a
    stable sort of the labels (nonnegative integers) in the narrowest unsigned
    type that holds them, which numpy radix-sorts at 16 bits or fewer."""
    order = np.argsort(values, kind="stable")
    if not order.size:
        return order
    labels = labels[order].astype(np.min_scalar_type(int(labels.max())), copy=False)
    return order[np.argsort(labels, kind="stable")]


def poisson_counts(mean, n_chains, rng):
    """n_chains independent Poisson counts from one call, of one mean or of a
    list of one mean per replicate. One replicate's count is a scalar call,
    which draws the variate of the size-1 call at less cost."""
    if n_chains == 1:
        return [rng.poisson(mean[0] if isinstance(mean, list) else mean)]
    return rng.poisson(mean, int(n_chains))


def homogeneous_chains(window, rate, n_chains, rng):
    """(points, offsets) of n_chains independent draws of sample_homogeneous:
    every replicate's count first, then all points in one call, so one
    replicate draws what sample_homogeneous draws."""
    offsets = chain_offsets(poisson_counts(_mean_count(rate, window.volume()), n_chains, rng))
    return window.sample_uniform(offsets[-1], rng), offsets


# the Poisson sampler's config builder, which cli.build calls, beside the draws it makes
def _build_poisson(p, window):
    rate = p.get("rate", float, check=_NONNEG)

    def sample(rng):
        return sample_homogeneous(window, rate, rng)

    def chains(n_reps, rng):
        return homogeneous_chains(window, rate, n_reps, rng)

    mean = rate * window.volume()
    return _built(sample, window, _count_checks(chains, mean=("poisson-mean-count", mean),
                                                per_rep=mean))


def thin(points, p, rng):
    """Independent p-thinning: the rows of `points` whose uniform u is below p.

    One uniform is drawn per row, in row order, so the generator advances as
    rng.random(len(points)) does. p is a scalar or one value per row and must
    lie in [0,1]; a relative slack of 1e-12 above 1 absorbs the rounding of a
    density divided by its bound.
    """
    u = rng.random(len(points))
    p = np.asarray(p, dtype=float)
    # one reduction each way (a NaN fails both); the initial 0.5 covers no rows
    if not (p.min(initial=0.5) >= 0.0 and p.max(initial=0.5) <= 1.0 + 1e-12):
        raise SamplerError("retention probabilities must lie in [0,1]")
    return points[u < p]


def kept_rows(keep, offsets):
    """The rows a boolean mask keeps, and the offsets of the kept rows of the
    replicates listed by offsets; no row needs a label. The rows are their
    indices, or for one replicate the mask itself: either indexes the rows."""
    if len(offsets) == 2:
        return keep, chain_offsets([np.count_nonzero(keep)])
    rows = np.flatnonzero(keep)
    return rows, np.searchsorted(rows, offsets)  # the kept rows before each replicate's first


def thin_chains(offsets, p, rng):
    """thin over the rows of every replicate listed by offsets, in row order:
    the indices of the kept rows, and their offsets."""
    rows = thin(np.arange(offsets[-1]), p, rng)
    return rows, np.searchsorted(rows, offsets)


PAIR_BLOCK = 1 << 18  # pairs compared at once by the range sweeps of the lockstep forms


def pair_blocks(width):
    """Slices of consecutive rows whose widths (pair counts) sum to at most
    PAIR_BLOCK, or of one row; all rows in one slice when they fit."""
    ends = np.cumsum(width)
    if len(ends) and ends[-1] <= PAIR_BLOCK:  # the usual case: one slice
        yield slice(0, len(ends))
        return
    first = 0
    while first < len(ends):
        done = ends[first - 1] if first else 0
        last = max(first + 1, int(ends.searchsorted(done + PAIR_BLOCK, side="right")))
        yield slice(first, last)
        first = last


# -- intensity measures -----------------------------------------------------


class LebesgueIntensity(_Frozen):
    """Constant multiple of Lebesgue measure, rate * dx on R^dim: the germ of
    cluster_exact.BrixKendallSampler, which reads its rate and dim."""

    _fields = ("rate", "dim")

    def __init__(self, rate, dim=1):
        if rate < 0:
            raise ConfigError("intensity rate must be nonnegative")
        self.__dict__.update(rate=rate, dim=dim)


class DensityIntensity(_Frozen):
    """Intensity on the line with a Lebesgue density and a declared sup bound,
    drawn by sample_on (poisson.FiniteDensitySampler's draw).

    The bound is a contract: sampling thins a homogeneous process at the
    bound, and any evaluation above it raises SamplerError. The density is
    called with a flat array of positions.
    """

    _fields = ("density", "bound")

    def __init__(self, density, bound):
        if not bound > 0:
            raise ConfigError("density bound must be positive")
        self.__dict__.update(density=density, bound=bound)

    def density_at(self, points):
        vals = np.asarray(self.density(_as_points(points, 1)[:, 0]), dtype=float)
        vals = np.atleast_1d(vals)
        if np.any(vals < 0):
            raise SamplerError("intensity density returned a negative value")
        if np.any(vals > self.bound * (1 + 1e-12)):
            raise SamplerError("intensity density exceeds its declared bound")
        return vals

    def sample_on(self, w, rng):
        """Exact draw: the homogeneous process at the bound, thinned by density/bound."""
        pts = sample_homogeneous(w, self.bound, rng).points
        if len(pts):
            pts = thin(pts, self.density_at(pts) / self.bound, rng)
        return PointPattern(pts, dim=w.dim)


# -- what every config builder uses ------------------------------------------
#
# Here, not in cli, since no sampler module may import cli: run as `python -m
# exactpp.cli`, cli is __main__, and importing exactpp.cli would compile it again.

# (test, phrase) checks of one value
_NONNEG = (lambda x: x >= 0, "must be nonnegative")
_POS = (lambda x: x > 0, "must be positive")
_AT_LEAST_1 = (lambda x: x >= 1, "must be at least 1")
_UNIT = (lambda x: 0 <= x <= 1, "must lie in [0, 1]")
_OPEN_UNIT = (lambda x: 0 < x < 1, "must lie strictly between 0 and 1")


def _finite(v):
    """float(v) for a finite JSON number, None for anything else (bools included).

    Python's json module reads NaN, Infinity and integers too large for a float.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        x = float(v)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _made(path, make, *args):
    """make(*args), whose refusal of several values together is prefixed with their
    object's dotted path; it keeps its exception type, and so its exit code."""
    try:
        return make(*args)
    except (ConfigError, SamplerError) as exc:
        raise type(exc)(f"'{path}': {exc}") from None


def _interval_report(name, value, expect, half):
    from .validation import TestReport

    err = abs(value - expect)
    return TestReport(
        name=name,
        statistic=err,
        threshold=half,
        alpha=0.0,
        decision="accept" if err <= half else "reject",
        details={"value": value, "expected": expect},
    )


def _count_checks(chains, mean=None, oracle=None, per_rep=0.0):
    """The count battery as a validate closure: the replicates' counts drawn
    by validation.replicate_counts, from the sampler's lockstep form
    chains(k, rng) in blocks of replicates that hold about per_rep points
    each; then a mean check of the counts for
    mean=(name, expected count), and a two-sample KS test of the counts for
    oracle=(name, oracle_chains). oracle_chains(k, rng) returns the
    (points, offsets) of k reference chains drawn in lockstep; the n_reps
    chains are drawn in the battery's blocks, one call after another on the
    one generator of the ORACLE substream, and only their counts are kept.
    Both sides' counts are np.diff(offsets). Any oracle set-up belongs inside
    oracle_chains, so it runs only when validation does."""

    def validate(stream, n_reps, collector):
        from .validation import ORACLE, battery_blocks, mean_ci, replicate_counts, two_sample_ks

        counts = replicate_counts(n_reps, stream, chains, per_rep=per_rep)
        if mean is not None:
            value, half = mean_ci(counts)
            collector.add(_interval_report(mean[0], value, mean[1], half))
        if oracle is not None:
            rng = stream.substream(ORACLE).generator()
            reference = [np.diff(oracle[1](k, rng)[1]) for k in battery_blocks(n_reps, per_rep)]
            collector.add(two_sample_ks(counts, np.concatenate(reference), name=oracle[0]))

    return validate


def _built(sample, window, validate, plots=("points-2d",), meta=None, **extra):
    """What build returns: every sampler also plots a counts histogram."""
    return {"sample": sample, "window": window, "validate": validate,
            "plots": {"counts-histogram", *plots}, "meta": meta or {}, **extra}
