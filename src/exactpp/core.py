"""Shared geometry, point-pattern, RNG, and intensity-measure types, and the
two steps every exact sampler is built from.

Everything here has value semantics: windows and RNG streams are frozen,
point patterns copy their arrays on construction, and samplers receive an
RngStream rather than a live generator so that a (seed, stream_id) pair
pins down the output bit-for-bit.

sample_homogeneous draws the dominating homogeneous Poisson process on a box
and thin is the one coin step: one uniform per row, kept iff it is below the
row's retention probability (Lewis & Shedler 1979). Every sampler that thins
a dominating process goes through these two routines.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigError",
    "SamplerError",
    "Window",
    "sample_homogeneous",
    "thin",
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


def _bounds(v):
    """A window bound as a tuple of floats; plain scalars, tuples and lists skip numpy."""
    if isinstance(v, (int, float)):
        return (float(v),)
    return tuple(map(float, v if isinstance(v, (tuple, list)) else np.atleast_1d(v)))


@dataclass(frozen=True)
class Window:
    """Axis-aligned box [lower_1, upper_1] x ... x [lower_m, upper_m].

    Bounds are strict: lower < upper on every axis, so the window always has
    positive volume.  The side lengths (a read-only array `sides`), the volume
    and the bound arrays are computed once, when the window is made; equality
    and hashing use lower and upper only.  The window also keeps the last
    window `buffered` made from it.
    """

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo, hi = _bounds(self.lower), _bounds(self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise ConfigError("window lower/upper dimension mismatch")
        if len(lo) == 0:
            raise ConfigError("window needs at least one axis")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ConfigError("window requires lower < upper on every axis")
        sides = [b - a for a, b in zip(lo, hi)]
        object.__setattr__(self, "_volume", math.prod(sides))
        rows = np.array((sides, lo, hi))
        rows.setflags(write=False)  # its rows are views, read-only too
        for name, row in zip(("sides", "_lo", "_hi"), rows):
            object.__setattr__(self, name, row)
        object.__setattr__(self, "_buffer", (None, None))

    @property
    def dim(self):
        return len(self.lower)

    def volume(self):
        return self._volume

    def contains(self, points):
        """Boolean mask of rows of `points` inside the closed box."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return ((pts >= self._lo) & (pts <= self._hi)).all(axis=1)

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
        object.__setattr__(self, "_buffer", (r, made))
        return made

    def shifted(self, lo_shift, hi_shift):
        """Window with per-axis bound shifts (germ regions for displaced clusters)."""
        lo = tuple(v + s for v, s in zip(self.lower, np.broadcast_to(lo_shift, (self.dim,))))
        hi = tuple(v + s for v, s in zip(self.upper, np.broadcast_to(hi_shift, (self.dim,))))
        return Window(lo, hi)

    def sample_uniform(self, n, rng):
        """n i.i.d. uniform points in the box, shape (n, dim)."""
        return self._lo + rng.random((int(n), self.dim)) * self.sides


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


@dataclass(frozen=True)
class PointPattern:
    """A finite point pattern: points shape (n, dim), optional scalar marks (n,)."""

    points: np.ndarray
    marks: np.ndarray = None
    dim: int = None

    def __post_init__(self):
        pts = _as_points(self.points, self.dim)
        object.__setattr__(self, "points", np.ascontiguousarray(pts))
        object.__setattr__(self, "dim", pts.shape[1])
        if self.marks is not None:
            m = np.ascontiguousarray(np.asarray(self.marks, dtype=float).reshape(-1))
            if m.shape[0] != pts.shape[0]:
                raise ValueError("marks length must match point count")
            object.__setattr__(self, "marks", m)

    @classmethod
    def empty(cls, dim):
        return cls(np.empty((0, int(dim))), dim=int(dim))

    @property
    def n(self):
        return self.points.shape[0]

    def __len__(self):
        return self.n

    def restrict(self, w):
        """Sub-pattern inside the window (marks carried along)."""
        if self.n == 0:
            return self
        keep = w.contains(self.points)
        marks = self.marks[keep] if self.marks is not None else None
        return PointPattern(self.points[keep], marks=marks, dim=self.dim)

    # -- serialization ------------------------------------------------------

    def to_csv(self, path):
        """Write columns x1..xm (and mark) with deterministic float text.

        Each value is its shortest round-trip decimal (repr), with -0.0
        written as 0.0 so that files are stable; every line ends in a line
        feed. The text is encoded once and written in one binary write.
        """
        header = [f"x{i + 1}" for i in range(self.dim)]
        cols = self.points
        if self.marks is not None:
            header.append("mark")
            cols = np.column_stack([cols, self.marks])
        row = ",".join(["%r"] * len(header)) + "\n"  # %r is repr
        # adding 0.0 turns -0.0 into 0.0 and leaves every other value alone
        body = (row * len(cols)) % tuple((cols + 0.0).ravel().tolist())
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n" + body).encode())

    @classmethod
    def from_csv(cls, path):
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


@dataclass(frozen=True)
class RngStream:
    """Reproducible, splittable random stream keyed by (seed, stream_id).

    Identical (seed, stream_id, lineage) always yields an identical generator
    (counter-based Philox under a SeedSequence), so replicate r of a run can
    be redrawn in isolation. substream(i) derives an independent child used
    for per-germ or per-replicate randomness.
    """

    seed: int
    stream_id: int = 0
    lineage: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "lineage", tuple(int(v) for v in self.lineage))

    def generator(self):
        key = np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.stream_id),) + self.lineage
        )
        return np.random.Generator(np.random.Philox(key))

    def substream(self, i):
        return RngStream(self.seed, self.stream_id, self.lineage + (int(i),))


def config_hash(config):
    """Stable short hash of a JSON-serializable config (meta provenance)."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


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
    n = rng.poisson(_mean_count(rate, window.volume()))
    return PointPattern(window.sample_uniform(n, rng), dim=window.dim)


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


# -- intensity measures -----------------------------------------------------


@dataclass(frozen=True)
class LebesgueIntensity:
    """Constant multiple of Lebesgue measure: rate * dx on R^dim."""

    rate: float
    dim: int = 1

    def __post_init__(self):
        if self.rate < 0:
            raise ConfigError("intensity rate must be nonnegative")

    def bound_on(self, w):
        return self.rate

    def density_at(self, points):
        pts = _as_points(points, self.dim)
        return np.full(pts.shape[0], float(self.rate))


@dataclass(frozen=True)
class DensityIntensity:
    """Intensity with a Lebesgue density and a declared sup bound.

    The bound is a contract: sampling thins a homogeneous process at the
    bound, and any evaluation above it raises SamplerError.
    """

    density: object
    bound: float
    dim: int = 1

    def __post_init__(self):
        if not self.bound > 0:
            raise ConfigError("density bound must be positive")

    def density_at(self, points):
        pts = _as_points(points, self.dim)
        vals = np.asarray(self.density(pts if self.dim > 1 else pts[:, 0]), dtype=float)
        vals = np.atleast_1d(vals)
        if np.any(vals < 0):
            raise SamplerError("intensity density returned a negative value")
        if np.any(vals > self.bound * (1 + 1e-12)):
            raise SamplerError("intensity density exceeds its declared bound")
        return vals

    def total_on(self, w):
        """Tensor trapezoid estimate of the mass on a 2-D window, on a 65 x 65 grid."""
        if w.dim != 2:
            raise NotImplementedError("trapezoid quadrature is only for 2-D windows")
        k = 65
        xs = np.linspace(w.lower[0], w.upper[0], k)
        ys = np.linspace(w.lower[1], w.upper[1], k)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        vals = self.density_at(np.column_stack([gx.ravel(), gy.ravel()]))
        vals = vals.reshape(k, k)
        return float(np.trapezoid(np.trapezoid(vals, ys, axis=1), xs))

    def bound_on(self, w):
        return self.bound

    def sample_on(self, w, rng):
        """Exact draw: the homogeneous process at the bound, thinned by density/bound."""
        pts = sample_homogeneous(w, self.bound, rng).points
        if len(pts):
            pts = thin(pts, self.density_at(pts) / self.bound, rng)
        return PointPattern(pts, dim=w.dim)
