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
    "cluster_intensity",
    "branching_total_intensity",
    "config_hash",
]


class ConfigError(ValueError):
    """A configuration violates the schema or a declared precondition."""


class SamplerError(RuntimeError):
    """A sampler cannot produce an exact draw under the given configuration."""


@dataclass(frozen=True)
class Window:
    """Axis-aligned box [lower_1, upper_1] x ... x [lower_m, upper_m].

    Bounds are strict: lower < upper on every axis, so the window always has
    positive volume.
    """

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lower))
        hi = tuple(float(v) for v in np.atleast_1d(self.upper))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise ConfigError("window lower/upper dimension mismatch")
        if len(lo) == 0:
            raise ConfigError("window needs at least one axis")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ConfigError("window requires lower < upper on every axis")

    @property
    def dim(self):
        return len(self.lower)

    @property
    def sides(self):
        return np.asarray(self.upper) - np.asarray(self.lower)

    def volume(self):
        return float(np.prod(self.sides))

    def contains(self, points):
        """Boolean mask of rows of `points` inside the closed box."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def buffered(self, r):
        """Window inflated by r >= 0 on every side (Minkowski sum with a box)."""
        if r < 0:
            raise ConfigError("buffer radius must be nonnegative")
        lo = tuple(v - r for v in self.lower)
        hi = tuple(v + r for v in self.upper)
        return Window(lo, hi)

    def shifted(self, lo_shift, hi_shift):
        """Window with per-axis bound shifts (germ regions for displaced clusters)."""
        lo = tuple(v + s for v, s in zip(self.lower, np.broadcast_to(lo_shift, (self.dim,))))
        hi = tuple(v + s for v, s in zip(self.upper, np.broadcast_to(hi_shift, (self.dim,))))
        return Window(lo, hi)

    def sample_uniform(self, n, rng):
        """n i.i.d. uniform points in the box, shape (n, dim)."""
        lo = np.asarray(self.lower)
        return lo + rng.random((int(n), self.dim)) * self.sides


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
    def empty(cls, dim, with_marks=False):
        marks = np.empty(0) if with_marks else None
        return cls(np.empty((0, int(dim))), marks=marks, dim=int(dim))

    @property
    def n(self):
        return self.points.shape[0]

    def __len__(self):
        return self.n

    def count_in(self, w):
        return int(np.count_nonzero(w.contains(self.points))) if self.n else 0

    def restrict(self, w):
        """Sub-pattern inside the window (marks carried along)."""
        if self.n == 0:
            return self
        keep = w.contains(self.points)
        marks = self.marks[keep] if self.marks is not None else None
        return PointPattern(self.points[keep], marks=marks, dim=self.dim)

    def superpose(self, other):
        if other.dim != self.dim:
            raise ValueError("cannot superpose patterns of different dim")
        pts = np.vstack([self.points, other.points])
        marks = None
        if self.marks is not None or other.marks is not None:
            a = self.marks if self.marks is not None else np.zeros(self.n)
            b = other.marks if other.marks is not None else np.zeros(other.n)
            marks = np.concatenate([a, b])
        return PointPattern(pts, marks=marks, dim=self.dim)

    def sorted(self):
        """Pattern with rows sorted lexicographically (canonical file order)."""
        if self.n == 0:
            return self
        order = np.lexsort(self.points.T[::-1])
        marks = self.marks[order] if self.marks is not None else None
        return PointPattern(self.points[order], marks=marks, dim=self.dim)

    # -- serialization ------------------------------------------------------

    def to_csv(self, path):
        """Write columns x1..xm (and mark) with deterministic float text.

        Each value is its shortest round-trip decimal (repr), with -0.0
        written as 0.0 so that files are stable.
        """
        header = [f"x{i + 1}" for i in range(self.dim)]
        cols = self.points
        if self.marks is not None:
            header.append("mark")
            cols = np.column_stack([cols, self.marks])
        # adding 0.0 turns -0.0 into 0.0 and leaves every other value alone
        rows = [",".join(map(repr, row)) for row in (cols + 0.0).tolist()]
        with open(path, "w", newline="") as fh:
            fh.write("\n".join([",".join(header)] + rows) + "\n")

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

    def to_json(self, path, meta=None):
        """Write {dim, points, marks, meta}; meta records seed/stream/sampler."""
        payload = {
            "dim": self.dim,
            "points": [[float(v) for v in row] for row in self.points],
            "marks": [float(v) for v in self.marks] if self.marks is not None else None,
            "meta": dict(meta) if meta else {},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            payload = json.load(fh)
        pts = np.asarray(payload["points"], dtype=float).reshape(-1, payload["dim"])
        marks = payload.get("marks")
        pattern = cls(
            pts,
            marks=np.asarray(marks, dtype=float) if marks is not None else None,
            dim=payload["dim"],
        )
        return pattern, payload.get("meta", {})


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

MAX_MEAN_POINTS = 1e9  # largest mean count sample_homogeneous draws; more cannot fit in memory


def sample_homogeneous(window, rate, rng):
    """Homogeneous Poisson(rate) restricted to the window.

    A mean count rate * volume above MAX_MEAN_POINTS raises SamplerError
    before anything is drawn.
    """
    if rate < 0:
        raise SamplerError("rate must be nonnegative")
    mean = rate * window.volume()
    if not mean <= MAX_MEAN_POINTS:
        raise SamplerError(
            f"mean point count {mean:.3g} exceeds the limit {MAX_MEAN_POINTS:.0e}"
        )
    n = rng.poisson(mean)
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

    def total_on(self, w, n_grid=4096):
        """Tensor trapezoid estimate of the mass on a window (1-D and 2-D)."""
        if w.dim == 1:
            xs = np.linspace(w.lower[0], w.upper[0], n_grid)
            return float(np.trapezoid(self.density_at(xs[:, None]), xs))
        if w.dim == 2:
            k = int(np.sqrt(n_grid)) + 1
            xs = np.linspace(w.lower[0], w.upper[0], k)
            ys = np.linspace(w.lower[1], w.upper[1], k)
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            vals = self.density_at(np.column_stack([gx.ravel(), gy.ravel()]))
            vals = vals.reshape(k, k)
            return float(np.trapezoid(np.trapezoid(vals, ys, axis=1), xs))
        raise NotImplementedError("quadrature beyond dim 2 not supported")

    def bound_on(self, w):
        return self.bound

    def sample_on(self, w, rng):
        """Exact draw: the homogeneous process at the bound, thinned by density/bound."""
        pts = sample_homogeneous(w, self.bound, rng).points
        if len(pts):
            pts = thin(pts, self.density_at(pts) / self.bound, rng)
        return PointPattern(pts, dim=w.dim)


# -- intensity calculus -----------------------------------------------------


def cluster_intensity(germ, window, kernel_mass=None, mean_cluster_size=None, n_grid=20001):
    """Mean count of a cluster process on a window.

    The mean measure is nu(C) = integral of K(y, C - y) over the germ measure,
    where K(y, .) is the mean measure of the cluster attached at y. With a
    Lebesgue germ and a translation-invariant cluster this collapses to
    rate * mean_cluster_size * volume(C); otherwise supply kernel_mass(y, w)
    (vectorized over germ positions y) and the germ is integrated by
    trapezoid quadrature over its effective support (1-D germs).
    """
    if mean_cluster_size is not None:
        if not isinstance(germ, LebesgueIntensity):
            raise ConfigError("mean_cluster_size shortcut needs a Lebesgue germ")
        return germ.rate * float(mean_cluster_size) * window.volume()
    if kernel_mass is None:
        raise ConfigError("need kernel_mass or mean_cluster_size")
    if window.dim != 1:
        raise NotImplementedError("kernel quadrature implemented for 1-D germs")
    # integrate K(y, W - y) * germ density over a generously buffered region
    span = window.sides[0]
    region = window.buffered(10.0 * span)
    ys = np.linspace(region.lower[0], region.upper[0], n_grid)
    kmass = np.asarray(kernel_mass(ys, window), dtype=float)
    dens = germ.density_at(ys[:, None])
    return float(np.trapezoid(kmass * dens, ys))


def branching_total_intensity(rate0, progeny_mass, generation=None):
    """Intensity of a branching cluster process with ancestor rate rate0.

    progeny_mass is the mean number of direct offspring |nu_alpha| < 1.
    Returns rate0 / (1 - progeny_mass); with generation=n, the intensity
    rate0 * progeny_mass**n of generation n alone.
    """
    m = float(progeny_mass)
    if m < 0:
        raise ConfigError("progeny mass must be nonnegative")
    if generation is not None:
        return float(rate0) * m ** int(generation)
    if m >= 1:
        raise SamplerError("supercritical progeny: total intensity diverges")
    return float(rate0) / (1.0 - m)
