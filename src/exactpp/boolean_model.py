"""Boolean models: germ-grain processes sampled without edge effects.

Germs whose grain can reach the window are kept with probability
p(x) = P((S + x) hits W) and receive a grain conditioned on hitting; germs
beyond reach contribute nothing. Disk grains expose p(x) in closed form
(tail of the radius law at the distance d to the window), and the radius
conditioned on R >= d is drawn in closed form, with no rejection: the law's
value when fixed, U[max(lo, d), hi] when uniform, d + Exp(rate) when
exponential (Lantuejoul 2002, Geostatistical Simulation, ch. 14). Segment
grains have no closed form, so retention and conditioning collapse into one
exact step: draw every grain and keep the pairs whose segment hits. Poisson
lines through germ points use the arcsin retention rule on a disk target;
a retained line's direction is uniform on the arc of directions that meet
the disk, again drawn in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, PointPattern, SamplerError, Window

__all__ = [
    "DiskWindow",
    "FixedRadius",
    "UniformRadius",
    "ExpRadius",
    "DiskGrains",
    "SegmentGrains",
    "BooleanSample",
    "boolean_exact_sample",
    "hit_prob_poisson_line",
    "LineSample",
    "sample_poisson_lines",
    "box_distance",
    "segment_hits_box",
]

TAIL_CERT = 1e-12
_BLOCK = 1 << 16  # (probe, angle) pairs per block of SegmentGrains.hit_prob


@dataclass(frozen=True)
class DiskWindow:
    """Circular window: closed disk of given radius about a center."""

    center: tuple
    radius: float

    def __post_init__(self):
        c = tuple(float(v) for v in np.atleast_1d(self.center))
        object.__setattr__(self, "center", c)
        if len(c) != 2:
            raise ConfigError("disk window lives in the plane")
        if not self.radius > 0:
            raise ConfigError("disk radius must be positive")

    @property
    def dim(self):
        return 2

    def volume(self):
        return float(np.pi * self.radius**2)

    def contains(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d2 = np.sum((pts - np.asarray(self.center)) ** 2, axis=1)
        return d2 <= self.radius**2

    def bounding_box(self):
        c = np.asarray(self.center)
        return Window(tuple(c - self.radius), tuple(c + self.radius))

    def sample_uniform(self, n, rng):
        """Uniform points in the disk by rejection from the bounding box."""
        box = self.bounding_box()
        out = np.empty((int(n), 2))
        filled = 0
        while filled < n:
            cand = box.sample_uniform(max(int(1.5 * (n - filled)) + 8, 8), rng)
            keep = cand[self.contains(cand)]
            take = min(keep.shape[0], n - filled)
            out[filled : filled + take] = keep[:take]
            filled += take
        return out


def box_distance(points, window):
    """Euclidean distance from each point to the closed box (0 inside)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo = np.asarray(window.lower)
    hi = np.asarray(window.upper)
    gap = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    return np.sqrt(np.sum(gap**2, axis=1))


# -- radius laws --------------------------------------------------------------


@dataclass(frozen=True)
class FixedRadius:
    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise ConfigError("radius must be positive")

    upper = property(lambda self: self.value)

    def sample(self, n, rng):
        return np.full(int(n), float(self.value))

    def tail(self, r):
        return np.where(np.asarray(r, dtype=float) <= self.value, 1.0, 0.0)

    def sample_at_least(self, d, rng):
        """Radii conditioned on R >= d (d <= value): the value, no random number drawn."""
        return np.full(np.shape(d), float(self.value))


@dataclass(frozen=True)
class UniformRadius:
    lo: float
    hi: float

    def __post_init__(self):
        if not 0 <= self.lo < self.hi:
            raise ConfigError("need 0 <= lo < hi")

    upper = property(lambda self: self.hi)

    def sample(self, n, rng):
        return self.lo + rng.random(int(n)) * (self.hi - self.lo)

    def tail(self, r):
        r = np.asarray(r, dtype=float)
        return np.clip((self.hi - r) / (self.hi - self.lo), 0.0, 1.0)

    def sample_at_least(self, d, rng):
        """Radii conditioned on R >= d (d < hi): uniform on [max(lo, d), hi]."""
        start = np.maximum(self.lo, np.asarray(d, dtype=float))
        return start + rng.random(start.shape) * (self.hi - start)


@dataclass(frozen=True)
class ExpRadius:
    """Exponential radius law; unbounded support, so germs need truncation."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ConfigError("rate must be positive")

    upper = property(lambda self: np.inf)

    def sample(self, n, rng):
        return rng.exponential(1.0 / self.rate, int(n))

    def tail(self, r):
        return np.exp(-self.rate * np.clip(np.asarray(r, dtype=float), 0.0, None))

    def sample_at_least(self, d, rng):
        """Radii conditioned on R >= d >= 0: d + Exp(rate), by memorylessness."""
        d = np.asarray(d, dtype=float)
        return d + rng.exponential(1.0 / self.rate, d.shape)


# -- grain distributions -------------------------------------------------------


@dataclass(frozen=True)
class DiskGrains:
    """I.i.d. disk grains; hit probability is the radius tail at the distance.

    A kept germ at distance d from the window gets its radius from the
    radius law conditioned on R >= d, drawn in closed form by the law's
    sample_at_least (no rejection).
    """

    radius_law: object

    hit_prob_kind = "closed_form"

    @property
    def reach(self):
        return self.radius_law.upper

    def hit_prob(self, xs, window):
        return self.radius_law.tail(box_distance(xs, window))

    def sample_conditioned(self, x, window, rng):
        """Grain at germ x conditioned on the disk hitting the window."""
        d = box_distance(np.asarray(x, dtype=float)[None, :], window)
        if not float(self.radius_law.tail(d[0])) > 0:
            raise SamplerError("germ cannot reach the window")
        r = float(self.radius_law.sample_at_least(d, rng)[0])
        return {"type": "disk", "center": list(map(float, x)), "radius": r}


@dataclass(frozen=True)
class SegmentGrains:
    """Segments of fixed length centered at the germ, uniform orientation.

    hit_prob is numeric (angle quadrature); the sampler never calls it —
    retention and conditioning are realized jointly by drawing the grain and
    keeping the (germ, grain) pair iff the segment meets the window, which
    has the same law as thin-then-condition.
    """

    length: float

    hit_prob_kind = "numeric"

    def __post_init__(self):
        if not self.length > 0:
            raise ConfigError("segment length must be positive")

    @property
    def reach(self):
        return self.length / 2.0

    def endpoints(self, x, theta):
        """End points of the segments at germs x (..., 2) with angles theta (...)."""
        theta = np.asarray(theta, dtype=float)
        h = 0.5 * self.length * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        x = np.asarray(x, dtype=float)
        return x - h, x + h

    def hit_prob(self, xs, window, n_angle=4096):
        """(1/pi) * measure of orientations whose segment meets the window."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        thetas = (np.arange(n_angle) + 0.5) * np.pi / n_angle
        out = np.empty(xs.shape[0])
        rows = max(1, _BLOCK // n_angle)
        for i in range(0, xs.shape[0], rows):
            p0, p1 = self.endpoints(xs[i : i + rows, None, :], thetas)
            out[i : i + rows] = np.count_nonzero(segment_hits_box(p0, p1, window), axis=1)
        return out / n_angle


def segment_hits_box(p0, p1, window):
    """Exact segment vs closed box predicate (slab clipping).

    p0 and p1 are end points of shape (dim,) or (..., dim); the result is a
    bool, or a boolean array over the leading axes.
    """
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(p1, dtype=float) - p0
    t0 = np.zeros(p0.shape[:-1])
    t1 = np.ones(p0.shape[:-1])
    hit = np.ones(p0.shape[:-1], dtype=bool)
    for ax in range(p0.shape[-1]):
        lo, hi = window.lower[ax], window.upper[ax]
        x, dx = p0[..., ax], d[..., ax]
        flat = np.abs(dx) < 1e-300  # parallel to the slab: inside it or never
        hit &= ~(flat & ((x < lo) | (x > hi)))
        step = np.where(flat, 1.0, dx)
        ta = (lo - x) / step
        tb = (hi - x) / step
        t0 = np.where(flat, t0, np.maximum(t0, np.minimum(ta, tb)))
        t1 = np.where(flat, t1, np.minimum(t1, np.maximum(ta, tb)))
    hit &= t0 <= t1
    return bool(hit) if hit.ndim == 0 else hit


# -- Boolean sampler -----------------------------------------------------------


@dataclass(frozen=True)
class BooleanSample:
    """Grains whose union restricted to the window is an exact draw."""

    germs: np.ndarray
    grains: tuple
    window: object

    def coverage(self, points):
        """Boolean mask: probe point lies in the grain union (disk grains)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        disks = [g for g in self.grains if g["type"] == "disk"]
        if not disks:
            return np.zeros(pts.shape[0], dtype=bool)
        centers = np.asarray([g["center"] for g in disks], dtype=float)
        radii = np.asarray([g["radius"] for g in disks], dtype=float)
        d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        return np.any(d2 <= radii**2, axis=1)

    def germ_pattern(self):
        dim = self.window.dim
        return PointPattern(self.germs.reshape(-1, dim), dim=dim)


def _disk_truncation_mass(rate, radius_law, window, r0):
    """Retention mass of germs beyond distance r0 from a 2-D box window."""
    from scipy import integrate

    perimeter = 2.0 * float(np.sum(window.sides))
    mass, _ = integrate.quad(
        lambda u: float(radius_law.tail(u)) * (perimeter + 2.0 * np.pi * u),
        r0,
        np.inf,
        limit=200,
    )
    return rate * mass


def boolean_exact_sample(rate, grains, window, rng, truncation_radius=None):
    """Exact Boolean-model draw on a box window.

    Germs are Poisson(rate) on the window buffered by the grain reach; with
    unbounded reach a truncation radius is required and its neglected
    retention mass is certified below 1e-12 from the radius tail.
    """
    reach = grains.reach
    if np.isinf(reach):
        if truncation_radius is None:
            raise SamplerError("unbounded grains need a truncation radius")
        if not isinstance(grains, DiskGrains):
            raise SamplerError("truncation certification implemented for disk grains")
        neglected = _disk_truncation_mass(rate, grains.radius_law, window, truncation_radius)
        if not neglected < TAIL_CERT:
            raise SamplerError(
                f"neglected retention mass {neglected:.3e} beyond radius "
                f"{truncation_radius} exceeds {TAIL_CERT:.0e}"
            )
        reach = truncation_radius
    region = window.buffered(float(reach))
    n = rng.poisson(rate * region.volume())
    cand = region.sample_uniform(n, rng)

    if grains.hit_prob_kind == "closed_form":
        p = grains.hit_prob(cand, window) if n else np.zeros(0)
        germs = cand[rng.random(n) < p]
        radii = grains.radius_law.sample_at_least(box_distance(germs, window), rng)
        kept = [
            {"type": "disk", "center": c, "radius": r}
            for c, r in zip(germs.tolist(), radii.tolist())
        ]
    else:
        thetas = rng.random(n) * np.pi
        p0, p1 = grains.endpoints(cand, thetas)
        keep = segment_hits_box(p0, p1, window)
        germs = cand[keep]
        kept = [
            {"type": "segment", "center": c, "angle": t, "p0": a, "p1": b}
            for c, t, a, b in zip(
                germs.tolist(), thetas[keep].tolist(), p0[keep].tolist(), p1[keep].tolist()
            )
        ]
    return BooleanSample(germs.reshape(-1, window.dim), tuple(kept), window)


# -- Poisson lines through germ points ----------------------------------------


def hit_prob_poisson_line(xs, radius):
    """Arcsin retention rule for a uniformly-oriented line through x against
    a disk of given radius at the origin: 1 inside the disk, else
    (1/pi) * arcsin(radius / ||x||).

    Note: the geometric hit fraction of an undirected uniform line is twice
    this value (a line through a boundary point always meets the closed
    disk); the rule is kept as the model's defining retention and validated
    against its own quadrature.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    d = np.linalg.norm(xs, axis=1)
    p = np.ones(d.shape[0])
    far = d >= radius
    p[far] = np.arcsin(radius / d[far]) / np.pi
    return p


@dataclass(frozen=True)
class LineSample:
    """Retained germ points with their line directions and disk chords."""

    germs: np.ndarray
    angles: np.ndarray
    chords: tuple
    target: DiskWindow


def sample_poisson_lines(rate, target, germ_region, rng):
    """Lines through Poisson germs retained by the arcsin rule.

    The retained mass over the whole plane diverges (the rule decays like
    1/||x||), so a bounded germ region is part of the model; germs are
    Poisson(rate) on it, retained with hit_prob_poisson_line, and retained
    germs get a uniform orientation conditioned on meeting the disk, drawn
    in closed form: uniform on the arc of half-width arcsin(R/rho) about the
    direction to the centre for a germ at distance rho > R, and uniform on
    [0, pi) for a germ inside the disk.
    """
    n = rng.poisson(rate * germ_region.volume())
    cand = germ_region.sample_uniform(n, rng)
    center = np.asarray(target.center)
    cand = cand - center  # work in target-centered frame
    p = hit_prob_poisson_line(cand, target.radius) if n else np.zeros(0)
    x = cand[rng.random(n) < p]
    angles = _line_angles(x, target.radius, rng)

    germs = x + center
    u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    t0 = np.sum((center - germs) * u, axis=1)
    h2 = target.radius**2 - np.sum((germs + t0[:, None] * u - center) ** 2, axis=1)
    h = np.sqrt(np.maximum(h2, 0.0))
    ends0 = germs + (t0 - h)[:, None] * u
    ends1 = germs + (t0 + h)[:, None] * u
    return LineSample(germs, angles, tuple(zip(ends0.tolist(), ends1.tolist())), target)


def _line_angles(x, radius, rng):
    """Uniform line directions in [0, pi) through centre-relative germs x,
    conditioned on the line meeting the disk of the given radius."""
    u = rng.random(x.shape[0])
    rho = np.hypot(x[:, 0], x[:, 1])
    far = rho > radius
    half = np.arcsin(radius / np.where(far, rho, radius))
    toward = np.arctan2(-x[:, 1], -x[:, 0])
    return np.where(far, np.mod(toward + (2.0 * u - 1.0) * half, np.pi), np.pi * u)
