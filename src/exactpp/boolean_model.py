"""Boolean models: germ-grain processes sampled without edge effects.

Germs whose grain can reach the window are kept with probability
p(x) = P((S + x) hits W) and receive a grain conditioned on hitting; germs
beyond reach contribute nothing. Disk grains expose p(x) in closed form
(tail of the radius law at the distance to the window); segment grains have
no closed form, so retention and conditioning collapse into one exact step:
draw the grain and keep the pair iff it hits. Poisson lines through germ
points use the arcsin retention rule on a disk target.
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


# -- grain distributions -------------------------------------------------------


@dataclass(frozen=True)
class DiskGrains:
    """I.i.d. disk grains; hit probability is the radius tail at the distance."""

    radius_law: object

    hit_prob_kind = "closed_form"

    @property
    def reach(self):
        return self.radius_law.upper

    def hit_prob(self, xs, window):
        return self.radius_law.tail(box_distance(xs, window))

    def sample_conditioned(self, x, window, rng):
        """Radius conditioned on the disk hitting the window (rejection)."""
        d = float(box_distance(np.asarray(x)[None, :], window)[0])
        p = float(self.radius_law.tail(d))
        if p <= 0:
            raise SamplerError("germ cannot reach the window")
        cap = int(np.ceil(60.0 / p))
        for _ in range(cap):
            r = float(self.radius_law.sample(1, rng)[0])
            if r >= d:
                return {"type": "disk", "center": list(map(float, x)), "radius": r}
        raise SamplerError(f"grain conditioning failed after {cap} attempts")


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
        h = 0.5 * self.length * np.array([np.cos(theta), np.sin(theta)])
        x = np.asarray(x, dtype=float)
        return x - h, x + h

    def hit_prob(self, xs, window, n_angle=4096):
        """(1/pi) * measure of orientations whose segment meets the window."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        thetas = (np.arange(n_angle) + 0.5) * np.pi / n_angle
        out = np.empty(xs.shape[0])
        for i, x in enumerate(xs):
            hits = 0
            for theta in thetas:
                p0, p1 = self.endpoints(x, theta)
                hits += segment_hits_box(p0, p1, window)
            out[i] = hits / n_angle
        return out

    def sample_grain(self, x, rng):
        theta = rng.random() * np.pi
        p0, p1 = self.endpoints(x, theta)
        return {
            "type": "segment",
            "center": list(map(float, x)),
            "angle": float(theta),
            "p0": p0.tolist(),
            "p1": p1.tolist(),
        }


def segment_hits_box(p0, p1, window):
    """Exact segment vs closed box predicate (slab clipping)."""
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
        covered = np.zeros(pts.shape[0], dtype=bool)
        for g in self.grains:
            if g["type"] == "disk":
                c = np.asarray(g["center"])
                d2 = np.sum((pts - c) ** 2, axis=1)
                covered |= d2 <= g["radius"] ** 2
        return covered

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

    kept_germs = []
    kept_grains = []
    if grains.hit_prob_kind == "closed_form":
        p = grains.hit_prob(cand, window) if n else np.zeros(0)
        keep = rng.random(n) < p
        for x in cand[keep]:
            kept_germs.append(x)
            kept_grains.append(grains.sample_conditioned(x, window, rng))
    else:
        for x in cand:
            grain = grains.sample_grain(x, rng)
            if grain["type"] == "segment" and segment_hits_box(grain["p0"], grain["p1"], window):
                kept_germs.append(x)
                kept_grains.append(grain)
    germs = np.asarray(kept_germs, dtype=float).reshape(-1, window.dim)
    return BooleanSample(germs, tuple(kept_grains), window)


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


def _line_hits_disk(x, theta, disk):
    u = np.array([np.cos(theta), np.sin(theta)])
    c = np.asarray(disk.center) - np.asarray(x)
    return abs(u[0] * c[1] - u[1] * c[0]) <= disk.radius


def _chord(x, theta, disk):
    u = np.array([np.cos(theta), np.sin(theta)])
    c = np.asarray(disk.center)
    x = np.asarray(x, dtype=float)
    t0 = float((c - x) @ u)
    h2 = disk.radius**2 - float(np.sum((x + t0 * u - c) ** 2))
    h = np.sqrt(max(h2, 0.0))
    return ((x + (t0 - h) * u).tolist(), (x + (t0 + h) * u).tolist())


def sample_poisson_lines(rate, target, germ_region, rng):
    """Lines through Poisson germs retained by the arcsin rule.

    The retained mass over the whole plane diverges (the rule decays like
    1/||x||), so a bounded germ region is part of the model; germs are
    Poisson(rate) on it, retained with hit_prob_poisson_line, and retained
    germs get an orientation conditioned on meeting the disk (rejection over
    the uniform angle).
    """
    n = rng.poisson(rate * germ_region.volume())
    cand = germ_region.sample_uniform(n, rng)
    cand = cand - np.asarray(target.center)  # work in target-centered frame
    p = hit_prob_poisson_line(cand, target.radius) if n else np.zeros(0)
    keep = rng.random(n) < p

    germs, angles, chords = [], [], []
    for x in cand[keep]:
        for _ in range(100_000):
            theta = rng.random() * np.pi
            if _line_hits_disk(x, theta, DiskWindow((0.0, 0.0), target.radius)):
                break
        else:
            raise SamplerError("line conditioning failed")
        germs.append(x + np.asarray(target.center))
        angles.append(theta)
        chords.append(_chord(x + np.asarray(target.center), theta, target))
    return LineSample(
        np.asarray(germs, dtype=float).reshape(-1, 2),
        np.asarray(angles, dtype=float),
        tuple(chords),
        target,
    )
