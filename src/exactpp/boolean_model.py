"""Boolean models: germ-grain processes sampled without edge effects.

A Boolean model restricted to a box W is exactly its grains that hit W, and
the (germ, grain) pairs that hit W form a Poisson process of finite mass,
drawn directly with no truncation. For disk grains, the germs whose disk of
radius r hits W are uniform on W + B(r), of Steiner area A + P r + pi r^2
(A the area and P the perimeter of W); so the kept pairs number
Poisson(rate (A + P E R + pi E R^2)), each radius comes from the law
reweighted by that polynomial, and each germ is uniform on its dilated
window (Chiu, Stoyan, Kendall & Mecke 2013, Stochastic Geometry and its
Applications, sec. 3.1; Lantuejoul 2002, Geostatistical Simulation). Segment
grains have bounded reach: draw every germ of the reach-buffered window with
its grain and keep the pairs whose segment hits. Poisson lines are rays from
germ points, kept by the arcsin rule against a disk target; a kept ray's
direction is uniform on the arc of directions that meet the disk, drawn in
closed form. Draws return numpy arrays only.

Each draw has a lockstep form, boolean_exact_chains and poisson_lines_chains,
that draws n independent replicates from one generator and returns their
sample with every replicate's grains listed in turn, and the offsets of each
replicate's rows; the single draws are these forms at n = 1.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (_NONNEG, _POS, ConfigError, PointPattern, _built, _count_checks, _Frozen,
                   _interval_report, _made, _mean_count, chain_offsets, homogeneous_chains,
                   kept_rows, pair_blocks, poisson_counts, thin_chains)

__all__ = [
    "DiskWindow",
    "FixedRadius",
    "UniformRadius",
    "ExpRadius",
    "DiskGrains",
    "SegmentGrains",
    "BooleanSample",
    "boolean_exact_sample",
    "boolean_exact_chains",
    "hit_prob_poisson_line",
    "LineSample",
    "sample_poisson_lines",
    "poisson_lines_chains",
    "box_distance",
    "segment_hits_box",
]


class DiskWindow(_Frozen):
    """Circular window: closed disk of given radius about a center."""

    _fields = ("center", "radius")

    def __init__(self, center, radius):
        c = tuple(float(v) for v in np.atleast_1d(center))
        if len(c) != 2:
            raise ConfigError("disk window lives in the plane")
        if not radius > 0:
            raise ConfigError("disk radius must be positive")
        # the centre also as an array, made once
        self.__dict__.update(center=c, radius=radius, _center=np.array(c))


def box_distance(points, window):
    """Euclidean distance from each row of an (n, dim) array to the closed box (0 inside)."""
    gap = np.maximum(np.maximum(window.lo - points, points - window.hi), 0.0)
    return np.sqrt(np.add.reduce(gap * gap, axis=1))


# -- radius laws --------------------------------------------------------------
#
# Each law gives its moments E R^k and draws from itself reweighted by r^k,
# the law of the radius of a kept disk given the Steiner term k it came from.


class FixedRadius(_Frozen):
    _fields = ("value",)

    def __init__(self, value):
        if not value > 0:
            raise ConfigError("radius must be positive")
        self.__dict__["value"] = value

    def sample(self, n, rng):
        return np.full(int(n), float(self.value))

    def moment(self, k):
        return float(self.value) ** k

    def sample_biased(self, k, n, rng):
        """n radii from the law reweighted by r^k: the value, no random number drawn."""
        return self.sample(n, rng)


class UniformRadius(_Frozen):
    _fields = ("lo", "hi")

    def __init__(self, lo, hi):
        if not 0 <= lo < hi:
            raise ConfigError("need 0 <= lo < hi")
        self.__dict__.update(lo=lo, hi=hi)

    def sample(self, n, rng):
        return self.lo + rng.random(int(n)) * (self.hi - self.lo)

    def moment(self, k):
        return (self.hi ** (k + 1) - self.lo ** (k + 1)) / ((k + 1) * (self.hi - self.lo))

    def sample_biased(self, k, n, rng):
        """n radii with density proportional to r^k on [lo, hi], by inverse CDF."""
        a, b = self.lo ** (k + 1), self.hi ** (k + 1)
        return (a + rng.random(int(n)) * (b - a)) ** (1.0 / (k + 1))


class ExpRadius(_Frozen):
    """Exponential radius law: unbounded support, drawn with no truncation."""

    _fields = ("rate",)

    def __init__(self, rate):
        if not rate > 0:
            raise ConfigError("rate must be positive")
        self.__dict__["rate"] = rate

    def sample(self, n, rng):
        return rng.exponential(1.0 / self.rate, int(n))

    def moment(self, k):
        return math.factorial(k) / self.rate**k

    def sample_biased(self, k, n, rng):
        """n radii from the exponential law reweighted by r^k: Gamma(k + 1, 1/rate)."""
        return rng.gamma(k + 1, 1.0 / self.rate, int(n))


# -- grain distributions -------------------------------------------------------


class DiskGrains(_Frozen):
    """I.i.d. disk grains, drawn exactly on a 2-D box by the Steiner formula.

    The kept (germ, radius) pairs are Poisson with intensity
    rate * 1{dist(x, W) <= r} dx F(dr), of mass rate (A + P E R + pi E R^2).
    Each pair picks a Steiner term k in {0, 1, 2} with weights
    (A, P E R, pi E R^2), a radius from F reweighted by r^k, and a germ
    uniform on W + B(r) by rejection from the box W buffered by r
    (acceptance at least pi/4). No radius law needs a truncation. A negative
    rate or a mean count above core.MAX_MEAN_POINTS raises SamplerError
    before anything is drawn. The Steiner weights are computed once per
    radius law and window, at the first draw.
    """

    _fields = ("radius_law",)

    def __init__(self, radius_law):
        self.__dict__["radius_law"] = radius_law

    def draw(self, rate, window, n_chains, rng):
        """The kept pairs of n_chains replicates on a 2-D box window, as arrays
        {"germs": (n, 2), "radii": (n,)}, and each replicate's offsets. Every
        replicate's pair count is drawn first, then every step for all pairs."""
        _need_plane(window, "disk grains need a 2-D window")
        law = self.radius_law
        partial, total = _steiner(law, window)
        offsets = chain_offsets(poisson_counts(_mean_count(rate, total), n_chains, rng))
        n = int(offsets[-1])
        terms = np.searchsorted(partial, rng.random(n) * total, side="right")
        radii = np.empty(n)
        for k in range(3):
            at = terms == k
            radii[at] = law.sample_biased(k, np.count_nonzero(at), rng)

        germs = np.empty((n, 2))
        todo = np.arange(n)
        while todo.size:
            r = radii[todo]
            cand = window.lo - r[:, None] + rng.random((todo.size, 2)) * (
                window.sides + 2.0 * r[:, None])
            ok = box_distance(cand, window) <= r
            germs[todo[ok]] = cand[ok]
            todo = todo[~ok]
        return {"germs": germs, "radii": radii}, offsets


@functools.lru_cache(maxsize=16)
def _steiner(law, window):
    """Partial sums and total of the Steiner weights (A, P E R, pi E R^2) on a 2-D box."""
    w0, w1 = window.volume(), 2.0 * float(np.sum(window.sides)) * law.moment(1)
    return (w0, w0 + w1), w0 + w1 + math.pi * law.moment(2)


class SegmentGrains(_Frozen):
    """Segments of fixed length centered at the germ, uniform orientation."""

    _fields = ("length",)

    def __init__(self, length):
        if not length > 0:
            raise ConfigError("segment length must be positive")
        self.__dict__["length"] = length

    def endpoints(self, x, theta):
        """End points of the segments at germs x (..., 2) with angles theta (...)."""
        h = np.empty(np.shape(theta) + (2,))
        h[..., 0], h[..., 1] = np.cos(theta), np.sin(theta)
        h *= 0.5 * self.length
        return x - h, x + h

    def draw(self, rate, window, n_chains, rng):
        """The kept pairs of n_chains replicates on a 2-D box window, as arrays
        {"germs": (n, 2), and the segments' end points "p0" and "p1": (n, 2)},
        and each replicate's offsets. Every germ within reach draws its
        segment, and the pairs whose segment meets the window are kept."""
        _need_plane(window, "segment grains need a 2-D window")
        cand, offsets = homogeneous_chains(window.buffered(0.5 * self.length), rate, n_chains, rng)
        p0, p1 = self.endpoints(cand, rng.random(len(cand)) * np.pi)
        keep, offsets = kept_rows(segment_hits_box(p0, p1, window), offsets)
        return {"germs": cand[keep], "p0": p0[keep], "p1": p1[keep]}, offsets


def _need_plane(window, message):
    if window.dim != 2:
        raise ConfigError(message)


def segment_hits_box(p0, p1, window):
    """Exact segment vs closed box predicate (slab clipping).

    p0 and p1 are end points of shape (dim,) or (..., dim); the result is a
    bool, or a boolean array over the leading axes.
    """
    p0 = np.asarray(p0, dtype=float)
    d = p1 - p0
    lo, hi = window.lo, window.hi
    flat = np.abs(d) < 1e-300  # parallel to the slab: inside it or never
    outside = (flat & ((p0 < lo) | (p0 > hi))).any(axis=-1)
    step = np.where(flat, 1.0, d)
    ta = (lo - p0) / step
    tb = (hi - p0) / step
    # the slabs' entry and exit parameters, over the axes the segment crosses
    t0 = np.maximum(np.where(flat, 0.0, np.minimum(ta, tb)).max(axis=-1), 0.0)
    t1 = np.minimum(np.where(flat, 1.0, np.maximum(ta, tb)).min(axis=-1), 1.0)
    hit = ~outside & (t0 <= t1)
    return bool(hit) if hit.ndim == 0 else hit


# -- Boolean sampler -----------------------------------------------------------


class BooleanSample(_Frozen):
    """The grains that hit the window, as arrays; their union restricted to
    the window is an exact draw.

    germs is (n, 2). Disk grains set radii (n,), segment grains the end
    points p0 and p1 (n, 2); the other fields stay None.
    """

    _fields = ("germs", "window", "radii", "p0", "p1")

    def __init__(self, germs, window, radii=None, p0=None, p1=None):
        self.__dict__.update(germs=germs, window=window, radii=radii, p0=p0, p1=p1)

    def coverage(self, points, offsets=None):
        """Boolean mask: probe point lies in the union of the disk grains
        (none for segment grains, which cover no area). With the offsets of
        replicates listed in turn, one row per replicate: (n_chains, n_probes).

        Each grain is compared with the probes within its radius along the
        first coordinate (a relative slack of 1e-9 covers rounding), at most
        core.BLOCK pairs at once, and the distances decide.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n_chains = 1 if offsets is None else len(offsets) - 1
        covered = np.zeros((n_chains, pts.shape[0]), dtype=bool)
        if self.radii is not None and len(self.germs):
            order = pts[:, 0].argsort(kind="stable")
            xs, ys = pts[order, 0], pts[order, 1]
            gx, gy = self.germs[:, 0], self.germs[:, 1]
            reach = self.radii * (1.0 + 1e-9)
            first = xs.searchsorted(gx - reach)
            width = xs.searchsorted(gx + reach, side="right") - first
            chain = (np.zeros(len(gx), dtype=np.int64) if offsets is None
                     else np.arange(n_chains).repeat(np.diff(offsets)))
            for rows in pair_blocks(width):
                w = width[rows]
                ends = w.cumsum()
                probe = np.arange(ends[-1]) + (first[rows] - ends + w).repeat(w)
                dx = xs[probe] - gx[rows].repeat(w)
                dy = ys[probe] - gy[rows].repeat(w)
                hit = dx * dx + dy * dy <= (self.radii[rows] * self.radii[rows]).repeat(w)
                covered[chain[rows].repeat(w)[hit], order[probe[hit]]] = True
        return covered if offsets is not None else covered[0]


def boolean_exact_sample(rate, grains, window, rng):
    """Exact Boolean-model draw on a 2-D box window: the grains that hit it.
    One replicate of boolean_exact_chains."""
    return boolean_exact_chains(rate, grains, window, 1, rng)[0]


def boolean_exact_chains(rate, grains, window, n_chains, rng):
    """(sample, offsets) of n_chains independent boolean_exact_sample draws,
    in lockstep: the sample holds every replicate's grains in turn."""
    fields, offsets = grains.draw(rate, window, n_chains, rng)
    return BooleanSample(window=window, **fields), offsets


# -- Poisson lines through germ points ----------------------------------------


def hit_prob_poisson_line(xs, radius):
    """Arcsin retention rule for a ray from x in a uniform direction against
    a disk of given radius at the origin: 1 inside the disk, else
    (1/pi) * arcsin(radius / ||x||), the fraction of directions whose ray
    meets the disk.
    """
    d = np.sqrt(np.add.reduce(xs * xs, axis=1))  # np.linalg.norm's sum, without its wrapping
    return np.where(d >= radius, np.arcsin(radius / np.maximum(d, radius)) / np.pi, 1.0)


class LineSample(_Frozen):
    """Retained germ points (n, 2) with their ray directions (n,) in [0, 2 pi)."""

    _fields = ("germs", "angles", "target")

    def __init__(self, germs, angles, target):
        self.__dict__.update(germs=germs, angles=angles, target=target)


def sample_poisson_lines(rate, target, germ_region, rng):
    """Rays from Poisson germs retained by the arcsin rule; one replicate of
    poisson_lines_chains.

    The retained mass over the whole plane diverges (the rule decays like
    1/||x||), so a bounded 2-D germ region is part of the model; germs are
    Poisson(rate) on it, retained with hit_prob_poisson_line, and retained
    germs get a uniform direction conditioned on the ray meeting the disk,
    drawn in closed form: uniform on the arc of half-width arcsin(R/rho)
    about the direction to the centre for a germ at distance rho > R, and
    uniform on [0, 2 pi) for a germ inside the disk. A germ region of
    another dimension raises ConfigError.
    """
    return poisson_lines_chains(rate, target, germ_region, 1, rng)[0]


def poisson_lines_chains(rate, target, germ_region, n_chains, rng):
    """(sample, offsets) of n_chains independent sample_poisson_lines draws, in
    lockstep: every replicate's germs, then all coins, then all directions."""
    _need_plane(germ_region, "poisson lines need a 2-D germ region")
    center = target._center
    cand, offsets = homogeneous_chains(germ_region, rate, n_chains, rng)
    cand = cand - center  # target-centered frame
    keep, offsets = thin_chains(offsets, hit_prob_poisson_line(cand, target.radius), rng)
    x = cand[keep]
    return LineSample(x + center, _line_angles(x, target.radius, rng), target), offsets


def _line_angles(x, radius, rng):
    """Uniform ray directions in [0, 2 pi) from centre-relative germs x,
    conditioned on the ray meeting the disk of the given radius."""
    u = rng.random(x.shape[0])
    rho = np.hypot(x[:, 0], x[:, 1])
    far = rho > radius
    half = np.arcsin(radius / np.where(far, rho, radius))
    toward = np.arctan2(-x[:, 1], -x[:, 0])
    return np.where(far, np.mod(toward + (2.0 * u - 1.0) * half, 2.0 * np.pi), 2.0 * np.pi * u)


# -- config builders, which cli.build calls -----------------------------------


def _build_boolean_disks(p, window):
    rate = p.get("rate", float, check=_NONNEG)
    kind, r = p.tagged("radius", "kind", {"fixed": ("value",), "uniform": ("lo", "hi"),
                                          "exp": ("rate",)})
    if kind == "fixed":
        law = FixedRadius(r.get("value", float, check=_POS))
    elif kind == "uniform":
        law = _made(r.path, UniformRadius, r.get("lo", float, check=_NONNEG), r.get("hi", float))
    else:
        law = ExpRadius(r.get("rate", float, check=_POS))
    grains = DiskGrains(law)

    def draw(rng):
        return boolean_exact_sample(rate, grains, window, rng)

    def sample(rng):
        bs = draw(rng)
        return PointPattern(bs.germs, marks=bs.radii, dim=window.dim)

    def chains(n_reps, rng):
        return boolean_exact_chains(rate, grains, window, n_reps, rng)

    per_rep = rate * _steiner(law, window)[1]  # the kept pairs' mean count

    def validate(stream, n_reps, collector):
        from .validation import PROBES, mean_ci, replicate_counts

        probes = window.sample_uniform(400, stream.substream(PROBES).generator())
        mean, half = mean_ci(replicate_counts(
            n_reps, stream, chains=chains, per_rep=per_rep,
            reduce=lambda drawn, offsets: drawn.coverage(probes, offsets).mean(axis=1)))
        expect = 1.0 - math.exp(-rate * math.pi * law.moment(2))
        collector.add(_interval_report("boolean-coverage", mean, expect, half))

    return _built(sample, window, validate, ("points-2d", "coverage-raster"), boolean_draw=draw)


def _build_boolean_segments(p, window):
    rate = p.get("rate", float, check=_NONNEG)
    grains = SegmentGrains(p.get("length", float, check=_POS))

    def draw(rng):
        return boolean_exact_sample(rate, grains, window, rng)

    def sample(rng):
        return PointPattern(draw(rng).germs, dim=window.dim)

    def chains(n_reps, rng):
        drawn, offsets = boolean_exact_chains(rate, grains, window, n_reps, rng)
        return drawn.germs, offsets

    # mean area of the germs whose segment meets the box: A + L P / pi
    perimeter = 2.0 * float(np.sum(window.sides))
    expect = rate * (window.volume() + grains.length * perimeter / math.pi)
    validate = _count_checks(chains, mean=("segment-germ-count", expect),
                             per_rep=rate * window.buffered(0.5 * grains.length).volume())
    return _built(sample, window, validate, boolean_draw=draw)


def _build_poisson_lines(p, window):
    rate = p.get("rate", float, check=_NONNEG)
    center = p.floats("target_center", 2)
    radius = p.get("target_radius", float, check=_POS)
    region = p.window("germ_region", 2)
    target = DiskWindow(center, radius)

    def sample(rng):
        ls = sample_poisson_lines(rate, target, region, rng)
        return PointPattern(ls.germs, marks=ls.angles, dim=2)

    def chains(n_reps, rng):
        drawn, offsets = poisson_lines_chains(rate, target, region, n_reps, rng)
        return drawn.germs, offsets

    def validate(stream, n_reps, collector):
        from .validation import PROBES, mean_ci, replicate_counts

        mean, half = mean_ci(replicate_counts(n_reps, stream, chains=chains,
                                              per_rep=rate * region.volume()))
        probes = region.sample_uniform(20_000, stream.substream(PROBES).generator())
        p = hit_prob_poisson_line(probes - np.asarray(center), radius)
        expect = rate * region.volume() * float(np.mean(p))
        mc_half = 3.0 * rate * region.volume() * float(np.std(p)) / math.sqrt(p.size)
        collector.add(_interval_report("line-germ-count", mean, expect, half + mc_half))

    return _built(sample, region, validate)
