"""Generation-truncated branching sampler with a total-variation certificate.

A spatial branching process starts from a Poisson germ (generation 0) and
lets every point spawn an independent Poisson(progeny mass) brood of
displaced children.  Keeping generations 0..n and dropping the rest leaves a
law whose distance from the full process, restricted to a bounded window, is
controlled by the expected number of dropped points there:

    bound = gamma * rho^n,   gamma = rate0 * volume(W) / (1 - rho),

with rho the per-point progeny mass.  When the displacement has a bounded
Euclidean reach R, every possible ancestor of a window point within n
generations lives in the window buffered by n*R, so simulating the germ on
that buffer makes the truncated restriction exact - the certificate covers
only the dropped generations, never the geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PointPattern, SamplerError, _mean_count, sample_homogeneous

__all__ = [
    "TruncationCertificate",
    "approx_branching_sample",
    "certificate_generations_for",
]

POINT_CAP = 5_000_000


@dataclass(frozen=True)
class TruncationCertificate:
    """Certified bound on what dropping generations beyond n can cost.

    gamma is the window's expected total population per unit of progeny
    slack; bound = gamma * rho^n dominates the expected number of missing
    points in the window (the dropped generations carry mass
    gamma * rho^(n+1) <= bound), hence the total-variation error.
    """

    n: int
    gamma: float
    bound: float

    def to_dict(self):
        return {"n": self.n, "gamma": self.gamma, "bound": self.bound}


def _certificate(rate0, rho, vol_w, n):
    if rho >= 1:
        raise SamplerError(
            "truncation certificate requires subcritical progeny (mass < 1)"
        )
    gamma = rate0 * vol_w / (1.0 - rho)
    return TruncationCertificate(n=int(n), gamma=float(gamma), bound=float(gamma * rho**n))


def certificate_generations_for(eps, rate0, progeny_mass, vol_w):
    """Smallest generation count whose certificate bound is at most eps."""
    if eps <= 0:
        raise SamplerError("eps must be positive")
    if progeny_mass < 0:
        raise SamplerError("progeny mass must be nonnegative")
    if progeny_mass == 0:
        return 0
    gamma = _certificate(rate0, progeny_mass, vol_w, 0).gamma
    if eps >= gamma:
        return 0
    ratio = (math.log(eps) - math.log(gamma)) / math.log(progeny_mass)
    return max(int(math.ceil(ratio - 1e-12)), 0)


_last_check = ((None,) * 4, None)  # the arguments and result of the last _checked call


def _checked(rate0, progeny, window, n):
    """The progeny mass, the certificate and the germ region of a draw of
    generations 0..n, after every refusal that comes before its first random
    number: n < 0, an unbounded displacement, rho >= 1, and a germ region whose
    mean count exceeds MAX_MEAN_POINTS. A call with the very (frozen) objects
    of the last call returns its result: one built sampler checks once."""
    global _last_check
    if all(a is b for a, b in zip(_last_check[0], (rate0, progeny, window, n))):
        return _last_check[1]
    if n < 0:
        raise SamplerError("generation count must be nonnegative")
    radius = getattr(progeny.displacement, "support_radius", None)
    if radius is None or not np.isfinite(radius):
        raise SamplerError("buffer radius undefined; use exact sampler")
    rho = float(progeny.total_mean)
    cert = _certificate(rate0, rho, window.volume(), n)
    region = window.buffered(n * float(radius))
    _mean_count(rate0, region.volume())
    _last_check = (rate0, progeny, window, n), (rho, cert, region)
    return rho, cert, region


def approx_branching_sample(rate0, progeny, window, n, rng, point_cap=POINT_CAP):
    """Generations 0..n of the branching process restricted to the window.

    progeny supplies the per-point brood: total_mean (the progeny mass rho)
    and a displacement with a finite Euclidean support_radius.  The germ is
    drawn on the n*R-buffered window, so the returned restriction is exactly
    distributed; the certificate bounds only the dropped generations. Draws
    with the objects of the last call reuse its checks, certificate and buffer.
    """
    rho, cert, region = _checked(rate0, progeny, window, n)
    current = sample_homogeneous(region, rate0, rng).points
    kept = [current]
    total = current.shape[0]
    for _ in range(int(n)):
        if current.shape[0] == 0:
            break
        counts = rng.poisson(rho, size=current.shape[0])
        brood = int(counts.sum())
        total += brood
        if total > point_cap:
            raise SamplerError(
                f"branching population exceeded {point_cap} points before "
                f"generation {n}; lower n or the germ rate"
            )
        if brood == 0:
            current = np.empty((0, window.dim))
            continue
        parents = np.repeat(current, counts, axis=0)
        current = parents + progeny.displacement.sample(brood, rng)
        kept.append(current)
    pts = np.concatenate(kept, axis=0)
    return PointPattern(pts[window.contains(pts)], dim=window.dim), cert
