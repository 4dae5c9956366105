"""Finite-density Poisson sampling on the half-line.

The sampler certifies a truncation point for the density's tail and then
thins a homogeneous process under the density's bound with core.thin
(DensityIntensity.sample_on), so its draws are exact on [0, upper]; the
tail beyond upper, at most TAIL_TOL of the mass, is dropped. The homogeneous
draw itself is core.sample_homogeneous.
"""

from __future__ import annotations

import numpy as np

from .core import DensityIntensity, SamplerError, Window

__all__ = [
    "TAIL_TOL",
    "FiniteDensitySampler",
]

TAIL_TOL = 1e-12  # largest share of the mass a certified truncation may drop


class FiniteDensitySampler:
    """Poisson process on [0, inf) with integrable density r(t) <= bound.

    Each draw thins a rate-`bound` homogeneous process on [0, upper] by
    r(t)/bound; a density value above the bound or below zero raises
    SamplerError when it is met. The truncation point must carry a certified
    tail: either `tail_mass(t)` is supplied and `upper` is grown until the
    tail is below TAIL_TOL of the total mass, or `upper` is taken as the
    exact support endpoint.

    total_mass is the mass as given; with a tail_mass and no given mass it is
    tail_mass(0.0), the tail beyond 0. With only `upper` and no given mass it
    stays None: the mass is at most bound * upper, finite, and nothing needs
    it. The truncation point is certified once so replicate loops can reuse
    the sampler.
    """

    def __init__(
        self,
        density,
        bound,
        upper=None,
        total_mass=None,
        tail_mass=None,
    ):
        if upper is None and tail_mass is None:
            raise SamplerError("need a support endpoint or a computable tail mass")
        if total_mass is None and tail_mass is not None:
            total_mass = tail_mass(0.0)
        if total_mass is not None:
            total_mass = float(total_mass)
            if not np.isfinite(total_mass):
                raise SamplerError("density mass diverges: exact sampling impossible")
            if total_mass < 0:
                raise SamplerError("density mass must be nonnegative")
        self.total_mass = total_mass

        if upper is None:
            upper = 1.0
            while tail_mass(upper) > TAIL_TOL * max(total_mass, 1e-300):
                upper *= 2.0
                if upper > 1e12:
                    raise SamplerError("tail mass does not reach the truncation tolerance")
        self.upper = float(upper)
        self._intensity = DensityIntensity(density, bound)
        self._support = Window((0.0,), (self.upper,))

    def sample(self, rng):
        return self._intensity.sample_on(self._support, rng)
