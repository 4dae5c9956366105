"""Command-line interface: exact sampling runs driven by JSON configs.

Subcommands:
  sample   -c CONFIG -o DIR   write one CSV pattern per replicate plus meta.json
                              (and a validation report when the config enables it)
  validate -c CONFIG          run the sampler's statistical battery (Holm-joint)
  plotdata -c CONFIG --kind K [-o DIR]  emit plot-ready CSV for the given kind

Exit codes: 0 success, 1 validation rejection, 2 config schema error,
3 sampler error.  Replicate r always uses the stream (seed, stream_id=r), so
outputs are byte-identical across reruns and independent of EXACTPP_WORKERS.

Configs are read by one reader, _Obj, and each sampler's registry entry
declares its params keys and its window dimension. Every config error about a
single value (an unknown, missing or mistyped key, or a value out of its
range) names the value's dotted path and exits 2. Conditions on several
values together or on the model are the samplers' own checks, made when a
sampler is built or run; a refusal of several values of one config object
(lo < hi, mark weights that sum to one) names that object's dotted path and
keeps the sampler's exit code. Model-level impossibilities (supercritical
kernels, unbounded buffers, point counts too large to draw) exit 3.

Only core is imported with this module, and argparse only when main() runs.
Each builder imports its sampler's module when it builds, and each validation
imports validation and each oracle imports oracles when it runs; so a run
loads only the modules of the sampler its config names (validation and
oracles only when validation runs), a build or a sample run with validation
off loads no validation, and concurrent.futures is loaded only when
EXACTPP_WORKERS > 1.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    LebesgueIntensity,
    PointPattern,
    RngStream,
    SamplerError,
    Window,
    _jsonable,
    config_hash,
    homogeneous_chains,
    sample_homogeneous,
)

SCHEMA_VERSION = 1


# -- config reader -------------------------------------------------------------------

_MISSING = object()
_KINDS = {int: "an integer", bool: "true or false", str: "a string", list: "a list",
          dict: "an object"}

# (test, phrase) checks for one value
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


class _Obj:
    """A config object at a dotted path, with only the given keys (any keys for None).

    Every value it refuses raises ConfigError naming the value's dotted path.
    """

    def __init__(self, value, path, keys=None):
        self.value, self.path = value, path
        if not isinstance(value, dict):
            raise ConfigError(f"'{path}' must be an object")
        unknown = sorted(set(value) - set(keys)) if keys is not None else []
        if unknown:
            raise ConfigError(f"unknown key '{self._at(unknown[0])}'")

    def _at(self, key):
        return f"{self.path}.{key}" if self.path else key

    def get(self, key, kind, default=_MISSING, check=None):
        """The value at key, of the given kind (float: any finite number); a
        check (test, phrase) refuses a value that fails the test."""
        if key not in self.value:
            if default is _MISSING:
                raise ConfigError(f"missing key '{self._at(key)}'")
            return default
        v = self.value[key]
        if kind is float:
            v = _finite(v)
            if v is None:
                raise ConfigError(f"'{self._at(key)}' must be a finite number")
        elif not isinstance(v, kind) or (kind is int and isinstance(v, bool)):
            raise ConfigError(f"'{self._at(key)}' must be {_KINDS[kind]}")
        if check is not None and not check[0](v):
            raise ConfigError(f"'{self._at(key)}' {check[1]}")
        return v

    def floats(self, key, n=None, check=None):
        """A list of finite numbers as a tuple, of length n if given; check applies to each."""
        out = tuple(map(_finite, self.get(key, list)))
        if None in out:
            raise ConfigError(f"'{self._at(key)}' must be a list of finite numbers")
        if n is not None and len(out) != n:
            raise ConfigError(f"'{self._at(key)}' must have {n} entries")
        if check is not None and not all(map(check[0], out)):
            raise ConfigError(f"'{self._at(key)}' entries {check[1]}")
        return out

    def obj(self, key, keys, default=_MISSING):
        return _Obj(self.get(key, dict, default), self._at(key), keys)

    def variant(self, tag, variants):
        """(tag, this object) for the tag naming one of variants, a dict from
        each tag to the keys that variant takes besides the tag."""
        name = self.get(tag, str)
        if name not in variants:
            raise ConfigError(f"'{self._at(tag)}' must be one of: {', '.join(variants)}")
        return name, _Obj(self.value, self.path, {tag, *variants[name]})

    def tagged(self, key, tag, variants):
        """The object at key as variant() reads it."""
        return self.obj(key, None).variant(tag, variants)

    def window(self, key, dim):
        """The box at key, of dimension dim (any dimension for None). A string
        dim says where a sampler without a window draws: the key must be absent,
        and the result is None."""
        if isinstance(dim, str):
            if key in self.value:
                raise ConfigError(f"unknown key '{self._at(key)}' (this sampler {dim})")
            return None
        w = self.obj(key, ("lower", "upper"))
        return _made(w.path, Window, w.floats("lower", dim), w.floats("upper", dim))


def _made(path, make, *args):
    """make(*args), whose refusal of several values together is prefixed with their
    object's dotted path; it keeps its exception type, and so its exit code."""
    try:
        return make(*args)
    except (ConfigError, SamplerError) as exc:
        raise type(exc)(f"'{path}': {exc}") from None


def _fertility(p):
    from .hawkes_mr import ExponentialFertility, PiecewiseConstantFertility, PolynomialFertility

    family, k = p.tagged("kernel", "family", {
        "exponential": ("beta", "gamma", "marks"),
        "polynomial": ("coeffs", "support", "marks"),
        "table": ("breaks", "values", "marks"),
    })
    marks = k.get("marks", list, [[1.0, 1.0]])
    if not all(isinstance(m, list) and len(m) == 2 and None not in map(_finite, m)
               for m in marks):
        raise ConfigError(
            f"'{k.path}.marks' must be a list of [weight, value] pairs of finite numbers"
        )
    marks = tuple((float(w), float(z)) for w, z in marks)
    if family == "exponential":
        beta, gamma = k.get("beta", float, check=_NONNEG), k.get("gamma", float, check=_POS)
        return _made(k.path, ExponentialFertility, beta, gamma, marks)
    if family == "polynomial":
        return _made(k.path, PolynomialFertility, k.floats("coeffs"),
                     k.get("support", float, check=_POS), marks)
    return _made(k.path, PiecewiseConstantFertility, k.floats("breaks"), k.floats("values"), marks)


def _displacement(p):
    from .cluster_exact import UniformDisplacement

    d = p.obj("displacement", ("lo", "hi"))
    return _made(d.path, UniformDisplacement, d.floats("lo"), d.floats("hi"))


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


# -- sampler registry ----------------------------------------------------------------
#
# Each builder takes the params reader and the window (None for a sampler without one).


def _build_poisson(p, window):
    rate = p.get("rate", float, check=_NONNEG)

    def sample(rng):
        return sample_homogeneous(window, rate, rng)

    def chains(n_reps, rng):
        return homogeneous_chains(window, rate, n_reps, rng)

    mean = rate * window.volume()
    return _built(sample, window, _count_checks(chains, mean=("poisson-mean-count", mean),
                                                per_rep=mean))


def _build_brix_kendall(p, window):
    from .cluster_exact import BrixKendallSampler, TranslatedPoissonCluster

    rate0 = p.get("rate0", float, check=_NONNEG)
    cmean = p.get("cluster_mean", float, check=_POS)
    kernel = TranslatedPoissonCluster(cmean, _displacement(p))
    sampler = BrixKendallSampler(LebesgueIntensity(rate0, window.dim), kernel, window)

    def oracle(n_reps, rng):
        from .oracles import cluster_direct_chains

        return cluster_direct_chains(rate0, kernel, window, n_reps, rng)

    validate = _count_checks(
        sampler.sample_chains,
        mean=("cluster-mean-count", rate0 * cmean * window.volume()),
        oracle=("cluster-counts-vs-oracle", oracle),
        per_rep=rate0 * (sampler.region.volume() + cmean * window.volume()),  # germs, points
    )
    return _built(sampler.sample, window, validate)


def _build_boolean_disks(p, window):
    from .boolean_model import (DiskGrains, ExpRadius, FixedRadius, UniformRadius,
                                boolean_exact_chains, boolean_exact_sample)

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

    # the kept pairs' mean count, rate (A + P E R + pi E R^2)
    per_rep = rate * (window.volume() + 2.0 * float(np.sum(window.sides)) * law.moment(1)
                      + math.pi * law.moment(2))

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
    from .boolean_model import SegmentGrains, boolean_exact_chains, boolean_exact_sample

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
    from .boolean_model import (DiskWindow, hit_prob_poisson_line, poisson_lines_chains,
                                sample_poisson_lines)

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


def _grid_horizon(spec, tail=1e-5):
    """A site index beyond which any retained site has probability <= tail."""
    n = 4
    while 1.0 - spec.survival(n) > tail:
        n *= 2
        if n > 50_000_000:
            raise SamplerError("retention tail too heavy for a finite-horizon oracle")
    return n + 1


def _build_grid_thinning(p, window):
    from .germ_thinning import GeometricGrid, InverseSquareGrid, TableGrid, thin_grid

    family, p = p.variant("family", {"table": ("probs",), "geometric": ("c", "ratio"),
                                     "inverse_square": ("C",)})
    if family == "table":
        spec = TableGrid(p.floats("probs", check=_UNIT))
    elif family == "geometric":
        spec = GeometricGrid(p.get("c", float, check=_UNIT),
                             p.get("ratio", float, check=_OPEN_UNIT))
    else:
        spec = InverseSquareGrid(p.get("C", float, check=_POS))

    def sample(rng):
        sites = thin_grid(spec, rng)
        return PointPattern(np.asarray(sites, dtype=float).reshape(-1, 1), dim=1)

    def chains(n_reps, rng):
        sites, offsets = spec.sample_chains(n_reps, rng)
        return sites.astype(float).reshape(-1, 1), offsets

    def oracle(n_reps, rng):
        from .oracles import grid_thin_after_chains

        return grid_thin_after_chains(spec.p, _grid_horizon(spec), n_reps, rng)

    # a replicate draws a coin per site below its last one, few in any grid
    # whose tail the oracle's horizon covers: the battery is one block
    validate = _count_checks(chains, oracle=("grid-counts-vs-thin-after", oracle))
    return _built(sample, window, validate, ())


def _build_renewal(p, window):
    from .germ_thinning import _gamma_hazard, renewal_thin_first, renewal_thin_first_chains

    _, inter = p.tagged("interarrival", "kind", {"gamma": ("shape", "scale")})
    shape = inter.get("shape", float, check=_AT_LEAST_1)  # a bounded hazard
    scale = inter.get("scale", float, 1.0, _POS)
    _, thin = p.tagged("thin", "kind", {"exp": ("rate",)})  # a finite retained mass
    thin_rate = thin.get("rate", float, check=_POS)

    bound = 1.0 / scale  # gamma hazard with shape >= 1 increases toward 1/scale
    hazard = _gamma_hazard(shape, scale)

    def thin_p(ts):
        return np.exp(-thin_rate * ts)

    def p_tail(t):
        return math.exp(-thin_rate * t) / thin_rate

    def sample(rng):
        return renewal_thin_first(
            hazard, bound, thin_p, rng, p_tail=p_tail, p_mass=1.0 / thin_rate
        )

    def chains(n_reps, rng):
        return renewal_thin_first_chains(
            hazard, bound, thin_p, n_reps, rng, p_tail=p_tail, p_mass=1.0 / thin_rate
        )

    def oracle(n_reps, rng):
        from .oracles import renewal_thin_after_chains

        return renewal_thin_after_chains(
            lambda r, size: r.gamma(shape, scale, size), thin_p, 60.0 / thin_rate, n_reps, rng
        )

    validate = _count_checks(chains, oracle=("renewal-counts-vs-thin-after", oracle),
                             per_rep=bound / thin_rate)  # the mean candidate count
    return _built(sample, window, validate, ())


def _build_matern(p, window):
    from .germ_thinning import matern_thin_first, matern_thin_first_chains

    rate = p.get("rate", float, check=_NONNEG)
    radius = p.get("radius", float, check=_NONNEG)
    thin_p = p.get("thin_p", float, 1.0, _UNIT)

    def thin_fn(pts):
        return thin_p  # one retention probability for every point; it broadcasts

    def sample(rng):
        return matern_thin_first(rate, radius, thin_fn, window, rng)

    def chains(n_reps, rng):
        return matern_thin_first_chains(rate, radius, thin_fn, window, n_reps, rng)

    def oracle(n_reps, rng):
        from .oracles import matern_direct_chains

        return matern_direct_chains(rate, radius, thin_fn, window, n_reps, rng)

    validate = _count_checks(chains, oracle=("hardcore-counts-vs-thin-after", oracle),
                             per_rep=rate * window.buffered(radius).volume())
    return _built(sample, window, validate)


def _build_nonlinear_hawkes(p, window):
    from .germ_thinning import nonlinear_hawkes_germ, nonlinear_hawkes_germ_chains

    _, phi_spec = p.tagged("phi", "kind", {"saturating": ("bound", "base")})
    lam = phi_spec.get("bound", float, check=_POS)
    base = phi_spec.get("base", float, check=_POS)
    _, exc = p.tagged("excitation", "kind", {"triangular": ("height", "support")})
    height = exc.get("height", float, check=_NONNEG)
    support = exc.get("support", float, check=_POS)

    def phi(drive):
        return lam * -math.expm1(-(base + float(drive)) / lam)

    def h(t):
        return height * max(1.0 - float(t) / support, 0.0)

    # phi and h elementwise on arrays, for the lockstep oracle; the sampler keeps the above
    def phi_array(drive):
        return lam * -np.expm1(-(base + drive) / lam)

    def h_array(t):
        return height * np.maximum(1.0 - t / support, 0.0)

    def sample(rng):
        return nonlinear_hawkes_germ(phi, lam, h, support, window, rng)

    def chains(n_reps, rng):
        return nonlinear_hawkes_germ_chains(phi, lam, h, support, window, n_reps, rng)

    def oracle(n_reps, rng):
        from .oracles import nonlinear_hawkes_burn_in_chains

        burn = 20.0 * math.exp(min(lam * support, 30.0)) / lam + 10.0 * support
        return nonlinear_hawkes_burn_in_chains(
            phi_array, lam, h_array, support, window, burn, n_reps, rng
        )

    # the backward scan's e^(bound * support) points and the forward stream's
    per_rep = math.exp(min(lam * support, 700.0)) + lam * window.volume()
    validate = _count_checks(chains, oracle=("nonlinear-counts-vs-burn-in", oracle),
                             per_rep=per_rep)
    return _built(sample, window, validate, ())


def _build_hawkes_mr(p, window):
    from .hawkes_mr import ExponentialFertility, HawkesSampler

    kernel = _fertility(p)
    mu = p.get("mu", float, check=_NONNEG)
    if abs(window.lower[0]) > 1e-12:
        raise ConfigError("'window.lower' must be [0] for the self-exciting sampler")
    sampler = HawkesSampler(kernel, mu, window.upper[0], tol=p.get("tol", float, 1e-3, _POS),
                            step=p.get("step", float, 1e-4, _POS))

    def oracle(n_reps, rng):
        from .oracles import hawkes_bounded_burn_in_chains, hawkes_exp_burn_in_chains

        a, burn = window.upper[0], 60.0 / max(kernel.suggested_decay(), 1e-6)
        chains = (hawkes_exp_burn_in_chains if isinstance(kernel, ExponentialFertility)
                  else hawkes_bounded_burn_in_chains)
        return chains(kernel, mu, a, burn, n_reps, rng)

    # a replicate's points: the clusters of its mu a immigrants, mu t0 near candidates
    # and mu / theta far ones, whose Q-clusters root 1 / (1 - rho_theta) clusters each
    far = 1.0 / (kernel.theta * (1.0 - kernel.rho_theta)) if kernel.rho > 0 else 0.0
    per_rep = mu * (window.upper[0] + sampler.meta["t0"] + far) / (1.0 - kernel.rho)
    validate = _count_checks(
        sampler.sample_chains,
        mean=("self-exciting-mean-count", mu * window.upper[0] / (1.0 - kernel.rho)),
        oracle=("self-exciting-counts-vs-burn-in", oracle),
        per_rep=per_rep,
    )
    # the certified curve is built only if a plot reads it
    return _built(sampler.sample, window, validate, ("points-2d", "sandwich-curves"),
                  dict(sampler.meta), sampler=sampler, kernel=kernel)


def _build_branching_approx(p, window):
    from .branching_approx import _checked, approx_branching_chains, approx_branching_sample
    from .cluster_exact import TranslatedPoissonCluster

    rate0 = p.get("rate0", float, check=_NONNEG)
    pmean = p.get("progeny_mean", float, check=_POS)
    n_gen = p.get("generations", int, check=_NONNEG)
    progeny = TranslatedPoissonCluster(pmean, _displacement(p))
    cert, region = _checked(rate0, progeny, window, n_gen)  # refuses as a draw would

    def sample(rng):
        pattern, _ = approx_branching_sample(rate0, progeny, window, n_gen, rng)
        return pattern

    def chains(n_reps, rng):
        points, offsets, _ = approx_branching_chains(rate0, progeny, window, n_gen, n_reps, rng)
        return points, offsets

    # the mean density of generations 0..n_gen; _checked has refused pmean >= 1
    density = rate0 * (1.0 - pmean ** (n_gen + 1)) / (1.0 - pmean)
    validate = _count_checks(chains, mean=("branching-mean-count", density * window.volume()),
                             per_rep=density * region.volume())  # the germs fill the region
    return _built(sample, window, validate, meta={"truncation_certificate": cert.to_dict()})


_HALF_AXIS = "runs on its own half-axis"

# name -> (builder, its params keys (None: the builder's variant checks them),
#          its window: a dimension, None for any, or for a sampler without one a
#          phrase saying where it draws)
_BUILDERS = {
    "poisson": (_build_poisson, ("rate",), None),
    "brix_kendall": (_build_brix_kendall, ("rate0", "cluster_mean", "displacement"), None),
    "boolean_disks": (_build_boolean_disks, ("rate", "radius"), 2),
    "boolean_segments": (_build_boolean_segments, ("rate", "length"), 2),
    "poisson_lines": (_build_poisson_lines,
                      ("rate", "target_center", "target_radius", "germ_region"),
                      "draws its germs on params.germ_region"),
    "grid_thinning": (_build_grid_thinning, None, _HALF_AXIS),
    "renewal": (_build_renewal, ("interarrival", "thin"), _HALF_AXIS),
    "matern": (_build_matern, ("rate", "radius", "thin_p"), None),
    "nonlinear_hawkes": (_build_nonlinear_hawkes, ("phi", "excitation"), 1),
    "hawkes_mr": (_build_hawkes_mr, ("kernel", "mu", "tol", "step"), 1),
    "branching_approx": (_build_branching_approx,
                         ("rate0", "progeny_mean", "displacement", "generations"), None),
}

_TOP_KEYS = ("schema", "sampler", "seed", "replicates", "window", "params", "validation")


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    top = _Obj(cfg, "", _TOP_KEYS)
    if top.get("schema", int, SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"'schema' must be {SCHEMA_VERSION}")
    sampler = top.get("sampler", str)
    if sampler not in _BUILDERS:
        raise ConfigError(
            f"unknown sampler '{sampler}'; available: {', '.join(sorted(_BUILDERS))}"
        )
    top.get("seed", int, check=_NONNEG)
    top.get("replicates", int, 1, _AT_LEAST_1)
    val = top.obj("validation", ("enabled", "replicates", "alpha"), {})
    val.get("enabled", bool, False)
    val.get("replicates", int, 400, (lambda n: n >= 2, "must be at least 2"))
    val.get("alpha", float, 0.05, _OPEN_UNIT)
    return cfg


def build(cfg):
    """The built sampler of a loaded config, as a dict: sample(rng), window,
    validate(stream, n_reps, collector), plots, meta and sampler-specific extras."""
    builder, keys, dim = _BUILDERS[cfg["sampler"]]
    top = _Obj(cfg, "", _TOP_KEYS)
    return builder(top.obj("params", keys), top.window("window", dim))


# -- commands -------------------------------------------------------------------------


def _write_patterns(built, seed, outdir, indices):
    for r in indices:
        rng = RngStream(seed, stream_id=r).generator()
        built["sample"](rng).to_csv(Path(outdir) / f"pattern-{r:05d}.csv")


def _write_range(cfg, outdir, indices):
    """Pool worker: build the sampler and write the given replicates."""
    _write_patterns(build(cfg), cfg["seed"], outdir, indices)


def _run_validation(cfg, built):
    from .validation import ReportCollector

    val = cfg.get("validation", {})
    collector = ReportCollector(alpha=val.get("alpha", 0.05))
    built["validate"](
        RngStream(cfg["seed"], stream_id=20_000), val.get("replicates", 400), collector
    )
    reports, all_ok = collector.finalize()
    for r in reports:
        print(
            f"{'PASS' if r.accepted else 'FAIL'} {r.name}: "
            f"statistic={r.statistic:.6g} threshold={r.threshold:.6g}"
            + (f" pvalue={r.pvalue:.4g}" if r.pvalue is not None else "")
        )
    return reports, all_ok


def _write_reports(reports, path):
    with open(path, "w") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_sample(cfg, outdir):
    reps = cfg.get("replicates", 1)
    try:
        workers = min(max(int(os.environ.get("EXACTPP_WORKERS", "1")), 1), reps)
    except ValueError:
        raise ConfigError("EXACTPP_WORKERS must be an integer") from None
    built = build(cfg)  # a config the build refuses leaves no output directory
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    # replicate r goes to chunk r % workers; the parent writes chunk 0 (all of a serial run)
    chunks = [list(range(i, reps, workers)) for i in range(workers)]
    pool = nullcontext()
    if workers > 1:
        from concurrent import futures  # only a parallel run pays for this import

        pool = futures.ProcessPoolExecutor(workers - 1)
    with pool:
        jobs = [pool.submit(_write_range, cfg, outdir, c) for c in chunks[1:]]
        _write_patterns(built, cfg["seed"], outdir, chunks[0])
        for job in jobs:
            job.result()
    meta = {
        "schema": SCHEMA_VERSION,
        "sampler": cfg["sampler"],
        "seed": cfg["seed"],
        "replicates": reps,
        "config_hash": config_hash(cfg),
        "meta": _jsonable(built["meta"]),
        # pattern bytes also depend on numpy's distribution algorithms
        "numpy": np.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
    }
    with open(outdir / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {reps} pattern file(s) to {outdir}")
    if cfg.get("validation", {}).get("enabled", False):
        reports, all_ok = _run_validation(cfg, built)
        _write_reports(reports, outdir / "validation_report.json")
        if not all_ok:
            print("validation rejected", file=sys.stderr)
            return 1
    return 0


def cmd_validate(cfg):
    built = build(cfg)
    reports, all_ok = _run_validation(cfg, built)
    if not all_ok:
        print("validation rejected", file=sys.stderr)
        return 1
    print("validation accepted")
    return 0


def _csv_rows(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _ftext(v):
    return format(float(v), ".17g")


def cmd_plotdata(cfg, kind, outdir):
    built = build(cfg)
    if kind not in built["plots"]:
        raise ConfigError(
            f"plot kind '{kind}' not available for sampler '{cfg['sampler']}' "
            f"(available: {', '.join(sorted(built['plots']))})"
        )
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    seed = cfg["seed"]
    out = outdir / f"{kind}.csv"
    if kind == "points-2d":
        pattern = built["sample"](RngStream(seed, stream_id=0).generator())
        pts = pattern.points
        ys = pts[:, 1] if pattern.dim > 1 else np.zeros(pts.shape[0])
        _csv_rows(out, "x,y", ([_ftext(x), _ftext(y)] for x, y in zip(pts[:, 0], ys)))
    elif kind == "counts-histogram":
        reps = max(cfg.get("replicates", 1), 200)
        counts = np.array(
            [built["sample"](RngStream(seed, stream_id=r).generator()).n for r in range(reps)]
        )
        hist = np.bincount(counts)
        _csv_rows(out, "count,frequency", ([str(k), str(int(v))] for k, v in enumerate(hist)))
    elif kind == "sandwich-curves":
        from .hawkes_mr import POINT_CAP, sample_gw_cluster

        b = built["sampler"].sandwich.bounds()
        stride = max(1, b.taus.size // 2000)
        taus, ell, upp = b.taus[::stride], b.ell[::stride], b.upp[::stride]
        n_clusters = 20_000
        lengths = np.sort(sample_gw_cluster(
            built["kernel"], np.zeros(n_clusters), RngStream(seed, stream_id=30_000).generator(),
            POINT_CAP,
        ).extinction_time)
        oracle = 1.0 - np.searchsorted(lengths, taus, side="right") / n_clusters
        _csv_rows(out, "t,lower,upper,oracle_tail",
                  ([_ftext(t), _ftext(lo), _ftext(hi), _ftext(o)]
                   for t, lo, hi, o in zip(taus, ell, upp, oracle)))
    elif kind == "coverage-raster":
        bs = built["boolean_draw"](RngStream(seed, stream_id=0).generator())
        w = built["window"]
        xs = np.linspace(w.lower[0], w.upper[0], 200)
        ys = np.linspace(w.lower[1], w.upper[1], 200)
        grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
        z = bs.coverage(grid).astype(int)
        _csv_rows(out, "x,y,covered",
                  ([_ftext(p[0]), _ftext(p[1]), str(int(v))] for p, v in zip(grid, z)))
    print(f"wrote {out}")
    return 0


def main(argv=None):
    import argparse  # with gettext and locale about 1.3 ms, which load_config and build skip

    parser = argparse.ArgumentParser(
        prog="exactpp", description="Exact point-process sampling from JSON configs."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sample = sub.add_parser("sample", help="write replicate pattern files")
    p_sample.add_argument("-c", "--config", required=True)
    p_sample.add_argument("-o", "--out", required=True)
    p_val = sub.add_parser("validate", help="run the statistical battery")
    p_val.add_argument("-c", "--config", required=True)
    p_plot = sub.add_parser("plotdata", help="emit plot-ready CSV")
    p_plot.add_argument("-c", "--config", required=True)
    p_plot.add_argument(
        "--kind", required=True,
        choices=["points-2d", "counts-histogram", "sandwich-curves", "coverage-raster"],
    )
    p_plot.add_argument("-o", "--out", default="plotdata")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "sample":
            return cmd_sample(cfg, args.out)
        if args.command == "validate":
            return cmd_validate(cfg)
        return cmd_plotdata(cfg, args.kind, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SamplerError as exc:
        print(f"sampler error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
