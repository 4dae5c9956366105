"""Command-line interface: exact sampling runs driven by JSON configs.

Subcommands:
  sample   -c CONFIG -o DIR   write one CSV pattern per replicate plus meta.json
                              (and a validation report when the config enables it)
  validate -c CONFIG          run the sampler's statistical battery (Holm-joint)
  plotdata -c CONFIG --kind K [-o DIR]  emit plot-ready CSV for the given kind

Exit codes: 0 success, 1 validation rejection, 2 config schema error,
3 sampler error.  Replicate r always uses the stream (seed, stream_id=r), so
outputs are byte-identical across reruns and independent of EXACTPP_WORKERS.

Config schema errors (unknown, missing, or mistyped keys; out-of-range plain
values) are reported with the dotted path of the offending field and exit 2.
Model-level impossibilities raised while constructing or running a sampler
(supercritical kernels, unbounded buffers, point counts too large to draw)
exit 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from concurrent import futures
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import oracles
from .boolean_model import (
    DiskGrains,
    DiskWindow,
    ExpRadius,
    FixedRadius,
    SegmentGrains,
    UniformRadius,
    boolean_exact_sample,
    hit_prob_poisson_line,
    sample_poisson_lines,
)
from .branching_approx import approx_branching_sample
from .cluster_exact import BrixKendallSampler, TranslatedPoissonCluster, UniformDisplacement
from .core import (
    ConfigError,
    LebesgueIntensity,
    PointPattern,
    RngStream,
    SamplerError,
    Window,
    config_hash,
    sample_homogeneous,
)
from .germ_thinning import (
    GeometricGrid,
    InverseSquareGrid,
    TableGrid,
    matern_thin_first,
    nonlinear_hawkes_germ,
    renewal_thin_first,
    thin_grid,
)
from .hawkes_mr import (
    ExponentialFertility,
    HawkesSampler,
    PiecewiseConstantFertility,
    PolynomialFertility,
    sample_gw_cluster,
)
from .validation import (
    ReportCollector,
    TestReport,
    _jsonable,
    mean_ci,
    replicate_counts,
    two_sample_ks,
)

SCHEMA_VERSION = 1

_MISSING = object()


# -- config schema -------------------------------------------------------------------


def _as_dict(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"'{path}' must be an object")
    return value


def _check_keys(d, allowed, path):
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        prefix = f"{path}." if path else ""
        raise ConfigError(f"unknown key '{prefix}{unknown[0]}'")


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


def _get(d, key, kind, path, default=_MISSING):
    prefix = f"{path}." if path else ""
    if key not in d:
        if default is _MISSING:
            raise ConfigError(f"missing key '{prefix}{key}'")
        return default
    v = d[key]
    if kind is float:
        x = _finite(v)
        if x is None:
            raise ConfigError(f"'{prefix}{key}' must be a finite number")
        return x
    if kind is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"'{prefix}{key}' must be an integer")
        return int(v)
    if kind is bool:
        if not isinstance(v, bool):
            raise ConfigError(f"'{prefix}{key}' must be true or false")
        return v
    if kind is str:
        if not isinstance(v, str):
            raise ConfigError(f"'{prefix}{key}' must be a string")
        return v
    if kind is list:
        if not isinstance(v, list):
            raise ConfigError(f"'{prefix}{key}' must be a list")
        return v
    if kind is dict:
        if not isinstance(v, dict):
            raise ConfigError(f"'{prefix}{key}' must be an object")
        return v
    raise AssertionError(kind)


def _floats(d, key, path):
    v = _get(d, key, list, path)
    out = [_finite(x) for x in v]
    if None in out:
        raise ConfigError(f"'{path}.{key}' must be a list of finite numbers")
    return out


def _window(spec, path="window", dim=None):
    w = _as_dict(spec, path)
    _check_keys(w, {"lower", "upper"}, path)
    lower = _floats(w, "lower", path)
    upper = _floats(w, "upper", path)
    if dim is not None and len(lower) != dim:
        raise ConfigError(f"'{path}' must have dimension {dim}")
    try:
        return Window(tuple(lower), tuple(upper))
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"'{path}': {exc}") from None


def _fertility(spec, path):
    spec = _as_dict(spec, path)
    family = _get(spec, "family", str, path)
    marks = spec.get("marks", [[1.0, 1.0]])
    if not isinstance(marks, list) or not all(
        isinstance(m, list) and len(m) == 2 and None not in map(_finite, m) for m in marks
    ):
        raise ConfigError(
            f"'{path}.marks' must be a list of [weight, value] pairs of finite numbers"
        )
    marks = tuple((float(w), float(z)) for w, z in marks)
    if family == "exponential":
        _check_keys(spec, {"family", "beta", "gamma", "marks"}, path)
        return ExponentialFertility(
            _get(spec, "beta", float, path), _get(spec, "gamma", float, path), marks
        )
    if family == "polynomial":
        _check_keys(spec, {"family", "coeffs", "support", "marks"}, path)
        return PolynomialFertility(
            _floats(spec, "coeffs", path), _get(spec, "support", float, path), marks
        )
    if family == "table":
        _check_keys(spec, {"family", "breaks", "values", "marks"}, path)
        return PiecewiseConstantFertility(
            _floats(spec, "breaks", path), _floats(spec, "values", path), marks
        )
    raise ConfigError(f"'{path}.family' must be one of: exponential, polynomial, table")


def _displacement(spec, path):
    spec = _as_dict(spec, path)
    _check_keys(spec, {"lo", "hi"}, path)
    return UniformDisplacement(
        tuple(_floats(spec, "lo", path)), tuple(_floats(spec, "hi", path))
    )


def _interval_report(name, value, expect, half):
    err = abs(value - expect)
    return TestReport(
        name=name,
        statistic=err,
        threshold=half,
        alpha=0.0,
        decision="accept" if err <= half else "reject",
        details={"value": value, "expected": expect},
    )


def _count_checks(sample, mean=None, oracle=None):
    """The count battery as a validate closure: replicate counts, then a mean
    check for mean=(name, expected count) and a two-sample KS test for
    oracle=(name, oracle_counts). oracle_counts(n_reps, rng) returns n_reps
    reference counts, all drawn from the one generator of substream 10_001;
    _each turns a one-pattern oracle into one. Any oracle set-up belongs inside
    oracle_counts, so it runs only when validation does."""

    def validate(stream, n_reps, collector):
        counts = replicate_counts(sample, n_reps, stream)
        if mean is not None:
            value, half = mean_ci(counts)
            collector.add(_interval_report(mean[0], value, mean[1], half))
        if oracle is not None:
            ref = oracle[1](n_reps, stream.substream(10_001).generator())
            collector.add(two_sample_ks(counts, np.asarray(ref), name=oracle[0]))

    return validate


def _each(draw):
    """oracle_counts for draw(rng), which returns one reference pattern: n_reps
    draws in turn from the one generator."""
    return lambda n_reps, rng: [draw(rng).n for _ in range(n_reps)]


# -- sampler registry --------------------------------------------------------------


def _build_poisson(cfg):
    params = _as_dict(cfg.get("params", {}), "params")
    _check_keys(params, {"rate"}, "params")
    rate = _get(params, "rate", float, "params")
    if rate < 0:
        raise ConfigError("'params.rate' must be nonnegative")
    window = _window(cfg["window"])

    def sample(rng):
        return sample_homogeneous(window, rate, rng)

    validate = _count_checks(sample, mean=("poisson-mean-count", rate * window.volume()))
    return {"sample": sample, "window": window, "validate": validate,
            "plots": {"points-2d", "counts-histogram"}, "meta": {}}


def _build_brix_kendall(cfg):
    params = _as_dict(cfg.get("params", {}), "params")
    _check_keys(params, {"rate0", "cluster_mean", "displacement"}, "params")
    rate0 = _get(params, "rate0", float, "params")
    cmean = _get(params, "cluster_mean", float, "params")
    kernel = TranslatedPoissonCluster(
        cmean, _displacement(_get(params, "displacement", dict, "params"), "params.displacement")
    )
    window = _window(cfg["window"])
    sampler = BrixKendallSampler(LebesgueIntensity(rate0, window.dim), kernel, window)

    validate = _count_checks(
        sampler.sample,
        mean=("cluster-mean-count", rate0 * cmean * window.volume()),
        oracle=("cluster-counts-vs-oracle",
                _each(lambda rng: oracles.cluster_direct_oracle(rate0, kernel, window, rng))),
    )
    return {"sample": sampler.sample, "window": window, "validate": validate,
            "plots": {"points-2d", "counts-histogram"}, "meta": {}}


def _radius_law(spec, path):
    spec = _as_dict(spec, path)
    kind = _get(spec, "kind", str, path)
    if kind == "fixed":
        _check_keys(spec, {"kind", "value"}, path)
        return FixedRadius(_get(spec, "value", float, path))
    if kind == "uniform":
        _check_keys(spec, {"kind", "lo", "hi"}, path)
        return UniformRadius(_get(spec, "lo", float, path), _get(spec, "hi", float, path))
    if kind == "exp":
        _check_keys(spec, {"kind", "rate"}, path)
        return ExpRadius(_get(spec, "rate", float, path))
    raise ConfigError(f"'{path}.kind' must be one of: fixed, uniform, exp")


def _build_boolean_disks(cfg):
    params = _as_dict(cfg.get("params", {}), "params")
    _check_keys(params, {"rate", "radius"}, "params")
    rate = _get(params, "rate", float, "params")
    law = _radius_law(_get(params, "radius", dict, "params"), "params.radius")
    window = _window(cfg["window"], dim=2)
    grains = DiskGrains(law)

    def draw(rng):
        return boolean_exact_sample(rate, grains, window, rng)

    def sample(rng):
        bs = draw(rng)
        radii = np.asarray([g["radius"] for g in bs.grains], dtype=float)
        return PointPattern(bs.germs, marks=radii, dim=window.dim)

    def validate(stream, n_reps, collector):
        probes = window.sample_uniform(400, stream.substream(10_002).generator())
        fracs = np.empty(n_reps)
        for r in range(n_reps):
            bs = draw(stream.substream(r).generator())
            fracs[r] = float(np.mean(bs.coverage(probes)))
        mean, half = mean_ci(fracs)
        expect = 1.0 - math.exp(-rate * math.pi * law.moment(2))
        collector.add(_interval_report("boolean-coverage", mean, expect, half))

    return {"sample": sample, "window": window, "validate": validate,
            "plots": {"points-2d", "counts-histogram", "coverage-raster"},
            "meta": {}, "boolean_draw": draw}


def _build_boolean_segments(cfg):
    params = _as_dict(cfg.get("params", {}), "params")
    _check_keys(params, {"rate", "length"}, "params")
    rate = _get(params, "rate", float, "params")
    grains = SegmentGrains(_get(params, "length", float, "params"))
    window = _window(cfg["window"], dim=2)

    def draw(rng):
        return boolean_exact_sample(rate, grains, window, rng)

    def sample(rng):
        return PointPattern(draw(rng).germs, dim=window.dim)

    # mean area of the germs whose segment meets the box: A + L P / pi
    perimeter = 2.0 * float(np.sum(window.sides))
    expect = rate * (window.volume() + grains.length * perimeter / math.pi)
    validate = _count_checks(sample, mean=("segment-germ-count", expect))
    return {"sample": sample, "window": window, "validate": validate,
            "plots": {"points-2d", "counts-histogram"}, "meta": {}, "boolean_draw": draw}


def _build_poisson_lines(cfg):
    params = _as_dict(cfg.get("params", {}), "params")
    _check_keys(params, {"rate", "target_center", "target_radius", "germ_region"}, "params")
    rate = _get(params, "rate", float, "params")
    center = _floats(params, "target_center", "params")
    radius = _get(params, "target_radius", float, "params")
    if len(center) != 2:
        raise ConfigError("'params.target_center' must have two coordinates")
    region = _window(_get(params, "germ_region", dict, "params"), "params.germ_region", dim=2)
    target = DiskWindow((center[0], center[1]), radius)

    def sample(rng):
        ls = sample_poisson_lines(rate, target, region, rng)
        return PointPattern(ls.germs, marks=ls.angles, dim=2)

    def validate(stream, n_reps, collector):
        counts = replicate_counts(sample, n_reps, stream)
        mean, half = mean_ci(counts)
        probes = region.sample_uniform(20_000, stream.substream(10_002).generator())
        p = hit_prob_poisson_line(probes - np.asarray(center), radius)
        expect = rate * region.volume() * float(np.mean(p))
        mc_half = 3.0 * rate * region.volume() * float(np.std(p)) / math.sqrt(p.size)
        collector.add(_interval_report("line-germ-count", mean, expect, half + mc_half))

    return {"sample": sample, "window": region, "validate": validate,
            "plots": {"points-2d", "counts-histogram"}, "meta": {}}


def _grid_spec(params):
    family = _get(params, "family", str, "params")
    if family == "table":
        _check_keys(params, {"family", "probs"}, "params")
        probs = _floats(params, "probs", "params")
        if any(not 0 <= p <= 1 for p in probs):
            raise ConfigError("'params.probs' entries must lie in [0, 1]")
        return TableGrid(tuple(probs))
    if family == "geometric":
        _check_keys(params, {"family", "c", "ratio"}, "params")
        return GeometricGrid(
            _get(params, "c", float, "params"), _get(params, "ratio", float, "params")
        )
    if family == "inverse_square":
        _check_keys(params, {"family", "C"}, "params")
        return InverseSquareGrid(_get(params, "C", float, "params"))
    raise ConfigError("'params.family' must be one of: table, geometric, inverse_square")


def _grid_horizon(spec, tail=1e-5):
    """A site index beyond which any retained site has probability <= tail."""
    n = 4
    while 1.0 - spec.survival(n) > tail:
        n *= 2
        if n > 50_000_000:
            raise SamplerError("retention tail too heavy for a finite-horizon oracle")
    return n + 1


def _build_grid_thinning(cfg):
    params = _as_dict(cfg.get("params", {}), "params")
    spec = _grid_spec(params)

    def sample(rng):
        sites = thin_grid(spec, rng)
        return PointPattern(np.asarray(sites, dtype=float).reshape(-1, 1), dim=1)

    horizon = functools.cache(lambda: _grid_horizon(spec))  # found at the first oracle draw

    def oracle(rng):
        sites = oracles.grid_thin_after(spec.p, horizon(), rng)
        return PointPattern(np.asarray(sites, dtype=float).reshape(-1, 1), dim=1)

    validate = _count_checks(sample, oracle=("grid-counts-vs-thin-after", _each(oracle)))
    return {"sample": sample, "window": None, "validate": validate,
            "plots": {"counts-histogram"}, "meta": {}}


_GAMMA_ITERATIONS = 100_000  # far more than either expansion needs below a = 10^6
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min / _EPS  # Lentz's floor for a vanishing denominator


def _gamma_q(a, x):
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a), a > 0, x > 0.

    Below x = a + 1 it sums the series of P = 1 - Q, beyond it evaluates the
    continued fraction of Q by Lentz's method (Numerical Recipes, 3rd ed.,
    6.2), both to double precision. The prefactor x^a e^-x / Gamma(a) loses
    about a * log(x) ulps, so the relative error grows with a.
    """
    log_front = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, _GAMMA_ITERATIONS):
            term *= x / (a + n)
            total += term
            if abs(term) < abs(total) * _EPS:
                return 1.0 - total * math.exp(log_front)
    else:
        b = x + 1.0 - a
        c, d = 1.0 / _TINY, 1.0 / b
        frac = d
        for i in range(1, _GAMMA_ITERATIONS):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = b + an / c
            c = c if abs(c) >= _TINY else _TINY
            delta = d * c
            frac *= delta
            if abs(delta - 1.0) <= _EPS:
                return frac * math.exp(log_front)
    raise SamplerError(f"incomplete gamma Q({a:.6g}, {x:.6g}) did not converge")


def _gamma_hazard(shape, scale):
    """Hazard pdf / survival of the gamma(shape >= 1, scale) law, capped at its limit 1 / scale."""
    bound = 1.0 / scale
    log_norm = math.lgamma(shape)

    def hazard(t):
        x = t / scale
        if x <= 0.0:
            return bound if shape == 1.0 else 0.0  # the pdf at 0 over a survival of 1
        sf = _gamma_q(shape, x)
        if sf <= 0:
            return bound
        return min(math.exp((shape - 1.0) * math.log(x) - x - log_norm) / scale / sf, bound)

    return hazard


def _build_renewal(cfg):
    params = _as_dict(cfg.get("params", {}), "params")
    _check_keys(params, {"interarrival", "thin"}, "params")
    inter = _as_dict(_get(params, "interarrival", dict, "params"), "params.interarrival")
    _check_keys(inter, {"kind", "shape", "scale"}, "params.interarrival")
    if _get(inter, "kind", str, "params.interarrival") != "gamma":
        raise ConfigError("'params.interarrival.kind' must be 'gamma'")
    shape = _get(inter, "shape", float, "params.interarrival")
    scale = _get(inter, "scale", float, "params.interarrival", 1.0)
    if shape < 1 or scale <= 0:
        raise ConfigError(
            "'params.interarrival' needs shape >= 1 (bounded hazard) and scale > 0"
        )
    thin_spec = _as_dict(_get(params, "thin", dict, "params"), "params.thin")
    _check_keys(thin_spec, {"kind", "rate"}, "params.thin")
    if _get(thin_spec, "kind", str, "params.thin") != "exp":
        raise ConfigError("'params.thin.kind' must be 'exp' (the retained mass must be finite)")
    thin_rate = _get(thin_spec, "rate", float, "params.thin")
    if thin_rate <= 0:
        raise ConfigError("'params.thin.rate' must be positive")

    bound = 1.0 / scale  # gamma hazard with shape >= 1 increases toward 1/scale
    hazard = _gamma_hazard(shape, scale)

    def thin_p(ts):
        return np.exp(-thin_rate * np.asarray(ts, dtype=float))

    def p_tail(t):
        return math.exp(-thin_rate * t) / thin_rate

    def sample(rng):
        return renewal_thin_first(
            hazard, bound, thin_p, rng, p_tail=p_tail, p_mass=1.0 / thin_rate
        )

    def oracle(rng):
        return oracles.renewal_thin_after(
            lambda r: r.gamma(shape, scale), thin_p, 60.0 / thin_rate, rng
        )

    validate = _count_checks(sample, oracle=("renewal-counts-vs-thin-after", _each(oracle)))
    return {"sample": sample, "window": None, "validate": validate,
            "plots": {"counts-histogram"}, "meta": {}}


def _build_matern(cfg):
    params = _as_dict(cfg.get("params", {}), "params")
    _check_keys(params, {"rate", "radius", "thin_p"}, "params")
    rate = _get(params, "rate", float, "params")
    radius = _get(params, "radius", float, "params")
    p = _get(params, "thin_p", float, "params", 1.0)
    if not 0 <= p <= 1:
        raise ConfigError("'params.thin_p' must lie in [0, 1]")
    window = _window(cfg["window"])

    def thin_fn(pts):
        return np.full(np.atleast_2d(pts).shape[0], p)

    def sample(rng):
        return matern_thin_first(rate, radius, thin_fn, window, rng)

    validate = _count_checks(sample, oracle=(
        "hardcore-counts-vs-thin-after",
        _each(lambda rng: oracles.matern_direct_oracle(rate, radius, thin_fn, window, rng)),
    ))
    return {"sample": sample, "window": window, "validate": validate,
            "plots": {"points-2d", "counts-histogram"}, "meta": {}}


def _build_nonlinear_hawkes(cfg):
    params = _as_dict(cfg.get("params", {}), "params")
    _check_keys(params, {"phi", "excitation"}, "params")
    phi_spec = _as_dict(_get(params, "phi", dict, "params"), "params.phi")
    _check_keys(phi_spec, {"kind", "bound", "base"}, "params.phi")
    if _get(phi_spec, "kind", str, "params.phi") != "saturating":
        raise ConfigError("'params.phi.kind' must be 'saturating'")
    lam = _get(phi_spec, "bound", float, "params.phi")
    base = _get(phi_spec, "base", float, "params.phi")
    if lam <= 0 or base <= 0:
        raise ConfigError("'params.phi' needs positive bound and base")
    exc_spec = _as_dict(_get(params, "excitation", dict, "params"), "params.excitation")
    _check_keys(exc_spec, {"kind", "height", "support"}, "params.excitation")
    if _get(exc_spec, "kind", str, "params.excitation") != "triangular":
        raise ConfigError("'params.excitation.kind' must be 'triangular'")
    height = _get(exc_spec, "height", float, "params.excitation")
    support = _get(exc_spec, "support", float, "params.excitation")
    if height < 0 or support <= 0:
        raise ConfigError("'params.excitation' needs height >= 0 and support > 0")
    window = _window(cfg["window"], dim=1)

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

    def oracle(n_reps, rng):
        burn = 20.0 * math.exp(min(lam * support, 30.0)) / lam + 10.0 * support
        return oracles.nonlinear_hawkes_burn_in_counts(
            phi_array, lam, h_array, support, window, burn, n_reps, rng
        )

    validate = _count_checks(sample, oracle=("nonlinear-counts-vs-burn-in", oracle))
    return {"sample": sample, "window": window, "validate": validate,
            "plots": {"counts-histogram"}, "meta": {}}


def _build_hawkes_mr(cfg):
    params = _as_dict(cfg.get("params", {}), "params")
    _check_keys(params, {"kernel", "mu", "tol", "step"}, "params")
    kernel = _fertility(_get(params, "kernel", dict, "params"), "params.kernel")
    mu = _get(params, "mu", float, "params")
    if mu < 0:
        raise ConfigError("'params.mu' must be nonnegative")
    window = _window(cfg["window"], dim=1)
    if abs(window.lower[0]) > 1e-12:
        raise ConfigError("'window.lower' must be [0] for the self-exciting sampler")
    tol = _get(params, "tol", float, "params", 1e-3)
    step = _get(params, "step", float, "params", 1e-4)
    sampler = HawkesSampler(kernel, mu, window.upper[0], tol=tol, step=step)

    def oracle(n_reps, rng):
        a, burn = window.upper[0], 60.0 / max(kernel.suggested_decay(), 1e-6)
        if isinstance(kernel, ExponentialFertility):
            return oracles.hawkes_exp_burn_in_counts(kernel, mu, a, burn, n_reps, rng)
        return [oracles.hawkes_bounded_burn_in(kernel, mu, a, burn, rng).n for _ in range(n_reps)]

    validate = _count_checks(
        sampler.sample,
        mean=("self-exciting-mean-count", mu * window.upper[0] / (1.0 - kernel.rho)),
        oracle=("self-exciting-counts-vs-burn-in", oracle),
    )
    # the certified curve is built only if a plot reads it
    return {"sample": sampler.sample, "window": window, "validate": validate,
            "plots": {"points-2d", "counts-histogram", "sandwich-curves"},
            "meta": dict(sampler.meta), "sampler": sampler, "kernel": kernel}


def _build_branching_approx(cfg):
    params = _as_dict(cfg.get("params", {}), "params")
    _check_keys(params, {"rate0", "progeny_mean", "displacement", "generations"}, "params")
    rate0 = _get(params, "rate0", float, "params")
    pmean = _get(params, "progeny_mean", float, "params")
    n_gen = _get(params, "generations", int, "params")
    if n_gen < 0:
        raise ConfigError("'params.generations' must be nonnegative")
    progeny = TranslatedPoissonCluster(
        pmean, _displacement(_get(params, "displacement", dict, "params"), "params.displacement")
    )
    window = _window(cfg["window"])
    _, cert = approx_branching_sample(rate0, progeny, window, n_gen, RngStream(0, 0).generator())

    def sample(rng):
        pattern, _ = approx_branching_sample(rate0, progeny, window, n_gen, rng)
        return pattern

    # the build above has refused pmean >= 1
    expect = rate0 * (1.0 - pmean ** (n_gen + 1)) / (1.0 - pmean) * window.volume()
    validate = _count_checks(sample, mean=("branching-mean-count", expect))
    return {"sample": sample, "window": window, "validate": validate,
            "plots": {"points-2d", "counts-histogram"},
            "meta": {"truncation_certificate": cert.to_dict()}}


_BUILDERS = {
    "poisson": _build_poisson,
    "brix_kendall": _build_brix_kendall,
    "boolean_disks": _build_boolean_disks,
    "boolean_segments": _build_boolean_segments,
    "poisson_lines": _build_poisson_lines,
    "grid_thinning": _build_grid_thinning,
    "renewal": _build_renewal,
    "matern": _build_matern,
    "nonlinear_hawkes": _build_nonlinear_hawkes,
    "hawkes_mr": _build_hawkes_mr,
    "branching_approx": _build_branching_approx,
}

_TOP_KEYS = {"schema", "sampler", "seed", "replicates", "window", "params", "validation"}
_WINDOWLESS = {"grid_thinning", "renewal"}


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
    _check_keys(cfg, _TOP_KEYS, "")
    if _get(cfg, "schema", int, "", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"'schema' must be {SCHEMA_VERSION}")
    sampler = _get(cfg, "sampler", str, "")
    if sampler not in _BUILDERS:
        raise ConfigError(
            f"unknown sampler '{sampler}'; available: {', '.join(sorted(_BUILDERS))}"
        )
    _get(cfg, "seed", int, "")
    if _get(cfg, "replicates", int, "", 1) < 1:
        raise ConfigError("'replicates' must be at least 1")
    if sampler in _WINDOWLESS:
        if "window" in cfg:
            raise ConfigError(f"unknown key 'window' ({sampler} runs on its own half-axis)")
    elif "window" not in cfg:
        raise ConfigError("missing key 'window'")
    val = _as_dict(cfg.get("validation", {}), "validation")
    _check_keys(val, {"enabled", "replicates", "alpha"}, "validation")
    _get(val, "enabled", bool, "validation", False)
    if _get(val, "replicates", int, "validation", 400) < 2:
        raise ConfigError("'validation.replicates' must be at least 2")
    alpha = _get(val, "alpha", float, "validation", 0.05)
    if not 0 < alpha < 1:
        raise ConfigError("'validation.alpha' must lie strictly between 0 and 1")
    return cfg


def build(cfg):
    return _BUILDERS[cfg["sampler"]](cfg)


# -- commands -------------------------------------------------------------------------


def _write_patterns(built, seed, outdir, indices):
    for r in indices:
        rng = RngStream(seed, stream_id=r).generator()
        built["sample"](rng).to_csv(Path(outdir) / f"pattern-{r:05d}.csv")


def _write_range(cfg, outdir, indices):
    """Pool worker: build the sampler and write the given replicates."""
    _write_patterns(build(cfg), cfg["seed"], outdir, indices)


def _run_validation(cfg, built):
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
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    reps = cfg.get("replicates", 1)
    try:
        workers = min(max(int(os.environ.get("EXACTPP_WORKERS", "1")), 1), reps)
    except ValueError:
        raise ConfigError("EXACTPP_WORKERS must be an integer") from None
    # replicate r goes to chunk r % workers; the parent writes chunk 0 (all of a serial run)
    chunks = [list(range(i, reps, workers)) for i in range(workers)]
    pool = futures.ProcessPoolExecutor(workers - 1) if workers > 1 else nullcontext()
    with pool:
        jobs = [pool.submit(_write_range, cfg, outdir, c) for c in chunks[1:]]
        built = build(cfg)
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
        b = built["sampler"].sandwich.bounds()
        stride = max(1, b.taus.size // 2000)
        taus, ell, upp = b.taus[::stride], b.ell[::stride], b.upp[::stride]
        n_clusters = 20_000
        lengths = np.sort(sample_gw_cluster(
            built["kernel"], np.zeros(n_clusters), RngStream(seed, stream_id=30_000).generator()
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
