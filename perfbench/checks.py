"""Output checks: each returns an error message, or None when the output is right."""

from __future__ import annotations

import math

import numpy as np

from exactpp.boolean_model import box_distance
from exactpp.core import PointPattern, Window

EPS = 1e-9


def _box(spec):
    return Window(tuple(spec["lower"]), tuple(spec["upper"]))


def domain_error(cfg, pattern):
    """Every point lies where the sampler's law puts it.

    Most samplers restrict to the config window.  Boolean-model germs lie
    outside it but their grain reaches it; Poisson-line germs lie in the germ
    region and their line meets the target disk; the windowless samplers live
    on the half-axis, grid thinning on the integer sites.
    """
    pts = pattern.points
    if pattern.n == 0:
        return None
    if not np.all(np.isfinite(pts)):
        return "non-finite coordinate"
    name, params = cfg["sampler"], cfg.get("params", {})
    if name in ("grid_thinning", "renewal"):
        if np.any(pts < 0):
            return "point on the negative half-axis"
        if name == "grid_thinning" and np.any(pts != np.round(pts)):
            return "grid site is not an integer"
        return None
    if name == "poisson_lines":
        if not np.all(_box(params["germ_region"]).contains(pts)):
            return "germ outside the germ region"
        center, radius = np.asarray(params["target_center"]), params["target_radius"]
        u = np.stack([np.cos(pattern.marks), np.sin(pattern.marks)], axis=1)
        c = center - pts
        if np.any(np.abs(u[:, 0] * c[:, 1] - u[:, 1] * c[:, 0]) > radius + EPS):
            return "line misses the target disk"
        return None
    window = _box(cfg["window"])
    if name == "boolean_disks":
        if np.any(box_distance(pts, window) > pattern.marks + EPS):
            return "disk grain does not reach the window"
        return None
    if name == "boolean_segments":
        if np.any(box_distance(pts, window) > 0.5 * params["length"] + EPS):
            return "segment grain cannot reach the window"
        return None
    if not np.all(window.contains(pts)):
        return "point outside the window"
    return None


def same_pattern(a, b):
    if a.dim != b.dim or not np.array_equal(a.points, b.points):
        return False
    if a.marks is None or b.marks is None:
        return a.marks is None and b.marks is None
    return np.array_equal(a.marks, b.marks)


def csv_error(pattern, path):
    """The CSV at path reads back through PointPattern.from_csv as `pattern`."""
    if not same_pattern(PointPattern.from_csv(path), pattern):
        return f"{path.name} does not read back equal"
    return None


def expected_mean(cfg, built):
    """Closed-form mean count per replicate on the window, or None."""
    name, p = cfg["sampler"], cfg.get("params", {})
    if name == "hawkes_mr":
        return p["mu"] * cfg["window"]["upper"][0] / (1.0 - built["kernel"].rho)
    if name not in ("poisson", "brix_kendall", "branching_approx"):
        return None
    vol = _box(cfg["window"]).volume()
    if name == "poisson":
        return p["rate"] * vol
    if name == "brix_kendall":
        return p["rate0"] * p["cluster_mean"] * vol
    q, n = p["progeny_mean"], p["generations"]
    gens = n + 1 if q == 1.0 else (1.0 - q ** (n + 1)) / (1.0 - q)
    return p["rate0"] * gens * vol


def mean_error(name, counts, expect, z=5.0):
    """The mean of counts lies within z standard errors of expect."""
    counts = np.asarray(counts, dtype=float)
    if counts.size < 2:
        return None
    se = float(np.std(counts, ddof=1)) / math.sqrt(counts.size)
    mean = float(np.mean(counts))
    if abs(mean - expect) > z * max(se, 1e-12):
        return f"{name}: mean count {mean:.4g} is not within {z:g} sigma of {expect:.4g}"
    return None
