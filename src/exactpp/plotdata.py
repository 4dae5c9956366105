"""Plot-ready CSV for `exactpp plotdata`, one file per kind with every number
written to 17 significant digits; only that command loads this module."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import ConfigError, RngStream, _make_output_dir


def _csv_rows(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _ftext(v):
    return format(float(v), ".17g")


def cmd_plotdata(cfg, built, kind, outdir):
    """Write outdir/<kind>.csv for the config cfg and its build."""
    if kind not in built["plots"]:
        raise ConfigError(
            f"plot kind '{kind}' not available for sampler '{cfg['sampler']}' "
            f"(available: {', '.join(sorted(built['plots']))})"
        )
    outdir = Path(outdir)
    _make_output_dir(outdir)
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
