"""Command-line interface: config validation exit codes, reproducible sample
output, plot-data CSV shapes, and the validation battery's report plumbing."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from exactpp.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

POISSON_CFG = {
    "schema": 1,
    "sampler": "poisson",
    "seed": 9,
    "replicates": 3,
    "window": {"lower": [0.0, 0.0], "upper": [2.0, 2.0]},
    "params": {"rate": 2.0},
}

RENEWAL_CFG = {
    "schema": 1,
    "sampler": "renewal",
    "seed": 19,
    "replicates": 1,
    "params": {
        "interarrival": {"kind": "gamma", "shape": 2.0, "scale": 1.0},
        "thin": {"kind": "exp", "rate": 1.0},
    },
}


def _cfg_file(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    return str(path)


def _hawkes(**params):
    """The top-level keys of a hawkes_mr config, with extra params."""
    return dict(
        sampler="hawkes_mr",
        window={"lower": [0.0], "upper": [5.0]},
        params={
            "mu": 1.0,
            "kernel": {"family": "exponential", "beta": 0.5, "gamma": 1.0},
            **params,
        },
    )


def _sample(tmp_path, cfg, sub="out", name="config.json"):
    rc = main(["sample", "-c", _cfg_file(tmp_path, cfg, name), "-o", str(tmp_path / sub)])
    return rc, tmp_path / sub


# -- config errors exit 2 ----------------------------------------------------------


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda c: c["params"].update(ratee=2.0), "unknown key 'params.ratee'"),
        (lambda c: c.update(schema=7), "'schema' must be 1"),
        (lambda c: c.update(extra=1), "unknown key 'extra'"),
        (lambda c: c.update(sampler="permanental"), "unknown sampler 'permanental'"),
        (lambda c: c.update(replicates=0), "'replicates' must be at least 1"),
        (lambda c: c.pop("window"), "missing key 'window'"),
        (
            lambda c: c.update(validation={"alpha": 1.5}),
            "'validation.alpha' must lie strictly between 0 and 1",
        ),
        (lambda c: c["params"].update(rate=float("nan")), "'params.rate' must be a finite number"),
        (
            lambda c: c["window"].update(upper=[2.0, float("inf")]),
            "'window.upper' must be a list of finite numbers",
        ),
        (
            lambda c: c.update(
                sampler="hawkes_mr",
                window={"lower": [0.0], "upper": [5.0]},
                params={
                    "mu": 1.0,
                    "kernel": {"family": "exponential", "beta": 0.5, "gamma": 1.0,
                               "marks": [["a", 1]]},
                },
            ),
            "'params.kernel.marks' must be a list of [weight, value] pairs of finite numbers",
        ),
        (lambda c: c.update(_hawkes(t_max=40.0)), "unknown key 'params.t_max'"),
        (
            lambda c: c.update(_hawkes(classify_fallback="error")),
            "unknown key 'params.classify_fallback'",
        ),
    ],
)
def test_bad_config_exits_2_with_dotted_path(tmp_path, capsys, mangle, message):
    cfg = json.loads(json.dumps(POISSON_CFG))
    mangle(cfg)
    rc, _ = _sample(tmp_path, cfg)
    assert rc == 2
    assert message in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    rc, _ = _sample(tmp_path, "{not json")
    assert rc == 2
    assert "config is not valid JSON" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["sample", "-c", str(tmp_path / "absent.json"), "-o", str(tmp_path / "o")])
    assert rc == 2
    assert "config file not found" in capsys.readouterr().err


def test_window_on_windowless_sampler_exits_2(tmp_path, capsys):
    cfg = json.loads(json.dumps(RENEWAL_CFG))
    cfg["window"] = {"lower": [0.0], "upper": [1.0]}
    rc, _ = _sample(tmp_path, cfg)
    assert rc == 2
    assert "runs on its own half-axis" in capsys.readouterr().err


def test_non_integer_worker_count_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EXACTPP_WORKERS", "two")
    rc, _ = _sample(tmp_path, POISSON_CFG)
    assert rc == 2
    assert "EXACTPP_WORKERS" in capsys.readouterr().err


# -- sampler errors exit 3 ---------------------------------------------------------


def test_supercritical_hawkes_exits_3(tmp_path, capsys):
    cfg = {
        "schema": 1, "sampler": "hawkes_mr", "seed": 1, "replicates": 1,
        "window": {"lower": [0.0], "upper": [5.0]},
        "params": {"kernel": {"family": "exponential", "beta": 2.0, "gamma": 1.0},
                   "mu": 1.0},
    }
    rc, _ = _sample(tmp_path, cfg)
    assert rc == 3
    err = capsys.readouterr().err
    assert "sampler error" in err and "supercritical" in err


@pytest.mark.parametrize(
    "sampler,params",
    [
        ("poisson", {"rate": 1e15}),
        ("brix_kendall", {"rate0": 1e20, "cluster_mean": 2.0,
                          "displacement": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]}}),
    ],
)
def test_absurd_rate_exits_3_before_drawing(tmp_path, capsys, sampler, params):
    cfg = dict(POISSON_CFG, sampler=sampler, params=params)
    tracemalloc.start()
    try:
        rc, _ = _sample(tmp_path, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert capsys.readouterr().err.startswith("sampler error: mean point count")
    assert peak < 64 * 2**20


# -- validation rejection exits 1 ---------------------------------------------------


def test_validation_rejection_exits_1(tmp_path, capsys):
    # alpha = 0.98 makes acceptance demand pvalue >= 0.98; this seed's
    # (deterministic) KS draw lands well below it
    cfg = {
        "schema": 1, "sampler": "grid_thinning", "seed": 2, "replicates": 2,
        "params": {"family": "geometric", "c": 0.7, "ratio": 0.6},
        "validation": {"enabled": True, "replicates": 200, "alpha": 0.98},
    }
    rc = main(["validate", "-c", _cfg_file(tmp_path, cfg)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "validation rejected" in captured.err
    assert captured.out.startswith("FAIL grid-counts-vs-thin-after")
    assert "statistic=" in captured.out


def test_validate_accepts_and_prints_reports(tmp_path, capsys):
    cfg = dict(POISSON_CFG, validation={"enabled": True, "replicates": 300})
    rc = main(["validate", "-c", _cfg_file(tmp_path, cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS poisson-mean-count" in out
    assert "statistic=" in out and "threshold=" in out
    assert out.rstrip().endswith("validation accepted")


def test_two_dimensional_brix_kendall_validates(tmp_path, capsys):
    # the demo's params on a [0,3]^2 window with box displacement
    cfg = json.loads((CONFIG_DIR / "brix_kendall.json").read_text())
    cfg["window"] = {"lower": [0.0, 0.0], "upper": [3.0, 3.0]}
    cfg["params"]["displacement"] = {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]}
    rc = main(["validate", "-c", _cfg_file(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "PASS cluster-counts-vs-oracle" in out


# -- sample command -----------------------------------------------------------------


def test_sample_writes_patterns_and_meta(tmp_path, capsys):
    rc, outdir = _sample(tmp_path, POISSON_CFG)
    assert rc == 0
    names = sorted(f.name for f in outdir.iterdir())
    assert names == ["meta.json", "pattern-00000.csv", "pattern-00001.csv",
                     "pattern-00002.csv"]
    meta = json.loads((outdir / "meta.json").read_text())
    assert set(meta) == {"schema", "sampler", "seed", "replicates", "config_hash", "meta"}
    assert meta["sampler"] == "poisson" and meta["replicates"] == 3
    header = (outdir / "pattern-00000.csv").read_text().splitlines()[0]
    assert header == "x1,x2"
    assert "wrote 3 pattern file(s)" in capsys.readouterr().out


def test_sample_one_dimensional_header(tmp_path):
    rc, outdir = _sample(tmp_path, RENEWAL_CFG)
    assert rc == 0
    header = (outdir / "pattern-00000.csv").read_text().splitlines()[0]
    assert header == "x1"


def test_boolean_disks_take_exp_radii_with_no_truncation_key(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "boolean_disks.json").read_text())
    cfg["params"]["radius"] = {"kind": "exp", "rate": 2.0}
    rc, outdir = _sample(tmp_path, cfg)
    assert rc == 0
    assert len(list(outdir.glob("pattern-*.csv"))) == cfg["replicates"]
    cfg["params"]["truncation_radius"] = 25.0
    rc, _ = _sample(tmp_path, cfg, sub="truncated")
    assert rc == 2
    assert "unknown key 'params.truncation_radius'" in capsys.readouterr().err


def test_sample_rerun_is_byte_identical(tmp_path):
    _, a = _sample(tmp_path, POISSON_CFG, sub="a")
    _, b = _sample(tmp_path, POISSON_CFG, sub="b")
    for fa in sorted(a.iterdir()):
        assert fa.read_bytes() == (b / fa.name).read_bytes()


def test_sample_worker_count_does_not_change_bytes(tmp_path, monkeypatch):
    hawkes = json.loads((CONFIG_DIR / "hawkes_mr.json").read_text())
    for name, cfg in (("poisson", dict(POISSON_CFG, replicates=4)), ("hawkes", hawkes)):
        monkeypatch.setenv("EXACTPP_WORKERS", "1")
        _, a = _sample(tmp_path, cfg, sub=f"{name}-serial")
        monkeypatch.setenv("EXACTPP_WORKERS", "2")
        _, b = _sample(tmp_path, cfg, sub=f"{name}-parallel")
        names_a = sorted(f.name for f in a.iterdir())
        names_b = sorted(f.name for f in b.iterdir())
        assert names_a == names_b
        for fname in names_a:
            assert (a / fname).read_bytes() == (b / fname).read_bytes(), (name, fname)


def test_hawkes_build_leaves_the_certified_curve_unbuilt(monkeypatch):
    from exactpp import cli, hawkes_mr
    from exactpp.core import RngStream

    calls = []
    build_sandwich = hawkes_mr.build_sandwich

    def counting_build(*args, **kwargs):
        calls.append(1)
        return build_sandwich(*args, **kwargs)

    monkeypatch.setattr(hawkes_mr, "build_sandwich", counting_build)
    built = cli.build(cli.load_config(str(CONFIG_DIR / "hawkes_mr.json")))
    for r in range(5):
        built["sample"](RngStream(31, r).generator())
    assert calls == []
    assert set(built["meta"]) == {"theta", "rho_theta", "t0"}


def test_parallel_sample_builds_once_per_process(tmp_path, monkeypatch):
    from exactpp import cli

    log = tmp_path / "builds.log"
    build = cli.build

    def logging_build(cfg):
        with open(log, "a") as fh:  # forked pool workers inherit this wrapper
            fh.write(f"{os.getpid()}\n")
        return build(cfg)

    monkeypatch.setattr(cli, "build", logging_build)
    monkeypatch.setenv("EXACTPP_WORKERS", "2")
    rc, out = _sample(tmp_path, dict(POISSON_CFG, replicates=4))
    assert rc == 0
    pids = log.read_text().split()
    assert pids.count(str(os.getpid())) == 1
    assert len(pids) <= 2  # the parent and at most one pool worker
    assert sorted(f.name for f in out.glob("pattern-*.csv")) == [
        f"pattern-{r:05d}.csv" for r in range(4)
    ]


def test_renewal_candidates_are_built_once_per_build(monkeypatch):
    from exactpp import cli, poisson
    from exactpp.core import RngStream

    builds = []
    init = poisson.FiniteDensitySampler.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(poisson.FiniteDensitySampler, "__init__", counting_init)
    sample = cli.build(RENEWAL_CFG)["sample"]
    for r in range(5):
        sample(RngStream(19, r).generator())
    assert len(builds) == 1


def test_sample_writes_validation_report_when_enabled(tmp_path):
    cfg = dict(POISSON_CFG, seed=5,
               validation={"enabled": True, "replicates": 300})
    rc, outdir = _sample(tmp_path, cfg)
    assert rc == 0
    reports = json.loads((outdir / "validation_report.json").read_text())
    assert isinstance(reports, list) and reports
    assert all({"name", "decision", "statistic"} <= set(r) for r in reports)


# -- plotdata -----------------------------------------------------------------------


def test_plotdata_points_2d(tmp_path):
    rc = main(["plotdata", "-c", _cfg_file(tmp_path, POISSON_CFG),
               "--kind", "points-2d", "-o", str(tmp_path / "pd")])
    assert rc == 0
    lines = (tmp_path / "pd" / "points-2d.csv").read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) > 1
    xs, ys = zip(*(map(float, ln.split(",")) for ln in lines[1:]))
    assert all(0.0 <= x <= 2.0 for x in xs) and all(0.0 <= y <= 2.0 for y in ys)


def test_plotdata_points_2d_empty_pattern_is_header_only(tmp_path):
    cfg = dict(POISSON_CFG, params={"rate": 0.0})
    rc = main(["plotdata", "-c", _cfg_file(tmp_path, cfg),
               "--kind", "points-2d", "-o", str(tmp_path / "pd")])
    assert rc == 0
    assert (tmp_path / "pd" / "points-2d.csv").read_text() == "x,y\n"


def test_plotdata_counts_histogram(tmp_path):
    cfg = {
        "schema": 1, "sampler": "grid_thinning", "seed": 17, "replicates": 6,
        "params": {"family": "geometric", "c": 0.7, "ratio": 0.6},
    }
    rc = main(["plotdata", "-c", _cfg_file(tmp_path, cfg),
               "--kind", "counts-histogram", "-o", str(tmp_path / "pd")])
    assert rc == 0
    lines = (tmp_path / "pd" / "counts-histogram.csv").read_text().splitlines()
    assert lines[0] == "count,frequency"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [int(k) for k, _ in rows] == list(range(len(rows)))
    assert sum(int(v) for _, v in rows) == 200  # replicates floor for histograms


def test_plotdata_sandwich_curves(tmp_path):
    cfg = {
        "schema": 1, "sampler": "hawkes_mr", "seed": 3, "replicates": 1,
        "window": {"lower": [0.0], "upper": [5.0]},
        "params": {"kernel": {"family": "exponential", "beta": 0.5, "gamma": 1.0},
                   "mu": 1.0, "tol": 0.01, "step": 0.01},
    }
    rc = main(["plotdata", "-c", _cfg_file(tmp_path, cfg),
               "--kind", "sandwich-curves", "-o", str(tmp_path / "pd")])
    assert rc == 0
    lines = (tmp_path / "pd" / "sandwich-curves.csv").read_text().splitlines()
    assert lines[0] == "t,lower,upper,oracle_tail"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    t, lo, hi, oracle = data.T
    assert np.all(np.diff(t) > 0)
    assert np.all(lo <= hi + 1e-15)
    # the oracle is an empirical tail of 20,000 clusters: DKW band at 1 - 1e-3
    eps = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * 20_000))
    assert np.all(oracle >= lo - eps) and np.all(oracle <= hi + eps)
    assert hi[-1] < 1e-6  # the tail is pinched near t_max


def test_plotdata_coverage_raster(tmp_path):
    cfg = {
        "schema": 1, "sampler": "boolean_disks", "seed": 7, "replicates": 1,
        "window": {"lower": [0.0, 0.0], "upper": [4.0, 4.0]},
        "params": {"rate": 1.0, "radius": {"kind": "fixed", "value": 0.5}},
    }
    rc = main(["plotdata", "-c", _cfg_file(tmp_path, cfg),
               "--kind", "coverage-raster", "-o", str(tmp_path / "pd")])
    assert rc == 0
    lines = (tmp_path / "pd" / "coverage-raster.csv").read_text().splitlines()
    assert lines[0] == "x,y,covered"
    assert len(lines) == 1 + 200 * 200
    flags = {ln.rsplit(",", 1)[1] for ln in lines[1:]}
    assert flags <= {"0", "1"} and flags == {"0", "1"}


def test_plotdata_incompatible_kind_exits_2(tmp_path, capsys):
    rc = main(["plotdata", "-c", _cfg_file(tmp_path, POISSON_CFG),
               "--kind", "coverage-raster", "-o", str(tmp_path / "pd")])
    assert rc == 2
    assert "not available for sampler 'poisson'" in capsys.readouterr().err


# -- module entry point -------------------------------------------------------------


def test_module_invocation_runs(tmp_path):
    cfg_path = _cfg_file(tmp_path, dict(POISSON_CFG, replicates=1))
    proc = subprocess.run(
        [sys.executable, "-m", "exactpp.cli", "sample", "-c", cfg_path,
         "-o", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "pattern-00000.csv").exists()
