"""Command-line interface: config validation exit codes, reproducible sample
output, plot-data CSV shapes, and the validation battery's report plumbing."""

import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from exactpp.cli import main
from pins import pin_message, simd_found

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
        (
            lambda c: c.update(sampler="boolean_disks",
                               params={"rate": -1.0, "radius": {"kind": "fixed", "value": 0.5}}),
            "'params.rate' must be nonnegative",
        ),
        (
            lambda c: c.update(sampler="matern", params={"rate": -1.0, "radius": 0.3}),
            "'params.rate' must be nonnegative",
        ),
        (lambda c: c.update(_hawkes(step=0.0)), "'params.step' must be positive"),
        (lambda c: c.update(_hawkes(tol=-0.01)), "'params.tol' must be positive"),
        (
            lambda c: c.update(sampler="boolean_disks",
                               params={"rate": 1.0, "radius": {"kind": "fixed", "value": 0}}),
            "'params.radius.value' must be positive",
        ),
        (
            lambda c: c.update(sampler="poisson_lines", params={
                "rate": 0.8, "target_center": [2.0, 2.0], "target_radius": 1.0,
                "germ_region": {"lower": [0.0, 0.0], "upper": [4.0, 4.0]},
            }),
            "unknown key 'window' (this sampler draws its germs on params.germ_region)",
        ),
        (lambda c: c.update(seed=-1), "'seed' must be nonnegative"),
    ],
)
def test_bad_config_exits_2_with_dotted_path(tmp_path, capsys, mangle, message):
    cfg = json.loads(json.dumps(POISSON_CFG))
    mangle(cfg)
    rc, _ = _sample(tmp_path, cfg)
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "mangle,code,message",
    [
        (
            lambda c: c.update(sampler="boolean_disks", params={
                "rate": 1.0, "radius": {"kind": "uniform", "lo": 0.5, "hi": 0.2}}),
            2,
            "'params.radius': need 0 <= lo < hi",
        ),
        (
            lambda c: c.update(sampler="brix_kendall", window={"lower": [0.0], "upper": [5.0]},
                               params={"rate0": 1.0, "cluster_mean": 2.0,
                                       "displacement": {"lo": [0.5], "hi": [-0.5]}}),
            3,
            "'params.displacement': displacement box needs lo < hi per axis",
        ),
        (
            lambda c: c.update(_hawkes(kernel={"family": "exponential", "beta": 0.5,
                                               "gamma": 1.0, "marks": [[0.5, 1], [0.4, 1]]})),
            3,
            "'params.kernel': mark weights must sum to one",
        ),
    ],
    ids=["radius", "displacement", "marks"],
)
def test_refusal_of_several_values_names_their_object(tmp_path, capsys, mangle, code, message):
    cfg = json.loads(json.dumps(POISSON_CFG))
    mangle(cfg)
    rc, _ = _sample(tmp_path, cfg)
    assert rc == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg,code",
    [
        (dict(RENEWAL_CFG, window={"lower": [0.0], "upper": [1.0]}), 2),
        (dict(POISSON_CFG, **_hawkes(kernel={"family": "exponential", "beta": 0.5, "gamma": 1.0,
                                              "marks": [[0.5, 1], [0.4, 1]]})), 3),
    ],
    ids=["window-on-renewal", "hawkes-marks"],
)
def test_refused_config_leaves_no_output_directory(tmp_path, cfg, code):
    rc, outdir = _sample(tmp_path, cfg)
    assert rc == code
    assert not outdir.exists()


def test_malformed_json_exits_2(tmp_path, capsys):
    rc, _ = _sample(tmp_path, "{not json")
    assert rc == 2
    assert "config is not valid JSON" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["sample", "-c", str(tmp_path / "absent.json"), "-o", str(tmp_path / "o")])
    assert rc == 2
    assert "config file not found" in capsys.readouterr().err


def test_directory_as_config_exits_2(tmp_path, capsys):
    # an unreadable file (PermissionError) takes the same path, but a test of it
    # cannot run as root
    rc = main(["sample", "-c", str(tmp_path), "-o", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "cannot read config file" in err and str(tmp_path) in err
    assert not (tmp_path / "o").exists()


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{")
    rc = main(["validate", "-c", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config file is not UTF-8 text" in err and str(path) in err


def test_output_path_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    rc = main(["sample", "-c", _cfg_file(tmp_path, POISSON_CFG), "-o", str(taken)])
    assert rc == 2
    assert "output directory" in capsys.readouterr().err
    assert taken.read_text() == "keep me"


def test_plotdata_output_path_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    rc = main(["plotdata", "-c", _cfg_file(tmp_path, POISSON_CFG), "--kind", "points-2d",
               "-o", str(taken)])
    assert rc == 2
    assert "output directory" in capsys.readouterr().err
    assert taken.read_text() == "keep me"


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
        ("boolean_disks", {"rate": 1e15, "radius": {"kind": "fixed", "value": 0.5}}),
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


@pytest.mark.parametrize(
    "cfg",
    [
        dict(POISSON_CFG, **_hawkes(mu=1e20)),
        dict(POISSON_CFG, sampler="brix_kendall",
             params={"rate0": 1.0, "cluster_mean": 1e20,
                     "displacement": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]}}),
    ],
    ids=["hawkes_mr-mu", "brix_kendall-cluster_mean"],
)
def test_absurd_mean_per_draw_exits_3_at_build(tmp_path, capsys, cfg):
    rc, _ = _sample(tmp_path, cfg)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("sampler error:") and "exceeds the limit 1e+09" in err


def test_hopeless_regeneration_scan_exits_3(tmp_path, capsys):
    # bound * support = 50: the scan for a regeneration gap would never end
    cfg = json.loads((CONFIG_DIR / "nonlinear_hawkes.json").read_text())
    cfg["params"]["excitation"]["support"] = 25.0
    rc, _ = _sample(tmp_path, cfg)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("sampler error: regeneration-gap scan") and "exceeds the limit" in err


@pytest.mark.parametrize(
    "params,message",
    [
        ({"progeny_mean": 1.0},
         "sampler error: truncation certificate requires subcritical progeny (mass < 1)"),
        ({"rate0": 1e20}, "sampler error: mean point count 2.5e+20 exceeds the limit 1e+09"),
    ],
    ids=["supercritical", "absurd-rate"],
)
def test_branching_approx_refusals_exit_3_at_build(tmp_path, capsys, params, message):
    cfg = json.loads((CONFIG_DIR / "branching_approx.json").read_text())
    cfg["params"].update(params)
    rc, outdir = _sample(tmp_path, cfg)
    assert rc == 3
    assert capsys.readouterr().err.strip() == message
    assert not outdir.exists()


def test_branching_approx_build_draws_nothing(monkeypatch):
    from exactpp import branching_approx, cli
    from exactpp.core import RngStream

    cfg = cli.load_config(str(CONFIG_DIR / "branching_approx.json"))
    cert = cli.build(cfg)["meta"]["truncation_certificate"]

    def refuse(*args, **kwargs):
        raise AssertionError("the build drew a sample")

    monkeypatch.setattr(branching_approx, "approx_branching_sample", refuse)
    monkeypatch.setattr(RngStream, "generator", refuse)
    built = cli.build(cfg)
    assert built["meta"]["truncation_certificate"] == cert == {"n": 3, "gamma": 2.0, "bound": 0.25}


def test_heavy_branching_battery_stays_within_the_point_cap(tmp_path, capsys):
    # about 26k points a replicate: the 400 replicates' 1e7 points, drawn in
    # one call, would pass the engine's 5e6-point cap; drawn in blocks of
    # about core.BLOCK mean points, the battery runs and accepts, in bounded memory
    cfg = json.loads((CONFIG_DIR / "branching_approx.json").read_text())
    cfg["params"]["rate0"] = 2500.0
    cfg["window"] = {"lower": [0.0], "upper": [4.0]}
    cfg["validation"] = {"enabled": True, "replicates": 400}
    path = _cfg_file(tmp_path, cfg)
    tracemalloc.start()
    try:
        rc = main(["validate", "-c", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, capsys.readouterr().err
    assert "PASS branching-mean-count" in capsys.readouterr().out
    assert peak < 14 * 2**20  # about 11.8 MiB


def test_heavy_hawkes_battery_stays_within_the_point_cap(tmp_path, capsys, monkeypatch):
    # about 2,970 points a replicate: the 400 replicates come in blocks of about
    # core.BLOCK mean points, one engine call a block, each within the cap of
    # a call, core.POINT_CAP; the blocks bound the battery's memory
    from exactpp import core, hawkes_mr, validation

    checks, grow, seen, grown = hawkes_mr._count_checks, hawkes_mr.sample_gw_cluster, {}, []

    def recording_checks(chains, **kwargs):
        seen.update(kwargs)
        return checks(chains, **kwargs)

    def recording(*args, **kwargs):
        cl = grow(*args, **kwargs)
        grown.append(len(cl.points))
        return cl

    monkeypatch.setattr(hawkes_mr, "_count_checks", recording_checks)
    monkeypatch.setattr(hawkes_mr, "sample_gw_cluster", recording)
    cfg = json.loads((CONFIG_DIR / "hawkes_mr.json").read_text())
    cfg["params"]["kernel"] = {"family": "exponential", "beta": 5.0, "gamma": 10.0}
    cfg["params"]["mu"] = 29.0
    cfg["window"] = {"lower": [0.0], "upper": [50.0]}
    path = _cfg_file(tmp_path, cfg)
    tracemalloc.start()
    try:
        rc = main(["validate", "-c", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, capsys.readouterr().err
    assert "PASS self-exciting-mean-count" in capsys.readouterr().out
    blocks = validation.battery_blocks(400, seen["per_rep"])
    assert len(grown) == len(blocks) > 1 and max(grown) <= core.POINT_CAP
    assert peak < 18 * 2**20  # about 15.4 MiB, 14.7 with the oracles imported already


@pytest.mark.parametrize(
    "marks, per_rep",
    [(None, 2_558.13), ([[0.25, 0.5], [0.75, 7 / 6]], 2_569.38)],
    ids=["one-mark", "two-marks"],
)
def test_hawkes_battery_blocks_are_sized_by_the_points_a_draw_grows(
        tmp_path, monkeypatch, marks, per_rep):
    # the build's per_rep, mu (a + 2 t0 + 1/theta + b) / (1 - rho), is the mean
    # count of the points that the engine grows a replicate, with
    # b = (rho_theta / theta) Var(z) / E[z] nu0 for the spine nodes' size-biased
    # marks (0 for one mark): 2,558 and 2,569 at mu = 60, against a standard
    # error of about 2.7 at 2,000 draws
    from exactpp import RngStream, cli, hawkes_mr

    count_checks, grow, seen, grown = hawkes_mr._count_checks, hawkes_mr.sample_gw_cluster, {}, []

    def recording_checks(chains, **kwargs):
        seen.update(kwargs)
        return count_checks(chains, **kwargs)

    def recording_growth(*args, **kwargs):
        cl = grow(*args, **kwargs)
        grown.append(len(cl.points))
        return cl

    monkeypatch.setattr(hawkes_mr, "_count_checks", recording_checks)
    monkeypatch.setattr(hawkes_mr, "sample_gw_cluster", recording_growth)
    cfg = json.loads((CONFIG_DIR / "hawkes_mr.json").read_text())
    cfg["params"]["mu"] = 60.0
    if marks is not None:
        cfg["params"]["kernel"]["marks"] = marks
    sampler = cli.build(cli.load_config(_cfg_file(tmp_path, cfg)))["sampler"]
    for r in range(2_000):
        sampler.sample(RngStream(133, r).generator())
    assert len(grown) == 2_000  # one engine call a draw
    assert seen["per_rep"] == pytest.approx(per_rep, abs=0.01)
    mean, se = np.mean(grown), np.std(grown) / math.sqrt(len(grown))
    assert abs(mean - seen["per_rep"]) < 3.0 * se, (mean, se, seen["per_rep"])


def test_heavy_oracle_draws_its_chains_in_the_battery_blocks(tmp_path, capsys, monkeypatch):
    # clusters of 1,000 points on [0, 10]: 600 oracle chains drawn in one call
    # peaked near 200 MiB; drawn in the battery's blocks of core.BLOCK mean
    # points, one after another on the one ORACLE generator, far less
    from exactpp import core, oracles, validation

    draw, asked = oracles.cluster_direct_chains, []

    def recording(rate0, kernel, window, n_chains, rng):
        asked.append((n_chains, rng))
        return draw(rate0, kernel, window, n_chains, rng)

    monkeypatch.setattr(oracles, "cluster_direct_chains", recording)
    cfg = json.loads((CONFIG_DIR / "brix_kendall.json").read_text())
    cfg["params"]["cluster_mean"] = 1000.0
    path = _cfg_file(tmp_path, cfg)
    tracemalloc.start()
    try:
        rc = main(["validate", "-c", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, capsys.readouterr().err
    per_rep = 1.0 * (11.0 + 1000.0 * 10.0)  # the battery's germs and points a replicate
    block = int(core.BLOCK // per_rep)
    assert [k for k, _ in asked] == validation.battery_blocks(600, per_rep) == (
        [block] * (600 // block) + [600 % block] * (600 % block > 0))
    assert len({id(rng) for _, rng in asked}) == 1
    assert peak < 12 * 2**20  # about 10.5 MiB, 9.8 with the oracles imported already


# -- validation rejection exits 1 ---------------------------------------------------


def test_validation_rejection_exits_1(tmp_path, capsys, monkeypatch):
    # a grid sampler that drops every replicate's last site: its counts are
    # one short, and the KS test against the oracle rejects on any stream
    from exactpp.germ_thinning import GeometricGrid

    draw = GeometricGrid.sample_chains

    def short(self, n_chains, rng):
        sites, offsets = draw(self, n_chains, rng)
        last = offsets[1:][np.diff(offsets) > 0] - 1
        return np.delete(sites, last), offsets - np.searchsorted(last, offsets, side="left")

    monkeypatch.setattr(GeometricGrid, "sample_chains", short)
    cfg = {
        "schema": 1, "sampler": "grid_thinning", "seed": 2, "replicates": 2,
        "params": {"family": "geometric", "c": 0.7, "ratio": 0.6},
        "validation": {"enabled": True, "replicates": 200},
    }
    rc = main(["validate", "-c", _cfg_file(tmp_path, cfg)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "validation rejected" in captured.err
    assert captured.out.startswith("FAIL grid-counts-vs-thin-after")
    assert "statistic=" in captured.out


@pytest.mark.parametrize("alpha,expected", [(0.05, 0), (0.5, 0), (0.999, 1)])
def test_configured_alpha_decides_the_verdict(tmp_path, capsys, alpha, expected):
    # the grid's one KS test reads p = 0.99733 on this seed: the run accepts at
    # alpha 0.05 and 0.5 and rejects at 0.999, so only the configured alpha
    # tells the runs apart; every report records the alpha it was judged at
    cfg = {
        "schema": 1, "sampler": "grid_thinning", "seed": 2, "replicates": 2,
        "params": {"family": "geometric", "c": 0.7, "ratio": 0.6},
        "validation": {"enabled": True, "replicates": 200, "alpha": alpha},
    }
    rc, outdir = _sample(tmp_path, cfg)
    assert rc == expected
    reports = json.loads((outdir / "validation_report.json").read_text())
    assert [r["name"] for r in reports] == ["grid-counts-vs-thin-after"]
    assert reports[0]["pvalue"] == pytest.approx(0.99733, abs=5e-5)
    assert all(r["alpha"] == alpha for r in reports)
    assert ("validation rejected" in capsys.readouterr().err) == (expected == 1)


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
    assert set(meta) == {"schema", "sampler", "seed", "replicates", "config_hash", "meta",
                         "numpy", "python", "simd"}
    assert meta["sampler"] == "poisson" and meta["replicates"] == 3
    assert meta["numpy"] == np.__version__
    assert meta["python"] == "%d.%d.%d" % sys.version_info[:3]
    assert meta["simd"] == simd_found()
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


# The byte pins below were taken on pins.PINNED_ON; pins.py says why a pin
# can fail on another numpy while every law-level check still holds.


# sha256 over the pattern files `exactpp sample` writes for each demo config
# (name, then bytes, in name order); meta.json is left out
DEMO_PATTERN_SHA256 = {
    "boolean_disks": "14d857481fcbca656e3495f3f0698f8118b04cb0fa23f65b06af137f1e6de593",
    "boolean_segments": "3b7698e4846aa2305e0c9a489bb7e581fe91d14c3272b82a5b8e2f3940e6d6ee",
    "branching_approx": "00adf7c7626448b72711f5d05dd399bcf23b7093f245f51f15512987341f33d0",
    "brix_kendall": "f184dffaf6882b38eb7f12bde501f4c99e7820ab8b8f96e07b69ec9b6944aeed",
    "grid_thinning": "f80dae499e94fbcfbcb28981110c5383ccf72bf0627d503f3a8fda63f91675a1",
    "hawkes_mr": "1e763c8297ec47dcb0863a5bbb4730cf34eecb48b5dd4d259eb0549920863b0b",
    "matern": "d712ee7c1379720d814486f1e3923c2d46daee120728acb2baaa17daaba3cde6",
    "nonlinear_hawkes": "e0381820be80cf6f0f6a85ce9cdc33d8140743f9d71846d527f4b2a6d8f538f5",
    "poisson": "fdabfb0707869de0d31a7e1c78a17adf1789a6cf9f5bd2041f2320c149172d3d",
    "poisson_lines": "87737d8f109eefdbe84facdd3fdad30be0147d2bdd59338c56be755424d8ff42",
    "renewal": "96998dca9d3c5ad2e45704fd36b0d436577f66b840e6e1aad939f3b771dbfae5",
}
# the same digest over 200 replicates, for the demo configs of the samplers
# whose draws build only arrays and reuse their buffered window
DEMO_PATTERN_SHA256_200 = {
    "boolean_disks": "18909177b855fb2c1e7c2cdbeb3bc01b2a1ae3b8b34db8a9d77e50f5e00a1914",
    "boolean_segments": "cfe555e7d983a8ad40696743f3871134dea426f780bfa92ceaa70e69edd523e8",
    "branching_approx": "0c9e7a3208ae18a725c8131e905a4fc6d51321357b3fcabbc0389b62dc1db4c4",
    "matern": "7d728f6c8bc76390abd76a10690c50fac1658bac78829681cc0a85f5ca306503",
    "nonlinear_hawkes": "a9c9da773f9c26b803cecb737f38089fcc7db85c86107ad3e14213fe5a512e89",
    "poisson_lines": "52f92a54ecd8cc35b3cff155c57eb6981c3f88182f0506ce7de4da4327b44f05",
}
# validation_report.json of each demo config sampled with validation on: the
# reports of a change that draws other reference or replicate numbers show here
DEMO_REPORT_SHA256 = {
    "boolean_disks": "203a40eb7fd8e024f2875b210a4c548f1e49386e4f39ae4195fee058afd1d248",
    "boolean_segments": "c499b32fc3674d58421b2729c606224dbf7e99cf2f7c1a0b837dce56c71ecbfe",
    "branching_approx": "cfb3edb3458ca3e78c175f71fcfa55415f36cf1c059eb8f759d488802e7b1bd3",
    "brix_kendall": "2b8e5a75d554c639dea2d5640b5a404db68d1348ed8a7ed4e768e0294259a030",
    "grid_thinning": "a91c7ea1f7d59fc3ea9c1afa3110a7f64779e7cfdca320b3d4ff0e8b0680c788",
    "hawkes_mr": "d2497eb152e6f8214887b637003d7a274d5989a25de3642737627eb5bffb0f1a",
    "matern": "e8ff0fec7852906d4b737ef3691fa157e0bcf275b7f5360c9f5d4d1be9cb1695",
    "nonlinear_hawkes": "60a047146991f3f46096096eb76ff750d842bad8554e2bce8f25bddbe566da64",
    "poisson": "d71c57fa1c6cab791bea9bc3ee17f339e8a4c858deb63e3881ed9c1e95d781a0",
    "poisson_lines": "f7f3171845f7f135c8ed58996a10c16fe9d24180544e0dcd0e74ea6ca343bef2",
    "renewal": "051e030cc2dc7541e575c7472fe49deb84f30cb493c9ae605e124bd980ae234d",
}
DEMO_CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def _pattern_digest(outdir):
    digest = hashlib.sha256()
    for f in sorted(outdir.glob("pattern-*.csv")):
        digest.update(f.name.encode())
        digest.update(f.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_patterns_keep_their_bytes(tmp_path, path):
    cfg = json.loads(path.read_text())
    rc, outdir = _sample(tmp_path, cfg)
    assert rc == 0
    simd = path.stem == "poisson_lines"  # its ray angles come from np.arcsin and np.arctan2
    assert _pattern_digest(outdir) == DEMO_PATTERN_SHA256[path.stem], pin_message("patterns", simd)
    if path.stem in DEMO_PATTERN_SHA256_200:
        rc, outdir = _sample(tmp_path, dict(cfg, replicates=200), sub="out200")
        assert rc == 0
        assert (_pattern_digest(outdir) == DEMO_PATTERN_SHA256_200[path.stem]
                ), pin_message("patterns of 200 replicates", simd)


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_validation_reports_keep_their_bytes(tmp_path, path):
    cfg = json.loads(path.read_text())
    rc, outdir = _sample(tmp_path, dict(cfg, validation=dict(cfg["validation"], enabled=True)))
    assert rc == 0
    report = (outdir / "validation_report.json").read_bytes()
    assert (hashlib.sha256(report).hexdigest() == DEMO_REPORT_SHA256[path.stem]
            ), pin_message("validation report bytes")


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_ks_pvalues_are_scipys_exact(tmp_path, monkeypatch, path):
    # every KS report of a demo battery carries the exact p-value of the two
    # samples it compared, scipy's ks_2samp(method="exact")
    from scipy import stats

    from exactpp import validation

    ks, samples = validation.two_sample_ks, []

    def recording(a, b, *args, **kwargs):
        samples.append((np.asarray(a), np.asarray(b)))
        return ks(a, b, *args, **kwargs)

    monkeypatch.setattr(validation, "two_sample_ks", recording)
    cfg = json.loads(path.read_text())
    rc, outdir = _sample(tmp_path, dict(cfg, validation=dict(cfg["validation"], enabled=True)))
    assert rc == 0
    reports = json.loads((outdir / "validation_report.json").read_text())
    ks_reports = [r for r in reports if "m" in r["details"]]  # in the order they ran
    assert len(ks_reports) == len(samples)
    for (a, b), report in zip(samples, ks_reports):
        exact = stats.ks_2samp(a, b, method="exact").pvalue
        assert report["pvalue"] == pytest.approx(exact, rel=1e-10), report["name"]


def test_no_module_computes_in_long_double():
    # a long double is 80 bits on x86-64 Linux and 64 on macOS arm64, so a
    # value computed in one would tie written bytes to the platform
    src = Path(__file__).resolve().parents[1] / "src" / "exactpp"
    named = [p.name for p in sorted(src.glob("*.py"))
             if any(t in p.read_text() for t in ("longdouble", "float128", "float96"))]
    assert named == []


AVX512_GROUPS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def test_demo_pins_hold_with_avx512_kernels_off(tmp_path):
    """The demo pattern and report pins, rerun in a child process with
    numpy's AVX-512 kernels off (NPY_DISABLE_CPU_FEATURES acts only on that
    child): no report pin fails, and every pattern pin that fails is one
    marked as depending on numpy's SIMD kernels. Only the groups this CPU has
    are disabled, so on a CPU without AVX-512 the child runs the default
    dispatch."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               NPY_DISABLE_CPU_FEATURES=" ".join(g for g in AVX512_GROUPS if g in simd_found()))
    found = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'tests'); import pins; "
         "print(' '.join(pins.simd_found()))"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert found.returncode == 0, found.stderr
    assert not set(found.stdout.split()) & set(AVX512_GROUPS)
    xml = tmp_path / "pins.xml"
    tests = [f"{__file__}::test_demo_patterns_keep_their_bytes",
             f"{__file__}::test_demo_validation_reports_keep_their_bytes"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={xml}",
         *tests], cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode in (0, 1), run.stdout + run.stderr
    cases = ET.parse(xml).getroot().iter("testcase")
    outcomes = {c.get("name"): [(e.tag, e.get("message", "")) for e in c
                                if e.tag in ("failure", "error", "skipped")] for c in cases}
    assert len(outcomes) == 2 * len(DEMO_CONFIGS)
    failed = {name: problems for name, problems in outcomes.items() if problems}
    assert not [name for name in failed if name.startswith("test_demo_validation_reports")]
    assert all(tag == "failure" and "depend on numpy's SIMD kernels" in message
               for problems in failed.values() for tag, message in problems), failed


class _ReadLog(dict):
    """A config object that adds the dotted path of each key read from it to log."""

    def __init__(self, value, path, log):
        super().__init__({
            k: _ReadLog(v, self._at(path, k), log) if isinstance(v, dict) else v
            for k, v in value.items()
        })
        self.path, self.log = path, log

    @staticmethod
    def _at(path, key):
        return f"{path}.{key}" if path else key

    def __getitem__(self, key):
        self.log.add(self._at(self.path, key))
        return super().__getitem__(key)

    def get(self, key, default=None):
        if key in self:
            return self[key]
        return default


def _key_paths(value, path):
    for k, v in value.items():
        yield f"{path}.{k}"
        if isinstance(v, dict):
            yield from _key_paths(v, f"{path}.{k}")


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_every_demo_config_key_is_read(monkeypatch, path):
    """Building a demo config and drawing once reads every key under params and
    window, and the window read is the one the sampler draws on."""
    from exactpp import cli
    from exactpp.core import RngStream, Window

    windows = []

    def logged_window(lower, upper):
        windows.append(Window(lower, upper))
        return windows[-1]

    monkeypatch.setattr(cli, "Window", logged_window)
    cfg, read = cli.load_config(str(path)), set()
    built = cli.build(_ReadLog(cfg, "", read))
    built["sample"](RngStream(cfg["seed"], 0).generator())
    keys = {k for part in ("params", "window") if part in cfg for k in _key_paths(cfg[part], part)}
    assert sorted(keys - read) == []
    if "window" in cfg:
        assert built["window"] is windows[0]


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
    built["sampler"].sandwich  # noqa: B018 - the one read that builds the curve
    assert calls == [1]


def _count_calls(monkeypatch, owner, name):
    """A list that grows by one at each call of owner.name (a function, a
    method or a property) until the test ends."""
    calls = []
    original = inspect.getattr_static(owner, name)
    is_property = isinstance(original, property)
    fn = original.fget if is_property else original

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, property(counting) if is_property else counting)
    return calls


@pytest.mark.parametrize("sampler, owner, name, per_draw", [
    # one overlap (x + box) ∩ W per germ array serves both lam and the cluster points
    ("brix_kendall", "cluster_exact.UniformDisplacement", "overlap", 1),
    # the Steiner weights depend on the radius law and the window only
    ("boolean_disks", "boolean_model.FixedRadius", "moment", 0),
    # the build checks the branching config; its draws reuse the result
    ("branching_approx", "cluster_exact.UniformDisplacement", "support_radius", 0),
    ("branching_approx", "branching_approx", "_certificate", 0),
])
def test_draws_redo_no_build_time_work(monkeypatch, sampler, owner, name, per_draw):
    """50 draws of a built sampler, after its first, call a helper whose result
    the config fixes per_draw times each."""
    import importlib

    from exactpp import cli
    from exactpp.core import RngStream

    module, _, attr = owner.partition(".")
    target = importlib.import_module(f"exactpp.{module}")
    target = getattr(target, attr) if attr else target
    built = cli.build(cli.load_config(str(CONFIG_DIR / f"{sampler}.json")))
    built["sample"](RngStream(5, 0).generator())
    calls = _count_calls(monkeypatch, target, name)
    for r in range(1, 51):
        built["sample"](RngStream(5, r).generator())
    assert len(calls) == 50 * per_draw


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


@pytest.mark.parametrize("shape", [1.0, 1.5, 2.0, 3.3, 7.5, 20.0, 50.0])
def test_gamma_hazard_matches_scipy(shape):
    special = pytest.importorskip("scipy.special")
    from exactpp.germ_thinning import _gamma_hazard, _gamma_q

    xs = np.geomspace(1e-8, 300.0, 500)
    q = np.array([_gamma_q(shape, x) for x in xs])
    np.testing.assert_allclose(q, special.gammaincc(shape, xs), rtol=1e-12, atol=0)
    # the hazard as scipy.stats.gamma's pdf / sf gives it, capped at 1 / scale
    scale = 2.0
    pdf = np.exp(special.xlogy(shape - 1.0, xs) - xs - special.gammaln(shape)) / scale
    expect = np.minimum(pdf / special.gammaincc(shape, xs), 1.0 / scale)
    hazard = _gamma_hazard(shape, scale)
    np.testing.assert_allclose([hazard(scale * x) for x in xs], expect, rtol=1e-12, atol=0)


def test_sample_writes_validation_report_when_enabled(tmp_path):
    cfg = dict(POISSON_CFG, seed=5,
               validation={"enabled": True, "replicates": 300})
    rc, outdir = _sample(tmp_path, cfg)
    assert rc == 0
    reports = json.loads((outdir / "validation_report.json").read_text())
    assert isinstance(reports, list) and reports
    assert all({"name", "decision", "statistic"} <= set(r) for r in reports)


# -- plotdata -----------------------------------------------------------------------

# sha256 of each plot kind's CSV for the configs below
PLOTDATA_SHA256 = {
    "points-2d": "3ab20d93fc80ba40d205fdcf9888b485971be392ded5058e29d153bd5f43570c",
    "counts-histogram": "799e4e4f56b51169abba558641ce1d24a4fe28d080ac982986e60d449cd191d6",
    "sandwich-curves": "3d49ebee91631eb60f25c454cdcb543c527c2f6ed11f4d8d9f3d1a71e96a0d2b",
    "coverage-raster": "691d470f3b25f394ffbfef55c35d9d14a130901f7bdbc7c4d6f571d894496824",
}


def _plot_lines(tmp_path, kind):
    """The lines of a plotdata CSV, after checking its bytes against the pin."""
    data = (tmp_path / "pd" / f"{kind}.csv").read_bytes()
    # the certified curve's bounds go through np.exp and np.expm1
    assert hashlib.sha256(data).hexdigest() == PLOTDATA_SHA256[kind], pin_message(
        f"{kind} plot data", kind == "sandwich-curves")
    return data.decode().splitlines()



def test_plotdata_points_2d(tmp_path):
    rc = main(["plotdata", "-c", _cfg_file(tmp_path, POISSON_CFG),
               "--kind", "points-2d", "-o", str(tmp_path / "pd")])
    assert rc == 0
    lines = _plot_lines(tmp_path, "points-2d")
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
    lines = _plot_lines(tmp_path, "counts-histogram")
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
    lines = _plot_lines(tmp_path, "sandwich-curves")
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
    lines = _plot_lines(tmp_path, "coverage-raster")
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
