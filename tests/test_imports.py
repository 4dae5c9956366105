"""Start-up cost: importing the package and the CLI, building the Hawkes,
Brix-Kendall, Boolean and Poisson-line demo configs and drawing from them
load no scipy module, and the renewal demo config loads no scipy.stats
module. `exactpp sample` with validation on loads no scipy module for the
configs whose validation is a mean check and a two-sample KS test against an
oracle, since that test's p-value is computed with numpy alone; renewal's run
loads scipy.special, never scipy.stats. scipy is imported only inside the
routines that call it (quadrature, the trigamma tail, the gamma hazard
through scipy.special, and the one-sample KS and chi-square tests), so a
fresh process shows what a cold run pays."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import exactpp, exactpp.cli
after_import = scipy_modules()
built = exactpp.cli.build(exactpp.cli.load_config(sys.argv[1]))
for r in range(4):
    built["sample"](exactpp.RngStream(31, r).generator())
print(json.dumps([after_import, scipy_modules()]))
"""


@pytest.mark.parametrize(
    "config", ["hawkes_mr", "brix_kendall", "boolean_disks", "boolean_segments", "poisson_lines"]
)
def test_import_and_hawkes_run_load_no_scipy(config):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, f"configs/{config}.json"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    after_import, after_draws = json.loads(out.stdout.splitlines()[-1])
    assert after_import == []
    assert after_draws == []


RENEWAL_SCRIPT = """
import json, sys
import exactpp, exactpp.cli
built = exactpp.cli.build(exactpp.cli.load_config("configs/renewal.json"))
for r in range(5):
    built["sample"](exactpp.RngStream(19, r).generator())
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_renewal_run_loads_no_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", RENEWAL_SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert "scipy.special" in loaded
    assert [m for m in loaded if m == "scipy.stats" or m.startswith("scipy.stats.")] == []


CLI_SCRIPT = """
import json, sys
import exactpp.cli
cfg = json.load(open(sys.argv[1]))
cfg.setdefault("validation", {})["enabled"] = True
json.dump(cfg, open(sys.argv[2] + "/config.json", "w"))
code = exactpp.cli.main(["sample", "-c", sys.argv[2] + "/config.json", "-o", sys.argv[2] + "/out"])
print(json.dumps([code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def _validated_sample(config, tmp_path):
    """(exit code, loaded scipy modules) of a fresh `exactpp sample` with validation on."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), EXACTPP_WORKERS="1")
    out = subprocess.run(
        [sys.executable, "-c", CLI_SCRIPT, f"configs/{config}.json", str(tmp_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert (tmp_path / "out" / "validation_report.json").is_file()
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "config", ["brix_kendall", "grid_thinning", "hawkes_mr", "matern", "nonlinear_hawkes"]
)
def test_validated_sample_loads_no_scipy(config, tmp_path):
    code, loaded = _validated_sample(config, tmp_path)
    assert code == 0
    assert loaded == []


def test_validated_renewal_sample_loads_no_scipy_stats(tmp_path):
    code, loaded = _validated_sample("renewal", tmp_path)
    assert code == 0
    assert [m for m in loaded if m == "scipy.stats" or m.startswith("scipy.stats.")] == []
