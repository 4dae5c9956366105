"""Start-up cost: importing the package and the CLI, building the Hawkes,
Brix-Kendall, Boolean and Poisson-line demo configs and drawing from them
load no scipy module, and the renewal demo config loads no scipy.stats
module. scipy is imported only inside the routines that
call it (quadrature, the trigamma tail, the gamma hazard through
scipy.special, and the validation tests), so a fresh process shows what a
cold run pays."""

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
