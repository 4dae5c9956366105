"""Start-up cost: importing the package and the CLI, building the Hawkes,
Brix-Kendall, Boolean, Poisson-line and renewal demo configs and drawing from
them load no scipy module. `exactpp sample` with validation on loads no scipy
module for the configs whose validation is a mean check and a two-sample KS
test against an oracle, since that test's p-value is computed with numpy
alone. Building and drawing from every demo config loads neither
the oracles nor csv: only validation needs the one, and only reading a
pattern back the other. scipy is imported only inside the routines that call it (quadrature
and the one-sample KS and chi-square tests), so a fresh
process shows what a cold run pays. Nor does such a run load the modules of
samplers other than the one its config names, or concurrent.futures when it
runs with one worker. Neither an import nor a build loads dataclasses or
argparse, and a sample run with validation off loads no validation module."""

import functools
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
    "config",
    ["hawkes_mr", "brix_kendall", "boolean_disks", "boolean_segments", "poisson_lines", "renewal"],
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


CLI_SCRIPT = """
import json, sys
import exactpp.cli
cfg = json.load(open(sys.argv[1]))
cfg.setdefault("validation", {})["enabled"] = True
json.dump(cfg, open(sys.argv[2] + "/config.json", "w"))
code = exactpp.cli.main(["sample", "-c", sys.argv[2] + "/config.json", "-o", sys.argv[2] + "/out"])
print(json.dumps({
    "code": code,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "exactpp": sorted(m for m in sys.modules if m.startswith("exactpp.")),
    "futures": "concurrent.futures" in sys.modules,
}))
"""


@pytest.fixture(scope="module")
def validated_sample(tmp_path_factory):
    """What a fresh `exactpp sample` with validation on and one worker loaded, per
    config: its exit code and loaded modules. Each config runs once per module."""

    @functools.cache
    def run(config):
        tmp_path = tmp_path_factory.mktemp(config)
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

    return run


@pytest.mark.parametrize(
    "config", ["brix_kendall", "grid_thinning", "hawkes_mr", "matern", "nonlinear_hawkes", "renewal"]
)
def test_validated_sample_loads_no_scipy(config, validated_sample):
    run = validated_sample(config)
    assert run["code"] == 0
    assert run["scipy"] == []


# the exactpp modules a validated run loads besides cli, core and validation
SAMPLER_MODULES = {
    "boolean_disks": ["boolean_model"],
    "boolean_segments": ["boolean_model"],
    "branching_approx": ["branching_approx", "cluster_exact"],
    "brix_kendall": ["cluster_exact", "oracles"],
    "grid_thinning": ["germ_thinning", "oracles"],
    "hawkes_mr": ["branching_approx", "hawkes_mr", "oracles"],  # the Galton-Watson engine
    "matern": ["germ_thinning", "oracles"],
    "nonlinear_hawkes": ["germ_thinning", "oracles"],
    "poisson": [],
    "poisson_lines": ["boolean_model"],
    "renewal": ["germ_thinning", "oracles"],
}


@pytest.mark.parametrize("config", sorted(p.stem for p in (ROOT / "configs").glob("*.json")))
def test_validated_sample_loads_only_its_sampler(config, validated_sample):
    run = validated_sample(config)
    assert run["code"] == 0
    expected = ["cli", "core", "validation", *SAMPLER_MODULES[config]]
    assert run["exactpp"] == sorted(f"exactpp.{m}" for m in expected)
    assert not run["futures"]


BUILD_SCRIPT = """
import json, sys
from pathlib import Path
import exactpp.cli as cli
after_import = "numpy.random" in sys.modules
for path in sorted(Path("configs").glob("*.json")):
    cli.build(cli.load_config(str(path)))
print(json.dumps([after_import, "numpy.random" in sys.modules]))
"""


def test_import_and_demo_builds_load_no_numpy_random():
    """numpy.random costs about 14 ms to import; only drawing should pay it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", BUILD_SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == [False, False]


VALIDATION_SCRIPT = """
import json, sys
from pathlib import Path
import exactpp.cli as cli
for path in sorted(Path("configs").glob("*.json")):
    cli.build(cli.load_config(str(path)))
print(json.dumps("exactpp.validation" in sys.modules))
"""


def test_import_and_demo_builds_load_no_validation():
    """Only a run that validates or writes meta.json loads the validation module."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", VALIDATION_SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) is False


NO_CODEGEN_SCRIPT = """
import json, sys
from pathlib import Path
import exactpp, exactpp.cli as cli
for path in sorted(Path("configs").glob("*.json")):
    cli.build(cli.load_config(str(path)))
import exactpp.validation, exactpp.oracles
print(json.dumps(sorted(m for m in ("dataclasses", "argparse") if m in sys.modules)))
"""


def test_import_builds_and_validation_modules_load_no_dataclasses_or_argparse():
    """The value classes are plain classes, so no import compiles generated
    methods with exec; and argparse (with gettext and locale) waits for main()."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", NO_CODEGEN_SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == []


SAMPLE_SCRIPT = """
import json, sys
from pathlib import Path
import exactpp.cli as cli
codes = [cli.main(["sample", "-c", str(path), "-o", str(Path(sys.argv[1]) / path.stem)])
         for path in sorted(Path("configs").glob("*.json"))]
print(json.dumps([codes, "exactpp.validation" in sys.modules]))
"""


def test_sample_runs_without_validation_load_no_validation(tmp_path):
    """meta.json's values are made plain by core, so only validating loads validation."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), EXACTPP_WORKERS="1")
    out = subprocess.run(
        [sys.executable, "-c", SAMPLE_SCRIPT, str(tmp_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    codes, loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * 11 and loaded is False


DRAW_SCRIPT = """
import json, sys
from pathlib import Path
import exactpp, exactpp.cli as cli
for path in sorted(Path("configs").glob("*.json")):
    built = cli.build(cli.load_config(str(path)))
    for r in range(2):
        built["sample"](exactpp.RngStream(31, r).generator())
print(json.dumps(sorted(m for m in ("exactpp.oracles", "csv") if m in sys.modules)))
"""


def test_demo_builds_and_draws_load_no_oracles_or_csv():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", DRAW_SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == []
