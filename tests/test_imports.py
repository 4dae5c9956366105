"""Start-up cost and dependencies: numpy is the only runtime dependency, so
with scipy hidden, importing the package and every module and running every
CLI command on the demo configs still succeed. Importing the package and
the CLI, building the Hawkes, Brix-Kendall, Boolean, Poisson-line and
renewal demo configs and drawing from them load no scipy module, and neither
does `exactpp sample` with validation on. Building and drawing from every
demo config loads neither the oracles nor csv: only validation needs the
one, and only reading a pattern back the other, so a fresh process shows
what a cold run pays. Nor does such a run load the modules of samplers other
than the one its config names, or concurrent.futures when it runs with one
worker. Neither an import nor a build loads dataclasses or argparse, and a
sample run with validation off loads no validation module. Only the
certified curve's readers (the sandwich-curves plot and its names in the
package) load exactpp.sandwich: no Hawkes import, sample or validate does."""

import functools
import importlib
import json
import os
import re
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


RUN_AS_MAIN_SCRIPT = """
import json, runpy, sys
from pathlib import Path
root, codes = Path(sys.argv[1]), []
for path in sorted(Path("configs").glob("*.json")):
    cfg = json.loads(path.read_text())
    cfg.setdefault("validation", {})["enabled"] = True
    out = root / path.stem
    out.mkdir()
    (out / "config.json").write_text(json.dumps(cfg))
    sys.argv = ["exactpp", "sample", "-c", str(out / "config.json"), "-o", str(out / "o")]
    try:  # as `python -m exactpp.cli sample ...` runs it
        runpy.run_module("exactpp.cli", run_name="__main__")
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps([codes, "exactpp.cli" in sys.modules]))
"""


def test_cli_run_as_main_is_not_imported_again(tmp_path):
    """Under `python -m exactpp.cli` the CLI is __main__; a builder that
    imported exactpp.cli would compile and run the CLI module a second time.
    Validated runs of every demo config import no exactpp.cli."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), EXACTPP_WORKERS="1")
    out = subprocess.run(
        [sys.executable, "-c", RUN_AS_MAIN_SCRIPT, str(tmp_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    codes, imported = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * 11 and imported is False


def test_each_builder_is_defined_in_the_module_its_entry_names():
    from exactpp import cli

    for sampler, (home, _, _) in cli._BUILDERS.items():
        module = importlib.import_module(f"exactpp.{home or 'cli'}")
        assert getattr(module, f"_build_{sampler}").__module__ == module.__name__, sampler


PLOT_MODULE_SCRIPT = """
import json, sys
import exactpp.cli as cli
cfg, out = "configs/boolean_disks.json", sys.argv[1]
loaded = []
for argv in (["sample", "-c", cfg, "-o", out], ["validate", "-c", cfg],
             ["plotdata", "-c", cfg, "--kind", "coverage-raster", "-o", out]):
    assert cli.main(argv) == 0
    loaded.append("exactpp.plotdata" in sys.modules)
print(json.dumps(loaded))
"""


def test_only_plotdata_loads_the_plot_module(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), EXACTPP_WORKERS="1")
    out = subprocess.run(
        [sys.executable, "-c", PLOT_MODULE_SCRIPT, str(tmp_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == [False, False, True]


SANDWICH_SCRIPT = """
import json, sys
loaded = lambda: "exactpp.sandwich" in sys.modules
import exactpp.hawkes_mr as hawkes_mr
import exactpp.cli as cli
cfg, out = "configs/hawkes_mr.json", sys.argv[1]
steps = {"import": loaded()}
validated = json.load(open(cfg))
validated.setdefault("validation", {})["enabled"] = True
json.dump(validated, open(out + "/config.json", "w"))
steps["sample"] = [cli.main(["sample", "-c", out + "/config.json", "-o", out + "/s"]), loaded()]
steps["validate"] = [cli.main(["validate", "-c", cfg]), loaded()]
steps["plotdata"] = [cli.main(["plotdata", "-c", cfg, "--kind", "sandwich-curves",
                               "-o", out + "/p"]), loaded()]
import exactpp.sandwich as sandwich
steps["same"] = [getattr(hawkes_mr, n) is getattr(sandwich, n)
                 for n in ("build_sandwich", "PhiOperator", "Sandwich")]
print(json.dumps(steps))
"""


def test_only_readers_of_the_certified_curve_load_its_module(tmp_path):
    """Importing hawkes_mr and a cold validated `exactpp sample` and `exactpp
    validate` of the Hawkes demo compile no certified curve; the sandwich-curves
    plot loads exactpp.sandwich, whose names hawkes_mr resolves for perfbench."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), EXACTPP_WORKERS="1")
    out = subprocess.run(
        [sys.executable, "-c", SANDWICH_SCRIPT, str(tmp_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    steps = json.loads(out.stdout.splitlines()[-1])
    assert steps == {"import": False, "sample": [0, False], "validate": [0, False],
                     "plotdata": [0, True], "same": [True, True, True]}


PACKAGE_SANDWICH_SCRIPT = """
import sys
from exactpp import build_sandwich
print(build_sandwich.__module__, "exactpp.sandwich" in sys.modules)
"""


def test_package_names_of_the_certified_curve_load_its_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", PACKAGE_SANDWICH_SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert out.stdout.split() == ["exactpp.sandwich", "True"]


HIDDEN_SCIPY_SCRIPT = """
import importlib, json, pkgutil, sys
from pathlib import Path
sys.modules["scipy"] = None  # every import of scipy or a submodule now fails
import numpy as np
import exactpp
modules = sorted(m.name for m in pkgutil.iter_modules(exactpp.__path__))
for name in modules:
    importlib.import_module(f"exactpp.{name}")
for name in exactpp.__all__:
    getattr(exactpp, name)
import exactpp.cli as cli
root, codes = Path(sys.argv[1]), {}
for path in sorted(Path("configs").glob("*.json")):
    cfg = json.loads(path.read_text())
    cfg.setdefault("validation", {})["enabled"] = True
    (root / path.name).write_text(json.dumps(cfg))
    config = str(root / path.name)
    codes[path.stem] = [cli.main(["sample", "-c", config, "-o", str(root / path.stem)]),
                        cli.main(["validate", "-c", config])]
for config, kind in [("poisson", "points-2d"), ("poisson", "counts-histogram"),
                     ("hawkes_mr", "sandwich-curves"), ("boolean_disks", "coverage-raster")]:
    codes[kind] = cli.main(["plotdata", "-c", f"configs/{config}.json", "--kind", kind,
                            "-o", str(root / "plots")])
from exactpp.poisson import FiniteDensitySampler
from exactpp.validation import chi_square
chi = chi_square([48, 52, 100], [0.25, 0.25, 0.5]).to_dict()
density = lambda t: np.exp(-np.asarray(t, dtype=float))
tailed = FiniteDensitySampler(density, 1.0, tail_mass=lambda t: float(np.exp(-t)))
ended = FiniteDensitySampler(density, 1.0, upper=30.0)
loaded = sorted(m for m, v in sys.modules.items() if m.split(".")[0] == "scipy" and v is not None)
print(json.dumps({"modules": modules, "codes": codes, "chi": chi,
                  "masses": [tailed.total_mass, ended.total_mass], "scipy": loaded}))
"""


def test_every_module_and_command_runs_with_scipy_hidden(tmp_path):
    """One process with scipy blocked in sys.modules imports every module,
    runs `sample` with validation on and `validate` for every demo config and
    `plotdata` for each kind, and calls chi_square and both
    FiniteDensitySampler forms; each must succeed without scipy."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), EXACTPP_WORKERS="1")
    out = subprocess.run(
        [sys.executable, "-c", HIDDEN_SCIPY_SCRIPT, str(tmp_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    run = json.loads(out.stdout.splitlines()[-1])
    configs = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
    assert len(configs) == 11
    assert run["modules"] == sorted(p.stem for p in (ROOT / "src" / "exactpp").glob("*.py")
                                    if p.stem != "__init__")
    assert run["codes"] == {**{c: [0, 0] for c in configs}, "points-2d": 0,
                            "counts-histogram": 0, "sandwich-curves": 0, "coverage-raster": 0}
    assert run["chi"]["decision"] == "accept" and run["chi"]["details"]["df"] == 2
    assert run["masses"] == [1.0, None]
    assert run["scipy"] == []


def _requirement_names(requirements):
    return [re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower() for r in requirements]


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert _requirement_names(project["dependencies"]) == ["numpy"]
    assert "scipy" in _requirement_names(project["optional-dependencies"]["test"])
