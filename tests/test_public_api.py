"""Public names resolve: every `__all__` entry of the package and its modules,
and every function, method and oracle that the benchmark tracer wraps (a
deletion there would make each traced benchmark run fail), and Hawkes draws
still call the engine through the name the tracer wraps. And every public
name has a caller outside the unit tests."""

import ast
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import exactpp

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _module(name):
    return importlib.import_module(f"exactpp.{name}")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_exported_name_resolves():
    missing = [name for name in exactpp.__all__ if not hasattr(exactpp, name)]
    for info in pkgutil.iter_modules(exactpp.__path__):
        mod = _module(info.name)
        missing += [
            f"{info.name}.{name}" for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)
        ]
    assert missing == []


def test_exported_names_are_their_modules_objects():
    for name in exactpp.__all__:
        obj = getattr(exactpp, name)
        assert obj is getattr(importlib.import_module(obj.__module__), name), name


def test_package_dir_and_star_import():
    assert set(exactpp.__all__) <= set(dir(exactpp))
    with pytest.raises(AttributeError, match="has no attribute 'not_exported'"):
        exactpp.not_exported  # noqa: B018
    namespace = {}
    exec("from exactpp import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(exactpp.__all__)


def test_every_traced_layer_exists():
    tracer = _tracer()
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in tracer.FUNCTIONS
        if not callable(getattr(_module(mod), attr, None))
    ]
    missing += [
        f"{mod}.{cls}.{attr}"
        for mod, cls, attr, _ in tracer.METHODS
        if not callable(getattr(getattr(_module(mod), cls, None), attr, None))
    ]
    missing += [
        f"oracles.{attr}"
        for attr in tracer.ORACLES
        if not callable(getattr(_module("oracles"), attr, None))
    ]
    assert missing == []


TRACED_DRAWS = """
import importlib.util, json, sys
import exactpp.cli as cli
from exactpp import RngStream

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
tracer.install(t)
for config in ("hawkes_mr", "branching_approx"):
    built = cli.build(cli.load_config(f"configs/{config}.json"))
    for r in range(5):
        built["sample"](RngStream(7, r).generator())
print(json.dumps({name: v[0] for name, v in t.summary()["spans"].items()}))
"""


def test_traced_draws_pass_through_the_wrapped_engine():
    """The tracer's Galton-Watson wrapper sees every Hawkes draw and no branching
    draw: a name that resolves but is no longer called would read 0 spans."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", TRACED_DRAWS, str(TRACER_PATH)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    spans = json.loads(out.stdout.splitlines()[-1])
    assert spans["hawkes_mr.gw_cluster"] == 5
    assert spans["hawkes_mr.sample"] == spans["branching_approx.sample"] == 5


# Public names that nothing in the package, the benchmark or the acceptance
# tests calls, kept because unit tests use them as references.
UNCALLED_ALLOWED = {
    "ks_against_cdf": "one-sample KS against a closed-form CDF, the reference in law tests",
    "retained_mass": "closed-form mean of retained germs, the reference for germ-count tests",
    "hawkes_bounded_burn_in": "one-chain Ogata thinning, the reference for its lockstep form",
}


def _all_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _references(tree, strings=False):
    """Names a module uses: loads, attributes, imports that are not re-exports,
    getattr strings and, with `strings`, every identifier-shaped string."""
    reexports = _all_names(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names if a.name not in reexports)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
            found.update(a.value for a in node.args[1:2] if isinstance(a, ast.Constant))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.add(node.value)
    return found


def test_every_public_name_has_a_caller():
    """Each name in a module's `__all__` and each public method is used by the
    package, the benchmark, the acceptance tests or a README example. Unit
    tests do not count: a name only they call is dead surface."""
    sources = sorted((ROOT / "src" / "exactpp").glob("*.py"))
    trees = {p.stem: ast.parse(p.read_text()) for p in sources}
    used = set().union(*(_references(t) for t in trees.values()))
    used |= _references(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    # the benchmark names the layers it wraps as strings and resolves them with getattr
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _references(ast.parse(path.read_text()), strings=True)
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))

    public = []
    for mod, tree in trees.items():
        defined = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        public += [f"{mod}.{name}" for name in sorted(_all_names(tree) & defined)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            public += [
                f"{mod}.{cls.name}.{f.name}"
                for f in cls.body
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not f.name.startswith("_")
            ]
    dead = [q for q in public if q.rsplit(".", 1)[1] not in used | UNCALLED_ALLOWED.keys()]
    assert not dead, "no caller outside the unit tests: " + ", ".join(dead)
    assert not UNCALLED_ALLOWED.keys() & used, "allowlisted names that now have a caller"


# Defaulted parameters that nothing in the package, the benchmark, the
# acceptance tests or a README example passes, kept because unit tests pass them.
UNPASSED_ALLOWED = {
    "hawkes_mr.build_sandwich.t_max": "a short grid builds the sandwich tests' small curves",
    "hawkes_mr.build_sandwich.quad_tol": "the refusal of a too coarse grid is tested with it",
    "poisson.FiniteDensitySampler.__init__.upper": "the finite-density sampler is a tested "
    "reference that no sampler uses; its tests give a support endpoint",
    "poisson.FiniteDensitySampler.__init__.total_mass": "its tests give the mass in closed form",
    "poisson.FiniteDensitySampler.__init__.tail_mass": "its tests give a tail to certify",
    "validation.chi_square.name": "the chi-square test runs only in tests, under its own name",
    "validation.chi_square.min_expected": "tests check the pooling of sparse cells with it",
}


def _code_trees():
    """The syntax trees whose calls count: the package, the benchmark, the
    acceptance tests and the README's Python examples."""
    paths = [*sorted((ROOT / "src" / "exactpp").glob("*.py")), *sorted(
        (ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    trees = [ast.parse(p.read_text()) for p in paths]
    readme = (ROOT / "README.md").read_text()
    return trees + [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]


def _passes(call):
    """The callee's name, how many leading positions the call fills (all of them
    after a *args), and the keywords it passes (None after a **kwargs). A call
    of cli._made(path, make, *args) is the call make(*args)."""
    func, args = call.func, call.args
    name = getattr(func, "id", getattr(func, "attr", None))
    if name == "_made" and len(args) >= 2:
        name, args = getattr(args[1], "id", getattr(args[1], "attr", None)), args[2:]
    starred = [i for i, a in enumerate(args) if isinstance(a, ast.Starred)]
    positions = starred[0] + math.inf if starred else len(args)
    keywords = {k.arg for k in call.keywords}
    return name, positions, None if None in keywords else keywords


def _defaulted_parameters(trees):
    """(qualified name, callee names, position or None, name) of each defaulted
    parameter of a public function, public method or constructor, but not of a
    function that only unit tests call (UNCALLED_ALLOWED); a method's positions
    skip self, and a constructor is called by its class's name or through
    super().__init__."""
    for mod, tree in trees.items():
        defs = [(f"{mod}.{n.name}", {n.name}, n, 0) for n in tree.body
                if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")
                and n.name not in UNCALLED_ALLOWED]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            if cls.name.startswith("_"):
                continue
            for f in cls.body:
                if not isinstance(f, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
                if f.name == "__init__":
                    defs.append((f"{mod}.{cls.name}.__init__", {cls.name, "__init__"}, f, 1))
                elif not f.name.startswith("_"):
                    defs.append((f"{mod}.{cls.name}.{f.name}", {f.name}, f, 0 if static else 1))
        for qual, callees, f, skip in defs:
            a = f.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            for i, p in enumerate(positional[first:], first):
                yield f"{qual}.{p.arg}", callees, i - skip, p.arg
            for p, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield f"{qual}.{p.arg}", callees, None, p.arg


def test_every_defaulted_parameter_has_a_caller():
    """Each defaulted parameter of a public function, method or constructor is
    passed, by position, by keyword or through *args or **kwargs, by some call
    in the package, the benchmark, the acceptance tests or a README example.
    A default that only unit tests override is a parameter that cannot change
    what a user gets."""
    sources = sorted((ROOT / "src" / "exactpp").glob("*.py"))
    package = {p.stem: ast.parse(p.read_text()) for p in sources}
    calls = {}
    for tree in _code_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name, positions, keywords = _passes(node)
                calls.setdefault(name, []).append((positions, keywords))

    def passed(callees, position, name):
        return any(
            (position is not None and position < positions) or keywords is None
            or name in keywords
            for callee in callees for positions, keywords in calls.get(callee, ())
        )

    unpassed = {qual for qual, callees, position, name in _defaulted_parameters(package)
                if not passed(callees, position, name)}
    assert not unpassed - UNPASSED_ALLOWED.keys(), (
        "defaulted parameters that no call outside the unit tests passes: "
        + ", ".join(sorted(unpassed - UNPASSED_ALLOWED.keys())))
    assert not UNPASSED_ALLOWED.keys() - unpassed, "allowlisted parameters that are passed or gone"
