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
import operator
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


def _tracer(path=TRACER_PATH):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
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
    assert spans["hawkes_mr.gw_cluster"] == spans["hawkes_mr.conditioned_cluster"] == 5
    assert spans["hawkes_mr.sample"] == spans["branching_approx.sample"] == 5


# Public names that nothing in the package, the benchmark or the acceptance
# tests uses, kept because unit tests use them as references.
UNCALLED_ALLOWED = {
    "oracles.hawkes_bounded_burn_in": "one-chain Ogata thinning, the reference for its "
    "lockstep form",
    "poisson.FiniteDensitySampler.total_mass": "the benchmark tracer alone keeps the "
    "finite-density module, until the benchmark stops wrapping it (ROADMAP item 8)",
}

# attribute loads on these modules name their functions, never the package's
_FOREIGN = {"np", "math"}


def _all_names(tree):
    """The names of a module's `__all__` list; the package computes its own
    from the names it resolves lazily, so a computed one is the package's."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, ast.List):
                return {elt.value for elt in node.value.elts}
            return set(exactpp.__all__)
    return set()


def _base(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return getattr(node, "id", None)


def _written_only(tree):
    """The attribute loads that only write into the attribute: x.a in x.a[k] = v,
    in del x.a[k] and in a statement x.a.append(...) or x.a.extend(...)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            found.add(id(node.value))
        elif (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Attribute)
              and node.value.func.attr in ("append", "extend")):
            found.add(id(node.value.func.value))
    return found


def _uses(tree):
    """(names, attributes) a module uses. Names: bare-name loads and imports
    that are not re-exports. Attributes: attribute loads, except on np and
    math and those that only write into the attribute, and getattr strings.
    An assignment uses nothing."""
    reexports = _all_names(tree)
    written = _written_only(tree)
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if _base(node) not in _FOREIGN and id(node) not in written:
                attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names if a.name not in reexports)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
            attrs.update(a.value for a in node.args[1:2] if isinstance(a, ast.Constant))
    return names, attrs


def _readme_uses(text):
    """(names, attributes) of the README's fenced and inline code: every word,
    and every word after a dot that does not follow np or math."""
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    code = "\n".join(re.findall(r"```.*?```", text, re.S) + re.findall(r"`([^`\n]+)`", prose))
    return set(re.findall(r"\w+", code)), set(re.findall(r"(?<!\bnp)(?<!\bmath)\.(\w+)", code))


def _instance_attributes(cls):
    """The public attributes a class's __init__ sets on self, by assignment or
    through self.__dict__.update, less its _fields, which value semantics read."""
    fields, init = set(), None
    for node in cls.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_fields"
                                                for t in node.targets):
            fields = set(ast.literal_eval(node.value))
        elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
            init = node
    found = set()
    for node in ast.walk(init) if init else ():
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if getattr(node.value, "id", None) == "self":
                found.add(node.attr)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "self.__dict__.update":
            found.update(k.arg for k in node.keywords if k.arg)
    return sorted(a for a in found - fields if not a.startswith("_"))


def _uncalled(root):
    """The public names under root that nothing outside the unit tests uses:
    each `__all__` name, public method and public instance attribute of the
    package. A module-level name counts as used by a bare name or an attribute
    load anywhere in the package or the acceptance tests, and a class member
    only by an attribute load. The README counts only in its code, and the
    benchmark only by its attribute loads and the names its tracer resolves."""
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((root / "src" / "exactpp").glob("*.py"))}
    names, attrs = set(), set()
    for tree in [*trees.values(), ast.parse((root / "tests" / "test_acceptance.py").read_text())]:
        n, a = _uses(tree)
        names |= n
        attrs |= a
    n, a = _readme_uses((root / "README.md").read_text())
    names |= n
    attrs |= a
    for path in (root / "perfbench").glob("*.py"):
        attrs |= _uses(ast.parse(path.read_text()))[1]
    tracer = _tracer(root / "perfbench" / "tracer.py")
    attrs |= {name for entry in tracer.FUNCTIONS + tracer.METHODS for name in entry[1:-1]}
    attrs |= set(tracer.ORACLES)
    names |= attrs

    uncalled = []
    for mod, tree in trees.items():
        defined = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        uncalled += [f"{mod}.{name}" for name in sorted((_all_names(tree) & defined) - names)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            members = [f.name for f in cls.body
                       if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not f.name.startswith("_")]
            if not cls.name.startswith("_"):
                members += _instance_attributes(cls)
            uncalled += [f"{mod}.{cls.name}.{m}" for m in members if m not in attrs]
    return uncalled


def test_every_public_name_has_a_caller():
    """Each name in a module's `__all__`, each public method and each public
    instance attribute is used by the package, the benchmark, the acceptance
    tests or the README's code. Unit tests do not count: a name only they use
    is dead surface."""
    uncalled = set(_uncalled(ROOT))
    dead = sorted(uncalled - UNCALLED_ALLOWED.keys())
    assert not dead, "no caller outside the unit tests: " + ", ".join(dead)
    assert not UNCALLED_ALLOWED.keys() - uncalled, "allowlisted names that are used or gone"


GUARDED_MODULE = """
import numpy as np

__all__ = ["Thing", "make"]


class Thing:
    def __init__(self):
        self.kept = 1
        self.assigned_only = 2
        self.written_only = [0]

    def in_readme_code(self):
        self.written_only.append(self.kept)
        self.written_only.extend([self.kept])
        self.written_only[0] = 3
        del self.written_only[0]
        return self.kept

    def in_benchmark_code(self):
        pass

    def prose_only(self):
        pass

    def numpy_only(self):
        pass

    def local_only(self):
        pass

    def perfbench_only(self):
        pass


def make():
    local_only = Thing()
    return np.numpy_only, local_only
"""


def test_the_caller_guard_sees_names_that_only_look_used(tmp_path):
    """A member named only in README prose, as np.<name>, as a local variable
    or in a benchmark string, an instance attribute that is only assigned,
    and one that is only written into (appended to, or stored or deleted at
    an index), have no caller; members read in README code, in the
    benchmark's code or by the package do."""
    (tmp_path / "src" / "exactpp").mkdir(parents=True)
    (tmp_path / "src" / "exactpp" / "mod.py").write_text(GUARDED_MODULE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text("from exactpp.mod import make\n")
    (tmp_path / "README.md").write_text(
        "`make().in_readme_code()` reads a thing; prose_only is only named.\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "tracer.py").write_text(
        'FUNCTIONS = METHODS = ORACLES = ()\nCONFIG = {"perfbench_only": 1}\n\n\n'
        "def run(thing):\n    thing.in_benchmark_code()\n")
    assert _uncalled(tmp_path) == [
        f"mod.Thing.{name}" for name in
        ("prose_only", "numpy_only", "local_only", "perfbench_only", "assigned_only",
         "written_only")]


# Defaulted parameters that nothing in the package, the benchmark, the
# acceptance tests or a README example passes, kept because unit tests pass them.
UNPASSED_ALLOWED = {
    "poisson.FiniteDensitySampler.__init__.upper": "the finite-density sampler is a tested "
    "reference that no sampler uses; its tests give a support endpoint",
    "poisson.FiniteDensitySampler.__init__.total_mass": "its tests give the mass in closed form",
    "poisson.FiniteDensitySampler.__init__.tail_mass": "its tests give a tail to certify",
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
    of core._made(path, make, *args) is the call make(*args)."""
    func, args = call.func, call.args
    name = getattr(func, "id", getattr(func, "attr", None))
    if name == "_made" and len(args) >= 2:
        name, args = getattr(args[1], "id", getattr(args[1], "attr", None)), args[2:]
    starred = [i for i, a in enumerate(args) if isinstance(a, ast.Starred)]
    positions = starred[0] + math.inf if starred else len(args)
    keywords = {k.arg for k in call.keywords}
    return name, positions, None if None in keywords else keywords


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _defaulted_parameters(trees):
    """(qualified name, callee names, position or None, name) of each defaulted
    parameter of a function, method or constructor, private ones included and
    dunders other than __init__ left out, but not of a function that only unit
    tests call (UNCALLED_ALLOWED); a method's positions skip self, and a
    constructor is called by its class's name or through super().__init__."""
    for mod, tree in trees.items():
        defs = [(f"{mod}.{n.name}", {n.name}, n, 0) for n in tree.body
                if isinstance(n, ast.FunctionDef) and not _dunder(n.name)
                and f"{mod}.{n.name}" not in UNCALLED_ALLOWED]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for f in cls.body:
                if not isinstance(f, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
                if f.name == "__init__":
                    defs.append((f"{mod}.{cls.name}.__init__", {cls.name, "__init__"}, f, 1))
                elif not _dunder(f.name):
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
    """Each defaulted parameter of a function, method or constructor, private
    or public, is passed, by position, by keyword or through *args or
    **kwargs, by some call in the package, the benchmark, the acceptance
    tests or a README example.
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


# Module-level numbers of at least 2^16 in the package. A memory limit is one
# of core's three; any other large constant would be one more limit tuned alone.
# A large number written inside a function is never allowed: it is hoisted to
# a named module constant that this list gives a reason.
LARGE_CONSTANTS_ALLOWED = {
    "core.MAX_MEAN_POINTS": "the admission limit on a draw's mean count",
    "core.POINT_CAP": "the most points one Galton-Watson engine call grows",
    "core.BLOCK": "the points, pairs or coins that one vectorised step holds",
    "germ_thinning._GAMMA_ITERATIONS": "an iteration bound of the incomplete gamma "
    "expansions, not a size",
    "germ_thinning._LAST_SITES": "the runaway guard of the last-site search, a site "
    "index, not a size",
    "germ_thinning._HORIZON_SITES": "the runaway guard of the grid oracle's horizon "
    "search, a site index, not a size",
    "poisson._UPPER_LIMIT": "the runaway guard of the tail search, a time, not a size",
    "core._M32": "SeedSequence's 32-bit mask, which the Philox keys must reproduce",
    "core._INIT_A": "a SeedSequence hash constant",
    "core._MULT_A": "a SeedSequence hash constant",
    "core._INIT_B": "a SeedSequence hash constant",
    "core._MULT_B": "a SeedSequence hash constant",
    "core._MIX_MULT_L": "a SeedSequence hash constant",
    "core._MIX_MULT_R": "a SeedSequence hash constant",
}

_NUMERIC_OPS = {ast.LShift: operator.lshift, ast.Mult: operator.mul, ast.Pow: operator.pow}


def _numeric(node):
    """The value of a number literal, or of <<, * or ** over such values; None otherwise."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _numeric(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.BinOp) and type(node.op) in _NUMERIC_OPS:
        left, right = _numeric(node.left), _numeric(node.right)
        if left is not None and right is not None:
            return _NUMERIC_OPS[type(node.op)](left, right)
    return None


def _inline_numbers(node, where, found):
    """Append where:line for each number of magnitude at least 2^16 written
    under node, once, in its largest form that _numeric reads."""
    for child in ast.iter_child_nodes(node):
        number = _numeric(child)
        if number is None:
            _inline_numbers(child, where, found)
        elif abs(number) >= 1 << 16:
            found.append(f"{where}:{child.lineno}")


def _large_constants(root):
    """The qualified names of the package's module-level numbers of magnitude
    at least 2^16, assigned alone or in a tuple of names, and as
    module.function:line each such number written inside a function or a
    method, in source order."""
    found = []
    for path in sorted((root / "src" / "exactpp").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _inline_numbers(node, f"{path.stem}.{node.name}", found)
                continue
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        _inline_numbers(item, f"{path.stem}.{node.name}.{item.name}", found)
                continue
            if isinstance(node, ast.Assign):
                pairs = [(t, node.value) for t in node.targets]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                pairs = [(node.target, node.value)]
            else:
                continue
            for target, value in pairs:  # a tuple of names adds its pairs to the list
                if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                    pairs += zip(target.elts, value.elts)
                elif isinstance(target, ast.Name):
                    number = _numeric(value)
                    if number is not None and abs(number) >= 1 << 16:
                        found.append(f"{path.stem}.{target.id}")
    return found


def test_no_large_constant_outside_the_allowlist():
    """Every module-level number of at least 2^16 in the package, as a
    literal, a shift such as 1 << 18 or a product of literals, is allowlisted
    with its reason, and no function or method writes one inline: a refusal
    such as the last-site search's past 10_000_000 sites names its limit as a
    module constant."""
    found = set(_large_constants(ROOT))
    assert not found - LARGE_CONSTANTS_ALLOWED.keys(), (
        "large constants that are not core's memory limits: "
        + ", ".join(sorted(found - LARGE_CONSTANTS_ALLOWED.keys())))
    assert not LARGE_CONSTANTS_ALLOWED.keys() - found, "allowlisted constants that are gone"


def test_the_constant_guard_sees_every_form_of_a_large_number(tmp_path):
    (tmp_path / "src" / "exactpp").mkdir(parents=True)
    (tmp_path / "src" / "exactpp" / "mod.py").write_text(
        "LITERAL = 1_000_000\nSHIFT = 1 << 20\nPRODUCT = 5 * 10**6\nFLOAT = 1e9\n"
        "NEGATIVE = -70_000\nPAIR_A, PAIR_B = 0xFFFF, 0x10000\nTYPED: int = 2**16\n"
        "SMALL = 65_535\nDERIVED = LITERAL // 2\n\n\ndef f(n):\n    return n > 10_000_000\n"
        "\n\nclass C:\n    def g(self, n=65_535):\n        return n < 5 * 10**6 - 1e12\n")
    assert _large_constants(tmp_path) == [
        *(f"mod.{name}" for name in
          ("LITERAL", "SHIFT", "PRODUCT", "FLOAT", "NEGATIVE", "PAIR_B", "TYPED")),
        "mod.f:13", "mod.C.g:18", "mod.C.g:18"]
