"""Every name a module of the package imports is used in that module, no
module imports a memo cache or a thread, every name the benchmark imports
from the package exists, every function, class, method and dataclass field
the package defines is read by code other than the tests, no function
outside input validation picks its work by testing a domain's class, the
kernels read nothing of the tanh-sinh engine, and every argument the
benchmark's tracer reads by name is a parameter of the function it wraps.

No linter runs on this repository, and deleted code tends to leave its
imports behind.  The package's __init__ is exempt: its imports are the
public re-exports.
"""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted(
    path for path in (Path(__file__).resolve().parents[1] / "src"
                      / "resolvent_asym").glob("*.py")
    if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by import statements of `source` that no other
    expression reads; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_the_package_has_modules_to_check():
    assert {path.stem for path in SOURCES} >= {"geometry", "qmeans",
                                               "quadrature"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import itertools\nimport math as m\n"
              "from typing import Iterator, List\n"
              "def f(x: List[int]) -> float:\n    return m.pi\n")
    assert unused_imports(source) == ["Iterator (line 4)",
                                      "itertools (line 2)"]


# Per-query and per-solution work lives in fields of the objects that own it
# (QMeanQuery.rule, RadialSolution.log_k_R), not in memo caches or a pool.
BANNED_MODULES = {"threading", "concurrent"}
BANNED_FUNCTOOLS = {"lru_cache", "cache"}


def banned_uses(source: str) -> list:
    """The memo caches and threads `source` imports or reads: the modules
    threading and concurrent, and functools.lru_cache/cache."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{alias.name} (line {node.lineno})"
                      for alias in node.names
                      if alias.name.split(".")[0] in BANNED_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            for alias in node.names:
                cache = root == "functools" and alias.name in BANNED_FUNCTOOLS
                if root in BANNED_MODULES or cache:
                    found.append(f"{node.module}.{alias.name} "
                                 f"(line {node.lineno})")
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"
              and node.attr in BANNED_FUNCTOOLS):
            found.append(f"functools.{node.attr} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_memo_cache_or_thread(path):
    assert banned_uses(path.read_text(encoding="utf-8")) == []


def test_a_memo_cache_or_thread_is_reported():
    source = ("import functools\nimport concurrent.futures as cf\n"
              "from threading import Lock\nfrom functools import cache, "
              "partial\n@functools.lru_cache(maxsize=None)\ndef f(x):\n"
              "    return x\n")
    assert banned_uses(source) == [
        "concurrent.futures (line 2)", "functools.cache (line 4)",
        "functools.lru_cache (line 5)", "threading.Lock (line 3)"]


# The benchmark imports the package by name, inside its workload functions;
# a renamed name breaks it only when a workload runs.  Its files are read
# here, never imported or changed.
PACKAGE = "resolvent_asym"
BENCHMARK_SOURCES = sorted(
    (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


def unresolved_package_imports(source: str) -> list:
    """The names of `from resolvent_asym[.module] import name` statements in
    `source` that are neither an attribute nor a submodule of that module."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == PACKAGE):
            continue
        try:
            module = importlib.import_module(node.module)
        except ImportError:
            missing.append(f"{node.module} (line {node.lineno})")
            continue
        for alias in node.names:
            submodule = (hasattr(module, "__path__")
                         and importlib.util.find_spec(
                             f"{node.module}.{alias.name}") is not None)
            if hasattr(module, alias.name) or submodule:
                continue
            missing.append(f"{node.module}.{alias.name} (line {node.lineno})")
    return missing


def test_the_benchmark_has_files_to_check():
    assert {path.stem for path in BENCHMARK_SOURCES} >= {"workloads"}


@pytest.mark.parametrize("path", BENCHMARK_SOURCES, ids=lambda path: path.stem)
def test_benchmark_imports_resolve(path):
    assert unresolved_package_imports(path.read_text(encoding="utf-8")) == []


def test_an_unresolved_benchmark_import_is_reported():
    source = ("def run():\n"
              "    from resolvent_asym import cli, no_such_module\n"
              "    from resolvent_asym.radial import Geometry, Gone\n"
              "    from resolvent_asym.gone import x\n"
              "    from numpy import not_checked\n")
    assert unresolved_package_imports(source) == [
        "resolvent_asym.no_such_module (line 2)",
        "resolvent_asym.radial.Gone (line 3)",
        "resolvent_asym.gone (line 4)"]


# A definition that only the tests read is code kept alive by its own
# tests.  Its readers are the package's other modules (not __init__, whose
# imports are re-exports), the rest of its own module, the benchmark and the
# demos.  A read is a name, an attribute or a string equal to the name (the
# benchmark's tracer names some functions by string).  The paper's checks,
# the sine kernel's quadrature oracle and the independent limit oracle are
# read by the tests alone, on purpose.
READ_BY_TESTS_ALONE = {"comparison_chain", "integrate_sin_weighted",
                       "qmean_profile_limit"}
READER_SOURCES = BENCHMARK_SOURCES + sorted(
    (Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _reads(nodes) -> Counter:
    """The names, attributes and string constants read in the trees of
    `nodes`, each with the number of times it is read."""
    found = Counter()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found[node.id] += 1
            elif isinstance(node, ast.Attribute):
                found[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                found[node.value] += 1
    return found


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each top-level function and class of
    `tree`, and of each function (not a dunder) and annotated field in the
    body of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        yield node.name, node.name, node
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name
                if name.startswith("__") and name.endswith("__"):
                    continue
            elif (isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)):
                name = item.target.id
            else:
                continue
            yield f"{node.name}.{name}", name, item


def unread_definitions(modules: dict, readers: list) -> list:
    """`module.name` of each definition of `modules` (module name ->
    source; _definitions) that is read neither by another module, nor by
    the rest of its own module, nor by a source of `readers`."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    outside = _reads(ast.parse(source) for source in readers)
    unread = []
    for name, tree in trees.items():
        read = outside | _reads(t for other, t in trees.items()
                                if other != name)
        total = _reads([tree])
        for qualified, short, node in _definitions(tree):
            if short not in read | (total - _reads([node])):
                unread.append(f"{name}.{qualified}")
    return sorted(unread)


def test_every_definition_is_read_outside_the_tests():
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in SOURCES}
    readers = [path.read_text(encoding="utf-8") for path in READER_SOURCES]
    unread = {entry.split(".", 1)[1]
              for entry in unread_definitions(modules, readers)}
    assert unread <= READ_BY_TESTS_ALONE, sorted(unread - READ_BY_TESTS_ALONE)


def test_an_unread_definition_is_reported():
    modules = {
        "a": ("def helper():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Used:\n    size: int\n    count: int = 0\n"
              "    def shown(self):\n        return self.size\n"
              "    def hidden(self):\n        return self.hidden()\n"
              "    def __repr__(self):\n        return 'Used'\n"
              "def caller():\n    return helper()\n"),
        "b": ("from .a import Used\n"
              "def traced():\n    pass\n"
              "def orphan():\n    return Used\n"),
    }
    readers = ["SPANS = {'traced': 1}\n",
               "import a\na.caller()\na.Used().shown()\n"]
    assert unread_definitions(modules, readers) == [
        "a.Used.count", "a.Used.hidden", "a.recursive", "b.orphan"]


# The kernels are closed forms.  Neither they nor a module function they
# call reads the tanh-sinh engine, which stays their oracle and the
# mollifiers' route, so a quadrature fallback cannot come back unnoticed.
ENGINE_NAMES = {"tanh_sinh_log", "tanh_sinh_sum", "FixedRule", "_integrate",
                "integrate_sin_weighted", "integrate_sinh_weighted",
                "sin_family", "sinh_family"}
KERNEL_FUNCTIONS = ("_log_bessel_kernel", "log_sin_kernel", "log_sinh_kernel")


def engine_reads(source: str) -> list:
    """`function: name` for each name of ENGINE_NAMES read by a function of
    KERNEL_FUNCTIONS in `source`, or by a top-level function of `source`
    that they call, directly or through another."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    found, todo, seen = [], list(KERNEL_FUNCTIONS), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        reads = _reads([functions[name]])
        found += [f"{name}: {read}" for read in reads if read in ENGINE_NAMES]
        todo += [read for read in reads
                 if read in functions and read not in ENGINE_NAMES]
    return sorted(found)


def test_the_kernels_read_no_quadrature():
    quadrature = next(path for path in SOURCES if path.stem == "quadrature")
    assert engine_reads(quadrature.read_text(encoding="utf-8")) == []


def test_a_kernel_reading_the_engine_is_reported():
    source = ("def log_sin_kernel(s, a):\n    return _helper(s, a)\n"
              "def log_sinh_kernel(s, a):\n    return _log_bessel_kernel(s)\n"
              "def _log_bessel_kernel(s):\n    return s\n"
              "def _helper(s, a):\n"
              "    return integrate_sin_weighted(s, a).log_magnitude\n"
              "def integrate_sin_weighted(s, a):\n"
              "    return tanh_sinh_log(s, a)\n")
    assert engine_reads(source) == ["_helper: integrate_sin_weighted"]


# Each domain class answers its own geometry through its methods, so a new
# domain is one class.  A class test on a domain is left only where input
# is validated (solution_profile, comparison_chain) and where the limit
# experiment picks exact or barrier rows (qmean_limit_experiment).
DOMAIN_CLASSES = {"Geometry", "BallDomain", "ExteriorBallDomain",
                  "ImplicitDomain", "EllipseDomain"}
DISPATCH_ALLOWED = {"solution_profile", "comparison_chain",
                    "qmean_limit_experiment"}


def domain_dispatches(source: str) -> list:
    """`isinstance(..., C) (line n)` for each isinstance call of `source`
    whose class argument names a domain class C, outside the functions of
    DISPATCH_ALLOWED."""
    tree = ast.parse(source)
    allowed = {id(node) for func in ast.walk(tree)
               if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
               and func.name in DISPATCH_ALLOWED
               for node in ast.walk(func)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and id(node) not in allowed):
            found += [f"isinstance(..., {cls}) (line {node.lineno})"
                      for cls in sorted(DOMAIN_CLASSES
                                        & set(_reads([node.args[1]])))]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_dispatch_on_a_domain_class(path):
    assert domain_dispatches(path.read_text(encoding="utf-8")) == []


def test_a_dispatch_on_a_domain_class_is_reported():
    source = ("def solution_profile(domain):\n"
              "    if not isinstance(domain, Geometry):\n"
              "        raise ValueError\n"
              "def area(domain, x):\n"
              "    if isinstance(x, float):\n"
              "        return 0.0\n"
              "    if isinstance(domain, (BallDomain, geo.EllipseDomain)):\n"
              "        return 1.0\n"
              "    return 2 if isinstance(domain, ImplicitDomain) else 3\n")
    assert domain_dispatches(source) == [
        "isinstance(..., BallDomain) (line 7)",
        "isinstance(..., EllipseDomain) (line 7)",
        "isinstance(..., ImplicitDomain) (line 9)"]


# The benchmark's tracer reads some arguments by name (_param): the first
# argument of each _amount_of_arg(name, ...) in its SPANS, and the names its
# other amount factories pass to _param, such as emit's path.  A renamed
# parameter makes Tracer.install drop that per-layer count without a word,
# so the names are checked here against the package's signatures.  The
# tracer is read as a tree, never imported or changed.
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_arguments(tracer: str) -> list:
    """(module, function, argument) for each argument that the SPANS of
    the tracer source `tracer` reads by name."""
    tree = ast.parse(tracer)
    named = {node.name: [call.args[1].value for call in ast.walk(node)
                         if isinstance(call, ast.Call)
                         and isinstance(call.func, ast.Name)
                         and call.func.id == "_param"
                         and isinstance(call.args[1], ast.Constant)]
             for node in tree.body if isinstance(node, ast.FunctionDef)}
    spans = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["SPANS"])
    found = []
    for module, function, factory in (entry.elts for entry in spans.elts):
        if (isinstance(factory, ast.Call)
                and factory.func.id == "_amount_of_arg"):
            names = [factory.args[0].value]
        elif isinstance(factory, ast.Name):
            names = named.get(factory.id, [])
        else:
            names = []
        found += [(module.value, function.value, name) for name in names]
    return found


def unmatched_traced_arguments(tracer: str, modules: dict) -> list:
    """`module.function(argument)` for each argument the tracer reads by
    name that is not a parameter of that top-level function of `modules`
    (module name -> source)."""
    params = {}
    for name, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                a = node.args
                params[f"{name}.{node.name}"] = {
                    arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
    return sorted(f"{module}.{function}({arg})"
                  for module, function, arg in traced_arguments(tracer)
                  if arg not in params.get(f"{module}.{function}", ()))


def test_the_tracer_reads_arguments_the_package_has():
    tracer = TRACER.read_text(encoding="utf-8")
    assert ("experiments", "emit", "path") in traced_arguments(tracer)
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in SOURCES}
    assert unmatched_traced_arguments(tracer, modules) == []


def test_a_renamed_traced_argument_is_reported():
    tracer = ("def _file_bytes(fn):\n"
              "    get = _param(fn, 'path')\n    return get\n"
              "SPANS = (\n"
              "    ('radial', 'eval_log_u', _amount_of_arg('r', _size)),\n"
              "    ('geometry', 'level_set_area',\n"
              "     _amount_of_arg('levels', _size)),\n"
              "    ('geometry', 'gone', _amount_of_arg('n_samples', int)),\n"
              "    ('barriers', 'enhanced_U', None),\n"
              "    ('experiments', 'emit', _file_bytes),\n)\n")
    modules = {"radial": "def eval_log_u(sol, r):\n    pass\n",
               "geometry": "def level_set_area(domain, cfg, s):\n    pass\n",
               "experiments": "def emit(rows, out=None, *, config=None):\n"
                              "    pass\n"}
    assert traced_arguments(tracer) == [
        ("radial", "eval_log_u", "r"), ("geometry", "level_set_area", "levels"),
        ("geometry", "gone", "n_samples"), ("experiments", "emit", "path")]
    assert unmatched_traced_arguments(tracer, modules) == [
        "experiments.emit(path)", "geometry.gone(n_samples)",
        "geometry.level_set_area(levels)"]
