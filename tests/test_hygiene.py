"""Source hygiene: no unused imports, no top-level definition in the
package that nothing in the package uses or exports, one function that
opens a thread pool, one sweep route for every batch pass, scipy
imported by linops.load_expm alone and loaded only by a run that takes a
matrix exponential, no scipy.stats (a test oracle only), no running
maximum or minimum kept with the builtin, which drops a NaN, one module
that writes CSV, no setting read from the environment, one time-major
allocator, every ConfigError raised in config, each message by one
raise, one ensemble build route in experiments, one halving-ladder
guard, one two-adic count, one contraction of the product tensor with
coefficients, sde noise routes that take (problem, ensemble), private
names kept in their module but for two pinned uses, and the settable
options pinned by name."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cdstoch.config import EXPERIMENT_CHOICES, EXPM_EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cdstoch"
FILES = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
    key=str,
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def unreferenced_defs(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Top-level functions and classes that no other code in sources names.

    A reference is a name or attribute read anywhere in sources outside
    the definition itself, so recursion does not count; names in exported
    (the package's ``__all__``) are kept as public API.
    """
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own = stmt.name
                defined.append((module, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in used and name not in exported)


def _hits(sources: dict[str, str], hit) -> list[str]:
    """Where hit(node) holds, as ``module.function``, once per node.

    Methods read ``module.Class.method`` and nested functions extend the
    path; a node outside every function reads ``module.<module>``.
    """
    sites = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = child.name if scope is None else f"{scope}.{child.name}"
                visit(child, module, inner)
                continue
            if hit(child):
                sites.append(f"{module}.{scope or '<module>'}")
            visit(child, module, scope)

    for module, source in sources.items():
        visit(ast.parse(source), module, None)
    return sorted(sites)


def _sites(sources: dict[str, str], hit) -> list[str]:
    """Where hit(node) holds, as ``module.function``, once per site."""
    return sorted(set(_hits(sources, hit)))


def pool_sites(sources: dict[str, str]) -> list[str]:
    """Where ``ThreadPoolExecutor`` is named outside an import."""
    return _sites(sources, lambda node: (getattr(node, "id", None)
                                         or getattr(node, "attr", None))
                  == "ThreadPoolExecutor")


def _calls_name(name: str):
    def hit(node):
        return isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    return hit


def call_sites(sources: dict[str, str], name: str) -> list[str]:
    """Where a function ``name(`` or a method ``.name(`` is called."""
    return _sites(sources, _calls_name(name))


def calls(sources: dict[str, str], name: str) -> list[str]:
    """Each call of a function ``name(`` or a method ``.name(``."""
    return _hits(sources, _calls_name(name))


def name_uses(sources: dict[str, str], name: str) -> list[str]:
    """Each read of ``name`` as a name or an attribute."""
    return _hits(sources, lambda node: name in (getattr(node, "id", None),
                                                getattr(node, "attr", None)))


def message_raises(sources: dict[str, str], message: str) -> list[str]:
    """Each ``raise E("message")`` of that literal message."""

    def hit(node):
        return isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
            and bool(node.exc.args) \
            and getattr(node.exc.args[0], "value", None) == message

    return _hits(sources, hit)


def test_scanner_flags_an_unused_import():
    src = ("from __future__ import annotations\nimport io\nimport os\n"
           "from typing import Any\n\ndef f(x: Any):\n    return os.sep\n")
    assert unused_imports(src) == ["io (line 2)"]


def test_scanner_flags_an_unreferenced_definition():
    sources = {
        "a": ("def used():\n    return 1\n\n"
              "def orphan():\n    return orphan()\n\n"
              "class Public:\n    pass\n"),
        "b": "from .a import used\n\nVALUE = used()\n",
    }
    assert unreferenced_defs(sources, set()) == ["a.Public", "a.orphan"]
    assert unreferenced_defs(sources, {"Public"}) == ["a.orphan"]


def test_scanner_finds_every_pool_site():
    sources = {
        "a": ("from concurrent.futures import ThreadPoolExecutor\n\n"
              "def pool(fn, xs):\n"
              "    with ThreadPoolExecutor(2) as ex:\n"
              "        return list(ex.map(fn, xs))\n"),
        "b": ("import concurrent.futures as cf\n\n"
              "class Sweep:\n"
              "    def run(self):\n"
              "        def inner():\n"
              "            return cf.ThreadPoolExecutor(4)\n"
              "        return inner()\n\n"
              "EXECUTOR = cf.ThreadPoolExecutor\n"),
    }
    assert pool_sites(sources) == ["a.pool", "b.<module>",
                                   "b.Sweep.run.inner"]
    assert pool_sites({"a": sources["a"]}) == ["a.pool"]


def test_one_function_opens_a_thread_pool():
    """Every sweep shares the CPU budget of paths.pool_map."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert pool_sites(sources) == ["paths.pool_map"]


def test_scanner_finds_every_call_site():
    sources = {
        "a": ("def sweep(ens, fn):\n"
              "    return ens.map_batches(fn)\n\n"
              "class Solver:\n"
              "    def run(self, parts):\n"
              "        def inner():\n"
              "            return _tree_sum(parts)\n"
              "        return inner()\n\n"
              "TOTAL = _tree_sum([])\n"
              "BOUND = Solver.map_batches\n"),
        "b": "def map_batches(fn):\n    return fn\n",
    }
    assert call_sites(sources, "map_batches") == ["a.sweep"]
    assert call_sites(sources, "_tree_sum") == ["a.<module>",
                                                "a.Solver.run.inner"]


def test_one_moment_reducer():
    """Every Monte Carlo pass is a probe swept by paths.sweep, which with
    picard_solve's start is one of the two callers of map_batches.  Batch
    sums are collapsed in sweep, and in picard_solve, whose stopping rule
    reduces over every batch once per iteration.  The solvers are probes
    like every check, so the battery runner alone sweeps, once per
    battery.  Every batch is built by map_batches, in the worker that
    runs it."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert call_sites(sources, "map_batches") == ["paths.sweep",
                                                  "sde.picard_solve"]
    assert call_sites(sources, "_tree_sum") == ["paths.sweep",
                                                "sde.picard_solve"]
    assert calls(sources, "sweep") == ["experiments._run_rows"]
    assert call_sites(sources, "batch") == ["paths.PathEnsemble.map_batches"]
    assert call_sites(sources, "batches") == []


def test_scanners_count_every_call_use_and_raise():
    sources = {
        "a": ("class Battery:\n"
              "    def paths(self, u):\n"
              "        x = PathEnsemble(u)\n"
              "        return x, PathEnsemble(u, 1)\n\n"
              "def run(problem):\n"
              "    n = (8).bit_length()\n"
              "    return problem.ensemble(n), bit_length\n"),
        "b": ("def guard(k):\n"
              "    if k:\n"
              "        raise GridError('too many')\n"
              "    raise ValueError('too many', k)\n\n"
              "def other():\n"
              "    raise GridError(f'too many {1}')\n"
              "    raise GridError('too few')\n"),
    }
    assert calls(sources, "PathEnsemble") == ["a.Battery.paths"] * 2
    assert calls(sources, "ensemble") == ["a.run"]
    assert name_uses(sources, "bit_length") == ["a.run"] * 2
    assert message_raises(sources, "too many") == ["b.guard"] * 2
    assert message_raises(sources, "too few") == ["b.other"]


def test_experiments_builds_every_ensemble_by_one_route():
    """Each battery ensemble comes from Battery.paths, on the battery's
    grid with its own seed offset, and is swept as a row of the battery
    runner; no solver builds one."""
    source = (PACKAGE / "experiments.py").read_text()
    assert calls({"experiments": source}, "PathEnsemble") == [
        "experiments.Battery.paths"]
    assert calls({"experiments": source}, "ensemble") == []


def test_one_halving_guard_and_one_two_adic_count():
    """Every halving ladder takes its factors from paths.halving_factors,
    and every halving count from paths.halving_depth."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert message_raises(
        sources, "grid does not support that many halvings") == [
        "paths.halving_factors"]
    assert name_uses(sources, "bit_length") == ["paths.halving_depth"]


def test_one_product_contraction():
    """Products of algebra elements go through algebra.mul_coeffs; besides
    algebra, only linops reads the product tensor, for operator entries
    and their action.  The complexified product has one array route,
    algebra.cdc_mul_coeffs, which cdc_mul and the path moments share."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    modules = {site.split(".")[0]
               for site in name_uses(sources, "mul_tensor")}
    assert modules == {"algebra", "linops"}
    assert call_sites(sources, "mul_tensor") == [
        "algebra.mul_coeffs", "linops.RightLinearOp.apply",
        "linops.RightLinearOp.realized", "linops.compose_entries"]
    assert call_sites(sources, "cdc_mul_coeffs") == [
        "algebra.cdc_mul", "paths.increment_cov.product"]


def definitions(sources: dict[str, str], name: str) -> list[str]:
    """Modules that define a function or class ``name``, at any depth."""
    return sorted(module for module, source in sources.items()
                  if any(isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef, ast.ClassDef))
                         and node.name == name
                         for node in ast.walk(ast.parse(source))))


def test_scanner_finds_every_definition():
    sources = {
        "a": "def _time_major(b, k):\n    return b\n",
        "b": "class Solver:\n    def _time_major(self):\n        return 0\n",
        "c": "from a import _time_major\nout = _time_major(1, 2)\n",
    }
    assert definitions(sources, "_time_major") == ["a", "b"]


def test_one_time_major_allocator():
    """Paths, running integrals and solver arrays share one layout."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert definitions(sources, "_time_major") == ["paths"]


def private_imports(sources: dict[str, str]) -> dict[str, list[str]]:
    """Per module, each ``module._name`` it takes from a sibling module:
    imported by name, or read as an attribute of a sibling imported by
    ``from . import``.  Dunders such as ``__version__`` are public."""

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found = {}
    for module, source in sources.items():
        tree = ast.parse(source)
        siblings = set()
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        siblings.add(alias.asname or alias.name)
                    elif private(alias.name):
                        names.append(f"{node.module}.{alias.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and private(node.attr) \
                    and getattr(node.value, "id", None) in siblings:
                names.append(f"{node.value.id}.{node.attr}")
        if names:
            found[module] = sorted(names)
    return found


def test_scanner_finds_every_private_import():
    sources = {
        "a": ("from .b import _hidden, public, __version__\n"
              "from . import c\n\n"
              "def f():\n"
              "    from .c import _inner as inner\n"
              "    return c._state, c.value, inner\n"),
        "b": "from numpy import _core\nfrom .c import public\n",
        "c": "def public():\n    return _own()\n",
    }
    assert private_imports(sources) == {
        "a": ["b._hidden", "c._inner", "c._state"]}


# Private names stay in the module that defines them.  The two exceptions
# share paths' internals: the time-major allocator, and Picard's own
# reduction in sde, which it still builds by hand.
PRIVATE_IMPORTS = {
    "integrals": ["paths._time_major"],
    "sde": ["paths._stack_rows", "paths._time_major", "paths._tree_sum"],
}


def test_private_names_stay_in_their_module():
    """paths alone keys the noise: no other module names _philox."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert private_imports(sources) == PRIVATE_IMPORTS


def leading_parameters(sources: dict[str, str], name: str,
                       count: int) -> list[tuple[str, ...]]:
    """The first count parameter names of each definition of ``name``."""
    return [tuple(a.arg for a in (node.args.posonlyargs
                                  + node.args.args)[:count])
            for source in sources.values()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name]


def test_scanner_reads_leading_parameters():
    sources = {
        "a": "def solve(problem, ensemble, halvings=2):\n    return 0\n",
        "b": ("class Runner:\n"
              "    def solve(self, g_op, h_op):\n"
              "        return 0\n"),
    }
    assert leading_parameters(sources, "solve", 2) == [
        ("problem", "ensemble"), ("self", "g_op")]


# Every sde route that draws noise solves the problem it is given, on the
# ensemble it is given: no route takes loose coefficients.
NOISE_ROUTES = ("euler_maruyama", "picard_solve", "linear_closed_form",
                "strong_order_study", "uniqueness_study",
                "restart_markov_check", "picard_em_gap", "gronwall_bound")


@pytest.mark.parametrize("name", NOISE_ROUTES)
def test_noise_routes_take_a_problem_and_an_ensemble(name):
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert leading_parameters(sources, name, 2) == [("problem", "ensemble")]


def scipy_stats_imports(sources: dict[str, str]) -> list[str]:
    """Where ``scipy.stats`` (or a submodule) is imported, in any form."""

    def stats(name):
        return name == "scipy.stats" or name.startswith("scipy.stats.")

    def hit(node):
        if isinstance(node, ast.Import):
            return any(stats(alias.name) for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return stats(node.module or "") or (node.module == "scipy" and any(
                alias.name == "stats" for alias in node.names))
        return False

    return _sites(sources, hit)


def test_scanner_finds_every_scipy_stats_import():
    sources = {
        "a": "import scipy.linalg\nfrom scipy import linalg, special\n",
        "b": "import scipy.stats\n",
        "c": "def f():\n    from scipy import stats\n    return stats\n",
        "d": "from scipy.stats._stats_py import ks_2samp as k\n",
    }
    assert scipy_stats_imports(sources) == ["b.<module>", "c.f",
                                            "d.<module>"]


def _package_env() -> dict:
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_package_does_not_import_scipy_stats():
    """scipy.stats costs more than half of a bare import of the package,
    and scipy.linalg most of the rest: importing it loads no scipy."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert scipy_stats_imports(sources) == []
    code = ("import sys, cdstoch, cdstoch.cli\n"
            "print(cdstoch.__file__)\n"
            "print('scipy.stats' in sys.modules)\n"
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=_package_env())
    origin, stats_loaded, scipy_loaded = out.stdout.split()
    assert Path(origin).parent == PACKAGE
    assert (stats_loaded, scipy_loaded) == ("False", "False")


def scipy_imports(sources: dict[str, str]) -> list[str]:
    """Where scipy (or a submodule) is imported, in any form, and where
    a module is imported by a name computed at run time, which the
    scanner cannot read."""

    def hit(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "scipy"
                       for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return node.level == 0 \
                and (node.module or "").split(".")[0] == "scipy"
        return _calls_name("import_module")(node) \
            or _calls_name("__import__")(node)

    return _sites(sources, hit)


def test_scanner_finds_every_scipy_import():
    sources = {
        "a": "import numpy\nimport scipy.linalg\n",
        "b": "def f():\n    from scipy.linalg import expm\n    return expm\n",
        "c": ("import importlib\n\n"
              "def g(name):\n    return importlib.import_module(name)\n\n"
              "def h():\n    return __import__('scipy')\n"),
        "d": ("from . import scipy\nfrom .linops import load_expm\n"
              "NAMES = ('scipy.linalg._fblas',)\n"),
    }
    assert scipy_imports(sources) == ["a.<module>", "b.f", "c.g", "c.h"]


def test_only_linops_imports_scipy():
    """scipy serves only linops.load_expm, which imports it on first use."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert scipy_imports(sources) == ["linops.load_expm"]


# Each battery, run alone through the CLI at a small size on two threads,
# recording whether scipy's OpenBLAS is loaded when the batteries start,
# at every pool that opens, and at the end.
_BATTERY_RUN = """
import json, sys
from cdstoch import cli, paths

def loaded():
    return "scipy.linalg._fblas" in sys.modules

seen = {"pools": []}
run, budget = cli.run_experiments, paths._blas_budget

def run_experiments(cfg):
    seen["start"] = loaded()
    return run(cfg)

def blas_budget(workers):
    seen["pools"].append(loaded())
    return budget(workers)

cli.run_experiments, paths._blas_budget = run_experiments, blas_budget
seen["status"] = cli.main(sys.argv[1:])
seen["end"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(seen))
"""


def _battery_run(name: str, tmp_path) -> dict:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"experiments = {name}\n", encoding="utf-8")
    argv = ["run", "--config", str(cfg), "--replicas", "64", "--grid", "16",
            "--threads", "2", "--out", str(tmp_path / "out")]
    out = subprocess.run([sys.executable, "-c", _BATTERY_RUN, *argv],
                         capture_output=True, text=True, check=True,
                         timeout=300, env=_package_env())
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen["status"] in (0, 1)  # a verdict, not a usage error
    return seen


@pytest.mark.parametrize("name", [n for n in EXPERIMENT_CHOICES
                                  if n not in EXPM_EXPERIMENTS])
def test_a_battery_without_expm_runs_without_scipy(name, tmp_path):
    """A battery that starts to take a matrix exponential without being
    named in config.EXPM_EXPERIMENTS fails here."""
    seen = _battery_run(name, tmp_path)
    assert seen["start"] is False
    assert not any(seen["pools"])
    assert seen["end"] == []


@pytest.mark.parametrize("name", EXPM_EXPERIMENTS)
def test_a_battery_with_expm_loads_scipy_at_config_build(name, tmp_path):
    """scipy is loaded before the batteries start, so every pool's BLAS
    budget finds its OpenBLAS."""
    seen = _battery_run(name, tmp_path)
    assert seen["start"] is True
    assert all(seen["pools"])
    assert seen["pools"] or name == "linops"  # a deterministic battery


def test_a_default_config_loads_scipy_when_built():
    code = ("import sys\n"
            "from cdstoch.config import RunConfig\n"
            "print('scipy.linalg._fblas' in sys.modules)\n"
            "RunConfig()\n"
            "print('scipy.linalg._fblas' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=_package_env())
    assert out.stdout.split() == ["False", "True"]


def builtin_accumulators(sources: dict[str, str]) -> list[str]:
    """Where ``x = max(x, ...)`` or ``x = min(x, ...)`` calls the builtin.

    ``max(worst, nan)`` keeps ``worst``, so such a running maximum drops
    a NaN; one ``np.max`` over an array of the values keeps it.
    """

    def hit(node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) in ("max", "min")):
            return False
        target = node.targets[0].id
        return any(getattr(arg, "id", None) == target
                   for arg in node.value.args)

    return _sites(sources, hit)


def test_scanner_finds_every_builtin_accumulator():
    sources = {
        "a": ("def worst(gaps):\n"
              "    acc = 0.0\n"
              "    for g in gaps:\n"
              "        acc = max(acc, float(g))\n"
              "    return acc\n\n"
              "class Range:\n"
              "    def low(self, xs):\n"
              "        def inner(lo):\n"
              "            for x in xs:\n"
              "                lo = min(x, lo)\n"
              "            return lo\n"
              "        return inner(1.0)\n"),
        "b": ("import numpy as np\n\n"
              "def fine(a, b, acc):\n"
              "    scale = max(1.0, a)\n"
              "    top = max(a, b)\n"
              "    acc = np.max([acc, a])\n"
              "    acc = np.maximum(acc, b)\n"
              "    return scale, top, acc\n"),
    }
    assert builtin_accumulators(sources) == ["a.Range.low.inner", "a.worst"]
    assert builtin_accumulators({"b": sources["b"]}) == []


def test_package_keeps_no_builtin_accumulator():
    """Every maximum a check reports is one np.max, so a NaN reaches it."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert builtin_accumulators(sources) == []


def module_imports(sources: dict[str, str], name: str) -> list[str]:
    """Where the top-level module ``name`` is imported, in any form."""

    def hit(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == name
                       for alias in node.names)
        return isinstance(node, ast.ImportFrom) and node.level == 0 \
            and (node.module or "").split(".")[0] == name

    return _sites(sources, hit)


def _reads_environ(node) -> bool:
    names = ("environ", "environb", "getenv", "getenvb")
    if isinstance(node, ast.Attribute):
        return node.attr in names and getattr(node.value, "id", None) == "os"
    return isinstance(node, ast.ImportFrom) and node.module == "os" \
        and any(alias.name in names for alias in node.names)


def environ_reads(sources: dict[str, str]) -> list[str]:
    """Where ``os.environ`` or ``os.getenv`` is named, imports included."""
    return _sites(sources, _reads_environ)


def test_scanner_finds_every_module_import():
    sources = {
        "a": "import csv\nimport json\n",
        "b": "def f(path):\n    from csv import writer\n    return writer\n",
        "c": "import csvkit\nfrom . import csv\nfrom .csv import rows\n",
    }
    assert module_imports(sources, "csv") == ["a.<module>", "b.f"]
    assert module_imports(sources, "json") == ["a.<module>"]


def test_scanner_finds_every_environ_read():
    sources = {
        "a": ("import os\n\n"
              "def threads():\n"
              "    return os.environ.get('THREADS')\n\n"
              "class Cfg:\n"
              "    def load(self):\n"
              "        return os.getenv('SEED')\n"),
        "b": "from os import environ\n",
        "c": ("import os\n\n"
              "def cpus():\n"
              "    return os.cpu_count(), os.sched_getaffinity(0)\n"),
    }
    assert environ_reads(sources) == ["a.Cfg.load", "a.threads",
                                      "b.<module>"]
    assert environ_reads({"c": sources["c"]}) == []


def test_one_module_writes_csv():
    """Metric tables and path dumps share report's one csv.writer."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert module_imports(sources, "csv") == ["report.<module>"]


def test_package_reads_no_environment_variable():
    """A run is set by its flags and config file alone."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert environ_reads(sources) == []


def config_error_raises(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, message source) of every ``raise ConfigError(...)``."""
    raises = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and "ConfigError" in (getattr(node.exc.func, "id", None),
                                          getattr(node.exc.func, "attr", None)):
                message = node.exc.args[0] if node.exc.args else None
                raises.append((module, ast.unparse(message) if message
                               else ""))
    return sorted(raises)


def shared_messages(raises: list[tuple[str, str]]) -> list[str]:
    """Message texts that more than one raise gives."""
    messages = [message for _, message in raises]
    return sorted({m for m in messages if messages.count(m) > 1})


def test_scanner_finds_every_config_error_raise():
    sources = {
        "config": ("def check(cfg):\n"
                   "    if cfg.threads < 1:\n"
                   "        raise ConfigError('need at least 1')\n"
                   "    raise ConfigError(f'key {cfg.key!r}: unknown')\n"),
        "cli": ("def resolve(n):\n"
                "    if n < 1:\n"
                "        raise config.ConfigError('need at least 1')\n"
                "    raise ValueError('need at least 1')\n"),
    }
    raises = config_error_raises(sources)
    assert raises == [("cli", "'need at least 1'"),
                      ("config", "'need at least 1'"),
                      ("config", "f'key {cfg.key!r}: unknown'")]
    assert shared_messages(raises) == ["'need at least 1'"]
    assert shared_messages(config_error_raises(
        {"config": sources["config"]})) == []


def test_config_errors_are_raised_once_each_in_config():
    """Each input rule is checked in one place, the config module."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    raises = config_error_raises(sources)
    assert {module for module, _ in raises} == {"config"}
    assert shared_messages(raises) == []


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in stmt.targets):
            return set(ast.literal_eval(stmt.value))
    return set()


def test_every_definition_is_used_or_exported():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_defs(sources, _exported()) == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(d).split("(")[0].split(".")[-1] == "dataclass"
               for d in node.decorator_list)


def _settable(value) -> bool:
    """False for ``field(init=False, ...)``, which no caller can set."""
    return not (isinstance(value, ast.Call) and any(
        k.arg == "init" and getattr(k.value, "value", True) is False
        for k in value.keywords))


def settable_options(sources: dict[str, str]) -> list[str]:
    """Each value a caller may leave unset: a defaulted parameter (of a
    function, method or lambda), a defaulted field of a dataclass, and
    each read of the environment."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]
                owner = getattr(node, "name", "<lambda>")
                found += [f"{module}.{owner}.{a.arg}" for a in named]
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [f"{module}.{node.name}.{stmt.target.id}"
                          for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign)
                          and stmt.value is not None
                          and _settable(stmt.value)]
    found += [f"{site}.<environ>" for site in _hits(sources, _reads_environ)]
    return sorted(found)


def test_scanner_counts_every_settable_option():
    sources = {
        "a": ("import os\n"
              "from dataclasses import dataclass, field\n\n"
              "@dataclass(frozen=True)\n"
              "class Cfg:\n"
              "    seed: int\n"
              "    threads: int = 1\n"
              "    _cache: dict = field(init=False, repr=False)\n"
              "    out: str = field(default='.')\n\n"
              "class Plain:\n"
              "    limit: int = 3\n\n"
              "def solve(x, m_max=40, *, tol=1e-8, trace):\n"
              "    key = lambda v, scale=2: v * scale\n"
              "    return os.environ.get('SOLVER'), key\n"),
    }
    assert settable_options(sources) == [
        "a.<lambda>.scale", "a.Cfg.out", "a.Cfg.threads",
        "a.solve.<environ>", "a.solve.m_max", "a.solve.tol"]


# Each added option doubles the configurations tests must cover; a change
# that adds one updates this pin and says which caller needs it.  The pin
# names each option, so swapping one for another shows as well.
SETTABLE_OPTIONS = (
    "algebra.unit.scale",
    "cli.main.argv",
    "config.RunConfig.drift",
    "config.RunConfig.experiments",
    "config.RunConfig.format",
    "config.RunConfig.grids",
    "config.RunConfig.level",
    "config.RunConfig.n",
    "config.RunConfig.out",
    "config.RunConfig.replicas",
    "config.RunConfig.seed",
    "config.RunConfig.threads",
    "config.RunConfig.tolerances",
    "config.RunConfig.u0_blocks",
    "config.RunConfig.u1_blocks",
    "config.RunConfig.window",
    "experiments._report.passed",
    "integrals.StepIntegrand.full_view",
    "linops.from_blocks.s01",
    "linops.from_blocks.s10",
    "linops.from_blocks.s11",
    "paths.PathEnsemble.batch_size",
)


def test_settable_options_are_pinned():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert tuple(settable_options(sources)) == SETTABLE_OPTIONS
