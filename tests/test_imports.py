"""Every name a module imports is used in it (pyflakes' F401, without pyflakes),
every local a function assigns is read (F841), and every module-level private
name of the package is referenced in the package.

The scan covers the package, the tests and the tools. ``__init__`` modules
are skipped by the import check: their imports are the package's exports.
An import line marked ``# noqa: F401`` is kept on purpose and is exempt.
The local check looks at simple ``name = ...`` assignments in a function
body; loop and unpacking targets are exempt, and a read in a nested
function counts.
A private name is a module-level ``_name`` function, class or assignment
(dunders excluded); a load of it, an attribute of that name or an import of
it anywhere in ``src/susypep`` counts as a reference.
The layering check keeps the Numerov sweeps behind the solver: among the
package's own modules, only ``solver.py`` imports ``_kernels`` and none
imports a ``_``-name from ``.solver``.
The home check gives each closed form and the bound-state type one module:
the sech^2 closed forms are defined only in ``potentials.py``, ``BoundState``
and the node counters only in ``grids.py``, and ``solver.py`` defines no
class. ``potentials.py`` imports no package module but ``errors`` and
``grids``, and ``fitting.py`` takes only ``solve_bound_state`` from the solver.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "susypep"
MODULES = (sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
           + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or alias.name == "annotations":
                    continue
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unused_locals(source: str) -> list[str]:
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        read.update(name for node in ast.walk(func)
                    if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names)
        own = list(ast.iter_child_nodes(func))     # the function's own scope, not nested ones
        while own:
            node = own.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            own.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Assign):
                found += [f"line {node.lineno}: {target.id}" for target in node.targets
                          if isinstance(target, ast.Name) and target.id not in read]
    return sorted(found)


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{module}:{node.lineno} {name}" for name in names
                      if name.startswith("_") and not name.endswith("__")
                      and name not in referenced]
    return found


def import_paths(node: ast.AST) -> list[str] | None:
    """Dotted names an import statement binds (``.grids.X`` as ``grids.X``), else None."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [f"{node.module or ''}.{alias.name}".lstrip(".") for alias in node.names]
    return None


def layering_breaches(sources: dict[str, str]) -> list[str]:
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            paths = import_paths(node)
            if paths is None:
                continue
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "solver":
                found += [f"{module}:{node.lineno} solver.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
            if module != "solver.py":
                found += [f"{module}:{node.lineno} {path}" for path in paths
                          if "_kernels" in path.split(".")]
    return found


HOMES = {**dict.fromkeys(("_gegenbauer", "analytic_pt_state", "a_tilde_from_energy",
                          "analytic_levels", "analytic_depth", "level_count"), "potentials.py"),
         **dict.fromkeys(("BoundState", "count_nodes", "node_positions"), "grids.py")}


def home_breaches(sources: dict[str, str]) -> list[str]:
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if HOMES.get(node.name, module) != module or (
                        module == "solver.py" and isinstance(node, ast.ClassDef)):
                    found.append(f"{module}:{node.lineno} defines {node.name}")
                continue
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue     # the package imports its own modules relatively
            paths = import_paths(node)
            if module == "potentials.py":
                found += [f"{module}:{node.lineno} {path}" for path in paths
                          if path.split(".")[0] not in ("errors", "grids")]
            if module == "fitting.py":
                found += [f"{module}:{node.lineno} {path}" for path in paths
                          if path.split(".")[0] == "solver" and path != "solver.solve_bound_state"]
    return found


def test_the_scan_sees_unused_imports_and_honours_noqa():
    source = ("import os\nimport numpy as np\nfrom math import pi, tau\n"
              "from . import kept  # noqa: F401\nprint(np.pi, tau)\n")
    assert unused_imports(source) == ["line 1: os", "line 3: pi"]


def test_the_scan_sees_unread_locals_but_not_loop_or_unpacking_targets():
    source = ("def f(items):\n    dead = 1\n    kept = 2\n    a, b = items\n"
              "    for x in items:\n        pass\n"
              "    def g():\n        inner = kept\n        return 0\n    return g\n")
    assert unused_locals(source) == ["line 2: dead", "line 8: inner"]


def test_the_scan_sees_unreferenced_private_names():
    sources = {"a.py": ("_DEAD = 1\n_USED, _LOST = 2, 3\ndef _helper():\n    return _USED\n"
                        "class _Kept:\n    pass\n__version__ = '0'\n"),
               "b.py": "from .a import _Kept\nimport c\nprint(c._attr)\n_attr = 1\n"}
    assert unreferenced_private_names(sources) == ["a.py:1 _DEAD", "a.py:2 _LOST",
                                                   "a.py:3 _helper"]


def _module_id(path: Path) -> str:
    return str(path.relative_to(SRC if SRC in path.parents else ROOT))


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_module_reads_every_local_it_assigns(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []


def test_every_private_name_of_the_package_is_referenced():
    sources = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_the_scan_sees_kernel_imports_and_private_solver_names():
    sources = {"solver.py": "from . import _kernels\n",
               "a.py": ("from . import _kernels\nfrom ._kernels import BACKEND\n"
                        "import susypep._kernels\nfrom .solver import _start, resolve\n"),
               "b.py": "from .solver import resolve\nfrom .grids import _private\n"}
    assert layering_breaches(sources) == ["a.py:1 _kernels", "a.py:2 _kernels.BACKEND",
                                          "a.py:3 susypep._kernels", "a.py:4 solver._start"]


def test_only_the_solver_runs_the_kernels():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert "observables.py" in sources
    assert layering_breaches(sources) == []


def test_the_scan_sees_closed_forms_and_states_away_from_home():
    sources = {"solver.py": "class BoundState:\n    pass\ndef _gegenbauer(k):\n    return k\n",
               "grids.py": "class BoundState:\n    pass\ndef count_nodes(u):\n    return 0\n",
               "potentials.py": ("import numpy\nfrom .grids import BoundState\n"
                                 "from .errors import DomainError\nfrom . import solver\n"
                                 "from .observables import rms_radius\n"),
               "fitting.py": ("from .solver import solve_bound_state  # noqa: F401\n"
                              "from .solver import BoundState\nfrom .potentials import level_count\n")}
    assert home_breaches(sources) == [
        "solver.py:1 defines BoundState", "solver.py:3 defines _gegenbauer",
        "potentials.py:4 solver", "potentials.py:5 observables.rms_radius",
        "fitting.py:2 solver.BoundState"]


def test_closed_forms_and_the_bound_state_type_each_have_one_home():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert all(f"def {name}(" in sources[home] or f"class {name}:" in sources[home]
               for name, home in HOMES.items())
    assert home_breaches(sources) == []
