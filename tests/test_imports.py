"""Every name a module imports is used in it (pyflakes' F401, without pyflakes).

The scan covers the package, the tests and the tools. ``__init__`` modules
are skipped: their imports are the package's exports. An import line marked
``# noqa: F401`` is kept on purpose and is exempt.
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


def test_the_scan_sees_unused_imports_and_honours_noqa():
    source = ("import os\nimport numpy as np\nfrom math import pi, tau\n"
              "from . import kept  # noqa: F401\nprint(np.pi, tau)\n")
    assert unused_imports(source) == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(SRC if SRC in p.parents else ROOT)))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
