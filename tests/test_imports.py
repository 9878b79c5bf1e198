"""No module in src/ or tests/ imports a name it never uses.

No linter ships with the project, so this reads each module's syntax
tree instead: every name an import binds must occur as a name somewhere
in the module.  Package __init__.py files re-export names and are
exempt, and so are `from __future__` imports.
"""

import ast

from conftest import REPO_ROOT


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never uses, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_finds_a_dead_import_and_spares_a_used_one():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re\nfrom json import dumps as d\n"
              "print(os.path.sep, d)\n")
    assert unused_imports(source) == ["re"]


def test_no_module_imports_a_name_it_never_uses():
    modules = [path for top in ("src", "tests")
               for path in sorted((REPO_ROOT / top).rglob("*.py"))]
    dead = [f"{path.relative_to(REPO_ROOT)}: {name}"
            for path in modules if path.name != "__init__.py"
            for name in unused_imports(path.read_text())]
    assert dead == []
