"""What the modules import.

No module in src/ or tests/ imports a name it never uses.  No linter
ships with the project, so this reads each module's syntax tree
instead: every name an import binds must occur as a name somewhere in
the module.  Package __init__.py files re-export names and are exempt,
and so are `from __future__` imports.

Only reading a scenario file imports PyYAML, so a run from a mapping
built in Python works where `import yaml` fails; each such check runs
in a fresh interpreter, since this one has imported it already.
"""

import ast
import os
import subprocess
import sys

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


def run_python(code: str) -> str:
    """code's stdout, run by a fresh interpreter that imports from src/
    and tests/; it fails the test if code raises."""
    path = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, cwd=REPO_ROOT)
    assert done.returncode == 0, done.stderr
    return done.stdout


# a generated world with chains, transfers, faults and a value network,
# parsed and run from the mapping; it prints whether PyYAML is loaded
RUN_A_MAPPING = """
from interopsim import execute, parse_scenario
from worlds import world
report, _ = execute(parse_scenario(world(0)))
assert len(report.audits) == 14 and report.passed(), report.failed_audits()
assert report.outcomes["payments"] and report.outcomes["transfers"]
print(sys.modules.get("yaml") is not None)
"""


def test_a_run_from_a_mapping_works_where_pyyaml_cannot_be_imported():
    # None in sys.modules makes every `import yaml` raise ImportError
    out = run_python('import sys\nsys.modules["yaml"] = None\n' + RUN_A_MAPPING)
    assert out.split() == ["False"]


def test_only_reading_a_scenario_file_loads_pyyaml():
    out = run_python("import sys\n" + RUN_A_MAPPING
                     + "from interopsim import load_scenario\n"
                     + "load_scenario('scenarios/fig4_transfer.yaml')\n"
                     + "print(sys.modules.get('yaml') is not None)\n")
    assert out.split() == ["False", "True"]
