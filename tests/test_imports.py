"""numpy is the only runtime dependency: every import in the package is relative,
numpy, or part of the standard library.  And importing the CLI loads no process pool."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hdnav"


def imported_roots(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in a module."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append((node.lineno, node.module.split(".")[0]))
    return roots


def test_package_imports_only_numpy_and_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    foreign = [
        f"{path.name}:{line} imports {root}"
        for path in sources
        for line, root in imported_roots(ast.parse(path.read_text(), filename=str(path)))
        if root != "numpy" and root not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_import_scan_sees_absolute_imports_only():
    tree = ast.parse("import os.path\nfrom numpy import linalg\nfrom . import hdc\nimport scipy\n")
    assert imported_roots(tree) == [(1, "os"), (2, "numpy"), (4, "scipy")]


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # only run_experiment's workers > 1 branch reads concurrent.futures.process
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, hdnav.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
