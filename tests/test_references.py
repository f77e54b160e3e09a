"""No dead code: every top-level function and class in the package is referenced by
name, and every method and property of its classes is read as an attribute, in the
package, the benchmark, the scripts or the acceptance suite."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hdnav"
CALLERS = [PACKAGE, ROOT / "perfbench", ROOT / "scripts", ROOT / "tests" / "test_acceptance.py"]

# Kept for unit tests alone: the bipolarity predicate the hypervector tests assert with.
TEST_ONLY = {"hdc.is_bipolar"}


def definitions(tree: ast.Module) -> list[str]:
    """Names of the module's top-level functions and classes, then ``Class.method``
    for its classes' methods and properties; dunders run implicitly and are left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    top = [node for node in tree.body if isinstance(node, kinds)]
    methods = [
        f"{node.name}.{member.name}"
        for node in top
        if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, kinds[:2]) and not member.name.startswith("__")
    ]
    return [node.name for node in top] + methods


def references(tree: ast.Module) -> set[str]:
    """Every name a module uses: bare names, attributes and imported names."""
    names = attributes(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def attributes(tree: ast.Module) -> set[str]:
    """The names a module reads as attributes: ``x.name``."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def sources(paths: list[Path]) -> list[Path]:
    return [f for p in paths for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]


def test_every_package_definition_has_a_caller():
    trees = [parse(path) for path in sources(CALLERS)]
    used = set().union(*map(references, trees))
    read = set().union(*map(attributes, trees))
    defined = {
        f"{path.stem}.{name}" for path in sources([PACKAGE]) for name in definitions(parse(path))
    }
    assert TEST_ONLY <= defined

    def unused(name: str) -> bool:
        # module.Class.member: a member is used only where a caller reads it off an object
        parts = name.split(".")
        return parts[-1] not in (read if len(parts) == 3 else used)

    assert set(filter(unused, defined)) == TEST_ONLY


def test_only_recover_takes_a_noise_floor():
    # every layer reads the one floor hdc.THETA at call time; only the algebra's
    # cleanup takes it as an argument
    takers = {
        f"{path.stem}.{node.name}"
        for path in sources([PACKAGE])
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and arg.arg == "theta"
    }
    assert takers == {"hdc.recover"}


def test_reference_scan_sees_names_attributes_and_imports():
    tree = ast.parse(
        "from a import b\nimport c.d\nx.e()\nf(g)\ndef i(): pass\nclass J:\n"
        "    def __init__(self): pass\n    def k(self): pass\n"
        "    @property\n    def m(self): pass\n    n = 1\n"
    )
    assert {"b", "d", "e", "f", "g"} <= references(tree)
    assert not {"i", "J", "k", "m"} & references(tree)
    assert attributes(tree) == {"e"}  # c.d is an import, f and g bare names
    assert definitions(tree) == ["i", "J", "J.k", "J.m"]
