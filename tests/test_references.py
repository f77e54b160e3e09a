"""No dead code: every top-level function and class in the package is referenced by
name, and every method and property of its classes is read as an attribute, in the
package, the benchmark or the scripts; the one exception is a named reference that
tests compare the package against.  No package module takes another module's private
name: what one module needs of another is public.  And one package module,
``experiments``, reads model files."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hdnav"
CALLERS = [PACKAGE, ROOT / "perfbench", ROOT / "scripts"]

# The references that tests compare the package against, and nothing else calls.
REFERENCES = {
    # the walk the planner proof replaced: criteria 3 and 5, and
    # test_experiments::test_verify_object_matches_the_walk_it_replaced
    "cml.plan_path",
    # the paper's batch delta rule, whose fixed point the calculated model is: criterion 10
    "cml.train_epoch",
    # the float similarity: criterion 2, and test_hdc::test_cosines_match_recover_scores
    # as the reference for recover
    "hdc.cosine",
}


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


def sibling_reads(tree: ast.Module) -> set[str]:
    """``module.name`` for every name the module takes from a sibling module: read as an
    attribute of a relatively imported module, or imported by name."""
    modules, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:  # from . import mod [as alias]
                    modules[alias.asname or alias.name] = alias.name
                else:
                    found.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.add(f"{modules[node.value.id]}.{node.attr}")
    return found


def private_reads(tree: ast.Module) -> set[str]:
    """The private names among the module's ``sibling_reads``."""

    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__")

    return {read for read in sibling_reads(tree) if private(read.split(".", 1)[1])}


def private_classes(tree: ast.Module) -> set[str]:
    """Names of the module's top-level classes that carry a leading underscore."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name.startswith("_")
    }


def private_returns(tree: ast.Module, private: set[str]) -> set[str]:
    """``function -> Class`` for each public function or method whose return
    annotation names one of the ``private`` classes."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("_") or node.returns is None:
            continue
        for part in ast.walk(node.returns):
            name = part.id if isinstance(part, ast.Name) else getattr(part, "attr", None)
            if name in private:
                found.add(f"{node.name} -> {name}")
    return found


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
    assert REFERENCES <= defined

    def unused(name: str) -> bool:
        # module.Class.member: a member is used only where a caller reads it off an object
        parts = name.split(".")
        return parts[-1] not in (read if len(parts) == 3 else used)

    assert set(filter(unused, defined)) == REFERENCES


def test_no_function_takes_a_noise_floor():
    # every recovery reads the one floor hdc.THETA at call time; no function
    # takes it as an argument
    takers = {
        f"{path.stem}.{node.name}"
        for path in sources([PACKAGE])
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and arg.arg == "theta"
    }
    assert takers == set()


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


def test_no_package_module_reads_another_modules_private_name():
    # tests and the benchmark may reach inside a module; the package may not
    reads = {
        f"{path.stem} reads {name}"
        for path in sources([PACKAGE])
        for name in private_reads(parse(path))
    }
    assert reads == set()


def test_public_functions_return_public_types():
    # what a caller is handed, it may name: a public function returns no private class
    trees = {path.stem: parse(path) for path in sources([PACKAGE])}
    private = set().union(*map(private_classes, trees.values()))
    returns = {
        f"{stem}.{found}"
        for stem, tree in trees.items()
        for found in private_returns(tree, private)
    }
    assert returns == set()


def test_private_return_scan_sees_names_and_attributes():
    tree = ast.parse(
        "class _A: pass\nclass B: pass\ndef f() -> _A: pass\ndef g() -> tuple[m._A, B]: pass\n"
        "def _h() -> _A: pass\ndef i() -> B: pass\nclass C:\n    def j(self) -> list[_A]: pass\n"
    )
    assert private_classes(tree) == {"_A"}
    assert private_returns(tree, {"_A"}) == {"f -> _A", "g -> _A", "j -> _A"}


def test_only_experiments_loads_model_files():
    # run and verify take the pair from experiments.load_models, with its checks
    readers = {
        path.stem
        for path in sources([PACKAGE])
        if "persist.load_model" in sibling_reads(parse(path))
    }
    assert readers == {"experiments"}


def test_private_read_scan_sees_module_attributes_and_imports():
    tree = ast.parse(
        "from . import a as b, c\nfrom .d import _e, f\nfrom __future__ import _g\n"
        "b._h()\nc.__name__\nb.i\nself._j\nc._k = 1\n"
    )
    assert private_reads(tree) == {"d._e", "a._h", "c._k"}
    assert sibling_reads(tree) == {"d._e", "d.f", "a._h", "c.__name__", "a.i", "c._k"}
