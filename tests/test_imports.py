"""Module boundaries: no module of the package imports a sibling's private name,
no private helper lives on callers outside the package, and no module
imports a name it does not use.

A `_`-prefixed name is a module's own kernel.  When another module needs
it, it becomes public in its home module instead of being reached into;
when only tests call it, it goes, and the tests keep their own copy.
No linter runs on the package, so the unused-import check lives here.
"""

import ast
from pathlib import Path

import lp_isoforge

PACKAGE_DIR = Path(lp_isoforge.__file__).resolve().parent


def private_imports(path: Path) -> list:
    """'file:line name' for each `_`-prefixed name imported from within the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno} {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "lp_isoforge")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_a_private_name_of_another():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert {"moments.py", "momentpoly.py", "solver.py"} <= {p.name for p in paths}
    assert [hit for path in paths for hit in private_imports(path)] == []


def test_momentpoly_imports_nothing_from_moments():
    # the solver's polynomial layer shares no code with the moment layer
    # that rechecks its certificates
    tree = ast.parse((PACKAGE_DIR / "momentpoly.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            imported.update(base.rstrip(".") + "." + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not imported & {".moments", "lp_isoforge.moments"}


def uncalled_private_helpers(paths) -> list:
    """'file:line name' for each module-level `_`-prefixed def or class no other code in paths names.

    A reference counts when it is a name or attribute outside the helper's
    own body, so recursion alone does not keep a helper alive.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in paths}
    helpers = [
        (path, node)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    references = {}  # name -> ids of the nodes naming it
    for tree in trees.values():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                references.setdefault(name, set()).add(id(node))
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for path, node in helpers
        if not references.get(node.name, set()) - {id(inner) for inner in ast.walk(node)}
    ]


def test_every_private_helper_has_a_caller_in_the_package():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert uncalled_private_helpers(paths) == []


def test_dead_helper_guard_flags_helpers_without_an_outside_caller(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def _used():\n    return 1\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
        "def _dead():\n    return 2\n\n"
        "class _Box:\n    pass\n\n"
        "def public():\n    return _used(), _Box\n",
        encoding="utf-8",
    )
    assert uncalled_private_helpers([module]) == ["module.py:4 _recursive", "module.py:7 _dead"]


def unused_imports(path: Path) -> list:
    """'file:line name' for each name a module imports and never uses.

    A name is used when the module names it anywhere (annotations included)
    or lists it in `__all__`.  `from __future__` imports are directives,
    not names.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    imported = [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    return [f"{path.name}:{line} {name}" for line, name in imported if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    # the package's __init__ imports to re-export, so its names need no use
    paths = sorted(set(PACKAGE_DIR.glob("*.py")) - {PACKAGE_DIR / "__init__.py"})
    assert "analysis.py" in {p.name for p in paths}
    assert [hit for path in paths for hit in unused_imports(path)] == []


def test_unused_import_guard_flags_names_without_a_use(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import json as js\n"
        "from math import log, pi\n"
        "from fractions import Fraction\n\n"
        "__all__ = ['pi']\n\n"
        "def f(x: Fraction) -> str:\n    return js.dumps(x)\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["module.py:2 os", "module.py:3 os", "module.py:5 log"]
