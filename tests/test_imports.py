"""Module boundaries: no module of the package imports a sibling's private name.

A `_`-prefixed name is a module's own kernel.  When another module needs
it, it becomes public in its home module instead of being reached into.
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
