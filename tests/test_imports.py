"""Every name a module imports is read somewhere in that module.

A standard-library scan with ``ast`` over ``src/`` and ``tests/``: an
import binds names, and each bound name must appear as a loaded name in
the same file. Names a module lists in ``__all__`` are
re-exports and exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(path: Path, root: Path = ROOT) -> list[str]:
    """``path:line name``, the path relative to ``root``, for each imported
    name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    unused = set(imported) - read - _exported(tree)
    rel = path.relative_to(root)
    return sorted(f"{rel}:{imported[name]} {name}" for name in unused)


def test_no_unused_imports():
    found = [
        entry
        for folder in SCANNED
        for path in sorted((ROOT / folder).rglob("*.py"))
        for entry in unused_imports(path)
    ]
    assert found == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\nimport os.path as osp\nfrom json import dumps, loads as _loads\n"
        "from math import pi\n__all__ = ['pi']\nprint(os.sep, _loads)\n",
        encoding="utf-8",
    )
    assert unused_imports(module, tmp_path) == ["module.py:2 osp", "module.py:3 dumps"]
