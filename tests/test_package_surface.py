"""Every ``repro`` module imports, every name in its ``__all__`` resolves,
and no Python file in the tree imports a name it never uses.

A dynamic twin of ruff's F822 (undefined name in ``__all__``).  The static
rule checks one file at a time, so it misses a stale ``from repro.x import
Y`` of a module or name that no longer exists; importing every module
catches both, and a name a package still lists but no longer defines.

The unused-import check is a stdlib-``ast`` stand-in for ruff's F401: a
module-level import must be read somewhere in its file (a name, the root
of an attribute chain, a string annotation or an ``__all__`` entry).
``__future__`` imports and ``__init__.py`` files, whose imports are the
package's re-exports, are exempt.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import repro


def _module_names() -> list[str]:
    """Dotted names of the package and every module under it, bar ``__main__``."""
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            names.append(info.name)
    return sorted(names)


def test_walk_reaches_every_source_file():
    """The walk is not vacuous: one module per ``.py`` file under ``repro``."""
    files = [
        path
        for path in Path(repro.__path__[0]).rglob("*.py")
        if path.name != "__main__.py"
    ]
    assert len(_module_names()) == len(files)


def test_every_module_imports_and_its_all_resolves():
    problems = []
    for name in _module_names():
        try:
            module = importlib.import_module(name)
        except Exception as error:  # report every broken module, not the first
            problems.append(f"{name}: import failed: {error!r}")
            continue
        for exported in getattr(module, "__all__", ()):
            if not hasattr(module, exported):
                problems.append(f"{name}.__all__ lists {exported!r}, which is undefined")
    assert not problems, "\n".join(problems)


ROOT = Path(__file__).resolve().parents[1]
#: Trees the unused-import check covers.
IMPORT_CHECKED = ("src", "tests", "benchmarks", "scripts", "examples")


def _module_level_imports(body: list[ast.stmt]):
    """Import statements at module level, including inside if/try/with blocks."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, (ast.If, ast.Try, ast.With)):
            nested = [*stmt.body, *getattr(stmt, "orelse", []), *getattr(stmt, "finalbody", [])]
            for handler in getattr(stmt, "handlers", []):
                nested.extend(handler.body)
            yield from _module_level_imports(nested)


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including string annotations and ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = None
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                parsed = ast.parse(part.value, mode="eval")
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names.update(
                element.value for element in node.value.elts if isinstance(element, ast.Constant)
            )
    return names


def unused_imports(path: Path) -> list[str]:
    """``file:line: name`` for each module-level import the file never reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound: dict[str, int] = {}
    for stmt in _module_level_imports(tree.body):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            if alias.name != "*":
                bound.setdefault(alias.asname or alias.name.split(".")[0], stmt.lineno)
    read = _read_names(tree)
    where = path.relative_to(ROOT)
    return [f"{where}:{line}: {name}" for name, line in bound.items() if name not in read]


def test_unused_import_check_flags_an_unread_import(tmp_path, monkeypatch):
    monkeypatch.setattr(f"{__name__}.ROOT", tmp_path)
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "__all__ = ['TYPE_CHECKING']\n"
        "def f(x: 'Decimal') -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(module) == ["module.py:3: json"]


def test_no_unused_module_level_imports():
    files = [
        path
        for tree in IMPORT_CHECKED
        for path in sorted((ROOT / tree).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert len(files) > 100
    problems = [problem for path in files for problem in unused_imports(path)]
    assert not problems, "\n".join(problems)
