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

The dead-private-name check fails on a private (``_x``, not dunder) def,
class or assignment at module or class level in ``src/`` whose name
appears nowhere else in the tree's code: as a name, an attribute, an
import, a keyword or a word of a string that is not a docstring.  Its
twin, the test-only-name check, reuses that word scan and fails on a
public def or class in ``src/`` that ``tests/`` reads but no other tree
mentions outside its own definition.  A method or property is reached
only through an attribute, so for a public class member a bare name is no
reader: the member fails unless a tree other than ``tests/`` mentions it
as an attribute, import, keyword or string word.
"""

import ast
import importlib
import pkgutil
import re
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


#: Trees whose code may read a name defined in ``src/``.
READERS = ("src", "tests", "benchmarks", "bench", "scripts", "examples")
_WORD = re.compile(r"[A-Za-z_]\w*")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(body: list[ast.stmt], in_class: bool = False):
    """``(name, line, node, in_class)`` for each def, class or assigned name
    at module level or in a class body; ``node`` is the assigned ``Name``
    (else ``None``) and ``in_class`` whether a class body defines it."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt.lineno, None, in_class
            if isinstance(stmt, ast.ClassDef):
                yield from _definitions(stmt.body, in_class=True)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id, stmt.lineno, node, in_class


def _appearances(tree: ast.Module, skip: set[int]) -> tuple[set[str], set[str]]:
    """Every identifier the tree mentions outside the nodes in ``skip``, as
    ``(names, qualified)``: bare names, and attributes, imported names,
    keywords and words of non-docstring strings."""
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    names: set[str] = set()
    qualified: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and id(node) not in skip:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            qualified.add(node.attr)
        elif isinstance(node, ast.alias):
            qualified.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.keyword) and node.arg:
            qualified.add(node.arg)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            qualified.update(_WORD.findall(node.value))
    return names, qualified


def _scan() -> tuple[
    dict[str, set[str]], dict[str, set[str]], list[tuple[Path, str, int, ast.AST | None, bool]]
]:
    """The identifiers each tree of :data:`READERS` mentions (all, and only
    the non-bare-name ones), and every definition in ``src/`` as ``(file,
    name, line, node, in_class)``."""
    seen: dict[str, set[str]] = {}
    qualified: dict[str, set[str]] = {}
    defined = []
    for tree_name in READERS:
        seen[tree_name] = set()
        qualified[tree_name] = set()
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            definitions = list(_definitions(tree.body)) if tree_name == "src" else []
            names, words = _appearances(tree, {id(node) for _, _, node, _ in definitions if node})
            seen[tree_name] |= names | words
            qualified[tree_name] |= words
            defined.extend((path.relative_to(ROOT), *definition) for definition in definitions)
    return seen, qualified, defined


def dead_private_names() -> list[str]:
    """``file:line: name`` for each private definition in ``src/`` whose name
    appears nowhere else in :data:`READERS`."""
    seen, _, defined = _scan()
    everywhere = set().union(*seen.values())
    return [
        f"{where}:{line}: {name}"
        for where, name, line, _, _ in defined
        if _is_private(name) and name not in everywhere
    ]


def names_only_tests_read() -> list[str]:
    """``file:line: name`` for each public def or class in ``src/`` that
    ``tests/`` reads but no other tree mentions outside its definition (code
    kept alive by its own tests), and each public class member that no tree
    but ``tests/`` reads through an attribute, import, keyword or string."""
    seen, qualified, defined = _scan()
    tests = seen.pop("tests")
    qualified.pop("tests")
    elsewhere = set().union(*seen.values())
    members_read = set().union(*qualified.values())
    return [
        f"{where}:{line}: {name}"
        for where, name, line, node, in_class in defined
        if node is None
        and not name.startswith("_")
        and (name not in members_read if in_class else name in tests and name not in elsewhere)
    ]


def test_dead_private_name_check_flags_an_unread_definition(tmp_path, monkeypatch):
    monkeypatch.setattr(f"{__name__}.ROOT", tmp_path)
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "module.py").write_text(
        "_LIMIT = 3\n"
        "_unread = 4\n"
        "def _helper():\n"
        '    """Not _unread: a docstring is no reader."""\n'
        "    return _LIMIT\n"
        "class _Box:\n"
        "    __slots__ = ('_value',)\n"
        "    _kind = float\n"
        "    def __repr__(self):\n"
        "        return 'box'\n"
        "    def _orphan(self):\n"
        "        return self._value\n"
    )
    (tmp_path / "tests" / "test_module.py").write_text(
        "from module import _Box, _helper\n"
        "def test_kind(monkeypatch):\n"
        "    monkeypatch.setattr(_Box, '_kind', int)\n"
    )
    assert dead_private_names() == [
        "src/module.py:2: _unread",
        "src/module.py:11: _orphan",
    ]


def test_no_dead_private_names_in_src():
    problems = dead_private_names()
    assert not problems, "\n".join(problems)


def test_test_only_name_check_flags_a_name_only_tests_read(tmp_path, monkeypatch):
    monkeypatch.setattr(f"{__name__}.ROOT", tmp_path)
    for tree in ("src", "tests", "bench"):
        (tmp_path / tree).mkdir()
    (tmp_path / "src" / "module.py").write_text(
        "LIMIT = 3\n"
        "def used():\n"
        "    return LIMIT\n"
        "def only_tested():\n"
        "    return 4\n"
        "class Box:\n"
        "    def traced(self):\n"
        "        return 1\n"
        "    def checked(self):\n"
        "        return 2\n"
        "    def named(self):\n"
        "        return 3\n"
        "    def orphan(self):\n"
        "        return 4\n"
        "def unread():\n"
        "    return 0\n"
    )
    (tmp_path / "src" / "caller.py").write_text(
        '"""Calls used(), never only_tested(): a docstring is no reader."""\n'
        "from module import used\n"
        "named = used()\n"
        "print(named)\n"
    )
    (tmp_path / "bench" / "tracer.py").write_text("ENTRIES = ['module:Box.traced']\n")
    (tmp_path / "tests" / "test_module.py").write_text(
        "from module import LIMIT, Box, only_tested, used\n"
        "def test_box():\n"
        "    assert Box().traced() + Box().checked() == LIMIT == only_tested() or used()\n"
    )
    # Box is read outside tests/ as a word of a bench string.  A member's
    # bare-name namesake (caller.py's local ``named``) is no reader, and a
    # member nothing reads fails even though no test reads it either.
    assert names_only_tests_read() == [
        "src/module.py:4: only_tested",
        "src/module.py:9: checked",
        "src/module.py:11: named",
        "src/module.py:13: orphan",
    ]


def test_no_src_name_is_read_only_by_tests():
    problems = names_only_tests_read()
    assert not problems, "\n".join(problems)
