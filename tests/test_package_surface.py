"""Every ``repro`` module imports, and every name in its ``__all__`` resolves.

A dynamic twin of ruff's F822 (undefined name in ``__all__``).  The static
rule checks one file at a time, so it misses a stale ``from repro.x import
Y`` of a module or name that no longer exists; importing every module
catches both, and a name a package still lists but no longer defines.
"""

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
