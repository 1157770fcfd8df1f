"""Every module under ``src/repro`` is reached from a root.

A root is the CLI (``repro.cli``, ``repro.__main__``) or any file under
``benchmarks/``, ``perfbench/`` or ``tools/``.  The walk is static: it
follows every ``import`` and ``from ... import`` statement of a reached
module, those inside functions included.  ``from pkg import name``
resolves ``name`` through the package's re-exports to the module that
defines it, and ``import pkg`` reaches only ``pkg/__init__.py``, whose
own imports are not followed.  So a package re-export alone keeps no
module alive: a module that only tests or examples import belongs in
``tests/`` or goes.
"""

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ROOT_MODULES = ("repro.cli", "repro.__main__")
ROOT_DIRS = ("benchmarks", "perfbench", "tools")


def _module_path(name):
    """Source file of repro module ``name``, or None for anything else."""
    if name.split(".")[0] != "repro":
        return None
    base = SRC.joinpath(*name.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


@functools.lru_cache(maxsize=None)
def _imports(path):
    """``(module, name)`` per imported name in the file; ``name`` is None
    for ``import module``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, f"{path}: relative import"
            out.extend((node.module, alias.name) for alias in node.names)
    return tuple(out)


def _resolve(module, name):
    """The repro modules that ``from module import name`` (or, with
    ``name`` None, ``import module``) reaches."""
    path = _module_path(module)
    if path is None:
        return set()
    if name is None or path.name != "__init__.py":
        return {module}
    if _module_path(f"{module}.{name}") is not None:
        return {module, f"{module}.{name}"}
    for source, exported in _imports(path):
        if exported == name:
            return {module} | _resolve(source, exported)
    return {module}


def reached_modules():
    """Every repro module the roots reach."""
    pending = [path for directory in ROOT_DIRS
               for path in (ROOT / directory).rglob("*.py")]
    pending += [_module_path(name) for name in ROOT_MODULES]
    reached = set(ROOT_MODULES)
    while pending:
        for source, name in _imports(pending.pop()):
            for target in _resolve(source, name) - reached:
                reached.add(target)
                path = _module_path(target)
                if path.name != "__init__.py":
                    pending.append(path)
    return reached


def all_modules():
    """Every non-package module under ``src/repro``, dotted."""
    return {".".join(path.relative_to(SRC).with_suffix("").parts)
            for path in (SRC / "repro").rglob("*.py")
            if path.name != "__init__.py"}


def test_every_src_module_is_reached_from_a_root():
    unreached = sorted(name.removeprefix("repro.")
                       for name in all_modules() - reached_modules())
    assert unreached == [], (
        "no command, bench, perfbench workload or tool imports these "
        f"modules: {unreached}")


def test_a_reexport_alone_reaches_nothing():
    """``import repro`` reaches the package, not what it re-exports, and
    ``from repro import name`` reaches the defining module."""
    assert _resolve("repro", None) == {"repro"}
    assert _resolve("repro", "SweepSpec") == {
        "repro", "repro.runtime", "repro.runtime.config"}
    assert _resolve("repro.core", "session") == {
        "repro.core", "repro.core.session"}
