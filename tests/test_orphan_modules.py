"""Every module under ``src/repro`` must have a user outside ``tests/``.

A module that only its own tests import costs reading and upkeep without
serving the product.  This guard reads the import statements of the
package, the examples, the benchmarks and perfbench, and names every
``repro`` module that no non-test code imports.  A name re-exported by a
package ``__init__`` counts as a use of the module that defines it; the
``__init__`` itself is never a user.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
USER_DIRS = ("src", "examples", "benchmarks", "perfbench")
ENTRY_POINTS = {"repro.__main__", "repro.cli"}


def module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imports(path: pathlib.Path):
    """``(module, name)`` per imported name; ``name`` is None for ``import m``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                yield node.module, alias.name


def user_files():
    """Non-test code outside package ``__init__`` files: the possible users."""
    for top in USER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py" and "tests" not in path.relative_to(ROOT).parts:
                yield path


def used_modules(modules: dict, packages: set) -> set:
    reexports = {
        (pkg, name): mod
        for pkg in packages
        for mod, name in imports(modules[pkg])
        if name is not None and mod in modules
    }
    used = set()
    for path in user_files():
        for mod, name in imports(path):
            used.add(mod)
            if name is None:
                continue
            used.add(f"{mod}.{name}")
            while (mod, name) in reexports:
                mod = reexports[mod, name]
                used.add(mod)
    return used


def test_no_module_is_imported_only_from_tests():
    modules = {module_name(p): p for p in (SRC / "repro").rglob("*.py")}
    packages = {m for m, p in modules.items() if p.name == "__init__.py"}
    used = used_modules(modules, packages)
    orphans = sorted(set(modules) - packages - ENTRY_POINTS - used)
    assert not orphans, f"modules with no user outside tests/: {orphans}"
