"""The package surface: `critind` re-exports exactly what its modules
declare public, so a name deleted from a module cannot linger as a stale
export, and a new public name cannot be left out of the package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import critind

INIT = ast.parse(Path(critind.__file__).read_text())


def modules_with_all():
    for info in pkgutil.iter_modules(critind.__path__):
        module = importlib.import_module(f"critind.{info.name}")
        if hasattr(module, "__all__"):
            yield module


def test_every_module_export_is_in_the_package():
    modules = list(modules_with_all())
    assert {m.__name__ for m in modules} >= {"critind.analysis", "critind.critical", "critind.graph",
                                            "critind.matching", "critind.oracle"}
    for module in modules:
        for name in module.__all__:
            assert getattr(critind, name, None) is getattr(module, name), f"{module.__name__}.{name}"


def test_every_package_import_is_a_module_export():
    exported = {name for module in modules_with_all() for name in module.__all__}
    imported = [
        alias.asname or alias.name
        for node in INIT.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    stale = [name for name in imported if not name.startswith("_") and name not in exported]
    assert stale == []


CROSS_CHECKS = (
    "bipartite_double",
    "forced_difference",
    "has_augmenting_path",
    "hopcroft_karp",
    "max_matching_bipartite",
    "max_matching_general",
    "min_vertex_cover_bipartite",
)


def test_cross_checks_are_not_exported():
    exported = {name for module in modules_with_all() for name in module.__all__}
    assert [name for name in CROSS_CHECKS if hasattr(critind, name) or name in exported] == []
