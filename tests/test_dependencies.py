"""The package runs on the standard library alone: every absolute import
in its modules names a standard-library module or the package itself."""

import ast
import pathlib
import sys

import semigroupoids

PACKAGE = pathlib.Path(semigroupoids.__file__).parent


def _absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    foreign = {
        (str(path.relative_to(PACKAGE)), name)
        for path in modules
        for name in _absolute_imports(path)
        if name not in sys.stdlib_module_names and name != "semigroupoids"
    }
    assert foreign == set()
