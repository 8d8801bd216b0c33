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


def _private_imports(path):
    """(module, name) for each underscore name that ``path`` imports from
    a module of the package, by a relative or an absolute import."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "semigroupoids":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield "." * node.level + module, alias.name


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.rglob("*.py"))
    private = {
        (str(path.relative_to(PACKAGE)), source, name)
        for path in modules
        for source, name in _private_imports(path)
    }
    assert private == set()
