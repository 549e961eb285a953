"""Source hygiene checks that need no linter: only the standard library."""

import ast
from pathlib import Path

import lipfree

PACKAGE = Path(lipfree.__file__).parent


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by import statements that no other node of the module
    reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        # The package's own imports are its public names.
        if path.name == "__init__.py":
            continue
        unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if unused:
            found[path.name] = unused
    assert found == {}


def test_unused_import_check_sees_an_unused_name():
    tree = ast.parse("import os\nfrom json import dumps, loads\n"
                     "from . import io\nloads(io.x)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "dumps")]
