"""Test modules share their model families, transforms and switches through
`families` alone: no test module imports another, so each one runs, moves
and goes on its own."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent


def imported_modules(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def test_no_test_module_imports_another():
    crossed = [
        f"{path.name} imports {name}"
        for path in sorted(TESTS.glob("test_*.py"))
        for name in imported_modules(path)
        if name.split(".")[0].startswith("test_")
    ]
    assert crossed == []
