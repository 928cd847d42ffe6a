from __future__ import annotations

import ast
from pathlib import Path

import tradenet

SRC = Path(tradenet.__file__).parent


def test_every_import_is_at_module_level():
    inside = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside += [
                    (path.name, func.name, node.lineno)
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert inside == []
