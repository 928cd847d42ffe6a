from __future__ import annotations

import ast
import importlib
from pathlib import Path

import tradenet
from tradenet import guards

SRC = Path(tradenet.__file__).parent


def test_every_guard_is_declared_once_in_the_guard_table():
    assigned = {
        (path.name, node.id)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        and node.id.endswith("_GUARD")
    }
    table = ("SIZE_GUARD", "ENUMERATION_GUARD", "BRUTE_GUARD", "SET_GUARD", "TRAIL_GUARD",
             "PARTITION_GUARD")
    assert assigned == {("guards.py", name) for name in table}
    for path in SRC.glob("*.py"):
        module = importlib.import_module(
            "tradenet" if path.stem == "__init__" else f"tradenet.{path.stem}"
        )
        for name in dir(module):
            if name.endswith("_GUARD"):
                assert getattr(module, name) is getattr(guards, name), (path.name, name)
