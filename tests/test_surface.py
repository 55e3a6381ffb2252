"""The settable surface: every parameter with a default of every function in
the package, plus every field of a `*Config` dataclass, counted with `ast`.

A change that adds or removes an option moves this count; it updates
SETTABLE and says why in CHANGES.md.
"""
import ast
from pathlib import Path

import minis2st

SETTABLE = 163


def settable_count() -> int:
    count = 0
    for path in sorted(Path(minis2st.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def test_settable_count_is_pinned():
    assert settable_count() == SETTABLE
