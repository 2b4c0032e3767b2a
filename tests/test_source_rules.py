"""Rules on the package source itself.

Invariants are checks that raise, never `assert` statements: `python -O`
strips those, and the check goes with them.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "coxhull"


def test_package_has_no_assert_statements():
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no package sources under {SRC}"
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
