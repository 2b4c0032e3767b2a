"""Rules on the package source itself.

Invariants are checks that raise, never `assert` statements: `python -O`
strips those, and the check goes with them.  Sweeps run in one process,
so no cold start pays for importing the process-pool modules.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "coxhull"


def test_package_has_no_assert_statements():
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no package sources under {SRC}"
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_cold_import_loads_no_process_pool():
    probe = ("import sys, coxhull.cli, coxhull.formulas; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
