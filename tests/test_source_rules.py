"""Rules on the package source itself.

Invariants are checks that raise, never `assert` statements: `python -O`
strips those, and the check goes with them.  Sweeps run in one process,
so no cold start pays for importing the process-pool modules.  Numbers
are exact: floats appear only where the SVG writer serializes a scene.
The weak-order module imports nothing of the geometry it checks, and the
floor table is read only where chambers are built, where the table is
checked and by the halfspace route, so the other routes do not share it.
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


# The one float allowed outside svg.py is the float("inf") order sentinel,
# `coxeter.INF`, at module level in coxeter.py.
_INF_SITES = {("coxeter.py", None)}


def _float_uses(name, source):
    """`name:line` of each float literal and `float(...)` call in the
    source, apart from the allowed sentinels."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Constant) and type(child.value) is float:
                yield f"{name}:{child.lineno}"
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == "float"):
                sentinel = (not child.keywords and len(child.args) == 1
                            and isinstance(child.args[0], ast.Constant)
                            and child.args[0].value == "inf")
                if not (sentinel and (name, scope) in _INF_SITES):
                    yield f"{name}:{child.lineno}"
            yield from walk(child, scope)

    return list(walk(ast.parse(source), None))


def test_floats_only_in_svg():
    found = [use for path in sorted(SRC.glob("*.py")) if path.name != "svg.py"
             for use in _float_uses(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


def test_float_rule_catches_floats():
    source = ('INF = float("inf")\n'
              'def generator_orders_ok():\n    return float("inf")\n'
              'def f(x):\n    return float(x) + 0.5, float("inf")\n')
    assert _float_uses("coxeter.py", source) == ["coxeter.py:3", "coxeter.py:5",
                                                  "coxeter.py:5", "coxeter.py:5"]
    assert _float_uses("tessellation.py", source) == ["tessellation.py:1", "tessellation.py:3",
                                                      "tessellation.py:5", "tessellation.py:5",
                                                      "tessellation.py:5"]


# The only readers of the floor table: building a chamber, checking the
# forms, and the halfspace route.  Words, geodesics, point location,
# intervals, the closure and the weak order fold points instead.
_FLOOR_READERS = {
    ("tessellation.py", "Chamber.__init__"),
    ("tessellation.py", "GroupContext._check_floor_forms"),
    ("tessellation.py", "GroupContext.separating_walls"),
    ("tessellation.py", "GroupContext.wall_distance"),
    ("convexity.py", "_window"),
    ("convexity.py", "halfspace_hull"),
    ("convexity.py", "_HullTable"),
}


def _floor_reads(name, source):
    """`name:line` of each read of `.floors` or `.floor_forms` outside the
    allowed readers, named by the qualified name of the enclosing class or
    function (a class allows all its methods)."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, (*scope, child.name))
                continue
            if (isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load)
                    and child.attr in ("floors", "floor_forms")
                    and not any((name, ".".join(scope[:k])) in _FLOOR_READERS
                                for k in range(1, len(scope) + 1))):
                yield f"{name}:{child.lineno}"
            yield from walk(child, scope)

    return list(walk(ast.parse(source), ()))


def test_floor_table_read_only_by_its_readers():
    found = [use for path in sorted(SRC.glob("*.py"))
             for use in _floor_reads(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


def test_floor_rule_catches_planted_reads():
    source = ("class Chamber:\n"
              "    def __init__(self, ctx):\n"
              "        self.floors = ctx.floor_forms\n"
              "def interval(u, v):\n"
              "    return v.floors\n"
              "class _HullTable:\n"
              "    def offsets(self, c):\n"
              "        return c.floors\n"
              "def _window(points):\n"
              "    return [p.floors for p in points]\n"
              "floors = GroupContext.floor_forms\n")
    assert _floor_reads("convexity.py", source) == ["convexity.py:3", "convexity.py:5",
                                                    "convexity.py:11"]
    assert _floor_reads("tessellation.py", source) == ["tessellation.py:5",
                                                       "tessellation.py:8",
                                                       "tessellation.py:10",
                                                       "tessellation.py:11"]


def _imported_modules(source):
    """Each module the source imports, relative ones with their dots."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.append("." * node.level + (node.module or ""))
    return found


def test_roots_imports_only_coxeter():
    source = (SRC / "roots.py").read_text(encoding="utf-8")
    assert set(_imported_modules(source)) <= {"__future__", ".coxeter"}


def test_import_rule_catches_geometry_imports():
    source = ("from __future__ import annotations\n"
              "from .coxeter import INF\n"
              "from . import group\n"
              "import coxhull.tessellation\n"
              "def f():\n    from .convexity import halfspace_hull\n"
              "    from bench import reference\n")
    assert _imported_modules(source) == ["__future__", ".coxeter", ".",
                                         "coxhull.tessellation", ".convexity",
                                         "bench"]


def test_cold_import_loads_no_process_pool():
    probe = ("import sys, coxhull.cli, coxhull.formulas; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
