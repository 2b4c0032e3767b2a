"""Rules on the package source itself.

Invariants are checks that raise, never `assert` statements: `python -O`
strips those, and the check goes with them.  Sweeps run in one process,
so no cold start pays for importing the process-pool modules, and no
module imports `dataclasses`, which loads `inspect`, `ast`, `dis` and
`tokenize` and builds each decorated class by `exec`.  Numbers
are exact: floats appear only where the SVG writer serializes a scene.
The weak-order module imports nothing of the geometry it checks, and the
floor table is read only where chambers are built, where the table is
checked, by the halfspace route and by the sweep that feeds the mask
kernel, so the other routes do not share it; the kernel itself sees
integer vectors only, and the weak order that checks it calls neither the
kernel nor the orbit maps.  The sweep's loop, `_sweep`, is part of that
kernel, and the weak order sees words, not chambers or their contexts.
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
# forms, the halfspace route, and the sweep, which hands the mask kernel
# floor vectors.  Words, geodesics, point location, intervals, the
# closure and the weak order fold points instead.
_FLOOR_READERS = {
    ("tessellation.py", "Chamber.__init__"),
    ("tessellation.py", "GroupContext._check_floor_forms"),
    ("tessellation.py", "GroupContext.separating_walls"),
    ("tessellation.py", "GroupContext.wall_distance"),
    ("convexity.py", "halfspace_hull"),
    ("convexity.py", "sweep_triples"),
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
              "class _WeakOrder:\n"
              "    def check(self, c):\n"
              "        return c.floors\n"
              "def sweep_triples(cover):\n"
              "    return [c.floors for c in cover]\n"
              "floors = GroupContext.floor_forms\n")
    assert _floor_reads("convexity.py", source) == ["convexity.py:3", "convexity.py:5",
                                                    "convexity.py:8", "convexity.py:11"]
    assert _floor_reads("tessellation.py", source) == ["tessellation.py:5",
                                                       "tessellation.py:8",
                                                       "tessellation.py:10",
                                                       "tessellation.py:11"]


# The mask kernel and the sweep loop around it work on integer vectors and
# edge tables alone: they read no floor and no context, and name no
# chamber type, so any wall coordinates serve.
_KERNEL = {"_offset_rows", "_hull_masks", "_row_sizes", "_sweep"}
_KERNEL_BANNED = {"floors", "floor_forms", "ctx", "Chamber", "ChamberSet"}

# The weak order checks what the kernel and the orbit maps give, so it
# names neither: its hulls come from the Cartan matrix and the words it
# is handed, so it names no context, chamber, neighbour or fold either.
_ORACLE = {"_WeakOrder"}
_ORACLE_BANNED_DEFS = {"_offset_rows", "_hull_masks", "_row_sizes", "_orbit_maps", "_check_map"}
_ORACLE_BANNED = _ORACLE_BANNED_DEFS | {"ctx", "Chamber", "neighbors", "letters_of"}


def _names_in(source, tops, banned):
    """(definition, line) of each name, attribute, parameter or keyword
    argument in `banned` inside the top-level definitions named in `tops`."""
    return [(top.name, node.lineno)
            for top in ast.parse(source).body if getattr(top, "name", None) in tops
            for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id in banned
            or isinstance(node, ast.Attribute) and node.attr in banned
            or isinstance(node, (ast.arg, ast.keyword)) and node.arg in banned]


def _kernel_reads(source):
    return _names_in(source, _KERNEL, _KERNEL_BANNED)


def _oracle_reads(source):
    return _names_in(source, _ORACLE, _ORACLE_BANNED)


def test_hull_kernel_knows_no_chamber():
    source = (SRC / "convexity.py").read_text(encoding="utf-8")
    assert _KERNEL <= {getattr(top, "name", None) for top in ast.parse(source).body}
    assert _kernel_reads(source) == []


def test_kernel_rule_catches_planted_reads():
    source = ("def _hull_masks(rows, v, w):\n"
              "    return v.floors\n"
              "def _offset_rows(cover, u) -> ChamberSet:\n"
              "    return u.ctx.floor_forms\n"
              "def _row_sizes(rows, cols, i):\n"
              "    return Chamber\n"
              "def _sweep(vectors, ball, edges, perms, weak, seed, samples):\n"
              "    return [ctx.word_of(Chamber(v)) for v in vectors]\n"
              "def sweep_triples(ctx, cover):\n"
              "    return ChamberSet(c.floors for c in cover)\n")
    assert _kernel_reads(source) == [("_hull_masks", 2), ("_offset_rows", 3),
                                     ("_offset_rows", 4), ("_offset_rows", 4),
                                     ("_row_sizes", 6), ("_sweep", 8), ("_sweep", 8)]


def test_weak_order_names_no_kernel_or_orbit_map():
    source = (SRC / "convexity.py").read_text(encoding="utf-8")
    names = {getattr(top, "name", None) for top in ast.parse(source).body}
    assert _ORACLE | _ORACLE_BANNED_DEFS <= names
    assert _oracle_reads(source) == []


def test_oracle_rule_catches_planted_reads():
    source = ("class _WeakOrder:\n"
              "    def check(self, rows, v, w):\n"
              "        return _hull_masks(rows, v, w)\n"
              "    def sizes(self, ball):\n"
              "        return convexity._orbit_maps(ball, []), self._row_sizes\n"
              "    def __init__(self, ctx, ball):\n"
              "        self.words = [self.ctx.letters_of(c) for c in ball]\n"
              "        self.edges = [c.neighbors() for c in ball if isinstance(c, Chamber)]\n"
              "        self.sizes = f(ctx=1)\n"
              "def sweep_triples(rows, ball, ctx):\n"
              "    return _offset_rows(rows), _check_map, ctx.letters_of(ball[0])\n")
    # ast.walk goes breadth first: the `ctx` parameter of line 6 comes
    # first, and the `ctx=` keyword of line 9 ahead of the deeper reads.
    assert _oracle_reads(source) == [("_WeakOrder", 6), ("_WeakOrder", 3),
                                     ("_WeakOrder", 5), ("_WeakOrder", 9),
                                     ("_WeakOrder", 5), ("_WeakOrder", 7),
                                     ("_WeakOrder", 8), ("_WeakOrder", 7),
                                     ("_WeakOrder", 8)]


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


def _dataclass_imports(source):
    """Each import of the stdlib `dataclasses` in the source."""
    return [m for m in _imported_modules(source) if m.split(".")[0] == "dataclasses"]


def test_package_imports_no_dataclasses():
    found = [path.name for path in sorted(SRC.glob("*.py"))
             if _dataclass_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_dataclass_rule_catches_planted_imports():
    source = ("import collections, dataclasses\n"
              "from .dataclasses import Record\n"
              "def f():\n    from dataclasses import asdict\n"
              "    import dataclasses.fields\n")
    assert _dataclass_imports(source) == ["dataclasses", "dataclasses", "dataclasses.fields"]


def test_cold_import_loads_no_process_pool():
    # Counted against the modules loaded before the import, so whatever
    # `site` loads at start-up does not count.
    probe = ("import sys; before = set(sys.modules); import coxhull.cli, coxhull.formulas; "
             "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in "
             "('multiprocessing', 'concurrent', 'dataclasses', 'inspect')))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
