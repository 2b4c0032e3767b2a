"""The benchmark's own tests: its references, its failure accounting and
its seeded inputs.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import reference
import worker
from coxhull.convexity import halfspace_hull
from coxhull.coxeter import TypeTag, matrix_for
from coxhull.formulas import C2CaseParams, a2_reduced_triple, c2_case2_chambers
from coxhull.tessellation import build_group
from spans import Tracer, self_times

BENCH = Path(__file__).resolve().parent.parent


def _ctx(tag):
    return build_group(TypeTag.from_code(tag))


# -- references ---------------------------------------------------------------------

def test_bott_formula_gives_the_ball_sizes():
    assert [reference.bott_ball_size(t, 8) for t in reference.TYPES] == [109, 97, 88]
    for tag in reference.TYPES:
        rep, ctx = reference.RootRep(tag), _ctx(tag)
        for r in range(13):
            want = reference.bott_ball_size(tag, r)
            assert len(rep.ball(r)) == want
            assert len(ctx.ball(r)) == want


def test_root_representation_realizes_the_coxeter_matrix():
    for tag in reference.TYPES:
        rep = reference.RootRep(tag)
        assert reference.COXETER[tag] == matrix_for(TypeTag.from_code(tag)).entries
        for i in range(3):
            for j in range(3):
                if i != j:
                    m = reference.COXETER[tag][i][j]
                    powers = [rep.element((i, j) * k) for k in range(1, m + 1)]
                    assert powers.index(rep.identity) == m - 1


def test_reduced_words_are_geodesic_in_the_program():
    rng = random.Random(7)
    for tag in reference.TYPES:
        rep, ctx = reference.RootRep(tag), _ctx(tag)
        for _ in range(200):
            word = rep.random_reduced(rng, rng.randint(0, 30))
            c = ctx.chamber_from_word(word)
            assert ctx.wall_distance(ctx.base_chamber, c) == len(word)
            assert len(ctx.word_of(c)) == len(word)
            any_word = tuple(rng.randrange(3) for _ in range(rng.randint(0, 20)))
            reduced = rep.reduced(any_word)
            assert len(reduced) == rep.length(any_word)
            assert ctx.chamber_from_word(reduced) == ctx.chamber_from_word(any_word)


def test_reference_ball_is_the_program_ball():
    for tag in reference.TYPES:
        ctx = _ctx(tag)
        words = reference.RootRep(tag).ball(8)
        assert {ctx.chamber_from_word(w) for w in words} == set(ctx.ball(8))


def test_closed_forms_match_enumeration():
    ctx = _ctx("a2t")
    a2 = 0
    for x in range(8):
        for y in range(5):
            for a in range(6):
                for b in range(4):
                    try:
                        want = reference.a2_triple_counts(x, y, a, b)
                    except ValueError:
                        continue
                    u, v, w = a2_reduced_triple(ctx, x, y, a, b)
                    got = tuple(halfspace_hull(p).size for p in ([u, v], [v, w], [u, v, w]))
                    assert got == want, (x, y, a, b)
                    a2 += 1
    ctx = _ctx("c2t")
    c2 = 0
    for a in inputs.C2_A:
        for b in inputs.C2_B:
            for x in (a + 3, a + 7, a + 11):
                for y in range(b + 2, b + 7):
                    u, v, w = c2_case2_chambers(ctx, C2CaseParams(a, b, x, y))
                    got = tuple(halfspace_hull(p).size for p in ([u, v], [v, w], [u, v, w]))
                    assert got == reference.c2_case2_counts(a, b, x, y), (a, b, x, y)
                    c2 += 1
    assert (a2, c2) == (162, 180)


def test_closed_forms_refuse_inputs_outside_their_configurations():
    with pytest.raises(ValueError):
        reference.a2_triple_counts(2, 2, 1, 1)      # x+y even
    with pytest.raises(ValueError):
        reference.c2_case2_counts(2, 2, 5, 3)       # y < b+2


# -- failure accounting -------------------------------------------------------------

def _query(rounds=2):
    return worker.query({"seed": 1, "index": 0, "budget": {"rounds": rounds}, "trace": 0})


def test_a_wrong_answer_is_a_failed_operation_and_the_run_goes_on(monkeypatch):
    monkeypatch.setattr(reference, "c2_case2_counts", lambda *p: (0, 0, 0))
    res = _query().result()
    kinds = [(op[0], op[4]) for op in res["ops"]]
    assert len(kinds) == 10
    assert kinds.count(("c2", "wrong")) == 2
    assert all(status == "ok" for kind, status in kinds if kind != "c2")
    assert res["wrong"] == 2 and len(res["problems"]) == 2


def test_an_exception_in_the_program_is_a_failed_operation(monkeypatch):
    import coxhull.formulas

    def broken(*args):
        raise RuntimeError("point location failed")
    monkeypatch.setattr(coxhull.formulas, "a2_reduced_triple", broken)
    res = _query().result()
    assert [op[4] for op in res["ops"] if op[0] == "a2"] == ["error", "error"]
    assert res["wrong"] == 0
    assert sum(op[4] == "ok" for op in res["ops"]) == 8


def test_a_hull_disagreement_is_a_wrong_answer(monkeypatch):
    import coxhull.convexity

    def disagree(points):
        h = halfspace_hull(points)
        raise coxhull.convexity.HullDisagreement(points[0].ctx, points, h, h)
    monkeypatch.setattr(coxhull.convexity, "checked_hull", disagree)
    res = worker.oracle({"seed": 1, "index": 0, "budget": {"rounds": 1}, "trace": 0}).result()
    assert [op[4] for op in res["ops"]] == ["wrong"] * 3


def test_a_clean_run_has_no_problems():
    res = _query(rounds=1).result()
    assert res["problems"] == [] and res["side_problems"] == []
    assert res["setup_s"] > 0


# -- inputs -------------------------------------------------------------------------

def _all_inputs(seed):
    reps = inputs.root_reps()
    sizes = {t: len(reps[t].ball(inputs.ORACLE_RADIUS)) for t in reference.TYPES}
    orng, qrng = inputs.rng_for("oracle", seed, 0), inputs.rng_for("query", seed, 0)
    return ([inputs.sweep_seed(seed, r) for r in range(4)],
            inputs.sweep_probe_pairs(seed, "a2t", 109),
            [inputs.oracle_round(orng, sizes) for _ in range(20)],
            [inputs.query_round(qrng, reps) for _ in range(20)])


def test_inputs_are_fixed_by_the_seed():
    assert _all_inputs(3) == _all_inputs(3)
    one, two = _all_inputs(3), _all_inputs(4)
    assert all(a != b for a, b in zip(one, two))


def test_query_inputs_stay_in_range():
    reps = inputs.root_reps()
    rng = inputs.rng_for("query", 5, 0)
    lo, hi = inputs.QUERY_WORD_LENGTHS
    for _ in range(200):
        for kind, tag, args in inputs.query_round(rng, reps):
            if kind == "hull":
                assert all(lo <= len(w) <= hi and reps[tag].length(w) == len(w) for w in args)
            elif kind == "a2":
                reference.a2_triple_counts(*args)
            else:
                reference.c2_case2_counts(*args)


# -- spans --------------------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    spans = [["op", 0, 100, None, "t", None],
             ["a", 10, 30, 0, "t", None],
             ["b", 40, 70, 0, "t", 5],
             ["c", 50, 60, 2, "t", None]]
    got = self_times(spans)
    assert got["op"] == [(50, None)]
    assert got["b"] == [(20, 5)]
    assert got["c"] == [(10, None)]


def test_tracer_records_parents_and_ops():
    tr = Tracer()
    tr.enabled = True
    tr.op("t1", lambda: tr.call("inner", len, [1, 2], chambers=lambda n: n))
    (op, inner) = tr.spans
    assert op[0] == "op" and op[3] is None and op[4] == "t1"
    assert inner[0] == "inner" and inner[3] == 0 and inner[4] == "t1" and inner[5] == 2
    tr.enabled = False
    assert tr.call("x", len, [1]) == 1 and len(tr.spans) == 2


# -- the command ---------------------------------------------------------------------

def test_run_prints_the_result_line(tmp_path):
    shutil.copytree(BENCH.parent / "src", tmp_path / "src")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "query",
                           "--seed", "2", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] % 5 == 0
    assert set(result["metrics"]) == {"triples_per_s", "p50_ms", "p90_ms", "setup_s",
                                      "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_names_the_metrics_run_prints():
    import run
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert spec["paths"] == ["bench"]
