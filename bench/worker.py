"""One fresh interpreter's share of a benchmark run.

    python3 bench/worker.py '{"workload": "oracle", "seed": 1, "index": 0,
                              "budget": {"seconds": 5}, "trace": 0}'

prints one JSON object: the set-up time, one record per operation, the
problems found, the peak RSS and, when traced, per-span self times.
`coxhull` is imported only after the set-up clock starts, so the set-up
time covers the import.  Every public call the benchmark makes into
coxhull goes through `Tracer.call`; with tracing off that is a plain call.

An operation fails when it raises or when a check against the references
in `reference.py` finds its answer wrong; either way it is recorded and
the worker goes on.

Trace modes: 0 off; 1 spans on every second round, so that the rounds in
between time the same operations untraced and give the tracing overhead;
2 spans on every round.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
from spans import HULL_SPANS, Tracer, self_times  # noqa: E402

_size = (lambda hull: hull.size)


class Worker:
    """Collects operation records and spans for one process."""

    def __init__(self, trace_mode: int) -> None:
        self.trace_mode = trace_mode
        self.tr = Tracer()
        self.ops = []
        self.problems = []
        self.side_problems = []      # checks outside the timed operations
        self.setup_s = None
        self.first_traced_round = None
        self.first_round_chambers = 0

    def begin_round(self, round_no: int) -> None:
        self.tr.enabled = (self.trace_mode == 2
                           or (self.trace_mode == 1 and round_no % 2 == 1))
        if self.tr.enabled and self.first_traced_round is None:
            self.first_traced_round = round_no
        self.round_no = round_no

    def inputs_for(self, make):
        """This round's inputs; when tracing alternates, a traced round
        repeats the inputs of the untraced round before it, so the two time
        the same operations."""
        if not (self.trace_mode == 1 and self.round_no % 2 == 1):
            self.last_inputs = make()
        return self.last_inputs

    def run_op(self, op_id, kind, tag, triples, fn, check):
        """Time fn() as one operation, then check its answer."""
        # An exception is a result here, not an abort: from the program it
        # fails the operation, from a check it marks the answer wrong.
        start = time.perf_counter()
        try:
            out = self.tr.op(op_id, fn)
        except Exception as exc:
            elapsed = time.perf_counter() - start
            status, found = "error", [f"{type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            try:
                found = check(out)
            except Exception as exc:
                found = [f"check raised {type(exc).__name__}: {exc}"]
            status = "wrong" if found else "ok"
        found = [f"{kind} {tag} {op_id}: {p}" for p in found]
        self.problems.extend(found)
        self.ops.append([kind, tag, elapsed, triples, status, self.tr.enabled])

    def note_chambers(self) -> None:
        if self.tr.enabled and self.round_no == self.first_traced_round:
            self.first_round_chambers = sum(
                s[5] for s in self.tr.spans if s[0] in HULL_SPANS and s[5] is not None)

    def result(self, trace_path=None) -> dict:
        if trace_path and self.tr.spans:
            self.tr.write(trace_path)
        layers = {name: [[ns, ch] for ns, ch in vals]
                  for name, vals in self_times(self.tr.spans).items()}
        return {
            "setup_s": self.setup_s,
            "ops": self.ops,
            "problems": self.problems[:20],
            "side_problems": self.side_problems,
            "wrong": sum(op[4] == "wrong" for op in self.ops),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "layers": layers,
            "hull_chambers": self.first_round_chambers,
        }


def _hull_problems(hull, points, min_size):
    found = []
    if not all(p in hull for p in points):
        found.append("hull misses one of its points")
    if hull.size < min_size:
        found.append(f"hull has {hull.size} chambers, fewer than {min_size}")
    return found


# -- sweep ----------------------------------------------------------------------

def sweep(params: dict) -> Worker:
    """One `coxhull check --type T --radius 8` in this interpreter: set-up is
    the import, the context and the ball; the operation is the sweep and
    its JSON report.  Mode "kernel" passes oracle_samples=0 instead."""
    tag_code, seed, kernel = params["tag"], params["sweep_seed"], params["mode"] == "kernel"
    w = Worker(params["trace"])
    w.begin_round(params["round"])
    want_ball = reference.bott_ball_size(tag_code, inputs.SWEEP_RADIUS)
    t0 = time.perf_counter()
    from coxhull.convexity import halfspace_hull, strong_hull_check, sweep_triples
    from coxhull.coxeter import TypeTag
    from coxhull.tessellation import build_group
    tag = TypeTag.from_code(tag_code)
    tr = w.tr
    ctx = tr.call("tessellation.context_build", build_group, tag)
    ball = tr.call("tessellation.ball", ctx.ball, inputs.SWEEP_RADIUS)
    w.setup_s = time.perf_counter() - t0
    if len(ball) != want_ball:
        w.side_problems.append(
            f"sweep {tag_code}: ball(8) has {len(ball)} chambers, Bott gives {want_ball}")

    def op():
        if kernel:
            report = tr.call("convexity.sweep_kernel", sweep_triples, tag,
                             inputs.SWEEP_RADIUS, 1, seed, 0)
        else:
            report = tr.call("convexity.sweep_triples", sweep_triples, tag,
                             inputs.SWEEP_RADIUS, 1, seed)
        return tr.call("convexity.report_json", report.to_json)

    def check(text):
        rep = json.loads(text)
        found = []
        if rep["counterexamples"]:
            found.append(f"{len(rep['counterexamples'])} counterexamples")
        if rep["max_ratio"] != {"num": 1, "den": 1}:
            found.append(f"max_ratio {rep['max_ratio']} is not exactly 1")
        if rep["triples_checked"] != want_ball ** 2:
            found.append(f"{rep['triples_checked']} triples checked, |B(8)|^2 = {want_ball ** 2}")
        if (rep["type"], rep["radius"]) != (tag_code, inputs.SWEEP_RADIUS):
            found.append(f"report is for {rep['type']} r{rep['radius']}")
        return found

    w.run_op(f"{tag_code}:{params['round']}", "kernel" if kernel else "sweep",
             tag_code, want_ball ** 2, op, check)
    if tr.enabled and not kernel:
        # Hull layers timed warm on a seeded sample of the sweep's own pairs.
        u = ctx.base_chamber
        for k, (i, j) in enumerate(inputs.sweep_probe_pairs(params["seed"], tag_code, len(ball))):
            v, x = ball[i], ball[j]
            tr.current_op = f"probe:{tag_code}:{k}"
            tr.call("convexity.pair_hull", halfspace_hull, [v, x], chambers=_size)
            tr.call("convexity.triple_hull", halfspace_hull, [u, v, x], chambers=_size)
            if not tr.call("convexity.strong_hull_check", strong_hull_check, u, v, x).holds:
                w.side_problems.append(f"probe {tag_code} {k}: strong hull inequality fails")
        tr.current_op = None
        w.note_chambers()
    return w


# -- oracle ----------------------------------------------------------------------

def oracle(params: dict) -> Worker:
    """checked_hull on seeded triples from the radius-6 balls, one triple
    per planar type per round.  Set-up: import, contexts, ball chambers."""
    seed, index = params["seed"], params["index"]
    w = Worker(params["trace"])
    reps = inputs.root_reps()
    words = {tag: reps[tag].ball(inputs.ORACLE_RADIUS) for tag in reference.TYPES}
    rng = inputs.rng_for("oracle", seed, index)
    t0 = time.perf_counter()
    from coxhull.convexity import (HullDisagreement, checked_hull, closure_hull,
                                   halfspace_hull)
    from coxhull.coxeter import TypeTag
    from coxhull.tessellation import build_group
    tr = w.tr
    tr.enabled = params["trace"] > 0
    ctxs, chambers = {}, {}
    for tag in reference.TYPES:
        ctx = ctxs[tag] = tr.call("tessellation.context_build", build_group,
                                  TypeTag.from_code(tag))
        chambers[tag] = [tr.call("tessellation.chamber_from_word", ctx.chamber_from_word, wd)
                         for wd in words[tag]]
    w.setup_s = time.perf_counter() - t0
    for tag in reference.TYPES:
        ctx = ctxs[tag]
        ball = tr.call("tessellation.ball", ctx.ball, inputs.ORACLE_RADIUS)
        if set(ball) != set(chambers[tag]) or len(ball) != len(words[tag]):
            w.side_problems.append(f"oracle {tag}: radius-6 ball differs from the reference ball")
        if any(ctx.wall_distance(ctx.base_chamber, c) != len(wd)
               for c, wd in zip(chambers[tag], words[tag])):
            w.side_problems.append(
                f"oracle {tag}: a wall distance differs from a reduced word length")

    def checked(pts, need):
        try:
            return tr.call("convexity.checked_hull", checked_hull, pts), pts, need
        except HullDisagreement as exc:     # a wrong answer, not a crash
            return exc, pts, need

    def check(out):
        hull, pts, need = out
        if isinstance(hull, HullDisagreement):
            return [str(hull)]
        return _hull_problems(hull, pts, need)

    sizes = {tag: len(words[tag]) for tag in reference.TYPES}
    for round_no in inputs.round_numbers(params["budget"], params["trace"]):
        w.begin_round(round_no)
        for tag, idx in w.inputs_for(lambda: inputs.oracle_round(rng, sizes)):
            pts = [chambers[tag][i] for i in idx]
            wds = [words[tag][i] for i in idx]
            rep = reps[tag]
            need = 1 + max(rep.distance(wds[a], wds[b]) for a in range(3) for b in range(a + 1, 3))
            op_id = f"{index}:{round_no}:{tag}"
            w.run_op(op_id, "oracle", tag, 1, lambda: checked(pts, need), check)
            if tr.enabled:
                # The two routes checked_hull runs, split apart.
                tr.current_op = op_id
                tr.call("convexity.triple_hull", halfspace_hull, pts, chambers=_size)
                tr.call("convexity.closure_hull", closure_hull, pts, chambers=_size)
                tr.current_op = None
        w.note_chambers()
    return w


# -- query -----------------------------------------------------------------------

def query(params: dict) -> Worker:
    """Cold queries, each on a context of its own, as a new `coxhull hull`
    or `coxhull formula --verify` process runs them.  Set-up: the import."""
    seed, index = params["seed"], params["index"]
    w = Worker(params["trace"])
    reps = inputs.root_reps()
    rng = inputs.rng_for("query", seed, index)
    t0 = time.perf_counter()
    from coxhull.convexity import halfspace_hull, strong_hull_check
    from coxhull.coxeter import TypeTag
    from coxhull.formulas import C2CaseParams, a2_reduced_triple, c2_case2_chambers
    from coxhull.tessellation import GroupContext
    w.setup_s = time.perf_counter() - t0
    tr = w.tr
    tags = {tag: TypeTag.from_code(tag) for tag in reference.TYPES}

    def hull_op(tag, word_triple):
        ctx = tr.call("tessellation.context_build", GroupContext, tags[tag])
        u, v, x = (tr.call("tessellation.chamber_from_word", ctx.chamber_from_word, wd)
                   for wd in word_triple)
        hulls = [tr.call("convexity.pair_hull", halfspace_hull, pair, chambers=_size)
                 for pair in ([u, v], [v, x], [u, x])]
        hulls.append(tr.call("convexity.triple_hull", halfspace_hull, [u, v, x], chambers=_size))
        verdict = tr.call("convexity.strong_hull_check", strong_hull_check, u, v, x)
        canon = [tr.call("tessellation.word_of", ctx.word_of, c) for c in (u, v, x)]
        dists = [ctx.wall_distance(a, b) for a, b in ((u, v), (v, x), (u, x))]
        return (u, v, x), hulls, verdict, canon, dists

    def hull_check(out, tag, word_triple):
        (u, v, x), (huv, hvw, huw, huvw), verdict, canon, dists = out
        rep, wu, wv, wx = reps[tag], *word_triple
        found = []
        ref = [rep.distance(a, b) for a, b in ((wu, wv), (wv, wx), (wu, wx))]
        if dists != ref:
            found.append(f"wall distances {dists}, root lattice gives {ref}")
        if [len(c) for c in canon] != [len(wd) for wd in word_triple]:
            found.append("a canonical word is not as long as the reduced input word")
        for hull, pts, d in ((huv, (u, v), ref[0]), (hvw, (v, x), ref[1]),
                             (huw, (u, x), ref[2]), (huvw, (u, v, x), max(ref))):
            found += _hull_problems(hull, pts, d + 1)
        if not (huv <= huvw and hvw <= huvw and huw <= huvw):
            found.append("the triple hull does not contain a pair hull")
        if (verdict.size_uv, verdict.size_vw, verdict.size_uvw) != (huv.size, hvw.size, huvw.size):
            found.append("strong_hull_check sizes differ from the hulls")
        if not verdict.holds:
            found.append("strong hull inequality fails")
        return found

    def closed_form_op(kind, tag, params):
        ctx = tr.call("tessellation.context_build", GroupContext, tags[tag])
        if kind == "a2":
            u, v, x = tr.call("formulas.point_location", a2_reduced_triple, ctx, *params)
        else:
            u, v, x = tr.call("formulas.point_location", c2_case2_chambers, ctx,
                              C2CaseParams(*params))
        return tuple(tr.call(name, halfspace_hull, pts, chambers=_size).size
                     for name, pts in (("convexity.pair_hull", [u, v]),
                                       ("convexity.pair_hull", [v, x]),
                                       ("convexity.triple_hull", [u, v, x])))

    def closed_form_check(sizes, kind, params):
        want = (reference.a2_triple_counts(*params) if kind == "a2"
                else reference.c2_case2_counts(*params))
        found = []
        if sizes != want:
            found.append(f"hull sizes {sizes} at {params}, the paper's counts are {want}")
        if sizes[0] * sizes[1] < sizes[2]:
            found.append("strong hull inequality fails")
        return found

    for round_no in inputs.round_numbers(params["budget"], params["trace"]):
        w.begin_round(round_no)
        for k, (kind, tag, args) in enumerate(w.inputs_for(lambda: inputs.query_round(rng, reps))):
            op_id = f"{index}:{round_no}:{k}"
            if kind == "hull":
                w.run_op(op_id, kind, tag, 1, lambda: hull_op(tag, args),
                         lambda out: hull_check(out, tag, args))
            else:
                w.run_op(op_id, kind, tag, 1, lambda: closed_form_op(kind, tag, args),
                         lambda out: closed_form_check(out, kind, args))
        w.note_chambers()
    return w


WORKLOADS = {"sweep": sweep, "oracle": oracle, "query": query}


def main(argv) -> int:
    params = json.loads(argv[1])
    worker = WORKLOADS[params["workload"]](params)
    print(json.dumps(worker.result(params.get("trace_path"))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
