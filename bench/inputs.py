"""Seeded inputs for the three workloads.

Everything here is a function of the run's `--seed` and of a position
(the worker process and the round), so a given seed always yields the
same inputs, whatever the machine's speed, and the program receives only
the generated words and parameters.  String seeds are hashed by
`random.Random` with SHA-512, which does not depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import random
import time

from reference import TYPES, RootRep

SWEEP_RADIUS = 8
ORACLE_RADIUS = 6
QUERY_WORD_LENGTHS = (4, 16)          # inclusive range of reduced-word lengths
SWEEP_PROBE_PAIRS = 24                # per type, for the traced hull timings

# Closed-form parameter ranges, the grids of the paper's two configurations.
A2_RANGE = 9                          # x, a <= 9 and y, b <= 5
C2_A = (2, 6, 10)
C2_B = (2, 3, 4, 5)


def rng_for(kind: str, seed: int, *where) -> random.Random:
    return random.Random(":".join(map(str, (kind, seed) + where)))


def round_numbers(budget: dict, trace_mode: int):
    """Round numbers until the budget is spent: a whole number of rounds,
    either `budget["rounds"]` or as many as start within
    `budget["seconds"]`, and at least one (two when tracing alternates, so
    that both a traced and an untraced round occur)."""
    start = time.perf_counter()
    least = 2 if trace_mode == 1 else 1
    n = 0
    while n < budget.get("rounds", 1 << 62):
        if ("seconds" in budget and n >= least
                and time.perf_counter() - start >= budget["seconds"]):
            return
        yield n
        n += 1


def sweep_seed(seed: int, round_no: int) -> int:
    """The `seed` handed to `sweep_triples` in one round; it picks the
    32 triples of the sweep's own oracle sample."""
    return rng_for("sweep", seed, round_no).randrange(2 ** 31)


def sweep_probe_pairs(seed: int, tag: str, ball_size: int):
    """Ball-index pairs (v, w) whose hulls the traced sweep times warm."""
    rng = rng_for("sweep-probe", seed, tag)
    return [(rng.randrange(ball_size), rng.randrange(ball_size))
            for _ in range(SWEEP_PROBE_PAIRS)]


def oracle_round(rng: random.Random, ball_sizes: dict):
    """One round: a triple of ball indices per planar type, each point drawn
    uniformly from the radius-6 ball, as criterion 4 draws them."""
    return [(tag, tuple(rng.randrange(ball_sizes[tag]) for _ in range(3)))
            for tag in TYPES]


def _a2_params(rng: random.Random):
    while True:
        y, b = rng.randrange(6), rng.randrange(6)
        x = rng.randrange(max(0, y - 1), A2_RANGE + 1)
        a = rng.randrange(max(0, b - 1), A2_RANGE + 1)
        if (x + y) % 2 == 1 and a + b > 0 and (a + b) % 2 == 0:
            return x, y, a, b


def _c2_params(rng: random.Random):
    a, b = rng.choice(C2_A), rng.choice(C2_B)
    return a, b, a + 3 + 4 * rng.randrange(3), b + 2 + rng.randrange(4)


def query_round(rng: random.Random, reps: dict):
    """One round of five cold queries: a hull query per planar type on
    three random reduced words, then one A2 and one C2 closed-form query."""
    lo, hi = QUERY_WORD_LENGTHS
    ops = []
    for tag in TYPES:
        rep = reps[tag]
        ops.append(("hull", tag, tuple(rep.random_reduced(rng, rng.randint(lo, hi))
                                       for _ in range(3))))
    ops.append(("a2", "a2t", _a2_params(rng)))
    ops.append(("c2", "c2t", _c2_params(rng)))
    return ops


def root_reps():
    return {tag: RootRep(tag) for tag in TYPES}
