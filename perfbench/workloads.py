"""Seeded instances and the benchmark's workload definitions.

Instances are drawn with an O(m) sampler of distinct uniform vertex
pairs instead of ``pcst.gen_random``, whose Theta(n^2) coin flips take
seconds at the sizes used here.  Edge costs are integers in 0..10 and
prizes integers in 0..8, the ranges of the baseline ladder in ROADMAP.md.
The package only ever sees the files written by ``write_instance``.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

MAX_COST = 10
MAX_PRIZE = 8


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    batch: int          # distinct instances per seed, one pass each
    checked: bool       # solve with --check-invariants and then verify
    min_passes: int     # passes over the batch made even when over time
    trace_instances: int  # instances solved untraced and traced
    scaled: bool        # times reported at the reference host speed


# Shares below are of a traced solve (certify-64: solve plus verify) on
# seed 1; README.md lists them all.
WORKLOADS = {
    w.name: w for w in (
        # cli self time (document build and json.dumps of a 60 MB
        # document) 48%, growth 29%, prune 16%; parse about 1%.  Wall
        # times: the host gauge, sampled before each of a run's four or
        # five solves, did not follow them (see hostspeed.py).
        Workload("sparse-4k", 4000, 16000, 1, False, 3, 2, False),
        # growth 35%, state init 25%, parse 21%, cli self time (a 4.2 MB
        # document) 14%; prune 4%.
        Workload("dense-800", 800, 80000, 1, False, 5, 4, True),
        # the naive verifier (feasibility scans and the growth bound)
        # 86% of solve plus verify; growth 2%.  Two passes over twelve
        # instances fit a 35 s run, so every instance is solved twice.
        Workload("certify-64", 64, 192, 12, True, 2, 8, True),
    )
}


def instance_seed(workload: str, seed: int, index: int) -> str:
    return f"pcst-bench:{workload}:{seed}:{index}"


def sparse_instance(n: int, m: int, seed) -> dict:
    """n vertices, m distinct uniform edges, integer costs and prizes.

    Draw order: edge endpoints (rejecting loops and repeats), then one
    cost per edge in draw order, then one prize per vertex.  Edges are
    written sorted by endpoints.
    """
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"cannot place {m} distinct edges on {n} vertices")
    rng = random.Random(seed)
    seen: set[tuple[int, int]] = set()
    pairs = []
    while len(pairs) < m:
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        else:
            u, v = v, u
        if (u, v) not in seen:
            seen.add((u, v))
            pairs.append((u, v))
    costs = [rng.randint(0, MAX_COST) for _ in pairs]
    prizes = [rng.randint(0, MAX_PRIZE) for _ in range(n)]
    edges = sorted([u, v, c] for (u, v), c in zip(pairs, costs))
    return {"n": n, "prizes": prizes, "edges": edges}


def instance_text(inst: dict) -> str:
    """The layout ``pcst gen`` writes: json with two-space indent."""
    return json.dumps(inst, indent=2) + "\n"


def write_instances(workload: Workload, seed: int, directory) -> list:
    """Generate and write the workload's instances; returns their paths."""
    paths = []
    for index in range(workload.batch):
        inst = sparse_instance(workload.n, workload.m,
                               instance_seed(workload.name, seed, index))
        path = directory / f"instance-{index}.json"
        path.write_text(instance_text(inst), encoding="utf-8")
        paths.append(path)
    return paths
