"""Shared fixtures and independent reference implementations.

The helpers here recompute solver quantities straight from definitions
(set membership loops, exhaustive enumeration) so the solver's
incremental bookkeeping is always tested against code that shares none
of it.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "deterministic", derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.too_slow])
    settings.load_profile("deterministic")
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass

from pcst import (ExactResult, Instance, Solution, Tree, exact_solve,
                  gen_random, solve, verify)
from pcst import solver as sv


# -- reference growth engine -------------------------------------------------


def naive_epsilon(inst, fam, duals):
    """Smallest growth step and the event it ripens, recomputed from
    definitions over a DualAssignment.

    Ties resolve like the solver: saturations before merges, smallest
    set id, then smallest edge index.  Returns (eps, kind, payload).
    """
    sat = duals.saturated
    best = None
    hit = None
    for sid in fam.maximal_ids():
        if sid in sat:
            continue
        vs = fam.vertices(sid)
        prize = sum((inst.prizes[v] for v in vs), Fraction(0))
        slack = prize - verify.inside_load(fam, duals, vs)
        assert slack >= 0
        if best is None or slack < best:
            best, hit = slack, ("saturation", sid)
    for idx, (u, v, c) in enumerate(inst.edges):
        tu, tv = fam.maximal_of(u), fam.maximal_of(v)
        if tu == tv:
            continue
        rate = (tu not in sat) + (tv not in sat)
        if rate == 0:
            continue
        slack = c - verify.edge_dual_load(fam, duals, u, v)
        assert slack >= 0
        step = slack / rate
        if best is None or step < best:
            best, hit = step, ("merge", idx)
    return best, hit


def rescan_step(state):
    """One growth step picked by naive_epsilon instead of the event
    queue, applied through the solver's own event methods."""
    eps, (kind, payload) = naive_epsilon(state.inst, state.fam,
                                         state.dual_assignment())
    if kind == "saturation":
        state._apply_saturation(payload, eps)
    else:
        state._apply_merge(payload, eps)
    state._after_step()


def solve_by_rescan(inst):
    """Full solve whose growth steps all come from the rescan reference;
    phase two is the solver's own."""
    state = sv.init_state(inst)
    fam = state.fam
    while sum(sid not in state.saturated for sid in fam.maximal_ids()) > 1:
        rescan_step(state)
    sv.run_phase1(state)  # no active pair left; finalizes the phase
    return sv.run_phase2(state)


# -- reference connected-subset enumeration ----------------------------------


def connected_subsets_naive(n, edge_pairs):
    """Every nonempty connected vertex subset, by filtering the power
    set with a breadth-first search."""
    adj = {v: [] for v in range(n)}
    for u, v in edge_pairs:
        adj[u].append(v)
        adj[v].append(u)
    out = set()
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            inside = set(combo)
            seen = {combo[0]}
            queue = [combo[0]]
            while queue:
                cur = queue.pop()
                for nxt in adj[cur]:
                    if nxt in inside and nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            if len(seen) == k:
                out.add(frozenset(combo))
    return out


# -- random subtree sampler ---------------------------------------------------


def random_connected_subtree(inst: Instance, rng: random.Random) -> Tree:
    """Uniform-ish random connected subtree grown edge by edge."""
    adj = inst.adjacency()
    root = rng.randrange(inst.n)
    target = rng.randint(1, inst.n)
    vertices = {root}
    edges = []
    while len(vertices) < target:
        frontier = [(u, v) for u in sorted(vertices)
                    for v, _ in adj[u] if v not in vertices]
        if not frontier:
            break
        u, v = frontier[rng.randrange(len(frontier))]
        vertices.add(v)
        edges.append((u, v))
    return Tree(frozenset(vertices), tuple(edges))


# -- the shared 1000-instance sweep -------------------------------------------


SWEEP_PROBABILITIES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                       Fraction(1))


def sweep_instance(seed: int) -> Instance:
    n = (seed % 10) + 1
    p = SWEEP_PROBABILITIES[seed % 4]
    return gen_random(n, p, max_cost=10, max_prize=8, seed=seed)


@dataclass
class SweepRun:
    seed: int
    inst: Instance
    sol: Solution
    opt: ExactResult


@dataclass
class Sweep:
    runs: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    seconds: float = 0.0


@pytest.fixture(scope="session")
def sweep() -> Sweep:
    """1000 seeded random instances solved with invariant checking on,
    each with its brute-force optimum.  Built once per session."""
    from pcst.solver import InvariantError

    result = Sweep()
    started = time.perf_counter()
    for seed in range(1, 1001):
        inst = sweep_instance(seed)
        try:
            sol = solve(inst, check_invariants=True)
        except InvariantError as exc:
            result.failures.append((seed, str(exc)))
            continue
        opt = exact_solve(inst)
        result.runs.append(SweepRun(seed, inst, sol, opt))
    result.seconds = time.perf_counter() - started
    return result
