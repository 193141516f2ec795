"""Shared fixtures and independent reference implementations.

The helpers here recompute solver quantities straight from definitions
(set membership loops from naive_checker, exhaustive enumeration) so
the solver's incremental bookkeeping is always tested against code that
shares none of it.
"""
from __future__ import annotations

import heapq
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

import naive_checker as naive
from pcst import (ExactResult, Instance, Solution, Tree, exact_solve,
                  gen_random, solve)
from pcst import solver as sv


# -- reference growth engine -------------------------------------------------


def naive_epsilon(inst, fam, duals):
    """Smallest growth step and the event it ripens, recomputed from
    definitions over a DualAssignment.

    Ties resolve like the solver: saturations before merges, smallest
    set id, then smallest edge index.  Returns (eps, kind, payload).
    """
    sat = duals.saturated
    sets = naive.members(fam)
    top = {v: sid for sid in fam.maximal_ids() for v in sets[sid]}
    best = None
    hit = None
    for sid in fam.maximal_ids():
        if sid in sat:
            continue
        vs = sets[sid]
        prize = sum((inst.prizes[v] for v in vs), Fraction(0))
        slack = prize - naive.inside_load(fam, duals, vs)
        assert slack >= 0
        if best is None or slack < best:
            best, hit = slack, ("saturation", sid)
    for idx, (u, v, c) in enumerate(inst.edges):
        tu, tv = top[u], top[v]
        if tu == tv:
            continue
        rate = (tu not in sat) + (tv not in sat)
        if rate == 0:
            continue
        slack = c - naive.edge_dual_load(fam, duals, u, v)
        assert slack >= 0
        step = slack / rate
        if best is None or step < best:
            best, hit = step, ("merge", idx)
    return best, hit


def rescan_step(state):
    """One growth step picked by naive_epsilon instead of the event
    queue, applied through the solver's own event methods, which take
    the step in the state's units of 1/scale."""
    eps, (kind, payload) = naive_epsilon(state.inst, state.fam,
                                         state.dual_assignment())
    scaled = eps * state._scale
    assert scaled.denominator == 1, f"step {eps} is off the scale"
    if kind == "saturation":
        state._apply_saturation(payload, scaled.numerator)
    else:
        u, v = state.inst.ends[payload]
        (a, load_u), (b, load_v) = state._reach(u), state._reach(v)
        rate = state._alive(a) + state._alive(b)
        assert a != b and rate, f"merge along edge {payload} is no event"
        assert load_u + load_v + rate * scaled.numerator == \
            state._cost[payload], f"edge {payload} is not tight"
        state._apply_merge(payload, scaled.numerator, a, b)
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


# -- reference prune -----------------------------------------------------------


def chain_of_vertex(fam, v):
    """Leaf-to-root id chain of the singleton {v}, off the parent links."""
    chain = [v]
    cur = fam.parent_of(v)
    while cur is not None:
        chain.append(cur)
        cur = fam.parent_of(cur)
    return chain


def reference_prune(state):
    """Phase two the slow way, on a grown state left untouched: the
    saturated sets crossing each tree edge are the symmetric difference
    of its endpoints' full chains, and every prune rescans every tree
    edge.  Returns (pruned ids in order, tree vertices, tree edge
    indices ascending)."""
    inst, fam, sat = state.inst, state.fam, state.saturated
    sets = naive.members(fam)
    tree_vs = set(sets[state.final_maximal])
    edge_alive: dict[int, bool] = {}
    crossing: dict[int, list[int]] = {}
    deg = {sid: 0 for sid in sat}
    for idx in state.forest:
        u, v, _ = inst.edges[idx]
        if u in tree_vs and v in tree_vs:
            edge_alive[idx] = True
            sides = set(chain_of_vertex(fam, u)) ^ set(chain_of_vertex(fam, v))
            crossing[idx] = [sid for sid in sorted(sides) if sid in sat]
            for sid in crossing[idx]:
                deg[sid] += 1
    candidates = [sid for sid, d in deg.items() if d == 1]
    heapq.heapify(candidates)
    order = []
    while candidates:
        sid = heapq.heappop(candidates)
        if deg[sid] != 1:
            continue
        removed = tree_vs & sets[sid]
        tree_vs -= removed
        for idx, alive in edge_alive.items():
            u, v, _ = inst.edges[idx]
            if alive and (u in removed or v in removed):
                edge_alive[idx] = False
                for other in crossing[idx]:
                    deg[other] -= 1
                    if deg[other] == 1:
                        heapq.heappush(candidates, other)
        order.append(sid)
    assert all(d != 1 for d in deg.values())
    kept = tuple(sorted(idx for idx, alive in edge_alive.items() if alive))
    return order, frozenset(tree_vs), kept


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
    adj: list[list[int]] = [[] for _ in range(inst.n)]
    for u, v, _ in inst.edges:
        adj[u].append(v)
        adj[v].append(u)
    root = rng.randrange(inst.n)
    target = rng.randint(1, inst.n)
    vertices = {root}
    edges = []
    while len(vertices) < target:
        frontier = [(u, v) for u in sorted(vertices)
                    for v in adj[u] if v not in vertices]
        if not frontier:
            break
        u, v = frontier[rng.randrange(len(frontier))]
        vertices.add(v)
        edges.append((u, v))
    return Tree(frozenset(vertices), tuple(edges))


def halve_scale(inst: Instance) -> Instance:
    """Halve inst's scale in place, taking out the factor 2 that keeps
    every scaled cost even, and halve its scaled costs and prizes with
    it; returns inst."""
    object.__setattr__(inst, "scale", inst.scale // 2)
    for name in ("scaled_costs", "scaled_prizes"):
        object.__setattr__(inst, name,
                           tuple(x // 2 for x in getattr(inst, name)))
    return inst


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
