"""Reference checker: the verifier's checks by plain membership loops.

Every family set's member vertices are collected by walking the parent
links up from each vertex, and every quantity is then summed straight
from its definition, set by set.  This shares nothing with the package
checker's parent-link passes and lowest-common-set queries; the tests
require the two to agree.  It is quadratic and meant for small inputs.

The functions mirror ``pcst.verify`` (check_feasibility, tree_bound,
certificate, growth_inequality, tree_predicates, cluster_count_bound,
audit_solution) and the solver's check_growth_invariants /
check_prune_invariants, with the same arguments, results, errors and
messages.  Trees are validated by a plain graph search
(validate_connected_subgraph, connected) where the package replays a
union-find; disconnected_family_set answers what the package's
``TreeIndex(fam, tree).disconnected_set()`` does.
"""
from __future__ import annotations

import math
from fractions import Fraction

from pcst.laminar import DualAssignment
from pcst.solver import InvariantError
from pcst.verify import (Certificate, CheckResult, Tree, TreePredicates,
                         Violation)


def members(fam) -> list[frozenset[int]]:
    """Per set id, its member vertices: each vertex joins every set on
    its way up the parent links."""
    sets: list[set[int]] = [set() for _ in fam.ids]
    for v in range(fam.n):
        sid = v
        while sid is not None:
            sets[sid].add(v)
            sid = fam.parent_of(sid)
    return [frozenset(s) for s in sets]


def adjacency(edges) -> dict:
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def connected(vertices, adj) -> bool:
    if not vertices:
        return False
    seen: set = set()
    stack = [next(iter(vertices))]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(nxt for nxt in adj.get(cur, ()) if nxt in vertices)
    return len(seen) == len(vertices)


def validate_connected_subgraph(inst, tree, require_tree=False) -> Fraction:
    """Check tree against the instance and return its edge cost total."""
    if not tree.vertices:
        raise ValueError("a tree needs at least one vertex")
    for v in tree.vertices:
        if v not in range(inst.n):
            raise ValueError(f"tree vertex {v} out of range")
    costs = {(u, v): c for u, v, c in inst.edges}
    total = Fraction(0)
    seen: set = set()
    for u, v in tree.edges:
        key = (u, v) if u < v else (v, u)
        if key not in costs:
            raise ValueError(f"tree edge ({u}, {v}) is not an instance edge")
        if key in seen:
            raise ValueError(f"tree edge ({u}, {v}) repeated")
        if u not in tree.vertices or v not in tree.vertices:
            raise ValueError(f"tree edge ({u}, {v}) leaves the vertex set")
        seen.add(key)
        total += costs[key]
    if not connected(tree.vertices, adjacency(tree.edges)):
        raise ValueError("tree is not connected")
    if require_tree and len(tree.edges) != len(tree.vertices) - 1:
        raise ValueError("subgraph has a cycle, not a tree")
    return total


def tree_penalty(inst, tree) -> Fraction:
    return sum((inst.prizes[v] for v in range(inst.n)
                if v not in tree.vertices), Fraction(0))


# -- dual aggregates -----------------------------------------------------------


def dual(duals, sid) -> Fraction:
    """Set sid's dual as a Fraction."""
    return Fraction(duals.y[sid], duals.scale)


def duals_from(values, saturated=()) -> DualAssignment:
    """A DualAssignment holding the given Fractions, in set id order,
    as ints over the lcm of their denominators."""
    values = [Fraction(q) for q in values]
    scale = math.lcm(*(q.denominator for q in values))
    return DualAssignment([q.numerator * (scale // q.denominator)
                           for q in values], scale, set(saturated))


def total_load(fam, duals) -> Fraction:
    return sum((dual(duals, sid) for sid in fam.ids), Fraction(0))


def edge_dual_load(fam, duals, u, v) -> Fraction:
    load = Fraction(0)
    for sid, vs in enumerate(members(fam)):
        if (u in vs) != (v in vs):
            load += dual(duals, sid)
    return load


def vertex_chain_load(fam, duals, o) -> Fraction:
    load = Fraction(0)
    for sid, vs in enumerate(members(fam)):
        if o in vs:
            load += dual(duals, sid)
    return load


def tree_chain_load(fam, duals, tree_vertices) -> Fraction:
    load = Fraction(0)
    for sid, vs in enumerate(members(fam)):
        if tree_vertices <= vs:
            load += dual(duals, sid)
    return load


def inside_load(fam, duals, region) -> Fraction:
    load = Fraction(0)
    for sid, vs in enumerate(members(fam)):
        if vs <= region:
            load += dual(duals, sid)
    return load


def check_feasibility(fam, duals, inst) -> list[Violation]:
    out: list[Violation] = []
    for sid in fam.ids:
        if duals.y[sid] < 0:
            out.append(Violation("negative-dual", sid, dual(duals, sid)))
    for idx, (u, v, c) in enumerate(inst.edges):
        slack = c - edge_dual_load(fam, duals, u, v)
        if slack < 0:
            out.append(Violation("edge", idx, slack))
    for sid, vs in enumerate(members(fam)):
        prize = sum((inst.prizes[v] for v in vs), Fraction(0))
        slack = prize - inside_load(fam, duals, vs)
        if slack < 0:
            out.append(Violation("set", sid, slack))
    return out


# -- bounds --------------------------------------------------------------------


def disconnected_family_set(fam, tree):
    adj = adjacency(tree.edges)
    for sid, vs in enumerate(members(fam)):
        inter = vs & tree.vertices
        if inter and not connected(inter, adj):
            return sid
    return None


def tree_bound(fam, duals, inst, tree):
    bad = check_feasibility(fam, duals, inst)
    if bad:
        raise ValueError(f"duals are infeasible ({bad[0]}); "
                         "the bound only holds for feasible duals")
    cost = validate_connected_subgraph(inst, tree)
    lhs = total_load(fam, duals) - tree_chain_load(fam, duals, tree.vertices)
    rhs = cost + tree_penalty(inst, tree)
    return lhs, rhs


def certificate(fam, duals) -> Certificate:
    chains = [vertex_chain_load(fam, duals, v) for v in range(fam.n)]
    best = max(range(fam.n), key=chains.__getitem__)
    return Certificate(total_load(fam, duals) - chains[best], best)


def growth_inequality(fam, duals, tree, o):
    if not 0 <= o < fam.n:
        raise ValueError(f"vertex {o} out of range")
    complement = frozenset(range(fam.n)) - tree.vertices
    lhs = sum((edge_dual_load(fam, duals, u, v) for u, v in tree.edges),
              Fraction(0))
    lhs += 2 * inside_load(fam, duals, complement)
    rhs = 2 * (total_load(fam, duals) - vertex_chain_load(fam, duals, o))
    return lhs, rhs


def tree_predicates(fam, saturated, tree) -> TreePredicates:
    family_connected = disconnected_family_set(fam, tree) is None
    sets = members(fam)

    def vertices(sid):
        if not 0 <= sid < len(sets):
            raise ValueError(f"unknown set id {sid}")
        return sets[sid]

    bridges = []
    for sid in sorted(saturated):
        vs = vertices(sid)
        crossing = sum(1 for u, v in tree.edges if (u in vs) != (v in vs))
        if crossing == 1:
            bridges.append(sid)
    wrapped = None
    for sid in sorted(saturated):
        if tree.vertices <= vertices(sid):
            wrapped = sid
            break
    return TreePredicates(family_connected, tuple(bridges), wrapped)


def cluster_count_bound(fam, saturated, tree):
    if len(tree.edges) != len(tree.vertices) - 1 \
            or not connected(tree.vertices, adjacency(tree.edges)):
        raise ValueError("hypotheses not met: not a tree")
    preds = tree_predicates(fam, saturated, tree)
    if not preds.family_connected:
        raise ValueError("hypotheses not met: tree disconnected inside "
                         "a family set")
    if preds.bridges:
        raise ValueError("hypotheses not met: single tree edge into "
                         f"saturated set {preds.bridges[0]}")
    if preds.wrapped is not None:
        raise ValueError("hypotheses not met: tree contained in "
                         f"saturated set {preds.wrapped}")
    sets = members(fam)
    active = [sid for sid in fam.maximal_ids() if sid not in saturated]
    lhs = Fraction(0)
    missed = 0
    for sid in active:
        vs = sets[sid]
        lhs += Fraction(sum(1 for u, v in tree.edges
                            if (u in vs) != (v in vs)), 2)
        if not vs & tree.vertices:
            missed += 1
    lhs += missed
    return lhs, Fraction(len(active) - 1)


# -- audit -----------------------------------------------------------------------


def audit_solution(inst, fam, duals, tree, reported) -> list[CheckResult]:
    out: list[CheckResult] = []

    def run(name, fn):
        try:
            fn(name)
        except (ValueError, KeyError) as exc:
            out.append(CheckResult(name, False, detail=str(exc)))

    def structure(name):
        if fam.n != inst.n:
            raise ValueError(f"snapshot covers {fam.n} vertices, "
                             f"instance has {inst.n}")
        sets = members(fam)
        covered = sorted(v for sid in fam.maximal_ids() for v in sets[sid])
        ok = covered == list(range(inst.n))
        out.append(CheckResult(name, ok,
                               detail="" if ok else
                               "maximal sets do not partition the vertices"))

    def feasibility(name):
        bad = check_feasibility(fam, duals, inst)
        detail = "" if not bad else \
            f"{len(bad)} violated constraint(s); first: {bad[0]}"
        out.append(CheckResult(name, not bad, detail=detail))

    def tree_structure(name):
        validate_connected_subgraph(inst, tree, require_tree=True)
        out.append(CheckResult(name, True))

    def arithmetic(name):
        cost = validate_connected_subgraph(inst, tree, require_tree=True)
        penalty = tree_penalty(inst, tree)
        ok = (cost == reported["cost"] and penalty == reported["penalty"]
              and reported["objective"] == cost + penalty
              and reported["lagrangean_objective"] == cost + 2 * penalty)
        detail = "" if ok else (
            f"recomputed cost {cost}, penalty {penalty} vs reported "
            f"{reported['cost']}, {reported['penalty']}")
        out.append(CheckResult(name, ok, detail=detail))

    def cert(name):
        bad = check_feasibility(fam, duals, inst)
        if bad:
            raise ValueError(f"duals are infeasible ({bad[0]})")
        got = certificate(fam, duals)
        lag = reported["lagrangean_objective"]
        detail = ""
        if got.lower_bound != reported["lower_bound"] \
                or lag > 2 * got.lower_bound:
            detail = (f"recomputed lower bound {got.lower_bound} vs "
                      f"reported {reported['lower_bound']}")
        elif got.minimizing_vertex != reported["minimizing_vertex"]:
            detail = (f"recomputed minimizing vertex "
                      f"{got.minimizing_vertex} vs reported "
                      f"{reported['minimizing_vertex']}")
        out.append(CheckResult(name, not detail, lhs=lag,
                               rhs=2 * got.lower_bound, detail=detail))

    def tree_lb(name):
        lhs, rhs = tree_bound(fam, duals, inst, tree)
        out.append(CheckResult(name, lhs <= rhs, lhs=lhs, rhs=rhs))

    def growth(name):
        worst = None
        for o in range(inst.n):
            lhs, rhs = growth_inequality(fam, duals, tree, o)
            if worst is None or lhs - rhs > worst[0] - worst[1]:
                worst = (lhs, rhs, o)
        lhs, rhs, o = worst
        out.append(CheckResult(name, lhs <= rhs, lhs=lhs, rhs=rhs,
                               detail=f"tightest at vertex {o}"))

    def predicates(name):
        preds = tree_predicates(fam, duals.saturated, tree)
        ok = preds.family_connected and not preds.bridges \
            and preds.wrapped is None
        detail = "" if ok else f"{preds}"
        out.append(CheckResult(name, ok, detail=detail))

    def counting(name):
        lhs, rhs = cluster_count_bound(fam, duals.saturated, tree)
        out.append(CheckResult(name, lhs <= rhs, lhs=lhs, rhs=rhs))

    run("laminar-structure", structure)
    run("dual-feasibility", feasibility)
    run("tree-structure", tree_structure)
    run("objective-arithmetic", arithmetic)
    run("certificate-lower-bound", cert)
    run("tree-lower-bound", tree_lb)
    run("growth-bound", growth)
    run("tree-predicates", predicates)
    run("cluster-counting", counting)
    return out


# -- the solver's runtime invariants -------------------------------------------


def saturated_cover_gap(sets, saturated, region) -> int:
    """Vertices of region not covered by disjoint saturated sets inside
    it.  Zero means region is a union of saturated sets."""
    covered: set[int] = set()
    for sid in sorted((s for s in saturated if sets[s] <= region),
                      key=lambda s: -len(sets[s])):
        if sets[sid] & covered:
            continue  # nested inside one already taken
        covered |= sets[sid]
    return len(region) - len(covered)


def check_growth_invariants(state):
    inst, fam, duals = state.inst, state.fam, state.dual_assignment()
    sets = members(fam)
    forest = Tree(frozenset(range(inst.n)),
                  tuple(inst.edges[idx][:2] for idx in state.forest))
    sid = disconnected_family_set(fam, forest)
    if sid is not None:
        raise InvariantError(f"forest does not connect family set {sid}")
    bad = check_feasibility(fam, duals, inst)
    if bad:
        raise InvariantError(f"duals infeasible during growth: {bad[0]}")
    for idx in state.forest:
        u, v, c = inst.edges[idx]
        load = edge_dual_load(fam, duals, u, v)
        if load != c:
            raise InvariantError(
                f"forest edge {idx} not tight: load {load} vs cost {c}")
    for sid in sorted(duals.saturated):
        prize = sum((inst.prizes[v] for v in sets[sid]), Fraction(0))
        if inside_load(fam, duals, sets[sid]) != prize:
            raise InvariantError(f"saturated set {sid} not exhausted")
    # a union whose proper subsets, all dead at its birth, cover it
    sat = duals.saturated
    for sid in range(fam.n, len(fam)):
        if saturated_cover_gap(sets, sat - {sid}, sets[sid]) == 0:
            raise InvariantError(
                f"active maximal set {sid} is a union of saturated sets")


def check_prune_invariants(state, tree_vs, tree_edge_indices):
    inst, fam = state.inst, state.fam
    tree = Tree(frozenset(tree_vs),
                tuple(inst.edges[idx][:2] for idx in tree_edge_indices))
    try:
        validate_connected_subgraph(inst, tree, require_tree=True)
    except ValueError as exc:
        raise InvariantError(f"pruned subgraph: {exc}") from exc
    sid = disconnected_family_set(fam, tree)
    if sid is not None:
        raise InvariantError(
            f"tree is disconnected within family set {sid}")
    sets = members(fam)
    region = sets[state.final_maximal] - frozenset(tree_vs)
    gap = saturated_cover_gap(sets, state.saturated, region)
    if gap:
        raise InvariantError(
            f"pruned region is not a union of saturated sets "
            f"({gap} vertices uncovered)")
