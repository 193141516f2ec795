"""Independent checks on dual snapshots and trees.

Everything here recomputes from first principles, with plain membership
loops and parent links over (family, duals, instance); none of it shares
the solver's incremental bookkeeping.  The solver's checked mode runs on
these functions too.  That makes these functions slower than the
solver but trustworthy as a second opinion: a bug in the solver's cached
chain sums cannot hide a violation here.

The two bounds at the heart of the certificate, for duals that respect
every edge cost and prize budget:

* the dual mass on sets that do not contain a given connected subgraph T
  is at most cost(T) plus the prizes T forfeits (tree_bound);
* consequently min over vertices o of the mass on sets missing o is a
  lower bound on the optimum, because o can be chosen inside an optimal
  tree (certificate).

growth_inequality is the stronger output-side bound the solver's tree
satisfies for every vertex o; it yields cost + 2*penalty <= 2*optimum.
cluster_count_bound is a counting inequality on how a tree meets the
maximal sets; it holds for any tree that is connected within each
maximal set, has no one-edge attachment to a saturated maximal set, and
is not contained in one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .instance import Instance, format_rational
from .laminar import DualAssignment, LaminarFamily


class Tree(NamedTuple):
    vertices: frozenset[int]
    edges: tuple[tuple[int, int], ...]


def make_tree(vertices: Iterable[int], edges: Iterable) -> Tree:
    return Tree(frozenset(vertices),
                tuple((int(u), int(v)) for u, v in edges))


@dataclass(frozen=True)
class Violation:
    kind: str  # "edge" | "set" | "negative-dual"
    subject: int
    slack: Fraction

    def __str__(self):
        return f"{self.kind} {self.subject}: slack {self.slack}"


# -- naive dual aggregates ---------------------------------------------------


def total_load(fam: LaminarFamily, duals: DualAssignment) -> Fraction:
    return sum((duals.y[sid] for sid in fam.ids), Fraction(0))


def edge_dual_load(fam: LaminarFamily, duals: DualAssignment,
                   u: int, v: int) -> Fraction:
    load = Fraction(0)
    for sid in fam.ids:
        vs = fam.vertices(sid)
        if (u in vs) != (v in vs):
            load += duals.y[sid]
    return load


def vertex_chain_load(fam: LaminarFamily, duals: DualAssignment,
                      o: int) -> Fraction:
    load = Fraction(0)
    for sid in fam.ids:
        if o in fam.vertices(sid):
            load += duals.y[sid]
    return load


def tree_chain_load(fam: LaminarFamily, duals: DualAssignment,
                    tree_vertices: frozenset[int]) -> Fraction:
    load = Fraction(0)
    for sid in fam.ids:
        if tree_vertices <= fam.vertices(sid):
            load += duals.y[sid]
    return load


def inside_load(fam: LaminarFamily, duals: DualAssignment,
                region: frozenset[int]) -> Fraction:
    load = Fraction(0)
    for sid in fam.ids:
        if fam.vertices(sid) <= region:
            load += duals.y[sid]
    return load


def check_feasibility(fam: LaminarFamily, duals: DualAssignment,
                      inst: Instance) -> list[Violation]:
    """Every violated constraint: negative duals, overloaded edges,
    overfilled prize budgets.  Empty list means feasible."""
    out: list[Violation] = []
    for sid in fam.ids:
        if duals.y[sid] < 0:
            out.append(Violation("negative-dual", sid, duals.y[sid]))
    for idx, (u, v, c) in enumerate(inst.edges):
        slack = c - edge_dual_load(fam, duals, u, v)
        if slack < 0:
            out.append(Violation("edge", idx, slack))
    for sid in fam.ids:
        vs = fam.vertices(sid)
        prize = sum((inst.prizes[v] for v in vs), Fraction(0))
        slack = prize - inside_load(fam, duals, vs)
        if slack < 0:
            out.append(Violation("set", sid, slack))
    return out


# -- structural helpers ------------------------------------------------------


def _pair_costs(inst: Instance) -> dict[tuple[int, int], Fraction]:
    return {(u, v): c for u, v, c in inst.edges}


def _adjacency(edges: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def _connected(vertices: frozenset[int], adj: dict[int, list[int]]) -> bool:
    """Whether the edges of adj running inside vertices connect them all."""
    if not vertices:
        return False
    seen: set[int] = set()
    stack = [next(iter(vertices))]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(nxt for nxt in adj.get(cur, ()) if nxt in vertices)
    return len(seen) == len(vertices)


def disconnected_family_set(fam: LaminarFamily, tree: Tree) -> Optional[int]:
    """Smallest id of a family set that meets the tree's vertices but is
    not connected by the tree edges inside it; None if there is none."""
    adj = _adjacency(tree.edges)
    for sid in fam.ids:
        inter = fam.vertices(sid) & tree.vertices
        if inter and not _connected(inter, adj):
            return sid
    return None


def validate_connected_subgraph(inst: Instance, tree: Tree,
                                require_tree: bool = False) -> Fraction:
    """Check tree against the instance and return its edge cost total."""
    if not tree.vertices:
        raise ValueError("a tree needs at least one vertex")
    for v in tree.vertices:
        if not 0 <= v < inst.n:
            raise ValueError(f"tree vertex {v} out of range")
    costs = _pair_costs(inst)
    total = Fraction(0)
    seen: set[tuple[int, int]] = set()
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
    if not _connected(tree.vertices, _adjacency(tree.edges)):
        raise ValueError("tree is not connected")
    if require_tree and len(tree.edges) != len(tree.vertices) - 1:
        raise ValueError("subgraph has a cycle, not a tree")
    return total


def tree_penalty(inst: Instance, tree: Tree) -> Fraction:
    return sum((inst.prizes[v] for v in range(inst.n)
                if v not in tree.vertices), Fraction(0))


# -- bounds ------------------------------------------------------------------


def tree_bound(fam: LaminarFamily, duals: DualAssignment, inst: Instance,
               tree: Tree) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) with lhs = dual mass on sets not containing all of T
    and rhs = cost(T) + forfeited prizes.  Feasible duals satisfy
    lhs <= rhs for every connected subgraph T; infeasible duals are
    refused."""
    bad = check_feasibility(fam, duals, inst)
    if bad:
        raise ValueError(f"duals are infeasible ({bad[0]}); "
                         "the bound only holds for feasible duals")
    cost = validate_connected_subgraph(inst, tree)
    lhs = total_load(fam, duals) - tree_chain_load(fam, duals, tree.vertices)
    rhs = cost + tree_penalty(inst, tree)
    return lhs, rhs


@dataclass(frozen=True)
class Certificate:
    lower_bound: Fraction
    minimizing_vertex: int
    chain_loads: tuple[Fraction, ...]
    dual_total: Fraction


def certificate(fam: LaminarFamily, duals: DualAssignment,
                inst: Optional[Instance] = None) -> Certificate:
    """Instance-independent lower bound: min over vertices o of the dual
    mass on sets missing o.  Caller must supply feasible duals; pass the
    instance to have that refused here instead of trusted."""
    if inst is not None:
        bad = check_feasibility(fam, duals, inst)
        if bad:
            raise ValueError(f"duals are infeasible ({bad[0]})")
    # parents have larger ids than their children, so a descending pass
    # reaches every parent before its children
    chain = [Fraction(0)] * len(fam)
    for sid in reversed(fam.ids):
        parent = fam.parent_of(sid)
        chain[sid] = duals.y[sid] + (0 if parent is None else chain[parent])
    chains = chain[:fam.n]
    total = total_load(fam, duals)
    best_vertex = 0
    best_chain = chains[0]
    for v in range(1, fam.n):
        if chains[v] > best_chain:
            best_vertex, best_chain = v, chains[v]
    return Certificate(total - best_chain, best_vertex,
                       tuple(chains), total)


def growth_inequality(fam: LaminarFamily, duals: DualAssignment,
                      tree: Tree, o: int) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of the output-side bound at vertex o:

        sum over tree edges of crossing dual mass
          + 2 * dual mass strictly outside the tree
        <= 2 * dual mass on sets missing o.

    The left side dominates cost(T) + 2*penalty(T) when the tree's edges
    are tight and the outside mass covers the forfeited prizes, which is
    how the factor-2 guarantee is audited."""
    if not 0 <= o < fam.n:
        raise ValueError(f"vertex {o} out of range")
    complement = frozenset(range(fam.n)) - tree.vertices
    lhs = sum((edge_dual_load(fam, duals, u, v) for u, v in tree.edges),
              Fraction(0))
    lhs += 2 * inside_load(fam, duals, complement)
    rhs = 2 * (total_load(fam, duals) - vertex_chain_load(fam, duals, o))
    return lhs, rhs


class TreePredicates(NamedTuple):
    family_connected: bool
    bridges: tuple[int, ...]
    wrapped: Optional[int]


def tree_predicates(fam: LaminarFamily, saturated: set[int],
                    tree: Tree) -> TreePredicates:
    """Structural facts the pruned output tree must satisfy:
    connected within every family set it meets, no saturated set crossed
    by exactly one tree edge, not contained in a saturated set."""
    family_connected = disconnected_family_set(fam, tree) is None
    bridges = []
    for sid in sorted(saturated):
        vs = fam.vertices(sid)
        crossing = sum(1 for u, v in tree.edges if (u in vs) != (v in vs))
        if crossing == 1:
            bridges.append(sid)
    wrapped = None
    for sid in sorted(saturated):
        if tree.vertices <= fam.vertices(sid):
            wrapped = sid
            break
    return TreePredicates(family_connected, tuple(bridges), wrapped)


def cluster_count_bound(fam: LaminarFamily, saturated: set[int],
                        tree: Tree) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of the counting inequality over the maximal sets:

        (1/2) * sum over active maximal sets of tree edges crossing them
          + number of active maximal sets the tree misses entirely
        <= number of active maximal sets - 1.

    Hypotheses (refused otherwise): tree really is a tree, is connected
    inside every family set it meets, no saturated set is crossed by
    exactly one tree edge, and the tree is not contained in a saturated
    set.  These are exactly the properties the prune phase establishes."""
    if len(tree.edges) != len(tree.vertices) - 1 \
            or not _connected(tree.vertices, _adjacency(tree.edges)):
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
    part = fam.maximal_ids()
    active = [sid for sid in part if sid not in saturated]
    lhs = Fraction(0)
    missed = 0
    for sid in active:
        vs = fam.vertices(sid)
        lhs += Fraction(sum(1 for u, v in tree.edges
                            if (u in vs) != (v in vs)), 2)
        if not vs & tree.vertices:
            missed += 1
    lhs += missed
    rhs = Fraction(len(active) - 1)
    return lhs, rhs


# -- solution audit (used by the command line verifier) ---------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None
    detail: str = ""

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "lhs": None if self.lhs is None else format_rational(self.lhs),
            "rhs": None if self.rhs is None else format_rational(self.rhs),
            "detail": self.detail,
        }


def audit_solution(inst: Instance, fam: LaminarFamily,
                   duals: DualAssignment, tree: Tree,
                   reported: dict) -> list[CheckResult]:
    """Re-derive everything a solution claims and compare.

    reported carries the solution's own numbers: cost, penalty,
    objective, lagrangean_objective, lower_bound (Fractions) and
    minimizing_vertex (int).  Returns one CheckResult per check; the
    solution verifies iff every check passed.
    """
    out: list[CheckResult] = []

    def run(name: str, fn):
        try:
            fn(name)
        except (ValueError, KeyError) as exc:
            out.append(CheckResult(name, False, detail=str(exc)))

    def structure(name):
        if fam.n != inst.n:
            raise ValueError(f"snapshot covers {fam.n} vertices, "
                             f"instance has {inst.n}")
        covered = sorted(v for sid in fam.maximal_ids()
                         for v in fam.vertices(sid))
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
        got = certificate(fam, duals, inst)
        lag = reported["lagrangean_objective"]
        ok = got.lower_bound == reported["lower_bound"] \
            and lag <= 2 * got.lower_bound
        detail = "" if ok else (
            f"recomputed lower bound {got.lower_bound} vs reported "
            f"{reported['lower_bound']}")
        out.append(CheckResult(name, ok, lhs=lag,
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
