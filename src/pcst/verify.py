"""Independent checks on dual snapshots and trees.

Everything here recomputes from first principles over (family, duals,
instance), reading only the family's parent links; none of it shares
the solver's incremental bookkeeping (its union-find loads, its prune
counts), so a bug in the solver's cached sums cannot hide a violation
here.

Set ids grow from children to parents, so every check is a few linear
passes over the parent links:

* descending ids, parents first: the chain load of a set, the dual mass
  on it and its ancestors; a vertex's chain load is its singleton's;
* ascending ids, children first: subtree sums, such as the dual mass on
  the sets inside a set, its prize, or how many tree vertices it holds;
* the dual mass on the sets an edge uv crosses is
  chain(u) + chain(v) - 2 * chain(lca), where lca, the lowest set holding
  both ends, comes from Tarjan's offline algorithm (_lowest_common);
  the tree edges crossing each set come from +1 at both ends and -2 at
  the lca, summed over subtrees.

A tree is checked in one place, TreeIndex, on one union-find: its edges
are replayed in ascending order of their lca, which counts the pieces
the tree leaves inside every set, and the edges with no common set are
replayed last, which tells whether the whole tree is connected.  Given
the instance, the same index validates the tree (vertex range, instance
edges, no repeats, connected) and holds its cost and penalty, so an
audit validates the tree once and every check reads the same index.

Dual sums are integers over DualIndex.scale, the duals' scale or its
lcm with the instance's scale; results are exact Fractions.

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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .instance import Instance, format_rational
from .laminar import DualAssignment, LaminarFamily


class Tree(NamedTuple):
    vertices: frozenset[int]
    edges: tuple[tuple[int, int], ...]


def make_tree(vertices: Iterable[int], edges: Iterable) -> Tree:
    return Tree(frozenset(vertices), tuple((u, v) for u, v in edges))


@dataclass(frozen=True)
class Violation:
    kind: str  # "edge" | "set" | "negative-dual"
    subject: int
    slack: Fraction

    def __str__(self):
        return f"{self.kind} {self.subject}: slack {self.slack}"


# -- parent-link indexes -------------------------------------------------------


def _lowest_common(parent: list[Optional[int]], n: int,
                   pairs: list) -> list[Optional[int]]:
    """Per pair (u, v) of vertices, the lowest set holding both; None if
    no set does or an end is None.

    Tarjan's offline algorithm: a depth-first pass over the family in
    which every set, once finished, links to its parent.  When vertex u
    finishes, the link root of an already finished vertex v is v's
    lowest unfinished ancestor, which holds u too, unless it is the
    finished maximal set of an earlier tree."""
    out: list[Optional[int]] = [None] * len(pairs)
    asked: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (u, v) in enumerate(pairs):
        if u is None or v is None:
            continue
        if u == v:
            out[k] = u
        else:
            asked[u].append((v, k))
            asked[v].append((u, k))
    kids: list[list[int]] = [[] for _ in parent]
    stack: list[int] = []  # the maximal sets, then ~sid for a finish
    for sid, up in enumerate(parent):
        (stack if up is None else kids[up]).append(sid)
    link = list(range(len(parent)))
    done = [False] * len(parent)
    while stack:
        sid = stack.pop()
        if sid >= 0:
            stack.append(~sid)
            stack.extend(kids[sid])
            continue
        sid = ~sid
        if sid < n:
            for other, k in asked[sid]:
                if done[other]:
                    top = other
                    while link[top] != top:
                        top = link[top]
                    while link[other] != top:
                        link[other], other = top, link[other]
                    out[k] = None if done[top] else top
        done[sid] = True
        if parent[sid] is not None:
            link[sid] = parent[sid]
    return out


def _vertex(x, n: int) -> Optional[int]:
    """x as a vertex of an n-vertex family, or None if it names none.
    Like set membership, a value equal to an int in 0..n-1 names it."""
    if type(x) is not int:
        try:
            k = int(x)
        except (TypeError, ValueError, OverflowError):
            return None
        if k != x:
            return None
        x = k
    return x if 0 <= x < n else None


class DualIndex:
    """Dual sums of one (family, duals) snapshot, read off the parent
    links, as integers over ``scale``: the duals' scale and, when an
    instance is given, the lcm of it and the instance's scale.

    chain[s] is the dual mass on s and its ancestors, inside[s] the mass
    on s and the sets below it.  With an instance there are also
    edge_loads[i], the mass on the sets instance edge i crosses,
    prizes[s], the prize of s, and violations, the check_feasibility
    list.  An instance with fewer vertices than the family is refused
    with a ValueError."""

    def __init__(self, fam: LaminarFamily, duals: DualAssignment,
                 inst: Optional[Instance] = None):
        n = fam.n
        if inst is not None and inst.n < n:
            raise ValueError(f"snapshot covers {n} vertices, "
                             f"instance has {inst.n}")
        parent = [fam.parent_of(sid) for sid in fam.ids]
        self.scale = math.lcm(duals.scale, inst.scale) if inst else duals.scale
        unit = self.scale // duals.scale
        y = [q * unit for q in duals.y]
        chain = y[:]
        for sid in reversed(fam.ids):
            if parent[sid] is not None:
                chain[sid] += chain[parent[sid]]
        inside = y[:]
        for sid, up in enumerate(parent):
            if up is not None:
                inside[up] += inside[sid]
        self.y, self.chain, self.inside = y, chain, inside
        self.total = sum(y)
        if inst is None:
            return
        # instance vertices past the family's lie in no set
        ends = [(u if u < n else None, v if v < n else None)
                for u, v, _ in inst.edges]
        self.edge_loads = _crossing_loads(
            chain, ends, _lowest_common(parent, n, ends))
        prizes = [self.scaled(inst.prizes[v]) for v in range(n)]
        prizes += [0] * (len(parent) - n)
        for sid, up in enumerate(parent):
            if up is not None:
                prizes[up] += prizes[sid]
        self.prizes = prizes
        out = [Violation("negative-dual", sid, self.value(q))
               for sid, q in enumerate(y) if q < 0]
        for idx, ((_, _, c), load) in enumerate(zip(inst.edges,
                                                    self.edge_loads)):
            slack = self.scaled(c) - load
            if slack < 0:
                out.append(Violation("edge", idx, self.value(slack)))
        for sid in fam.ids:
            slack = prizes[sid] - inside[sid]
            if slack < 0:
                out.append(Violation("set", sid, self.value(slack)))
        self.violations = out

    def scaled(self, value: Fraction) -> int:
        return value.numerator * (self.scale // value.denominator)

    def value(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.scale)


def _crossing_loads(chain: list[int], ends: list,
                    tops: list[Optional[int]]) -> list[int]:
    """Per (u, v) pair with lowest common set top: the dual mass on the
    sets holding exactly one end.  An end that is None lies in no set."""
    out = []
    for (u, v), top in zip(ends, tops):
        load = (0 if u is None else chain[u]) + (0 if v is None else chain[v])
        out.append(load if top is None else load - 2 * chain[top])
    return out


class TreeIndex:
    """How a tree meets every family set, read off the parent links.

    members[s] counts the tree's vertices in s, crossing[s] the tree
    edges with exactly one end in s, and joined[s] the edges inside s
    (both ends tree vertices) that join two pieces of the tree inside s,
    replayed with a union-find in the ascending order of each edge's
    lowest common set: an edge inside s has its lowest common set in the
    subtree of s, and every earlier edge either lies inside that set
    too or has no end in it.  So s meets the tree in members[s] -
    joined[s] connected pieces.  The edges in no common set are replayed
    last, so connected tells whether the tree's edges join all of it.

    With an instance, the index also holds the tree's cost and penalty
    and error, the first way the tree fails to be a connected subgraph
    of the instance (None if it does not); check raises it."""

    def __init__(self, fam: LaminarFamily, tree: Tree,
                 inst: Optional[Instance] = None):
        n = fam.n
        self.parent = parent = [fam.parent_of(sid) for sid in fam.ids]
        members = [0] * len(parent)
        # union-find slots: the family's vertices, then tree vertices
        # outside the family, which lie in no set
        slot: dict = {}
        for x in tree.vertices:
            v = _vertex(x, n)
            if v is None:
                slot[x] = n + len(slot)
            else:
                members[v] = 1
        self.whole = not slot
        self.ends = ends = [(_vertex(a, n), _vertex(b, n))
                            for a, b in tree.edges]
        self.tops = tops = _lowest_common(parent, n, ends)
        crossing = [0] * len(parent)
        joined = [0] * len(parent)
        piece = list(range(n + len(slot)))

        def find(v: int) -> int:
            while piece[v] != v:
                piece[v] = piece[piece[v]]
                v = piece[v]
            return v

        def union(u: int, v: int) -> bool:
            ru, rv = find(u), find(v)
            piece[ru] = rv
            return ru != rv

        for top, u, v in sorted((top, u, v) for (u, v), top in zip(ends, tops)
                                if top is not None
                                and members[u] and members[v]):
            joined[top] += union(u, v)
        unions = sum(joined)
        for (a, b), (u, v), top in zip(tree.edges, ends, tops):
            if top is None:
                u = slot.get(a) if u is None else (u if members[u] else None)
                v = slot.get(b) if v is None else (v if members[v] else None)
                if u is not None and v is not None:
                    unions += union(u, v)
        self.size = len(tree.vertices)
        self.connected = self.size > 0 and unions == self.size - 1
        for (u, v), top in zip(ends, tops):
            if u is not None:
                crossing[u] += 1
            if v is not None:
                crossing[v] += 1
            if top is not None:
                crossing[top] -= 2
        for sid, up in enumerate(parent):
            if up is not None:
                members[up] += members[sid]
                crossing[up] += crossing[sid]
                joined[up] += joined[sid]
        self.members, self.crossing, self.joined = members, crossing, joined
        if inst is not None:
            self.penalty = sum((inst.prizes[v] for v in range(inst.n)
                                if v not in tree.vertices), Fraction(0))
            self.cost, self.error = self._validate(inst, tree)

    def _validate(self, inst: Instance, tree: Tree
                  ) -> tuple[Optional[Fraction], Optional[str]]:
        if not tree.vertices:
            return None, "a tree needs at least one vertex"
        for x in tree.vertices:
            if _vertex(x, inst.n) is None:
                return None, f"tree vertex {x} out of range"
        costs = {(u, v): c for u, v, c in inst.edges}
        total = Fraction(0)
        seen: set[tuple[int, int]] = set()
        for u, v in tree.edges:
            key = (u, v) if u < v else (v, u)
            if key not in costs:
                return None, f"tree edge ({u}, {v}) is not an instance edge"
            if key in seen:
                return None, f"tree edge ({u}, {v}) repeated"
            if u not in tree.vertices or v not in tree.vertices:
                return None, f"tree edge ({u}, {v}) leaves the vertex set"
            seen.add(key)
            total += costs[key]
        if not self.connected:
            return None, "tree is not connected"
        return total, None

    def check(self, require_tree: bool = False) -> None:
        """Raise ValueError if the tree is not a connected subgraph of
        the index's instance, or, with require_tree, has a cycle."""
        if self.error:
            raise ValueError(self.error)
        if require_tree and len(self.ends) != self.size - 1:
            raise ValueError("subgraph has a cycle, not a tree")

    def holds_tree(self, sid: int) -> bool:
        return self.whole and self.members[sid] == self.size

    def disconnected_set(self) -> Optional[int]:
        """Smallest id of a set that meets the tree in several pieces."""
        for sid, count in enumerate(self.members):
            if count - self.joined[sid] > 1:
                return sid
        return None


def check_feasibility(fam: LaminarFamily, duals: DualAssignment,
                      inst: Instance) -> list[Violation]:
    """Every violated constraint: negative duals (by set id), overloaded
    edges (by edge index), overfilled prize budgets (by set id).  Empty
    list means feasible."""
    return DualIndex(fam, duals, inst).violations


# -- bounds ------------------------------------------------------------------


def tree_bound(fam: LaminarFamily, duals: DualAssignment, inst: Instance,
               tree: Tree, index: Optional[DualIndex] = None,
               tree_index: Optional[TreeIndex] = None
               ) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) with lhs = dual mass on sets not containing all of T
    and rhs = cost(T) + forfeited prizes.  Feasible duals satisfy
    lhs <= rhs for every connected subgraph T; infeasible duals are
    refused.  A caller running several checks on one snapshot and tree
    passes their indexes, both built with the instance."""
    index = index or DualIndex(fam, duals, inst)
    bad = index.violations
    if bad:
        raise ValueError(f"duals are infeasible ({bad[0]}); "
                         "the bound only holds for feasible duals")
    tree_index = tree_index or TreeIndex(fam, tree, inst)
    tree_index.check()
    holding = sum(y for sid, y in enumerate(index.y)
                  if tree_index.holds_tree(sid))
    return (index.value(index.total - holding),
            tree_index.cost + tree_index.penalty)


@dataclass(frozen=True)
class Certificate:
    lower_bound: Fraction
    minimizing_vertex: int


def _lower_bound(index: DualIndex, n: int) -> Certificate:
    # the first vertex with the largest chain load
    chain = index.chain
    best = max(range(n), key=chain.__getitem__)
    return Certificate(index.value(index.total - chain[best]), best)


def certificate(fam: LaminarFamily, duals: DualAssignment) -> Certificate:
    """Instance-independent lower bound: min over vertices o of the dual
    mass on sets missing o, and the first o attaining it.  It bounds the
    optimum only for feasible duals (check_feasibility)."""
    return _lower_bound(DualIndex(fam, duals), fam.n)


class GrowthBound:
    """The growth inequality of one (family, duals) snapshot and tree,
    shared by every vertex o: the left side is computed once, and the
    right side at o reads o's chain load."""

    def __init__(self, index: DualIndex, tree_index: TreeIndex):
        crossing = sum(_crossing_loads(index.chain, tree_index.ends,
                                       tree_index.tops))
        outside = sum(y for y, count in zip(index.y, tree_index.members)
                      if not count)
        self.index = index
        self.lhs = index.value(crossing + 2 * outside)

    def at(self, o: int) -> tuple[Fraction, Fraction]:
        index = self.index
        return self.lhs, index.value(2 * (index.total - index.chain[o]))


def growth_inequality(fam: LaminarFamily, duals: DualAssignment,
                      tree: Tree, o: int,
                      bound: Optional[GrowthBound] = None
                      ) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of the output-side bound at vertex o:

        sum over tree edges of crossing dual mass
          + 2 * dual mass strictly outside the tree
        <= 2 * dual mass on sets missing o.

    The left side dominates cost(T) + 2*penalty(T) when the tree's edges
    are tight and the outside mass covers the forfeited prizes, which is
    how the factor-2 guarantee is audited.  A caller asking at many
    vertices passes the GrowthBound of this snapshot and tree."""
    if not 0 <= o < fam.n:
        raise ValueError(f"vertex {o} out of range")
    if bound is None:
        bound = GrowthBound(DualIndex(fam, duals), TreeIndex(fam, tree))
    return bound.at(o)


class TreePredicates(NamedTuple):
    family_connected: bool
    bridges: tuple[int, ...]
    wrapped: Optional[int]


def tree_predicates(fam: LaminarFamily, saturated: set[int], tree: Tree,
                    tree_index: Optional[TreeIndex] = None
                    ) -> TreePredicates:
    """Structural facts the pruned output tree must satisfy:
    connected within every family set it meets, no saturated set crossed
    by exactly one tree edge, not contained in a saturated set."""
    ti = tree_index or TreeIndex(fam, tree)
    sat = sorted(saturated)
    for sid in sat:
        if not 0 <= sid < len(fam):
            raise ValueError(f"unknown set id {sid}")
    return TreePredicates(
        ti.disconnected_set() is None,
        tuple(sid for sid in sat if ti.crossing[sid] == 1),
        next((sid for sid in sat if ti.holds_tree(sid)), None))


def cluster_count_bound(fam: LaminarFamily, saturated: set[int],
                        tree: Tree, tree_index: Optional[TreeIndex] = None
                        ) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of the counting inequality over the maximal sets:

        (1/2) * sum over active maximal sets of tree edges crossing them
          + number of active maximal sets the tree misses entirely
        <= number of active maximal sets - 1.

    Hypotheses (refused otherwise): tree really is a tree, is connected
    inside every family set it meets, no saturated set is crossed by
    exactly one tree edge, and the tree is not contained in a saturated
    set.  These are exactly the properties the prune phase establishes."""
    ti = tree_index or TreeIndex(fam, tree)
    if len(tree.edges) != ti.size - 1 or not ti.connected:
        raise ValueError("hypotheses not met: not a tree")
    preds = tree_predicates(fam, saturated, tree, ti)
    if not preds.family_connected:
        raise ValueError("hypotheses not met: tree disconnected inside "
                         "a family set")
    if preds.bridges:
        raise ValueError("hypotheses not met: single tree edge into "
                         f"saturated set {preds.bridges[0]}")
    if preds.wrapped is not None:
        raise ValueError("hypotheses not met: tree contained in "
                         f"saturated set {preds.wrapped}")
    active = [sid for sid, up in enumerate(ti.parent)
              if up is None and sid not in saturated]
    crossings = sum(ti.crossing[sid] for sid in active)
    missed = sum(1 for sid in active if not ti.members[sid])
    return Fraction(crossings, 2) + missed, Fraction(len(active) - 1)


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
    solution verifies iff every check passed.  The dual and tree indexes
    are built once, by the first check that needs them, so the tree is
    validated once.
    """
    out: list[CheckResult] = []
    dual_index = functools.cache(lambda: DualIndex(fam, duals, inst))
    tree_index = functools.cache(lambda: TreeIndex(fam, tree, inst))

    def run(name: str, fn):
        try:
            fn(name)
        except (ValueError, KeyError) as exc:
            out.append(CheckResult(name, False, detail=str(exc)))

    def structure(name):
        if fam.n != inst.n:
            raise ValueError(f"snapshot covers {fam.n} vertices, "
                             f"instance has {inst.n}")
        # the childless sets are the vertices, and each lies in exactly
        # one maximal set
        parents = {fam.parent_of(sid) for sid in fam.ids}
        ok = [sid for sid in fam.ids if sid not in parents] \
            == list(range(inst.n))
        out.append(CheckResult(name, ok,
                               detail="" if ok else
                               "maximal sets do not partition the vertices"))

    def feasibility(name):
        bad = dual_index().violations
        detail = "" if not bad else \
            f"{len(bad)} violated constraint(s); first: {bad[0]}"
        out.append(CheckResult(name, not bad, detail=detail))

    def tree_structure(name):
        tree_index().check(require_tree=True)
        out.append(CheckResult(name, True))

    def arithmetic(name):
        ti = tree_index()
        ti.check(require_tree=True)
        cost, penalty = ti.cost, ti.penalty
        ok = (cost == reported["cost"] and penalty == reported["penalty"]
              and reported["objective"] == cost + penalty
              and reported["lagrangean_objective"] == cost + 2 * penalty)
        detail = "" if ok else (
            f"recomputed cost {cost}, penalty {penalty} vs reported "
            f"{reported['cost']}, {reported['penalty']}")
        out.append(CheckResult(name, ok, detail=detail))

    def cert(name):
        index = dual_index()
        if index.violations:
            raise ValueError(f"duals are infeasible ({index.violations[0]})")
        got = _lower_bound(index, fam.n)
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
        lhs, rhs = tree_bound(fam, duals, inst, tree, dual_index(),
                              tree_index())
        out.append(CheckResult(name, lhs <= rhs, lhs=lhs, rhs=rhs))

    def growth(name):
        # the left side is the same at every o: the tightest vertex is
        # the first with the smallest right side
        bound = GrowthBound(dual_index(), tree_index())
        worst = None
        for o in range(inst.n):
            lhs, rhs = growth_inequality(fam, duals, tree, o, bound)
            if worst is None or rhs < worst[1]:
                worst = (lhs, rhs, o)
        lhs, rhs, o = worst
        out.append(CheckResult(name, lhs <= rhs, lhs=lhs, rhs=rhs,
                               detail=f"tightest at vertex {o}"))

    def predicates(name):
        preds = tree_predicates(fam, duals.saturated, tree, tree_index())
        ok = preds.family_connected and not preds.bridges \
            and preds.wrapped is None
        detail = "" if ok else f"{preds}"
        out.append(CheckResult(name, ok, detail=detail))

    def counting(name):
        lhs, rhs = cluster_count_bound(fam, duals.saturated, tree,
                                       tree_index())
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
