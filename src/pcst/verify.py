"""Independent checks on dual snapshots and trees.

Everything here recomputes from first principles over (family, duals,
instance), reading only the family's containment links; none of it
shares the solver's incremental bookkeeping (its union-find loads, its
prune counts), so a bug in the solver's cached sums cannot hide a
violation here.  The solver's checked mode runs these same checks.

What the family fixes is kept in one place, FamilyIndex: it reads the
family's parent and links lists in place, and adds the costs and the
sets' prizes as ints and the lowest common set of every vertex pair
asked for.  Set ids grow from children to parents, so a snapshot's
checks are a few linear passes over the family's links:

* descending ids, parents first: the chain load of a set, the dual mass
  on it and its ancestors; a vertex's chain load is its singleton's;
* ascending ids, children first: subtree sums, such as the dual mass on
  the sets inside a set, its prize, or how many tree vertices it holds;
* the dual mass on the sets an edge uv crosses is
  chain(u) + chain(v) - 2 * chain(lca), where lca, the lowest set holding
  both ends, is the family index's: each union of two sets is the lca
  of the pending pairs it joins, found by reading the shorter of its
  children's pending lists; the tree edges crossing each set come from
  +1 at both ends and -2 at the lca, summed over subtrees.

The dual sums of a snapshot are DualIndex; given an instance at the
family index's scale, its extend takes the sets the family index has
taken since, when no dual it holds has moved and the new ones are 0, as
after a growth step of length 0.  An audit answers the instance's edges and
the tree's edges with one family index.  A tree is checked in one
place, TreeIndex, in one union-find pass: its edges are replayed in
ascending order of their lca, which counts the pieces the tree leaves
inside every set, and the edges with no common set are replayed last,
which tells whether the whole tree is connected.  Given the instance,
the same index validates the tree (vertex range, instance edges, no
repeats, connected) and holds its cost and penalty, so an audit
validates the tree once and every check reads the same index.  A
tree's vertices are ints (make_tree refuses anything else, bool
included), and any other value names no vertex of the family.

Dual sums are integers over DualIndex.scale, the duals' scale or, with
an instance, the audit_scale of the two; results are exact Fractions.

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
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .instance import Instance, format_rational
from .laminar import DualAssignment, LaminarFamily


class Tree(NamedTuple):
    vertices: frozenset[int]
    edges: tuple[tuple[int, int], ...]


def make_tree(vertices: Iterable[int], edges: Iterable) -> Tree:
    """A tree of int vertices and (u, v) edges; a ValueError names any
    vertex or edge end that is not an int, bool included."""
    vertices, edges = tuple(vertices), tuple((u, v) for u, v in edges)
    # the raw list, before a set merges true with 1 or hashes a list
    if any(type(x) is not int for x in itertools.chain(vertices, *edges)):
        raise ValueError("tree vertices and edge ends must be integers")
    return Tree(frozenset(vertices), edges)


@dataclass(frozen=True)
class Violation:
    kind: str  # "edge" | "set" | "negative-dual"
    subject: int
    slack: Fraction

    def __str__(self):
        return f"{self.kind} {self.subject}: slack {self.slack}"


# -- family indexes ------------------------------------------------------------


def root_of(link: list[int], v: int) -> int:
    """Root of v on a union-find, halving the path on the way."""
    while link[v] != v:
        link[v] = link[link[v]]
        v = link[v]
    return v


def _vertex(x, n: int) -> int:
    """x as a vertex of an n-vertex family, or -1 if it names none: only
    an int in 0..n-1 names one."""
    return x if type(x) is int and 0 <= x < n else -1


class FamilyIndex:
    """What a family's sets fix once they exist, read off the links
    each union records to the two sets it was made of.

    parent and links are the family's own lists, read in place (see
    laminar): parent[s] is the parent of set s, None for a maximal set,
    and links holds the (set, parent) pairs in the order the parents
    appeared.  taken counts the family's sets the index has taken.
    ends holds pairs of vertices, the instance's edges and then the
    pairs given, an end -1 where it names no vertex of the family.
    tops[k] is the lowest set holding both ends of pair k, -1 if no set
    taken does or an end is -1.  With an instance, costs[i] is the cost
    of edge i and prizes[s] the prize of set s, as ints over scale, read
    from the instance's scaled_costs and scaled_prizes, and edge_ids
    maps each edge's (u, v) to its index.

    A union is the lowest common set of exactly the pairs with one end
    in each of its two children and no common set before, so the index
    keeps, per maximal set, the pairs with an end in it and no common
    set yet.  A union reads the shorter of its children's lists, asking
    a union-find over the vertices which pairs end in the other child,
    and hands the rest to the longer one; a pair moves to a list at
    least twice as long, so it is read O(log n) times.  The family only
    appends, so every fact here is fixed once its set exists, and
    extend takes the sets appended since the last call: their prize
    sums and the pairs they are the lowest common set of."""

    def __init__(self, fam: LaminarFamily, inst: Optional[Instance] = None,
                 pairs: Iterable = ()):
        n = self.n = fam.n
        self.fam = fam
        self.parent, self.links, self.taken = fam.parent, fam.links, n
        self.m = 0 if inst is None else inst.m
        ends = [] if inst is None else [
            (u if u < n else -1, v if v < n else -1) for u, v in inst.ends]
        ends += [(_vertex(a, n), _vertex(b, n)) for a, b in pairs]
        self.ends = ends
        self.tops = [u if u == v else -1 for u, v in ends]
        self.pending: Optional[list] = None
        if ends:
            self.pending = pending = [[] for _ in range(n)]
            for k, (u, v) in enumerate(ends):
                if u != v and u >= 0 and v >= 0:
                    pending[u].append(k)
                    pending[v].append(k)
            self.link = list(range(n))
            self.root = list(range(n))  # per maximal set, on link
        self.prizes: Optional[list[int]] = None
        if inst is not None:
            self.scale, self.costs = inst.scale, inst.scaled_costs
            self.edge_ids = {e: idx for idx, e in enumerate(inst.ends)}
            self.prizes = list(inst.scaled_prizes[:n])
            self.prizes += [0] * (n - inst.n)  # an instance too small
        self.extend()

    def extend(self) -> None:
        """Take the sets appended to the family since the last call."""
        unions = iter(self.links[2 * (self.taken - self.n):])
        for (a, sid), (b, _) in zip(unions, unions):
            if self.prizes is not None:
                self.prizes.append(self.prizes[a] + self.prizes[b])
            if self.pending is not None:
                self._meet(sid, a, b)
        self.taken = len(self.parent)

    def _meet(self, sid: int, a: int, b: int) -> None:
        pending, link, root = self.pending, self.link, self.root
        ends, tops = self.ends, self.tops
        short, long, far = pending[a], pending[b], root[b]
        if len(short) > len(long):
            short, long, far = long, short, root[a]
        pending[a] = pending[b] = None
        for k in short:
            if tops[k] < 0:  # else found from its other end
                u, v = ends[k]
                if root_of(link, u) == far or root_of(link, v) == far:
                    tops[k] = sid
                else:
                    long.append(k)
        pending.append(long)
        link[root[a]] = root[b]
        root.append(root[b])


def audit_scale(duals: DualAssignment, inst: Instance) -> int:
    """The scale of an audit of duals against an instance: the lcm of
    the two scales, so that every dual, cost and prize is an int."""
    return math.lcm(duals.scale, inst.scale)


class DualIndex:
    """Dual sums of one (family, duals) snapshot, read off the family's
    links, as integers over ``scale``: the duals' scale and, when an
    instance is given, the audit_scale of the two.

    chain[s] is the dual mass on s and its ancestors.  With an instance
    there are also inside[s], the mass on s and the sets below it,
    costs[i], the cost of instance edge i, edge_slack[i], its cost minus
    the mass on the sets it crosses, prizes[s], the prize of s, and
    violations, the check_feasibility list; without one, as for
    certificate, which reads only chain loads and the total, the pass
    for inside is skipped and inside is None.  An instance with fewer
    vertices than the family is refused with a ValueError.  A caller
    holding a FamilyIndex of the family and the instance passes it, and
    family is the one read; extend follows it as it grows, for an index
    with an instance at the family index's scale."""

    def __init__(self, fam: LaminarFamily, duals: DualAssignment,
                 inst: Optional[Instance] = None,
                 family: Optional[FamilyIndex] = None):
        n = fam.n
        if inst is not None and inst.n < n:
            raise ValueError(f"snapshot covers {n} vertices, "
                             f"instance has {inst.n}")
        self.family = family = family or FamilyIndex(fam, inst)
        self.scale = audit_scale(duals, inst) if inst else duals.scale
        unit = self.scale // duals.scale
        y = duals.y[:] if unit == 1 else [q * unit for q in duals.y]
        chain = y[:]
        for sid, up in reversed(family.links):
            chain[sid] += chain[up]
        self.y, self.chain = y, chain
        self.total = sum(y)
        self.inside: Optional[list[int]] = None
        if inst is None:
            return
        self.inside = inside = y[:]
        for sid, up in family.links:
            inside[up] += inside[sid]
        unit = self.scale // family.scale
        costs, prizes = family.costs, family.prizes
        if unit != 1:
            costs = [c * unit for c in costs]
            prizes = [p * unit for p in prizes]
        self.costs, self.prizes = costs, prizes
        # zip stops at the instance's edges; held[-1], 0, is the mass
        # on an end in no set, or on no common set
        held = chain + [0]
        self.edge_slack = [c - held[u] - held[v] + 2 * held[top]
                           for c, (u, v), top in zip(costs, family.ends,
                                                     family.tops)]
        self.violations = []
        for kind, slacks in (("negative-dual", y),
                             ("edge", self.edge_slack),
                             ("set", list(map(operator.sub, prizes, inside)))):
            if slacks and min(slacks) < 0:
                self.violations += [Violation(kind, k, self.value(q))
                                    for k, q in enumerate(slacks) if q < 0]

    def extend(self, duals: DualAssignment) -> bool:
        """Take the sets the family index has taken since the index was
        built or last extended, given duals of the whole family at the
        index's scale, and return True, when the duals of the sets held
        are unchanged and every new set's is 0, as after a growth step of
        length 0; otherwise change nothing and return False, and the
        caller builds afresh.  An index built without an instance, or at
        a scale other than its family index's, is refused the same way:
        checked mode, the one caller, builds neither.  So is a family
        grown past the sets its family index has taken.

        Every number then equals a fresh build's.  A new set lies above
        the held ones and has no dual, so no held set's chain or inside
        load moves, nor the total; and its chain load is 0, as is
        held[-1], so no edge slack moves when an edge's lowest common
        set changes from -1 to a new set.  Each new set adds its inside
        load, the sum of its children's, and its set slack, whose
        violation comes after the held ones."""
        family, held, y = self.family, len(self.y), duals.y
        if self.inside is None \
                or not duals.scale == self.scale == family.scale \
                or not len(y) == family.taken == len(family.parent) \
                or y[:held] != self.y or any(y[held:]):
            return False
        zeros = [0] * (len(y) - held)
        self.y += zeros
        self.chain += zeros
        # at the family index's scale, prizes is the family index's list,
        # which its own extend has grown
        inside, prizes = self.inside, self.prizes
        inside += zeros
        for sid, up in family.links[2 * (held - family.n):]:
            inside[up] += inside[sid]
        self.violations += [
            Violation("set", sid, self.value(prizes[sid] - inside[sid]))
            for sid in range(held, len(y)) if prizes[sid] < inside[sid]]
        return True

    def value(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.scale)


class TreeIndex:
    """How a tree meets every family set, read off a family index.

    members[s] counts the tree's vertices in s, crossing[s] the tree
    edges with exactly one end in s, and joined[s] the edges inside s
    (both ends tree vertices) that join two pieces of the tree inside s.
    One union-find pass replays the edges with both ends tree vertices
    in the ascending order of each edge's lowest common set: an edge
    inside s has its lowest common set in the subtree of s, and every
    earlier edge either lies inside that set too or has no end in it.
    So s meets the tree in members[s] - joined[s] connected pieces.  The
    edges in no common set sort last, so connected tells whether the
    tree's edges join all of it.  A family vertex is its own union-find
    slot, and a tree vertex outside the family, which lies in no set,
    takes the next slot from n up.  Such a vertex keeps members[s] below
    size in every set s, so holds_tree reads members alone, with no
    whole-tree flag.

    With an instance, the index also holds the tree's cost and penalty
    and error, the first way the tree fails to be a connected subgraph
    of the instance (None if it does not); check raises it.

    The lowest common sets of the tree's edges come from family, a
    FamilyIndex of the family and the instance, or else from one built
    for the tree's edges.  pairs names the family index's pair of each
    tree edge, by default the pairs after the instance's edges."""

    def __init__(self, fam: LaminarFamily, tree: Tree,
                 inst: Optional[Instance] = None,
                 family: Optional[FamilyIndex] = None,
                 pairs: Optional[Iterable[int]] = None):
        n = fam.n
        family = family or FamilyIndex(fam, inst, tree.edges)
        if pairs is None:
            pairs = range(family.m, len(family.ends))
        self.ends = [family.ends[k] for k in pairs]
        self.tops = tops = [family.tops[k] for k in pairs]
        self.parent = parent = family.parent
        members = [0] * len(parent)
        slot, outside = {}, n  # union-find slots, outside ones from n up
        for x in tree.vertices:
            v = _vertex(x, n)
            if v < 0:
                v, outside = outside, outside + 1
            else:
                members[v] = 1
            slot[x] = v
        joined = [0] * len(parent)
        piece = list(range(outside))
        unions = 0
        # the edges with no common set sort last
        for _, top, u, v in sorted(
                [(top < 0, top, slot[a], slot[b])
                 for (a, b), top in zip(tree.edges, tops)
                 if a in slot and b in slot]):
            ru, rv = root_of(piece, u), root_of(piece, v)
            if ru != rv:
                piece[ru] = rv
                unions += 1
                if top >= 0:
                    joined[top] += 1
        self.size = len(tree.vertices)
        self.connected = self.size > 0 and unions == self.size - 1
        self._links = family.links
        for sid, up in self._links:
            members[up] += members[sid]
            joined[up] += joined[sid]
        self.members, self.joined = members, joined
        if inst is not None:
            self._inst, self._vertices = inst, tree.vertices
            self.cost, self.error = self._validate(inst, tree, family)

    def _validate(self, inst: Instance, tree: Tree, family: FamilyIndex
                  ) -> tuple[Optional[Fraction], Optional[str]]:
        if not tree.vertices:
            return None, "a tree needs at least one vertex"
        for x in tree.vertices:
            if _vertex(x, inst.n) < 0:
                return None, f"tree vertex {x} out of range"
        edge_ids, total = family.edge_ids, 0
        seen: set[tuple[int, int]] = set()
        for u, v in tree.edges:
            key = (u, v) if u < v else (v, u)
            if key not in edge_ids:
                return None, f"tree edge ({u}, {v}) is not an instance edge"
            if key in seen:
                return None, f"tree edge ({u}, {v}) repeated"
            if u not in tree.vertices or v not in tree.vertices:
                return None, f"tree edge ({u}, {v}) leaves the vertex set"
            seen.add(key)
            total += family.costs[edge_ids[key]]
        if not self.connected:
            return None, "tree is not connected"
        return Fraction(total, family.scale), None

    @functools.cached_property
    def crossing(self) -> list[int]:
        """Per set, the tree edges with exactly one end in it, summed on
        first read: checked mode checks trees without reading it."""
        # an end or a top of -1, in no set, counts in a spare last entry
        crossing = [0] * (len(self.parent) + 1)
        for (u, v), top in zip(self.ends, self.tops):
            crossing[u] += 1
            crossing[v] += 1
            crossing[top] -= 2
        crossing.pop()
        for sid, up in self._links:
            crossing[up] += crossing[sid]
        return crossing

    @functools.cached_property
    def penalty(self) -> Fraction:
        """The prizes the tree forfeits, summed on first read: checked
        mode checks trees without reading it."""
        inst = self._inst
        return Fraction(sum(p for v, p in enumerate(inst.scaled_prizes)
                            if v not in self._vertices), inst.scale)

    def check(self, require_tree: bool = False) -> None:
        """Raise ValueError if the tree is not a connected subgraph of
        the index's instance, or, with require_tree, has a cycle."""
        if self.error:
            raise ValueError(self.error)
        if require_tree and len(self.ends) != self.size - 1:
            raise ValueError("subgraph has a cycle, not a tree")

    def holds_tree(self, sid: int) -> bool:
        return self.members[sid] == self.size

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
    shared by every vertex o: the left side is computed once, from the
    tree index's crossing counts, and the right side at o reads o's
    chain load."""

    def __init__(self, index: DualIndex, tree_index: TreeIndex):
        crossing = sum(map(operator.mul, index.y, tree_index.crossing))
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

        sum over sets S of y_S * (tree edges crossing S)
          + 2 * dual mass strictly outside the tree
        <= 2 * dual mass on sets missing o.

    The first sum is the dual mass each tree edge crosses, summed over
    the tree's edges, counted per set instead of per edge.

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
    minimizing_vertex (int).  Returns one CheckResult per check, in a
    fixed order; the solution verifies iff every check passed.  Each
    check returns its verdict to one loop, which writes the results and
    turns a ValueError or KeyError into a failed check.  The indexes are
    built once, by the first check that needs them: one family index
    answers the instance's edges and the tree's edges in one pass, and
    the tree is validated once.
    """
    family = functools.cache(lambda: FamilyIndex(fam, inst, tree.edges))
    dual_index = functools.cache(lambda: DualIndex(fam, duals, inst,
                                                   family()))
    tree_index = functools.cache(lambda: TreeIndex(fam, tree, inst,
                                                   family()))

    # each check returns the fields of its CheckResult after the name

    def structure():
        # LaminarFamily(n) starts as the n singletons and merge only
        # appends the union of two maximal sets, so the childless sets
        # are exactly 0..n-1, each in one maximal set: only the vertex
        # count can disagree with the instance
        if fam.n != inst.n:
            raise ValueError(f"snapshot covers {fam.n} vertices, "
                             f"instance has {inst.n}")
        return (True,)

    def feasibility():
        bad = dual_index().violations
        detail = "" if not bad else \
            f"{len(bad)} violated constraint(s); first: {bad[0]}"
        return not bad, None, None, detail

    def tree_structure():
        tree_index().check(require_tree=True)
        return (True,)

    def arithmetic():
        ti = tree_index()
        ti.check(require_tree=True)
        cost, penalty = ti.cost, ti.penalty
        ok = (cost == reported["cost"] and penalty == reported["penalty"]
              and reported["objective"] == cost + penalty
              and reported["lagrangean_objective"] == cost + 2 * penalty)
        detail = "" if ok else (
            f"recomputed cost {cost}, penalty {penalty} vs reported "
            f"{reported['cost']}, {reported['penalty']}")
        return ok, None, None, detail

    def cert():
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
        return not detail, lag, 2 * got.lower_bound, detail

    def tree_lb():
        lhs, rhs = tree_bound(fam, duals, inst, tree, dual_index(),
                              tree_index())
        return lhs <= rhs, lhs, rhs

    def growth():
        # the left side is the same at every o: the tightest vertex is
        # the first with the smallest right side
        bound = GrowthBound(dual_index(), tree_index())
        lhs, rhs, o = min(((*growth_inequality(fam, duals, tree, o, bound), o)
                           for o in range(inst.n)), key=operator.itemgetter(1))
        return lhs <= rhs, lhs, rhs, f"tightest at vertex {o}"

    def predicates():
        preds = tree_predicates(fam, duals.saturated, tree, tree_index())
        ok = preds.family_connected and not preds.bridges \
            and preds.wrapped is None
        return ok, None, None, "" if ok else f"{preds}"

    def counting():
        lhs, rhs = cluster_count_bound(fam, duals.saturated, tree,
                                       tree_index())
        return lhs <= rhs, lhs, rhs

    out = []
    for name, check in (("laminar-structure", structure),
                        ("dual-feasibility", feasibility),
                        ("tree-structure", tree_structure),
                        ("objective-arithmetic", arithmetic),
                        ("certificate-lower-bound", cert),
                        ("tree-lower-bound", tree_lb),
                        ("growth-bound", growth),
                        ("tree-predicates", predicates),
                        ("cluster-counting", counting)):
        try:
            out.append(CheckResult(name, *check()))
        except (ValueError, KeyError) as exc:
            out.append(CheckResult(name, False, detail=str(exc)))
    return out
