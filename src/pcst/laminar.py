"""Laminar vertex-set family with moat duals.

The family always covers every vertex: it starts as the n singletons and
is append-only, each later set being the disjoint union of two sets that
were maximal when the union was formed.  Containment is therefore a
forest over set ids, stored with parent links; ids are assigned in
creation order (singleton {v} has id v) and never reused, so the family
can hold at most 2n - 1 sets.

A disjoint-set index maps each vertex to the maximal set currently
covering it, which keeps "are these endpoints in the same maximal set"
queries cheap for the solver.  Chains (the supersets of a singleton) are
read straight off the parent links; the sets crossing an edge are the
symmetric difference of its endpoints' chains.

Duals live in a separate DualAssignment: one non-negative Fraction per
set plus the ids frozen as saturated.  The solver keeps its duals as
growth clocks and builds a DualAssignment from them only for its
output and its invariant checks.  This module only stores and queries;
growth scheduling lives in the solver.

A snapshot record carries a set's id, dual, saturation flag and parent
link; the member vertices are not stored, because the parent links
determine them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .instance import format_rational, parse_rational

SetId = int


class LaminarFamily:
    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need at least one vertex, got {n}")
        self.n = n
        self._parent: list[Optional[SetId]] = [None] * n
        self._children: list[tuple[SetId, ...]] = [()] * n
        self._size: list[int] = [1] * n
        self._maximal: set[SetId] = set(range(n))
        self._vertices: dict[SetId, frozenset[int]] = {}
        # union-find over vertices; each root remembers its covering set id
        self._dsu: list[int] = list(range(n))
        self._top: list[SetId] = list(range(n))

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def ids(self) -> range:
        return range(len(self._parent))

    def parent_of(self, sid: SetId) -> Optional[SetId]:
        return self._parent[sid]

    def size(self, sid: SetId) -> int:
        return self._size[sid]

    def is_maximal(self, sid: SetId) -> bool:
        return self._parent[sid] is None

    def maximal_ids(self) -> list[SetId]:
        """Ids of the maximal sets, ascending.  They partition V."""
        return sorted(self._maximal)

    def _find(self, v: int) -> int:
        dsu = self._dsu
        root = v
        while dsu[root] != root:
            root = dsu[root]
        while dsu[v] != root:
            dsu[v], v = root, dsu[v]
        return root

    def maximal_of(self, v: int) -> SetId:
        """Id of the maximal set containing vertex v."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return self._top[self._find(v)]

    def vertices(self, sid: SetId) -> frozenset[int]:
        """Member vertices, collected by descending to leaf singletons."""
        if not 0 <= sid < len(self._parent):
            raise ValueError(f"unknown set id {sid}")
        cached = self._vertices.get(sid)
        if cached is not None:
            return cached
        if sid < self.n:
            vs = frozenset((sid,))
        else:
            acc: list[int] = []
            stack = [sid]
            while stack:
                cur = stack.pop()
                kids = self._children[cur]
                if kids:
                    stack.extend(kids)
                else:
                    acc.append(cur)
            vs = frozenset(acc)
        self._vertices[sid] = vs
        return vs

    def merge(self, a: SetId, b: SetId) -> SetId:
        """Append the union of two distinct maximal sets; returns its id."""
        if a == b:
            raise ValueError(f"cannot merge set {a} with itself")
        for sid in (a, b):
            if not 0 <= sid < len(self._parent):
                raise ValueError(f"unknown set id {sid}")
            if self._parent[sid] is not None:
                raise ValueError(f"set {sid} is not maximal")
        nid = len(self._parent)
        self._parent.append(None)
        self._children.append((a, b))
        self._size.append(self._size[a] + self._size[b])
        self._parent[a] = nid
        self._parent[b] = nid
        self._maximal.discard(a)
        self._maximal.discard(b)
        self._maximal.add(nid)
        ra = self._find(next(iter(self.vertices(a))))
        rb = self._find(next(iter(self.vertices(b))))
        self._dsu[rb] = ra
        self._top[ra] = nid
        return nid

    def chain_of_vertex(self, v: int) -> list[SetId]:
        """Leaf-to-root id chain of the singleton {v}; ids ascend."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        chain = [v]
        cur = self._parent[v]
        while cur is not None:
            chain.append(cur)
            cur = self._parent[cur]
        return chain

    def crossing_sets(self, u: int, v: int) -> list[SetId]:
        """Ids of sets containing exactly one of vertices u and v.

        These are the sets an edge (u, v) leaves, i.e. the symmetric
        difference of the two endpoint chains.
        """
        if u == v:
            raise ValueError("an edge needs two distinct endpoints")
        cu = set(self.chain_of_vertex(u))
        cv = set(self.chain_of_vertex(v))
        return sorted(cu ^ cv)


@dataclass
class DualAssignment:
    """Per-set dual values plus the ids frozen as saturated."""

    y: dict[SetId, Fraction]
    saturated: set[SetId]


# ---------------------------------------------------------------------------
# snapshots (the serialized form audited by the verifier and the CLI)


@dataclass(frozen=True)
class SetRecord:
    sid: SetId
    y: Fraction
    saturated: bool
    parent: Optional[SetId]

    def to_json_obj(self) -> dict:
        return {
            "id": self.sid,
            "y": format_rational(self.y),
            "saturated": self.saturated,
            "parent": self.parent,
        }


def to_records(fam: LaminarFamily,
               duals: DualAssignment) -> tuple[SetRecord, ...]:
    return tuple(
        SetRecord(sid, duals.y[sid], sid in duals.saturated,
                  fam.parent_of(sid))
        for sid in fam.ids)


def records_from_json(items: list) -> tuple[SetRecord, ...]:
    """Records from the json entries of a snapshot.  Keys beyond the
    four a record needs are ignored, so the per-set "vertices" lists of
    pcst-solution/1 documents are accepted and skipped."""
    records = []
    for item in items:
        if not isinstance(item, dict):
            raise ValueError("laminar snapshot entries must be objects")
        missing = {"id", "y", "saturated", "parent"} - set(item)
        if missing:
            raise ValueError(f"snapshot entry missing keys {sorted(missing)}")
        records.append(SetRecord(
            item["id"], parse_rational(item["y"]), bool(item["saturated"]),
            item["parent"]))
    return tuple(records)


def from_records(records: Iterable[SetRecord],
                 n: int) -> tuple[LaminarFamily, DualAssignment]:
    """Rebuild a family + duals from snapshot records, validating shape.

    Accepts exactly the families this package produces: singleton ids
    0..n-1, every later id the union of exactly two children, parents
    created after their children.
    """
    recs = sorted(records, key=lambda r: r.sid)
    if [r.sid for r in recs] != list(range(len(recs))):
        raise ValueError("snapshot set ids must be dense from 0")
    if len(recs) < n or len(recs) > 2 * n - 1:
        raise ValueError(f"snapshot has {len(recs)} sets for {n} vertices")
    fam = LaminarFamily(n)
    children: dict[int, list[int]] = {}
    for r in recs:
        if r.parent is not None:
            if not (r.sid < r.parent < len(recs)):
                raise ValueError(f"set {r.sid} has bad parent {r.parent}")
            children.setdefault(r.parent, []).append(r.sid)
    for r in recs[n:]:
        kids = children.get(r.sid, [])
        if len(kids) != 2:
            raise ValueError(f"set {r.sid} must have exactly two children")
        for kid in kids:
            if not fam.is_maximal(kid):
                raise ValueError(f"set {kid} merged twice in snapshot")
        nid = fam.merge(kids[0], kids[1])
        assert nid == r.sid
    for r in recs:
        if r.parent != fam.parent_of(r.sid):
            raise ValueError(f"set {r.sid} parent link inconsistent")
        if r.y < 0:
            raise ValueError(f"set {r.sid} has negative dual {r.y}")
    duals = DualAssignment({r.sid: r.y for r in recs},
                           {r.sid for r in recs if r.saturated})
    return fam, duals
