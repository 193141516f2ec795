"""Laminar vertex-set family with moat duals.

The family always covers every vertex: it starts as the n singletons and
is append-only, each later set being the disjoint union of two sets that
were maximal when the union was formed.  Containment is therefore a
forest over set ids; ids are assigned in creation order (singleton {v}
has id v) and never reused, so the family can hold at most 2n - 1 sets.
It is stored once, as the public lists parent, where parent[s] is the
set s lies in directly (None for a maximal set), and links, where union
n + k records the two sets it was made of as links[2k] and links[2k+1],
each a (child, parent) pair.  Links are appended in union order, so a
set's own link comes after the links of its children: an ascending
pass over links sums subtrees, children first, and a descending one
hands values down, parents first.  No set's member vertices are ever
listed: the parent links determine them, and the solver and the
verifier read these two lists in place.

Duals live in a separate DualAssignment: one non-negative int per set
over a common scale, plus the ids frozen as saturated.  The solver
reads it off its growth clocks at its own scale.  This module only
stores and queries; growth scheduling lives in the solver.

A snapshot is the solution document's laminar list: per set its id,
its dual as a "p/q" token, its saturation flag and its parent link.
The member vertices are not stored, because the parent links determine
them.  It is written as json text, one gcd and one f-string per set,
and builds neither a Fraction nor a dict.  Reading one reads each
dual token through instance._ratio, the package's one number reader,
which splits a canonical "p/q" token into its two ints.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional

from .instance import ParseError, _ratio, budgeted_scale

SetId = int
# a snapshot entry read back: id, dual p / q, saturated, parent
Record = tuple[SetId, int, int, bool, Optional[SetId]]


class LaminarFamily:
    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need at least one vertex, got {n}")
        self.n = n
        self.parent: list[Optional[SetId]] = [None] * n
        self.links: list[tuple[SetId, SetId]] = []
        self._size: list[int] = [1] * n

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def ids(self) -> range:
        return range(len(self.parent))

    def parent_of(self, sid: SetId) -> Optional[SetId]:
        return self.parent[sid]

    def size(self, sid: SetId) -> int:
        return self._size[sid]

    def maximal_ids(self) -> list[SetId]:
        """Ids of the maximal sets, ascending.  They partition V."""
        return [sid for sid, parent in enumerate(self.parent)
                if parent is None]

    def merge(self, a: SetId, b: SetId) -> SetId:
        """Append the union of two distinct maximal sets; returns its id."""
        if a == b:
            raise ValueError(f"cannot merge set {a} with itself")
        for sid in (a, b):
            if not 0 <= sid < len(self.parent):
                raise ValueError(f"unknown set id {sid}")
            if self.parent[sid] is not None:
                raise ValueError(f"set {sid} is not maximal")
        nid = len(self.parent)
        self.parent.append(None)
        self._size.append(self._size[a] + self._size[b])
        self.parent[a] = nid
        self.parent[b] = nid
        self.links += ((a, nid), (b, nid))
        return nid


@dataclass
class DualAssignment:
    """Per-set duals, set s having dual y[s] / scale, and the saturated ids."""

    y: list[int]
    scale: int
    saturated: set[SetId]


# ---------------------------------------------------------------------------
# snapshots (the serialized form audited by the verifier and the CLI)


def to_records(fam: LaminarFamily, duals: DualAssignment) -> str:
    """The document's laminar list as json text, one entry per set, each
    dual in lowest terms as "p/q".  The text is laid out as
    json.dumps(..., indent=2) lays out a list one level deep."""
    scale, saturated = duals.scale, duals.saturated
    entries = []
    for sid, y, parent in zip(fam.ids, duals.y, fam.parent):
        g = gcd(y, scale)
        entries.append(
            f'    {{\n      "id": {sid},\n'
            f'      "y": "{y // g}/{scale // g}",\n'
            f'      "saturated": {"true" if sid in saturated else "false"},\n'
            f'      "parent": {"null" if parent is None else parent}\n    }}')
    return "[\n" + ",\n".join(entries) + "\n  ]"


def records_from_json(items: list) -> list[Record]:
    """Records from the json entries of a snapshot.  Keys beyond the
    four a record needs are ignored, so the per-set "vertices" lists of
    pcst-solution/1 documents are accepted and skipped.  An id must be
    an int, a parent an int or None and a saturation flag a bool; bool
    is an int subtype, so it is refused as an id or parent.  A dual
    token is read by instance._ratio, or refused in its words.  A
    refusal names the entry's position in the list, as
    "laminar entry k: ..."."""
    records = []
    try:
        for k, item in enumerate(items):
            if not isinstance(item, dict):
                raise ValueError("snapshot entries must be objects")
            missing = {"id", "y", "saturated", "parent"} - set(item)
            if missing:
                raise ValueError("snapshot entry missing keys "
                                 f"{sorted(missing)}")
            sid, parent = item["id"], item["parent"]
            if type(sid) is not int or not (parent is None
                                             or type(parent) is int):
                raise ValueError("snapshot ids and parents must be integers")
            if type(item["saturated"]) is not bool:
                raise ValueError("snapshot saturation flags must be booleans")
            p, q = _ratio(item["y"])
            records.append((sid, p, q, item["saturated"], parent))
    except ValueError as exc:
        raise ValueError(f"laminar entry {k}: {exc}")
    return records


def from_records(records: Iterable[Record],
                 n: int) -> tuple[LaminarFamily, DualAssignment]:
    """Rebuild a family + duals from snapshot records, validating shape.

    Accepts exactly the families this package produces: singleton ids
    0..n-1, every later id the union of exactly two children, parents
    created after their children.  The duals come back as ints over the
    lcm of their denominators, and a ParseError refuses that scale past
    MAX_SCALE_BITS.  Duals a solve writes for an instance within the
    budget pass: their denominators divide the instance's scale.
    """
    recs = sorted(records, key=lambda r: r[0])
    if [r[0] for r in recs] != list(range(len(recs))):
        raise ValueError("snapshot set ids must be dense from 0")
    if len(recs) < n or len(recs) > 2 * n - 1:
        raise ValueError(f"snapshot has {len(recs)} sets for {n} vertices")
    fam = LaminarFamily(n)
    children: dict[int, list[int]] = {}
    for sid, _, _, _, parent in recs:
        if parent is not None:
            if not (sid < parent < len(recs)):
                raise ValueError(f"set {sid} has bad parent {parent}")
            children.setdefault(parent, []).append(sid)
    for sid in range(n, len(recs)):
        kids = children.get(sid, [])
        if len(kids) != 2:
            raise ValueError(f"set {sid} must have exactly two children")
        fam.merge(kids[0], kids[1])
    for sid, p, q, _, parent in recs:
        if parent != fam.parent_of(sid):
            raise ValueError(f"set {sid} parent link inconsistent")
        if p < 0:
            raise ValueError(f"set {sid} has negative dual {Fraction(p, q)}")
    try:
        scale = budgeted_scale({q for _, _, q, _, _ in recs}, 1,
                               "the duals' scale")
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    y = [p * (scale // q) for _, p, q, _, _ in recs]
    return fam, DualAssignment(y, scale,
                               {sid for sid, _, _, sat, _ in recs if sat})
