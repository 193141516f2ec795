"""Output checks that share nothing with the solver's bookkeeping.

``check_document`` recomputes everything a ``pcst-solution/1`` document
claims that can be recomputed in linear time from the instance file and
the document alone: the tree, its cost and penalty, the objectives and
the lower bound.  It returns a list of problems; empty means the
document passed.
"""
from __future__ import annotations

from fractions import Fraction


def _find(parent: dict, v):
    root = v
    while parent[root] != root:
        root = parent[root]
    while parent[v] != root:
        parent[v], v = root, parent[v]
    return root


def _tree_problems(inst: dict, tree: dict) -> list[str]:
    n = inst["n"]
    costs = {(u, v): c for u, v, c in inst["edges"]}
    vertices = tree["vertices"]
    if not vertices:
        return ["tree has no vertex"]
    if any(not isinstance(v, int) or not 0 <= v < n for v in vertices):
        return ["tree vertex out of range"]
    if len(set(vertices)) != len(vertices):
        return ["tree vertex repeated"]
    parent = {v: v for v in vertices}
    seen = set()
    for u, v in tree["edges"]:
        key = (min(u, v), max(u, v))
        if key not in costs:
            return [f"tree edge {key} is not an instance edge"]
        if key in seen:
            return [f"tree edge {key} repeated"]
        seen.add(key)
        if u not in parent or v not in parent:
            return [f"tree edge {key} leaves the tree's vertices"]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            return [f"tree edge {key} closes a cycle"]
        parent[ru] = rv
    if len(seen) != len(vertices) - 1:
        return ["tree edges do not connect the tree's vertices"]
    return []


def lower_bound(laminar: list, n: int) -> tuple[Fraction, int]:
    """(lower bound, minimizing vertex) from duals and parent links.

    One top-down pass: ids ascend from children to parents, so walking
    ids downwards reaches every parent before its children.  The chain
    load of a vertex is the dual mass on the sets containing it; the
    bound is the total dual mass minus the largest chain load.
    """
    count = len(laminar)
    if [rec["id"] for rec in laminar] != list(range(count)) or count < n:
        raise ValueError("set ids are not dense from 0")
    chain = [Fraction(0)] * count
    total = Fraction(0)
    for rec in reversed(laminar):
        y = Fraction(rec["y"])
        if y < 0:
            raise ValueError(f"set {rec['id']} has a negative dual")
        parent = rec["parent"]
        if parent is not None and not rec["id"] < parent < count:
            raise ValueError(f"set {rec['id']} has bad parent {parent}")
        chain[rec["id"]] = y + (chain[parent] if parent is not None else 0)
        total += y
    best = max(range(n), key=chain.__getitem__)
    return total - chain[best], best


def check_document(inst: dict, doc: dict) -> list[str]:
    """Problems found in a solution document for this instance."""
    n, edges = inst["n"], inst["edges"]
    if doc.get("instance") != {"n": n, "m": len(edges)}:
        return ["document names another instance"]
    problems = _tree_problems(inst, doc["tree"])
    if problems:
        return problems
    costs = {(u, v): c for u, v, c in edges}
    cost = Fraction(sum(costs[min(u, v), max(u, v)]
                        for u, v in doc["tree"]["edges"]))
    in_tree = set(doc["tree"]["vertices"])
    penalty = Fraction(sum(p for v, p in enumerate(inst["prizes"])
                           if v not in in_tree))
    want = {
        "cost": cost,
        "penalty": penalty,
        "objective": cost + penalty,
        "lagrangean_objective": cost + 2 * penalty,
    }
    try:
        bound, vertex = lower_bound(doc["laminar"], n)
    except ValueError as exc:
        return [f"laminar: {exc}"]
    want["lower_bound"] = bound
    for key, value in want.items():
        if Fraction(doc[key]) != value:
            problems.append(f"{key} {doc[key]} recomputes to {value}")
    if doc["minimizing_vertex"] != vertex:
        problems.append(f"minimizing_vertex {doc['minimizing_vertex']} "
                        f"recomputes to {vertex}")
    if want["lagrangean_objective"] > 2 * bound:
        problems.append("cost + 2*penalty exceeds twice the lower bound")
    return problems
