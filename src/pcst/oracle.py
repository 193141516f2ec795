"""Exhaustive exact PCST solver for small instances.

Enumerates every nonempty connected vertex subset exactly once, scores
each as (minimum spanning tree of the induced subgraph) + (prizes left
outside), and keeps the best.  Intended as an independent reference for
testing the primal-dual solver, so it shares no code with it; anything
beyond limit_n vertices is refused up front.  It scores on the
instance's scaled ints and builds one Fraction, the optimum, at the end.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .instance import Instance


@dataclass(frozen=True)
class ExactResult:
    optimum: Fraction
    witness_vertices: frozenset[int]
    witness_edges: tuple[tuple[int, int], ...]
    explored: int


def iter_connected_masks(n: int, adj_masks: list[int]) -> Iterator[int]:
    """Yield every nonempty connected vertex subset as a bitmask, once.

    Subsets are anchored at their minimum vertex: for each root r the
    recursion grows subsets whose other members all exceed r, extending
    by one frontier vertex at a time and banning a vertex for the rest
    of a branch once the branch without it has been explored.
    """
    for root in range(n):
        allowed = -1 << (root + 1)  # only vertices above the anchor
        yield from _grow(1 << root, adj_masks[root] & allowed, 0, adj_masks,
                         allowed)


def _grow(mask: int, cand: int, banned: int, adj_masks: list[int],
          allowed: int) -> Iterator[int]:
    """The subsets grown from mask by the candidates in cand, never
    taking a banned vertex or one outside allowed.  A module function,
    not a closure: a closure that calls itself is a reference cycle."""
    yield mask
    while cand:
        bit = cand & (-cand)
        cand ^= bit
        v = bit.bit_length() - 1
        child_cand = (cand | (adj_masks[v] & allowed & ~banned)) \
            & ~(mask | bit)
        yield from _grow(mask | bit, child_cand, banned, adj_masks, allowed)
        banned |= bit


def exact_solve(inst: Instance, limit_n: int = 18) -> ExactResult:
    """Optimal objective with a witness tree; ties go to the candidate
    with the lexicographically smallest sorted vertex tuple."""
    n = inst.n
    if n > limit_n:
        raise ValueError(f"instance has {n} > limit_n = {limit_n} vertices; "
                         "refusing exhaustive enumeration")
    adj_masks = [0] * n
    for u, v in inst.ends:
        adj_masks[u] |= 1 << v
        adj_masks[v] |= 1 << u
    costs, prizes = inst.scaled_costs, inst.scaled_prizes
    # stable Kruskal order: by cost, then input position
    sorted_edges = [(*inst.ends[i], costs[i])
                    for i in sorted(range(inst.m), key=costs.__getitem__)]
    total_prize = sum(prizes)

    best_value: int | None = None
    best_key: tuple[int, ...] | None = None
    best_edges: tuple[tuple[int, int], ...] = ()
    explored = 0

    for mask in iter_connected_masks(n, adj_masks):
        explored += 1
        inside = sum(map(prizes.__getitem__, _mask_tuple(mask)))
        k = mask.bit_count()
        cost = 0
        picked: list[tuple[int, int]] = []
        if k > 1:
            parent = {}
            for u, v, c in sorted_edges:
                if not ((mask >> u) & 1 and (mask >> v) & 1):
                    continue
                ru, rv = u, v
                while parent.get(ru, ru) != ru:
                    ru = parent.get(ru, ru)
                while parent.get(rv, rv) != rv:
                    rv = parent.get(rv, rv)
                if ru == rv:
                    continue
                parent[rv] = ru
                cost += c
                picked.append((u, v))
                if len(picked) == k - 1:
                    break
            assert len(picked) == k - 1  # enumerator only yields connected
        value = cost + (total_prize - inside)
        if best_value is None or value < best_value:
            best_value, best_key = value, None
            best_edges = tuple(picked)
            best_mask = mask
        elif value == best_value:
            if best_key is None:
                best_key = _mask_tuple(best_mask)
            key = _mask_tuple(mask)
            if key < best_key:
                best_key = key
                best_edges = tuple(picked)
                best_mask = mask

    assert best_value is not None
    return ExactResult(Fraction(best_value, inst.scale),
                       frozenset(_mask_tuple(best_mask)),
                       best_edges, explored)


def _mask_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        bit = mask & (-mask)
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return tuple(out)
