"""Brute-force exact solver and its subset enumerator."""
import random
from fractions import Fraction

import pytest

from conftest import connected_subsets_naive
from pcst import Instance, exact_solve, gen_random, gen_tight_star
from pcst.oracle import iter_connected_masks


def adj_masks(n, edge_pairs):
    masks = [0] * n
    for u, v in edge_pairs:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def as_sets(masks_iter):
    out = set()
    for mask in masks_iter:
        vs = frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)
        assert vs not in out, "enumerator repeated a subset"
        out.add(vs)
    return out


# -- enumerator ----------------------------------------------------------------


def test_enumerates_path_graph():
    pairs = [(0, 1), (1, 2)]
    got = as_sets(iter_connected_masks(3, adj_masks(3, pairs)))
    assert got == {frozenset(s) for s in
                   [{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}]}


def test_enumerates_empty_graph():
    got = as_sets(iter_connected_masks(4, adj_masks(4, [])))
    assert got == {frozenset({v}) for v in range(4)}


def test_enumerates_complete_graph_counts():
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    got = as_sets(iter_connected_masks(5, adj_masks(5, pairs)))
    assert len(got) == 2 ** 5 - 1


@pytest.mark.parametrize("seed", range(25))
def test_enumerator_matches_naive_filter(seed):
    inst = gen_random(1 + seed % 8, "1/2", max_cost=3, max_prize=3,
                      seed=seed)
    pairs = [(u, v) for u, v, _ in inst.edges]
    got = as_sets(iter_connected_masks(inst.n, adj_masks(inst.n, pairs)))
    assert got == connected_subsets_naive(inst.n, pairs)


# -- exact solver ---------------------------------------------------------------


def test_single_vertex():
    res = exact_solve(Instance(1, (), (5,)))
    assert res.optimum == 0
    assert res.witness_vertices == {0}
    assert res.witness_edges == ()
    assert res.explored == 1


def test_tight_star_values():
    res = exact_solve(gen_tight_star(1))
    assert res.optimum == 3
    assert res.witness_vertices == {0}
    res = exact_solve(gen_tight_star("1/100"))
    assert res.optimum == Fraction(201, 100)
    assert res.witness_vertices == {0}


def test_prefers_cheap_tree_over_prizes():
    # buying the middle edge at cost 1 beats forfeiting prize 10
    inst = Instance(3, ((0, 1, 4), (1, 2, 1)), (10, 10, "1/4"))
    res = exact_solve(inst)
    assert res.optimum == Fraction(17, 4)
    assert res.witness_vertices == {0, 1}
    assert res.witness_edges == ((0, 1),)


def test_tie_breaks_to_smallest_vertex_tuple():
    res = exact_solve(Instance(2, (), (1, 1)))
    assert res.optimum == 1
    assert res.witness_vertices == {0}


def test_mst_tie_breaks_by_edge_index():
    inst = Instance(3, ((0, 1, 1), (0, 2, 1), (1, 2, 1)), (9, 9, 9))
    res = exact_solve(inst)
    assert res.optimum == 2
    assert res.witness_edges == ((0, 1), (0, 2))


def test_disconnected_graph():
    # two components; the best tree lives in one of them
    inst = Instance(4, ((0, 1, 1), (2, 3, 8)), (5, 5, 2, 2))
    res = exact_solve(inst)
    # keep {0,1}: cost 1, forfeit 4 -> 5; anything else is worse
    assert res.optimum == 5
    assert res.witness_vertices == {0, 1}


def test_size_limit():
    big = Instance(19, (), (0,) * 19)
    with pytest.raises(ValueError):
        exact_solve(big)
    res = exact_solve(big, limit_n=19)
    assert res.optimum == 0


def test_explored_counts_connected_subsets():
    inst = Instance(3, ((0, 1, 1), (1, 2, 1)), (1, 1, 1))
    assert exact_solve(inst).explored == 6


def fraction_optimum(inst):
    """The optimum over connected_subsets_naive, each subset scored by a
    Kruskal in Fractions over inst.edges (ties by edge index) plus the
    prizes it leaves out, and the subsets scored."""
    subsets = connected_subsets_naive(inst.n, [(u, v) for u, v, _ in
                                               inst.edges])
    by_cost = sorted(range(inst.m), key=lambda i: (inst.edges[i][2], i))
    best = None
    for subset in subsets:
        root = {v: v for v in subset}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        value = sum(p for v, p in enumerate(inst.prizes) if v not in subset)
        for i in by_cost:
            u, v, c = inst.edges[i]
            if u in subset and v in subset and find(u) != find(v):
                root[find(u)] = find(v)
                value += c
        best = value if best is None else min(best, value)
    return best, subsets


@pytest.mark.parametrize("seed", range(40))
def test_int_scoring_matches_a_fraction_brute_force(seed):
    """exact_solve scores on the instance's scaled ints; a brute force
    over Fractions finds the same optimum and explores as many subsets,
    on rational costs and prizes with denominators 2 to 7."""
    rng = random.Random(seed)
    n = rng.randint(1, 9)

    def rational():
        return Fraction(rng.randint(0, 30), rng.randint(2, 7))

    edges = [(u, v, rational()) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.4]
    # vertex 0's prize has denominator 7, so the scale is not 2
    prizes = [Fraction(rng.randint(1, 6), 7)] + \
        [rational() for _ in range(n - 1)]
    inst = Instance(n, edges, prizes)
    assert inst.scale % 7 == 0
    res = exact_solve(inst)
    optimum, subsets = fraction_optimum(inst)
    assert res.optimum == optimum
    assert res.explored == len(subsets)
    assert res.witness_vertices in subsets
    cost = {(u, v): c for u, v, c in inst.edges}
    assert len(res.witness_edges) == len(res.witness_vertices) - 1
    assert {x for e in res.witness_edges for x in e} <= res.witness_vertices
    assert sum(cost[e] for e in res.witness_edges) + sum(
        p for v, p in enumerate(inst.prizes)
        if v not in res.witness_vertices) == optimum
