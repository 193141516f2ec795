"""Laminar family structure and snapshot round trips."""
import random
from fractions import Fraction

import pytest

from pcst import from_records, records_from_json, to_records
from pcst import laminar as lam


# -- structure -----------------------------------------------------------------


def test_singletons():
    fam = lam.LaminarFamily(3)
    assert len(fam) == 3
    assert fam.maximal_ids() == [0, 1, 2]
    for v in range(3):
        assert fam.vertices(v) == frozenset({v})
        assert fam.maximal_of(v) == v
        assert fam.parent_of(v) is None


def test_merge_structure():
    fam = lam.LaminarFamily(4)
    nid = fam.merge(0, 1)
    assert nid == 4
    assert fam.vertices(nid) == frozenset({0, 1})
    assert fam.parent_of(0) == nid and fam.parent_of(1) == nid
    assert fam.size(nid) == 2
    assert fam.maximal_ids() == [2, 3, 4]
    assert fam.maximal_of(0) == nid and fam.maximal_of(1) == nid


def test_merge_rejects_non_maximal_and_self():
    fam = lam.LaminarFamily(3)
    nid = fam.merge(0, 1)
    with pytest.raises(ValueError):
        fam.merge(0, 2)  # 0 is no longer maximal
    with pytest.raises(ValueError):
        fam.merge(nid, nid)


def test_chain_of_vertex_ascends():
    fam = lam.LaminarFamily(4)
    a = fam.merge(0, 1)
    b = fam.merge(a, 2)
    assert fam.chain_of_vertex(0) == [0, a, b]
    assert fam.chain_of_vertex(2) == [2, b]
    assert fam.chain_of_vertex(3) == [3]


def test_crossing_sets():
    fam = lam.LaminarFamily(3)
    fam.merge(0, 1)
    # sets holding exactly one endpoint of (0, 2): {0}, {2}, {0,1}
    assert fam.crossing_sets(0, 2) == [0, 2, 3]
    assert fam.crossing_sets(0, 1) == [0, 1]


def test_vertices_cached_consistent_after_merges():
    fam = lam.LaminarFamily(6)
    rng = random.Random(5)
    while len(fam.maximal_ids()) > 1:
        tops = fam.maximal_ids()
        a, b = rng.sample(tops, 2)
        nid = fam.merge(a, b)
        assert fam.vertices(nid) == fam.vertices(a) | fam.vertices(b)
    assert fam.vertices(fam.maximal_ids()[0]) == frozenset(range(6))


# -- snapshots -----------------------------------------------------------------


def build_random_family(n, seed):
    fam = lam.LaminarFamily(n)
    duals = lam.DualAssignment({}, set())
    rng = random.Random(seed)
    while len(fam.maximal_ids()) > 1 and rng.random() < 0.8:
        a, b = rng.sample(fam.maximal_ids(), 2)
        nid = fam.merge(a, b)
        duals.y[nid] = Fraction(rng.randint(0, 9), rng.randint(1, 9))
        if rng.random() < 0.3:
            duals.saturated.add(nid)
    for v in range(n):
        duals.y[v] = Fraction(rng.randint(0, 9), rng.randint(1, 9))
    return fam, duals


@pytest.mark.parametrize("seed", range(8))
def test_snapshot_round_trip(seed):
    fam, duals = build_random_family(7, seed)
    records = to_records(fam, duals)
    parsed = records_from_json([r.to_json_obj() for r in records])
    assert parsed == records
    fam2, duals2 = from_records(parsed, 7)
    assert len(fam2) == len(fam)
    for sid in fam.ids:
        assert fam2.vertices(sid) == fam.vertices(sid)
        assert fam2.parent_of(sid) == fam.parent_of(sid)
        assert duals2.y[sid] == duals.y[sid]
    assert duals2.saturated == duals.saturated
    assert fam2.maximal_ids() == fam.maximal_ids()


def test_from_records_rejects_malformed():
    fam, duals = build_random_family(5, 1)
    records = list(to_records(fam, duals))

    def corrupt(mutate):
        objs = [r.to_json_obj() for r in records]
        mutate(objs)
        with pytest.raises(ValueError):
            from_records(records_from_json(objs), 5)

    corrupt(lambda objs: objs.pop())  # drop the root set
    corrupt(lambda objs: objs[0].update(y="-1/2"))  # negative dual
    corrupt(lambda objs: objs[-1].update(parent=0))  # cyclic parent
    with pytest.raises(ValueError):
        from_records(records_from_json([r.to_json_obj()
                                        for r in records]), 50)


def test_records_from_json_rejects_bad_shape():
    with pytest.raises(ValueError):
        records_from_json([42])
    with pytest.raises(ValueError):
        records_from_json([{"id": 0}])
