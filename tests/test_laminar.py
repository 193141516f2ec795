"""Laminar family structure, the solver's union-find over its maximal
sets, and snapshot round trips."""
import json
import random
import sys
from fractions import Fraction

import pytest

import naive_checker as naive
from conftest import chain_of_vertex
from naive_checker import members
from pcst import (Instance, ParseError, format_rational, from_records,
                  gen_random, records_from_json, solve, to_records)
from pcst import instance
from pcst import laminar as lam
from pcst import solver as sv
from pcst import verify
from pcst.instance import MAX_SCALE_BITS


# -- structure -----------------------------------------------------------------


def test_singletons():
    fam = lam.LaminarFamily(3)
    assert len(fam) == 3
    assert fam.maximal_ids() == [0, 1, 2]
    assert members(fam) == [{0}, {1}, {2}]
    for v in range(3):
        assert fam.size(v) == 1
        assert fam.parent_of(v) is None


def test_merge_structure():
    fam = lam.LaminarFamily(4)
    nid = fam.merge(0, 1)
    assert nid == 4
    assert members(fam)[nid] == {0, 1}
    assert fam.parent_of(0) == nid and fam.parent_of(1) == nid
    assert fam.size(nid) == 2
    assert fam.maximal_ids() == [2, 3, 4]
    assert fam.links == [(0, 4), (1, 4)]


@pytest.mark.parametrize("seed", range(20))
def test_links_record_each_union_once(seed):
    """Over random families: the links hold two (child, parent) pairs
    per union, in union order, the union's two children in the order
    merge was given them, and they agree with the parent list."""
    n = 10
    fam = lam.LaminarFamily(n)
    rng = random.Random(seed)
    unions = []
    while len(fam.maximal_ids()) > 1 and rng.random() < 0.9:
        a, b = rng.sample(fam.maximal_ids(), 2)
        unions.append((a, b, fam.merge(a, b)))
    assert len(fam.links) == 2 * (len(fam) - n) == 2 * len(unions)
    assert fam.links == [link for a, b, nid in unions
                         for link in ((a, nid), (b, nid))]
    assert sorted(fam.links) == sorted(
        (sid, parent) for sid, parent in enumerate(fam.parent)
        if parent is not None)
    assert fam.parent == [fam.parent_of(sid) for sid in fam.ids]


def test_merge_rejects_non_maximal_and_self():
    fam = lam.LaminarFamily(3)
    nid = fam.merge(0, 1)
    with pytest.raises(ValueError):
        fam.merge(0, 2)  # 0 is no longer maximal
    with pytest.raises(ValueError):
        fam.merge(nid, nid)


# -- the solver's union-find ------------------------------------------------------


def assert_union_find_matches_members(state):
    """Every vertex's maximal set and chain load (in units of 1/scale),
    read off the solver's union-find, against membership loops over the
    parent links."""
    fam, n = state.fam, state.inst.n
    sets = members(fam)
    duals = state.dual_assignment()
    assert [state._reach(v) for v in range(n)] == [
        (next(sid for sid in fam.maximal_ids() if v in sets[sid]),
         naive.vertex_chain_load(fam, duals, v) * state._scale)
        for v in range(n)]


def test_union_find_starts_at_the_singletons():
    state = sv.init_state(Instance(3, (), (1, 2, 3)))
    assert_union_find_matches_members(state)
    assert [state._find(v) for v in range(3)] == [0, 1, 2]


@pytest.mark.parametrize("seed", range(6))
def test_loads_match_a_per_vertex_sum(seed):
    """The solver's union-find, driven by random kills (a dual frozen
    onto a maximal set's members) and random merges at random clocks:
    the frozen loads reach exactly the members, across unions and path
    compression, and every vertex finds its maximal set."""
    n = 12
    state = sv.init_state(Instance(n, (), (0,) * n))
    rng = random.Random(seed)
    while True:
        state.clock += rng.randint(0, 9) * 12 // rng.randint(1, 4)
        tops = state.fam.maximal_ids()
        alive = [sid for sid in tops if state._alive(sid)]
        if alive and rng.random() < 0.4:
            state._kill(rng.choice(alive))
        if len(tops) == 1:
            break
        if rng.random() < 0.3:  # reading compresses paths; let some grow
            assert_union_find_matches_members(state)
        state._merge(*rng.sample(tops, 2))
    assert_union_find_matches_members(state)
    with pytest.raises(sv.InvariantError, match="inactive set 0"):
        state._apply_saturation(0, 0)


# -- snapshots -----------------------------------------------------------------


def build_random_family(n, seed):
    fam = lam.LaminarFamily(n)
    y, saturated = {}, set()
    rng = random.Random(seed)
    while len(fam.maximal_ids()) > 1 and rng.random() < 0.8:
        a, b = rng.sample(fam.maximal_ids(), 2)
        nid = fam.merge(a, b)
        y[nid] = Fraction(rng.randint(0, 9), rng.randint(1, 9))
        if rng.random() < 0.3:
            saturated.add(nid)
    for v in range(n):
        y[v] = Fraction(rng.randint(0, 9), rng.randint(1, 9))
    return fam, naive.duals_from([y[sid] for sid in fam.ids], saturated)


@pytest.mark.parametrize("seed", range(8))
def test_snapshot_round_trip(seed):
    fam, duals = build_random_family(7, seed)
    records = json.loads(to_records(fam, duals))
    assert [r["y"] for r in records] == \
        [format_rational(naive.dual(duals, sid)) for sid in fam.ids]
    parsed = records_from_json(records)
    assert parsed == [(sid, *naive.dual(duals, sid).as_integer_ratio(),
                       sid in duals.saturated, fam.parent_of(sid))
                      for sid in fam.ids]
    fam2, duals2 = from_records(parsed, 7)
    assert len(fam2) == len(fam)
    for sid in fam.ids:
        assert fam2.parent_of(sid) == fam.parent_of(sid)
        assert fam2.size(sid) == fam.size(sid)
        assert naive.dual(duals2, sid) == naive.dual(duals, sid)
    assert duals2.saturated == duals.saturated
    assert fam2.maximal_ids() == fam.maximal_ids()


def lowest_common_by_walk(fam, u, v):
    """The lowest set holding vertices u and v, off their parent chains;
    -1 if no set does or an end names no vertex."""
    if not (type(u) is type(v) is int and 0 <= u < fam.n and 0 <= v < fam.n):
        return -1
    common = set(chain_of_vertex(fam, u)) & set(chain_of_vertex(fam, v))
    return min(common, default=-1)


@pytest.mark.parametrize("seed", range(12))
def test_family_index_matches_chain_walks(seed):
    """The family index's lowest common sets, against the parent chains,
    for the edges of an instance with two vertices past the family's
    and for pairs with equal ends, ends past n, negative and None ends
    and ends in different maximal sets; its prize sums against
    membership."""
    n = 9
    fam, _ = build_random_family(n, seed)
    rng = random.Random(seed)
    edges = {tuple(sorted(rng.sample(range(n + 2), 2))) for _ in range(25)}
    inst = Instance(n + 2, tuple((u, v, rng.randint(0, 9))
                                 for u, v in sorted(edges)),
                    tuple(Fraction(rng.randint(0, 9), rng.randint(1, 4))
                          for _ in range(n + 2)))
    values = list(range(n + 2)) + [None, -1]
    pairs = [(v, v) for v in values]
    pairs += [(rng.choice(values), rng.choice(values)) for _ in range(40)]
    sets = members(fam)
    tops = fam.maximal_ids()
    pairs += [(min(sets[a]), max(sets[b])) for a, b in zip(tops, tops[1:])]
    index = verify.FamilyIndex(fam, inst, pairs)
    asked = [(u, v) for u, v, _ in inst.edges] + pairs
    assert index.tops == [lowest_common_by_walk(fam, u, v)
                          for u, v in asked]
    assert index.parent == [fam.parent_of(sid) for sid in fam.ids]
    assert list(index.costs) == [c * inst.scale for _, _, c in inst.edges]
    assert index.prizes == [sum(inst.prizes[v] for v in vs) * inst.scale
                            for vs in sets]


def test_family_index_reads_the_familys_lists_in_place():
    """A family index holds the family's own parent and links lists,
    not copies, so it sees every later union; what it derives of them,
    the lowest common sets and the prize sums, answers for the sets the
    family held when it was built."""
    fam = lam.LaminarFamily(4)
    fam.merge(0, 1)
    index = verify.FamilyIndex(fam, Instance(4, ((1, 2, 2),), (1,) * 4))
    assert index.parent is fam.parent and index.links is fam.links
    assert index.tops == [-1] and len(index.prizes) == 5
    fam.merge(2, 4)
    assert index.parent[4] == 5 and index.links[-1] == (4, 5)
    assert index.tops == [-1] and len(index.prizes) == 5
    assert verify.FamilyIndex(fam, Instance(4, ((1, 2, 2),),
                                            (1,) * 4)).tops == [5]


def test_from_records_rejects_malformed():
    fam, duals = build_random_family(5, 1)
    records = json.loads(to_records(fam, duals))

    def corrupt(mutate, match=None, error=ValueError):
        objs = [dict(r) for r in records]
        mutate(objs)
        with pytest.raises(error, match=match):
            from_records(records_from_json(objs), 5)

    # parents: 0 -> 5, 1 -> 6, 2 -> 5, 5 -> 6; 3, 4 and 6 are roots
    assert [r["parent"] for r in records] == [5, 6, 5, None, None, 6, None]
    corrupt(lambda objs: objs.pop(), "bad parent")  # drop the root set
    corrupt(lambda objs: objs[0].update(id=9), "dense from 0")
    # two entries for set 0 that differ only in their parents, 5 and None
    corrupt(lambda objs: objs[3].update(id=0, y=objs[0]["y"],
                                        saturated=objs[0]["saturated"]),
            "dense from 0")
    corrupt(lambda objs: objs[0].update(y="-1/2"), "negative dual")
    corrupt(lambda objs: objs[-1].update(parent=0), "bad parent")
    corrupt(lambda objs: objs[3].update(parent=4),  # singleton as parent
            "parent link inconsistent")
    corrupt(lambda objs: objs[0].update(parent=6),  # 5 keeps one child
            "exactly two children")
    corrupt(lambda objs: objs[3].update(parent=5),  # 5 gains a third
            "exactly two children")
    corrupt(lambda objs: objs[0].update(y=f"1/{2 ** MAX_SCALE_BITS}"),
            f"the duals' scale needs more than {MAX_SCALE_BITS} bits",
            ParseError)
    with pytest.raises(ValueError):
        from_records(records_from_json(records), 50)


@pytest.mark.parametrize("token, canonical", [
    ("2/4", "1/2"), ("0.5", "1/2"), ("5e-1", "1/2"), (" 1/2 ", "1/2"),
    (1, "1/1")])
def test_from_records_reads_every_token_form(token, canonical):
    """A dual token in any form parse_rational reads gives the same duals
    as the canonical "p/q" token."""
    fam, duals = build_random_family(5, 1)

    def reload(y):
        records = json.loads(to_records(fam, duals))
        records[0]["y"] = y
        return from_records(records_from_json(records), 5)[1]

    assert reload(token) == reload(canonical)


SPLIT_TOKENS = ["1/2", "0/1", "7/1", "01/2", "12345678901234567890/7",
                "9" * 4300 + "/1", "5", 3, 0]
PARSED_TOKENS = ["2/4", "0/5", "1/0", " 1/2", "1/2 ", "+1/2", "-1/2", "1e3",
                 "0.5", "1_0/3", "1//2", "/2", "1/", "", True, None, 1.5,
                 "\u0663/1", "\u00b2/1", "1/\u0663", "9" * 10_001]


def test_records_from_json_splits_only_canonical_tokens(monkeypatch):
    """A dual token that is an int, or a run of ASCII digits or two
    around a slash in lowest terms with q >= 1, is read without the
    reader's Fraction fallback (instance._fraction), to Fraction's
    value.  Every other token goes through the fallback once and gives
    its value or its message behind the entry's position, Arabic-Indic
    digits and superscripts that str.isdigit accepts among them.  A
    digit run past int()'s digit limit, also when that is set lower, is
    refused in the reader's words, split or not."""
    calls = []
    real = instance._fraction

    def counted(token):
        calls.append(token)
        return real(token)

    def read(token):
        calls.clear()
        entry = {"id": 0, "y": token, "saturated": False, "parent": None}
        try:
            return records_from_json([entry])[0][1:3]
        except ValueError as exc:
            return str(exc)

    def expected(token):
        try:
            return real(token).as_integer_ratio()
        except ValueError as exc:
            return f"laminar entry 0: {exc}"

    monkeypatch.setattr(instance, "_fraction", counted)
    for token in SPLIT_TOKENS:
        assert read(token) == Fraction(token).as_integer_ratio(), token
        assert calls == [], token
    for token in PARSED_TOKENS:
        assert read(token) == expected(token), token
        assert calls == [token], token
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert read("9" * 640 + "/1") == (10 ** 640 - 1, 1)
        for token in ("9" * 641 + "/1", "+" + "9" * 641 + "/1"):
            assert read(token) == ("laminar entry 0: integer '" + "9" * 39
                                   + "... (641 characters) has more than "
                                   "640 digits"), token
            assert calls == ([] if token[0] == "9" else [token])
    finally:
        sys.set_int_max_str_digits(limit)


def test_to_records_builds_no_fraction(monkeypatch):
    """The document's duals are written from the ints: no Fraction is
    built for any of the sets of an n = 1000 solve."""
    sol = solve(gen_random(1000, "1/250", max_cost=10, max_prize=8,
                           seed=99), check_invariants=False)
    built = []

    def counted(*args, real=Fraction.__new__, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    records = to_records(sol.fam, sol.duals)
    monkeypatch.undo()
    assert len(json.loads(records)) == len(sol.fam) > 1000
    assert built == []


def test_records_from_json_rejects_bad_shape():
    with pytest.raises(ValueError):
        records_from_json([42])
    with pytest.raises(ValueError):
        records_from_json([{"id": 0}])
