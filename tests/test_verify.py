"""Verifier: feasibility, certificate, bounds, tree predicates, and the
solution audit, including injected-fault detection.  Fault-injection
tests run against both the package checker and the naive reference
checker in naive_checker.py, and agreement tests compare the two."""
import ast
import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_checker as naive
from pcst import (Instance, Tree, audit_solution, certificate,
                  check_feasibility, cluster_count_bound, gen_random,
                  gen_tight_path, gen_tight_star, growth_inequality, make_tree, solve,
                  tree_bound, tree_predicates)
from conftest import rescan_step, sweep_instance
from pcst import laminar as lam
from pcst import solver as sv
from pcst import verify

# the package checker and the reference checker, as module-like objects
CHECKERS = (verify, naive)


PRUNE_INST = Instance(3, ((0, 1, 4), (1, 2, 1)), (10, 10, "1/4"))


@pytest.fixture
def star():
    inst = gen_tight_star(1)
    return inst, solve(inst)


@pytest.fixture
def pruned():
    return PRUNE_INST, solve(PRUNE_INST)


def hand_family():
    """n=3, sets {0},{1},{2},{0,1}; y = 1/2, 1/3, 0, 2."""
    fam = lam.LaminarFamily(3)
    nid = fam.merge(0, 1)
    assert nid == 3
    return fam, naive.duals_from([Fraction(1, 2), Fraction(1, 3), 0, 2])


# -- aggregates ----------------------------------------------------------------


def test_loads_on_hand_family():
    fam, duals = hand_family()
    assert naive.total_load(fam, duals) == Fraction(17, 6)
    assert naive.edge_dual_load(fam, duals, 0, 2) == Fraction(5, 2)
    assert naive.edge_dual_load(fam, duals, 0, 1) == Fraction(5, 6)
    assert naive.vertex_chain_load(fam, duals, 0) == Fraction(5, 2)
    assert naive.vertex_chain_load(fam, duals, 2) == 0
    assert naive.inside_load(fam, duals, frozenset({0, 1})) == \
        Fraction(17, 6)
    assert naive.inside_load(fam, duals, frozenset({0})) == Fraction(1, 2)
    assert naive.inside_load(fam, duals, frozenset()) == 0
    assert naive.tree_chain_load(fam, duals, frozenset({0, 1})) == 2
    # the same numbers off the parent-link index, over the lcm of the
    # duals' scale 6 and the instance's scale: 2, a divisor of 6, or 8,
    # where neither scale divides the other
    assert duals.scale == 6
    for cost, scale in ((1, 6), ("1/4", 24)):
        inst = Instance(3, ((0, 2, 5), (0, 1, cost)), (1, 1, 1))
        index = verify.DualIndex(fam, duals, inst)
        assert index.scale == scale
        assert [index.value(c - slack) for c, slack in
                zip(index.costs, index.edge_slack)] == \
            [Fraction(5, 2), Fraction(5, 6)]
        assert [index.value(x) for x in index.chain] == \
            [Fraction(5, 2), Fraction(7, 3), 0, 2]
        assert [index.value(x) for x in index.inside] == \
            [Fraction(1, 2), Fraction(1, 3), 0, Fraction(17, 6)]
        assert index.value(index.total) == Fraction(17, 6)
        assert index.prizes == [scale, scale, scale, 2 * scale]
        assert index.violations == \
            naive.check_feasibility(fam, duals, inst) == \
            [verify.Violation("edge", 1, Fraction(-7, 12))] * (cost != 1) \
            + [verify.Violation("set", 3, Fraction(-5, 6))]


def merge_at_random(fam, rng, count):
    for _ in range(count):
        tops = fam.maximal_ids()
        if len(tops) < 2:
            return
        fam.merge(*rng.sample(tops, 2))


DUAL_INDEX_FIELDS = ("scale", "y", "chain", "total", "inside", "costs",
                     "prizes", "edge_slack", "violations")


def test_dual_index_extend_refuses_a_family_grown_past_its_index():
    """When the family has grown past the sets its family index has
    taken, extend returns False and changes nothing, whether it is given
    zeros for the whole family or for the sets taken; once the family
    index has taken them, it extends."""
    inst = gen_random(6, "1/2", max_cost=6, max_prize=6, seed=3)
    fam = lam.LaminarFamily(6)
    fam.merge(0, 1)
    family = verify.FamilyIndex(fam, inst)
    y = [inst.scale * k for k in (1, 0, 2, 0, 1, 0, 0)]
    index = verify.DualIndex(fam, lam.DualAssignment(y, inst.scale, set()),
                             inst, family)
    before = {name: copy.copy(getattr(index, name))
              for name in DUAL_INDEX_FIELDS}
    fam.merge(2, 3)
    fam.merge(4, 6)
    for length in (len(fam), family.taken):
        grown = y + [0] * (length - len(y))
        assert not index.extend(lam.DualAssignment(grown, inst.scale, set()))
        assert {name: getattr(index, name)
                for name in DUAL_INDEX_FIELDS} == before
    family.extend()
    grown = y + [0] * (len(fam) - len(y))
    assert index.extend(lam.DualAssignment(grown, inst.scale, set()))
    assert index.y == grown


def test_dual_index_extend_equals_a_fresh_build():
    """Seeded sweep over random families and duals, feasible or not, at
    the instance's scale, at other scales and without an instance: after
    unions with no dual, extend takes them and the index equals a fresh
    build in every number.  A held dual changed, a new set's dual not 0
    or duals at another scale than the index's make extend refuse and
    change nothing.  So does an index built without an instance, or at
    a scale other than its family index's, even given the duals it
    holds and zeros for the new sets."""
    rng = random.Random(26)
    new_set_violations = 0
    refused_indexes = {"no instance": 0, "other scale": 0}
    for seed in range(600):
        n = rng.randint(2, 9)
        inst = gen_random(n, "1/2", max_cost=6, max_prize=6, seed=seed)
        fam = lam.LaminarFamily(n)
        merge_at_random(fam, rng, rng.randint(0, n - 1))
        scale = rng.choice((inst.scale, 3 * inst.scale, 5))
        y = [rng.randint(-1, 3 * scale) for _ in fam.ids]
        given = rng.choice((inst, None))
        family = verify.FamilyIndex(fam, given)
        index = verify.DualIndex(fam, lam.DualAssignment(y, scale, set()),
                                 given, family)
        held = len(y)
        merge_at_random(fam, rng, rng.randint(1, n - 1))
        family.extend()
        y += [0] * (len(fam) - held)
        before = {name: getattr(index, name, None)
                  for name in DUAL_INDEX_FIELDS}
        before = {name: value[:] if isinstance(value, list) else value
                  for name, value in before.items()}
        refused = [[*y[:-1], y[-1] + 1], [*y[:-1], y[-1] - 1],
                   [y[0] + 1, *y[1:]]]
        for other in refused:
            assert not index.extend(lam.DualAssignment(other, scale, set()))
        assert not index.extend(lam.DualAssignment([3 * q for q in y],
                                                   3 * scale, set()))
        if scale != index.scale:  # the instance's scale is no divisor
            assert not index.extend(lam.DualAssignment(y, scale, set()))
        unit = index.scale // scale
        duals = lam.DualAssignment([unit * q for q in y], index.scale, set())
        kind = "no instance" if given is None else \
            "other scale" if index.scale != family.scale else None
        if kind:
            refused_indexes[kind] += 1
            assert not index.extend(duals)
        assert {name: getattr(index, name, None)
                for name in DUAL_INDEX_FIELDS} == before
        if kind:
            continue
        assert index.extend(duals)
        fresh = verify.DualIndex(fam, lam.DualAssignment(y, scale, set()),
                                 given)
        for name in DUAL_INDEX_FIELDS:
            assert getattr(index, name, None) == getattr(fresh, name, None), \
                (seed, name)
        new_set_violations += any(v.kind == "set" and v.subject >= held
                                  for v in fresh.violations)
    assert new_set_violations > 15, new_set_violations
    assert min(refused_indexes.values()) > 100, refused_indexes


# -- feasibility ---------------------------------------------------------------


def test_feasibility_clean_on_solver_output(star):
    inst, sol = star
    assert check_feasibility(sol.fam, sol.duals, inst) == []


def test_feasibility_flags_edge_prize_and_sign():
    inst = Instance(2, ((0, 1, 1),), (2, "1/2"))
    fam = lam.LaminarFamily(2)
    # y0 = 3 breaks edge 0 and the prize budget of {0}
    duals = naive.duals_from([3, -1])
    bad = check_feasibility(fam, duals, inst)
    kinds = {(v.kind, v.subject) for v in bad}
    assert ("negative-dual", 1) in kinds
    assert ("edge", 0) in kinds
    assert ("set", 0) in kinds
    edge_violation = next(v for v in bad if v.kind == "edge")
    assert edge_violation.slack == -1  # 1 - (3 + (-1)) = -1
    assert naive.check_feasibility(fam, duals, inst) == bad


# -- certificate ---------------------------------------------------------------


def vertex_chains(fam, duals):
    """Per vertex, its chain load read off a DualIndex."""
    index = verify.DualIndex(fam, duals)
    return [index.value(load) for load in index.chain[:fam.n]]


def test_certificate_star_values(star):
    inst, sol = star
    assert check_feasibility(sol.fam, sol.duals, inst) == []
    index = verify.DualIndex(sol.fam, sol.duals)
    assert index.value(index.total) == 3
    assert vertex_chains(sol.fam, sol.duals) == [1, 1, 1]
    cert = certificate(sol.fam, sol.duals)
    assert cert.lower_bound == 2
    assert cert.minimizing_vertex == 0  # smallest index wins the tie


def test_certificate_prune_values(pruned):
    inst, sol = pruned
    assert check_feasibility(sol.fam, sol.duals, inst) == []
    index = verify.DualIndex(sol.fam, sol.duals)
    assert index.value(index.total) == Fraction(17, 4)
    assert vertex_chains(sol.fam, sol.duals) == [2, 2, Fraction(3, 2)]
    cert = certificate(sol.fam, sol.duals)
    assert cert.lower_bound == Fraction(9, 4)
    assert cert.minimizing_vertex == 0


@pytest.mark.parametrize("seed", range(1, 101))
def test_certificate_chain_loads_match_membership_loop(seed):
    sol = solve(sweep_instance(seed), check_invariants=False)
    assert vertex_chains(sol.fam, sol.duals) == [
        naive.vertex_chain_load(sol.fam, sol.duals, v)
        for v in range(sol.fam.n)]
    assert certificate(sol.fam, sol.duals) \
        == naive.certificate(sol.fam, sol.duals)


def test_certificate_refuses_infeasible_only_with_instance():
    """certificate is arithmetic only; check_feasibility, which needs
    the instance, is what refuses infeasible duals."""
    inst = Instance(2, ((0, 1, 1),), (5, 5))
    fam = lam.LaminarFamily(2)
    duals = naive.duals_from([7, 0])
    assert certificate(fam, duals).lower_bound == 0
    assert verify.DualIndex(fam, duals).total == 7
    assert [(v.kind, v.subject) for v in check_feasibility(fam, duals, inst)
            ] == [("edge", 0), ("set", 0)]


# -- tree bound ----------------------------------------------------------------


def test_tree_bound_star_cases(star):
    inst, sol = star
    fam, duals = sol.fam, sol.duals
    lhs, rhs = tree_bound(fam, duals, inst, Tree(frozenset({0}), ()))
    assert (lhs, rhs) == (2, 3)
    lhs, rhs = tree_bound(fam, duals, inst, sol.tree())
    assert (lhs, rhs) == (3, 4)
    lhs, rhs = tree_bound(fam, duals, inst,
                          Tree(frozenset({0, 1}), ((0, 1),)))
    assert lhs <= rhs


def test_tree_bound_refuses_infeasible_duals(star):
    inst, sol = star
    duals = lam.DualAssignment(sol.duals.y[:], sol.duals.scale,
                               set(sol.duals.saturated))
    duals.y[0] += 5 * duals.scale
    for checker in CHECKERS:
        with pytest.raises(ValueError, match="infeasible"):
            checker.tree_bound(sol.fam, duals, inst, Tree(frozenset({0}), ()))


def tree_outcomes(inst, sol, tree):
    """tree_bound's outcome and the audit's tree-structure result, after
    checking that both checkers give the same."""
    bound = outcome(tree_bound, sol.fam, sol.duals, inst, tree)
    assert bound == outcome(naive.tree_bound, sol.fam, sol.duals, inst, tree)
    results = audits(inst, sol.fam, sol.duals, tree, reported_of(sol))
    structure = next(r for r in results if r.name == "tree-structure")
    return bound, structure


# (vertices, edges) -> the message both checkers give
TREE_ERRORS = {
    ((1, 2), ((1, 2),)): "tree edge (1, 2) is not an instance edge",
    ((0, 1, 2), ((0, 1),)): "tree is not connected",
    ((0,), ((0, 1),)): "tree edge (0, 1) leaves the vertex set",
    ((0, 5), ()): "tree vertex 5 out of range",
    ((), ()): "a tree needs at least one vertex",
    # the first failure wins: range, then edges in order, then connectivity
    ((0, 1, 7), ((1, 2),)): "tree vertex 7 out of range",
    ((0, 1), ((0, 1), (1, 2), (0, 1))):
        "tree edge (1, 2) is not an instance edge",
    ((0, 2), ((0, 1), (0, 2))): "tree edge (0, 1) leaves the vertex set",
}


@pytest.mark.parametrize("vertices, edges", list(TREE_ERRORS))
def test_tree_validation_rejects(star, vertices, edges):
    inst, sol = star
    message = TREE_ERRORS[vertices, edges]
    bound, structure = tree_outcomes(inst, sol, make_tree(vertices, edges))
    assert bound == (ValueError, message)
    assert not structure.passed and structure.detail == message


@pytest.mark.parametrize("vertices, edges", [
    ((0, True), ()),
    ((0, 1.0), ()),
    ([1, True], ()),  # a set would merge true with 1
    ((0, 1), ((0, Fraction(1)),)),
])
def test_make_tree_takes_only_int_vertices(vertices, edges):
    with pytest.raises(ValueError, match="^tree vertices and edge ends "
                                         "must be integers$"):
        make_tree(vertices, edges)


def test_tree_index_names_a_non_int_vertex_out_of_range(star):
    inst, sol = star
    tree = Tree(frozenset({0, 1.0}), ())
    assert verify.TreeIndex(sol.fam, tree, inst).error == \
        "tree vertex 1.0 out of range"


def test_tree_validation_rejects_repeated_edge(star):
    inst, sol = star
    message = "tree edge (1, 0) repeated"
    bound, structure = tree_outcomes(
        inst, sol, make_tree((0, 1), ((0, 1), (1, 0))))
    assert bound == (ValueError, message)
    assert not structure.passed and structure.detail == message


def test_cycle_allowed_unless_tree_required():
    inst = Instance(3, ((0, 1, 1), (1, 2, 1), (0, 2, 1)), (1, 1, 1))
    sol = solve(inst)
    cyc = make_tree((0, 1, 2), ((0, 1), (1, 2), (0, 2)))
    (lhs, rhs), structure = tree_outcomes(inst, sol, cyc)
    assert rhs == 3 and lhs <= rhs  # cost 3, nothing forfeited
    assert not structure.passed
    assert structure.detail == "subgraph has a cycle, not a tree"


# -- output-side growth bound ----------------------------------------------------


def test_growth_inequality_prune_values(pruned):
    inst, sol = pruned
    tree = sol.tree()
    for o, expected_rhs in [(0, Fraction(9, 2)), (1, Fraction(9, 2)),
                            (2, Fraction(11, 2))]:
        lhs, rhs = growth_inequality(sol.fam, sol.duals, tree, o)
        assert lhs == Fraction(9, 2)
        assert rhs == expected_rhs
        assert lhs <= rhs


def test_growth_inequality_rejects_bad_vertex(pruned):
    inst, sol = pruned
    with pytest.raises(ValueError):
        growth_inequality(sol.fam, sol.duals, sol.tree(), 3)


# -- tree predicates and cluster counting ----------------------------------------


def test_tree_predicates_flag_bridge(pruned):
    inst, sol = pruned
    fam, sat = sol.fam, sol.duals.saturated
    for checker in CHECKERS:
        # pre-prune tree: saturated singleton {2} is crossed once
        full = make_tree((0, 1, 2), ((0, 1), (1, 2)))
        preds = checker.tree_predicates(fam, sat, full)
        assert preds.family_connected
        assert preds.bridges == (2,)
        assert preds.wrapped is None
        # post-prune tree is clean
        preds = checker.tree_predicates(fam, sat, sol.tree())
        assert preds == (True, (), None)


def test_tree_predicates_flag_wrapped():
    fam = lam.LaminarFamily(2)
    nid = fam.merge(0, 1)
    sat = {nid}
    for checker in CHECKERS:
        preds = checker.tree_predicates(fam, sat,
                                        make_tree((0, 1), ((0, 1),)))
        assert preds.wrapped == nid
        # vertex 2 lies outside the family, so no set holds the tree
        preds = checker.tree_predicates(
            fam, sat, make_tree((0, 1, 2), ((0, 1), (1, 2))))
        assert preds.wrapped is None


def test_tree_predicates_flag_disconnection():
    fam = lam.LaminarFamily(3)
    fam.merge(0, 2)
    # tree touches {0,2} in two pieces linked only through vertex 1
    tree = make_tree((0, 1, 2), ((0, 1), (1, 2)))
    for checker in CHECKERS:
        preds = checker.tree_predicates(fam, set(), tree)
        assert not preds.family_connected
    assert verify.TreeIndex(fam, tree).disconnected_set() == 3
    assert naive.disconnected_family_set(fam, tree) == 3


def test_cluster_count_bound_two_active_sets():
    inst = PRUNE_INST
    state = sv.init_state(inst)
    rescan_step(state)  # {2} saturates
    rescan_step(state)  # {1} merges with {2}
    fam, sat = state.fam, state.saturated
    tree = make_tree((0, 1), ((0, 1),))
    lhs, rhs = cluster_count_bound(fam, sat, tree)
    assert (lhs, rhs) == (1, 1)


def test_cluster_count_bound_single_active_set(pruned):
    inst, sol = pruned
    lhs, rhs = cluster_count_bound(sol.fam, sol.duals.saturated, sol.tree())
    assert (lhs, rhs) == (0, 0)


def test_cluster_count_bound_refuses_broken_hypotheses(pruned):
    inst, sol = pruned
    fam, sat = sol.fam, sol.duals.saturated
    for checker in CHECKERS:
        with pytest.raises(ValueError, match="not a tree"):
            checker.cluster_count_bound(fam, sat, make_tree((0, 1), ()))
        with pytest.raises(ValueError, match="saturated set 2"):
            # bridge into saturated singleton {2}
            checker.cluster_count_bound(
                fam, sat, make_tree((0, 1, 2), ((0, 1), (1, 2))))


def test_cluster_count_bound_refuses_wrapped_tree():
    fam = lam.LaminarFamily(2)
    nid = fam.merge(0, 1)
    for checker in CHECKERS:
        with pytest.raises(ValueError, match="contained in saturated"):
            checker.cluster_count_bound(fam, {nid},
                                        make_tree((0, 1), ((0, 1),)))


# -- audit ----------------------------------------------------------------------


def reported_of(sol):
    return {
        "cost": sol.cost,
        "penalty": sol.penalty,
        "objective": sol.objective,
        "lagrangean_objective": sol.lagrangean_objective,
        "lower_bound": sol.lower_bound,
        "minimizing_vertex": sol.minimizing_vertex,
    }


AUDIT_NAMES = ["laminar-structure", "dual-feasibility", "tree-structure",
               "objective-arithmetic", "certificate-lower-bound",
               "tree-lower-bound", "growth-bound", "tree-predicates",
               "cluster-counting"]


def failing_names(results):
    return {r.name for r in results if not r.passed}


def audits(inst, fam, duals, tree, reported):
    """The package audit, after checking that the reference checker's
    audit serializes identically."""
    got = audit_solution(inst, fam, duals, tree, reported)
    assert [r.to_json_obj() for r in got] == [
        r.to_json_obj()
        for r in naive.audit_solution(inst, fam, duals, tree, reported)]
    return got


def test_audit_all_pass_on_solver_output(pruned):
    inst, sol = pruned
    results = audits(inst, sol.fam, sol.duals, sol.tree(), reported_of(sol))
    assert [r.name for r in results] == AUDIT_NAMES
    assert all(r.passed for r in results), \
        [(r.name, r.detail) for r in results if not r.passed]


def test_audit_flags_corrupted_dual(pruned):
    inst, sol = pruned
    duals = lam.DualAssignment(sol.duals.y[:], sol.duals.scale,
                               set(sol.duals.saturated))
    duals.y[0] += duals.scale
    bad = failing_names(audits(inst, sol.fam, duals, sol.tree(),
                               reported_of(sol)))
    assert "dual-feasibility" in bad


def test_audit_flags_wrong_arithmetic(pruned):
    inst, sol = pruned
    reported = reported_of(sol)
    reported["cost"] += 1
    bad = failing_names(audits(inst, sol.fam, sol.duals, sol.tree(),
                               reported))
    assert "objective-arithmetic" in bad


def test_audit_flags_wrong_lower_bound(pruned):
    inst, sol = pruned
    reported = reported_of(sol)
    reported["lower_bound"] += Fraction(1, 7)
    bad = failing_names(audits(inst, sol.fam, sol.duals, sol.tree(),
                               reported))
    assert "certificate-lower-bound" in bad


@pytest.mark.parametrize("vertex", [1, 2, 99999])
def test_audit_flags_wrong_minimizing_vertex(pruned, vertex):
    inst, sol = pruned
    reported = reported_of(sol)
    reported["minimizing_vertex"] = vertex
    results = audits(inst, sol.fam, sol.duals, sol.tree(), reported)
    assert failing_names(results) == {"certificate-lower-bound"}
    assert results[4].detail == \
        f"recomputed minimizing vertex 0 vs reported {vertex}"


def test_audit_flags_broken_tree(pruned):
    inst, sol = pruned
    tree = Tree(frozenset({0, 1}), ())  # dropped the only tree edge
    bad = failing_names(audits(inst, sol.fam, sol.duals, tree,
                               reported_of(sol)))
    assert "tree-structure" in bad


def test_audit_flags_family_instance_mismatch(pruned):
    """A 3-vertex family against instances whose edges end at vertices
    past it: the family index maps such an end, the larger one of edge
    (2, 3) and the smaller one of edge (3, 4) too, to no set, so edge 2
    carries only vertex 2's chain load and edge 3 none."""
    inst, sol = pruned
    edges = ((0, 1, 4), (1, 2, 1), (2, 3, 1))
    for other in (Instance(4, edges, (10, 10, "1/4", 5)),
                  Instance(5, edges + ((3, 4, 1),), (10, 10, "1/4", 5, 5))):
        results = audits(other, sol.fam, sol.duals, sol.tree(),
                         reported_of(sol))
        failed = {r.name: r.detail for r in results if not r.passed}
        assert failed["laminar-structure"] == \
            f"snapshot covers 3 vertices, instance has {other.n}"
        assert failed["dual-feasibility"] == \
            "1 violated constraint(s); first: edge 2: slack -1/2"


def test_audit_fails_on_instance_smaller_than_family():
    """Every check that sums duals over the instance fails, naming both
    vertex counts, instead of reading past the instance's prizes."""
    inst = gen_tight_path(3, "1/2")
    sol = solve(inst)
    small = Instance(2, ((0, 1, 1),), (1, 1))
    with pytest.raises(ValueError, match="snapshot covers 4 vertices, "
                                         "instance has 2"):
        verify.DualIndex(sol.fam, sol.duals, small)
    results = audit_solution(small, sol.fam, sol.duals, sol.tree(),
                             reported_of(sol))
    assert [r.name for r in results] == AUDIT_NAMES
    failed = {r.name: r.detail for r in results if not r.passed}
    for name in ("dual-feasibility", "certificate-lower-bound",
                 "tree-lower-bound", "growth-bound"):
        assert failed[name] == "snapshot covers 4 vertices, instance has 2"
    assert "laminar-structure" in failed


def test_audit_results_serialize(pruned):
    inst, sol = pruned
    results = audit_solution(inst, sol.fam, sol.duals, sol.tree(),
                             reported_of(sol))
    growth = next(r for r in results if r.name == "growth-bound")
    obj = growth.to_json_obj()
    assert obj["pass"] is True
    assert obj["lhs"] == "9/2"
    assert obj["rhs"] == "9/2"


@pytest.mark.parametrize("broken", [False, True])
def test_audit_validates_the_tree_once(pruned, monkeypatch, broken):
    """One tree index validates the tree, and one family index answers
    the instance's edges and the tree's edges for every check."""
    inst, sol = pruned
    tree = Tree(frozenset({0, 1}), ()) if broken else sol.tree()
    built, families = [], []

    class CountingTreeIndex(verify.TreeIndex):
        def __init__(self, *args):
            built.append(args[:3])
            super().__init__(*args)

    class CountingFamilyIndex(verify.FamilyIndex):
        def __init__(self, *args):
            families.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(verify, "TreeIndex", CountingTreeIndex)
    monkeypatch.setattr(verify, "FamilyIndex", CountingFamilyIndex)
    results = audit_solution(inst, sol.fam, sol.duals, tree,
                             reported_of(sol))
    assert built == [(sol.fam, tree, inst)]
    assert families == [sol.fam]
    assert ({"tree-structure", "objective-arithmetic", "tree-lower-bound",
             "cluster-counting"} <= failing_names(results)) == broken


def test_tree_across_maximal_sets_is_connected():
    """Edges with no common set join the tree too: {0, 1} and {2} are
    both maximal, and the tree runs across them."""
    inst = Instance(3, ((0, 1, 1), (1, 2, 1)), (1, 1, 1))
    fam = lam.LaminarFamily(3)
    fam.merge(0, 1)
    tree = make_tree((0, 1, 2), ((0, 1), (1, 2)))
    index = verify.TreeIndex(fam, tree, inst)
    assert index.connected and index.error is None
    assert (index.cost, index.penalty) == (2, 0)
    assert reference_tree_check(inst, fam, tree) == (2, 0)
    assert not verify.TreeIndex(fam, make_tree((0, 1, 2), ((0, 1),)),
                                inst).connected
    # vertices 3 and 4 lie outside the family, and each needs a slot of
    # its own: the path 0-1-2-4-3 is connected only through both
    fam = lam.LaminarFamily(3)
    tree = make_tree(range(5), ((0, 1), (1, 2), (2, 4), (3, 4)))
    assert verify.TreeIndex(fam, tree).connected
    assert cluster_count_bound(fam, set(), tree) == (Fraction(5, 2), 2) \
        == naive.cluster_count_bound(fam, set(), tree)


# -- agreement with the reference checker ----------------------------------------


def test_audit_agrees_with_naive_checker_on_sweep(sweep):
    for run in sweep.runs:
        inst, sol = run.inst, run.sol
        audits(inst, sol.fam, sol.duals, sol.tree(), reported_of(sol))
        assert check_feasibility(sol.fam, sol.duals, inst) == \
            naive.check_feasibility(sol.fam, sol.duals, inst) == []


def outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def package_tree_check(inst, fam, tree):
    index = verify.TreeIndex(fam, tree, inst)
    index.check(require_tree=True)
    return index.cost, index.penalty


def reference_tree_check(inst, fam, tree):
    return (naive.validate_connected_subgraph(inst, tree, require_tree=True),
            naive.tree_penalty(inst, tree))


@given(seed=st.integers(0, 10_000), n=st.integers(1, 12), data=st.data())
@settings(max_examples=200)
def test_checkers_agree_on_perturbed_solutions(seed, n, data):
    """Nudged duals, flipped saturation flags and an edited tree: the
    audits serialize identically (the tree-structure and
    objective-arithmetic checks among them), and the tree check,
    tree_bound, cluster_count_bound and the growth bound give the same
    results or the same errors."""
    inst = gen_random(n, "1/2", max_cost=6, max_prize=6, seed=seed)
    sol = solve(inst, check_invariants=False)
    fam = sol.fam
    set_ids = st.sampled_from(list(fam.ids))
    y = [naive.dual(sol.duals, sid) for sid in fam.ids]
    for sid in data.draw(st.lists(set_ids, max_size=3)):
        y[sid] += data.draw(st.fractions(-2, 2, max_denominator=6))
    flipped = set(data.draw(st.lists(set_ids, max_size=3)))
    duals = naive.duals_from(y, set(sol.duals.saturated) ^ flipped)
    edges = list(sol.tree_edges)
    if edges and data.draw(st.booleans()):
        edges.pop(data.draw(st.integers(0, len(edges) - 1)))
    if inst.edges:
        edges += [inst.edges[k][:2] for k in data.draw(
            st.lists(st.integers(0, inst.m - 1), max_size=3))]
    vertex = st.integers(0, n)  # n is no vertex
    junk = data.draw(st.booleans())
    if junk:  # any pair of vertex numbers
        edges.append(data.draw(st.tuples(vertex, vertex)))
    vertices = set(sol.tree_vertices) | {v for e in edges for v in e}
    vertices |= set(data.draw(st.lists(vertex, max_size=2)))
    if junk:
        vertices.discard(data.draw(vertex))
    tree = make_tree(vertices, edges)
    audits(inst, fam, duals, tree, reported_of(sol))
    for package, reference, args in [
            (package_tree_check, reference_tree_check, (inst, fam, tree)),
            (tree_bound, naive.tree_bound, (fam, duals, inst, tree)),
            (cluster_count_bound, naive.cluster_count_bound,
             (fam, duals.saturated, tree)),
            (tree_predicates, naive.tree_predicates,
             (fam, duals.saturated, tree)),
            (growth_inequality, naive.growth_inequality,
             (fam, duals, tree, data.draw(st.integers(0, n))))]:
        assert outcome(package, *args) == outcome(reference, *args)


def test_audit_passes_at_n_1000():
    """The audit of the solver's own output passes at n = 1000, where
    the reference checker is no longer usable, on the family reloaded
    from its document records as ``pcst verify`` does."""
    inst = gen_random(1000, "1/250", max_cost=10, max_prize=8, seed=99)
    sol = solve(inst, check_invariants=False)
    document = json.loads(lam.to_records(sol.fam, sol.duals))
    fam, duals = lam.from_records(lam.records_from_json(document), inst.n)
    assert duals == sol.duals
    results = audit_solution(inst, fam, duals, sol.tree(), reported_of(sol))
    assert [r.name for r in results] == AUDIT_NAMES
    assert all(r.passed for r in results), \
        [(r.name, r.detail) for r in results if not r.passed]


def imported_modules(path):
    """Every module a source file imports, relative imports resolved
    against the pcst package."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("pcst" if node.level else "",
                                          node.module)))
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


@pytest.mark.parametrize("module", ["laminar", "verify", "instance"])
def test_checker_modules_do_not_import_the_solver(module):
    """The verifier and what it reads share none of the solver's code."""
    package = Path(verify.__file__).parent
    assert "pcst.solver" in imported_modules(package / "cli.py")
    assert "pcst.solver" not in imported_modules(package / f"{module}.py")
