"""Naive verifier: feasibility, certificate, bounds, tree predicates,
and the solution audit, including injected-fault detection."""
from fractions import Fraction

import pytest

from pcst import (Instance, Tree, audit_solution, certificate,
                  check_feasibility, cluster_count_bound, gen_tight_star,
                  growth_inequality, make_tree, solve, tree_bound,
                  tree_predicates)
from conftest import rescan_step
from pcst import laminar as lam
from pcst import solver as sv
from pcst import verify


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
    duals = lam.DualAssignment(
        {0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(0),
         nid: Fraction(2)}, set())
    return fam, duals


# -- aggregates ----------------------------------------------------------------


def test_loads_on_hand_family():
    fam, duals = hand_family()
    assert verify.total_load(fam, duals) == Fraction(17, 6)
    assert verify.edge_dual_load(fam, duals, 0, 2) == Fraction(5, 2)
    assert verify.edge_dual_load(fam, duals, 0, 1) == Fraction(5, 6)
    assert verify.vertex_chain_load(fam, duals, 0) == Fraction(5, 2)
    assert verify.vertex_chain_load(fam, duals, 2) == 0
    assert verify.inside_load(fam, duals, frozenset({0, 1})) == \
        Fraction(17, 6)
    assert verify.inside_load(fam, duals, frozenset({0})) == Fraction(1, 2)
    assert verify.inside_load(fam, duals, frozenset()) == 0
    assert verify.tree_chain_load(fam, duals, frozenset({0, 1})) == 2


# -- feasibility ---------------------------------------------------------------


def test_feasibility_clean_on_solver_output(star):
    inst, sol = star
    assert check_feasibility(sol.fam, sol.duals, inst) == []


def test_feasibility_flags_edge_prize_and_sign():
    inst = Instance(2, ((0, 1, 1),), (2, "1/2"))
    fam = lam.LaminarFamily(2)
    # y0 = 3 breaks edge 0 and the prize budget of {0}
    duals = lam.DualAssignment({0: Fraction(3), 1: Fraction(-1)}, set())
    bad = check_feasibility(fam, duals, inst)
    kinds = {(v.kind, v.subject) for v in bad}
    assert ("negative-dual", 1) in kinds
    assert ("edge", 0) in kinds
    assert ("set", 0) in kinds
    edge_violation = next(v for v in bad if v.kind == "edge")
    assert edge_violation.slack == -1  # 1 - (3 + (-1)) = -1


# -- certificate ---------------------------------------------------------------


def test_certificate_star_values(star):
    inst, sol = star
    cert = certificate(sol.fam, sol.duals, inst)
    assert cert.dual_total == 3
    assert cert.chain_loads == (1, 1, 1)
    assert cert.lower_bound == 2
    assert cert.minimizing_vertex == 0  # smallest index wins the tie


def test_certificate_prune_values(pruned):
    inst, sol = pruned
    cert = certificate(sol.fam, sol.duals, inst)
    assert cert.dual_total == Fraction(17, 4)
    assert cert.chain_loads == (2, 2, Fraction(3, 2))
    assert cert.lower_bound == Fraction(9, 4)
    assert cert.minimizing_vertex == 0


def test_certificate_refuses_infeasible_only_with_instance():
    inst = Instance(2, ((0, 1, 1),), (5, 5))
    fam = lam.LaminarFamily(2)
    duals = lam.DualAssignment({0: Fraction(7), 1: Fraction(0)}, set())
    cert = certificate(fam, duals)  # no instance: arithmetic only
    assert cert.dual_total == 7
    with pytest.raises(ValueError):
        certificate(fam, duals, inst)


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
    duals = lam.DualAssignment(dict(sol.duals.y), set(sol.duals.saturated))
    duals.y[0] += 5
    with pytest.raises(ValueError):
        tree_bound(sol.fam, duals, inst, Tree(frozenset({0}), ()))


@pytest.mark.parametrize("vertices, edges", [
    ((1, 2), ((1, 2),)),     # not an instance edge
    ((0, 1, 2), ((0, 1),)),  # disconnected
    ((0,), ((0, 1),)),       # edge leaves the vertex set
    ((0, 5), ()),            # vertex out of range
    ((), ()),                # empty
])
def test_tree_validation_rejects(star, vertices, edges):
    inst, sol = star
    with pytest.raises(ValueError):
        tree_bound(sol.fam, sol.duals, inst,
                   make_tree(vertices, edges))


def test_tree_validation_rejects_repeated_edge(star):
    inst, sol = star
    with pytest.raises(ValueError):
        verify.validate_connected_subgraph(
            inst, make_tree((0, 1), ((0, 1), (1, 0))))


def test_cycle_allowed_unless_tree_required():
    inst = Instance(3, ((0, 1, 1), (1, 2, 1), (0, 2, 1)), (1, 1, 1))
    cyc = make_tree((0, 1, 2), ((0, 1), (1, 2), (0, 2)))
    assert verify.validate_connected_subgraph(inst, cyc) == 3
    with pytest.raises(ValueError):
        verify.validate_connected_subgraph(inst, cyc, require_tree=True)


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
    # pre-prune tree: saturated singleton {2} is crossed once
    full = make_tree((0, 1, 2), ((0, 1), (1, 2)))
    preds = tree_predicates(fam, sat, full)
    assert preds.family_connected
    assert preds.bridges == (2,)
    assert preds.wrapped is None
    # post-prune tree is clean
    preds = tree_predicates(fam, sat, sol.tree())
    assert preds == (True, (), None)


def test_tree_predicates_flag_wrapped():
    fam = lam.LaminarFamily(2)
    nid = fam.merge(0, 1)
    sat = {nid}
    preds = tree_predicates(fam, sat, make_tree((0, 1), ((0, 1),)))
    assert preds.wrapped == nid


def test_tree_predicates_flag_disconnection():
    fam = lam.LaminarFamily(3)
    fam.merge(0, 2)
    # tree touches {0,2} in two pieces linked only through vertex 1
    tree = make_tree((0, 1, 2), ((0, 1), (1, 2)))
    preds = tree_predicates(fam, set(), tree)
    assert not preds.family_connected


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
    with pytest.raises(ValueError):  # not a tree (cycle/extra edge)
        cluster_count_bound(fam, sat, make_tree((0, 1), ()))
    with pytest.raises(ValueError):  # bridge into saturated singleton {2}
        cluster_count_bound(fam, sat, make_tree((0, 1, 2),
                                                ((0, 1), (1, 2))))


def test_cluster_count_bound_refuses_wrapped_tree():
    fam = lam.LaminarFamily(2)
    nid = fam.merge(0, 1)
    with pytest.raises(ValueError):
        cluster_count_bound(fam, {nid}, make_tree((0, 1), ((0, 1),)))


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


def test_audit_all_pass_on_solver_output(pruned):
    inst, sol = pruned
    results = audit_solution(inst, sol.fam, sol.duals, sol.tree(),
                             reported_of(sol))
    assert [r.name for r in results] == AUDIT_NAMES
    assert all(r.passed for r in results), \
        [(r.name, r.detail) for r in results if not r.passed]


def failing_names(results):
    return {r.name for r in results if not r.passed}


def test_audit_flags_corrupted_dual(pruned):
    inst, sol = pruned
    duals = lam.DualAssignment(dict(sol.duals.y), set(sol.duals.saturated))
    duals.y[0] += 1
    bad = failing_names(audit_solution(inst, sol.fam, duals, sol.tree(),
                                       reported_of(sol)))
    assert "dual-feasibility" in bad


def test_audit_flags_wrong_arithmetic(pruned):
    inst, sol = pruned
    reported = reported_of(sol)
    reported["cost"] += 1
    bad = failing_names(audit_solution(inst, sol.fam, sol.duals, sol.tree(),
                                       reported))
    assert "objective-arithmetic" in bad


def test_audit_flags_wrong_lower_bound(pruned):
    inst, sol = pruned
    reported = reported_of(sol)
    reported["lower_bound"] += Fraction(1, 7)
    bad = failing_names(audit_solution(inst, sol.fam, sol.duals, sol.tree(),
                                       reported))
    assert "certificate-lower-bound" in bad


def test_audit_flags_broken_tree(pruned):
    inst, sol = pruned
    tree = Tree(frozenset({0, 1}), ())  # dropped the only tree edge
    bad = failing_names(audit_solution(inst, sol.fam, sol.duals, tree,
                                       reported_of(sol)))
    assert "tree-structure" in bad


def test_audit_flags_family_instance_mismatch(pruned):
    inst, sol = pruned
    other = Instance(4, ((0, 1, 4), (1, 2, 1)), (10, 10, "1/4", 5))
    bad = failing_names(audit_solution(other, sol.fam, sol.duals,
                                       sol.tree(), reported_of(sol)))
    assert "laminar-structure" in bad


def test_audit_results_serialize(pruned):
    inst, sol = pruned
    results = audit_solution(inst, sol.fam, sol.duals, sol.tree(),
                             reported_of(sol))
    growth = next(r for r in results if r.name == "growth-bound")
    obj = growth.to_json_obj()
    assert obj["pass"] is True
    assert obj["lhs"] == "9/2"
    assert obj["rhs"] == "9/2"
