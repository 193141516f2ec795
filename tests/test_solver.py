"""Two-phase solver: frozen small traces, engine cross-checks, edge
cases, determinism, and checker fault injection."""
from fractions import Fraction

import pytest

from conftest import (naive_epsilon, rescan_step, solve_by_rescan,
                      sweep_instance)
from pcst import (Instance, gen_random, gen_tight_path, gen_tight_star,
                  solve)
from pcst import solver as sv


def events_of(trace, *kinds):
    kinds = kinds or ("saturation", "merge")
    return [ev for ev in trace if ev.kind in kinds]


# -- frozen examples -----------------------------------------------------------


def test_star_trace_and_duals():
    sol = solve(gen_tight_star(1))
    assert [(ev.kind, ev.epsilon, ev.time, ev.edge_index)
            for ev in events_of(sol.trace)] == [
        ("merge", 1, 1, 0),
        ("merge", 0, 1, 1),
    ]
    assert sol.trace[0].new_set_id == 3
    assert sol.trace[1].new_set_id == 4
    assert sol.cost == 4 and sol.penalty == 0
    assert sol.objective == 4
    assert sol.lower_bound == 2
    assert sol.minimizing_vertex == 0
    assert {sid: sol.duals.y[sid] for sid in sol.fam.ids} == {
        0: 1, 1: 1, 2: 1, 3: 0, 4: 0}
    assert not sol.duals.saturated
    assert sol.tree_vertices == {0, 1, 2}
    assert sol.tree_edge_indices == (0, 1)


def test_prune_example_full_run():
    inst = Instance(3, ((0, 1, 4), (1, 2, 1)), (10, 10, "1/4"))
    sol = solve(inst)
    kinds = [(ev.kind, ev.epsilon) for ev in sol.trace]
    assert kinds == [
        ("saturation", Fraction(1, 4)),
        ("merge", Fraction(1, 2)),
        ("merge", Fraction(5, 4)),
        ("phase", 0),
        ("prune", 0),
        ("phase", 0),
    ]
    assert sol.trace[0].set_id == 2
    assert sol.trace[1].edge_index == 1
    assert sol.trace[2].edge_index == 0
    assert sol.trace[4].set_id == 2
    assert {sid: sol.duals.y[sid] for sid in sol.fam.ids} == {
        0: 2, 1: Fraction(3, 4), 2: Fraction(1, 4),
        3: Fraction(5, 4), 4: 0}
    assert sol.duals.saturated == {2}
    # the saturated singleton {2} hangs off the tree by one edge: pruned
    assert sol.tree_vertices == {0, 1}
    assert sol.tree_edges == ((0, 1),)
    assert sol.cost == 4
    assert sol.penalty == Fraction(1, 4)
    assert sol.objective == Fraction(17, 4)
    assert sol.lagrangean_objective == Fraction(9, 2)
    assert sol.lower_bound == Fraction(9, 4)
    assert sol.lagrangean_objective == 2 * sol.lower_bound
    assert sol.minimizing_vertex == 0


def test_saturation_wins_clock_ties():
    # prize 1 on both ends of a cost-2 edge: saturations and the merge
    # all ripen at clock 1; both saturations must fire first
    inst = Instance(2, ((0, 1, 2),), (1, 1))
    sol = solve(inst)
    assert [(ev.kind, ev.set_id) for ev in events_of(sol.trace)] == [
        ("saturation", 0)]
    assert sol.objective == 1
    assert sol.tree_vertices == {1}


# -- edge cases ----------------------------------------------------------------


def test_single_vertex():
    sol = solve(Instance(1, (), (7,)))
    assert sol.tree_vertices == {0}
    assert sol.objective == 0
    assert sol.lower_bound == 0
    assert sol.trace[-1].phase == "done"


def test_all_prizes_zero():
    sol = solve(Instance(2, ((0, 1, 3),), (0, 0)))
    assert sol.objective == 0
    assert len(sol.tree_vertices) == 1
    assert sol.tree_edges == ()


def test_no_edges():
    sol = solve(Instance(3, (), (1, 5, 2)))
    # growth freezes {0} then {2}; the surviving singleton pays the rest
    assert sol.tree_vertices == {1}
    assert sol.objective == 3
    assert sol.lower_bound == 3


def test_disconnected_components():
    inst = Instance(4, ((0, 1, 1), (2, 3, 9)), (5, 5, 2, 2))
    sol = solve(inst)
    assert sol.tree_vertices == {0, 1}
    assert sol.objective == 5
    assert sol.lagrangean_objective <= 2 * sol.lower_bound


def test_zero_cost_edges_merge_immediately():
    inst = Instance(3, ((0, 1, 0), (1, 2, 0)), (1, 1, 1))
    sol = solve(inst)
    merges = events_of(sol.trace, "merge")
    assert [ev.epsilon for ev in merges] == [0, 0]
    assert sol.cost == 0 and sol.penalty == 0
    assert sol.tree_vertices == {0, 1, 2}


def test_zero_prize_vertex_saturates_at_once():
    inst = Instance(2, ((0, 1, 5),), (0, 9))
    sol = solve(inst)
    first = sol.trace[0]
    assert (first.kind, first.set_id, first.epsilon) == ("saturation", 0, 0)
    assert sol.tree_vertices == {1}
    assert sol.objective == 0


# -- cross-checks against the rescan reference ---------------------------------


@pytest.mark.parametrize("seed", range(1, 301))
def test_rescan_engine_agrees_with_event_queue(seed):
    inst = sweep_instance(seed)
    fast = solve(inst)
    slow = solve_by_rescan(inst)
    assert fast.trace == slow.trace
    assert fast.tree_vertices == slow.tree_vertices
    assert fast.tree_edge_indices == slow.tree_edge_indices
    assert fast.objective == slow.objective
    assert fast.lower_bound == slow.lower_bound
    assert {s: fast.duals.y[s] for s in fast.fam.ids} == \
        {s: slow.duals.y[s] for s in slow.fam.ids}
    assert fast.duals.saturated == slow.duals.saturated


@pytest.mark.parametrize("seed", range(40))
def test_compute_epsilon_matches_naive_definition(seed):
    """Every step the event queue pops is the step naive_epsilon
    recomputes from definitions at that moment."""
    inst = gen_random(1 + seed % 9, "2/3", max_cost=8, max_prize=6,
                      seed=1000 + seed)
    state = sv.init_state(inst)
    queue_pop = state._pop_next
    kinds = {sv._KIND_SAT: "saturation", sv._KIND_MERGE: "merge"}

    def checked_pop():
        expected = naive_epsilon(inst, state.fam, state.dual_assignment())
        eps, kind, payload = queue_pop()
        assert (eps, (kinds[kind], payload)) == expected
        return eps, kind, payload

    state._pop_next = checked_pop
    sv.run_phase1(state)


# -- budgets, determinism, flags -------------------------------------------------


@pytest.mark.parametrize("seed", [3, 17, 401, 778])
def test_growth_event_budget(seed):
    inst = sweep_instance(seed)
    sol = solve(inst)
    assert len(events_of(sol.trace)) <= 2 * inst.n - 2


def test_two_runs_identical():
    inst = gen_random(10, "1/2", max_cost=9, max_prize=7, seed=42)
    a = solve(inst)
    b = solve(inst)
    assert a.trace == b.trace
    assert a.tree_vertices == b.tree_vertices
    assert a.objective == b.objective
    assert sv.trace_json_lines(a.trace) == sv.trace_json_lines(b.trace)


def test_trace_can_be_suppressed():
    inst = gen_random(10, "1/2", max_cost=9, max_prize=7, seed=42)
    quiet = solve(inst, emit_trace=False)
    loud = solve(inst)
    assert quiet.trace == ()
    assert quiet.objective == loud.objective
    assert quiet.tree_vertices == loud.tree_vertices


def test_env_var_forces_checking(monkeypatch):
    calls = []
    real = sv.check_growth_invariants
    monkeypatch.setattr(sv, "check_growth_invariants",
                        lambda state: (calls.append(1), real(state)))
    monkeypatch.setattr(sv, "CHECK_DEFAULT_MAX_N", 0)
    monkeypatch.delenv("PCST_CHECK", raising=False)
    inst = gen_random(8, "1/2", max_cost=5, max_prize=5, seed=5)
    solve(inst)
    assert not calls  # below no default threshold, no env: checks off
    monkeypatch.setenv("PCST_CHECK", "1")
    solve(inst)
    assert calls


def test_checker_catches_poisoned_duals():
    inst = Instance(3, ((0, 1, 4), (1, 2, 1)), (10, 10, "1/4"))
    state = sv.init_state(inst)
    rescan_step(state)
    rescan_step(state)
    sv.check_growth_invariants(state)  # healthy state passes
    state._birth[0] -= 100  # overload every constraint around vertex 0
    with pytest.raises(sv.InvariantError):
        sv.check_growth_invariants(state)


def test_checker_catches_missing_forest_edge():
    inst = Instance(3, ((0, 1, 0), (1, 2, 0)), (1, 1, 1))
    state = sv.init_state(inst)
    rescan_step(state)
    rescan_step(state)
    state.forest.pop()  # family set now spans two forest pieces
    with pytest.raises(sv.InvariantError):
        sv.check_growth_invariants(state)


def test_solve_rejects_stale_phase_calls():
    inst = gen_tight_star(1)
    state = sv.init_state(inst)
    with pytest.raises(ValueError):
        sv.run_phase2(state)
    sv.run_phase1(state)
    with pytest.raises(ValueError):
        sv.run_phase1(state)


# -- guarantees on small randoms (spot check; the sweep is in acceptance) -------


@pytest.mark.parametrize("seed", range(60))
def test_certificate_guarantee_spot_check(seed):
    inst = gen_random(1 + seed % 10, "1/2", max_cost=10, max_prize=8,
                      seed=2000 + seed)
    sol = solve(inst)
    assert sol.cost + sol.penalty == sol.objective
    assert sol.cost + 2 * sol.penalty == sol.lagrangean_objective
    assert sol.lagrangean_objective <= 2 * sol.lower_bound
    index_of = {(u, v): c for u, v, c in inst.edges}
    for u, v in sol.tree_edges:
        assert (u, v) in index_of


def test_tight_path_family_approaches_factor_two():
    from pcst import exact_solve

    inst = gen_tight_path(6, "1/10")
    sol = solve(inst)
    assert sol.objective == 12  # buys the whole path
    assert exact_solve(inst).optimum == Fraction(61, 10)
