"""Two-phase solver: frozen small traces, engine cross-checks, edge
cases, determinism, the integer core's parity checks, and checker
fault injection."""
import heapq
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import naive_checker as naive
from conftest import (halve_scale, naive_epsilon, reference_prune,
                      rescan_step, solve_by_rescan, sweep_instance)
from pcst import (Instance, gen_random, gen_tight_path, gen_tight_star,
                  parse_instance, solve)
from pcst import cli
from pcst import laminar as lam
from pcst import solver as sv
from pcst import verify
from pcst.instance import MAX_SCALE_BITS, MAX_TOTAL_BITS, format_rational

# the solver's checks and the reference checker's, both run on every
# injected fault below
GROWTH_CHECKS = (sv.check_growth_invariants, naive.check_growth_invariants)
PRUNE_CHECKS = (sv.check_prune_invariants, naive.check_prune_invariants)


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
    assert {sid: naive.dual(sol.duals, sid) for sid in sol.fam.ids} == {
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
    assert {sid: naive.dual(sol.duals, sid) for sid in sol.fam.ids} == {
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


def agrees_with_rescan(inst):
    """The event queue and the rescan reference take the same steps and
    reach the same solution."""
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


@pytest.mark.parametrize("seed", range(1, 301))
def test_rescan_engine_agrees_with_event_queue(seed):
    agrees_with_rescan(sweep_instance(seed))


@pytest.mark.parametrize("seed", range(40))
def test_compute_epsilon_matches_naive_definition(seed):
    """Every step the event queue pops, in units of 1/scale, is the
    step naive_epsilon recomputes from definitions at that moment."""
    inst = gen_random(1 + seed % 9, "2/3", max_cost=8, max_prize=6,
                      seed=1000 + seed)
    state = sv.init_state(inst)
    queue_pop = state._pop_next

    def checked_pop():
        expected = naive_epsilon(inst, state.fam, state.dual_assignment())
        eps, payload, sides = queue_pop()
        step = Fraction(eps, state._scale)
        kind = "saturation" if sides is None else "merge"
        assert (step, (kind, payload)) == expected
        return eps, payload, sides

    state._pop_next = checked_pop
    sv.run_phase1(state)


# -- the queue's push bound ----------------------------------------------------


def hub_star(n):
    """Hub 0 with prize 1, and leaf i with prize 2i+1 on an edge of cost
    3i: every leaf but the last reaches the hub's set after it froze,
    revives it and saturates inside it, so growth takes 2n - 3 steps."""
    return Instance(n, tuple((0, i, 3 * i) for i in range(1, n)),
                    (1,) + tuple(2 * i + 1 for i in range(1, n)))


def caterpillar(spine, legs):
    """A path of spine vertices with legs leaves hung off each one."""
    edges = [(i, i + 1, 2 + i % 5) for i in range(spine - 1)]
    prizes = [1 + i % 4 for i in range(spine)]
    for i in range(spine):
        for j in range(legs):
            edges.append((i, len(prizes), 1 + (i + 3 * j) % 9))
            prizes.append((i * j) % 7)
    return Instance(len(prizes), tuple(edges), tuple(prizes))


def queue_pushes(inst, monkeypatch):
    """Grow inst untraced and unchecked, counting the heap pushes of each
    edge's key and of saturation keys, and the largest heap.  Returns
    (grown state, pushes per edge, saturation pushes, largest heap,
    re-keys per edge)."""
    state = sv.init_state(inst, emit_trace=False)
    span, width = 2 * state._width, state._width
    per_edge = [0] * inst.m
    rekeys = [0] * inst.m
    counts = [0, len(state._heap)]
    real_push = heapq.heappush
    real_rekey = sv.SolverState._rekey

    def counted_rekey(self, idx, *sides):
        rekeys[idx] += 1
        real_rekey(self, idx, *sides)

    def counted_push(heap, key):
        real_push(heap, key)
        if key % span < width:
            counts[0] += 1
        else:
            per_edge[key % span - width] += 1
        counts[1] = max(counts[1], len(heap))

    with monkeypatch.context() as patch:
        patch.setattr(heapq, "heappush", counted_push)
        patch.setattr(sv.SolverState, "_rekey", counted_rekey)
        sv.run_phase1(state)
    return state, per_edge, counts[0], counts[1], rekeys


def flips_at_one_end(state):
    """Per edge, F of the solver docstring: the saturations and revivals
    of sets holding exactly one of its ends.  A saturated set with a
    parent was revived by the merge that made its parent."""
    fam, sat = state.fam, state.saturated
    upward = [0] * len(fam)  # flips on the chain from a set to its root
    for sid in reversed(fam.ids):
        parent = fam.parent_of(sid)
        upward[sid] = (sid in sat) * (1 + (parent is not None))
        if parent is not None:
            upward[sid] += upward[parent]
    tops = verify.FamilyIndex(fam, state.inst).tops
    return [upward[u] + upward[v] - (2 * upward[top] if top >= 0 else 0)
            for (u, v), top in zip(state.inst.ends, tops)]


def flicker(revivals, waiting):
    """A hub of prize 0 that saturates and revives the given number of
    times: leaf j reaches it at clock j * L, L = 2 * revivals + 2, and
    keeps it live for one unit.  Each of the waiting leaves has prize 0
    and an edge to the hub that the hub's live time alone cannot fill,
    so a key of that edge pops in most of the hub's frozen spans; a
    neighbour of the leaf reaches it halfway and revives it."""
    gap = 2 * revivals + 2
    edges, prizes = [], [0]
    for j in range(1, revivals + 1):
        edges.append((0, len(prizes), j * gap + j - 1))
        prizes.append(j * gap + 1)
    for _ in range(waiting):
        leaf = len(prizes)
        edges += [(0, leaf, revivals + 5),
                  (leaf, leaf + 1, revivals * gap // 2)]
        prizes += [0, revivals * gap * 2]
    return Instance(len(prizes), tuple(edges), tuple(prizes))


PUSH_BOUND_SHAPES = {
    "flicker-40x40": lambda: flicker(40, 40),
    "star-501": lambda: hub_star(501),
    "star-1001": lambda: hub_star(1001),
    "star-4001": lambda: hub_star(4001),
    "caterpillar-40x25": lambda: caterpillar(40, 25),
    "caterpillar-200x4": lambda: caterpillar(200, 4),
    **{f"random-{n}-{seed}": (lambda n=n, seed=seed: gen_random(
        n, Fraction(8, n), max_cost=10, max_prize=8, seed=seed))
       for n, seed in ((300, 1), (1000, 2), (1000, 3))},
}


@pytest.mark.parametrize("name", sorted(PUSH_BOUND_SHAPES))
def test_queue_pushes_stay_within_the_proven_bound(name, monkeypatch):
    """Each edge's key is pushed at most floor(log2 c) + F times, c its
    scaled cost and F the flips of sets holding exactly one of its ends;
    each merge pushes one saturation key; the heap never holds more than
    n + m entries.  An edge is re-keyed once per pop of its key, at most
    one more than its pushes, and once per revival of a set at one end,
    whatever stale listings that set holds."""
    inst = PUSH_BOUND_SHAPES[name]()
    state, per_edge, saturation_pushes, largest, rekeys = queue_pushes(
        inst, monkeypatch)
    assert saturation_pushes == len(state.forest)
    flips = flips_at_one_end(state)
    for idx, c in enumerate(state._cost):
        assert per_edge[idx] <= (c >> 1).bit_length() + flips[idx], idx
        assert rekeys[idx] <= per_edge[idx] + 1 + flips[idx], idx
    assert largest <= inst.n + inst.m


@pytest.mark.parametrize("n", [501, 1001, 4001])
def test_star_grows_in_few_pushes(n, monkeypatch):
    """The star's hub set saturates and revives n - 2 times, and no flip
    re-keys every edge: it grows in at most (n - 1) * log2(n) pushes,
    where re-queueing a set's edges at each flip took n^2 - n - 1."""
    _, per_edge, saturation_pushes, _, _ = queue_pushes(hub_star(n),
                                                        monkeypatch)
    assert sum(per_edge) + saturation_pushes <= (n - 1) * n.bit_length()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 21, 34, 40])
def test_rescan_engine_agrees_on_stars(n):
    agrees_with_rescan(hub_star(n))


@pytest.mark.parametrize("n", [2, 3, 10, 101])
def test_star_reaches_the_step_budget(n):
    """Growth takes at most 2n - 3 steps, and the star takes all of
    them, rechecks uncounted; one step more is over the budget."""
    state = sv.init_state(hub_star(n))
    sv.run_phase1(state)
    sv.check_growth_invariants(state)
    assert state._steps == 2 * n - 3
    assert sum(row[2] in ("saturation", "merge") for row in state.trace) \
        == 2 * n - 3
    with pytest.raises(sv.InvariantError, match="exceeded its step budget"):
        state._after_step()


def tuple_key(when, kind, payload, width):
    """The heap key of an event, as the solver docstring lays it out."""
    return when * 2 * width + kind * width + payload


def test_event_keys_order_as_tuples():
    """Int keys sort exactly as (time, kind, payload) triples: by time,
    then saturations before merges, then payload; with times of up to
    thousands of bits, and many equal times."""
    rng = random.Random(20)
    for _ in range(200):
        width = rng.choice((1, 2, 3, 7, rng.randrange(1, 1 << 40)))
        bits = rng.choice((1, 4, 64, 14_000))
        times = [rng.getrandbits(bits) for _ in range(rng.randrange(1, 6))]
        triples = [(rng.choice(times), rng.randrange(2),
                    rng.randrange(width)) for _ in range(40)]
        rng.shuffle(triples)
        assert sorted(triples) == sorted(
            triples, key=lambda t: tuple_key(*t, width))
        for when, kind, payload in triples:
            assert divmod(tuple_key(when, kind, payload, width),
                          2 * width) == (when, kind * width + payload)


@pytest.mark.parametrize("seed", range(3))
def test_solver_keys_are_the_documented_layout(seed):
    """The keys a new state queues: each vertex's saturation (kind 0)
    at its prize, each edge's merge (kind 1) at half its cost, with
    W = max(m, 2n)."""
    inst = gen_random(12 + seed, "1/3", max_cost=9, max_prize=7,
                      seed=60 + seed)
    state = sv.init_state(inst)
    width = max(inst.m, 2 * inst.n)
    assert state._width == width
    assert sorted(state._heap) == sorted(
        [tuple_key(p, 0, v, width)
         for v, p in enumerate(inst.scaled_prizes)]
        + [tuple_key(c // 2, 1, idx, width)
           for idx, c in enumerate(inst.scaled_costs)])
    assert state._ekey == [tuple_key(c // 2, 1, idx, width)
                           for idx, c in enumerate(inst.scaled_costs)]


def big_int_instance(seed):
    """A random graph whose scale sits just under MAX_SCALE_BITS and
    whose scaled total sits just under MAX_TOTAL_BITS: every cost and
    prize is a big multiple of one unit plus a small offset, over one
    odd denominator of MAX_SCALE_BITS - 2 bits."""
    rng = random.Random(seed)
    den = 3 ** 2583  # odd, so the scale 2 * den has one bit more
    assert den.bit_length() == MAX_SCALE_BITS - 2
    unit = 1 << (MAX_TOTAL_BITS - 24)
    n = 10 + seed % 8
    base = gen_random(n, "1/3", max_cost=10, max_prize=8, seed=700 + seed)

    def big(value):
        return Fraction(int(value) * unit + rng.randrange(3), den)

    return Instance(n, tuple((u, v, big(c)) for u, v, c in base.edges),
                    tuple(big(p) for p in base.prizes))


@pytest.mark.parametrize("seed", range(8))
def test_big_int_keys_agree_with_rescan(seed):
    """At the top of the exactness budget, where an event time and its
    key have thousands of bits, the event queue takes the rescan
    reference's steps, trace for trace and dual for dual."""
    inst = big_int_instance(seed)
    assert inst.scale.bit_length() > MAX_SCALE_BITS - 4
    total = sum(inst.scaled_costs) + 2 * sum(inst.scaled_prizes)
    assert MAX_TOTAL_BITS - 16 < total.bit_length() <= MAX_TOTAL_BITS
    fast = solve(inst, check_invariants=False)
    slow = solve_by_rescan(inst)
    assert max(ev.time for ev in fast.trace) * inst.scale > 1 << 13_000
    assert fast.trace == slow.trace
    assert fast.tree_edge_indices == slow.tree_edge_indices
    assert fast.duals.y == slow.duals.y
    assert fast.duals.saturated == slow.duals.saturated
    assert sv.trace_json_lines(fast) == reference_trace_lines(fast.trace)


@pytest.mark.parametrize("seed", range(1, 101))
def test_chain_loads_match_membership_sums(seed):
    """The union-find's frozen loads plus the live clock give, after
    every growth step, the dual mass on the sets holding each vertex,
    in units of 1/scale."""
    inst = sweep_instance(seed)
    state = sv.init_state(inst)
    after_step = state._after_step

    def checked_after_step():
        after_step()
        duals = state.dual_assignment()
        assert [state._reach(v)[1] for v in range(inst.n)] == [
            naive.vertex_chain_load(state.fam, duals, v) * state._scale
            for v in range(inst.n)]

    state._after_step = checked_after_step
    sv.run_phase1(state)


PRUNE_PROBABILITIES = ("1/4", "1/2", "2/3")


def prune_instance(seed):
    if seed >= 290:  # the tight path family, 2 to 11 edges
        return gen_tight_path(seed - 288, ("1/10", "1", "19/10")[seed % 3])
    if seed >= 250:  # sparse, n = 100..300: deep families, nested prunes
        n = 100 + 10 * (seed % 21)
        return gen_random(n, Fraction(2, n), max_cost=10, max_prize=8,
                          seed=5000 + seed)
    return gen_random(3 + seed % 38, PRUNE_PROBABILITIES[seed % 3],
                      max_cost=10, max_prize=8, seed=5000 + seed)


@pytest.mark.parametrize("seed", range(300))
def test_prune_matches_the_chain_reference(seed):
    """Prune counts read off the merge tree give the same prune events,
    in the same order, and the same tree as full chains rescanned on
    every prune."""
    state = grown(prune_instance(seed))
    order, tree_vertices, tree_edge_indices = reference_prune(state)
    sol = sv.run_phase2(state)
    assert [ev.set_id for ev in sol.trace if ev.kind == "prune"] == order
    assert sol.tree_vertices == tree_vertices
    assert sol.tree_edge_indices == tree_edge_indices


# -- the integer core -------------------------------------------------------------


def outputs(inst, sol):
    """The trace lines and the solution document of a solve."""
    return (sv.trace_json_lines(sol),
            cli._solution_document(inst, sol, None))


def doubled_costs(inst):
    return Instance(inst.n, tuple((u, v, 2 * c) for u, v, c in inst.edges),
                    inst.prizes)


FRACTIONAL_PRIZES = (5, "3/2", 2, "1/3")
HALVED_SCALE_INSTANCES = {
    # name: (instance, whether some cost is odd at half the scale)
    "sweep-3": (lambda: sweep_instance(3), True),
    "sweep-19": (lambda: sweep_instance(19), True),
    "sweep-38": (lambda: sweep_instance(38), True),
    "sweep-38-doubled": (lambda: doubled_costs(sweep_instance(38)), False),
    "fractional": (lambda: Instance(
        4, ((0, 1, 3), (1, 2, "1/2"), (2, 3, "5/3"), (0, 3, 7)),
        FRACTIONAL_PRIZES), True),
    "fractional-even": (lambda: Instance(
        4, ((0, 1, 3), (1, 2, 1), (2, 3, "2/3"), (0, 3, 7)),
        FRACTIONAL_PRIZES), False),
    "tight-path": (lambda: gen_tight_path(6, "1/10"), False),
}


@pytest.mark.parametrize("name", sorted(HALVED_SCALE_INSTANCES))
def test_halved_scale_refuses_odd_costs_and_keeps_even_runs(name):
    """Without the factor 2 of the scale, an odd cost is refused at
    set-up, where its first halving would floor.  Costs that stay even
    are all the parity proof needs: growth runs exact at half the scale
    and gives the unforced solve's trace and document."""
    make, odd = HALVED_SCALE_INSTANCES[name]
    inst = make()
    unforced = outputs(inst, solve(inst))
    half = halve_scale(inst).scale
    if odd:
        with pytest.raises(sv.InvariantError,
                           match=rf"edge \d+ has odd cost \d+ at scale {half}$"):
            sv.init_state(inst)
    else:
        assert sv.init_state(inst)._scale == half
        assert outputs(inst, solve(inst)) == unforced


@pytest.mark.parametrize("bump_at", [1, 5, 10])
def test_odd_live_slack_mid_growth_is_an_invariant_failure(monkeypatch,
                                                           bump_at):
    """The parity proof leaves no odd slack between two live sets.  One
    forced here, by bumping the scaled cost of the bump_at-th live-live
    edge whose current key the queue pops, turns that pop into a recheck
    that fails the run with an InvariantError naming that edge."""
    inst = gen_random(40, "1/4", max_cost=10, max_prize=8, seed=7)
    state = sv.init_state(inst)
    span, width = 2 * state._width, state._width
    real_pop = heapq.heappop
    live_pairs, bumped = [], []

    def bump_a_live_pair(heap):
        key = real_pop(heap)
        idx = key % span - width
        if heap is state._heap and idx >= 0 and key == state._ekey[idx] \
                and not bumped:
            u, v = inst.ends[idx]
            a, b = state._reach(u)[0], state._reach(v)[0]
            if a != b and state._alive(a) and state._alive(b):
                live_pairs.append(idx)
                if len(live_pairs) == bump_at:
                    state._cost = list(state._cost)  # never the instance's
                    state._cost[idx] += 1
                    bumped.append(idx)
        return key

    monkeypatch.setattr(heapq, "heappop", bump_a_live_pair)
    with pytest.raises(sv.InvariantError) as info:
        sv.run_phase1(state)
    [idx] = bumped
    assert re.fullmatch(rf"odd slack \d+ on edge {idx} between two live "
                        r"sets at scale 2", str(info.value))


FRACTION_ARITHMETIC = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__",
                       "__add__", "__radd__", "__sub__", "__rsub__")


def test_growth_does_no_fraction_arithmetic(monkeypatch):
    """Growth runs on ints: no Fraction is compared, added or
    subtracted inside run_phase1 at n=1000, nor at n=64 by run_phase1
    and the growth check that passes after it; a check builds
    Fractions only for its message.  The duals stay ints too: untraced
    and unchecked, run_phase2 builds as few Fractions at n=1000 as at
    n=100, for the solution's totals and none per set."""
    built = []
    for n, check, phase, names in (
            (1000, False, sv.run_phase1, FRACTION_ARITHMETIC),
            (64, True, sv.run_phase1, FRACTION_ARITHMETIC),
            (100, False, sv.run_phase2, ("__new__",)),
            (1000, False, sv.run_phase2, ("__new__",))):
        state = sv.init_state(gen_random(n, Fraction(1, n // 4),
                                         max_cost=10, max_prize=8, seed=99),
                              emit_trace=phase is sv.run_phase1)
        if phase is sv.run_phase2:
            sv.run_phase1(state)
        calls = []
        for name in names:
            def counted(*args, real=getattr(Fraction, name), name=name,
                        **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(Fraction, name, counted)
        phase(state)
        if check:
            sv.check_growth_invariants(state)
        monkeypatch.undo()
        if phase is sv.run_phase1:
            assert len(state.trace) > n
            assert calls == [], check
        else:
            assert len(state.fam) > n
            built.append(len(calls))
    assert built[0] == built[1] <= 10, built


def test_set_up_reads_no_fraction(monkeypatch):
    """Solver set-up and the verifier's family index take the costs and
    prizes from the instance's scaled ints: at n=1000 neither reads the
    numerator or the denominator of a Fraction."""
    inst = gen_random(1000, Fraction(1, 250), max_cost=10, max_prize=8,
                      seed=99)
    grown = sv.init_state(inst, emit_trace=False)
    sv.run_phase1(grown)

    def reads(call):
        names = []
        with monkeypatch.context() as patch:
            for name in ("numerator", "denominator"):
                real = getattr(Fraction, name).fget
                patch.setattr(Fraction, name, property(
                    lambda q, real=real, name=name:
                    names.append(name) or real(q)))
            call()
        return names

    assert reads(lambda: sv.init_state(inst)) == []
    assert reads(lambda: verify.FamilyIndex(grown.fam, inst)) == []


def solve_counting_indexes(inst, check, monkeypatch):
    """The verifier indexes a solve builds, as (class name, built with
    an instance) pairs."""
    built = []
    # the position of the instance among each index's arguments
    for name, at in (("FamilyIndex", 1), ("DualIndex", 2), ("TreeIndex", 2)):
        def counted(*args, real=getattr(verify, name), name=name, at=at):
            built.append((name, len(args) > at and args[at] is not None))
            return real(*args)

        monkeypatch.setattr(verify, name, counted)
    solve(inst, check_invariants=check)
    monkeypatch.undo()
    return sorted(built)


@pytest.mark.parametrize("n", [64, 512])
def test_checked_solve_builds_each_index_once(n, monkeypatch):
    """A checked solve builds one family index of the instance, read by
    the growth and the prune checks alike, one dual index and one tree
    index; an unchecked one builds neither of them.  Both build the
    certificate's dual index, without an instance, and its family
    index."""
    inst = ladder_instance(n, 3 * n, monkeypatch)
    certificate = [("DualIndex", False), ("FamilyIndex", False)]
    assert solve_counting_indexes(inst, False, monkeypatch) == certificate
    assert solve_counting_indexes(inst, True, monkeypatch) == sorted(
        certificate + [("DualIndex", True), ("FamilyIndex", True),
                       ("TreeIndex", True)])


def test_growth_gaps_follow_any_change_of_the_saturated_sets():
    """The cover gaps the growth check reads equal the naive count, per
    union, of its vertices in no saturated proper subset, after every
    step and after any set, with a parent or not, is marked or unmarked
    saturated, though no honest step unmarks a set or marks one that
    has a parent; and the growth check agrees with the naive checker."""
    rng = random.Random(26)
    raised = cases = 0
    for seed in range(100):
        inst = gen_random(rng.randint(2, 12), "1/2", max_cost=6, max_prize=6,
                          seed=seed)
        state = sv.init_state(inst)
        while sum(sid not in state.saturated
                  for sid in state.fam.maximal_ids()) > 1:
            rescan_step(state)
            toggled = {rng.choice(state.fam.ids)}
            for change in (set(), toggled, toggled):
                state.saturated ^= change
                sat, sets = state.saturated, naive.members(state.fam)
                family = verify.FamilyIndex(state.fam, state.inst)
                gaps = sv._cover_gaps(family, sat, [0] * len(state.fam))
                assert gaps == [naive.saturated_cover_gap(sets, sat - {sid},
                                                          sets[sid])
                                for sid in state.fam.ids], seed
                outcomes = [check_outcome(check, state)
                            for check in GROWTH_CHECKS]
                assert outcomes[0] == outcomes[1], (seed, outcomes)
                raised += outcomes[0] is not None
                cases += 1
    assert 100 < raised < cases - 300, (raised, cases)


def check_outcome(check, state):
    """The message a check raises, or None if it passes."""
    try:
        check(state)
    except sv.InvariantError as exc:
        return str(exc)
    return None


def poison_state(state, rng):
    """One random poisoning of a grown state: a dead set's birth or the
    clock shifted, an equal instance object or one with a prize changed
    swapped in, or a set with a parent marked or unmarked saturated.
    Returns the undo, or None when the state has no such set."""
    kind = rng.choice(("birth", "clock", "instance", "saturated"))
    delta = rng.choice((-1, 1)) * rng.randint(1, 4) * state._scale // 2
    if kind == "birth":
        dead = [sid for sid in state.fam.ids if not state._alive(sid)]
        return dead and shift(state._birth, rng.choice(dead), delta)
    if kind == "clock":
        return move_clock(state, delta)
    if kind == "instance":
        prizes = list(state.inst.prizes)
        if rng.random() < 0.5:
            at = rng.randrange(len(prizes))
            prizes[at] = max(0, prizes[at] + Fraction(delta, state._scale))
        return swap_instance(state, tuple(prizes))
    merged = [sid for sid, parent in enumerate(state.fam.parent)
              if parent is not None]
    if not merged:
        return None
    toggled = {rng.choice(merged)}
    state.saturated ^= toggled
    return lambda: state.saturated.__ixor__(toggled)


def test_forest_check_agrees_with_naive_on_corrupted_forests():
    """Seeded sweep: on states grown a random number of steps and then
    given a corrupted forest (an edge dropped, duplicated, replaced by
    another instance edge, possibly one inside an older set, or
    appended, or the forest shuffled), the solver's growth check and
    the naive checker both pass or both raise the same message.  Then
    the state is poisoned in turn (poison_state): the two checks agree
    again, and the repaired state passes."""
    rng = random.Random(18)
    poisons = random.Random(26)
    raised = cases = 0
    poisoned = poisoned_raised = 0
    for seed in range(300):
        n = rng.randint(2, 10)
        inst = gen_random(n, "1/2", max_cost=6, max_prize=6, seed=seed)
        if not inst.m:
            continue
        state = sv.init_state(inst)
        for _ in range(rng.randint(0, 2 * n)):
            if sum(sid not in state.saturated
                   for sid in state.fam.maximal_ids()) < 2:
                break
            rescan_step(state)
            assert check_outcome(sv.check_growth_invariants, state) is None
        healthy = state.forest
        assert check_outcome(sv.check_growth_invariants, state) is None
        for _ in range(6):
            forest = healthy[:]
            kind = rng.choice(("drop", "duplicate", "replace", "append",
                               "shuffle") if forest else ("append",))
            at = rng.randrange(len(forest) or 1)
            if kind == "drop":
                del forest[at]
            elif kind == "duplicate":
                forest.insert(rng.randrange(len(forest) + 1), forest[at])
            elif kind == "replace":
                forest[at] = rng.randrange(inst.m)
            elif kind == "append":
                forest.append(rng.randrange(inst.m))
            else:
                rng.shuffle(forest)
            state.forest = forest
            outcomes = [check_outcome(check, state)
                        for check in GROWTH_CHECKS]
            assert outcomes[0] == outcomes[1], (seed, kind, forest)
            raised += outcomes[0] is not None
            cases += 1
        state.forest = healthy
        for _ in range(4):
            undo = poison_state(state, poisons)
            if not undo:
                continue
            outcomes = [check_outcome(check, state)
                        for check in GROWTH_CHECKS]
            assert outcomes[0] == outcomes[1], (seed, outcomes)
            poisoned += 1
            poisoned_raised += outcomes[0] is not None
            undo()
            assert check_outcome(sv.check_growth_invariants, state) is None
    assert cases > 1500 and 300 < raised < cases - 300, (cases, raised)
    assert poisoned > 900 and 300 < poisoned_raised < poisoned - 200, \
        (poisoned, poisoned_raised)


def ladder_instance(n, m, monkeypatch):
    """The benchmark's seeded instance with n vertices and m edges."""
    monkeypatch.syspath_prepend(Path(__file__).parents[1] / "perfbench")
    from workloads import sparse_instance

    return parse_instance(json.dumps(sparse_instance(n, m, "ladder:1")))


def test_checked_growth_reads_parent_links_once_per_set(monkeypatch):
    """Growth and the growth check read the links a merge records and
    the family's parent list in place: over a checked growth the family
    is asked for parent links at most twice per set."""
    inst = ladder_instance(256, 768, monkeypatch)
    calls = []
    real = lam.LaminarFamily.parent_of
    monkeypatch.setattr(lam.LaminarFamily, "parent_of",
                        lambda fam, sid: (calls.append(sid),
                                          real(fam, sid))[1])
    state = sv.init_state(inst)
    sv.run_phase1(state)
    sv.check_growth_invariants(state)
    assert state._steps >= 256
    assert len(calls) <= 2 * len(state.fam)


# what the solver keeps for itself: its union-find, scaled costs and
# saturation clocks
SOLVER_SUMS = ("_dsu", "_offset", "_top", "_root", "_cost", "_sat_clock")


class BlindState(sv.SolverState):
    """A state whose SOLVER_SUMS fail the test when read."""


for _name in SOLVER_SUMS:
    setattr(BlindState, _name, property(
        lambda state, name=_name: pytest.fail(f"the checker read {name}")))


def test_checks_read_none_of_the_solvers_sums():
    """The checks recompute from the parent links, the instance, the
    forest and the growth clocks: with the solver's own sums unreadable,
    the growth check passes after every step, and the prune check on the
    grown state."""
    inst = gen_random(12, "1/2", max_cost=10, max_prize=8, seed=11)
    state = sv.init_state(inst)
    for _ in range(8):
        rescan_step(state)
        state.__class__ = BlindState
        sv.check_growth_invariants(state)
        state.__class__ = sv.SolverState
    assert state.phase == sv.PHASE_GROWTH and len(state.forest) > 2
    # the queue cannot resume after steps taken around it: they pass
    # over the rechecks it would have popped
    while state._active > 1:
        rescan_step(state)
    sv.run_phase1(state)
    tree = sv._pruned_tree(state, ())
    state.__class__ = BlindState
    sv.check_prune_invariants(state, *tree)


# -- budgets, determinism, flags -------------------------------------------------


@pytest.mark.parametrize("seed", [3, 17, 401, 778])
def test_growth_event_budget(seed):
    inst = sweep_instance(seed)
    sol = solve(inst)
    assert len(events_of(sol.trace)) <= 2 * inst.n - 3


def test_two_runs_identical():
    inst = gen_random(10, "1/2", max_cost=9, max_prize=7, seed=42)
    a = solve(inst)
    b = solve(inst)
    assert a.trace == b.trace
    assert a.tree_vertices == b.tree_vertices
    assert a.objective == b.objective
    assert sv.trace_json_lines(a) == sv.trace_json_lines(b)


def test_trace_can_be_suppressed():
    inst = gen_random(10, "1/2", max_cost=9, max_prize=7, seed=42)
    quiet = solve(inst, emit_trace=False)
    loud = solve(inst)
    assert quiet.trace == ()
    assert quiet.objective == loud.objective
    assert quiet.tree_vertices == loud.tree_vertices


def reference_event_obj(ev):
    """An Event as a json object, the layout the trace writer gave each
    Event when it dumped one dict per step."""
    obj = {"ordinal": ev.ordinal, "kind": ev.kind,
           "epsilon": format_rational(ev.epsilon),
           "time": format_rational(ev.time)}
    if ev.kind in ("saturation", "prune"):
        obj["set"] = ev.set_id
    elif ev.kind == "merge":
        obj["edge_index"] = ev.edge_index
        obj["edge"] = list(ev.edge)
        obj["new_set"] = ev.new_set_id
    elif ev.kind == "phase":
        obj["phase"] = ev.phase
    return obj


def reference_trace_lines(events):
    return "".join(json.dumps(reference_event_obj(ev)) + "\n"
                   for ev in events)


TRACE_TEXT_CASES = {
    "tight-star": lambda: gen_tight_star(1),
    "tight-path": lambda: gen_tight_path(6, "1/10"),
    "prune-example": lambda: Instance(3, ((0, 1, 4), (1, 2, 1)),
                                      (10, 10, "1/4")),
    "single-vertex": lambda: Instance(1, (), (7,)),
    "fractional": lambda: Instance(
        4, ((0, 1, 3), (1, 2, "1/2"), (2, 3, "5/3"), (0, 3, 7)),
        (5, "3/2", 2, "1/3")),
    "random-40": lambda: gen_random(40, "1/8", max_cost=10, max_prize=8,
                                    seed=3),
    "random-300": lambda: gen_random(300, "1/75", max_cost=10, max_prize=8,
                                     seed=4),
    "big-scale": lambda: big_int_instance(5),
}


@pytest.mark.parametrize("name", sorted(TRACE_TEXT_CASES))
def test_trace_lines_match_the_event_dicts(name):
    """The trace written from the recorded rows is, byte for byte, one
    json.dumps of each Event's dict per line."""
    sol = solve(TRACE_TEXT_CASES[name]())
    assert sv.trace_json_lines(sol) == reference_trace_lines(sol.trace)
    quiet = solve(TRACE_TEXT_CASES[name](), emit_trace=False)
    assert sv.trace_json_lines(quiet) == ""


def test_trace_is_built_on_first_read(monkeypatch):
    """A traced solve records rows of ints: unchecked at n=1000 it
    builds no Event and no more Fractions than an untraced solve, which
    builds them for the solution's totals only.  The first read of the
    trace builds the Events that are built when each step is recorded,
    and later reads return them again."""
    inst = gen_random(1000, "1/250", max_cost=10, max_prize=8, seed=99)

    def counted_solve(emit_trace):
        built = []

        def event(*args, **kwargs):
            built.append("Event")
            return real_event(*args, **kwargs)

        def fraction(*args, real=Fraction.__new__, **kwargs):
            built.append("Fraction")
            return real(*args, **kwargs)

        monkeypatch.setattr(sv, "Event", event)
        monkeypatch.setattr(Fraction, "__new__", fraction)
        sol = solve(inst, check_invariants=False, emit_trace=emit_trace)
        monkeypatch.undo()
        return sol, built

    real_event = sv.Event
    traced, built = counted_solve(True)
    quiet, quiet_built = counted_solve(False)
    assert built == quiet_built and len(built) <= 7, built
    assert len(traced.trace_rows) > inst.n and quiet.trace_rows == ()

    eager = []
    real_record = sv.SolverState._record

    def record(state, eps, kind, *fields):
        named = {"saturation": ("set_id",), "prune": ("set_id",),
                 "merge": ("edge_index", "edge", "new_set_id"),
                 "phase": ("phase",)}[kind]
        eager.append(sv.Event(kind, Fraction(eps, state._scale),
                              Fraction(state.clock, state._scale),
                              len(eager), **dict(zip(named, fields))))
        real_record(state, eps, kind, *fields)

    monkeypatch.setattr(sv.SolverState, "_record", record)
    solve(inst, check_invariants=False)
    monkeypatch.undo()
    assert traced.trace == tuple(eager)
    assert sv.trace_json_lines(traced) == reference_trace_lines(eager)
    assert traced.trace is traced.trace


def test_check_switch_defaults_by_size_and_explicit_wins(monkeypatch):
    calls = []
    real = sv.check_growth_invariants
    # the growth check's family index goes on to the prune check
    monkeypatch.setattr(sv, "check_growth_invariants",
                        lambda state: (calls.append(1), real(state))[1])
    inst = gen_random(8, "1/2", max_cost=5, max_prize=5, seed=5)

    def checked(threshold, flag):
        monkeypatch.setattr(sv, "CHECK_DEFAULT_MAX_N", threshold)
        calls.clear()
        solve(inst, check_invariants=flag)
        return bool(calls)

    assert checked(8, None)  # n at the threshold: checks on
    assert not checked(7, None)  # n above it: checks off
    assert checked(0, True)
    assert not checked(100, False)


def test_checker_catches_poisoned_duals():
    inst = Instance(3, ((0, 1, 4), (1, 2, 1)), (10, 10, "1/4"))
    state = sv.init_state(inst)
    rescan_step(state)
    rescan_step(state)
    for check in GROWTH_CHECKS:
        check(state)  # healthy state passes
    # overload every constraint around vertex 0
    state._birth[0] -= 100 * state._scale
    for check in GROWTH_CHECKS:
        with pytest.raises(sv.InvariantError,
                           match="duals infeasible during growth: edge 0"):
            check(state)


def tied_state():
    """A state whose second step has length 0, checked after each step:
    edges 0 and 1 tighten together at clock 1."""
    inst = Instance(4, ((0, 1, 2), (2, 3, 2), (1, 2, 6)), (10, 10, 10, 10))
    state = sv.init_state(inst)
    rescan_step(state)
    sv.check_growth_invariants(state)
    rescan_step(state)
    sv.check_growth_invariants(state)
    assert state.trace[-1][:3] == (0, state._scale, "merge")
    return state


def shift(values, at, delta):
    """Add delta to values[at]; returns the undo."""
    values[at] += delta
    return lambda: values.__setitem__(at, values[at] - delta)


def swap_instance(state, prizes):
    inst = state.inst
    state.inst = Instance(inst.n, inst.edges, prizes)
    return lambda: setattr(state, "inst", inst)


def move_clock(state, delta):
    state.clock += delta
    return lambda: setattr(state, "clock", state.clock - delta)


@pytest.mark.parametrize("poison, message", [
    (lambda state: shift(state._birth, 0, -state._scale),
     "duals infeasible during growth: edge 0: slack -1"),
    (lambda state: shift(state._birth, 1, state._scale // 2),
     "forest edge 0 not tight: load 3/2 vs cost 2"),
    (lambda state: move_clock(state, 3 * state._scale),
     "duals infeasible during growth: edge 2: slack -2"),
    (lambda state: move_clock(state, -state._scale // 2),
     "duals infeasible during growth: negative-dual 4: slack -1/2"),
    (lambda state: swap_instance(state, (10, "1/2", 10, 10)),
     "duals infeasible during growth: set 1: slack -1/2"),
    (lambda state: swap_instance(state, state.inst.prizes), None),
], ids=["earlier-birth", "later-birth", "clock-forward", "clock-back",
        "other-instance", "equal-instance"])
def test_checker_rebuilds_a_poisoned_cache(poison, message):
    """The growth check holds nothing between calls: it builds its
    indexes from the state each time.  Checked after every step up to a
    zero-length step, the state is poisoned by a dead set's shifted
    birth, a moved clock or another instance object, and the next check
    raises what the naive checker raises; an equal instance passes as it
    does, and the repaired state passes again."""
    state = tied_state()
    undo = poison(state)
    assert [check_outcome(check, state)
            for check in GROWTH_CHECKS] == [message] * 2
    undo()
    for check in GROWTH_CHECKS:
        check(state)


def test_checker_catches_missing_forest_edge():
    inst = Instance(3, ((0, 1, 0), (1, 2, 0)), (1, 1, 1))
    state = sv.init_state(inst)
    rescan_step(state)
    rescan_step(state)
    for check in GROWTH_CHECKS:
        check(state)  # healthy state passes
    edge = state.forest.pop()  # family set now spans two forest pieces
    for check in GROWTH_CHECKS:
        with pytest.raises(sv.InvariantError,
                           match="forest does not connect family set 4"):
            check(state)
    state.forest.append(edge)
    for check in GROWTH_CHECKS:
        check(state)  # repaired, it passes again


def test_checker_catches_slack_forest_edge():
    # {2} saturates at 1/4 and {1} merges with it along edge 1 at 3/4;
    # shrinking the dead {1}'s dual by 1/4 leaves edge 1 slack
    inst = Instance(3, ((0, 1, 4), (1, 2, 1)), (10, 10, "1/4"))
    state = sv.init_state(inst)
    rescan_step(state)
    rescan_step(state)
    assert state.forest == [1] and not state._alive(1)
    for check in GROWTH_CHECKS:
        check(state)  # healthy state passes
    state._birth[1] += state._scale // 4
    for check in GROWTH_CHECKS:
        with pytest.raises(sv.InvariantError,
                           match="^forest edge 1 not tight: load 3/4 vs "
                                 "cost 1$"):
            check(state)


def test_checker_catches_unexhausted_saturated_set():
    # {2} saturates at 1/4; raising its prize to 1/2 keeps the duals
    # feasible but leaves it short of its prize
    edges = ((0, 1, 4), (1, 2, 1))
    state = sv.init_state(Instance(3, edges, (10, 10, "1/4")))
    rescan_step(state)
    assert state.saturated == {2}
    for check in GROWTH_CHECKS:
        check(state)  # healthy state passes
    state.inst = Instance(3, edges, (10, 10, "1/2"))
    for check in GROWTH_CHECKS:
        with pytest.raises(sv.InvariantError,
                           match="^saturated set 2 not exhausted$"):
            check(state)


def grown(inst):
    state = sv.init_state(inst)
    sv.run_phase1(state)
    return state


@pytest.mark.parametrize("tree_vs, edges", [
    ({0, 1, 2}, [1]),  # two edges short: disconnected
    ({0, 1, 2}, [0, 1, 1]),  # an edge repeated
    ({0, 1}, []),  # no edge between the two vertices
])
def test_prune_checker_catches_non_tree(tree_vs, edges):
    state = grown(Instance(3, ((0, 1, 4), (1, 2, 1)), (10, 10, "1/4")))
    messages = []
    for check in PRUNE_CHECKS:
        check(state, {0, 1}, [0])  # {2} pruned: a healthy tree passes
        with pytest.raises(sv.InvariantError, match="pruned subgraph") as info:
            check(state, tree_vs, edges)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_prune_checker_catches_tree_split_inside_family_set():
    # growth merges {0, 1} along edge 0 and then {2} along edge 1; the
    # path 0-2-1 is a tree but runs through 2 to join 0 and 1
    inst = Instance(3, ((0, 1, 1), (1, 2, 2), (0, 2, 10)), (10, 10, 10))
    state = grown(inst)
    assert state.forest == [0, 1]
    for check in PRUNE_CHECKS:
        check(state, {0, 1, 2}, [0, 1])
        with pytest.raises(sv.InvariantError, match="within family set 3"):
            check(state, {0, 1, 2}, [1, 2])


def test_prune_checker_catches_unsaturated_pruned_region():
    state = grown(Instance(3, ((0, 1, 4), (1, 2, 1)), (10, 10, "1/4")))
    for check in PRUNE_CHECKS:
        check(state, {0, 1}, [0])  # {2} pruned, saturated
        # keeping {1, 2} prunes {0}, which never saturated
        with pytest.raises(sv.InvariantError,
                           match=r"saturated sets \(1 vertices uncovered"):
            check(state, {1, 2}, [1])


def test_prune_checker_ignores_saturated_set_meeting_the_tree():
    # {0, 1} merges at clock 0 and saturates at 2, then joins {2}; {3}
    # saturates at 5, before {0, 1, 2}.  A tree keeping 1 and 2 prunes
    # 0, whose only saturated set {0, 1} the tree still meets
    state = grown(Instance(4, ((0, 1, 0), (1, 2, 4)), (1, 1, 10, 5)))
    assert state.saturated == {3, 4} and state.final_maximal == 5
    for check in PRUNE_CHECKS:
        check(state, {2}, [])
        with pytest.raises(sv.InvariantError,
                           match=r"saturated sets \(1 vertices uncovered"):
            check(state, {1, 2}, [1])


def test_growth_checker_catches_active_union_of_saturated_sets():
    # {0} and {1} merge at clock 1; lowering their prizes to their duals
    # and marking them saturated leaves the duals feasible and the
    # singletons exhausted, but the active set {0, 1} all saturated
    edges = ((0, 1, 2), (1, 2, 50))
    state = sv.init_state(Instance(3, edges, (5, 5, 10)))
    rescan_step(state)
    assert state.fam.maximal_ids() == [2, 3]
    for check in GROWTH_CHECKS:
        check(state)
    state.inst = Instance(3, edges, (1, 1, 10))
    state.saturated |= {0, 1}
    for check in GROWTH_CHECKS:
        with pytest.raises(sv.InvariantError,
                           match="active maximal set 3 is a union"):
            check(state)


# -- checks at the end of each phase ------------------------------------------


def poisoned_growth(inst, at, poison):
    """Grow inst with no check, poisoning the state right after step at.
    Returns None if the poison finds nothing to break then, and else the
    messages the growth check raises right after the poison and once
    growth has ended, with the steps taken after the poison."""
    state = sv.init_state(inst)
    after_step = state._after_step
    mid = []

    def poisoned_after_step():
        after_step()
        if state._steps == at and poison(state):
            mid.append(check_outcome(sv.check_growth_invariants, state))

    state._after_step = poisoned_after_step
    sv.run_phase1(state)
    if not mid:
        return None
    return mid[0], check_outcome(sv.check_growth_invariants, state), \
        state._steps - at


def dead_leaf(state):
    """A dead vertex of degree 1 whose edge is in the forest, with its
    dual and that edge, or None."""
    ends = state.inst.ends
    degree = [0] * state.inst.n
    for u, v in ends:
        degree[u] += 1
        degree[v] += 1
    for idx in state.forest:
        for v in ends[idx]:
            if degree[v] == 1 and not state._alive(v):
                return v, state._death[v] - state._birth[v], idx
    return None


def overload_a_dead_leaf(state):
    # its one edge, in the forest, is inside a set: its load stays fixed
    leaf = dead_leaf(state)
    if leaf:
        state._birth[leaf[0]] -= 1
    return leaf


def unload_a_dead_leaf(state):
    leaf = dead_leaf(state)
    if leaf and leaf[1]:
        state._birth[leaf[0]] += 1
        return leaf
    return None


def negate_a_dead_dual(state):
    dead = [sid for sid in state.fam.ids if not state._alive(sid)]
    if dead:
        state._birth[dead[0]] = state._death[dead[0]] + 1
    return dead


def raise_a_saturated_prize(state):
    vertices = sorted(state.saturated & set(range(state.inst.n)))
    if vertices:
        prizes = list(state.inst.prizes)
        prizes[vertices[0]] += 1
        swap_instance(state, tuple(prizes))
    return vertices


def split_the_first_union(state):
    # the first union loses its forest edge to a copy of a later one
    if len(state.forest) > 1:
        state.forest[0] = state.forest[-1]
        return True
    return False


# each invariant's poison and what the growth check says of it
GROWTH_BREAKS = {
    "infeasible-dual": (overload_a_dead_leaf,
                        r"duals infeasible during growth: edge \d+: "
                        r"slack -1/\d+"),
    "negative-dual": (negate_a_dead_dual,
                      r"duals infeasible during growth: negative-dual \d+: "
                      r"slack -1/\d+"),
    "slack-forest-edge": (unload_a_dead_leaf,
                          r"forest edge \d+ not tight: load \S+ vs cost \d+"),
    "unexhausted-set": (raise_a_saturated_prize,
                        r"saturated set \d+ not exhausted"),
    "forest-in-pieces": (split_the_first_union,
                         r"forest does not connect family set \d+"),
}


@pytest.mark.parametrize("name", sorted(GROWTH_BREAKS))
def test_a_growth_break_is_still_seen_when_growth_ends(name):
    """Each growth invariant, once broken, stays broken: poisoned right
    after any step of growth at which the poison finds something to
    break, growth runs on unchecked, and the one check at its end raises
    the message that a check right after the poison raises."""
    poison, message = GROWTH_BREAKS[name]
    inst = gen_random(24, "1/6", max_cost=10, max_prize=8, seed=5)
    breaks = 0
    for at in range(1, 2 * inst.n - 3):
        outcome = poisoned_growth(inst, at, poison)
        if outcome is None:
            continue
        mid, end, later_steps = outcome
        assert re.fullmatch(message, mid), (at, mid)
        assert end == mid, at
        breaks += later_steps > 0
    assert breaks >= 20, breaks


def test_a_union_born_of_saturated_sets_is_still_seen_when_growth_ends():
    """Whether a union is a union of saturated sets is settled at its
    birth.  {0} and {1} merge at clock 1 into set 4; lowering their
    prizes to their duals and marking them saturated then makes set 4
    one, though the duals stay feasible and the two exhausted.  Set 4
    joins {2} at once, and that union grows on and merges with {3}: the
    check once growth ends raises what the check after the merge did."""
    inst = Instance(4, ((0, 1, 2), (1, 2, 2), (2, 3, 10)), (10, 10, 10, 10))

    def saturate_the_children(state):
        swap_instance(state, (1, 1, 10, 10))
        state.saturated |= {0, 1}
        return True

    mid, end, later_steps = poisoned_growth(inst, 1, saturate_the_children)
    assert mid == end == "active maximal set 4 is a union of saturated sets"
    assert later_steps == 2


def test_checked_solve_checks_each_phase_once_at_its_end(monkeypatch):
    """A checked solve runs the growth check once, after growth, and the
    prune check once, on the solution's tree, reading the growth check's
    family index."""
    calls = []
    for name in ("check_growth_invariants", "check_prune_invariants"):
        def check(state, *args, real=getattr(sv, name), name=name):
            calls.append((name, state.phase, *args))
            return real(state, *args)

        monkeypatch.setattr(sv, name, check)
    sol = solve(gen_random(40, "1/8", max_cost=10, max_prize=8, seed=3),
                check_invariants=True)
    growth, prune = calls
    assert growth == ("check_growth_invariants", sv.PHASE_PRUNE)
    assert prune[:4] == ("check_prune_invariants", sv.PHASE_DONE,
                         sol.tree_vertices, sol.tree_edge_indices)
    assert isinstance(prune[4], verify.FamilyIndex)
    assert events_of(sol.trace, "prune")


# -- the solver's own guards -----------------------------------------------------


def guard_message(state, run):
    with pytest.raises(sv.InvariantError) as info:
        run(state)
    return str(info.value)


def test_saturation_guard_refuses_an_unexhausted_prize():
    """A set whose saturation clock no longer matches its queued key is
    refused when the key pops."""
    state = sv.init_state(Instance(2, ((0, 1, 100),), (2, 4)))
    state._sat_clock[0] += 2
    assert guard_message(state, sv.run_phase1) == \
        "set 0 saturating while its prize is not exhausted"


def test_event_queue_guard_refuses_a_key_in_the_past():
    state = sv.init_state(Instance(3, ((0, 1, 2), (1, 2, 8)), (10, 10, 10)))
    after_step = state._after_step

    def queue_a_past_key():
        after_step()
        heapq.heappush(state._heap, 0)  # set 0 saturating at clock 0

    state._after_step = queue_a_past_key
    assert guard_message(state, sv.run_phase1) == \
        "event queue went backwards in time"


def test_merge_guard_refuses_a_key_past_the_edges_tight_time():
    """An edge whose cost drops below its loads at its key's time was
    keyed too late."""
    state = sv.init_state(Instance(2, ((0, 1, 4),), (10, 10)))
    state._cost = [state._cost[0] - 2]
    assert guard_message(state, sv.run_phase1) == (
        "edge 0 overloaded at its key's time: the key was no lower bound")


def test_prune_guard_refuses_a_forest_out_of_step_with_the_family():
    state = sv.init_state(Instance(3, ((0, 1, 2), (1, 2, 8)), (10, 10, 10)))
    sv.run_phase1(state)
    state.forest.append(0)
    assert guard_message(state, sv.run_phase2) == \
        "family and forest are out of step"


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
