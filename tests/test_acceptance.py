"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every numeric comparison is an exact rational comparison, zero
tolerance.  The only approximate pins are the three wall-clock limits:
1 s for the tight-family reproduction, 2 min for building the
1000-instance sweep, 10 s for the n=1000 smoke test.

The verdict lines print straight to the terminal (bypassing capture) so
a full run always shows one line per criterion.
"""
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import connected_subsets_naive, random_connected_subtree
from pcst import (Tree, cluster_count_bound, exact_solve, gen_random,
                  gen_tight_star, growth_inequality, solve, tree_bound)
from pcst.oracle import iter_connected_masks
from pcst.verify import DualIndex, TreeIndex


@pytest.fixture
def verdict(capsys):
    """Prints 'acceptance N [PASS|FAIL]: text' on the live terminal."""
    def _print(num, ok, text):
        with capsys.disabled():
            print(f"\nacceptance {num} [{'PASS' if ok else 'FAIL'}]: {text}")
    return _print


def test_criterion_1_tight_family_reproduction(verdict):
    ok = False
    try:
        started = time.perf_counter()
        for rho in (Fraction(1), Fraction(1, 10), Fraction(1, 100)):
            inst = gen_tight_star(rho)
            sol = solve(inst)
            assert sol.objective == 4, (rho, sol.objective)
            res = exact_solve(inst)
            assert res.optimum == 2 + rho, (rho, res.optimum)
            assert res.witness_vertices == {0}
        ratio = Fraction(4) / (2 + Fraction(1, 100))
        assert ratio > Fraction(199, 100)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        verdict(1, ok, "tight star: solve gives exactly 4, optimum "
                       "exactly 2+rho with witness {0}, ratio beyond "
                       "199/100 at rho=1/100, under 1 s")


def test_criterion_2_factor_two_guarantee_on_sweep(verdict, sweep):
    ok = False
    try:
        assert not sweep.failures, sweep.failures[:3]
        assert len(sweep.runs) >= 1000
        for run in sweep.runs:
            lag = run.sol.lagrangean_objective
            assert lag <= 2 * run.opt.optimum, run.seed
            assert lag <= 2 * run.sol.lower_bound, run.seed
            assert run.sol.lower_bound <= run.opt.optimum, run.seed
        assert sweep.seconds < 120.0, f"sweep took {sweep.seconds:.1f}s"
        ok = True
    finally:
        verdict(2, ok, "cost + 2*penalty <= 2*optimum and <= 2*certificate "
                       "bound, bound <= optimum, exactly, on 1000 seeded "
                       f"instances built in {sweep.seconds:.1f}s (< 120 s)")


def test_criterion_3_invariants_zero_failures(verdict, sweep):
    ok = False
    try:
        # every sweep solve ran with per-step invariant checking enabled;
        # any violation would have raised and landed in failures
        assert sweep.failures == [], sweep.failures[:3]
        assert len(sweep.runs) == 1000
        assert all(run.inst.n <= 10 for run in sweep.runs)
        ok = True
    finally:
        verdict(3, ok, "growth and prune invariants checked after every "
                       "iteration on the sweep: zero failures")


def test_criterion_4_per_vertex_output_bound(verdict, sweep):
    ok = False
    try:
        assert sweep.runs
        for run in sweep.runs:
            tree = run.sol.tree()
            fam, duals = run.sol.fam, run.sol.duals
            for o in range(run.inst.n):
                lhs, rhs = growth_inequality(fam, duals, tree, o)
                assert lhs <= rhs, (run.seed, o, lhs, rhs)
        ok = True
    finally:
        verdict(4, ok, "per-vertex growth inequality holds exactly for "
                       "every vertex of every sweep solution")


def test_criterion_5_bound_property_sweeps(verdict, sweep):
    ok = False
    counting_checked = 0
    try:
        assert sweep.runs
        for run in sweep.runs:
            inst, sol = run.inst, run.sol
            fam, duals = sol.fam, sol.duals
            rng = random.Random(7919 * run.seed + 13)
            trees = [sol.tree(),
                     Tree(run.opt.witness_vertices, run.opt.witness_edges)]
            trees += [Tree(frozenset({v}), ()) for v in range(inst.n)]
            trees += [random_connected_subtree(inst, rng)
                      for _ in range(100)]
            # one snapshot per run: its dual index serves every tree,
            # and each tree's index serves both bounds
            index = DualIndex(fam, duals, inst)
            for tree in trees:
                tree_index = TreeIndex(fam, tree, inst)
                lhs, rhs = tree_bound(fam, duals, inst, tree, index,
                                      tree_index)
                assert lhs <= rhs, (run.seed, tree, lhs, rhs)
                try:
                    clhs, crhs = cluster_count_bound(fam, duals.saturated,
                                                     tree, tree_index)
                except ValueError:
                    continue  # hypotheses not met for this tree
                counting_checked += 1
                assert clhs <= crhs, (run.seed, tree, clhs, crhs)
        assert counting_checked > 0
        ok = True
    finally:
        verdict(5, ok, "tree bound on output tree, witness, singletons "
                       "and 100 random subtrees per instance; counting "
                       f"bound on the {counting_checked} trees meeting "
                       "its hypotheses; zero failures")


def test_criterion_6_enumerator_self_check(verdict):
    ok = False
    try:
        for seed in range(100):
            n = 1 + seed % 10
            inst = gen_random(n, "1/2", max_cost=6, max_prize=6,
                              seed=3000 + seed)
            pairs = [(u, v) for u, v, _ in inst.edges]
            masks = [0] * n
            for u, v in pairs:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            got = {frozenset(i for i in range(n) if mask >> i & 1)
                   for mask in iter_connected_masks(n, masks)}
            assert got == connected_subsets_naive(n, pairs), seed
        ok = True
    finally:
        verdict(6, ok, "connected-subset enumeration equals the power-set "
                       "filter on 100 seeded instances with n <= 10")


def test_criterion_7_byte_identical_runs(verdict, tmp_path):
    ok = False
    try:
        cases = [
            ("star.json", ["gen", "tight-star", "--rho", "1/100"]),
            ("rand.json", ["gen", "random", "--n", "12", "--p", "2/3",
                           "--seed", "31"]),
        ]
        for fname, gen_args in cases:
            path = tmp_path / fname
            subprocess.run([sys.executable, "-m", "pcst", *gen_args,
                            "--out", str(path)], check=True)
            outputs = []
            traces = []
            trace = tmp_path / f"{fname}.trace"
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "pcst", "solve", str(path),
                     "--json", "--trace", str(trace)],
                    capture_output=True, check=True)
                outputs.append(proc.stdout)
                traces.append(trace.read_bytes())
            assert outputs[0] == outputs[1], fname
            assert traces[0] == traces[1], fname
            human = [subprocess.run(
                [sys.executable, "-m", "pcst", "solve", str(path)],
                capture_output=True, check=True).stdout
                for _ in range(2)]
            assert human[0] == human[1], fname
        ok = True
    finally:
        verdict(7, ok, "repeat solve runs produce byte-identical traces, "
                       "json documents, and human reports")


def test_criterion_8_scale_smoke_test(verdict):
    ok = False
    elapsed = None
    try:
        inst = gen_random(1000, Fraction(8, 1000), max_cost=10,
                          max_prize=8, seed=99)
        assert inst.n == 1000
        assert 3500 <= inst.m <= 4500, inst.m
        started = time.perf_counter()
        sol = solve(inst, check_invariants=False)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        assert sol.lagrangean_objective <= 2 * sol.lower_bound
        ok = True
    finally:
        shown = "n/a" if elapsed is None else f"{elapsed:.2f}s"
        verdict(8, ok, f"n=1000, m~4000 instance solved in {shown} "
                       "with checking off (limit 10 s)")
