"""Prize-collecting Steiner tree: primal-dual approximation with exact
rational arithmetic, a duality certificate, a brute-force oracle, and an
independent verifier.

Typical use:

    from pcst import gen_random, solve, exact_solve

    inst = gen_random(8, "1/2", max_cost=10, max_prize=8, seed=7)
    sol = solve(inst)
    opt = exact_solve(inst)
    assert sol.lagrangean_objective <= 2 * opt.optimum
"""
from .instance import (FORMATS, Instance, ParseError, approx_decimal,
                       emit_instance, format_rational, gen_random,
                       gen_tight_path, gen_tight_star, parse_instance,
                       parse_rational, rational_token)
from .laminar import (DualAssignment, LaminarFamily, from_records,
                      records_from_json, to_records)
from .oracle import ExactResult, exact_solve
from .solver import (Event, InvariantError, Solution, SolverState,
                     init_state, run_phase1, run_phase2, solve,
                     trace_json_lines)
from .verify import (Certificate, CheckResult, Tree, Violation,
                     audit_solution, certificate, check_feasibility,
                     cluster_count_bound, growth_inequality, make_tree,
                     tree_bound, tree_predicates)

__version__ = "0.1.0"

__all__ = [
    "FORMATS", "Instance", "ParseError", "approx_decimal",
    "emit_instance", "format_rational", "gen_random", "gen_tight_path",
    "gen_tight_star", "parse_instance", "parse_rational",
    "rational_token",
    "DualAssignment", "LaminarFamily", "from_records",
    "records_from_json", "to_records",
    "ExactResult", "exact_solve",
    "Event", "InvariantError", "Solution", "SolverState", "init_state",
    "run_phase1", "run_phase2", "solve", "trace_json_lines",
    "Certificate", "CheckResult", "Tree", "Violation", "audit_solution",
    "certificate", "check_feasibility", "cluster_count_bound",
    "growth_inequality", "make_tree", "tree_bound", "tree_predicates",
    "__version__",
]
