"""Command line front end.

Four subcommands: ``solve`` runs the approximation and prints a report,
``exact`` runs the brute-force oracle, ``gen`` writes generated
instances, and ``verify`` re-checks a saved solution against its
instance with the naive verifier.

Conventions shared by all commands:

* every rational is printed exactly as "p/q"; human output adds a
  decimal approximation in parentheses, json output stays exact only
* timings go to standard error so that standard output is byte-for-byte
  reproducible for identical inputs and flags
* exit codes: 0 success, 1 usage error, 2 parse error, 3 verification
  failure, 4 internal invariant failure
* PCST_CHECK=1 in the environment forces invariant checking everywhere
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional

from . import laminar as lam
from . import oracle as oracle_mod
from . import solver as solver_mod
from . import verify as verify_mod
from .instance import (FORMATS, Instance, ParseError, approx_decimal,
                       emit_instance, format_rational, gen_random,
                       gen_tight_path, gen_tight_star, parse_instance,
                       parse_rational)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_INVARIANT = 4

SOLUTION_SCHEMA = "pcst-solution/2"
GEN_KINDS = ("tight-star", "tight-path", "random")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2
    for parse errors, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _rational(token: str) -> Fraction:
    # argparse turns the ValueError into a usage error (exit 1)
    return parse_rational(token)


def _fmt_pair(value: Fraction) -> str:
    return f"{format_rational(value)} ({approx_decimal(value)})"


def _note_time(label: str, started: float):
    print(f"{label} time: {time.perf_counter() - started:.3f}s",
          file=sys.stderr)


def _guess_format(path: str, override: Optional[str]) -> str:
    if override:
        return override
    return "stp" if path.endswith(".stp") else "json"


def _read_instance(path: str, fmt: Optional[str]) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_instance(text, _guess_format(path, fmt))


def _load_instance_or_fail(path: str, fmt: Optional[str]):
    """Returns (instance, None) or (None, exit_code) with the message
    already printed to standard error."""
    try:
        return _read_instance(path, fmt), None
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return None, EXIT_PARSE
    except (ParseError, ValueError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, EXIT_PARSE


# -- solve -------------------------------------------------------------------


def _solution_json_obj(inst: Instance, sol: solver_mod.Solution,
                       trace_path: Optional[str]) -> dict:
    ratio = None
    if sol.lower_bound > 0:
        ratio = format_rational(sol.objective / sol.lower_bound)
    return {
        "schema": SOLUTION_SCHEMA,
        "instance": {"n": inst.n, "m": inst.m},
        "tree": {
            "vertices": sorted(sol.tree_vertices),
            "edges": [list(e) for e in sol.tree_edges],
            "edge_indices": list(sol.tree_edge_indices),
        },
        "cost": format_rational(sol.cost),
        "penalty": format_rational(sol.penalty),
        "objective": format_rational(sol.objective),
        "lagrangean_objective": format_rational(sol.lagrangean_objective),
        "lower_bound": format_rational(sol.lower_bound),
        "ratio_vs_lower_bound": ratio,
        "minimizing_vertex": sol.minimizing_vertex,
        "laminar": [rec.to_json_obj()
                    for rec in lam.to_records(sol.fam, sol.duals)],
        "trace_file": trace_path,
    }


def _print_solution_report(inst: Instance, sol: solver_mod.Solution,
                           trace_path: Optional[str]):
    print(f"instance: n={inst.n}, m={inst.m}")
    print(f"tree: {len(sol.tree_vertices)} vertices, "
          f"{len(sol.tree_edges)} edges")
    print(f"cost: {_fmt_pair(sol.cost)}")
    print(f"penalty: {_fmt_pair(sol.penalty)}")
    print(f"objective: {_fmt_pair(sol.objective)}")
    print(f"lagrangean objective: {_fmt_pair(sol.lagrangean_objective)}")
    print(f"lower bound: {_fmt_pair(sol.lower_bound)}")
    if sol.lower_bound > 0:
        print("ratio vs lower bound: "
              f"{_fmt_pair(sol.objective / sol.lower_bound)}")
    else:
        print("ratio vs lower bound: n/a (lower bound is 0)")
    print(f"minimizing vertex: {sol.minimizing_vertex}")
    if trace_path:
        print(f"trace: {trace_path}")


def cmd_solve(args) -> int:
    inst, code = _load_instance_or_fail(args.instance, args.format)
    if inst is None:
        return code
    started = time.perf_counter()
    try:
        sol = solver_mod.solve(inst, check_invariants=args.check)
    except solver_mod.InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    _note_time("solve", started)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(solver_mod.trace_json_lines(sol.trace))
    if args.json:
        print(json.dumps(_solution_json_obj(inst, sol, args.trace),
                         indent=2))
    else:
        _print_solution_report(inst, sol, args.trace)
    return EXIT_OK


# -- exact -------------------------------------------------------------------


def cmd_exact(args) -> int:
    inst, code = _load_instance_or_fail(args.instance, args.format)
    if inst is None:
        return code
    started = time.perf_counter()
    try:
        res = oracle_mod.exact_solve(inst, limit_n=args.limit)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _note_time("exact", started)
    comparison = None
    if args.compare:
        started = time.perf_counter()
        sol = solver_mod.solve(inst)
        _note_time("solve", started)
        ratio = None
        if res.optimum > 0:
            ratio = sol.objective / res.optimum
        comparison = (sol, ratio)
    if args.json:
        obj = {
            "schema": "pcst-exact/1",
            "instance": {"n": inst.n, "m": inst.m},
            "optimum": format_rational(res.optimum),
            "witness": {
                "vertices": sorted(res.witness_vertices),
                "edges": [list(e) for e in res.witness_edges],
            },
            "explored": res.explored,
            "comparison": None,
        }
        if comparison:
            sol, ratio = comparison
            obj["comparison"] = {
                "objective": format_rational(sol.objective),
                "lagrangean_objective":
                    format_rational(sol.lagrangean_objective),
                "lower_bound": format_rational(sol.lower_bound),
                "ratio": None if ratio is None else format_rational(ratio),
            }
        print(json.dumps(obj, indent=2))
    else:
        print(f"instance: n={inst.n}, m={inst.m}")
        print(f"optimum: {_fmt_pair(res.optimum)}")
        vs = " ".join(map(str, sorted(res.witness_vertices))) or "(none)"
        print(f"witness vertices: {vs}")
        es = " ".join(f"({u},{v})" for u, v in res.witness_edges) or "(none)"
        print(f"witness edges: {es}")
        print(f"subsets explored: {res.explored}")
        if comparison:
            sol, ratio = comparison
            print(f"approximation objective: {_fmt_pair(sol.objective)}")
            if ratio is None:
                print("realized ratio: n/a (optimum is 0)")
            else:
                print(f"realized ratio: {_fmt_pair(ratio)}")
    return EXIT_OK


# -- gen ---------------------------------------------------------------------


def cmd_gen(args) -> int:
    def need(flag_value, flag_name):
        if flag_value is None:
            raise ValueError(f"gen {args.kind} requires {flag_name}")
        return flag_value

    try:
        if args.kind == "tight-star":
            inst = gen_tight_star(need(args.rho, "--rho"))
        elif args.kind == "tight-path":
            inst = gen_tight_path(need(args.k, "--k"),
                                  need(args.rho, "--rho"))
        else:
            inst = gen_random(need(args.n, "--n"), args.p, args.max_cost,
                              args.max_prize, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = emit_instance(inst, args.format or "json")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- verify ------------------------------------------------------------------


_REPORTED_KEYS = ("cost", "penalty", "objective", "lagrangean_objective",
                  "lower_bound")


def _load_solution(path: str):
    """Parse a solution document into (tree, records, reported).

    Raises ParseError for anything structurally wrong with the file;
    semantic problems are left for the audit to flag.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc))
    if not isinstance(doc, dict):
        raise ParseError("solution document must be a json object")
    missing = ({"tree", "laminar", "minimizing_vertex"}
               | set(_REPORTED_KEYS)) - set(doc)
    if missing:
        raise ParseError(f"solution document missing keys {sorted(missing)}")
    tree_obj = doc["tree"]
    if not isinstance(tree_obj, dict) \
            or not {"vertices", "edges"} <= set(tree_obj):
        raise ParseError("solution tree must carry vertices and edges")
    try:
        tree = verify_mod.make_tree(tree_obj["vertices"], tree_obj["edges"])
        records = lam.records_from_json(doc["laminar"])
        reported = {key: parse_rational(doc[key]) for key in _REPORTED_KEYS}
        reported["minimizing_vertex"] = int(doc["minimizing_vertex"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed solution field: {exc}")
    return tree, records, reported


def cmd_verify(args) -> int:
    inst, code = _load_instance_or_fail(args.instance, args.format)
    if inst is None:
        return code
    try:
        tree, records, reported = _load_solution(args.solution)
    except ParseError as exc:
        print(f"error: {args.solution}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        fam, duals = lam.from_records(records, inst.n)
    except ValueError as exc:
        # shape mismatch between solution and instance: a verification
        # failure, not a parse error; both files are individually fine
        print(f"solution does not fit instance: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    results = verify_mod.audit_solution(inst, fam, duals, tree, reported)
    ok = all(res.passed for res in results)
    if args.json:
        print(json.dumps({
            "schema": "pcst-verify/1",
            "checks": [res.to_json_obj() for res in results],
            "pass": ok,
        }, indent=2))
    else:
        for res in results:
            verdict = "pass" if res.passed else "FAIL"
            extra = ""
            if res.lhs is not None:
                cmp_sign = "<=" if res.passed else ">"
                extra = (f" (lhs {format_rational(res.lhs)} {cmp_sign} "
                         f"rhs {format_rational(res.rhs)})")
            if res.detail:
                extra += f" [{res.detail}]"
            print(f"check {res.name}: {verdict}{extra}")
        print("verification: " + ("pass" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_VERIFY


# -- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="pcst",
                     description="Prize-collecting Steiner tree solver "
                                 "with exact rational arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{solve,exact,gen,verify}")

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default=None,
                       help="instance format; default: by file extension")

    p_solve = sub.add_parser("solve", help="run the approximation")
    p_solve.add_argument("instance", help="instance file")
    add_format(p_solve)
    p_solve.add_argument("--trace", metavar="PATH", default=None,
                         help="write the event trace as json lines")
    p_solve.add_argument("--check-invariants", dest="check",
                         action="store_true", default=None,
                         help="check invariants after every step")
    p_solve.add_argument("--no-check-invariants", dest="check",
                         action="store_false",
                         help="skip invariant checking even on small inputs")
    p_solve.add_argument("--json", action="store_true",
                         help="print the full solution document as json")
    p_solve.set_defaults(func=cmd_solve)

    p_exact = sub.add_parser("exact", help="run the brute-force oracle")
    p_exact.add_argument("instance", help="instance file")
    add_format(p_exact)
    p_exact.add_argument("--limit", type=int, default=18,
                         help="refuse instances with more vertices")
    p_exact.add_argument("--compare", action="store_true",
                         help="also run the approximation and print "
                              "the realized ratio")
    p_exact.add_argument("--json", action="store_true",
                         help="print the result as json")
    p_exact.set_defaults(func=cmd_exact)

    p_gen = sub.add_parser("gen", help="generate an instance")
    p_gen.add_argument("kind", choices=GEN_KINDS)
    p_gen.add_argument("--rho", type=_rational, default=None,
                       help="gap parameter for the tight families")
    p_gen.add_argument("--k", type=int, default=None,
                       help="edge count for tight-path")
    p_gen.add_argument("--n", type=int, default=None,
                       help="vertex count for random")
    p_gen.add_argument("--p", type=_rational, default=Fraction(1, 2),
                       help="edge probability for random (default 1/2)")
    p_gen.add_argument("--max-cost", type=int, default=10,
                       help="largest random edge cost (default 10)")
    p_gen.add_argument("--max-prize", type=int, default=10,
                       help="largest random prize (default 10)")
    p_gen.add_argument("--seed", type=int, default=0,
                       help="random seed (default 0)")
    p_gen.add_argument("--out", metavar="PATH", default=None,
                       help="output file; default: standard output")
    p_gen.add_argument("--format", choices=FORMATS, default=None,
                       help="output format (default json)")
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify",
                              help="re-check a saved solution")
    p_verify.add_argument("solution", help="solution json from solve --json")
    p_verify.add_argument("instance", help="instance file")
    add_format(p_verify)
    p_verify.add_argument("--json", action="store_true",
                          help="print check results as json")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry():
    raise SystemExit(main())
