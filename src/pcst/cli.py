"""Command line front end.

Four subcommands: ``solve`` runs the approximation and prints a report,
``exact`` runs the brute-force oracle, ``gen`` writes generated
instances, and ``verify`` re-checks a saved solution against its
instance with the independent verifier in ``pcst.verify``.

Conventions shared by all commands:

* every rational is printed exactly as "p/q"; human output adds a
  decimal approximation in parentheses, json output stays exact only
* timings go to standard error so that standard output is byte-for-byte
  reproducible for identical inputs and flags
* exit codes: 0 success, 1 usage error, 2 parse error, 3 verification
  failure, 4 internal invariant failure

A command refuses by raising ``_Refusal`` where the fault is found: the
reader of the input files, the parsers, the output writer or the
command's own usage check.  ``main`` prints its one line on standard
error and returns its exit code; it also turns the solver's
``InvariantError`` into exit 4, for every command.  Any other exception
propagates.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
import time
from fractions import Fraction
from typing import Optional

from . import laminar as lam
from . import oracle as oracle_mod
from . import solver as solver_mod
from . import verify as verify_mod
from .instance import (FORMATS, MAX_TOTAL_BITS, Instance, ParseError,
                       _json_list, _json_text, _load_json, approx_decimal,
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


class _Refusal(Exception):
    """A command's refusal, raised where its fault is found: main prints
    the line on standard error and returns the exit code."""

    def __init__(self, code: int, line: str):
        super().__init__(line)
        self.code = code


def _read(path: str) -> str:
    """The text of an input file, the instance or the solution
    document, read whole before it is parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _Refusal(EXIT_PARSE, f"error: cannot read {path}: "
                                   f"{exc.strerror or exc}")
    except ValueError as exc:  # not utf-8
        raise _Refusal(EXIT_PARSE, f"error: {path}: {exc}")


def _load_instance(path: str, fmt: Optional[str]) -> Instance:
    fmt = fmt or ("stp" if path.endswith(".stp") else "json")
    try:
        return parse_instance(_read(path), fmt)
    except ValueError as exc:  # a ParseError among them
        raise _Refusal(EXIT_PARSE, f"error: {path}: {exc}")


# -- solve -------------------------------------------------------------------


_REPORTED_KEYS = ("cost", "penalty", "objective", "lagrangean_objective",
                  "lower_bound")


def _solution_document(inst: Instance, sol: solver_mod.Solution,
                       trace_path: Optional[str]) -> str:
    """The solution document as json text, in json.dumps(..., indent=2)'s
    layout, written from the solution's ints; every string goes
    through json.dumps."""
    ratio = None
    if sol.lower_bound > 0:
        ratio = format_rational(sol.objective / sol.lower_bound)
    edges = [f"[\n        {u},\n        {v}\n      ]"
             for u, v in sol.tree_edges]
    totals = "".join(
        f'  "{key}": {json.dumps(format_rational(getattr(sol, key)))},\n'
        for key in _REPORTED_KEYS)
    return (
        f'{{\n  "schema": {json.dumps(SOLUTION_SCHEMA)},\n'
        f'  "instance": {{\n    "n": {inst.n},\n    "m": {inst.m}\n  }},\n'
        '  "tree": {\n'
        f'    "vertices": '
        f'{_json_list(list(map(str, sorted(sol.tree_vertices))), 2)},\n'
        f'    "edges": {_json_list(edges, 2)},\n'
        f'    "edge_indices": '
        f'{_json_list(list(map(str, sol.tree_edge_indices)), 2)}\n'
        f'  }},\n{totals}'
        f'  "ratio_vs_lower_bound": {json.dumps(ratio)},\n'
        f'  "minimizing_vertex": {sol.minimizing_vertex},\n'
        f'  "laminar": {lam.to_records(sol.fam, sol.duals)},\n'
        f'  "trace_file": {json.dumps(trace_path)}\n}}')


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


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Refusal(EXIT_USAGE, f"error: cannot write {path}: "
                                   f"{exc.strerror}")


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance, args.format)
    started = time.perf_counter()
    sol = solver_mod.solve(inst, check_invariants=args.check)
    _note_time("solve", started)
    if args.trace:
        _write(args.trace, solver_mod.trace_json_lines(sol))
    if args.json:
        print(_solution_document(inst, sol, args.trace))
    else:
        _print_solution_report(inst, sol, args.trace)
    return EXIT_OK


# -- exact -------------------------------------------------------------------


def cmd_exact(args) -> int:
    inst = _load_instance(args.instance, args.format)
    started = time.perf_counter()
    try:
        res = oracle_mod.exact_solve(inst, limit_n=args.limit)
    except ValueError as exc:
        raise _Refusal(EXIT_USAGE, f"error: {exc}")
    _note_time("exact", started)
    sol = ratio = None
    if args.compare:
        started = time.perf_counter()
        sol = solver_mod.solve(inst)
        _note_time("solve", started)
        if res.optimum > 0:
            ratio = sol.objective / res.optimum
    if args.json:
        print(_json_text({
            "schema": "pcst-exact/1",
            "instance": {"n": inst.n, "m": inst.m},
            "optimum": format_rational(res.optimum),
            "witness": {
                "vertices": sorted(res.witness_vertices),
                "edges": [list(e) for e in res.witness_edges],
            },
            "explored": res.explored,
            "comparison": None if sol is None else {
                "objective": format_rational(sol.objective),
                "lagrangean_objective":
                    format_rational(sol.lagrangean_objective),
                "lower_bound": format_rational(sol.lower_bound),
                "ratio": None if ratio is None else format_rational(ratio),
            },
        }))
    else:
        print(f"instance: n={inst.n}, m={inst.m}")
        print(f"optimum: {_fmt_pair(res.optimum)}")
        vs = " ".join(map(str, sorted(res.witness_vertices))) or "(none)"
        print(f"witness vertices: {vs}")
        es = " ".join(f"({u},{v})" for u, v in res.witness_edges) or "(none)"
        print(f"witness edges: {es}")
        print(f"subsets explored: {res.explored}")
        if sol is not None:
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
        raise _Refusal(EXIT_USAGE, f"error: {exc}")
    text = emit_instance(inst, args.format or "json")
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- verify ------------------------------------------------------------------


def _load_solution(text: str):
    """Parse a solution document into (tree, records, reported).

    Raises ParseError for anything structurally wrong with it; semantic
    problems are left for the audit to flag.
    """
    try:
        doc = _load_json(text)
    except ValueError as exc:  # bad json, an over-long integer
        raise ParseError(str(exc))
    except RecursionError:
        raise ParseError("json nested too deeply")
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
        vertices, edges = tree_obj["vertices"], tree_obj["edges"]
        for name, value in (("tree vertices", vertices), ("tree edges", edges),
                            ("laminar", doc["laminar"])):
            if not isinstance(value, list):
                raise ValueError(f"{name} must be a list")
        for k, edge in enumerate(edges):
            if not isinstance(edge, list) or len(edge) != 2:
                raise ValueError(f"tree edge {k} must be a list of two "
                                 "vertices")
        tree = verify_mod.make_tree(vertices, edges)
        records = lam.records_from_json(doc["laminar"])
        reported = {}
        for key in _REPORTED_KEYS:
            try:
                value = reported[key] = parse_rational(doc[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}")
            if max(value.numerator.bit_length(),
                   value.denominator.bit_length()) > MAX_TOTAL_BITS:
                raise ValueError(f"{key} needs more than {MAX_TOTAL_BITS} "
                                 "bits")
        if type(doc["minimizing_vertex"]) is not int:
            raise ValueError("minimizing_vertex must be an integer")
        reported["minimizing_vertex"] = doc["minimizing_vertex"]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed solution field: {exc}")
    return tree, records, reported


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance, args.format)
    try:
        tree, records, reported = _load_solution(_read(args.solution))
        fam, duals = lam.from_records(records, inst.n)
        # the audit's ints are over its scale; a solve's duals add up to
        # at most the prize total, within the instance's budget, and a
        # larger total could make an audit value unprintable
        unit = verify_mod.audit_scale(duals, inst) // duals.scale
        bits = (sum(duals.y) * unit).bit_length()
        if bits > MAX_TOTAL_BITS:
            raise ParseError(f"the dual total, at the audit's scale, needs "
                             f"{bits} bits, more than {MAX_TOTAL_BITS}")
    except ParseError as exc:  # malformed, or past the budget
        raise _Refusal(EXIT_PARSE, f"error: {args.solution}: {exc}")
    except ValueError as exc:
        # shape mismatch between solution and instance: a verification
        # failure, not a parse error; both files are individually fine
        raise _Refusal(EXIT_VERIFY, f"solution does not fit instance: {exc}")
    results = verify_mod.audit_solution(inst, fam, duals, tree, reported)
    ok = all(res.passed for res in results)
    if args.json:
        print(_json_text({
            "schema": "pcst-verify/1",
            "checks": [res.to_json_obj() for res in results],
            "pass": ok,
        }))
    else:
        for res in results:
            verdict = "pass" if res.passed else "FAIL"
            extra = ""
            if res.lhs is not None:
                cmp_sign = "<=" if res.lhs <= res.rhs else ">"
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


@functools.cache
def _parser() -> _Parser:
    """The parser build_parser defines, built once per process: each
    build leaves a few hundred objects in reference cycles."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code.  A refusal and an
    invariant failure of the solver, from any command, are printed here
    as one line on standard error.  The cyclic collector is paused while
    the command runs, and left as it was found: a solve or verify makes
    no reference cycle, so a collection would only walk the solve's
    data."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _Refusal as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except solver_mod.InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    finally:
        if enabled:
            gc.enable()


def entry():
    raise SystemExit(main())
