"""Command line front end: subcommands, exit codes, output formats."""
import copy
import gc
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import halve_scale
from pcst import cli, solve
from pcst.cli import main
from pcst.instance import (MAX_SCALE_BITS, MAX_TOTAL_BITS, Instance,
                          emit_instance, format_rational, gen_random,
                          gen_tight_path, gen_tight_star)


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.json"
    assert run_cli("gen", "tight-star", "--rho", "1", "--out",
                   str(path)) == 0
    return path


@pytest.fixture
def solved(tmp_path, star_file, capsys):
    assert run_cli("solve", str(star_file), "--json") == 0
    out = capsys.readouterr().out
    path = tmp_path / "sol.json"
    path.write_text(out, encoding="utf-8")
    return star_file, path, json.loads(out)


# -- solve ---------------------------------------------------------------------


def test_solve_human_report(star_file, capsys):
    assert run_cli("solve", str(star_file)) == 0
    captured = capsys.readouterr()
    assert "instance: n=3, m=2" in captured.out
    assert "objective: 4/1 (4)" in captured.out
    assert "lower bound: 2/1 (2)" in captured.out
    assert "ratio vs lower bound: 2/1 (2)" in captured.out
    # timing lines stay off the report stream
    assert "time" not in captured.out
    assert "solve time" in captured.err


def test_solve_json_document(solved):
    _, _, doc = solved
    assert doc["schema"] == "pcst-solution/2"
    assert doc["instance"] == {"n": 3, "m": 2}
    assert doc["objective"] == "4/1"
    assert doc["lagrangean_objective"] == "4/1"
    assert doc["lower_bound"] == "2/1"
    assert doc["minimizing_vertex"] == 0
    assert doc["tree"]["vertices"] == [0, 1, 2]
    assert len(doc["laminar"]) == 5
    assert set(doc["laminar"][4]) == {"id", "y", "saturated", "parent"}
    assert doc["trace_file"] is None


def reference_document(inst, sol, trace_path):
    """The solution document as a dict, for json.dumps(..., indent=2):
    the layout the CLI's writer reproduces as text."""
    ratio = None
    if sol.lower_bound > 0:
        ratio = format_rational(sol.objective / sol.lower_bound)
    scale, saturated = sol.duals.scale, sol.duals.saturated
    return {
        "schema": "pcst-solution/2",
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
        "laminar": [{"id": sid, "y": format_rational(Fraction(y, scale)),
                     "saturated": sid in saturated,
                     "parent": sol.fam.parent_of(sid)}
                    for sid, y in enumerate(sol.duals.y)],
        "trace_file": trace_path,
    }


DOCUMENT_CASES = {
    # name: (instance, --trace file name or None)
    "star-trace-quote": (lambda: gen_tight_star(1), 'a"b.jsonl'),
    "star-trace-backslash": (lambda: gen_tight_star(1), "a\\b.jsonl"),
    "star-trace-accent": (lambda: gen_tight_star(1), "\u00e9t\u00e9.jsonl"),
    "no-tree-edge": (lambda: Instance(2, ((0, 1, 100),), (1, 1)), None),
    "single-vertex": (lambda: Instance(1, (), (5,)), None),
    "zero-prizes": (lambda: Instance(3, ((0, 1, 2), (1, 2, 2)), (0, 0, 0)),
                    None),
    "tight-path": (lambda: gen_tight_path(6, "1/10"), None),
    "random-40": (lambda: gen_random(40, "1/8", max_cost=10, max_prize=8,
                                     seed=3), None),
}


@pytest.mark.parametrize("name", sorted(DOCUMENT_CASES))
def test_solve_json_matches_the_dict_layout(name, tmp_path, capsys):
    """The written document is, byte for byte, json.dumps of the
    reference dict with indent=2, also where no golden pin looks: trace
    paths that json must escape, trees without edges, one vertex, and a
    lower bound of 0 (ratio null)."""
    make, trace_name = DOCUMENT_CASES[name]
    inst = make()
    path = tmp_path / "inst.json"
    path.write_text(emit_instance(inst), encoding="utf-8")
    flags = ["--json"]
    trace = None
    if trace_name:
        trace = str(tmp_path / trace_name)
        flags += ["--trace", trace]
    assert run_cli("solve", str(path), *flags) == 0
    out = capsys.readouterr().out
    sol = solve(inst)
    assert out == json.dumps(reference_document(inst, sol, trace),
                             indent=2) + "\n"
    if name == "no-tree-edge":
        assert sol.tree_vertices and not sol.tree_edges
    if name == "zero-prizes":
        assert json.loads(out)["ratio_vs_lower_bound"] is None


def test_solve_trace_file(tmp_path, star_file, capsys):
    trace = tmp_path / "events.jsonl"
    assert run_cli("solve", str(star_file), "--trace", str(trace)) == 0
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    events = [json.loads(line) for line in lines]
    assert [ev["ordinal"] for ev in events] == list(range(len(events)))
    assert events[0]["kind"] == "merge"
    assert events[0]["epsilon"] == "1/1"
    assert events[-1] == {"ordinal": 3, "kind": "phase", "epsilon": "0/1",
                          "time": "1/1", "phase": "done"}


def test_unwritable_output_path_is_a_usage_error(tmp_path, star_file,
                                                 capsys):
    missing = tmp_path / "missing"
    for argv in (("solve", str(star_file), "--trace",
                  str(missing / "t.jsonl")),
                 ("gen", "tight-star", "--rho", "1",
                  "--out", str(missing / "x.json"))):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert f"error: cannot write {argv[-1]}: " \
               "No such file or directory" in err
    assert not missing.exists()


def test_solve_check_flags(star_file, capsys):
    assert run_cli("solve", str(star_file), "--check-invariants") == 0
    assert run_cli("solve", str(star_file), "--no-check-invariants") == 0
    capsys.readouterr()


HOSTILE_NUMBER_FILES = {
    "string.json": '{"n": 1, "prizes": ["1e4000000"], "edges": []}',
    "number.json": '{"n": 1, "prizes": [1e4000000], "edges": []}',
    "token.stp": "SECTION Graph\nNodes 2\nEdges 1\nE 1 2 1e4000000\n"
                 "END\nEOF\n",
}


@pytest.mark.parametrize("name", sorted(HOSTILE_NUMBER_FILES))
def test_solve_hostile_number_fails_fast(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_text(HOSTILE_NUMBER_FILES[name])
    started = time.perf_counter()
    assert run_cli("solve", str(path)) == 2
    assert time.perf_counter() - started < 1
    assert "exponent" in capsys.readouterr().err


HOSTILE_SHAPE_FILES = {
    "digit-literal.json": '{"n": 1, "prizes": [%s], "edges": []}'
                          % ("9" * 6000),
    "digit-string.json": '{"n": 1, "prizes": ["%s"], "edges": []}'
                         % ("9" * 20_000),
    "exponent-fraction.json": '{"n": 1, "prizes": ["1/1E-999999"], '
                              '"edges": []}',
    "nested.json": '{"n": 1, "prizes": %s, "edges": []}'
                   % ("[" * 200_000 + "]" * 200_000),
    "digit-cost.stp": "SECTION Graph\nNodes 2\nEdges 1\nE 1 2 %s\n"
                      "END\nEOF\n" % ("9" * 20_000),
    "digit-nodes.stp": "SECTION Graph\nNodes %s\nEND\nEOF\n"
                       % ("9" * 6000),
    # a count that parses but would size a prize per vertex
    "huge-nodes.stp": "SECTION Graph\nNodes 1000000000000\nEND\nEOF\n",
}


@pytest.mark.parametrize("name", sorted(HOSTILE_SHAPE_FILES))
def test_solve_hostile_shape_fails_fast(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_text(HOSTILE_SHAPE_FILES[name])
    started = time.perf_counter()
    assert run_cli("solve", str(path)) == 2
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err.startswith("error: ")


NINES = "9" * 5000
STP_EDGE = "SECTION Graph\nNodes 2\nEdges 1\n%s\nEND\nEOF\n"
# name: (the instance file's suffix and text for pcst solve, or "doc"
# and an edit of the star's solution document text for pcst verify,
# what the refusal ends with)
LONG_TOKEN_CASES = {
    "json-exponent": (
        ".json", '{"n": 1, "prizes": [1e%s], "edges": []}' % NINES,
        "(5002 characters) exceeds 1000 in magnitude"),
    "stp-exponent": (
        ".stp", STP_EDGE % ("E 1 2 1e" + NINES),
        "(5002 characters) exceeds 1000 in magnitude (line 4)"),
    "document-exponent": (
        "doc", lambda text: text.replace('"cost": "', '"cost": "1e' + NINES),
        "malformed solution field: cost: exponent of '1e" + "9" * 37
        + "... (5005 characters) exceeds 1000 in magnitude"),
    "stp-vertex-id": (
        ".stp", STP_EDGE % ("E 1" + NINES + " 2 1"),
        "(5001 characters) has more than 4300 digits (line 4)"),
    "json-n": (
        ".json", '{"n": %s, "prizes": [], "edges": []}' % NINES,
        "(5000 characters) has more than 4300 digits"),
    "json-prize": (
        ".json", '{"n": 1, "prizes": [%s], "edges": []}' % NINES,
        "(5000 characters) has more than 4300 digits"),
    "document-vertex": (
        "doc", lambda text: text.replace('"minimizing_vertex": 0',
                                         '"minimizing_vertex": ' + NINES),
        ": integer '" + "9" * 39 + "... (5000 characters) has more than "
        "4300 digits"),
    "stp-edge-line": (
        ".stp", STP_EDGE % ("E 1 2 1 " + "x" * 5000),
        "bad edge line 'E 1 2 1 " + "x" * 31 + "... (5008 characters) "
        "(line 4)"),
    "stp-nodes-line": (
        ".stp", "SECTION Graph\nNodes %s\nEND\nEOF\n" % NINES,
        "bad Nodes line 'Nodes " + "9" * 33 + "... (5006 characters) "
        "(line 2)"),
}


@pytest.mark.parametrize("name", sorted(LONG_TOKEN_CASES))
def test_long_tokens_are_refused_in_one_short_line(solved, tmp_path, capsys,
                                                   monkeypatch, name):
    """A number past MAX_EXPONENT or int()'s digit limit, as a json or
    stp token or a solution document's field, and an stp line too long
    to quote, are refused with exit 2 in one stderr line under 200
    characters that names the token, at most 40 characters of its repr,
    and the bound, in the package's words, not Python's."""
    star_file, sol_path, _ = solved
    monkeypatch.chdir(tmp_path)  # the files are named relative to it
    suffix, text, ending = LONG_TOKEN_CASES[name]
    if suffix == "doc":
        edited = text(sol_path.read_text())
        assert edited != sol_path.read_text()
        sol_path.write_text(edited)
        argv = ("verify", sol_path.name, star_file.name)
    else:
        Path("instance" + suffix).write_text(text)
        argv = ("solve", "instance" + suffix)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.endswith(ending + "\n") and err.count("\n") == 1
    assert len(err) < 200 and "set_int_max_str_digits" not in err


def fifty_digit_ratios(count, seed):
    rng = random.Random(seed)
    return [f"{rng.randrange(10 ** 49, 10 ** 50)}/"
            f"{rng.randrange(10 ** 49, 10 ** 50)}" for _ in range(count)]


def hostile_ratios_instance():
    """n=100, two edges per vertex, every cost and prize a distinct
    50-digit over 50-digit ratio: the lcm of the denominators runs to
    tens of thousands of bits."""
    n = 100
    edges = [[v, (v + step) % n] for v in range(n) for step in (1, 7)]
    edges = [[min(e), max(e)] + [c] for e, c in
             zip(edges, fifty_digit_ratios(len(edges), 1))]
    return {"n": n, "prizes": fifty_digit_ratios(n, 2), "edges": edges}


HOSTILE_BUDGET_FILES = {
    # the scale, 2 * lcm of the denominators, past MAX_SCALE_BITS
    "ratios.json": (hostile_ratios_instance, f"{MAX_SCALE_BITS} bits"),
    # two 4300-digit costs: a cost total past MAX_TOTAL_BITS
    "digits.json": (lambda: {"n": 3, "prizes": [1, 1, 1],
                             "edges": [[0, 1, "9" * 4300],
                                       [1, 2, "9" * 4300]]},
                    f"more than {MAX_TOTAL_BITS}"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_BUDGET_FILES))
def test_solve_refuses_instances_past_the_budget(tmp_path, capsys, name):
    make, message = HOSTILE_BUDGET_FILES[name]
    path = tmp_path / name
    path.write_text(json.dumps(make()))
    for flags in ((), ("--json",)):
        started = time.perf_counter()
        assert run_cli("solve", str(path), *flags) == 2
        assert time.perf_counter() - started < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


# costs plus twice the prizes, at scale 2, just inside MAX_TOTAL_BITS
BIG = 2 ** (MAX_TOTAL_BITS - 5)
BIG_INSTANCE = {"n": 3, "prizes": [BIG, BIG, 1],
                "edges": [[0, 1, BIG], [1, 2, BIG]]}


def test_solve_prints_an_instance_at_the_budget(tmp_path, capsys):
    # the tree buys an edge of cost BIG, and every total prints
    big = BIG
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG_INSTANCE))
    for flags in ((), ("--json",)):
        assert run_cli("solve", str(path), *flags) == 0
        assert f"{big}/1" in capsys.readouterr().out


def test_solve_invariant_failure_exits_4(tmp_path, capsys, monkeypatch):
    """A solver invariant failure, in solve or in exact --compare, exits
    4 with one line on standard error beside the timings."""
    # at half the solver's scale the odd cost 3 cannot be halved exactly
    path = tmp_path / "odd.json"
    path.write_text('{"n": 2, "prizes": [1, 1], "edges": [[0, 1, 3]]}')
    real_parse = cli.parse_instance

    def halved_scale(*args):
        return halve_scale(real_parse(*args))

    monkeypatch.setattr(cli, "parse_instance", halved_scale)
    message = "invariant failure: edge 0 has odd cost 3 at scale 1"
    assert run_cli("solve", str(path), "--json") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"
    # exact prints its own timing line before the comparison solve runs
    for flags in ((), ("--json",)):
        assert run_cli("exact", str(path), "--compare", *flags) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines()
                if " time: " not in line] == [message]


@pytest.mark.parametrize("command, doc, inst", [
    ("solve", None, "nope.json"),
    ("verify", "nope.json", "star.json"),
    ("verify", "star.json", "nope.json"),
    ("exact", None, "nope.json"),
], ids=["solve-instance", "verify-document", "verify-instance",
        "exact-instance"])
def test_missing_file_is_named_once(star_file, capsys, command, doc, inst):
    """A file that cannot be read, instance or solution document, exits
    2 with one line that names it once."""
    paths = [str(star_file.parent / name) for name in (doc, inst) if name]
    assert run_cli(command, *paths) == 2
    missing = star_file.parent / "nope.json"
    assert capsys.readouterr().err == \
        f"error: cannot read {missing}: No such file or directory\n"


def test_solve_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "prizes": [1], "edges": []}')
    assert run_cli("solve", str(bad)) == 2
    assert "expected 2 prizes" in capsys.readouterr().err


# -- exact ---------------------------------------------------------------------


def test_exact_compare_json(star_file, capsys):
    assert run_cli("exact", str(star_file), "--compare", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["optimum"] == "3/1"
    assert doc["witness"]["vertices"] == [0]
    assert doc["explored"] == 6
    assert doc["comparison"]["objective"] == "4/1"
    assert doc["comparison"]["ratio"] == "4/3"


def test_exact_human(star_file, capsys):
    assert run_cli("exact", str(star_file), "--compare") == 0
    out = capsys.readouterr().out
    assert "optimum: 3/1 (3)" in out
    assert "witness vertices: 0" in out
    assert "realized ratio: 4/3" in out


def test_exact_over_limit(tmp_path, capsys):
    big = tmp_path / "big.json"
    run_cli("gen", "random", "--n", "19", "--p", "0", "--out", str(big))
    capsys.readouterr()
    assert run_cli("exact", str(big)) == 1
    assert run_cli("exact", str(big), "--limit", "19") == 0


# -- gen -----------------------------------------------------------------------


def test_gen_to_stdout_and_formats(tmp_path, capsys):
    assert run_cli("gen", "tight-path", "--k", "3", "--rho", "1/10") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 4

    stp = tmp_path / "inst.stp"
    assert run_cli("gen", "random", "--n", "6", "--seed", "2",
                   "--format", "stp", "--out", str(stp)) == 0
    assert stp.read_text().startswith("SECTION Graph")
    # extension-driven parse on the way back in
    assert run_cli("solve", str(stp)) == 0
    capsys.readouterr()


def test_gen_missing_parameter(capsys):
    assert run_cli("gen", "tight-star") == 1
    assert "--rho" in capsys.readouterr().err


def test_gen_invalid_parameter(capsys):
    assert run_cli("gen", "tight-star", "--rho", "7/2") == 1
    capsys.readouterr()


def test_solve_and_verify_build_no_fraction_view(tmp_path, monkeypatch,
                                                capsys):
    """pcst solve and pcst verify compute on the instance's ints: neither
    reads the Fraction views edges and prizes."""
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(emit_instance(gen_random(
        200, "1/20", max_cost=10, max_prize=8, seed=5)), encoding="utf-8")

    def refuse(inst):
        raise AssertionError("a Fraction view was built")

    for view in ("edges", "prizes"):
        monkeypatch.setattr(Instance, view, property(refuse))
    assert run_cli("solve", str(inst_path), "--json") == 0
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert run_cli("verify", str(sol_path), str(inst_path)) == 0
    assert "verification: pass" in capsys.readouterr().out


# -- verify --------------------------------------------------------------------


def test_verify_clean_solution(solved, capsys):
    star_file, sol_path, _ = solved
    assert run_cli("verify", str(sol_path), str(star_file)) == 0
    out = capsys.readouterr().out
    check_lines = [ln for ln in out.splitlines() if ln.startswith("check ")]
    assert len(check_lines) == 9
    assert all(": pass" in ln for ln in check_lines)
    assert "verification: pass" in out


def test_verify_accepts_v1_vertex_lists(solved, capsys):
    # a pcst-solution/1 document also lists every set's vertices
    star_file, sol_path, _ = solved
    members = {0: [0], 1: [1], 2: [2], 3: [0, 1], 4: [0, 1, 2]}
    corrupt_solution(sol_path, lambda doc: [
        rec.update(vertices=members[rec["id"]]) for rec in doc["laminar"]])
    assert run_cli("verify", str(sol_path), str(star_file)) == 0
    assert "verification: pass" in capsys.readouterr().out


def test_verify_json_schema(solved, capsys):
    star_file, sol_path, _ = solved
    assert run_cli("verify", str(sol_path), str(star_file), "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert [c["name"] for c in doc["checks"]] == [
        "laminar-structure", "dual-feasibility", "tree-structure",
        "objective-arithmetic", "certificate-lower-bound",
        "tree-lower-bound", "growth-bound", "tree-predicates",
        "cluster-counting"]
    assert all(c["pass"] for c in doc["checks"])


def corrupt_solution(sol_path, mutate):
    doc = json.loads(sol_path.read_text())
    mutate(doc)
    sol_path.write_text(json.dumps(doc))


def test_verify_catches_corrupted_dual(solved, capsys):
    star_file, sol_path, _ = solved
    corrupt_solution(sol_path,
                     lambda doc: doc["laminar"][0].update(y="9/1"))
    assert run_cli("verify", str(sol_path), str(star_file)) == 3
    out = capsys.readouterr().out
    assert "check dual-feasibility: FAIL" in out


def test_verify_catches_deleted_tree_edge(solved, capsys):
    star_file, sol_path, _ = solved
    corrupt_solution(sol_path, lambda doc: doc["tree"]["edges"].pop())
    assert run_cli("verify", str(sol_path), str(star_file)) == 3
    assert "check tree-structure: FAIL" in capsys.readouterr().out


def test_verify_catches_wrong_objective(solved, capsys):
    star_file, sol_path, _ = solved
    corrupt_solution(sol_path, lambda doc: doc.update(objective="5/1"))
    assert run_cli("verify", str(sol_path), str(star_file)) == 3
    assert "check objective-arithmetic: FAIL" in capsys.readouterr().out


def test_verify_malformed_solution_is_parse_error(solved, capsys):
    star_file, sol_path, _ = solved
    sol_path.write_text("{]")
    assert run_cli("verify", str(sol_path), str(star_file)) == 2
    sol_path.write_text("{}")
    assert run_cli("verify", str(sol_path), str(star_file)) == 2
    for hostile in ("[" * 200_000, '{"cost": %s}' % ("9" * 6000)):
        sol_path.write_text(hostile)
        assert run_cli("verify", str(sol_path), str(star_file)) == 2
    sol_path.write_bytes(b'{"cost": "\xff"}')  # not utf-8
    assert run_cli("verify", str(sol_path), str(star_file)) == 2
    capsys.readouterr()


@pytest.mark.parametrize("tree", [
    {"vertices": ["0", "1", "2"], "edges": [[0, 1], [0, 2]]},
    {"vertices": [0, 1, 2, None], "edges": [[0, 1], [0, 2]]},
    {"vertices": [0, 1, 2], "edges": [[0.5, 1], [0, 2]]},
    {"vertices": [0, 1, 2], "edges": [["0", "1"], [0, 2]]},
    {"vertices": [0, True, 2], "edges": [[0, 1], [0, 2]]},
    {"vertices": [0.5], "edges": []},
])
def test_verify_non_integer_tree_is_parse_error(solved, capsys, tree):
    star_file, sol_path, _ = solved
    corrupt_solution(sol_path, lambda doc: doc.update(tree=tree))
    assert run_cli("verify", str(sol_path), str(star_file)) == 2
    captured = capsys.readouterr()
    assert "must be integers" in captured.err
    assert "Traceback" not in captured.err + captured.out


def set_laminar_field(key, value):
    return lambda doc: doc["laminar"][0].update({key: value})


MALFORMED = "malformed solution field"


@pytest.mark.parametrize("mutate, message", [
    (set_laminar_field("parent", "3"), MALFORMED),
    (set_laminar_field("parent", 3.0), MALFORMED),
    (set_laminar_field("parent", True), MALFORMED),
    (set_laminar_field("id", 0.0), MALFORMED),
    (set_laminar_field("id", "0"), MALFORMED),
    (set_laminar_field("id", False), MALFORMED),
    (set_laminar_field("saturated", "no"), MALFORMED),
    (set_laminar_field("saturated", 0), MALFORMED),
    (set_laminar_field("saturated", None), MALFORMED),
    (lambda doc: doc.update(minimizing_vertex=0.9), MALFORMED),
    (lambda doc: doc.update(minimizing_vertex=0.0), MALFORMED),
    (lambda doc: doc.update(minimizing_vertex="0"), MALFORMED),
    (lambda doc: doc.update(minimizing_vertex=False), MALFORMED),
    (lambda doc: doc.update(minimizing_vertex=None), MALFORMED),
    (lambda doc: [doc], "solution document must be a json object"),
    (lambda doc: doc.update(tree={"vertices": [0, 1, 2]}),
     "solution tree must carry vertices and edges"),
    (lambda doc: doc.update(tree=[[0, 1, 2], [[0, 1], [0, 2]]]),
     "solution tree must carry vertices and edges"),
], ids=["parent-str", "parent-float", "parent-bool", "id-float", "id-str",
        "id-bool", "saturated-str", "saturated-int", "saturated-null",
        "vertex-float", "vertex-whole-float", "vertex-str", "vertex-bool",
        "vertex-null", "document-list", "tree-without-edges",
        "tree-list"])
def test_verify_mistyped_field_is_parse_error(solved, capsys, mutate,
                                              message):
    star_file, sol_path, _ = solved
    # a row edits the document in place or returns its replacement
    doc = json.loads(sol_path.read_text())
    sol_path.write_text(json.dumps(mutate(doc) or doc))
    assert run_cli("verify", str(sol_path), str(star_file)) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err + captured.out


def set_fields(**fields):
    return lambda doc: doc.update(fields)


def set_entry(k, **fields):
    return lambda doc: doc["laminar"][k].update(fields)


@pytest.mark.parametrize("mutate, detail", [
    (set_fields(tree={"vertices": 5, "edges": [[0, 1], [0, 2]]}),
     "tree vertices must be a list"),
    (set_fields(tree={"vertices": [0, 1, 2], "edges": None}),
     "tree edges must be a list"),
    (set_fields(tree={"vertices": [0, 1, 2], "edges": [[0, 1], [1]]}),
     "tree edge 1 must be a list of two vertices"),
    (set_fields(tree={"vertices": [0, [1], 2], "edges": [[0, 1], [0, 2]]}),
     "tree vertices and edge ends must be integers"),
    (set_fields(laminar=5), "laminar must be a list"),
    (set_fields(cost=None), "cost: not a rational token: None"),
    (set_fields(penalty="x"), "penalty: not a rational token: 'x'"),
    (set_fields(cost="1" * 5000),
     "cost: not a rational token: '" + "1" * 39 + "... (5000 characters)"),
    (set_fields(objective=1.5),
     "objective: floats are inexact; pass the token as a string"),
    (set_fields(lagrangean_objective=True),
     "lagrangean_objective: not a rational token: True"),
    (set_fields(lower_bound=[1]), "lower_bound: not a rational token: [1]"),
    (lambda doc: doc["laminar"].insert(2, 7),
     "laminar entry 2: snapshot entries must be objects"),
    (lambda doc: doc["laminar"][1].pop("y"),
     "laminar entry 1: snapshot entry missing keys ['y']"),
    (set_entry(2, id="2"),
     "laminar entry 2: snapshot ids and parents must be integers"),
    (set_entry(0, parent=1.0),
     "laminar entry 0: snapshot ids and parents must be integers"),
    (set_entry(2, saturated=1),
     "laminar entry 2: snapshot saturation flags must be booleans"),
    (set_entry(1, y="1/0"),
     "laminar entry 1: not a rational token: '1/0'"),
], ids=["vertices-int", "edges-null", "edge-short", "vertex-list",
        "laminar-int", "cost-null", "penalty-str", "cost-5000-digits",
        "objective-float", "lagrangean-bool",
        "lower-bound-list", "entry-int", "entry-missing-key", "entry-id-str",
        "entry-parent-float", "entry-saturated-int", "entry-dual-token"])
def test_verify_misshapen_field_is_named(solved, capsys, mutate, detail):
    """A tree, laminar or reported field of the wrong shape is named in
    the detail, a laminar entry by its position, not described by the
    text of Python's own exception alone."""
    star_file, sol_path, _ = solved
    corrupt_solution(sol_path, mutate)
    assert run_cli("verify", str(sol_path), str(star_file)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {sol_path}: {MALFORMED}: {detail}\n"
    assert captured.out == ""


@pytest.mark.parametrize("vertex", [1, 7, 99999, -1])
def test_verify_catches_wrong_minimizing_vertex(solved, capsys, vertex):
    star_file, sol_path, _ = solved
    corrupt_solution(sol_path,
                     lambda doc: doc.update(minimizing_vertex=vertex))
    assert run_cli("verify", str(sol_path), str(star_file)) == 3
    out = capsys.readouterr().out
    assert "check certificate-lower-bound: FAIL" in out
    assert f"recomputed minimizing vertex 0 vs reported {vertex}" in out


def test_verify_sign_follows_the_numbers(solved, capsys):
    """A check failing on a wrong minimizing vertex, with its inequality
    holding, prints <=; a check whose inequality breaks prints >."""
    star_file, sol_path, _ = solved
    corrupt_solution(sol_path, lambda doc: doc.update(minimizing_vertex=1))
    assert run_cli("verify", str(sol_path), str(star_file)) == 3
    assert "check certificate-lower-bound: FAIL (lhs 4/1 <= rhs 4/1) " \
        "[recomputed minimizing vertex 0 vs reported 1]" in \
        capsys.readouterr().out.splitlines()
    corrupt_solution(sol_path, lambda doc: doc.update(
        minimizing_vertex=0, lagrangean_objective="5"))
    assert run_cli("verify", str(sol_path), str(star_file)) == 3
    assert "check certificate-lower-bound: FAIL (lhs 5/1 > rhs 4/1) " \
        "[recomputed lower bound 2 vs reported 2]" in \
        capsys.readouterr().out.splitlines()


def test_verify_instance_mismatch(solved, tmp_path, capsys):
    _, sol_path, _ = solved
    other = tmp_path / "other.json"
    run_cli("gen", "random", "--n", "9", "--seed", "1", "--out", str(other))
    capsys.readouterr()
    assert run_cli("verify", str(sol_path), str(other)) == 3
    assert "does not fit" in capsys.readouterr().err


def path_files(tmp_path, capsys):
    """The n=200 path, prizes 1 and costs 2, and its solution document."""
    n = 200
    inst = tmp_path / "path.json"
    inst.write_text(json.dumps({"n": n, "prizes": [1] * n, "edges": [
        [v, v + 1, 2] for v in range(n - 1)]}))
    assert run_cli("solve", str(inst), "--json") == 0
    return inst, json.loads(capsys.readouterr().out)


def reciprocals(count):
    """count duals 1/d, for distinct random 100-digit d."""
    rng = random.Random(count)
    return [f"1/{rng.randrange(10 ** 99, 10 ** 100)}" for _ in range(count)]


def set_duals(tokens):
    def mutate(doc):
        for rec, token in zip(doc["laminar"], tokens):
            rec["y"] = token
    return mutate


HOSTILE_DOCUMENTS = {
    # name: (edit of the path's document, the message naming the bound)
    # the lcm of the dual denominators runs past MAX_SCALE_BITS
    "sixty-reciprocals": (set_duals(reciprocals(60)),
                          f"the duals' scale needs more than "
                          f"{MAX_SCALE_BITS} bits"),
    "all-reciprocals": (set_duals(reciprocals(399)),
                        f"the duals' scale needs more than "
                        f"{MAX_SCALE_BITS} bits"),
    # a scale within the budget, but a total whose lhs and rhs would
    # pass the 4300-digit int-to-str limit
    "dual-total": (set_duals(["9" * 4200 + "/7", f"1/{10 ** 999 + 7}"]),
                   f"bits, more than {MAX_TOTAL_BITS}"),
    # a total at the limit at the duals' odd scale d, and one bit past
    # it at the audit's scale 2d
    "odd-scale": (set_duals([f"{2 ** MAX_TOTAL_BITS - 1}/{10 ** 1000 + 3}"]
                            + ["0"] * 398),
                  f"needs {MAX_TOTAL_BITS + 1} bits, more than "
                  f"{MAX_TOTAL_BITS}"),
    # a reported value that would pass it too
    "reported-value": (lambda doc: doc.update(
        lagrangean_objective="9" * 4290 + "e1000"),
        f"lagrangean_objective needs more than {MAX_TOTAL_BITS} bits"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_DOCUMENTS))
def test_verify_refuses_documents_past_the_budget(tmp_path, capsys, name):
    """A document past MAX_SCALE_BITS or MAX_TOTAL_BITS is a parse
    error, found fast and reported without a traceback."""
    inst, doc = path_files(tmp_path, capsys)
    mutate, message = HOSTILE_DOCUMENTS[name]
    mutate(doc)
    sol_path = tmp_path / "hostile.json"
    sol_path.write_text(json.dumps(doc))
    for flags in ((), ("--json",)):
        started = time.perf_counter()
        assert run_cli("verify", str(sol_path), str(inst), *flags) == 2
        assert time.perf_counter() - started < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


AT_BUDGET_INSTANCES = {
    "costs-at-limit": BIG_INSTANCE,
    # the rows of test_instance.BUDGET_CASES at the limits
    "scale-at-limit": {"n": 2, "prizes": [1, 1], "edges": [
        [0, 1, f"1/{2 ** (MAX_SCALE_BITS - 2)}"]]},
    "total-at-limit": {"n": 2, "prizes": [1, 2 ** (MAX_TOTAL_BITS - 4) - 1],
                       "edges": [[0, 1, 2 ** (MAX_TOTAL_BITS - 3)]]},
}


@pytest.mark.parametrize("name", sorted(AT_BUDGET_INSTANCES))
def test_verify_accepts_documents_at_the_budget(tmp_path, capsys, name):
    """What solve --json writes for an instance at the budget verifies."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(AT_BUDGET_INSTANCES[name]))
    assert run_cli("solve", str(inst), "--json") == 0
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(capsys.readouterr().out)
    for flags in ((), ("--json",)):
        assert run_cli("verify", str(sol_path), str(inst), *flags) == 0
    assert "verification: pass" in capsys.readouterr().out


# Tokens for the fuzz below: numbers as a document may carry them, with
# numerators and denominators of up to 4300 digits (the most Python
# parses) and exponents, and values of every json type.  The repunits
# 11...1 of different lengths make denominators with a large lcm.  Half
# the tokens are long numbers.
DIGITS = st.integers(1, 4300).map(lambda k: "1" * k)
LONG_DIGITS = st.integers(3000, 4300).map(lambda k: "1" * k)
LONG_NUMBERS = st.one_of(
    st.builds("{}/{}".format, DIGITS, LONG_DIGITS),
    st.builds("{}e{}".format, LONG_DIGITS, st.integers(0, 1100)))
TOKENS = st.one_of(
    LONG_NUMBERS,
    st.one_of(
        st.integers(-5, 20), DIGITS, st.builds("-{}/{}".format, DIGITS,
                                               DIGITS),
        st.builds("{}e{}".format, DIGITS, st.integers(-1100, 1100)),
        st.integers(4301, 4400).map(lambda k: "9" * k),
        st.sampled_from(["", "x", "1/0", "nan", "inf", "-0", "1_0", " 3 "]),
        st.none(), st.booleans(), st.floats(),
        st.lists(st.integers(), max_size=2)))
IDS = st.one_of(st.integers(-2, 20), DIGITS.map(int), st.none(),
                st.booleans(), st.sampled_from(["0", 0.0, 1.5, [], {}]))
TREE_VERTICES = st.one_of(st.integers(-2, 12), DIGITS.map(int), st.none(),
                          st.booleans(), st.sampled_from(["1", 0.5, []]))
REPORTED_KEYS = ("cost", "penalty", "objective", "lagrangean_objective",
                 "lower_bound")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """An n=8 random instance and its solution document."""
    base = tmp_path_factory.mktemp("fuzz")
    inst = base / "inst.json"
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["gen", "random", "--n", "8", "--seed", "3",
                     "--out", str(inst)]) == 0
        assert main(["solve", str(inst), "--json"]) == 0
    return inst, base / "doc.json", json.loads(out.getvalue())


def mutate_document(doc, data):
    """One to four edits of a solution document, each drawn from:
    a laminar entry's dual, id, parent or saturation flag, or the entry
    itself; long numbers as the duals of the first entries; the tree's
    vertices or edges; a reported value or the minimizing vertex.  Duals
    and reported values are drawn most."""
    sets = doc["laminar"]
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(
            ["y", "duals", "duals", "id", "parent", "saturated", "entry",
             "vertices", "edges", "reported", "reported",
             "minimizing_vertex"]))
        rec = sets[data.draw(st.integers(0, len(sets) - 1))] if sets \
            else {}
        if kind == "y":
            rec["y"] = data.draw(TOKENS)
        elif kind == "duals":
            for rec, token in zip(sets, data.draw(st.lists(LONG_NUMBERS))):
                if isinstance(rec, dict):
                    rec["y"] = token
        elif kind in ("id", "parent", "minimizing_vertex"):
            target = doc if kind == "minimizing_vertex" else rec
            target[kind] = data.draw(IDS)
        elif kind == "saturated":
            rec["saturated"] = data.draw(st.one_of(
                st.booleans(), st.none(), st.integers(0, 1)))
        elif kind == "entry":
            if sets and data.draw(st.booleans()):
                sets.remove(rec)
            else:
                sets.append(copy.deepcopy(rec) or data.draw(TOKENS))
        elif kind == "vertices":
            doc["tree"]["vertices"] = data.draw(st.lists(TREE_VERTICES,
                                                         max_size=10))
        elif kind == "edges":
            doc["tree"]["edges"] = data.draw(st.lists(
                st.lists(TREE_VERTICES, max_size=3), max_size=10))
        else:
            doc[data.draw(st.sampled_from(REPORTED_KEYS))] = \
                data.draw(TOKENS)


@given(data=st.data())
@settings(max_examples=150)
def test_verify_fuzzed_documents_fail_cleanly(fuzz_files, data):
    """Every mutated solution document verifies (0), fails to parse (2)
    or fails verification (3), within 1 s: no exception escapes the
    command, which would print a traceback and exit 1."""
    inst, sol_path, base = fuzz_files
    doc = copy.deepcopy(base)
    mutate_document(doc, data)
    sol_path.write_text(json.dumps(doc))
    flags = data.draw(st.sampled_from([(), ("--json",)]))
    started = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["verify", str(sol_path), str(inst), *flags])
    assert code in (0, 2, 3)
    assert time.perf_counter() - started < 1


# -- json text and the cyclic collector ---------------------------------------


JSON_TEXT_CASES = [
    {},
    [],
    {"a": [], "b": {}, "c": None, "d": True, "e": False, "f": 0},
    {"schema": "x", "checks": [{"name": "a\"b\\c", "lhs": "1/2",
                                "rhs": None, "detail": "\u00e9t\u00e9"}]},
    [[1, [2, [3, []]]], {"k": [{"l": [-4]}]}, "\n\t"],
    {"witness": {"vertices": [0, 5], "edges": [[0, 5]]}, "explored": 10},
]


@pytest.mark.parametrize("obj", JSON_TEXT_CASES)
def test_json_text_is_the_indent_2_layout(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("argv", [("verify", "{sol}", "{inst}", "--json"),
                                  ("exact", "{inst}", "--compare", "--json"),
                                  ("exact", "{inst}", "--json")])
def test_json_reports_keep_the_indent_2_layout(solved, capsys, argv):
    star_file, sol_path, _ = solved
    assert run_cli(*(arg.format(sol=sol_path, inst=star_file)
                     for arg in argv)) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def left_in_cycles(argv):
    """(exit code, objects in reference cycles) that one cli.main call
    leaves: gc.collect() with the collector off, before and after it."""
    cli._parser()  # built once per process, before the count
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        try:
            with redirect_stdout(io.StringIO()), \
                    redirect_stderr(io.StringIO()):
                code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(params=[(12, "1/3"), (300, "1/30")], ids=["n12", "n300"])
def gc_files(request, tmp_path):
    n, p = request.param
    inst = tmp_path / "inst.json"
    inst.write_text(emit_instance(
        gen_random(n, p, max_cost=10, max_prize=8, seed=n), "json"))
    doc = tmp_path / "doc.json"
    with redirect_stdout(io.StringIO()) as out:
        assert main(["solve", str(inst), "--json"]) == 0
    doc.write_text(out.getvalue())
    return inst, doc, tmp_path


def test_solve_and_verify_leave_no_cyclic_garbage(gc_files):
    """Every solve and verify form, and a parse error, leave nothing
    for the cyclic collector, so pausing it during a command holds no
    memory back."""
    inst, doc, tmp_path = gc_files
    small = tmp_path / "small.json"
    small.write_text(emit_instance(gen_tight_path(4, "1/10"), "json"))
    forms = {
        "solve": ["solve", inst],
        "solve --json": ["solve", inst, "--json"],
        "solve --trace": ["solve", inst, "--trace", tmp_path / "t.jsonl"],
        "solve --check-invariants": ["solve", inst, "--check-invariants"],
        "verify": ["verify", doc, inst],
        "verify --json": ["verify", doc, inst, "--json"],
        "parse error": ["solve", tmp_path / "missing.json"],
        "exact --compare": ["exact", small, "--compare"],
        "exact --compare --json": ["exact", small, "--compare", "--json"],
    }
    left = {name: left_in_cycles(map(str, argv))
            for name, argv in forms.items()}
    assert left == {name: (2 if name == "parse error" else 0, 0)
                    for name in forms}


def test_gen_and_usage_errors_leave_a_fixed_count():
    """gen's json emitter leaves no object in a cycle, and argparse's
    usage message a few, the same number at any size."""
    gen = [left_in_cycles(["gen", "random", "--n", str(n), "--p", "1/2"])
           for n in (10, 200)]
    usage = [left_in_cycles(argv) for argv in (["solve"], ["bogus"])]
    assert gen == [(0, 0), (0, 0)]
    assert usage[0] == usage[1] and usage[0][0] == 1 and usage[0][1] < 100


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("outcome", ["ok", "parse-error", "usage", "raise",
                                     "invariant"])
def test_main_pauses_the_collector_and_restores_it(star_file, monkeypatch,
                                                   enabled, outcome):
    """main restores the collector on every way out: an exit code, a
    usage error, an invariant failure (exit 4, here from exact
    --compare) and any other exception, which propagates."""
    seen = []
    real_solve = cli.solver_mod.solve

    def solve_noting_the_collector(*args, **kwargs):
        seen.append(gc.isenabled())
        if outcome == "raise":
            raise RuntimeError("boom")
        if outcome == "invariant":
            raise cli.solver_mod.InvariantError("boom")
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(cli.solver_mod, "solve", solve_noting_the_collector)
    argv = {"ok": ["solve", str(star_file)],
            "parse-error": ["solve", str(star_file) + ".missing"],
            "usage": ["solve", "--bogus"],
            "raise": ["solve", str(star_file)],
            "invariant": ["exact", str(star_file), "--compare"]}[outcome]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except (SystemExit, RuntimeError) as exc:
                code = type(exc).__name__
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert code == {"ok": 0, "parse-error": 2, "usage": "SystemExit",
                    "raise": "RuntimeError", "invariant": 4}[outcome]
    assert seen == ([False] if outcome in ("ok", "raise", "invariant")
                    else [])


# -- usage errors and entry point -------------------------------------------------


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["solve"],
    ["gen", "nonsense-kind"],
    ["gen", "tight-star", "--rho", "zebra"],
    ["solve", "x.json", "--format", "yaml"],
])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == 1
    capsys.readouterr()


def test_entry_point_subprocess(tmp_path):
    star = tmp_path / "s.json"
    gen = subprocess.run(
        [sys.executable, "-m", "pcst", "gen", "tight-star", "--rho",
         "1/100", "--out", str(star)],
        capture_output=True, text=True)
    assert gen.returncode == 0
    first = subprocess.run(
        [sys.executable, "-m", "pcst", "solve", str(star), "--json"],
        capture_output=True, text=True)
    second = subprocess.run(
        [sys.executable, "-m", "pcst", "solve", str(star), "--json"],
        capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical reports
    assert "solve time" in first.stderr
    doc = json.loads(first.stdout)
    assert doc["objective"] == "4/1"


def test_cli_imports_only_the_standard_library():
    """Importing pcst.cli in a fresh process loads no module from
    outside the standard library and the package: pyproject.toml
    declares no dependencies, and the import is part of every run's
    set-up time."""
    code = ("import sys; before = set(sys.modules); import pcst.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert "pcst.cli" in loaded
    foreign = [name for name in loaded
               if name.partition(".")[0] not in sys.stdlib_module_names
               and name.partition(".")[0] != "pcst"]
    assert foreign == []
