"""Command line front end: subcommands, exit codes, output formats."""
import json
import subprocess
import sys
import time

import pytest

from pcst.cli import main


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


def test_solve_missing_file(tmp_path, capsys):
    assert run_cli("solve", str(tmp_path / "nope.json")) == 2
    assert "cannot read" in capsys.readouterr().err


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
    capsys.readouterr()


def test_verify_instance_mismatch(solved, tmp_path, capsys):
    _, sol_path, _ = solved
    other = tmp_path / "other.json"
    run_cli("gen", "random", "--n", "9", "--seed", "1", "--out", str(other))
    capsys.readouterr()
    assert run_cli("verify", str(sol_path), str(other)) == 3
    assert "does not fit" in capsys.readouterr().err


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
