"""Golden pins: the sha256 of the ``--trace`` json lines and of the
``solve --json`` document for a fixed set of instances.

Any change to the solver that is meant to keep behaviour must leave
every pin in ``golden_pins.json`` unchanged.  A changed pin means the
event order, a dual, the tree or the document layout moved.
"""
import hashlib
import json
from pathlib import Path

import pytest

from conftest import sweep_instance
from pcst import emit_instance, gen_random, gen_tight_path, gen_tight_star
from pcst import cli, solve
from pcst import solver as sv
from pcst.cli import main

PINS = json.loads((Path(__file__).parent / "golden_pins.json").read_text())


def pinned_instance(name):
    if name.startswith("sweep-"):
        return sweep_instance(int(name.split("-")[1]))
    return {
        "tight-star-1": lambda: gen_tight_star(1),
        "tight-path-6-1/10": lambda: gen_tight_path(6, "1/10"),
        "random-200-1/25-seed99": lambda: gen_random(
            200, "1/25", max_cost=10, max_prize=8, seed=99),
        "random-1000-1/250-seed99": lambda: gen_random(
            1000, "1/250", max_cost=10, max_prize=8, seed=99),
        "random-2000-1/500-seed99": lambda: gen_random(
            2000, "1/500", max_cost=10, max_prize=8, seed=99),
        "random-4000-1/1000-seed99": lambda: gen_random(
            4000, "1/1000", max_cost=10, max_prize=8, seed=99),
    }[name]()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_golden_trace_and_document(name, tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(emit_instance(pinned_instance(name), "json"))
    trace = tmp_path / "trace.jsonl"
    assert main(["solve", str(path), "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["solve", str(path), "--json"]) == 0
    document = capsys.readouterr().out
    assert sha256(trace.read_bytes()) == PINS[name]["trace"]
    assert sha256(document.encode()) == PINS[name]["document"]


@pytest.mark.parametrize("name", sorted(PINS))
def test_checking_switched_the_other_way_writes_the_pinned_bytes(name):
    """The pins are written with checking at its default, on up to
    CHECK_DEFAULT_MAX_N vertices and off above; a solve with checking
    switched the other way writes the same trace and document."""
    inst = pinned_instance(name)
    sol = solve(inst, check_invariants=inst.n > sv.CHECK_DEFAULT_MAX_N)
    document = cli._solution_document(inst, sol, None) + "\n"
    assert sha256(sv.trace_json_lines(sol).encode()) == PINS[name]["trace"]
    assert sha256(document.encode()) == PINS[name]["document"]
