"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import (MAX_COST, MAX_PRIZE, WORKLOADS, Workload,  # noqa: E402
                       sparse_instance, write_instances)

SMALL = Workload("small", 12, 20, 2, True, 1, 1, True)


def test_generator_same_seed_same_bytes(tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        write_instances(WORKLOADS["certify-64"], seed, tmp_path / name)
    for index in range(WORKLOADS["certify-64"].batch):
        first, again, other = (
            (tmp_path / d / f"instance-{index}.json").read_bytes()
            for d in "abc")
        assert first == again
        assert first != other


def test_generator_draws_distinct_edges_in_range():
    inst = sparse_instance(50, 400, "seed")
    pairs = [(u, v) for u, v, _ in inst["edges"]]
    assert len(pairs) == len(set(pairs)) == 400
    assert all(0 <= u < v < 50 for u, v in pairs)
    assert all(0 <= c <= MAX_COST for _, _, c in inst["edges"])
    assert all(0 <= p <= MAX_PRIZE for p in inst["prizes"])
    complete = sparse_instance(4, 6, 1)["edges"]
    assert [(u, v) for u, v, _ in complete] == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    with pytest.raises(ValueError):
        sparse_instance(4, 7, 1)


def test_self_times_subtract_direct_children():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert tracing.self_time_by_name(spans) == {
        "root": 3.0, "a": 6.0, "leaf": 1.0}


def test_tracer_nests_wrapped_calls():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer", "outer")
    with tracer.span("root"):
        assert outer(1) == 4
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("root", None), ("outer", 0), ("inner", 1)]
    assert tracer.results == {"outer": [4]}
    own = tracing.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own) == pytest.approx(root[2] - root[1])


@pytest.fixture
def solved(tmp_path):
    """A small checked workload solved and verified through the CLI."""
    import pcst.cli

    paths = write_instances(SMALL, 3, tmp_path)
    job = {"instances": [str(p) for p in paths], "work": str(tmp_path),
           "checked": True}
    records = worker.run_instance(pcst.cli, job, 0, None)
    return records, paths, tmp_path


def test_clean_run_passes(solved):
    records, paths, work = solved
    assert [r["kind"] for r in records] == ["solve", "verify"]
    assert run.judge(records, paths, work, None) == []


def corrupt(work: Path, records: list, edit):
    path = work / "doc-0.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=2))
    # a document that really came out of the solve like this
    records[0]["sha256"] = worker.file_digest(str(path))


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(lower_bound="1000/1"),
    lambda doc: doc["tree"]["edges"].pop(),
    lambda doc: doc.update(objective="0/1"),
], ids=["wrong-lower-bound", "missing-tree-edge", "wrong-objective"])
def test_corrupted_document_is_a_failure(solved, edit):
    records, paths, work = solved
    corrupt(work, records, edit)
    problems = run.judge(records, paths, work, None)
    assert len(problems) == 1 and problems[0].startswith("solve")


def test_pin_mismatch_and_failed_verify_are_failures(solved):
    records, paths, work = solved
    doc = json.loads((work / "doc-0.json").read_text())
    good = [[doc["objective"], doc["lower_bound"]], None]
    assert run.judge(records, paths, work, good) == []
    bad = [[doc["objective"], "0/1"], None]
    assert len(run.judge(records, paths, work, bad)) == 1
    records[1]["last_line"] = "verification: FAIL"
    assert len(run.judge(records, paths, work, good)) == 1
    records[0]["code"] = 4
    assert len(run.judge(records, paths, work, good)) == 2


def test_traced_self_times_add_up_to_the_call(tmp_path):
    import pcst.cli

    paths = write_instances(SMALL, 5, tmp_path)
    job = {"instances": [str(p) for p in paths], "work": str(tmp_path),
           "checked": True}
    tracer = tracing.Tracer()
    saved = tracing.install(tracer, sys.modules)
    try:
        records = worker.run_instance(pcst.cli, job, 1, tracer)
    finally:
        tracing.uninstall(saved)
    assert not hasattr(pcst.cli.parse_instance, "__wrapped__")
    solve, verify = records
    assert sum(solve["self"].values()) == pytest.approx(solve["wall"])
    assert sum(verify["self"].values()) == pytest.approx(verify["wall"])
    assert {"instance.parse", "solver.growth", "solver.check",
            "laminar.to_records"} <= set(solve["self"])
    assert {"verify.audit", "laminar.from_records"} <= set(verify["self"])
    assert verify["calls"]["verify.growth_inequality"] == SMALL.n
    assert solve["counts"]["laminar.sets"] == \
        solve["counts"]["solver.merges"] + SMALL.n
    assert run.judge(records, paths, tmp_path, None) == []


def test_times_are_scaled_to_the_reference_host_speed_when_asked():
    def op(kind, wall):
        return {"kind": kind, "wall": wall, "traced": False, "bytes": 10}

    result = {"records": [op("solve", 1.0), op("verify", 0.5),
                          op("solve", 3.0), op("verify", 0.5)],
              "peak_rss_kb": 2048,
              # the host ran at half the reference speed
              "unit_s": [2 * hostspeed.REFERENCE_UNIT_S] * 4}
    metrics = run.end_to_end(result, 0.5, scaled=True)
    assert metrics["solve_s"] == pytest.approx(1.0)
    assert metrics["round_trip_s"] == pytest.approx(1.25)
    assert metrics["setup_s"] == pytest.approx(0.25)
    assert (metrics["peak_rss_mb"], metrics["doc_bytes"]) == (2.0, 10)
    wall = run.end_to_end(result, 0.5, scaled=False)
    assert (wall["solve_s"], wall["round_trip_s"]) == (2.0, 2.5)
    assert wall["setup_s"] == 0.5
    assert len(hostspeed.sample(3)) == 3
