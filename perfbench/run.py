"""pcst benchmark: seeded instances through the real CLI, outputs checked.

    python3 perfbench/run.py --workload sparse-4k --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  The run generates the
workload's instances from --seed and writes them several times, then
starts one fresh worker process that drives ``pcst.cli.main`` on those files
for --seconds seconds; setup_s is the fastest write plus the worker's
import of the package.  On workloads marked ``scaled`` the times are
brought to a reference host speed (hostspeed.py).  Every operation is
checked afterwards.  With
--trace 1 the worker runs a fixed number of instances, each untraced and then
traced, and the run reports per-layer self times and counts instead.

The last line of standard output is one json object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
from worker import file_digest
from workloads import WORKLOADS, write_instances

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3       # instance writes per run, at least ...
SETUP_MIN_S = 1.0       # ... and until this much time is spent
DEADLINE_S = 170  # the whole run, set-up and checks included


def fail(message: str, code: int = 1):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def write_fastest(workload, seed: int, work: Path):
    """Write the instances repeatedly; returns (paths, fastest write s).

    The fastest of several writes is the least disturbed by other
    tenants of the host, which can slow a single write by half.
    """
    samples = []
    while len(samples) < SETUP_REPEATS or sum(samples) < SETUP_MIN_S:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        started = time.perf_counter()
        paths = write_instances(workload, seed, work)
        samples.append(time.perf_counter() - started)
    return paths, min(samples)


def run_worker(job: dict, work: Path, src: Path, timeout: float) -> dict:
    job_path = work / "job.json"
    result_path = work / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path),
             str(result_path)],
            env=worker_env(src), timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def judge(records: list, instances: list, work: Path, pins) -> list[str]:
    """One problem string per failed operation (empty: all passed).

    A solve fails on a non-zero exit, an exception, or a document that
    fails ``checks.check_document`` or differs from its pinned objective
    and lower bound.  Repeat solves of one instance must write the same
    bytes as the document on disk, which is the one checked.  A verify
    fails unless it exits 0 and reports ``verification: pass``.
    """
    doc_problems: dict[int, list[str]] = {}
    problems = []
    for rec in records:
        index = rec["index"]
        where = f"{rec['kind']} of instance {index}"
        if rec["code"] != 0 or rec["error"]:
            problems.append(f"{where}: exit {rec['code']} {rec['error']}")
            continue
        if rec["kind"] == "verify":
            if rec["last_line"] != "verification: pass":
                problems.append(f"{where}: {rec['last_line']!r}")
            continue
        doc_path = work / f"doc-{index}.json"
        if index not in doc_problems:
            doc_problems[index] = check_path(
                instances[index], doc_path, None if pins is None
                else pins[index])
        found = list(doc_problems[index])
        if rec["sha256"] != file_digest(doc_path):
            found.append("document differs from the repeat run checked")
        if found:
            problems.append(f"{where}: {'; '.join(found)}")
    return problems


def check_path(instance_path, doc_path: Path, pin) -> list[str]:
    try:
        inst = json.loads(Path(instance_path).read_text(encoding="utf-8"))
        doc = json.loads(doc_path.read_text(encoding="utf-8"))
        found = checks.check_document(inst, doc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable document: {exc!r}"]
    if pin is not None and [doc["objective"], doc["lower_bound"]] != pin:
        found.append(f"objective, lower bound {doc['objective']}, "
                     f"{doc['lower_bound']} differ from pinned {pin}")
    return found


def tail(samples: list) -> str:
    """Highest percentile with at least ten samples above it."""
    if len(samples) < 11:
        return f"n/a ({len(samples)} samples, 11 needed)"
    ordered = sorted(samples)
    pct = 100 * (len(ordered) - 10) / len(ordered)
    return f"p{pct:.0f} {ordered[-11]:.4f} s"


def end_to_end(result: dict, setup_s: float, scaled: bool) -> dict:
    """The bounded metrics of a --trace 0 run.

    solve_s and round_trip_s are means over the run.  With ``scaled`` the
    times are brought to the reference host speed with the run's gauge
    (hostspeed.py).
    """
    records = [r for r in result["records"] if not r["traced"]]
    solves = [r for r in records if r["kind"] == "solve"]
    round_trips = []
    for rec in records:
        if rec["kind"] == "solve":
            round_trips.append(rec["wall"])
        else:
            round_trips[-1] += rec["wall"]
    walls = {"solve": [r["wall"] for r in solves],
             "verify": [r["wall"] for r in records if r["kind"] == "verify"],
             "round trip": round_trips}
    for kind, samples in walls.items():
        if samples:
            print(f"{kind}: {len(samples)} samples, median "
                  f"{statistics.median(samples):.4f} s, tail {tail(samples)}, "
                  f"mean {statistics.fmean(samples):.4f} s (wall time)")
    print("solve samples:", " ".join(f"{w:.4f}" for w in walls["solve"]))
    factor = hostspeed.scale(result["unit_s"])
    print(f"host speed: {len(result['unit_s'])} units, mean "
          f"{1000 * statistics.fmean(result['unit_s']):.4f} ms, factor "
          f"{factor:.4f}, {'applied to' if scaled else 'not applied to'} "
          f"the times")
    if not scaled:
        factor = 1.0
    # Means, not medians: the host alternates between speed phases tens
    # of seconds long, and a median reports whichever phase held most of
    # the run while the mean weighs each phase by its share of the run.
    return {
        "setup_s": setup_s * factor,
        "solve_s": statistics.fmean(walls["solve"]) * factor,
        "round_trip_s": statistics.fmean(round_trips) * factor,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "doc_bytes": statistics.median(r["bytes"] for r in solves),
    }


def per_layer(result: dict, names: list) -> dict:
    """Per-instance means over the traced part of a --trace 1 run."""
    untraced = [r for r in result["records"] if not r["traced"]]
    traced = [r for r in result["records"] if r["traced"]]
    visits = sum(1 for r in traced if r["kind"] == "solve")
    out = dict.fromkeys(names, 0.0)

    def add(name, value):
        out[name] = out.get(name, 0.0) + value / visits

    for rec in traced:
        for span, seconds in rec["self"].items():
            add(span + "_s", seconds)
        for span, calls in rec["calls"].items():
            add(span + "_calls", calls)
        for name, value in rec["counts"].items():
            add(name, value)
        add(f"trace.{rec['kind']}_s", rec["wall"])
    out["trace.overhead_ratio"] = (sum(r["wall"] for r in traced)
                                   / sum(r["wall"] for r in untraced))
    self_sum = sum(v for k, v in out.items()
                   if k.endswith("_s") and not k.startswith("trace."))
    print(f"traced instances: {visits}; self times sum to {self_sum:.6f} s "
          f"per instance, traced solve_s + verify_s "
          f"{out['trace.solve_s'] + out['trace.verify_s']:.6f} s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    src = ROOT / "src"
    if not (src / "pcst" / "cli.py").is_file():
        fail(f"no package source at {src / 'pcst'}; run from a checkout", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    pins = pins.get(args.workload, {}).get(str(args.seed))

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_build" / "perfbench" / workload.name
    paths, write_s = write_fastest(workload, args.seed, work)
    job = {
        "src": str(src.resolve()),
        "work": str(work),
        "instances": [str(p) for p in paths],
        "checked": workload.checked,
        "seconds": args.seconds,
        "min_passes": workload.min_passes,
        "trace": bool(args.trace),
        "trace_instances": workload.trace_instances,
    }
    timeout = DEADLINE_S - (time.perf_counter() - started)
    result = run_worker(job, work, src, timeout)
    problems = judge(result["records"], paths, work, pins)
    shutil.rmtree(work, ignore_errors=True)

    print(f"set-up: fastest write {write_s:.4f} s, import "
          f"{result['import_s']:.4f} s")
    if args.trace:
        metrics = per_layer(result, list(units))
    else:
        metrics = end_to_end(result, write_s + result["import_s"],
                             workload.scaled)
    if set(metrics) != set(units):
        fail(f"measured {sorted(metrics)}, BENCHMARK.json names "
             f"{sorted(units)}")
    attempted = len(result["records"])
    print(f"workload {workload.name}, seed {args.seed}: {attempted} "
          f"operations, {len(problems)} failed "
          f"(fail_rate {len(problems) / attempted:.4f}); pins "
          f"{'checked' if pins else 'not recorded for this seed'}")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
