"""The run process: imports the package and drives ``pcst.cli.main``.

Started fresh for every benchmark run, with the package's ``src`` on
PYTHONPATH.  It reads a job file written by run.py and writes one json
result file; run.py checks the outputs afterwards, so no checking time
lands inside a timed call.

    python3 perfbench/worker.py JOB.json RESULT.json
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import hostspeed
import tracing


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def call_cli(cli, argv: list, out_path: str) -> tuple[int, str]:
    """One CLI run with stdout going to out_path: (exit code, error)."""
    try:
        with open(out_path, "w", encoding="utf-8") as out, \
                open(os.devnull, "w") as err, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            return cli.main(argv), ""
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return code, f"SystemExit({exc.code!r})"
    except Exception as exc:  # a crash is a failed operation, not a stop
        return -1, repr(exc)


def solution_counts(sol) -> dict:
    """Exact counts read off a returned Solution."""
    kinds = [ev.kind for ev in sol.trace]
    fam = sol.fam
    depth = [0] * len(fam)
    for sid in reversed(fam.ids):
        parent = fam.parent_of(sid)
        depth[sid] = 1 if parent is None else depth[parent] + 1
    return {
        "solver.events": len(kinds),
        "solver.merges": kinds.count("merge"),
        "solver.saturations": kinds.count("saturation"),
        "solver.prunes": kinds.count("prune"),
        "solver.max_time_denominator":
            max(ev.time.denominator for ev in sol.trace),
        "laminar.sets": len(fam),
        "laminar.depth": max(depth),
        "laminar.set_size_sum": sum(fam.size(sid) for sid in fam.ids),
    }


def run_instance(cli, job: dict, index: int, tracer) -> list:
    """Solve (and, on checked workloads, verify) one instance."""
    inst = job["instances"][index]
    doc = os.path.join(job["work"], f"doc-{index}.json")
    report = os.path.join(job["work"], f"verify-{index}.txt")
    ops = [("solve", ["solve", inst, "--json"]
            + (["--check-invariants"] if job["checked"] else []), doc)]
    if job["checked"]:
        ops.append(("verify", ["verify", doc, inst], report))
    records = []
    for kind, argv, out_path in ops:
        if tracer:
            tracer.spans.clear()
            with tracer.span(f"cli.{kind}_self") as root:
                code, error = call_cli(cli, argv, out_path)
            wall = root[2] - root[1]
        else:
            started = time.perf_counter()
            code, error = call_cli(cli, argv, out_path)
            wall = time.perf_counter() - started
        rec = {"kind": kind, "index": index, "wall": wall, "code": code,
               "error": error, "traced": tracer is not None}
        if kind == "solve":
            rec["bytes"] = os.path.getsize(out_path)
            rec["sha256"] = file_digest(out_path)
        else:
            with open(out_path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            rec["last_line"] = lines[-1] if lines else ""
        if tracer:
            rec["self"] = tracing.self_time_by_name(tracer.spans)
            rec["calls"] = {name: sum(1 for sp in tracer.spans
                                      if sp[0] == name)
                            for name in tracing.COUNTED}
            solved = tracer.results.pop("solution", [])
            rec["counts"] = solution_counts(solved[-1]) if solved else {}
        records.append(rec)
    return records


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    started = time.perf_counter()
    import pcst.cli as cli
    import_s = time.perf_counter() - started
    if not os.path.abspath(cli.__file__).startswith(job["src"] + os.sep):
        print(f"error: imported pcst from {cli.__file__}, not {job['src']}",
              file=sys.stderr)
        return 2

    records: list = []
    unit_s: list[float] = []
    batch = len(job["instances"])
    if job["trace"]:
        # each instance untraced and then traced, back to back, so a
        # change in host speed lands on both sides of the overhead ratio
        tracer = tracing.Tracer()
        for index in range(job["trace_instances"]):
            records += run_instance(cli, job, index % batch, None)
            saved = tracing.install(tracer, sys.modules)
            try:
                records += run_instance(cli, job, index % batch, tracer)
            finally:
                tracing.uninstall(saved)
    else:
        # closed loop over whole passes of the batch, so every run weighs
        # each instance equally however fast the program is; a pass is
        # started only if a typical pass still fits.  The host speed is
        # gauged before every instance and once at the end, untimed.
        clock = time.perf_counter()
        passes: list[float] = []
        while len(passes) < job["min_passes"] or (
                time.perf_counter() - clock + statistics.median(passes)
                <= job["seconds"]):
            started = time.perf_counter()
            for index in range(batch):
                unit_s += hostspeed.sample()
                records += run_instance(cli, job, index, None)
            passes.append(time.perf_counter() - started)
        unit_s += hostspeed.sample()

    result = {
        "import_s": import_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": records,
        "unit_s": unit_s,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
