"""Record the objective and lower bound of every workload instance.

    PYTHONPATH=src python3 perfbench/make_pins.py [SEEDS]

Writes perfbench/pins.json: for each workload and each seed in
range(SEEDS) (default 50), one [objective, lower_bound] pair per batch
instance, as the solution document prints them.  run.py fails any solve
whose document disagrees with its pin; seeds outside the range are
checked without pins.  Re-pin only when a change is meant to alter the
solver's output.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from pcst import format_rational, parse_instance, solve
from workloads import WORKLOADS, instance_seed, instance_text, sparse_instance


def pin(workload, seed: int) -> list:
    pairs = []
    for index in range(workload.batch):
        raw = sparse_instance(workload.n, workload.m,
                              instance_seed(workload.name, seed, index))
        sol = solve(parse_instance(instance_text(raw)),
                    check_invariants=False, emit_trace=False)
        pairs.append([format_rational(sol.objective),
                      format_rational(sol.lower_bound)])
    return pairs


def main(seeds: int) -> int:
    pins = {name: {str(seed): pin(workload, seed) for seed in range(seeds)}
            for name, workload in WORKLOADS.items()}
    path = Path(__file__).resolve().parent / "pins.json"
    # one line per workload and seed, so a re-pin diffs readably
    blocks = [f" {json.dumps(name)}: {{\n" + ",\n".join(
        f"  {json.dumps(seed)}: {json.dumps(pairs)}"
        for seed, pairs in by_seed.items()) + "\n }"
        for name, by_seed in pins.items()]
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 50))
